//! Ablation: the overhead of in-vector reduction versus conflict density
//! (§3.3/§3.4). Sweeps the number of distinct conflicting groups `D1` from
//! 0 to 8 and measures Algorithm 1, Algorithm 2 and the conflict-masking
//! round loop on the same vectors, including the paper's extreme case
//! ("two identical groups of eight" — zero Algorithm 2 iterations).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use invector_core::invec::{reduce_alg1, reduce_alg2, AuxArray};
use invector_core::masking::masked_accumulate;
use invector_core::ops::Sum;
use invector_core::Backend;
use invector_simd::arch::avx512;
use invector_simd::{F32x16, I32x16, Mask16};

/// Builds an index vector with exactly `d` distinct conflicting groups
/// (each of two lanes); remaining lanes are unique.
fn index_with_conflicts(d: usize) -> [i32; 16] {
    assert!(d <= 8);
    let mut idx = [0i32; 16];
    for g in 0..d {
        idx[2 * g] = g as i32;
        idx[2 * g + 1] = g as i32;
    }
    for (offset, slot) in (2 * d..16).enumerate() {
        idx[slot] = 100 + offset as i32;
    }
    idx
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("invec_overhead");
    for d in [0usize, 1, 2, 4, 8] {
        let idx = I32x16::from_array(index_with_conflicts(d));
        group.bench_with_input(BenchmarkId::new("alg1", d), &idx, |b, &idx| {
            b.iter(|| {
                let mut data = F32x16::splat(1.0);
                let (safe, d1) =
                    reduce_alg1::<f32, Sum, 16>(Mask16::all(), black_box(idx), &mut data);
                black_box((safe, d1, data))
            })
        });
        group.bench_with_input(BenchmarkId::new("alg2", d), &idx, |b, &idx| {
            let mut aux = AuxArray::<f32, Sum>::new(256);
            b.iter(|| {
                let mut data = F32x16::splat(1.0);
                let (safe, d2) =
                    reduce_alg2::<f32, Sum, 16>(Mask16::all(), black_box(idx), &mut data, &mut aux);
                black_box((safe, d2, data))
            })
        });
    }
    // Portable model vs the fully-native AVX-512 Algorithm 1 (intrinsics
    // end to end) when the hardware supports it.
    if avx512::available() {
        for d in [0usize, 4, 8] {
            let idx = index_with_conflicts(d);
            group.bench_with_input(BenchmarkId::new("alg1_native_avx512", d), &idx, |b, &idx| {
                b.iter(|| {
                    let mut data = [1.0f32; 16];
                    // SAFETY: guarded by `avx512::available()`.
                    let mask = unsafe { avx512::invec_add_f32(0xFFFF, black_box(idx), &mut data) };
                    black_box((mask, data))
                })
            });
        }
    }

    // The paper's extreme: two identical groups of eight distinct lanes.
    let extreme = I32x16::from_array(std::array::from_fn(|i| (i % 8) as i32));
    group.bench_function("alg1/two-groups-of-eight", |b| {
        b.iter(|| {
            let mut data = F32x16::splat(1.0);
            black_box(reduce_alg1::<f32, Sum, 16>(Mask16::all(), black_box(extreme), &mut data))
        })
    });
    group.bench_function("alg2/two-groups-of-eight", |b| {
        let mut aux = AuxArray::<f32, Sum>::new(8);
        b.iter(|| {
            let mut data = F32x16::splat(1.0);
            black_box(reduce_alg2::<f32, Sum, 16>(
                Mask16::all(),
                black_box(extreme),
                &mut data,
                &mut aux,
            ))
        })
    });
    group.finish();
}

fn bench_stream_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_accumulate_4k");
    group.sample_size(20);
    for (name, modulo) in [("uniform", 4096usize), ("moderate", 64), ("hot", 1)] {
        let idx: Vec<i32> = (0..4096).map(|i| ((i * 131) % modulo) as i32).collect();
        let vals = vec![1.0f32; idx.len()];
        group.bench_function(BenchmarkId::new("invec", name), |b| {
            b.iter(|| {
                let mut target = vec![0.0f32; 4096];
                invector_core::invec_accumulate::<f32, Sum>(&mut target, &idx, &vals);
                black_box(target)
            })
        });
        group.bench_function(BenchmarkId::new("masked", name), |b| {
            b.iter(|| {
                let mut target = vec![0.0f32; 4096];
                masked_accumulate::<f32, Sum>(&mut target, &idx, &vals);
                black_box(target)
            })
        });
        group.bench_function(BenchmarkId::new("adaptive", name), |b| {
            b.iter(|| {
                let mut target = vec![0.0f32; 4096];
                invector_core::adaptive_accumulate::<f32, Sum>(&mut target, &idx, &vals);
                black_box(target)
            })
        });
    }
    group.finish();
}

/// The honest wall-clock comparison: scalar Rust vs the fully-native
/// AVX-512 pipeline (real `vpconflictd` + in-register reduction + hardware
/// gather-add-scatter), no emulation in the loop.
fn bench_native_pipeline(c: &mut Criterion) {
    if !avx512::available() {
        eprintln!("skipping native_pipeline: AVX-512 not available");
        return;
    }
    let mut group = c.benchmark_group("native_pipeline_64k");
    group.sample_size(30);
    for (name, domain) in [("spread", 1 << 16), ("moderate", 1 << 8), ("hot", 4usize)] {
        let idx: Vec<i32> =
            (0..65_536).map(|i| ((i as u64 * 2654435761) % domain as u64) as i32).collect();
        let vals: Vec<f32> = (0..65_536).map(|i| (i % 17) as f32).collect();
        group.bench_function(BenchmarkId::new("scalar", name), |b| {
            b.iter(|| {
                let mut target = vec![0.0f32; domain];
                invector_core::serial_accumulate::<f32, Sum>(
                    &mut target,
                    black_box(&idx),
                    black_box(&vals),
                );
                black_box(target)
            })
        });
        group.bench_function(BenchmarkId::new("native_invec", name), |b| {
            b.iter(|| {
                let mut target = vec![0.0f32; domain];
                invector_core::invec_accumulate_with::<f32, Sum>(
                    Backend::Avx512,
                    &mut target,
                    black_box(&idx),
                    black_box(&vals),
                );
                black_box(target)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms, bench_stream_strategies, bench_native_pipeline);
criterion_main!(benches);
