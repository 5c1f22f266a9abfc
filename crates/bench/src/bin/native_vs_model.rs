//! Native SIMD backends vs the portable software model: wall-clock of the
//! fused whole-stream accumulation drivers that back every kernel's
//! in-vector hot loop (sum/min/max over `f32` and `i32`), on a uniform and
//! a skewed (hotspot-mixture) index distribution, with one row per native
//! ISA the build host supports (AVX-512, AVX2, NEON).
//!
//! Every row's `speedup` is the median of ratios paired by repetition
//! (portable over native, timed back to back), with the first and third
//! quartiles of the same ratios (`speedup_q1`, `speedup_q3`): the ratio and
//! its spread within one run are what can compare two builds, where the
//! per-path times drift with the host between runs.
//!
//! Emits one JSON document on stdout. The `count_feature` field records
//! whether the portable model charged its instruction counter, so the
//! counter-on vs counter-off comparison is two runs of this binary:
//!
//! ```text
//! cargo run --release -p invector-bench --bin native_vs_model
//! cargo run --release -p invector-bench --bin native_vs_model --no-default-features
//! ```
//!
//! `BENCH_native.json` at the repo root holds both runs.

use std::time::{Duration, Instant};

use invector_bench::arg_scale;
use invector_core::backend::Backend;
use invector_core::ops::{Max, Min, Sum};
use invector_core::{invec_accumulate, invec_accumulate_with, BackendChoice};
use invector_harness::{registry, RunSpec};
use invector_kernels::{ExecPolicy, Variant};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Target slots, L1-resident so both paths measure the conflict-resolution
/// pipeline rather than DRAM latency (shared across generators so speedups
/// are comparable).
const TARGET_LEN: usize = 1 << 12;

/// Hot slots of the skewed generator: a power-law-style hotspot mixture
/// (most items uniform, a heavy tail landing on a few slots), the regime of
/// the paper's real graph datasets — conflicts are frequent but small, so
/// the merge loop runs without dominating.
const HOT_SLOTS: i32 = 12;

/// Fraction (percent) of skewed items routed to the hot slots.
const HOT_PERCENT: u32 = 8;

/// The native ISAs this host can execute, widest first.
fn native_backends() -> Vec<Backend> {
    [Backend::Avx512, Backend::Avx2, Backend::Neon].into_iter().filter(|b| b.available()).collect()
}

fn backend_choice(b: Backend) -> BackendChoice {
    match b {
        Backend::Portable => BackendChoice::Portable,
        Backend::Avx512 => BackendChoice::Avx512,
        Backend::Avx2 => BackendChoice::Avx2,
        Backend::Neon => BackendChoice::Neon,
    }
}

struct Row {
    kernel: &'static str,
    generator: &'static str,
    backend: &'static str,
    portable_secs: f64,
    native_secs: f64,
    /// First quartile, median and third quartile of the paired ratios.
    speedup: [f64; 3],
}

fn main() {
    let scale = arg_scale(0.1);
    let items = ((4 << 20) as f64 * scale) as usize + 16;
    let mut rng = SmallRng::seed_from_u64(0x1605);

    let generators: [(&'static str, Vec<i32>); 2] = [
        ("uniform", (0..items).map(|_| rng.gen_range(0..TARGET_LEN as i32)).collect()),
        (
            "skewed",
            (0..items)
                .map(|_| {
                    if rng.gen_range(0..100u32) < HOT_PERCENT {
                        rng.gen_range(0..HOT_SLOTS)
                    } else {
                        rng.gen_range(0..TARGET_LEN as i32)
                    }
                })
                .collect(),
        ),
    ];
    let fvals: Vec<f32> = (0..items).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let ivals: Vec<i32> = (0..items).map(|_| rng.gen_range(-100..100)).collect();

    let backends = native_backends();
    let mut rows: Vec<Row> = Vec::new();
    // One measurement per (kernel, generator, backend): the portable
    // model's whole stream vs the same stream through the backend's fused
    // driver. Each repetition times every path back to back, so scheduler
    // noise (steal time, frequency shifts) hits all rows of a group alike;
    // the reported speedup is the median of the per-repetition ratios,
    // which a few disturbed repetitions cannot drag around, with its
    // quartiles.
    macro_rules! bench {
        ($name:literal, $t:ty, $op:ty, $vals:expr, $init:expr) => {
            for (generator, idx) in &generators {
                let base: Vec<$t> = vec![$init; TARGET_LEN];
                let vals: &[$t] = $vals;
                let mut portable_secs = f64::INFINITY;
                let mut native_best = vec![f64::INFINITY; backends.len()];
                let mut ratios: Vec<Vec<f64>> = vec![Vec::with_capacity(REPS); backends.len()];
                // One untimed pass per path pages the streams in and warms
                // the caches so the first timed repetition is not an outlier.
                {
                    let mut target = base.clone();
                    invec_accumulate::<$t, $op>(&mut target, idx, vals);
                    for &backend in &backends {
                        let mut target = base.clone();
                        invec_accumulate_with::<$t, $op>(backend, &mut target, idx, vals);
                    }
                }
                for _ in 0..REPS {
                    let p = once(|| {
                        let mut target = base.clone();
                        let start = Instant::now();
                        invec_accumulate::<$t, $op>(&mut target, idx, vals);
                        start.elapsed()
                    });
                    portable_secs = portable_secs.min(p);
                    for (k, &backend) in backends.iter().enumerate() {
                        let n = once(|| {
                            let mut target = base.clone();
                            let start = Instant::now();
                            invec_accumulate_with::<$t, $op>(backend, &mut target, idx, vals);
                            start.elapsed()
                        });
                        native_best[k] = native_best[k].min(n);
                        ratios[k].push(p / n.max(1e-12));
                    }
                }
                for (k, &backend) in backends.iter().enumerate() {
                    rows.push(Row {
                        kernel: $name,
                        generator,
                        backend: backend.name(),
                        portable_secs,
                        native_secs: native_best[k],
                        speedup: quartiles(&mut ratios[k]),
                    });
                }
            }
        };
    }
    bench!("add_f32", f32, Sum, &fvals, 0.0);
    bench!("min_f32", f32, Min, &fvals, f32::INFINITY);
    bench!("max_f32", f32, Max, &fvals, f32::NEG_INFINITY);
    bench!("add_i32", i32, Sum, &ivals, 0);
    bench!("min_i32", i32, Min, &ivals, i32::MAX);
    bench!("max_i32", i32, Max, &ivals, i32::MIN);

    print_json(scale, items, &backends, &rows, &app_rows(scale, &backends));
}

/// End-to-end registry rows: each application's in-vector variant on the
/// portable model vs every available native backend, through the harness
/// pipeline. The micro rows above isolate the accumulation driver; these
/// put the same backends under the full kernels. Each repetition runs the
/// portable model, then every backend, and pairs their times; the times
/// reported are each path's median.
fn app_rows(scale: f64, backends: &[Backend]) -> Vec<AppRow> {
    let spec = RunSpec { scale, iters: 20, ..RunSpec::small() };
    let mut rows = Vec::new();
    for app in registry::all() {
        let workload = match app.prepare(&spec) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("skipping {}: {e}", app.name());
                continue;
            }
        };
        let time = |choice: BackendChoice| {
            let policy = ExecPolicy::default().backend(choice);
            workload.run(Variant::Invec, &policy).elapsed().as_secs_f64()
        };
        let mut portable = Vec::with_capacity(APP_REPS);
        let mut native = vec![Vec::with_capacity(APP_REPS); backends.len()];
        let mut ratios = vec![Vec::with_capacity(APP_REPS); backends.len()];
        for _ in 0..APP_REPS {
            let p = time(BackendChoice::Portable);
            portable.push(p);
            for (k, &backend) in backends.iter().enumerate() {
                let n = time(backend_choice(backend));
                native[k].push(n);
                ratios[k].push(p / n.max(1e-12));
            }
        }
        let portable_secs = quartiles(&mut portable)[1];
        for (k, &backend) in backends.iter().enumerate() {
            rows.push(AppRow {
                app: app.name(),
                input: workload.describe(),
                backend: backend.name(),
                portable_secs,
                native_secs: quartiles(&mut native[k])[1],
                speedup: quartiles(&mut ratios[k]),
            });
        }
        if backends.is_empty() {
            rows.push(AppRow {
                app: app.name(),
                input: workload.describe(),
                backend: "portable",
                portable_secs,
                native_secs: portable_secs,
                speedup: [1.0; 3],
            });
        }
    }
    rows
}

/// Paired repetitions per app.
const APP_REPS: usize = 5;

struct AppRow {
    app: &'static str,
    input: String,
    backend: &'static str,
    portable_secs: f64,
    native_secs: f64,
    /// First quartile, median and third quartile of the paired ratios.
    speedup: [f64; 3],
}

/// Interleaved repetitions per (kernel, generator, path).
const REPS: usize = 31;

/// One measured duration, in seconds.
fn once(f: impl FnOnce() -> Duration) -> f64 {
    f().as_secs_f64()
}

/// First quartile, median and third quartile of `xs`, interpolating
/// linearly between order statistics (so the median of an even count is
/// the mean of the middle two).
fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    if xs.is_empty() {
        return [f64::NAN; 3];
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    [0.25, 0.5, 0.75].map(|q| {
        let pos = q * (xs.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
    })
}

/// A row's paired ratio: median, then its quartiles.
fn speedup_fields(speedup: [f64; 3]) -> String {
    let [q1, median, q3] = speedup;
    format!("\"speedup\": {median:.2}, \"speedup_q1\": {q1:.2}, \"speedup_q3\": {q3:.2}")
}

fn print_json(scale: f64, items: usize, backends: &[Backend], rows: &[Row], apps: &[AppRow]) {
    println!("{{");
    println!("  \"experiment\": \"native_vs_model\",");
    println!("  \"scale\": {scale},");
    println!("  \"items\": {items},");
    println!("  \"target_len\": {TARGET_LEN},");
    println!("  \"count_feature\": {},", cfg!(feature = "count"));
    let names: Vec<String> = backends.iter().map(|b| format!("\"{}\"", b.name())).collect();
    println!("  \"native_backends\": [{}],", names.join(", "));
    println!("  \"kernels\": [");
    for (i, r) in rows.iter().enumerate() {
        println!("    {{");
        println!("      \"kernel\": \"{}\",", r.kernel);
        println!("      \"generator\": \"{}\",", r.generator);
        println!("      \"backend\": \"{}\",", r.backend);
        println!("      \"portable_secs\": {:.6},", r.portable_secs);
        println!("      \"native_secs\": {:.6},", r.native_secs);
        println!("      {}", speedup_fields(r.speedup));
        println!("    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    println!("  ],");
    println!("  \"apps\": [");
    for (i, r) in apps.iter().enumerate() {
        println!("    {{");
        println!("      \"app\": \"{}\",", r.app);
        println!("      \"input\": \"{}\",", r.input);
        println!("      \"backend\": \"{}\",", r.backend);
        println!("      \"portable_secs\": {:.6},", r.portable_secs);
        println!("      \"native_secs\": {:.6},", r.native_secs);
        println!("      {}", speedup_fields(r.speedup));
        println!("    }}{}", if i + 1 < apps.len() { "," } else { "" });
    }
    println!("  ]");
    println!("}}");
}
