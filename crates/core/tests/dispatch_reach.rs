//! Dispatch reach: every (element, operator) pair that has a native driver
//! must run on it when a native backend is selected.
//!
//! The portable fallback is bitwise identical to the native drivers, so the
//! differential suites cannot tell a dispatch that never reaches hardware
//! from one that does. The instruction counters can: a native fold charges
//! nothing to the thread-local portable counter and exactly one vector per
//! `LANES` items to its backend's series, while the portable model charges
//! both its emulated instructions and one vector per 16 items.
//!
//! The backend series are process-global, so this binary holds exactly one
//! test: no other test in the process can move them while it reads them.
#![cfg(feature = "count")]

use invector_core::invec::{reduce_alg1_arr_with, reduce_alg1_with, reduce_alg2_with, AuxArray};
use invector_core::ops::{Max, Min, ReduceOp, Sum};
use invector_core::{invec_accumulate_with, Backend};
use invector_simd::{count, Mask, SimdElement, SimdVec};

/// Stream length: not a multiple of any backend's lane count, so every
/// stream ends in a masked tail.
const ITEMS: usize = 3 * 16 + 5;

/// Target slots; fewer than a vector's lanes, so vectors hold conflicts.
const SLOTS: usize = 11;

/// Folds `vals` into an identity-filled target through
/// `invec_accumulate_with` and returns the thread-local portable charge
/// and the growth of `backend`'s vector series.
fn fused_charge<T: SimdElement, Op: ReduceOp<T>>(
    backend: Backend,
    idx: &[i32],
    vals: &[T],
) -> (u64, u64) {
    let mut target = vec![Op::identity(); SLOTS];
    let before = count::backend_vectors(backend.tag());
    let (stats, local) =
        count::with(|| invec_accumulate_with::<T, Op>(backend, &mut target, idx, vals));
    let grown = count::backend_vectors(backend.tag()) - before;
    assert_eq!(stats.vectors, grown, "{} {}: reported vectors", backend.name(), Op::NAME);
    (local, grown)
}

/// The index lanes every per-vector fold below sees: five groups, so the
/// merge loop runs.
fn lane_idx<const N: usize>() -> SimdVec<i32, N> {
    SimdVec::from_array(std::array::from_fn(|l| (l % 5) as i32))
}

/// The thread-local portable charge of one `reduce_alg1_with` on AVX-512.
fn alg1_charge<T: SimdElement, Op: ReduceOp<T>, const N: usize>(lanes: [T; N]) -> u64 {
    let mut data = SimdVec::from_array(lanes);
    let run = || reduce_alg1_with::<T, Op, N>(Backend::Avx512, Mask::all(), lane_idx(), &mut data);
    count::with(run).1
}

/// The thread-local portable charge of one `reduce_alg1_arr_with` on
/// AVX-512.
fn alg1_arr_charge<T: SimdElement, const K: usize>(lanes: [T; 16]) -> u64
where
    Sum: ReduceOp<T>,
{
    let mut comps = [SimdVec::from_array(lanes); K];
    let run = || {
        reduce_alg1_arr_with::<T, Sum, K, 16>(Backend::Avx512, Mask::all(), lane_idx(), &mut comps)
    };
    count::with(run).1
}

/// The thread-local portable charge of one `reduce_alg2_with` on AVX-512.
fn alg2_charge(lanes: [f32; 16]) -> u64 {
    let mut data = SimdVec::from_array(lanes);
    let mut aux = AuxArray::<f32, Sum>::new(SLOTS);
    let run = || {
        reduce_alg2_with::<f32, Sum, 16>(
            Backend::Avx512,
            Mask::all(),
            lane_idx(),
            &mut data,
            &mut aux,
        )
    };
    count::with(run).1
}

#[test]
fn native_dispatch_reaches_the_driver_of_every_pair() {
    let idx: Vec<i32> = (0..ITEMS).map(|j| ((j * 7) % SLOTS) as i32).collect();
    let vi: Vec<i32> = (0..ITEMS).map(|j| (j as i32 * 13) % 41 - 20).collect();
    let vf: Vec<f32> = vi.iter().map(|&v| v as f32 * 0.5).collect();
    let pairs = |backend| {
        [
            ("f32 add", fused_charge::<f32, Sum>(backend, &idx, &vf)),
            ("f32 min", fused_charge::<f32, Min>(backend, &idx, &vf)),
            ("f32 max", fused_charge::<f32, Max>(backend, &idx, &vf)),
            ("i32 add", fused_charge::<i32, Sum>(backend, &idx, &vi)),
            ("i32 min", fused_charge::<i32, Min>(backend, &idx, &vi)),
            ("i32 max", fused_charge::<i32, Max>(backend, &idx, &vi)),
        ]
    };

    let mut checked = vec![Backend::Portable.name()];
    for backend in Backend::ALL.into_iter().filter(|b| b.is_native() && b.available()) {
        let vectors = ITEMS.div_ceil(backend.lanes()) as u64;
        for (pair, (local, grown)) in pairs(backend) {
            let what = format!("{} {pair}", backend.name());
            assert_eq!(local, 0, "{what}: the fold charged the portable model");
            assert_eq!(grown, vectors, "{what}: backend vector series");
        }
        checked.push(backend.name());
    }
    for (pair, (local, grown)) in pairs(Backend::Portable) {
        assert!(local > 0, "portable {pair}: the fold charged no emulated instruction");
        assert_eq!(grown, ITEMS.div_ceil(16) as u64, "portable {pair}: vector series");
    }

    let fi: [i32; 16] = std::array::from_fn(|l| l as i32 * 3 - 7);
    let ff: [f32; 16] = fi.map(|v| v as f32 * 0.5);
    if Backend::Avx512.available() {
        let per_vector = [
            ("reduce_alg1_with f32 add", alg1_charge::<f32, Sum, 16>(ff)),
            ("reduce_alg1_with f32 min", alg1_charge::<f32, Min, 16>(ff)),
            ("reduce_alg1_with f32 max", alg1_charge::<f32, Max, 16>(ff)),
            ("reduce_alg1_with i32 add", alg1_charge::<i32, Sum, 16>(fi)),
            ("reduce_alg1_with i32 min", alg1_charge::<i32, Min, 16>(fi)),
            ("reduce_alg1_with i32 max", alg1_charge::<i32, Max, 16>(fi)),
            ("reduce_alg1_arr_with f32 add x3", alg1_arr_charge::<f32, 3>(ff)),
            ("reduce_alg2_with f32 add", alg2_charge(ff)),
        ];
        for (fold, local) in per_vector {
            assert_eq!(local, 0, "avx512 {fold}: the fold charged the portable model");
        }
        checked.push("avx512 per-vector folds");
    }
    // Pairs without a driver run the portable model on every backend, so
    // the counter does see them: the zero charges above are not a counter
    // that reads zero.
    let f8: [f64; 8] = std::array::from_fn(|l| l as f64);
    assert!(alg1_arr_charge::<i32, 2>(fi) > 0, "i32 add x2 has no driver");
    assert!(alg1_charge::<f64, Sum, 8>(f8) > 0, "f64 add has no driver");

    println!("dispatch reach checked on: {}", checked.join(", "));
}
