//! Lane-generic ISA abstraction over the native backends.
//!
//! The portable model ([`SimdVec`](crate::SimdVec) + the `reduce_alg1` /
//! `reduce_alg2` machinery in `invector-core`) defines the semantics of
//! conflict-free accumulation at *any* lane count. Each native backend is a
//! zero-sized type implementing [`Isa`]: a fixed lane width, a runtime
//! availability probe, a conflict-free-subset primitive, and the fused
//! whole-stream `accumulate_{add,min,max}_{f32,i32}` drivers. The backend
//! dispatch layer in `invector-core` is generic over `I: Isa`, so adding an
//! ISA means implementing this trait — nothing above it changes.
//!
//! Three backends exist today:
//!
//! | type       | lanes | conflict detection                                |
//! |------------|-------|---------------------------------------------------|
//! | [`Avx512`] | 16    | hardware `vpconflictd` + `vptestnmd`              |
//! | [`Avx2`]   | 8     | emulated: broadcast/compare sweep (no `vpconflictd`) |
//! | [`Neon`]   | 4     | emulated: three compare/mask steps                |
//!
//! The two x86 backends write Algorithm 1 once. Each supplies a
//! crate-private lane vocabulary (masked loads, the unsigned bounds mask,
//! the conflict-free subset, lane equality, a one-lane blend, masked
//! gather, the commit's add/min/max, and the conflict-free commit: a masked
//! scatter on AVX-512, a store and scalar write-back on AVX2). One generic
//! stream driver and one merge-group walk run over it, instantiated inside
//! each backend's `#[target_feature]` entries. NEON keeps its own copy of
//! the driver until an aarch64 toolchain can build a port.
//!
//! Every type is defined on every compilation target; on the wrong
//! architecture `available()` is a compile-time `false` and the `unsafe`
//! entry points are `unreachable!()` stubs. This lets the dispatch layer
//! compile unconditionally (one match over backends, no `#[cfg]` forests)
//! while the availability gate keeps the stubs dead.
//!
//! Bitwise parity contract: each driver must agree **bit for bit** with the
//! portable model *at its own lane width* — merge iterations fold conflict
//! groups with the same sequential, identity-seeded, ascending scalar fold
//! the portable `SimdVec::reduce` performs. `tests/native_differential.rs`
//! enforces this for every backend available at runtime.

pub mod avx2;
pub mod avx512;
#[cfg(target_arch = "x86_64")]
mod lanes;
pub mod neon;

pub use avx2::Avx2;
pub use avx512::Avx512;
pub use neon::Neon;

/// One native SIMD instruction set, as seen by the backend dispatch layer.
///
/// All methods are associated functions (the implementing types are
/// zero-sized); masks are the low `LANES` bits of a `u32`, ascending
/// lane order, matching [`Mask::bits`](crate::Mask::bits). The fused
/// drivers are Algorithm 1 over whole streams; on [`Avx512`] and [`Avx2`]
/// each is a `#[target_feature]` entry into the one driver the two share
/// (see the module docs). No Algorithm-2 stream driver is part of the
/// trait.
///
/// # Safety
///
/// Implementations promise that every `unsafe fn` below is sound to call
/// whenever `available()` returned `true`, with the documented slice-length
/// preconditions; and that results are bitwise identical to the portable
/// model at `LANES` lanes (same conflict-free subset, same fold order, same
/// depth accounting, same out-of-bounds panic behavior).
pub unsafe trait Isa {
    /// Stable lowercase backend name (`"avx512"`, `"avx2"`, `"neon"`).
    const NAME: &'static str;

    /// 32-bit lanes per vector.
    const LANES: usize;

    /// Index into [`count::BACKEND_NAMES`](crate::count::BACKEND_NAMES) for
    /// the backend-labeled instruction/vector counter series.
    const TAG: usize;

    /// Modeled hardware instructions per conflict-free vector iteration,
    /// used to keep per-ISA counter totals comparable with the portable
    /// model's emulated counts. Merge iterations add the paper's `8` each
    /// (charged separately by the dispatch layer from the depth histogram).
    const MODEL_COST_PER_VECTOR: u64;

    /// Does the running CPU support this ISA? Compile-time `false` on
    /// foreign architectures; cached after the first probe.
    fn available() -> bool;

    /// Active lanes with no earlier active duplicate index.
    ///
    /// `idx.len()` must equal `LANES`; `active` uses the low `LANES` bits.
    /// Pure lane-local computation: indices may be any `i32`, including
    /// negative (no memory is touched).
    ///
    /// # Safety
    ///
    /// `available()` must have returned `true`.
    unsafe fn conflict_free_subset(active: u32, idx: &[i32]) -> u32;

    /// Fused whole-stream `target[idx[j]] += vals[j]` over `f32`.
    ///
    /// Records one depth bucket per vector (`depth[d] += 1`) and returns
    /// the number of vector iterations (`⌈idx.len() / LANES⌉`).
    ///
    /// # Safety
    ///
    /// `available()` must have returned `true`; `idx.len() == vals.len()`;
    /// `target.len() <= i32::MAX`. Out-of-range (including negative)
    /// indices panic like the portable model before any lane of the
    /// offending vector commits.
    unsafe fn accumulate_add_f32(
        target: &mut [f32],
        idx: &[i32],
        vals: &[f32],
        depth: &mut [u64; 17],
    ) -> u64;

    /// Fused whole-stream `f32` minimum; contract as [`Isa::accumulate_add_f32`].
    ///
    /// # Safety
    ///
    /// As [`Isa::accumulate_add_f32`].
    unsafe fn accumulate_min_f32(
        target: &mut [f32],
        idx: &[i32],
        vals: &[f32],
        depth: &mut [u64; 17],
    ) -> u64;

    /// Fused whole-stream `f32` maximum; contract as [`Isa::accumulate_add_f32`].
    ///
    /// # Safety
    ///
    /// As [`Isa::accumulate_add_f32`].
    unsafe fn accumulate_max_f32(
        target: &mut [f32],
        idx: &[i32],
        vals: &[f32],
        depth: &mut [u64; 17],
    ) -> u64;

    /// Fused whole-stream wrapping `i32` sum; contract as
    /// [`Isa::accumulate_add_f32`].
    ///
    /// # Safety
    ///
    /// As [`Isa::accumulate_add_f32`].
    unsafe fn accumulate_add_i32(
        target: &mut [i32],
        idx: &[i32],
        vals: &[i32],
        depth: &mut [u64; 17],
    ) -> u64;

    /// Fused whole-stream `i32` minimum; contract as
    /// [`Isa::accumulate_add_f32`].
    ///
    /// # Safety
    ///
    /// As [`Isa::accumulate_add_f32`].
    unsafe fn accumulate_min_i32(
        target: &mut [i32],
        idx: &[i32],
        vals: &[i32],
        depth: &mut [u64; 17],
    ) -> u64;

    /// Fused whole-stream `i32` maximum; contract as
    /// [`Isa::accumulate_add_f32`].
    ///
    /// # Safety
    ///
    /// As [`Isa::accumulate_add_f32`].
    unsafe fn accumulate_max_i32(
        target: &mut [i32],
        idx: &[i32],
        vals: &[i32],
        depth: &mut [u64; 17],
    ) -> u64;
}

#[cfg(test)]
mod tests {
    use super::{Avx2, Avx512, Isa, Neon};
    use rand::{Rng, SeedableRng};
    use std::fmt::Debug;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// One fused `Isa` driver, as a function pointer.
    type Driver<T> = unsafe fn(&mut [T], &[i32], &[T], &mut [u64; 17]) -> u64;

    /// A driver's name, the driver, and the serial fold it must match.
    type Case<T> = (&'static str, Driver<T>, fn(T, T) -> T);

    /// A lane element compared bit for bit (so `-0.0 != 0.0`).
    trait Lane: Copy + Debug {
        fn bits(self) -> u32;
    }

    impl Lane for f32 {
        fn bits(self) -> u32 {
            self.to_bits()
        }
    }

    impl Lane for i32 {
        fn bits(self) -> u32 {
            self as u32
        }
    }

    fn serial_fold<T: Lane>(target: &mut [T], idx: &[i32], vals: &[T], fold: fn(T, T) -> T) {
        for (&i, &v) in idx.iter().zip(vals) {
            target[i as usize] = fold(target[i as usize], v);
        }
    }

    fn assert_bits_eq<T: Lane>(got: &[T], want: &[T], what: &str) {
        let bits = |s: &[T]| s.iter().map(|v| v.bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: got {got:?}, want {want:?}");
    }

    /// Runs `driver` over `idx`/`vals` on a copy of `init` and checks it
    /// against the serial fold: same slots bit for bit, one depth bucket
    /// per vector, `⌈n / LANES⌉` vectors.
    fn check_fold<I: Isa, T: Lane>(
        name: &str,
        driver: Driver<T>,
        fold: fn(T, T) -> T,
        init: &[T],
        idx: &[i32],
        vals: &[T],
    ) {
        let mut target = init.to_vec();
        let mut depth = [0u64; 17];
        // SAFETY: the caller checked `I::available()`; lengths match, every
        // index is in range and the target is short.
        let vectors = unsafe { driver(&mut target, idx, vals, &mut depth) };
        let what = format!("{} {name} n={}", I::NAME, idx.len());
        assert_eq!(vectors, idx.len().div_ceil(I::LANES) as u64, "{what}: vectors");
        assert_eq!(depth.iter().sum::<u64>(), vectors, "{what}: depth buckets");
        let mut want = init.to_vec();
        serial_fold(&mut want, idx, vals, fold);
        assert_bits_eq(&target, &want, &what);
    }

    /// Plants `bad` at stream position `at` and checks that `driver`
    /// panics with the portable model's message after committing exactly
    /// the vectors before the offending one.
    fn check_bounds_panic<I: Isa, T: Lane>(
        name: &str,
        driver: Driver<T>,
        fold: fn(T, T) -> T,
        init: &[T],
        (idx, vals): (&[i32], &[T]),
        (at, bad): (usize, i32),
    ) {
        let mut idx = idx.to_vec();
        idx[at] = bad;
        let mut target = init.to_vec();
        let mut depth = [0u64; 17];
        let run = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the caller checked `I::available()` and lengths
            // match; the out-of-range index is the documented panic case.
            unsafe { driver(&mut target, &idx, vals, &mut depth) }
        }));
        let what = format!("{} {name}: index {bad} at {at}", I::NAME);
        let payload = run.expect_err(&format!("{what}: no panic"));
        let want =
            format!("gather/scatter index {bad} out of bounds for slice of length {}", init.len());
        assert_eq!(payload.downcast_ref::<String>(), Some(&want), "{what}: message");
        let committed = at / I::LANES * I::LANES;
        let mut want = init.to_vec();
        serial_fold(&mut want, &idx[..committed], &vals[..committed], fold);
        assert_bits_eq(&target, &want, &what);
    }

    /// The contract every `Isa`'s six fused drivers keep, whatever the
    /// backend: the serial fold's result at every stream length up to two
    /// vectors, one depth bucket per vector, NaN updates that leave a
    /// min/max slot as it was, and an out-of-range index that panics with
    /// the portable model's message before its vector commits.
    fn check_fused_contract<I: Isa>() {
        if !I::available() {
            eprintln!("skipping the fused-driver contract: {} unavailable on this host", I::NAME);
            return;
        }
        const SLOTS: usize = 7;
        let f32s: [Case<f32>; 3] = [
            ("accumulate_add_f32", I::accumulate_add_f32, |a, b| a + b),
            ("accumulate_min_f32", I::accumulate_min_f32, f32::min),
            ("accumulate_max_f32", I::accumulate_max_f32, f32::max),
        ];
        let i32s: [Case<i32>; 3] = [
            ("accumulate_add_i32", I::accumulate_add_i32, i32::wrapping_add),
            ("accumulate_min_i32", I::accumulate_min_i32, i32::min),
            ("accumulate_max_i32", I::accumulate_max_i32, i32::max),
        ];
        // Not the identities: a driver that seeds a merge fold from the
        // target, or from the masked load's zero fill, shows here.
        let init_f: Vec<f32> = (0..SLOTS).map(|k| k as f32 - 3.0).collect();
        let init_i: Vec<i32> = (0..SLOTS as i32).map(|k| k - 3).collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xF05E_D000 + I::LANES as u64);
        for n in 0..=2 * I::LANES {
            for _ in 0..24 {
                let idx: Vec<i32> = (0..n).map(|_| rng.gen_range(0..SLOTS as i32)).collect();
                let raw: Vec<i32> = (0..n).map(|_| rng.gen_range(-100..100)).collect();
                // Half-integers: every f32 sum of a stream is exact, so
                // the in-vector merge order cannot move a bit.
                let vf: Vec<f32> = raw.iter().map(|&v| v as f32 * 0.5).collect();
                // Min/max also see NaN updates, which must change nothing.
                let vf_nan: Vec<f32> = raw
                    .iter()
                    .map(|&v| {
                        if v % 4 == 0 {
                            f32::from_bits(0x7fc0_0000 | (v as u32 & 0xff))
                        } else {
                            v as f32 * 0.5
                        }
                    })
                    .collect();
                for (k, &(name, driver, fold)) in f32s.iter().enumerate() {
                    let vals = if k == 0 { &vf } else { &vf_nan };
                    check_fold::<I, f32>(name, driver, fold, &init_f, &idx, vals);
                }
                for &(name, driver, fold) in &i32s {
                    check_fold::<I, i32>(name, driver, fold, &init_i, &idx, &raw);
                }
            }
        }
        let nans = vec![f32::NAN; 2 * I::LANES + 3];
        let nan_idx: Vec<i32> = (0..nans.len()).map(|j| (j % SLOTS) as i32).collect();
        for &(name, driver, fold) in &f32s[1..] {
            check_fold::<I, f32>(name, driver, fold, &init_f, &nan_idx, &nans);
        }
        // An index equal to the length, or negative, in the first vector,
        // the second, and a masked tail.
        let n = 2 * I::LANES + 3;
        let idx: Vec<i32> = (0..n).map(|_| rng.gen_range(0..SLOTS as i32)).collect();
        let raw: Vec<i32> = (0..n).map(|_| rng.gen_range(-100..100)).collect();
        let vf: Vec<f32> = raw.iter().map(|&v| v as f32 * 0.5).collect();
        for at in [0, I::LANES - 1, I::LANES + 1, n - 1] {
            for bad in [SLOTS as i32, -1, i32::MIN] {
                for &(name, driver, fold) in &f32s {
                    check_bounds_panic::<I, f32>(
                        name,
                        driver,
                        fold,
                        &init_f,
                        (&idx, &vf),
                        (at, bad),
                    );
                }
                for &(name, driver, fold) in &i32s {
                    check_bounds_panic::<I, i32>(
                        name,
                        driver,
                        fold,
                        &init_i,
                        (&idx, &raw),
                        (at, bad),
                    );
                }
            }
        }
    }

    #[test]
    fn fused_drivers_keep_the_isa_contract_on_every_available_backend() {
        check_fused_contract::<Avx512>();
        check_fused_contract::<Avx2>();
        check_fused_contract::<Neon>();
    }
}
