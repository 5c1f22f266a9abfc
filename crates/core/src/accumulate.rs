//! Whole-stream accumulation drivers.
//!
//! These are the highest-level entry points of the crate: given parallel
//! slices of reduction indices and values, fold every value into
//! `target[idx]` with a chosen conflict-resolution strategy. All drivers
//! compute exactly the same result as [`serial_accumulate`]; they differ in
//! how lane conflicts are handled, which is what the paper's evaluation
//! measures.

use invector_simd::{Avx2, Avx512, Isa, Neon, SimdElement, SimdVec};

use crate::adaptive::AdaptiveReducer;
use crate::backend::Backend;
use crate::invec::reduce_alg1;
use crate::ops::ReduceOp;
use crate::stats::DepthHistogram;

/// Statistics of one in-vector accumulation pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvecStats {
    /// Vector iterations executed (`⌈n / LANES⌉` at the backend's width).
    pub vectors: u64,
    /// Conflict-depth histogram (D1 per vector).
    pub depth: DepthHistogram,
}

impl InvecStats {
    /// Folds another pass's statistics into this one (used by the execution
    /// engine to merge per-worker reports).
    pub fn merge(&mut self, other: &InvecStats) {
        self.vectors += other.vectors;
        self.depth.merge(&other.depth);
    }
}

/// Scalar reference: `target[idx[j]] = Op::combine(target[idx[j]], vals[j])`
/// for every `j` in order.
///
/// # Panics
///
/// Panics if `idx.len() != vals.len()` or an index is out of bounds.
pub fn serial_accumulate<T, Op>(target: &mut [T], idx: &[i32], vals: &[T])
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    assert_eq!(idx.len(), vals.len(), "index/value length mismatch");
    for (&i, &v) in idx.iter().zip(vals) {
        let slot = &mut target[i as usize];
        *slot = Op::combine(*slot, v);
    }
}

/// Accumulates with **in-vector reduction** (Algorithm 1): each 16-item
/// vector is conflict-resolved internally, then committed with one masked
/// gather-combine-scatter. SIMD utilization of the compute part is 100% by
/// construction (§3.1).
///
/// # Panics
///
/// Panics if `idx.len() != vals.len()` or an index is out of bounds for
/// `target`.
///
/// # Example
///
/// ```
/// use invector_core::{accumulate::invec_accumulate, ops::Sum};
///
/// let mut hist = vec![0.0f32; 3];
/// let stats = invec_accumulate::<f32, Sum>(&mut hist, &[0, 0, 2, 0], &[1.0; 4]);
/// assert_eq!(hist, vec![3.0, 0.0, 1.0]);
/// assert_eq!(stats.vectors, 1);
/// ```
pub fn invec_accumulate<T, Op>(target: &mut [T], idx: &[i32], vals: &[T]) -> InvecStats
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    invec_accumulate_n::<T, Op, 16>(target, idx, vals)
}

/// Width-generic portable [`invec_accumulate`]: the same driver at `N`
/// lanes per vector. This is the parity reference for the narrower native
/// ISAs — AVX2 results (and stats) equal `invec_accumulate_n::<_, _, 8>`,
/// NEON equals `N = 4`.
///
/// # Panics
///
/// Panics if `idx.len() != vals.len()` or an index is out of bounds for
/// `target`.
pub fn invec_accumulate_n<T, Op, const N: usize>(
    target: &mut [T],
    idx: &[i32],
    vals: &[T],
) -> InvecStats
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    assert_eq!(idx.len(), vals.len(), "index/value length mismatch");
    invec_loop::<T, Op, N>(target, idx, vals)
}

/// The portable per-vector loop at `N` lanes: each vector is reduced by
/// the portable model's [`reduce_alg1`], whatever the backend.
fn invec_loop<T, Op, const N: usize>(target: &mut [T], idx: &[i32], vals: &[T]) -> InvecStats
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    let mut stats = InvecStats::default();
    let mut j = 0;
    while j < idx.len() {
        let (vidx, active) = SimdVec::<i32, N>::load_partial(&idx[j..], 0);
        let (mut vval, _) = SimdVec::<T, N>::load_partial(&vals[j..], Op::identity());
        let (safe, d1) = reduce_alg1::<T, Op, N>(active, vidx, &mut vval);
        let old = SimdVec::<T, N>::zero().mask_gather(safe, target, vidx);
        let new = Op::combine_vec(old, vval);
        new.mask_scatter(safe, target, vidx);
        stats.vectors += 1;
        stats.depth.record(d1);
        j += N;
    }
    stats
}

/// Backend-dispatched [`invec_accumulate`].
///
/// With a native backend and a `(T, Op)` pair whose [`ReduceOp`] impl
/// names a fused driver — sum/min/max over `f32` or `i32`, i.e. every
/// kernel in this workspace — the **whole stream** runs inside one fused
/// `target_feature` function (the [`Isa::accumulate_add_f32`] family):
/// gather, conflict detection, in-vector reduce, and scatter never leave
/// vector registers, and tails run as masked vectors. Other pairs, and a
/// target over `i32::MAX` slots (which the fused drivers cannot index),
/// fall back to the portable per-vector loop **at the backend's lane
/// width**, so statistics stay width-consistent. Results and depth
/// statistics are bitwise identical to the portable driver at the same
/// width ([`invec_accumulate_n`]).
///
/// Each call charges the backend-labeled counter series
/// (`invector_simd::count::bump_backend`): fused native runs with the
/// modeled `vectors · MODEL_COST_PER_VECTOR + 8 · merges` cost, portable
/// and fallback runs with their measured emulated cost.
///
/// # Panics
///
/// Panics if `idx.len() != vals.len()` or an index is out of bounds for
/// `target`.
pub fn invec_accumulate_with<T, Op>(
    backend: Backend,
    target: &mut [T],
    idx: &[i32],
    vals: &[T],
) -> InvecStats
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    assert_eq!(idx.len(), vals.len(), "index/value length mismatch");
    match backend {
        Backend::Avx512 => {
            if let Some(stats) = fused_accumulate::<Avx512, T, Op>(target, idx, vals) {
                return stats;
            }
        }
        Backend::Avx2 => {
            if let Some(stats) = fused_accumulate::<Avx2, T, Op>(target, idx, vals) {
                return stats;
            }
        }
        Backend::Neon => {
            if let Some(stats) = fused_accumulate::<Neon, T, Op>(target, idx, vals) {
                return stats;
            }
        }
        Backend::Portable => {}
    }
    let (stats, cost) = invector_simd::count::with(|| match backend.lanes() {
        4 => invec_loop::<T, Op, 4>(target, idx, vals),
        8 => invec_loop::<T, Op, 8>(target, idx, vals),
        _ => invec_loop::<T, Op, 16>(target, idx, vals),
    });
    invector_simd::count::bump_backend(backend.tag(), cost, stats.vectors);
    stats
}

/// Runs `I`'s fused driver for `(T, Op)` when the pair names one
/// ([`ReduceOp`]'s impls map each pair to its drivers). The drivers
/// bounds-check indices themselves (one masked unsigned compare per
/// vector), panicking like the portable model, so no scalar prevalidation
/// pass runs here. Charges the backend's counter series with the modeled
/// instruction cost. Returns `None` when the ISA is unavailable or the
/// pair has no fused driver.
fn fused_accumulate<I, T, Op>(target: &mut [T], idx: &[i32], vals: &[T]) -> Option<InvecStats>
where
    I: Isa,
    T: SimdElement,
    Op: ReduceOp<T>,
{
    if !I::available() || target.len() > i32::MAX as usize {
        return None;
    }
    let mut buckets = [0u64; 17];
    // SAFETY: `I` is available; the caller asserted `idx.len() ==
    // vals.len()`; the target length fits `i32`; the driver bounds-checks
    // every index itself.
    let vectors = unsafe { Op::isa_accumulate::<I>(target, idx, vals, &mut buckets) }?;
    let merges: u64 = buckets.iter().enumerate().map(|(d, &c)| d as u64 * c).sum();
    invector_simd::count::bump_backend(
        I::TAG,
        vectors * I::MODEL_COST_PER_VECTOR + 8 * merges,
        vectors,
    );
    let mut depth = DepthHistogram::new();
    depth.absorb_buckets(&buckets);
    Some(InvecStats { vectors, depth })
}

/// Accumulates with the **adaptive** in-vector reducer: Algorithm 1 during
/// warm-up, then Algorithm 1 or 2 per the observed conflict depth (§3.4).
/// The auxiliary array (if Algorithm 2 is selected) is merged before
/// returning.
///
/// # Panics
///
/// Panics if `idx.len() != vals.len()` or an index is out of bounds for
/// `target`.
pub fn adaptive_accumulate<T, Op>(target: &mut [T], idx: &[i32], vals: &[T]) -> InvecStats
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    adaptive_accumulate_n::<T, Op, 16>(target, idx, vals)
}

/// Width-generic portable [`adaptive_accumulate`] at `N` lanes per vector —
/// the parity reference for the adaptive path on the narrower native ISAs
/// (the warm-up window counts *vectors*, so the decision point depends on
/// the lane width).
///
/// # Panics
///
/// Panics if `idx.len() != vals.len()` or an index is out of bounds for
/// `target`.
pub fn adaptive_accumulate_n<T, Op, const N: usize>(
    target: &mut [T],
    idx: &[i32],
    vals: &[T],
) -> InvecStats
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    assert_eq!(idx.len(), vals.len(), "index/value length mismatch");
    adaptive_loop_with::<T, Op, N>(Backend::Portable, target, idx, vals)
}

/// The adaptive per-vector loop at `N` lanes; see
/// [`adaptive_accumulate_with`].
fn adaptive_loop_with<T, Op, const N: usize>(
    backend: Backend,
    target: &mut [T],
    idx: &[i32],
    vals: &[T],
) -> InvecStats
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    let mut reducer = AdaptiveReducer::<T, Op>::new(target.len());
    let mut stats = InvecStats::default();
    let mut j = 0;
    while j < idx.len() {
        let (vidx, active) = SimdVec::<i32, N>::load_partial(&idx[j..], 0);
        let (mut vval, _) = SimdVec::<T, N>::load_partial(&vals[j..], Op::identity());
        let safe = reducer.reduce_with(backend, active, vidx, &mut vval);
        let old = SimdVec::<T, N>::zero().mask_gather(safe, target, vidx);
        let new = Op::combine_vec(old, vval);
        new.mask_scatter(safe, target, vidx);
        stats.vectors += 1;
        j += N;
    }
    stats.depth.merge(reducer.depth_stats());
    reducer.finish(target);
    stats
}

/// Backend-dispatched [`adaptive_accumulate`]: the per-vector loop runs at
/// the backend's lane width, so the warm-up, the Algorithm 1/2 decision,
/// and the depth statistics equal the portable model at that width
/// ([`adaptive_accumulate_n`]); each per-vector fold runs through the
/// selected backend's Algorithm 1 or 2 realization (accelerated on
/// AVX-512; portable on AVX2 / NEON, whose hardware paths cover the fused
/// non-adaptive drivers). The run's measured emulated cost is charged to
/// the backend's counter series.
///
/// # Panics
///
/// Panics if `idx.len() != vals.len()` or an index is out of bounds for
/// `target`.
pub fn adaptive_accumulate_with<T, Op>(
    backend: Backend,
    target: &mut [T],
    idx: &[i32],
    vals: &[T],
) -> InvecStats
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    assert_eq!(idx.len(), vals.len(), "index/value length mismatch");
    let (stats, cost) = invector_simd::count::with(|| match backend.lanes() {
        4 => adaptive_loop_with::<T, Op, 4>(backend, target, idx, vals),
        8 => adaptive_loop_with::<T, Op, 8>(backend, target, idx, vals),
        _ => adaptive_loop_with::<T, Op, 16>(backend, target, idx, vals),
    });
    invector_simd::count::bump_backend(backend.tag(), cost, stats.vectors);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Max, Min, Sum};
    use rand::{Rng, SeedableRng};

    #[test]
    fn invec_matches_serial_exact_integers() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        for _ in 0..40 {
            let n = rng.gen_range(0..300);
            let domain = rng.gen_range(1..40);
            let idx: Vec<i32> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
            let vals: Vec<i32> = (0..n).map(|_| rng.gen_range(-9..9)).collect();
            let mut a = vec![0i32; domain as usize];
            let mut b = a.clone();
            serial_accumulate::<i32, Sum>(&mut a, &idx, &vals);
            invec_accumulate::<i32, Sum>(&mut b, &idx, &vals);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn adaptive_matches_serial_exact_integers() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        for _ in 0..40 {
            let n = rng.gen_range(0..2000);
            let domain = rng.gen_range(1..8); // high conflict density
            let idx: Vec<i32> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
            let vals: Vec<i32> = (0..n).map(|_| rng.gen_range(-9..9)).collect();
            let mut a = vec![0i32; domain as usize];
            let mut b = a.clone();
            serial_accumulate::<i32, Sum>(&mut a, &idx, &vals);
            adaptive_accumulate::<i32, Sum>(&mut b, &idx, &vals);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn invec_min_max_match_serial_exactly_for_floats() {
        // min/max are exact for floats (no reassociation error).
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let n = 500;
        let idx: Vec<i32> = (0..n).map(|_| rng.gen_range(0..13)).collect();
        let vals: Vec<f32> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let mut a = vec![f32::INFINITY; 13];
        let mut b = a.clone();
        serial_accumulate::<f32, Min>(&mut a, &idx, &vals);
        invec_accumulate::<f32, Min>(&mut b, &idx, &vals);
        assert_eq!(a, b);

        let mut a = vec![f32::NEG_INFINITY; 13];
        let mut b = a.clone();
        serial_accumulate::<f32, Max>(&mut a, &idx, &vals);
        invec_accumulate::<f32, Max>(&mut b, &idx, &vals);
        assert_eq!(a, b);
    }

    #[test]
    fn float_sums_match_within_reassociation_tolerance() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        let n = 1000;
        let idx: Vec<i32> = (0..n).map(|_| rng.gen_range(0..7)).collect();
        let vals: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut a = vec![0.0f32; 7];
        let mut b = a.clone();
        serial_accumulate::<f32, Sum>(&mut a, &idx, &vals);
        invec_accumulate::<f32, Sum>(&mut b, &idx, &vals);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn empty_stream_is_a_no_op() {
        let mut target = vec![3i32; 4];
        let stats = invec_accumulate::<i32, Sum>(&mut target, &[], &[]);
        assert_eq!(stats.vectors, 0);
        assert_eq!(target, vec![3; 4]);
    }

    #[test]
    fn tail_shorter_than_vector_width() {
        let mut target = vec![0i32; 2];
        invec_accumulate::<i32, Sum>(&mut target, &[1, 1, 1, 0, 1], &[1, 2, 3, 4, 5]);
        assert_eq!(target, vec![4, 11]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_rejected() {
        let mut target = vec![0i32; 2];
        let _ = invec_accumulate::<i32, Sum>(&mut target, &[0, 1], &[1]);
    }

    // The fused AVX-512 driver where the host has it; elsewhere
    // `Backend::Avx512` falls back to the portable 16-lane loop, which must
    // behave the same.
    #[test]
    fn native_path_matches_serial_on_integer_valued_floats() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(91);
        for _ in 0..50 {
            let n = rng.gen_range(0..500);
            let domain = rng.gen_range(1..30);
            let idx: Vec<i32> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
            // Small integers: exact f32 addition in any order.
            let vals: Vec<f32> = (0..n).map(|_| rng.gen_range(-32..32) as f32).collect();
            let mut expect = vec![0.0f32; domain as usize];
            serial_accumulate::<f32, Sum>(&mut expect, &idx, &vals);
            let mut got = vec![0.0f32; domain as usize];
            invec_accumulate_with::<f32, Sum>(Backend::Avx512, &mut got, &idx, &vals);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn native_path_accumulates_into_existing_contents() {
        let mut target = vec![10.0f32, 20.0];
        invec_accumulate_with::<f32, Sum>(
            Backend::Avx512,
            &mut target,
            &[1, 1, 0],
            &[1.0, 2.0, 3.0],
        );
        assert_eq!(target, vec![13.0, 23.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn native_path_rejects_bad_indices() {
        let mut target = vec![0.0f32; 2];
        invec_accumulate_with::<f32, Sum>(Backend::Avx512, &mut target, &[9], &[1.0]);
    }

    #[test]
    fn depth_stats_reflect_conflicts() {
        let mut target = vec![0i32; 1];
        let idx = vec![0i32; 32]; // every vector fully conflicted: D1 = 1
        let vals = vec![1i32; 32];
        let stats = invec_accumulate::<i32, Sum>(&mut target, &idx, &vals);
        assert_eq!(stats.vectors, 2);
        assert_eq!(stats.depth.mean(), 1.0);
        assert_eq!(target[0], 32);
    }
}
