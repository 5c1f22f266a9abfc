//! Adaptive selection between in-vector reduction Algorithms 1 and 2 (§3.4).
//!
//! Algorithm 1 costs about `2 + 8·D1` instructions per vector, Algorithm 2
//! about `7 + 8·D2` (plus an auxiliary array). The paper's framework samples
//! the average number of distinct conflicting lanes (`D1`) over the first
//! few vectors of an application and "simply changes the invocation to
//! Algorithm 2 when D1 is greater than 1". [`AdaptiveReducer`] implements
//! exactly that policy.

use invector_simd::{Mask, SimdElement, SimdVec};

use crate::invec::{reduce_alg1_with, reduce_alg2_with, AuxArray};
use crate::ops::ReduceOp;
use crate::stats::DepthHistogram;

/// Which in-vector reduction implementation an [`AdaptiveReducer`] is using.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Still sampling D1 (Algorithm 1 is used meanwhile).
    Sampling,
    /// Committed to Algorithm 1.
    Alg1,
    /// Committed to Algorithm 2 (auxiliary-array variant).
    Alg2,
}

/// Default number of vector invocations sampled before committing.
pub const DEFAULT_WARMUP: u32 = 64;

/// The paper's switch threshold: use Algorithm 2 when average D1 exceeds 1.
pub const D1_THRESHOLD: f64 = 1.0;

/// An in-vector reducer that picks Algorithm 1 or 2 based on the observed
/// conflict depth of the workload.
///
/// Bind one reducer per reduction target; call [`reduce`](Self::reduce) per
/// vector of (index, data) lanes and [`finish`](Self::finish) once the
/// stream ends (this folds the auxiliary array into the target when
/// Algorithm 2 was chosen — forgetting it loses updates, so `finish` is
/// also run by `Drop` in debug builds via an assertion).
///
/// # Example
///
/// ```
/// use invector_core::{adaptive::AdaptiveReducer, ops::Sum};
/// use invector_simd::{F32x16, I32x16, Mask16};
///
/// let mut target = vec![0.0f32; 8];
/// let mut reducer = AdaptiveReducer::<f32, Sum>::new(target.len());
/// let idx = I32x16::from_array(std::array::from_fn(|i| (i % 8) as i32));
/// let mut data = F32x16::splat(1.0);
/// let safe = reducer.reduce(Mask16::all(), idx, &mut data);
/// let old = F32x16::zero().mask_gather(safe, &target, idx);
/// (old + data).mask_scatter(safe, &mut target, idx);
/// reducer.finish(&mut target);
/// assert_eq!(target, vec![2.0; 8]);
/// ```
#[derive(Debug)]
pub struct AdaptiveReducer<T, Op>
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    aux: AuxArray<T, Op>,
    warmup_left: u32,
    decided: Option<bool>, // Some(true) => Algorithm 2
    depth: DepthHistogram,
    pending_merge: bool,
}

impl<T, Op> AdaptiveReducer<T, Op>
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    /// Creates a reducer for a target array of `target_len` elements with
    /// the default warm-up window.
    pub fn new(target_len: usize) -> Self {
        Self::with_warmup(target_len, DEFAULT_WARMUP)
    }

    /// Creates a reducer with an explicit warm-up window of `warmup` vector
    /// invocations.
    pub fn with_warmup(target_len: usize, warmup: u32) -> Self {
        AdaptiveReducer {
            aux: AuxArray::new(target_len),
            warmup_left: warmup,
            decided: None,
            depth: DepthHistogram::new(),
            pending_merge: false,
        }
    }

    /// The algorithm currently in force.
    pub fn algorithm(&self) -> Algorithm {
        match self.decided {
            None => Algorithm::Sampling,
            Some(false) => Algorithm::Alg1,
            Some(true) => Algorithm::Alg2,
        }
    }

    /// Observed conflict-depth histogram (D1 during sampling/Alg1, D2 after
    /// switching to Alg2).
    pub fn depth_stats(&self) -> &DepthHistogram {
        &self.depth
    }

    /// Performs one in-vector reduction; see
    /// [`reduce_alg1`](crate::invec::reduce_alg1) for the meaning of the
    /// returned mask. The caller scatters through the returned mask and
    /// must eventually call [`finish`](Self::finish).
    pub fn reduce<const N: usize>(
        &mut self,
        active: Mask<N>,
        vindex: SimdVec<i32, N>,
        vdata: &mut SimdVec<T, N>,
    ) -> Mask<N> {
        self.reduce_with(crate::backend::Backend::Portable, active, vindex, vdata)
    }

    /// Backend-dispatched [`reduce`](Self::reduce): per-vector folds run
    /// through `reduce_alg1_with` / `reduce_alg2_with`, so the selected
    /// backend's realization executes while the sampling, the decision, and
    /// the recorded depths stay identical across backends (the native paths
    /// report the same D1/D2 as the portable model).
    pub fn reduce_with<const N: usize>(
        &mut self,
        backend: crate::backend::Backend,
        active: Mask<N>,
        vindex: SimdVec<i32, N>,
        vdata: &mut SimdVec<T, N>,
    ) -> Mask<N> {
        let use_alg2 = match self.decided {
            Some(choice) => choice,
            None => {
                if self.warmup_left == 0 {
                    let choice = self.depth.mean() > D1_THRESHOLD;
                    self.decided = Some(choice);
                    choice
                } else {
                    self.warmup_left -= 1;
                    false
                }
            }
        };
        if use_alg2 {
            let (safe, d2) =
                reduce_alg2_with::<T, Op, N>(backend, active, vindex, vdata, &mut self.aux);
            self.depth.record(d2);
            self.pending_merge = true;
            safe
        } else {
            let (safe, d1) = reduce_alg1_with::<T, Op, N>(backend, active, vindex, vdata);
            self.depth.record(d1);
            safe
        }
    }

    /// Folds any auxiliary-array contents into `target`. Must be called when
    /// the input stream is exhausted (cheap no-op when Algorithm 1 ran).
    ///
    /// # Panics
    ///
    /// Panics if `target.len()` differs from the length given at
    /// construction.
    pub fn finish(&mut self, target: &mut [T]) {
        self.aux.merge_into(target);
        self.pending_merge = false;
    }

    /// `true` if updates are sitting in the auxiliary array awaiting
    /// [`finish`](Self::finish).
    pub fn has_pending_merge(&self) -> bool {
        self.pending_merge && self.aux.touched() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Sum;
    use invector_simd::{F32x16, I32x16, Mask16};

    fn drive(reducer: &mut AdaptiveReducer<f32, Sum>, target: &mut [f32], idx: [i32; 16]) {
        let vidx = I32x16::from_array(idx);
        let mut data = F32x16::splat(1.0);
        let safe = reducer.reduce(Mask16::all(), vidx, &mut data);
        let old = F32x16::zero().mask_gather(safe, target, vidx);
        (old + data).mask_scatter(safe, target, vidx);
    }

    #[test]
    fn stays_on_alg1_for_conflict_free_streams() {
        let mut target = vec![0.0f32; 16];
        let mut r = AdaptiveReducer::<f32, Sum>::with_warmup(16, 4);
        let idx: [i32; 16] = std::array::from_fn(|i| i as i32);
        for _ in 0..10 {
            drive(&mut r, &mut target, idx);
        }
        r.finish(&mut target);
        assert_eq!(r.algorithm(), Algorithm::Alg1);
        assert_eq!(target, vec![10.0; 16]);
    }

    #[test]
    fn switches_to_alg2_under_heavy_conflicts() {
        let mut target = vec![0.0f32; 8];
        let mut r = AdaptiveReducer::<f32, Sum>::with_warmup(8, 4);
        // Four distinct conflicting groups per vector: D1 = 4 > 1.
        let idx: [i32; 16] = std::array::from_fn(|i| (i % 4) as i32);
        for _ in 0..10 {
            drive(&mut r, &mut target, idx);
        }
        assert_eq!(r.algorithm(), Algorithm::Alg2);
        assert!(r.has_pending_merge());
        r.finish(&mut target);
        assert!(!r.has_pending_merge());
        // 10 vectors × 16 lanes of 1.0 over 4 indices = 40 each.
        assert_eq!(&target[..4], &[40.0, 40.0, 40.0, 40.0]);
        assert_eq!(&target[4..], &[0.0; 4]);
    }

    #[test]
    fn sampling_state_reported_during_warmup() {
        let mut r = AdaptiveReducer::<f32, Sum>::with_warmup(4, 8);
        assert_eq!(r.algorithm(), Algorithm::Sampling);
        let mut target = vec![0.0f32; 4];
        drive(&mut r, &mut target, std::array::from_fn(|i| (i % 4) as i32));
        assert_eq!(r.algorithm(), Algorithm::Sampling);
        assert_eq!(r.depth_stats().invocations(), 1);
    }

    #[test]
    fn result_identical_regardless_of_chosen_algorithm() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        for warmup in [0u32, 2, 100] {
            let mut target = vec![0.0f32; 10];
            let mut reference = vec![0.0f32; 10];
            let mut r = AdaptiveReducer::<f32, Sum>::with_warmup(10, warmup);
            for _ in 0..30 {
                let idx: [i32; 16] = std::array::from_fn(|_| rng.gen_range(0..10));
                for &i in &idx {
                    reference[i as usize] += 1.0;
                }
                drive(&mut r, &mut target, idx);
            }
            r.finish(&mut target);
            assert_eq!(target, reference, "warmup={warmup}");
        }
    }

    #[test]
    fn zero_warmup_decides_immediately_from_empty_stats() {
        // With no samples, mean D1 = 0 <= 1, so Algorithm 1 is chosen.
        let mut r = AdaptiveReducer::<f32, Sum>::with_warmup(4, 0);
        let mut target = vec![0.0f32; 4];
        drive(&mut r, &mut target, std::array::from_fn(|i| (i % 4) as i32));
        assert_eq!(r.algorithm(), Algorithm::Alg1);
    }
}
