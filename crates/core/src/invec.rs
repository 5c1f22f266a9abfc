//! In-vector reduction — the paper's core contribution (§3).
//!
//! Given a SIMD vector of data values and a vector of reduction indices that
//! may contain duplicates, in-vector reduction folds the lanes that share an
//! index *inside the vector* (legal because the operator is associative) so
//! that the surviving lanes hold partial results for **distinct** indices and
//! can be scattered to memory without write conflicts.
//!
//! Two implementations are provided:
//!
//! * [`reduce_alg1`] — Algorithm 1: merge every conflicting group into its
//!   first lane. Cost ≈ `2 + 8·D1` instructions where `D1` is the number of
//!   distinct conflicting groups (≤ N/2).
//! * [`reduce_alg2`] — Algorithm 2: split lanes into *two* conflict-free
//!   subsets updating two arrays (the main target and an [`AuxArray`]), so
//!   only groups of three or more occurrences need merging. Cost ≈
//!   `7 + 8·D2` with `D2 ≤ ⌊N/3⌋`, a win under heavy conflicts.

use invector_simd::arch::avx512;
use invector_simd::{conflict_free_subset, Mask, SimdElement, SimdVec};

use crate::backend::Backend;
use crate::ops::ReduceOp;

/// In-vector reduction, Algorithm 1 of the paper.
///
/// Reduces the `active` lanes of `vdata` by the indices in `vindex`: after
/// the call, for every distinct index held by active lanes, the *first*
/// active lane holding it contains `Op::combine` of all active lanes with
/// that index. The returned mask selects exactly those first-occurrence
/// lanes; they hold distinct indices, so `mask_scatter` through the returned
/// mask is conflict-free.
///
/// Lanes outside the returned mask are left with stale values and must not
/// be written to memory.
///
/// Returns the conflict-free mask and the number of merge iterations
/// executed (`D1`, the count of distinct conflicting index groups).
///
/// # Example
///
/// ```
/// use invector_core::{invec, ops::Sum};
/// use invector_simd::{F32x16, I32x16, Mask16};
///
/// let idx = I32x16::from_array([0, 4, 0, 5, 1, 1, 1, 1, 2, 3, 6, 7, 8, 9, 10, 11]);
/// let mut data = F32x16::splat(1.0);
/// let (safe, d1) = invec::reduce_alg1::<f32, Sum, 16>(Mask16::all(), idx, &mut data);
/// assert_eq!(d1, 2); // two conflicting groups: index 0 and index 1
/// assert_eq!(data.extract(0), 2.0); // lanes 0 and 2 merged
/// assert_eq!(data.extract(4), 4.0); // lanes 4..8 merged
/// assert!(safe.test(0) && !safe.test(2));
/// ```
pub fn reduce_alg1<T, Op, const N: usize>(
    active: Mask<N>,
    vindex: SimdVec<i32, N>,
    vdata: &mut SimdVec<T, N>,
) -> (Mask<N>, u32)
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    let mret = conflict_free_subset(active, vindex);
    let mut msafe = mret;
    let mut d1 = 0u32;
    // Iterate over the conflicting active lanes, one distinct index group per
    // step. `active.and_not(msafe)` are the lanes still to be merged.
    while let Some(i) = active.and_not(msafe).first_set() {
        d1 += 1;
        // All active lanes holding the same index as lane i.
        let mreduce = active & vindex.eq_broadcast(vindex.extract(i));
        // Fold them and park the result in the group's first lane, which is
        // by construction a member of `mret`.
        let res = vdata.reduce(mreduce, Op::identity(), Op::combine);
        let first = mreduce.first_set().expect("group contains lane i");
        *vdata = vdata.insert(first, res);
        // The merged lanes are no longer useful.
        msafe |= mreduce;
    }
    (mret, d1)
}

/// An auxiliary reduction array backing [`reduce_alg2`].
///
/// Algorithm 2 routes the *second* occurrence of each conflicting index to a
/// shadow copy of the reduction target so that it never needs merging inside
/// the vector. The shadow must be combined into the real target once the
/// edge stream has been consumed — call [`AuxArray::merge_into`].
///
/// The array tracks which elements were touched so the merge costs
/// `O(touched)` rather than `O(len)`.
#[derive(Debug, Clone)]
pub struct AuxArray<T, Op> {
    data: Vec<T>,
    touched: Vec<i32>,
    _op: std::marker::PhantomData<Op>,
}

impl<T: SimdElement, Op: ReduceOp<T>> AuxArray<T, Op> {
    /// Creates a shadow array of `len` identity elements.
    pub fn new(len: usize) -> Self {
        AuxArray {
            data: vec![Op::identity(); len],
            touched: Vec::new(),
            _op: std::marker::PhantomData,
        }
    }

    /// The shadow array length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the shadow array has zero length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of accumulations routed through the shadow since the last merge.
    pub fn touched(&self) -> usize {
        self.touched.len()
    }

    /// Folds the shadow contents into `target` and resets the shadow to
    /// identity, ready for reuse.
    ///
    /// # Panics
    ///
    /// Panics if `target.len() != self.len()`.
    pub fn merge_into(&mut self, target: &mut [T]) {
        assert_eq!(target.len(), self.data.len(), "aux array / target length mismatch");
        for &i in &self.touched {
            let i = i as usize;
            target[i] = Op::combine(target[i], self.data[i]);
            self.data[i] = Op::identity();
        }
        self.touched.clear();
    }

    /// Accumulates `value` at `index` in the shadow.
    #[inline]
    fn accumulate(&mut self, index: i32, value: T) {
        let slot = &mut self.data[index as usize];
        if *slot == Op::identity() {
            self.touched.push(index);
        }
        *slot = Op::combine(*slot, value);
    }
}

/// In-vector reduction, Algorithm 2 of the paper (§3.4 optimization).
///
/// Splits the active lanes into two conflict-free subsets: the first
/// occurrences of each index (returned mask, to be scattered by the caller
/// into the main target) and the second occurrences, which this function
/// accumulates into `aux` directly. Only indices occurring three or more
/// times require in-vector merge iterations, bounding the loop by `⌊N/3⌋`.
///
/// After the data stream is exhausted the caller must fold the shadow into
/// the real target with [`AuxArray::merge_into`].
///
/// Returns the main-array conflict-free mask and `D2` (merge iterations).
///
/// # Panics
///
/// Panics if an active lane's index is out of bounds for `aux`.
///
/// # Example
///
/// The extreme case from §3.4: two identical groups of eight distinct
/// indices need **zero** merge iterations.
///
/// ```
/// use invector_core::{invec, ops::Sum};
/// use invector_simd::{F32x16, I32x16, Mask16};
///
/// let idx = I32x16::from_array([0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7]);
/// let mut data = F32x16::splat(1.0);
/// let mut aux = invec::AuxArray::<f32, Sum>::new(8);
/// let (safe, d2) = invec::reduce_alg2::<f32, Sum, 16>(Mask16::all(), idx, &mut data, &mut aux);
/// assert_eq!(d2, 0);
/// assert_eq!(safe.count_ones(), 8);
///
/// let mut target = vec![0.0f32; 8];
/// data.mask_scatter(safe, &mut target, idx);
/// aux.merge_into(&mut target);
/// assert_eq!(target, vec![2.0; 8]);
/// ```
pub fn reduce_alg2<T, Op, const N: usize>(
    active: Mask<N>,
    vindex: SimdVec<i32, N>,
    vdata: &mut SimdVec<T, N>,
    aux: &mut AuxArray<T, Op>,
) -> (Mask<N>, u32)
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    let mret1 = conflict_free_subset(active, vindex);
    let mret2 = conflict_free_subset(active.and_not(mret1), vindex);
    let mut d2 = 0u32;
    // Lanes that are neither first nor second occurrence of their index.
    let mut remaining = active.and_not(mret1).and_not(mret2);
    while let Some(i) = remaining.first_set() {
        d2 += 1;
        // Matching lanes, excluding the second-occurrence subset (those go to
        // the aux array untouched). The group's first lane is its mret1 lane.
        let mreduce = active.and_not(mret2) & vindex.eq_broadcast(vindex.extract(i));
        let res = vdata.reduce(mreduce, Op::identity(), Op::combine);
        let first = mreduce.first_set().expect("group contains lane i");
        *vdata = vdata.insert(first, res);
        remaining = remaining.and_not(mreduce);
    }
    // Route the second-occurrence subset into the shadow array. This is a
    // gather-combine-scatter on distinct indices (mret2 is conflict-free).
    invector_simd::count::bump(3);
    for lane in mret2.iter_set() {
        aux.accumulate(vindex.extract(lane), vdata.extract(lane));
    }
    (mret1, d2)
}

/// In-vector reduction of `K` data vectors sharing one index vector
/// (Algorithm 1 applied component-wise).
///
/// Irregular applications often reduce several values per index — Moldyn
/// accumulates a 3-D force per particle, hash aggregation maintains
/// `count / sum / sum-of-squares` per group. The conflict structure depends
/// only on the index vector, so one merge schedule serves all `K`
/// components; only the horizontal reductions are repeated per component.
///
/// Returns the same conflict-free mask and `D1` as [`reduce_alg1`].
///
/// # Example
///
/// ```
/// use invector_core::{invec, ops::Sum};
/// use invector_simd::{F32x16, I32x16, Mask16};
///
/// let idx = I32x16::splat(0);
/// let mut xyz = [F32x16::splat(1.0), F32x16::splat(2.0), F32x16::splat(3.0)];
/// let (safe, _) = invec::reduce_alg1_arr::<f32, Sum, 3, 16>(Mask16::all(), idx, &mut xyz);
/// assert_eq!(safe.count_ones(), 1);
/// assert_eq!(xyz[0].extract(0), 16.0);
/// assert_eq!(xyz[1].extract(0), 32.0);
/// assert_eq!(xyz[2].extract(0), 48.0);
/// ```
pub fn reduce_alg1_arr<T, Op, const K: usize, const N: usize>(
    active: Mask<N>,
    vindex: SimdVec<i32, N>,
    vdata: &mut [SimdVec<T, N>; K],
) -> (Mask<N>, u32)
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    let mret = conflict_free_subset(active, vindex);
    let mut msafe = mret;
    let mut d1 = 0u32;
    while let Some(i) = active.and_not(msafe).first_set() {
        d1 += 1;
        let mreduce = active & vindex.eq_broadcast(vindex.extract(i));
        let first = mreduce.first_set().expect("group contains lane i");
        for component in vdata.iter_mut() {
            let res = component.reduce(mreduce, Op::identity(), Op::combine);
            *component = component.insert(first, res);
        }
        msafe |= mreduce;
    }
    (mret, d1)
}

/// Auxiliary reduction arrays for the multi-component Algorithm 2
/// ([`reduce_alg2_arr`]): one shadow array per data component, sharing a
/// single touched-index list.
#[derive(Debug, Clone)]
pub struct AuxArrays<T, Op, const K: usize> {
    data: [Vec<T>; K],
    touched: Vec<i32>,
    _op: std::marker::PhantomData<Op>,
}

impl<T: SimdElement, Op: ReduceOp<T>, const K: usize> AuxArrays<T, Op, K> {
    /// Creates `K` shadow arrays of `len` identity elements.
    pub fn new(len: usize) -> Self {
        AuxArrays {
            data: std::array::from_fn(|_| vec![Op::identity(); len]),
            touched: Vec::new(),
            _op: std::marker::PhantomData,
        }
    }

    /// The shadow array length.
    pub fn len(&self) -> usize {
        self.data[0].len()
    }

    /// `true` if the shadow arrays have zero length.
    pub fn is_empty(&self) -> bool {
        self.data[0].is_empty()
    }

    /// Number of accumulations routed through the shadows since the last
    /// merge.
    pub fn touched(&self) -> usize {
        self.touched.len()
    }

    /// Folds every shadow component into its target and resets the shadows.
    ///
    /// # Panics
    ///
    /// Panics if a target length differs from [`len`](Self::len).
    pub fn merge_into(&mut self, targets: [&mut [T]; K]) {
        for target in &targets {
            assert_eq!(target.len(), self.data[0].len(), "aux/target length mismatch");
        }
        let mut targets = targets;
        for &i in &self.touched {
            let i = i as usize;
            for (c, target) in targets.iter_mut().enumerate() {
                target[i] = Op::combine(target[i], self.data[c][i]);
                self.data[c][i] = Op::identity();
            }
        }
        self.touched.clear();
    }

    #[inline]
    fn accumulate(&mut self, index: i32, values: [T; K]) {
        let i = index as usize;
        if self.data[0][i] == Op::identity() {
            self.touched.push(index);
        }
        for (c, v) in values.into_iter().enumerate() {
            self.data[c][i] = Op::combine(self.data[c][i], v);
        }
    }
}

/// In-vector reduction of `K` data vectors via **Algorithm 2**: the second
/// occurrence of each conflicting index routes all `K` components to the
/// [`AuxArrays`] shadow, so only third-and-later occurrences need merge
/// iterations (`D2 ≤ ⌊N/3⌋`).
///
/// The multi-component analogue of [`reduce_alg2`]; see [`reduce_alg1_arr`]
/// for why components share one merge schedule.
///
/// # Panics
///
/// Panics if an active lane's index is out of bounds for `aux`.
pub fn reduce_alg2_arr<T, Op, const K: usize, const N: usize>(
    active: Mask<N>,
    vindex: SimdVec<i32, N>,
    vdata: &mut [SimdVec<T, N>; K],
    aux: &mut AuxArrays<T, Op, K>,
) -> (Mask<N>, u32)
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    let mret1 = conflict_free_subset(active, vindex);
    let mret2 = conflict_free_subset(active.and_not(mret1), vindex);
    let mut d2 = 0u32;
    let mut remaining = active.and_not(mret1).and_not(mret2);
    while let Some(i) = remaining.first_set() {
        d2 += 1;
        let mreduce = active.and_not(mret2) & vindex.eq_broadcast(vindex.extract(i));
        let first = mreduce.first_set().expect("group contains lane i");
        for component in vdata.iter_mut() {
            let res = component.reduce(mreduce, Op::identity(), Op::combine);
            *component = component.insert(first, res);
        }
        remaining = remaining.and_not(mreduce);
    }
    invector_simd::count::bump(3);
    for lane in mret2.iter_set() {
        aux.accumulate(vindex.extract(lane), std::array::from_fn(|c| vdata[c].extract(lane)));
    }
    (mret1, d2)
}

/// Convenience wrapper: in-vector **sum** via Algorithm 1 (`invec_add` in the
/// paper's API, Figure 7).
///
/// See [`reduce_alg1`] for semantics of the returned mask.
pub fn invec_add<const N: usize>(
    active: Mask<N>,
    vindex: SimdVec<i32, N>,
    vdata: &mut SimdVec<f32, N>,
) -> Mask<N> {
    reduce_alg1::<f32, crate::ops::Sum, N>(active, vindex, vdata).0
}

/// Convenience wrapper: in-vector **minimum** via Algorithm 1 (`invec_min`).
pub fn invec_min<const N: usize>(
    active: Mask<N>,
    vindex: SimdVec<i32, N>,
    vdata: &mut SimdVec<f32, N>,
) -> Mask<N> {
    reduce_alg1::<f32, crate::ops::Min, N>(active, vindex, vdata).0
}

/// Convenience wrapper: in-vector **maximum** via Algorithm 1 (`invec_max`).
pub fn invec_max<const N: usize>(
    active: Mask<N>,
    vindex: SimdVec<i32, N>,
    vdata: &mut SimdVec<f32, N>,
) -> Mask<N> {
    reduce_alg1::<f32, crate::ops::Max, N>(active, vindex, vdata).0
}

// ---------------------------------------------------------------------------
// Backend dispatch: route the per-vector fold to real AVX-512 when selected.
// ---------------------------------------------------------------------------

/// Backend-dispatched [`reduce_alg1`].
///
/// With [`Backend::Avx512`] on a host that has it and `N = 16`, the
/// conflict detection and merge schedule run on real `vpconflictd`
/// (`invector_simd::arch::avx512`) for every `(T, Op)` pair whose
/// [`ReduceOp`] impl names a per-vector driver: sum/min/max over `f32` and
/// `i32`, covering every kernel in this workspace. Other pairs, other
/// widths, the narrower ISAs (AVX2 / NEON accelerate only the fused
/// whole-stream drivers, not this per-vector API), and
/// [`Backend::Portable`] run the portable model.
///
/// Results are bitwise identical across backends (the native merge uses
/// the same sequential identity-seeded fold); the only observable
/// difference is that the native path does not charge the portable
/// instruction counter.
pub fn reduce_alg1_with<T, Op, const N: usize>(
    backend: Backend,
    active: Mask<N>,
    vindex: SimdVec<i32, N>,
    vdata: &mut SimdVec<T, N>,
) -> (Mask<N>, u32)
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    let native = on_avx512(backend, active, vindex, |bits, idx| {
        let data = vdata.as_mut_array().as_mut_slice().try_into().ok()?;
        // SAFETY: `on_avx512` runs this only on a host with AVX-512.
        unsafe { Op::avx512_alg1(bits, idx, data) }
    });
    native.unwrap_or_else(|| reduce_alg1::<T, Op, N>(active, vindex, vdata))
}

/// Backend-dispatched [`reduce_alg1_arr`]; the AVX-512 realization covers
/// `f32` sums at `N = 16` for any component count `K` (the Moldyn / Euler /
/// aggregation shape). Other pairs run the portable model.
pub fn reduce_alg1_arr_with<T, Op, const K: usize, const N: usize>(
    backend: Backend,
    active: Mask<N>,
    vindex: SimdVec<i32, N>,
    vdata: &mut [SimdVec<T, N>; K],
) -> (Mask<N>, u32)
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    let native = on_avx512(backend, active, vindex, |bits, idx| {
        let mut comps = [[T::default(); 16]; K];
        for (comp, v) in comps.iter_mut().zip(vdata.iter()) {
            comp.copy_from_slice(v.as_array());
        }
        // SAFETY: `on_avx512` runs this only on a host with AVX-512.
        let out = unsafe { Op::avx512_alg1_arr(bits, idx, &mut comps) }?;
        for (v, comp) in vdata.iter_mut().zip(&comps) {
            v.as_mut_array().copy_from_slice(comp);
        }
        Some(out)
    });
    native.unwrap_or_else(|| reduce_alg1_arr::<T, Op, K, N>(active, vindex, vdata))
}

/// Backend-dispatched [`reduce_alg2`]; the AVX-512 realization covers `f32`
/// sums at `N = 16` and reproduces the portable aux-array bookkeeping
/// (touched-slot tracking included) exactly. Other pairs run the portable
/// model.
pub fn reduce_alg2_with<T, Op, const N: usize>(
    backend: Backend,
    active: Mask<N>,
    vindex: SimdVec<i32, N>,
    vdata: &mut SimdVec<T, N>,
    aux: &mut AuxArray<T, Op>,
) -> (Mask<N>, u32)
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    let native = on_avx512(backend, active, vindex, |bits, idx| {
        let data = vdata.as_mut_array().as_mut_slice().try_into().ok()?;
        // SAFETY: `on_avx512` runs this only on a host with AVX-512; the
        // driver bounds-checks its `aux` writes.
        unsafe { Op::avx512_alg2(bits, idx, data, &mut aux.data, &mut aux.touched) }
    });
    native.unwrap_or_else(|| reduce_alg2::<T, Op, N>(active, vindex, vdata, aux))
}

/// Runs `fold` on the AVX-512 drivers' view of one vector (its active bits
/// and its 16 index lanes) when `backend` is AVX-512, the host has it and
/// `N = 16`: the per-vector folds' one backend decision. `None` when it
/// does not run, or when `fold` declines because the pair has no driver.
fn on_avx512<const N: usize>(
    backend: Backend,
    active: Mask<N>,
    vindex: SimdVec<i32, N>,
    fold: impl FnOnce(u16, [i32; 16]) -> Option<(u16, u32)>,
) -> Option<(Mask<N>, u32)> {
    if backend != Backend::Avx512 || !avx512::available() {
        return None;
    }
    let idx = vindex.as_array().as_slice().try_into().ok()?;
    let (safe, depth) = fold(active.bits() as u16, idx)?;
    Some((Mask::from_bits(u32::from(safe)), depth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Max, Min, Sum};
    use invector_simd::{F32x16, I32x16, Mask16};
    use std::collections::HashMap;

    /// Scalar reference: per-index reduction over active lanes.
    fn reference<T: SimdElement, Op: ReduceOp<T>>(
        active: Mask16,
        idx: [i32; 16],
        data: [T; 16],
    ) -> HashMap<i32, T> {
        let mut out = HashMap::new();
        for lane in active.iter_set() {
            let e = out.entry(idx[lane]).or_insert_with(Op::identity);
            *e = Op::combine(*e, data[lane]);
        }
        out
    }

    fn check_alg1<T: SimdElement, Op: ReduceOp<T>>(active: Mask16, idx: [i32; 16], data: [T; 16]) {
        let mut v = SimdVec::from_array(data);
        let (safe, d1) = reduce_alg1::<T, Op, 16>(active, I32x16::from_array(idx), &mut v);
        let expect = reference::<T, Op>(active, idx, data);
        // The safe mask holds one lane per distinct active index.
        assert_eq!(safe.count_ones() as usize, expect.len());
        let mut seen = std::collections::HashSet::new();
        for lane in safe.iter_set() {
            assert!(active.test(lane), "safe lane must be active");
            assert!(seen.insert(idx[lane]), "duplicate index in safe mask");
            assert_eq!(v.extract(lane), expect[&idx[lane]], "lane {lane}");
        }
        // D1 bound from §3.3: at most half the active lanes conflict distinctly.
        assert!(d1 <= 16 / 2);
    }

    #[test]
    fn alg1_no_conflicts_is_identity_pass() {
        let idx: [i32; 16] = std::array::from_fn(|i| i as i32);
        let data: [f32; 16] = std::array::from_fn(|i| i as f32);
        let mut v = F32x16::from_array(data);
        let (safe, d1) =
            reduce_alg1::<f32, Sum, 16>(Mask16::all(), I32x16::from_array(idx), &mut v);
        assert_eq!(safe, Mask16::all());
        assert_eq!(d1, 0);
        assert_eq!(v.to_array(), data);
    }

    #[test]
    fn alg1_paper_figure5_example() {
        // Index vector from Figure 5 with unit data: group sizes become sums.
        let idx = [0, 1, 1, 1, 2, 2, 2, 2, 5, 0, 1, 1, 1, 5, 5, 5];
        let mut v = F32x16::splat(1.0);
        let (safe, d1) =
            reduce_alg1::<f32, Sum, 16>(Mask16::all(), I32x16::from_array(idx), &mut v);
        // Four distinct conflicting groups -> four iterations, as the figure shows.
        assert_eq!(d1, 4);
        assert_eq!(safe.bits(), 0b0000_0001_0001_0011);
        assert_eq!(v.extract(0), 2.0); // index 0 appears twice
        assert_eq!(v.extract(1), 6.0); // index 1 appears six times
        assert_eq!(v.extract(4), 4.0); // index 2 appears four times
        assert_eq!(v.extract(8), 4.0); // index 5 appears four times
    }

    #[test]
    fn alg1_all_lanes_same_index() {
        let data: [f32; 16] = std::array::from_fn(|i| (i + 1) as f32);
        let mut v = F32x16::from_array(data);
        let (safe, d1) = reduce_alg1::<f32, Sum, 16>(Mask16::all(), I32x16::splat(3), &mut v);
        assert_eq!(d1, 1);
        assert_eq!(safe.count_ones(), 1);
        assert_eq!(v.extract(0), (1..=16).sum::<u32>() as f32);
    }

    #[test]
    fn alg1_respects_active_mask() {
        let idx = I32x16::splat(0);
        let data: [f32; 16] = std::array::from_fn(|i| i as f32);
        let mut v = F32x16::from_array(data);
        let active = Mask16::from_bits(0b1010);
        let (safe, _) = reduce_alg1::<f32, Sum, 16>(active, idx, &mut v);
        assert_eq!(safe, Mask16::from_bits(0b0010));
        assert_eq!(v.extract(1), 1.0 + 3.0);
    }

    #[test]
    fn alg1_empty_active_mask() {
        let mut v = F32x16::splat(1.0);
        let (safe, d1) = reduce_alg1::<f32, Sum, 16>(Mask16::none(), I32x16::splat(0), &mut v);
        assert!(safe.is_empty());
        assert_eq!(d1, 0);
    }

    #[test]
    fn alg1_min_and_max_ops() {
        let idx = [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7];
        let data: [f32; 16] = std::array::from_fn(|i| if i % 2 == 0 { 10.0 } else { -5.0 });
        check_alg1::<f32, Min>(Mask16::all(), idx, data);
        check_alg1::<f32, Max>(Mask16::all(), idx, data);
    }

    #[test]
    fn alg1_i32_sums() {
        let idx = [9, 9, 9, 2, 2, 7, 1, 1, 1, 1, 0, 3, 4, 5, 6, 8];
        let data: [i32; 16] = std::array::from_fn(|i| i as i32 * 3 - 7);
        check_alg1::<i32, Sum>(Mask16::all(), idx, data);
        check_alg1::<i32, Min>(Mask16::from_bits(0xF0F0), idx, data);
    }

    #[test]
    fn alg1_d1_counts_distinct_conflicting_groups() {
        // Two groups conflict (0 and 1), two indices are unique.
        let idx = [0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13];
        let mut v = F32x16::splat(1.0);
        let (_, d1) = reduce_alg1::<f32, Sum, 16>(Mask16::all(), I32x16::from_array(idx), &mut v);
        assert_eq!(d1, 2);
    }

    #[test]
    fn alg2_paper_figure6_example_takes_fewer_iterations() {
        let idx = [0, 1, 1, 1, 2, 2, 2, 2, 5, 0, 1, 1, 1, 5, 5, 5];
        let mut v1 = F32x16::splat(1.0);
        let (_, d1) = reduce_alg1::<f32, Sum, 16>(Mask16::all(), I32x16::from_array(idx), &mut v1);

        let mut v2 = F32x16::splat(1.0);
        let mut aux = AuxArray::<f32, Sum>::new(6);
        let (safe, d2) =
            reduce_alg2::<f32, Sum, 16>(Mask16::all(), I32x16::from_array(idx), &mut v2, &mut aux);
        assert_eq!(d1, 4);
        assert_eq!(d2, 3, "figure 6 shows the merge completing in three iterations");

        // Combined main + aux results equal the scalar reference.
        let mut target = vec![0.0f32; 6];
        v2.mask_scatter(safe, &mut target, I32x16::from_array(idx));
        aux.merge_into(&mut target);
        assert_eq!(target, vec![2.0, 6.0, 4.0, 0.0, 0.0, 4.0]);
    }

    #[test]
    fn alg2_two_identical_groups_of_eight_need_no_iterations() {
        let idx: [i32; 16] = std::array::from_fn(|i| (i % 8) as i32);
        let mut v = F32x16::splat(2.0);
        let mut aux = AuxArray::<f32, Sum>::new(8);
        let (safe, d2) =
            reduce_alg2::<f32, Sum, 16>(Mask16::all(), I32x16::from_array(idx), &mut v, &mut aux);
        assert_eq!(d2, 0);
        assert_eq!(safe.count_ones(), 8);
        assert_eq!(aux.touched(), 8);
    }

    #[test]
    fn alg2_matches_reference_on_random_vectors() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let idx: [i32; 16] = std::array::from_fn(|_| rng.gen_range(0..6));
            let data: [i32; 16] = std::array::from_fn(|_| rng.gen_range(-100..100));
            let active = Mask16::from_bits(rng.gen::<u32>() & 0xFFFF);

            let mut v = SimdVec::from_array(data);
            let mut aux = AuxArray::<i32, Sum>::new(6);
            let (safe, d2) =
                reduce_alg2::<i32, Sum, 16>(active, I32x16::from_array(idx), &mut v, &mut aux);
            assert!(d2 as usize <= 16 / 3, "D2 bound from §3.4");

            let mut target = vec![0i32; 6];
            v.mask_scatter(safe, &mut target, I32x16::from_array(idx));
            aux.merge_into(&mut target);

            let expect = reference::<i32, Sum>(active, idx, data);
            for (i, &t) in target.iter().enumerate() {
                assert_eq!(t, expect.get(&(i as i32)).copied().unwrap_or(0), "index {i}");
            }
        }
    }

    #[test]
    fn alg2_safe_mask_lanes_are_distinct_and_active() {
        let idx = [3, 3, 3, 3, 3, 3, 3, 3, 1, 1, 1, 1, 2, 2, 2, 2];
        let mut v = F32x16::splat(1.0);
        let mut aux = AuxArray::<f32, Sum>::new(4);
        let (safe, _) =
            reduce_alg2::<f32, Sum, 16>(Mask16::all(), I32x16::from_array(idx), &mut v, &mut aux);
        assert_eq!(safe.bits(), 0b0001_0001_0000_0001);
    }

    #[test]
    fn aux_array_merge_resets_shadow() {
        let mut aux = AuxArray::<f32, Sum>::new(4);
        aux.accumulate(2, 5.0);
        aux.accumulate(2, 1.0);
        let mut target = vec![1.0f32; 4];
        aux.merge_into(&mut target);
        assert_eq!(target, vec![1.0, 1.0, 7.0, 1.0]);
        assert_eq!(aux.touched(), 0);
        // Second merge is a no-op.
        aux.merge_into(&mut target);
        assert_eq!(target, vec![1.0, 1.0, 7.0, 1.0]);
    }

    #[test]
    fn aux_array_min_uses_min_identity() {
        let mut aux = AuxArray::<f32, Min>::new(2);
        aux.accumulate(0, 4.0);
        aux.accumulate(0, -2.0);
        let mut target = vec![1.0f32, 1.0];
        aux.merge_into(&mut target);
        assert_eq!(target, vec![-2.0, 1.0]);
    }

    #[test]
    fn wrappers_expose_paper_api() {
        let idx = I32x16::from_array(std::array::from_fn(|i| (i % 2) as i32));
        let mut v = F32x16::splat(3.0);
        let m = invec_add(Mask16::all(), idx, &mut v);
        assert_eq!(m.count_ones(), 2);
        assert_eq!(v.extract(0), 24.0);

        let mut v = F32x16::from_array(std::array::from_fn(|i| i as f32));
        let m = invec_min(Mask16::all(), idx, &mut v);
        assert_eq!(v.extract(0), 0.0);
        assert_eq!(v.extract(1), 1.0);
        assert_eq!(m.bits(), 0b11);

        let mut v = F32x16::from_array(std::array::from_fn(|i| i as f32));
        let _ = invec_max(Mask16::all(), idx, &mut v);
        assert_eq!(v.extract(0), 14.0);
        assert_eq!(v.extract(1), 15.0);
    }

    #[test]
    fn alg1_arr_components_share_one_merge_schedule() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(21);
        for _ in 0..100 {
            let idx: [i32; 16] = std::array::from_fn(|_| rng.gen_range(0..5));
            let active = Mask16::from_bits(rng.gen::<u32>() & 0xFFFF);
            let data: [[i32; 16]; 3] =
                std::array::from_fn(|_| std::array::from_fn(|_| rng.gen_range(-9..9)));
            let mut vecs = data.map(SimdVec::from_array);
            let (safe, d1) =
                reduce_alg1_arr::<i32, Sum, 3, 16>(active, I32x16::from_array(idx), &mut vecs);
            // Mask and D1 must match the single-vector algorithm.
            let mut single = SimdVec::from_array(data[0]);
            let (safe1, d1_single) =
                reduce_alg1::<i32, Sum, 16>(active, I32x16::from_array(idx), &mut single);
            assert_eq!(safe, safe1);
            assert_eq!(d1, d1_single);
            // Every component reduces like the scalar reference.
            for (c, vec) in vecs.iter().enumerate() {
                let expect = reference::<i32, Sum>(active, idx, data[c]);
                for lane in safe.iter_set() {
                    assert_eq!(vec.extract(lane), expect[&idx[lane]], "component {c} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn alg2_arr_matches_alg1_arr_after_merge() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(31);
        for _ in 0..100 {
            let idx: [i32; 16] = std::array::from_fn(|_| rng.gen_range(0..5));
            let active = Mask16::from_bits(rng.gen::<u32>() & 0xFFFF);
            let data: [[i32; 16]; 3] =
                std::array::from_fn(|_| std::array::from_fn(|_| rng.gen_range(-9..9)));
            let vidx = I32x16::from_array(idx);

            // Algorithm 1 reference path.
            let mut v1 = data.map(SimdVec::from_array);
            let (safe1, _) = reduce_alg1_arr::<i32, Sum, 3, 16>(active, vidx, &mut v1);
            let mut t1: [Vec<i32>; 3] = std::array::from_fn(|_| vec![0i32; 5]);
            for (c, t) in t1.iter_mut().enumerate() {
                v1[c].mask_scatter(safe1, t, vidx);
            }

            // Algorithm 2 path with shadow merge.
            let mut v2 = data.map(SimdVec::from_array);
            let mut aux = AuxArrays::<i32, Sum, 3>::new(5);
            let (safe2, d2) = reduce_alg2_arr::<i32, Sum, 3, 16>(active, vidx, &mut v2, &mut aux);
            assert!(d2 <= 5, "D2 bound");
            let mut t2: [Vec<i32>; 3] = std::array::from_fn(|_| vec![0i32; 5]);
            for (c, t) in t2.iter_mut().enumerate() {
                v2[c].mask_scatter(safe2, t, vidx);
            }
            let [a, b, c] = &mut t2;
            aux.merge_into([a, b, c]);

            assert_eq!(t1, t2);
        }
    }

    #[test]
    fn aux_arrays_merge_resets_all_components() {
        let mut aux = AuxArrays::<f32, Sum, 2>::new(3);
        aux.accumulate(1, [2.0, 5.0]);
        aux.accumulate(1, [1.0, 1.0]);
        assert_eq!(aux.touched(), 1);
        let mut t0 = vec![10.0f32; 3];
        let mut t1 = vec![0.0f32; 3];
        aux.merge_into([&mut t0, &mut t1]);
        assert_eq!(t0, vec![10.0, 13.0, 10.0]);
        assert_eq!(t1, vec![0.0, 6.0, 0.0]);
        assert_eq!(aux.touched(), 0);
        // Shadow is reset: a second merge is a no-op.
        aux.merge_into([&mut t0, &mut t1]);
        assert_eq!(t0, vec![10.0, 13.0, 10.0]);
    }

    #[test]
    fn alg1_works_for_f64_eight_lane_vectors() {
        use invector_simd::{F64x8, I32x8, Mask8};
        let idx = I32x8::from_array([0, 1, 0, 1, 2, 2, 2, 3]);
        let mut v = F64x8::splat(0.5);
        let (safe, d1) = reduce_alg1::<f64, Sum, 8>(Mask8::all(), idx, &mut v);
        assert_eq!(d1, 3);
        assert_eq!(safe.count_ones(), 4);
        assert_eq!(v.extract(0), 1.0);
        assert_eq!(v.extract(4), 1.5);
        assert_eq!(v.extract(7), 0.5);
    }

    #[cfg(feature = "count")]
    #[test]
    fn alg1_instruction_cost_tracks_paper_model() {
        // Paper §3.3: ~2 + 8·D1 instructions. Our emulation counts every
        // SIMD op; allow a small constant-factor band rather than exact match.
        let idx = [0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10, 11]; // D1 = 4
        let mut v = F32x16::splat(1.0);
        invector_simd::count::reset();
        let (_, d1) = reduce_alg1::<f32, Sum, 16>(Mask16::all(), I32x16::from_array(idx), &mut v);
        let cost = invector_simd::count::take();
        assert_eq!(d1, 4);
        assert!(cost >= 2 + 5 * d1 as u64, "cost {cost} too low for D1={d1}");
        assert!(cost <= 2 + 12 * d1 as u64 + 4, "cost {cost} too high for D1={d1}");
    }
}
