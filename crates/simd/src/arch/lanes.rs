//! The lane vocabulary the x86 backends share, and Algorithm 1 written
//! once over it.
//!
//! [`Lanes`] and [`Values`] are one ISA's register-level operations, on
//! rten's model: an index vector, a value vector per element type, and lane
//! masks as the low `LANES` bits of a `u32`. [`Avx512`](super::Avx512) and
//! [`Avx2`](super::Avx2) implement them; everything else here — the fused
//! stream driver, the merge-group walk and the per-vector reductions — is
//! written once, generic over the ISA.
//!
//! No function here carries a `target_feature`. Each is `#[inline(always)]`
//! and is instantiated inside one `#[target_feature]` entry per driver, so
//! the whole loop compiles with that entry's instruction set and the
//! intrinsics inline into it.

use crate::SimdElement;

use super::Isa;

/// One ISA's index-vector operations. Masks use the low `LANES` bits.
///
/// # Safety
///
/// Implementors compute exactly the masks documented below: the stream
/// driver gathers and scatters through the lanes [`Lanes::below`] accepts,
/// and relies on [`Lanes::conflict_free`] for distinct indices. Callers of
/// every method, here and in [`Values`], run with the ISA's target
/// features enabled (inside one of its `#[target_feature]` entries) and
/// pass pointers valid for the lanes the method reads or writes.
pub(crate) unsafe trait Lanes: Isa {
    /// `LANES` `i32` indices.
    type Idx: Copy;

    /// Loads the `active` lanes from `src`, zero-filling the rest; no
    /// inactive lane is read.
    unsafe fn load_idx(active: u32, src: *const i32) -> Self::Idx;

    /// The `active` lanes whose index is in `0..len` (`len <= i32::MAX`),
    /// compared unsigned, so a negative index fails too.
    unsafe fn below(active: u32, idx: Self::Idx, len: usize) -> u32;

    /// The `active` lanes with no earlier active lane holding the same
    /// index: the paper's conflict-free subset.
    unsafe fn conflict_free(active: u32, idx: Self::Idx) -> u32;

    /// The `active` lanes holding `key`.
    unsafe fn equal(active: u32, idx: Self::Idx, key: i32) -> u32;
}

/// One ISA's value vector of `T` lanes.
///
/// # Safety
///
/// As [`Lanes`]; [`Values::gather`] and [`Values::commit`] touch only the
/// selected lanes' slots.
pub(crate) unsafe trait Values<T>: Lanes {
    /// `LANES` values of `T`.
    type Vec: Copy;

    /// Loads the `active` lanes from `src`, zero-filling the rest; no
    /// inactive lane is read.
    unsafe fn load(active: u32, src: *const T) -> Self::Vec;

    /// `v` with lane `lane < LANES` replaced by `x`.
    unsafe fn blend(v: Self::Vec, lane: usize, x: T) -> Self::Vec;

    /// `base[idx[l]]` in the `mask` lanes, whose indices must be in bounds,
    /// and zero elsewhere.
    unsafe fn gather(mask: u32, idx: Self::Idx, base: *const T) -> Self::Vec;

    /// Lane-wise sum (wrapping for integers).
    unsafe fn add(a: Self::Vec, b: Self::Vec) -> Self::Vec;

    /// Lane-wise minimum; a float lane where either side is NaN takes `b`.
    unsafe fn min(a: Self::Vec, b: Self::Vec) -> Self::Vec;

    /// Lane-wise maximum; a float lane where either side is NaN takes `b`.
    unsafe fn max(a: Self::Vec, b: Self::Vec) -> Self::Vec;

    /// The conflict-free commit: `base[idx[l]] = v[l]` in the `mask` lanes,
    /// whose indices must be in bounds and pairwise distinct.
    unsafe fn commit(mask: u32, idx: Self::Idx, v: Self::Vec, base: *mut T);
}

/// A lane element type the drivers fold: the sum and the three identities.
pub(crate) trait Elem: SimdElement {
    /// Identity of the sum.
    const ZERO: Self;
    /// Identity of the minimum.
    const HIGHEST: Self;
    /// Identity of the maximum.
    const LOWEST: Self;
    /// Scalar sum (wrapping for integers), as the portable model adds.
    fn plus(self, other: Self) -> Self;
}

impl Elem for f32 {
    const ZERO: Self = 0.0;
    const HIGHEST: Self = f32::INFINITY;
    const LOWEST: Self = f32::NEG_INFINITY;
    #[inline(always)]
    fn plus(self, other: Self) -> Self {
        self + other
    }
}

impl Elem for i32 {
    const ZERO: Self = 0;
    const HIGHEST: Self = i32::MAX;
    const LOWEST: Self = i32::MIN;
    #[inline(always)]
    fn plus(self, other: Self) -> Self {
        self.wrapping_add(other)
    }
}

/// One associative operator: the scalar fold the merge groups run, and the
/// vector combine the commit runs.
pub(crate) trait Fold<T> {
    /// The fold's identity, which seeds every merge group.
    const IDENTITY: T;
    /// `acc ⊕ x`, as the portable model combines.
    fn scalar(acc: T, x: T) -> T;
    /// The slot's new value from its old value and the merged lane; as
    /// [`Values`]' methods.
    unsafe fn commit<I: Values<T>>(old: I::Vec, new: I::Vec) -> I::Vec;
}

/// The sum.
pub(crate) struct Add;
/// The minimum.
pub(crate) struct Min;
/// The maximum.
pub(crate) struct Max;

impl<T: Elem> Fold<T> for Add {
    const IDENTITY: T = T::ZERO;
    #[inline(always)]
    fn scalar(acc: T, x: T) -> T {
        acc.plus(x)
    }
    #[inline(always)]
    unsafe fn commit<I: Values<T>>(old: I::Vec, new: I::Vec) -> I::Vec {
        // SAFETY: forwarded contract.
        unsafe { I::add(old, new) }
    }
}

// `min`/`max` take their second operand where either lane is NaN. With the
// slot value second, a NaN update leaves the slot unchanged, as
// `f32::min`/`f32::max` (the portable model's commit) do.

impl<T: Elem> Fold<T> for Min {
    const IDENTITY: T = T::HIGHEST;
    #[inline(always)]
    fn scalar(acc: T, x: T) -> T {
        acc.lane_min(x)
    }
    #[inline(always)]
    unsafe fn commit<I: Values<T>>(old: I::Vec, new: I::Vec) -> I::Vec {
        // SAFETY: forwarded contract.
        unsafe { I::min(new, old) }
    }
}

impl<T: Elem> Fold<T> for Max {
    const IDENTITY: T = T::LOWEST;
    #[inline(always)]
    fn scalar(acc: T, x: T) -> T {
        acc.lane_max(x)
    }
    #[inline(always)]
    unsafe fn commit<I: Values<T>>(old: I::Vec, new: I::Vec) -> I::Vec {
        // SAFETY: forwarded contract.
        unsafe { I::max(new, old) }
    }
}

/// Every lane of `I`.
#[inline(always)]
pub(crate) fn all<I: Isa>() -> u32 {
    (1u32 << I::LANES) - 1
}

/// The lowest lane of a non-empty mask.
#[inline(always)]
pub(crate) fn first(mask: u32) -> usize {
    mask.trailing_zeros() as usize
}

/// The identity-seeded, ascending fold of `group`'s lanes (`lane(l)` reads
/// lane `l`): the portable `SimdVec::reduce` order, which makes every
/// backend bitwise identical to the model, floats included.
#[inline(always)]
pub(crate) fn fold<T, Op: Fold<T>>(group: u32, mut lane: impl FnMut(usize) -> T) -> T {
    let mut acc = Op::IDENTITY;
    let mut bits = group;
    while bits != 0 {
        acc = Op::scalar(acc, lane(first(bits)));
        bits &= bits - 1;
    }
    acc
}

/// The merge-group walk: for each lane left in `todo`, lowest first, calls
/// `merge` with its group — the lanes of `within` holding the same index
/// (`keys[l]` is lane `l`'s) — and clears the group from `todo`. Returns
/// the number of groups, the vector's merge depth.
///
/// # Safety
///
/// `I`'s features are enabled; `keys` holds the lanes of `todo`.
#[inline(always)]
pub(crate) unsafe fn merge_groups<I: Lanes>(
    mut todo: u32,
    within: u32,
    idx: I::Idx,
    keys: *const i32,
    mut merge: impl FnMut(u32),
) -> u32 {
    let mut depth = 0;
    while todo != 0 {
        depth += 1;
        // SAFETY: lane `first(todo)` is in `todo`; forwarded contract.
        let group = unsafe { I::equal(within, idx, *keys.add(first(todo))) };
        merge(group);
        todo &= !group;
    }
    depth
}

/// Algorithm 1's in-vector reduction: the conflict-free subset of
/// `active`, then one merge per conflict group. Returns the subset and
/// `D1`.
///
/// # Safety
///
/// As [`merge_groups`], with `keys` holding the `active` lanes.
#[inline(always)]
pub(crate) unsafe fn alg1<I: Lanes>(
    active: u32,
    idx: I::Idx,
    keys: *const i32,
    merge: impl FnMut(u32),
) -> (u32, u32) {
    // SAFETY: forwarded contract.
    unsafe {
        let safe = I::conflict_free(active, idx);
        (safe, merge_groups::<I>(active & !safe, active, idx, keys, merge))
    }
}

/// Algorithm 1 on one vector held in `data`, indexed by `idx` (`LANES`
/// lanes each): each conflict group folds into its first lane. Returns the
/// conflict-free mask and `D1`, like the portable `reduce_alg1`.
///
/// # Safety
///
/// `I`'s features are enabled; `idx` and `data` hold `LANES` lanes.
#[inline(always)]
pub(crate) unsafe fn invec<I: Lanes, T: Copy, Op: Fold<T>>(
    active: u32,
    idx: &[i32],
    data: &mut [T],
) -> (u32, u32) {
    debug_assert!(idx.len() == I::LANES && data.len() == I::LANES);
    // SAFETY: forwarded contract; `idx` holds every lane.
    unsafe {
        let vidx = I::load_idx(all::<I>(), idx.as_ptr());
        alg1::<I>(active, vidx, idx.as_ptr(), |group| {
            let acc = fold::<T, Op>(group, |l| data[l]);
            data[first(group)] = acc;
        })
    }
}

/// The fused whole-stream driver: per vector of `LANES` items, a masked
/// load (a short tail runs as one masked vector, never as scalar cleanup),
/// the bounds check, the in-vector reduction `reduce`, one depth bucket,
/// and the conflict-free gather-combine-commit of `Op`. Returns the number
/// of vectors, `⌈n / LANES⌉`.
///
/// `reduce(active, vidx, j, &mut vval)` reduces the vector of items
/// `j..` in place and returns the lanes to commit and the merge depth.
///
/// # Panics
///
/// On an out-of-range (or negative) index, naming the vector's first bad
/// lane, before any lane of that vector commits.
///
/// # Safety
///
/// `I`'s features are enabled; `idx.len() == vals.len()`;
/// `target.len() <= i32::MAX`; `reduce` returns a subset of `active` with
/// pairwise distinct indices.
#[inline(always)]
pub(crate) unsafe fn stream<I: Values<T>, T, Op: Fold<T>>(
    target: &mut [T],
    idx: &[i32],
    vals: &[T],
    depth: &mut [u64; 17],
    mut reduce: impl FnMut(u32, I::Idx, usize, &mut I::Vec) -> (u32, u32),
) -> u64 {
    let n = idx.len();
    let mut vectors = 0u64;
    let mut j = 0;
    while j < n {
        let rem = n - j;
        let active = if rem >= I::LANES { all::<I>() } else { (1u32 << rem) - 1 };
        // SAFETY: the active lanes are items `j..n` of both slices; the
        // commit only sees lanes that passed the bounds check, with the
        // distinct indices `reduce` promises.
        unsafe {
            let vidx = I::load_idx(active, idx.as_ptr().add(j));
            let inb = I::below(active, vidx, target.len());
            if inb != active {
                panic!(
                    "gather/scatter index {} out of bounds for slice of length {}",
                    idx[j + first(active & !inb)],
                    target.len()
                );
            }
            let mut vval = I::load(active, vals.as_ptr().add(j));
            let (commit, d) = reduce(active, vidx, j, &mut vval);
            depth[d as usize] += 1;
            let old = I::gather(commit, vidx, target.as_ptr());
            I::commit(commit, vidx, Op::commit::<I>(old, vval), target.as_mut_ptr());
        }
        vectors += 1;
        j += I::LANES;
    }
    vectors
}

/// The fused whole-stream Algorithm-1 driver behind every `Isa`
/// `accumulate_*` method of the x86 backends: [`stream`] with
/// [`alg1`]. Each merge group folds straight from `vals` (the untouched
/// lane values are still there) and blends into its first lane.
///
/// # Safety
///
/// As [`stream`].
#[inline(always)]
pub(crate) unsafe fn accumulate<I: Values<T>, T: Copy, Op: Fold<T>>(
    target: &mut [T],
    idx: &[i32],
    vals: &[T],
    depth: &mut [u64; 17],
) -> u64 {
    // SAFETY: forwarded contract; `alg1` returns a conflict-free subset of
    // `active`, whose lanes `j..` of both slices are readable.
    unsafe {
        stream::<I, T, Op>(target, idx, vals, depth, |active, vidx, j, vval| {
            let src = vals.as_ptr().add(j);
            alg1::<I>(active, vidx, idx.as_ptr().add(j), |group| {
                let acc = fold::<T, Op>(group, |l| *src.add(l));
                *vval = I::blend(*vval, first(group), acc);
            })
        })
    }
}
