//! The `vpconflictd` conflict-detection instruction family.

use crate::count;
use crate::mask::Mask;
use crate::vector::SimdVec;

/// Detects conflicting lanes in an index vector (`vpconflictd`).
///
/// For each lane `i`, the result lane holds a bitset in which bit `j` is set
/// iff `j < i` and `idx[j] == idx[i]` — i.e. each lane reports the preceding
/// lanes it collides with, starting from the least significant bit. Lanes
/// with result `0` have no earlier duplicate and form a conflict-free subset.
///
/// This is the portable model: it computes the bitsets in software on every
/// host. The native backends run `vpconflictd` (or its AVX2 / NEON
/// emulation) inside their own drivers, not through this function.
///
/// # Example
///
/// ```
/// use invector_simd::{conflict_detect, I32x16};
///
/// let mut idx = [0i32; 16];
/// idx[3] = 0; // lanes 0..16 all hold 0 here; make it interesting:
/// let idx: [i32; 16] = std::array::from_fn(|i| (i % 4) as i32);
/// let c = conflict_detect(I32x16::from_array(idx));
/// assert_eq!(c.extract(0), 0); // first occurrence of 0
/// assert_eq!(c.extract(4), 0b1); // second occurrence of 0 collides with lane 0
/// assert_eq!(c.extract(8), 0b1_0001); // third collides with lanes 0 and 4
/// ```
pub fn conflict_detect<const N: usize>(idx: SimdVec<i32, N>) -> SimdVec<i32, N> {
    count::bump(1);
    let lanes = idx.as_array();
    SimdVec::from_array(std::array::from_fn(|i| {
        let mut bits = 0i32;
        for j in 0..i {
            if lanes[j] == lanes[i] {
                bits |= 1 << j;
            }
        }
        bits
    }))
}

/// Returns the conflict-free subset of the `active` lanes of `idx`.
///
/// A lane is in the subset iff it is active and no *active* preceding lane
/// holds the same index. The subset therefore contains exactly the first
/// active occurrence of every distinct index — scattering through these
/// lanes can never self-conflict.
///
/// This is the paper's `v_get_conflict_free_subset` primitive: one
/// `vpconflictd` plus one masked test against the broadcast active mask
/// (2 SIMD instructions).
///
/// # Example
///
/// ```
/// use invector_simd::{conflict_free_subset, I32x16, Mask16};
///
/// let idx = I32x16::from_array(std::array::from_fn(|i| (i % 2) as i32));
/// let safe = conflict_free_subset(Mask16::all(), idx);
/// assert_eq!(safe.bits(), 0b11); // lanes 0 and 1: first 0 and first 1
///
/// // Deactivating lane 0 promotes lane 2 to "first occurrence of 0".
/// let safe = conflict_free_subset(Mask16::all().with(0, false), idx);
/// assert_eq!(safe.bits(), 0b110);
/// ```
pub fn conflict_free_subset<const N: usize>(active: Mask<N>, idx: SimdVec<i32, N>) -> Mask<N> {
    let conflicts = conflict_detect(idx);
    count::bump(1); // vptestnmd against the broadcast active mask
    let active_bits = active.bits() as i32;
    let lanes = conflicts.as_array();
    let free: Mask<N> = Mask::from_array(std::array::from_fn(|i| lanes[i] & active_bits == 0));
    Mask::from_bits(free.bits() & active.bits())
}

/// Reports whether any two lanes of `idx` hold the same value.
///
/// # Example
///
/// ```
/// use invector_simd::{has_conflicts, I32x16};
/// assert!(!has_conflicts(I32x16::iota()));
/// assert!(has_conflicts(I32x16::splat(3)));
/// ```
pub fn has_conflicts<const N: usize>(idx: SimdVec<i32, N>) -> bool {
    let c = conflict_detect(idx);
    c.as_array().iter().any(|&bits| bits != 0)
}

// The tests check the model against the hardware instruction.
#[cfg(test)]
use crate::arch::avx512;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{I32x16, Mask16};

    #[test]
    fn distinct_indices_have_no_conflicts() {
        let c = conflict_detect(I32x16::iota());
        assert_eq!(*c.as_array(), [0i32; 16]);
    }

    #[test]
    fn all_equal_indices_report_all_preceding_lanes() {
        let c = conflict_detect(I32x16::splat(42));
        for i in 0..16 {
            assert_eq!(c.extract(i), (1i32 << i) - 1, "lane {i}");
        }
    }

    #[test]
    fn paper_figure5_index_vector() {
        // The running example from Figure 5 of the paper.
        let idx = I32x16::from_array([0, 1, 1, 1, 2, 2, 2, 2, 5, 0, 1, 1, 1, 5, 5, 5]);
        let safe = conflict_free_subset(Mask16::all(), idx);
        // Non-conflicting lanes: first 0 (lane 0), first 1 (lane 1),
        // first 2 (lane 4), first 5 (lane 8).
        assert_eq!(safe.bits(), 0b0000_0001_0001_0011);
    }

    #[test]
    fn subset_respects_active_mask() {
        let idx = I32x16::splat(7);
        // Only lanes 5 and 9 active: lane 5 is the first active occurrence.
        let active = Mask16::none().with(5, true).with(9, true);
        let safe = conflict_free_subset(active, idx);
        assert_eq!(safe, Mask16::none().with(5, true));
    }

    #[test]
    fn subset_of_empty_active_mask_is_empty() {
        let safe = conflict_free_subset(Mask16::none(), I32x16::splat(1));
        assert!(safe.is_empty());
    }

    #[test]
    fn subset_contains_first_occurrence_of_each_distinct_index() {
        let idx = I32x16::from_array([3, 3, 9, 9, 3, 1, 1, 9, 2, 2, 2, 2, 0, 3, 1, 0]);
        let safe = conflict_free_subset(Mask16::all(), idx);
        let mut seen = std::collections::HashSet::new();
        for i in 0..16 {
            let first = seen.insert(idx.extract(i));
            assert_eq!(safe.test(i), first, "lane {i}");
        }
    }

    #[test]
    fn negative_indices_compare_by_value() {
        let idx = I32x16::from_array(std::array::from_fn(|i| if i < 8 { -3 } else { -4 }));
        let c = conflict_detect(idx);
        assert_eq!(c.extract(1), 0b1);
        assert_eq!(c.extract(8), 0);
        assert_eq!(c.extract(9), 0b1_0000_0000);
    }

    #[test]
    fn has_conflicts_detects_any_duplicate() {
        let mut arr: [i32; 16] = std::array::from_fn(|i| i as i32);
        assert!(!has_conflicts(I32x16::from_array(arr)));
        arr[15] = arr[0];
        assert!(has_conflicts(I32x16::from_array(arr)));
    }

    #[test]
    fn portable_matches_native_on_random_vectors() {
        use rand::{Rng, SeedableRng};
        if !avx512::available() {
            eprintln!("skipping: AVX-512 not available");
            return;
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xC0FFEE);
        for _ in 0..500 {
            let idx: [i32; 16] = std::array::from_fn(|_| rng.gen_range(-4..8));
            // SAFETY: guarded by `available()`.
            let native = unsafe { avx512::conflict_i32(idx) };
            let portable: [i32; 16] = std::array::from_fn(|i| {
                let mut bits = 0i32;
                for j in 0..i {
                    if idx[j] == idx[i] {
                        bits |= 1 << j;
                    }
                }
                bits
            });
            assert_eq!(native, portable, "input {idx:?}");
        }
    }
}
