//! The AVX2 backend: 8 lanes, no `vpconflictd`, no hardware scatter.
//!
//! AVX2 machines (every x86 server/desktop since Haswell) lack the three
//! instructions the AVX-512 backend leans on, so each gets a faithful
//! emulation that preserves the portable model's semantics bit for bit *at
//! eight lanes*:
//!
//! * **conflict detection** — the paper's point is that Algorithm 2 needs
//!   no `vpconflictd`; what the drivers do need is the conflict-free-subset
//!   mask, which [`conflict_free_subset_u8`] emulates with a
//!   broadcast-compare sweep: for each active lane `j < 7`, one
//!   `vpbroadcastd` + `vpcmpeqd` + `vmovmskps` marks every later lane
//!   holding the same index as a duplicate. Seven compares cover all
//!   `(i, j<i)` lane pairs — O(LANES) work instead of `vpconflictd`'s
//!   single instruction, which is exactly the trade §2 of the paper prices.
//! * **scatter** — the conflict-free commit stores the combined vector to
//!   the stack and writes the selected (pairwise-distinct) lanes back with
//!   scalar stores.
//! * **unsigned bounds compare** — AVX2 only has signed `vpcmpgtd`, so both
//!   sides are biased by `i32::MIN`; negative indices wrap above any valid
//!   length and fail the check, panicking like the portable model.
//!
//! Loads use `vmaskmov` for tails (fault-suppressing, zero-filling, like
//! AVX-512 `maskz`), and the conflict-free gather runs on the real
//! `vgatherdps` with a vector mask. These are this backend's lane
//! vocabulary (`arch::lanes`); the fused drivers are the shared Algorithm-1
//! stream driver the AVX-512 backend runs too, compiled for AVX2 inside
//! each [`Isa`] method, so merge iterations fold with the same sequential
//! identity-seeded ascending scalar fold as the portable model.
//!
//! Raw free functions exist only on `x86_64`; the [`Avx2`] type and its
//! [`Isa`] impl exist everywhere (compile-time-false `available()`,
//! `unreachable!()` stubs elsewhere).

use std::sync::OnceLock;

use super::Isa;

/// Returns `true` when the running CPU supports AVX2. Computed once and
/// cached.
#[inline]
pub fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> bool {
    std::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> bool {
    false
}

/// The 8-lane AVX2 backend (emulated conflict detection, gather with scalar
/// write-back). Zero-sized; see [`Isa`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Avx2;

/// One fused-driver trait method: a `target_feature` entry that compiles
/// the shared Algorithm-1 stream driver for AVX2 (an `unreachable!()` stub
/// off x86_64).
macro_rules! avx2_isa_driver {
    ($name:ident, $t:ty, $op:ident) => {
        #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
        unsafe fn $name(target: &mut [$t], idx: &[i32], vals: &[$t], depth: &mut [u64; 17]) -> u64 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the feature is enabled; forwarded contract — caller
            // checked `available()` and the slice-length preconditions.
            unsafe {
                super::lanes::accumulate::<Avx2, $t, super::lanes::$op>(target, idx, vals, depth)
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let _ = (target, idx, vals, depth);
                unreachable!("avx2 backend is never available on this target")
            }
        }
    };
}

// SAFETY: the drivers below validate indices per vector before any memory
// op, fold merge groups in the portable model's order at 8 lanes, and are
// only reachable when `available()` observed avx2.
unsafe impl Isa for Avx2 {
    const NAME: &'static str = "avx2";
    const LANES: usize = 8;
    const TAG: usize = crate::count::tag::AVX2;
    // loadidx + loadval + biased bounds check (3) + emulated conflict
    // detection (7 × broadcast/compare/movemask = 21) + gather + combine +
    // up to 8 scalar write-backs + loop overhead.
    const MODEL_COST_PER_VECTOR: u64 = 38;

    #[inline]
    fn available() -> bool {
        available()
    }

    unsafe fn conflict_free_subset(active: u32, idx: &[i32]) -> u32 {
        debug_assert_eq!(idx.len(), Self::LANES);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: forwarded contract — caller checked `available()`.
        unsafe {
            let mut a = [0i32; 8];
            a.copy_from_slice(idx);
            u32::from(imp::conflict_free_subset_u8(active as u8, a))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (active, idx);
            unreachable!("avx2 backend is never available on this target")
        }
    }

    avx2_isa_driver!(accumulate_add_f32, f32, Add);
    avx2_isa_driver!(accumulate_min_f32, f32, Min);
    avx2_isa_driver!(accumulate_max_f32, f32, Max);
    avx2_isa_driver!(accumulate_add_i32, i32, Add);
    avx2_isa_driver!(accumulate_min_i32, i32, Min);
    avx2_isa_driver!(accumulate_max_i32, i32, Max);
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use std::arch::x86_64::*;

    use super::super::lanes::{all, first, Lanes, Values};
    use super::Avx2;

    /// Per-lane all-ones where the corresponding low bit of `m` is set —
    /// the `__m256i` shape AVX2's `vmaskmov` loads, `vgather` masks and
    /// `vblendv` blends want in place of an opmask register.
    #[inline(always)]
    unsafe fn mask_to_vec(m: u32) -> __m256i {
        // SAFETY: register-only; the caller enabled avx2.
        unsafe {
            let bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
            let v = _mm256_set1_epi32(m as i32);
            _mm256_cmpeq_epi32(_mm256_and_si256(v, bits), bits)
        }
    }

    /// Low-8-bit lane mask from a 32-bit-lane compare result.
    #[inline(always)]
    unsafe fn movemask32(v: __m256i) -> u32 {
        // SAFETY: register-only; the caller enabled avx2.
        unsafe { _mm256_movemask_ps(_mm256_castsi256_ps(v)) as u32 }
    }

    /// AVX2's index vector: the register, and a stack copy of its lanes
    /// as the scalar source of the subset sweep's broadcasts and of the
    /// commit's write-back.
    #[derive(Clone, Copy)]
    pub(crate) struct Idx8 {
        v: __m256i,
        lanes: [i32; 8],
    }

    // SAFETY: `below` is the biased compare against the length, and
    // `conflict_free` compares every lane pair `(i, j < i)`, so both return
    // exactly the lanes their contracts name.
    unsafe impl Lanes for Avx2 {
        type Idx = Idx8;

        #[inline(always)]
        unsafe fn load_idx(active: u32, src: *const i32) -> Idx8 {
            // SAFETY: a full vector reads its eight lanes; a tail's
            // `vmaskmov` reads only the active ones.
            unsafe {
                let v = if active == all::<Avx2>() {
                    _mm256_loadu_si256(src.cast())
                } else {
                    _mm256_maskload_epi32(src, mask_to_vec(active))
                };
                let mut lanes = [0i32; 8];
                _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
                Idx8 { v, lanes }
            }
        }

        #[inline(always)]
        unsafe fn below(active: u32, idx: Idx8, len: usize) -> u32 {
            // SAFETY: register-only; the caller enabled avx2. Biasing both
            // operands by i32::MIN makes signed > unsigned <, so negative
            // indices wrap above every valid length and fail.
            unsafe {
                let bias = _mm256_set1_epi32(i32::MIN);
                let len = _mm256_set1_epi32((len as i32) ^ i32::MIN);
                movemask32(_mm256_cmpgt_epi32(len, _mm256_xor_si256(idx.v, bias))) & active
            }
        }

        #[inline(always)]
        unsafe fn conflict_free(active: u32, idx: Idx8) -> u32 {
            let mut dup = 0u32;
            for (j, &key) in idx.lanes.iter().enumerate().take(7) {
                if active & (1 << j) != 0 {
                    // Only lanes after j count; lane j itself stays first.
                    // SAFETY: forwarded contract.
                    dup |=
                        unsafe { Self::equal(all::<Avx2>(), idx, key) } & !((1u32 << (j + 1)) - 1);
                }
            }
            active & !dup
        }

        #[inline(always)]
        unsafe fn equal(active: u32, idx: Idx8, key: i32) -> u32 {
            // SAFETY: register-only; the caller enabled avx2.
            unsafe { movemask32(_mm256_cmpeq_epi32(idx.v, _mm256_set1_epi32(key))) & active }
        }
    }

    /// The conflict-free commit without a scatter: the selected lanes,
    /// whose indices are distinct, write back with scalar stores.
    ///
    /// # Safety
    ///
    /// The selected indices are in bounds of `base` and pairwise distinct.
    #[inline(always)]
    unsafe fn write_back<T: Copy>(mask: u32, idx: Idx8, lanes: [T; 8], base: *mut T) {
        let mut bits = mask;
        while bits != 0 {
            let l = first(bits);
            // SAFETY: forwarded contract.
            unsafe { *base.add(idx.lanes[l] as usize) = lanes[l] };
            bits &= bits - 1;
        }
    }

    /// Implements [`Values`] for one element type from its intrinsics;
    /// `$fmask` turns a lane-mask vector into the mask operand of the
    /// type's blend and gather.
    macro_rules! avx2_values {
        ($t:ty, $vec:ty, $fmask:path, $loadu:ident, $maskload:ident, $storeu:ident,
         $set1:ident, $zero:ident, $blendv:ident, $gather:ident, $add:ident, $min:ident,
         $max:ident) => {
            // SAFETY: loads read only the active lanes, the gather only the
            // selected lanes' slots, and `write_back` only the selected
            // slots.
            unsafe impl Values<$t> for Avx2 {
                type Vec = $vec;

                #[inline(always)]
                unsafe fn load(active: u32, src: *const $t) -> $vec {
                    // SAFETY: a full vector reads its eight lanes; a tail's
                    // `vmaskmov` reads only the active ones.
                    unsafe {
                        if active == all::<Avx2>() {
                            $loadu(src.cast())
                        } else {
                            $maskload(src, mask_to_vec(active))
                        }
                    }
                }

                #[inline(always)]
                unsafe fn blend(v: $vec, lane: usize, x: $t) -> $vec {
                    // SAFETY: register-only; the caller enabled avx2.
                    unsafe { $blendv(v, $set1(x), $fmask(mask_to_vec(1 << lane))) }
                }

                #[inline(always)]
                unsafe fn gather(mask: u32, idx: Idx8, base: *const $t) -> $vec {
                    // SAFETY: the caller checked the selected indices.
                    unsafe { $gather::<4>($zero(), base, idx.v, $fmask(mask_to_vec(mask))) }
                }

                #[inline(always)]
                unsafe fn add(a: $vec, b: $vec) -> $vec {
                    // SAFETY: register-only; the caller enabled avx2.
                    unsafe { $add(a, b) }
                }

                #[inline(always)]
                unsafe fn min(a: $vec, b: $vec) -> $vec {
                    // SAFETY: register-only; the caller enabled avx2.
                    unsafe { $min(a, b) }
                }

                #[inline(always)]
                unsafe fn max(a: $vec, b: $vec) -> $vec {
                    // SAFETY: register-only; the caller enabled avx2.
                    unsafe { $max(a, b) }
                }

                #[inline(always)]
                unsafe fn commit(mask: u32, idx: Idx8, v: $vec, base: *mut $t) {
                    let mut lanes: [$t; 8] = [Default::default(); 8];
                    // SAFETY: the store fills a local array; the caller
                    // checked the selected indices and their distinctness.
                    unsafe {
                        $storeu(lanes.as_mut_ptr().cast(), v);
                        write_back(mask, idx, lanes, base);
                    }
                }
            }
        };
    }

    /// The mask operand of the `epi32` blend and gather: the lane-mask
    /// vector itself.
    #[inline(always)]
    fn as_i32_mask(m: __m256i) -> __m256i {
        m
    }

    avx2_values!(
        f32,
        __m256,
        _mm256_castsi256_ps,
        _mm256_loadu_ps,
        _mm256_maskload_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_setzero_ps,
        _mm256_blendv_ps,
        _mm256_mask_i32gather_ps,
        _mm256_add_ps,
        _mm256_min_ps,
        _mm256_max_ps
    );
    avx2_values!(
        i32,
        __m256i,
        as_i32_mask,
        _mm256_loadu_si256,
        _mm256_maskload_epi32,
        _mm256_storeu_si256,
        _mm256_set1_epi32,
        _mm256_setzero_si256,
        _mm256_blendv_epi8,
        _mm256_mask_i32gather_epi32,
        _mm256_add_epi32,
        _mm256_min_epi32,
        _mm256_max_epi32
    );

    /// The conflict-free-subset primitive without `vpconflictd`: active
    /// lanes with no earlier active duplicate, via a seven-step
    /// broadcast-compare sweep. Pure lane-local computation — indices may
    /// be any `i32`, including negative.
    ///
    /// # Safety
    ///
    /// Requires `avx2` (check [`super::available`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn conflict_free_subset_u8(active: u8, idx: [i32; 8]) -> u8 {
        // SAFETY: the feature is enabled; `idx` holds every lane.
        unsafe {
            let vidx = Avx2::load_idx(all::<Avx2>(), idx.as_ptr());
            Avx2::conflict_free(u32::from(active), vidx) as u8
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub use imp::conflict_free_subset_u8;

#[cfg(test)]
mod tests {
    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn avx2_backend_contract_off_x86_64() {
        assert!(!super::available());
    }

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use super::super::*;
        use rand::{Rng, SeedableRng};

        /// Portable conflict-free subset: active lanes with no earlier
        /// active duplicate.
        fn reference_cfs(active: u8, idx: [i32; 8]) -> u8 {
            let mut m = 0u8;
            for i in 0..8 {
                let act = active & (1 << i) != 0;
                let first = (0..i).all(|j| active & (1 << j) == 0 || idx[j] != idx[i]);
                if act && first {
                    m |= 1 << i;
                }
            }
            m
        }

        #[test]
        fn emulated_cfs_matches_reference_on_adversarial_indices() {
            if !available() {
                eprintln!("skipping: AVX2 not available on this host");
                return;
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0xA2C5);
            // Dense duplicates, all-same, negatives (no sentinel values
            // exist to collide with — the sweep is value-agnostic).
            for _ in 0..2000 {
                let idx: [i32; 8] = std::array::from_fn(|_| rng.gen_range(-3..4));
                let active: u8 = rng.gen();
                // SAFETY: guarded by `available()`.
                let got = unsafe { conflict_free_subset_u8(active, idx) };
                assert_eq!(got, reference_cfs(active, idx), "idx {idx:?} active {active:#04x}");
            }
            for idx in [[0i32; 8], [i32::MIN; 8], [-1, -1, 0, 0, -1, 1, 1, 0]] {
                for active in [0xFFu8, 0x5A, 0x00, 0x80] {
                    // SAFETY: guarded by `available()`.
                    let got = unsafe { conflict_free_subset_u8(active, idx) };
                    assert_eq!(got, reference_cfs(active, idx), "idx {idx:?}");
                }
            }
        }
    }
}
