//! The aarch64 NEON backend: 4 lanes, emulated conflict detection, scalar
//! memory traffic.
//!
//! NEON has no gather, no scatter and no `vpconflictd` equivalent, but the
//! paper's scheme still pays off at 4 lanes: conflict detection and the
//! bounds check run as vector compares (three broadcast/compare steps cover
//! every `(i, j<i)` lane pair; `vclt` on reinterpreted unsigned lanes
//! catches negative indices), while the conflict-free gather-combine-commit
//! runs as four scalar accesses — which is what the hardware would do under
//! the hood anyway at this width.
//!
//! Merge iterations fold conflict groups with the same sequential,
//! identity-seeded, ascending scalar fold as the portable model and every
//! other backend, so results are bitwise identical to the portable model at
//! 4 lanes, stats included.
//!
//! NEON (`asimd`) is a mandatory part of the aarch64 baseline, so
//! [`available`] is simply "are we on aarch64". Raw free functions exist
//! only there; the [`Neon`] type and its [`Isa`] impl exist everywhere
//! (compile-time-false `available()`, `unreachable!()` stubs elsewhere).
//! This file is exercised by the `cargo check --target
//! aarch64-unknown-linux-gnu` CI leg; keep the intrinsic surface minimal.

use super::Isa;

/// Returns `true` on aarch64 hosts (NEON is baseline there), `false`
/// everywhere else at compile time.
#[inline]
pub fn available() -> bool {
    cfg!(target_arch = "aarch64")
}

/// The 4-lane NEON backend (vector conflict detection and bounds checks,
/// scalar gather/scatter). Zero-sized; see [`Isa`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Neon;

/// Forwards one fused-driver trait method to the raw `imp` function of the
/// same name (or to an `unreachable!()` stub off aarch64).
macro_rules! neon_isa_driver {
    ($name:ident, $t:ty) => {
        unsafe fn $name(target: &mut [$t], idx: &[i32], vals: &[$t], depth: &mut [u64; 17]) -> u64 {
            #[cfg(target_arch = "aarch64")]
            // SAFETY: forwarded contract — caller checked `available()` and
            // the slice-length preconditions.
            unsafe {
                imp::$name(target, idx, vals, depth)
            }
            #[cfg(not(target_arch = "aarch64"))]
            {
                let _ = (target, idx, vals, depth);
                unreachable!("neon backend is never available on this target")
            }
        }
    };
}

// SAFETY: the drivers below validate indices per vector before any memory
// op, fold merge groups in the portable model's order at 4 lanes, and only
// run on aarch64 where NEON is baseline.
unsafe impl Isa for Neon {
    const NAME: &'static str = "neon";
    const LANES: usize = 4;
    const TAG: usize = crate::count::tag::NEON;
    // 8 scalar load/stores + vector bounds check (3) + emulated conflict
    // detection (3 × broadcast/compare/mask = 9) + combine + loop overhead.
    const MODEL_COST_PER_VECTOR: u64 = 22;

    #[inline]
    fn available() -> bool {
        available()
    }

    unsafe fn conflict_free_subset(active: u32, idx: &[i32]) -> u32 {
        debug_assert_eq!(idx.len(), Self::LANES);
        #[cfg(target_arch = "aarch64")]
        // SAFETY: forwarded contract — caller checked `available()`.
        unsafe {
            let mut a = [0i32; 4];
            a.copy_from_slice(idx);
            imp::conflict_free_subset_u4(active, a)
        }
        #[cfg(not(target_arch = "aarch64"))]
        {
            let _ = (active, idx);
            unreachable!("neon backend is never available on this target")
        }
    }

    neon_isa_driver!(accumulate_add_f32, f32);
    neon_isa_driver!(accumulate_min_f32, f32);
    neon_isa_driver!(accumulate_max_f32, f32);
    neon_isa_driver!(accumulate_add_i32, i32);
    neon_isa_driver!(accumulate_min_i32, i32);
    neon_isa_driver!(accumulate_max_i32, i32);
}

#[cfg(target_arch = "aarch64")]
mod imp {
    use std::arch::aarch64::*;

    /// Low-4-bit lane mask from a 32-bit-lane compare result: AND with
    /// per-lane bit weights, horizontal add.
    #[inline]
    unsafe fn movemask4(m: uint32x4_t) -> u32 {
        // SAFETY: loads from a local array; register-only from there.
        unsafe {
            let weights = [1u32, 2, 4, 8];
            let bits = vld1q_u32(weights.as_ptr());
            vaddvq_u32(vandq_u32(m, bits))
        }
    }

    /// Emulated conflict-free subset over a loaded index vector: for each
    /// active lane `j`, one broadcast-compare marks every later lane
    /// holding the same index as a duplicate. `arr` holds the same values
    /// as `vidx` (scalar broadcast source).
    #[inline]
    unsafe fn cfs_from_vec(active: u32, vidx: int32x4_t, arr: &[i32; 4]) -> u32 {
        // SAFETY: register-only intrinsics.
        unsafe {
            let mut dup = 0u32;
            for j in 0..3 {
                if active & (1 << j) == 0 {
                    continue;
                }
                let eq = movemask4(vceqq_s32(vidx, vdupq_n_s32(arr[j])));
                // Only lanes after j count; lane j itself stays first.
                dup |= eq & !((1u32 << (j + 1)) - 1);
            }
            active & !dup
        }
    }

    /// The conflict-free-subset primitive at 4 lanes: active lanes with no
    /// earlier active duplicate, via a three-step broadcast-compare sweep.
    /// Pure lane-local computation — indices may be any `i32`.
    ///
    /// # Safety
    ///
    /// Only callable on aarch64 (NEON is baseline there).
    pub unsafe fn conflict_free_subset_u4(active: u32, idx: [i32; 4]) -> u32 {
        // SAFETY: loads from a local array; register-only from there.
        unsafe {
            let vidx = vld1q_s32(idx.as_ptr());
            cfs_from_vec(active & 0xF, vidx, &idx)
        }
    }

    /// Generates one fused whole-stream accumulation driver at 4 lanes:
    /// vectorized conflict detection and bounds check, scalar
    /// gather-combine-commit (NEON has neither gather nor scatter; at 4
    /// lanes the hardware would serialize them anyway). Tails run as
    /// partial vectors with the same depth accounting as the portable
    /// 4-lane driver.
    macro_rules! neon_accumulate {
        ($(#[$doc:meta])* $name:ident, $t:ty, $zero_elem:expr, $identity:expr, $combine:expr) => {
            $(#[$doc])*
            ///
            /// Records one depth-histogram bucket per vector in `depth`
            /// (`depth[d] += 1`, `d` ≤ 2) and returns the number of vector
            /// iterations executed (`⌈n / 4⌉`).
            ///
            /// # Safety
            ///
            /// `idx.len() == vals.len()`; `target.len() <= i32::MAX`.
            /// Out-of-range (including negative) indices panic like the
            /// portable model, before any lane of the offending vector
            /// commits.
            pub unsafe fn $name(
                target: &mut [$t],
                idx: &[i32],
                vals: &[$t],
                depth: &mut [u64; 17],
            ) -> u64 {
                // SAFETY: every unchecked slice access below is covered by
                // the loop bounds (`j + l < n`) or by the per-vector bounds
                // check over the index lanes.
                unsafe {
                    let n = idx.len();
                    // Unsigned compare catches negative indices too.
                    let vlen = vdupq_n_u32(target.len() as u32);
                    let mut vectors = 0u64;
                    let mut j = 0;
                    while j < n {
                        let lanes = (n - j).min(4);
                        let active: u32 = (1u32 << lanes) - 1;
                        let mut ai = [0i32; 4];
                        let mut av = [$zero_elem; 4];
                        for l in 0..lanes {
                            ai[l] = *idx.get_unchecked(j + l);
                            av[l] = *vals.get_unchecked(j + l);
                        }
                        let vidx = vld1q_s32(ai.as_ptr());
                        let inb =
                            movemask4(vcltq_u32(vreinterpretq_u32_s32(vidx), vlen)) & active;
                        if inb != active {
                            let bad = (active & !inb).trailing_zeros() as usize;
                            panic!(
                                "gather/scatter index {} out of bounds for slice of length {}",
                                ai[bad],
                                target.len()
                            );
                        }
                        let mret = cfs_from_vec(active, vidx, &ai);
                        // Merge conflicting groups (usually zero
                        // iterations): identity-seeded ascending fold over
                        // the original lane values, the portable order.
                        let mut d = 0u32;
                        let mut todo = active & !mret;
                        while todo != 0 {
                            d += 1;
                            let i = todo.trailing_zeros() as usize;
                            let mreduce =
                                movemask4(vceqq_s32(vidx, vdupq_n_s32(ai[i]))) & active;
                            let mut acc: $t = $identity;
                            let mut bits = mreduce;
                            while bits != 0 {
                                let l = bits.trailing_zeros() as usize;
                                acc = $combine(acc, *vals.get_unchecked(j + l));
                                bits &= bits - 1;
                            }
                            av[mreduce.trailing_zeros() as usize] = acc;
                            todo &= !mreduce;
                        }
                        depth[d as usize] += 1;
                        // Conflict-free commit: the selected lanes hold
                        // pairwise-distinct, validated indices.
                        let mut bits = mret;
                        while bits != 0 {
                            let l = bits.trailing_zeros() as usize;
                            let slot = target.get_unchecked_mut(ai[l] as usize);
                            *slot = $combine(*slot, av[l]);
                            bits &= bits - 1;
                        }
                        vectors += 1;
                        j += 4;
                    }
                    vectors
                }
            }
        };
    }

    neon_accumulate!(
        /// Fused whole-stream `target[idx[j]] += vals[j]` (f32 sums).
        accumulate_add_f32,
        f32,
        0.0f32,
        0.0f32,
        |a: f32, b: f32| a + b
    );
    neon_accumulate!(
        /// Fused whole-stream f32 minimum: the SSSP-shaped reduction.
        accumulate_min_f32,
        f32,
        0.0f32,
        f32::INFINITY,
        f32::min
    );
    neon_accumulate!(
        /// Fused whole-stream f32 maximum: the SSWP-shaped reduction.
        accumulate_max_f32,
        f32,
        0.0f32,
        f32::NEG_INFINITY,
        f32::max
    );
    neon_accumulate!(
        /// Fused whole-stream `target[idx[j]] += vals[j]` (wrapping i32).
        accumulate_add_i32,
        i32,
        0i32,
        0i32,
        |a: i32, b: i32| a.wrapping_add(b)
    );
    neon_accumulate!(
        /// Fused whole-stream i32 minimum: the WCC-shaped reduction.
        accumulate_min_i32,
        i32,
        0i32,
        i32::MAX,
        |a: i32, b: i32| a.min(b)
    );
    neon_accumulate!(
        /// Fused whole-stream i32 maximum.
        accumulate_max_i32,
        i32,
        0i32,
        i32::MIN,
        |a: i32, b: i32| a.max(b)
    );
}

#[cfg(target_arch = "aarch64")]
pub use imp::{
    accumulate_add_f32, accumulate_add_i32, accumulate_max_f32, accumulate_max_i32,
    accumulate_min_f32, accumulate_min_i32, conflict_free_subset_u4,
};

#[cfg(test)]
mod tests {
    #[test]
    fn availability_tracks_architecture() {
        assert_eq!(super::available(), cfg!(target_arch = "aarch64"));
    }

    #[cfg(target_arch = "aarch64")]
    mod arm {
        use super::super::*;

        fn reference_cfs(active: u32, idx: [i32; 4]) -> u32 {
            let mut m = 0u32;
            for i in 0..4 {
                let act = active & (1 << i) != 0;
                let first = (0..i).all(|j| active & (1 << j) == 0 || idx[j] != idx[i]);
                if act && first {
                    m |= 1 << i;
                }
            }
            m
        }

        #[test]
        fn emulated_cfs_matches_reference() {
            for idx in [[0i32; 4], [1, 2, 1, 2], [-1, -1, 5, -1], [3, 1, 4, 1]] {
                for active in 0..16u32 {
                    // SAFETY: aarch64-only module; NEON is baseline.
                    let got = unsafe { conflict_free_subset_u4(active, idx) };
                    assert_eq!(got, reference_cfs(active, idx), "idx {idx:?} active {active:#x}");
                }
            }
        }

        #[test]
        fn fused_add_matches_scalar_reference() {
            let idx: Vec<i32> = (0..11).map(|i| i % 3).collect();
            let vals: Vec<f32> = (0..11).map(|i| i as f32).collect();
            let mut target = vec![0.0f32; 3];
            let mut depth = [0u64; 17];
            // SAFETY: lengths match, indices all in range.
            let vectors = unsafe { accumulate_add_f32(&mut target, &idx, &vals, &mut depth) };
            assert_eq!(vectors, 3);
            let mut expect = vec![0.0f32; 3];
            for (i, v) in idx.iter().zip(&vals) {
                expect[*i as usize] += v;
            }
            assert_eq!(target, expect);
        }
    }
}
