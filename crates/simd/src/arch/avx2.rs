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
//! `vgatherdps` with a vector mask. Merge iterations fold from the source
//! slices with the same sequential identity-seeded ascending scalar fold as
//! the portable model and every other backend.
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

/// Forwards one fused-driver trait method to the raw `imp` function of the
/// same name (or to an `unreachable!()` stub off x86_64).
macro_rules! avx2_isa_driver {
    ($name:ident, $t:ty) => {
        unsafe fn $name(target: &mut [$t], idx: &[i32], vals: &[$t], depth: &mut [u64; 17]) -> u64 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: forwarded contract — caller checked `available()` and
            // the slice-length preconditions.
            unsafe {
                imp::$name(target, idx, vals, depth)
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

    avx2_isa_driver!(accumulate_add_f32, f32);
    avx2_isa_driver!(accumulate_min_f32, f32);
    avx2_isa_driver!(accumulate_max_f32, f32);
    avx2_isa_driver!(accumulate_add_i32, i32);
    avx2_isa_driver!(accumulate_min_i32, i32);
    avx2_isa_driver!(accumulate_max_i32, i32);

    unsafe fn accumulate_add_f32_alg2(
        target: &mut [f32],
        aux: &mut [f32],
        touched: &mut Vec<i32>,
        idx: &[i32],
        vals: &[f32],
        depth: &mut [u64; 17],
    ) -> u64 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: forwarded contract — caller checked `available()` and the
        // slice-length preconditions.
        unsafe {
            imp::accumulate_add_f32_alg2(target, aux, touched, idx, vals, depth)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (target, aux, touched, idx, vals, depth);
            unreachable!("avx2 backend is never available on this target")
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use std::arch::x86_64::*;

    /// Per-lane all-ones where the corresponding low bit of `m` is set —
    /// the `__m256i` shape AVX2's `vmaskmov` loads and `vgather` masks
    /// want in place of an opmask register.
    #[target_feature(enable = "avx2")]
    unsafe fn mask_to_vec(m: u32) -> __m256i {
        let bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let v = _mm256_set1_epi32(m as i32);
        _mm256_cmpeq_epi32(_mm256_and_si256(v, bits), bits)
    }

    /// Low-8-bit lane mask from a 32-bit-lane compare result.
    #[target_feature(enable = "avx2")]
    unsafe fn movemask32(v: __m256i) -> u32 {
        _mm256_movemask_ps(_mm256_castsi256_ps(v)) as u32
    }

    /// Emulated conflict-free subset over a loaded index vector: for each
    /// active lane `j`, broadcast-compare marks every *later* lane holding
    /// the same index as a duplicate; the result keeps the active lanes
    /// with no earlier active duplicate. `arr` holds the same values as
    /// `vidx` (scalar broadcast source).
    #[target_feature(enable = "avx2")]
    unsafe fn cfs_from_vec(active: u32, vidx: __m256i, arr: &[i32; 8]) -> u32 {
        // SAFETY: register-only intrinsics.
        unsafe {
            let mut dup = 0u32;
            for (j, &v) in arr.iter().enumerate().take(7) {
                if active & (1 << j) == 0 {
                    continue;
                }
                let eq = movemask32(_mm256_cmpeq_epi32(vidx, _mm256_set1_epi32(v)));
                // Only lanes after j count; lane j itself stays first.
                dup |= eq & !((1u32 << (j + 1)) - 1);
            }
            active & !dup
        }
    }

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
        // SAFETY: loads from a local array; register-only from there.
        unsafe {
            let vidx = _mm256_loadu_si256(idx.as_ptr().cast());
            cfs_from_vec(u32::from(active), vidx, &idx) as u8
        }
    }

    /// Conflict-free masked gather: `vgatherdps` with a vector mask.
    #[target_feature(enable = "avx2")]
    unsafe fn gather_f32_masked(base: &[f32], vidx: __m256i, mvec: __m256i) -> __m256 {
        // SAFETY: caller validated the selected indices against `base`.
        unsafe {
            _mm256_mask_i32gather_ps::<4>(
                _mm256_setzero_ps(),
                base.as_ptr(),
                vidx,
                _mm256_castsi256_ps(mvec),
            )
        }
    }

    /// Conflict-free masked gather over `i32` elements.
    #[target_feature(enable = "avx2")]
    unsafe fn gather_i32_masked(base: &[i32], vidx: __m256i, mvec: __m256i) -> __m256i {
        // SAFETY: caller validated the selected indices against `base`.
        unsafe {
            _mm256_mask_i32gather_epi32::<4>(_mm256_setzero_si256(), base.as_ptr(), vidx, mvec)
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn loadu_i32(p: *const i32) -> __m256i {
        // SAFETY: caller guarantees 8 readable elements.
        unsafe { _mm256_loadu_si256(p.cast()) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn storeu_i32(p: *mut i32, v: __m256i) {
        // SAFETY: caller guarantees 8 writable elements.
        unsafe { _mm256_storeu_si256(p.cast(), v) }
    }

    /// Generates one fused whole-stream accumulation driver at 8 lanes.
    /// Same pipeline shape as the AVX-512 drivers — load → conflict-free
    /// subset → (rare) merge fold → gather-combine-commit — with the
    /// emulations described in the module docs standing in for
    /// `vpconflictd`, unsigned compare and scatter. Tails run as masked
    /// vectors (`vmaskmov` zero-fills), never scalar cleanup, so depth
    /// accounting matches the portable 8-lane driver exactly.
    macro_rules! avx2_accumulate {
        ($(#[$doc:meta])* $name:ident, f32, $identity:expr, $combine:expr, $vcombine:ident) => {
            avx2_accumulate!(
                @gen $(#[$doc])* $name, f32, $identity, $combine, $vcombine,
                _mm256_loadu_ps, _mm256_storeu_ps, _mm256_maskload_ps, gather_f32_masked,
                0.0f32
            );
        };
        ($(#[$doc:meta])* $name:ident, i32, $identity:expr, $combine:expr, $vcombine:ident) => {
            avx2_accumulate!(
                @gen $(#[$doc])* $name, i32, $identity, $combine, $vcombine,
                loadu_i32, storeu_i32, _mm256_maskload_epi32, gather_i32_masked,
                0i32
            );
        };
        (@gen $(#[$doc:meta])* $name:ident, $t:ty, $identity:expr, $combine:expr,
         $vcombine:ident, $loadu:ident, $storeu:ident, $maskload:ident, $gather:ident,
         $zero_elem:expr) => {
            $(#[$doc])*
            ///
            /// Records one depth-histogram bucket per vector in `depth`
            /// (`depth[d] += 1`, `d` ≤ 4) and returns the number of vector
            /// iterations executed (`⌈n / 8⌉`).
            ///
            /// # Safety
            ///
            /// Requires `avx2`; `idx.len() == vals.len()`;
            /// `target.len() <= i32::MAX`. Out-of-range (including
            /// negative) indices panic like the portable model, before any
            /// lane of the offending vector commits.
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(
                target: &mut [$t],
                idx: &[i32],
                vals: &[$t],
                depth: &mut [u64; 17],
            ) -> u64 {
                // SAFETY: masked loads/gathers only touch selected lanes;
                // the per-vector bounds check rejects any index the gather
                // and the scalar write-back must not see.
                unsafe {
                    let n = idx.len();
                    // Bias both compare operands by i32::MIN: signed > on
                    // biased values == unsigned <, so negative indices wrap
                    // above every valid length and fail.
                    let bias = _mm256_set1_epi32(i32::MIN);
                    let vlenb = _mm256_set1_epi32((target.len() as i32) ^ i32::MIN);
                    let mut vectors = 0u64;
                    let mut j = 0;
                    while j < n {
                        let rem = n - j;
                        let active: u32 = if rem >= 8 { 0xFF } else { (1u32 << rem) - 1 };
                        let (vidx, mut vval) = if rem >= 8 {
                            (
                                _mm256_loadu_si256(idx.as_ptr().add(j).cast()),
                                $loadu(vals.as_ptr().add(j)),
                            )
                        } else {
                            let am = mask_to_vec(active);
                            (
                                _mm256_maskload_epi32(idx.as_ptr().add(j), am),
                                $maskload(vals.as_ptr().add(j), am),
                            )
                        };
                        let mut ai = [0i32; 8];
                        _mm256_storeu_si256(ai.as_mut_ptr().cast(), vidx);
                        let inb =
                            movemask32(_mm256_cmpgt_epi32(vlenb, _mm256_xor_si256(vidx, bias)))
                                & active;
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
                        // iterations): fold straight from the source
                        // slices, identity-seeded, ascending — the portable
                        // order — patching results into a stack copy of the
                        // value vector.
                        let mut d = 0u32;
                        let mut todo = active & !mret;
                        if todo != 0 {
                            let mut buf = [$zero_elem; 8];
                            $storeu(buf.as_mut_ptr(), vval);
                            while todo != 0 {
                                d += 1;
                                let i = todo.trailing_zeros() as usize;
                                let mreduce = movemask32(_mm256_cmpeq_epi32(
                                    vidx,
                                    _mm256_set1_epi32(ai[i]),
                                )) & active;
                                let mut acc: $t = $identity;
                                let mut bits = mreduce;
                                while bits != 0 {
                                    let l = bits.trailing_zeros() as usize;
                                    acc = $combine(acc, *vals.as_ptr().add(j + l));
                                    bits &= bits - 1;
                                }
                                buf[mreduce.trailing_zeros() as usize] = acc;
                                todo &= !mreduce;
                            }
                            vval = $loadu(buf.as_ptr());
                        }
                        depth[d as usize] += 1;
                        // Conflict-free gather-combine commit; no scatter
                        // on AVX2, so the distinct selected lanes write
                        // back scalar.
                        let old = $gather(&*target, vidx, mask_to_vec(mret));
                        let new = $vcombine(old, vval);
                        let mut anew = [$zero_elem; 8];
                        $storeu(anew.as_mut_ptr(), new);
                        let mut bits = mret;
                        while bits != 0 {
                            let l = bits.trailing_zeros() as usize;
                            *target.get_unchecked_mut(ai[l] as usize) = anew[l];
                            bits &= bits - 1;
                        }
                        vectors += 1;
                        j += 8;
                    }
                    vectors
                }
            }
        };
    }

    avx2_accumulate!(
        /// Fused whole-stream `target[idx[j]] += vals[j]` (f32 sums).
        accumulate_add_f32,
        f32,
        0.0f32,
        |a: f32, b: f32| a + b,
        _mm256_add_ps
    );
    avx2_accumulate!(
        /// Fused whole-stream `target[idx[j]] = min(target[idx[j]], vals[j])`
        /// (f32): the SSSP-shaped reduction.
        accumulate_min_f32,
        f32,
        f32::INFINITY,
        f32::min,
        commit_min_f32
    );
    avx2_accumulate!(
        /// Fused whole-stream `target[idx[j]] = max(target[idx[j]], vals[j])`
        /// (f32): the SSWP-shaped reduction.
        accumulate_max_f32,
        f32,
        f32::NEG_INFINITY,
        f32::max,
        commit_max_f32
    );

    // `vminps`/`vmaxps` return their second operand when either is NaN.
    // With the slot value second, a NaN update leaves the slot unchanged,
    // as `f32::min`/`f32::max` (the portable model's commit) do.
    #[target_feature(enable = "avx2")]
    fn commit_min_f32(old: __m256, new: __m256) -> __m256 {
        _mm256_min_ps(new, old)
    }

    #[target_feature(enable = "avx2")]
    fn commit_max_f32(old: __m256, new: __m256) -> __m256 {
        _mm256_max_ps(new, old)
    }

    avx2_accumulate!(
        /// Fused whole-stream `target[idx[j]] += vals[j]` (wrapping i32).
        accumulate_add_i32,
        i32,
        0i32,
        |a: i32, b: i32| a.wrapping_add(b),
        _mm256_add_epi32
    );
    avx2_accumulate!(
        /// Fused whole-stream i32 minimum: the WCC-shaped reduction.
        accumulate_min_i32,
        i32,
        i32::MAX,
        |a: i32, b: i32| a.min(b),
        _mm256_min_epi32
    );
    avx2_accumulate!(
        /// Fused whole-stream i32 maximum.
        accumulate_max_i32,
        i32,
        i32::MIN,
        |a: i32, b: i32| a.max(b),
        _mm256_max_epi32
    );

    /// Eight-lane Algorithm 2 (aux-array realization, §3.4) over `f32`
    /// sums — this is the conflict-detection path that needs **no**
    /// `vpconflictd` at all: first occurrences stay in `data` for the
    /// caller to commit (returned mask), second occurrences accumulate into
    /// the `aux` shadow (pushing newly-touched indices onto `touched`), and
    /// only third-and-later occurrences run merge iterations.
    ///
    /// Returns the main-target conflict-free mask and `D2`.
    ///
    /// # Safety
    ///
    /// Requires `avx2`. `aux` writes are bounds-checked (panicking like the
    /// portable model on a bad index), so indices need no prior validation.
    #[target_feature(enable = "avx2")]
    pub unsafe fn alg2_add_f32(
        active: u8,
        idx: [i32; 8],
        data: &mut [f32; 8],
        aux: &mut [f32],
        touched: &mut Vec<i32>,
    ) -> (u8, u32) {
        // SAFETY: register-only intrinsics on caller-owned arrays; the aux
        // writes below use safe (checked) indexing.
        unsafe {
            let vidx = _mm256_loadu_si256(idx.as_ptr().cast());
            let act = u32::from(active);
            let mret1 = cfs_from_vec(act, vidx, &idx);
            let mret2 = cfs_from_vec(act & !mret1, vidx, &idx);
            let mut d2 = 0u32;
            // Lanes that are neither first nor second occurrence.
            let mut remaining = act & !mret1 & !mret2;
            while remaining != 0 {
                d2 += 1;
                let i = remaining.trailing_zeros() as usize;
                // Matching lanes minus the second-occurrence subset; the
                // group's first lane is its mret1 lane.
                let mreduce = movemask32(_mm256_cmpeq_epi32(vidx, _mm256_set1_epi32(idx[i])))
                    & (act & !mret2);
                let mut acc = 0.0f32;
                let mut bits = mreduce;
                while bits != 0 {
                    let l = bits.trailing_zeros() as usize;
                    acc += data[l];
                    bits &= bits - 1;
                }
                data[mreduce.trailing_zeros() as usize] = acc;
                remaining &= !mreduce;
            }
            // Route the second-occurrence subset into the shadow array,
            // ascending lanes like the portable model.
            let mut bits = mret2;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                let slot = &mut aux[idx[l] as usize];
                if *slot == 0.0 {
                    touched.push(idx[l]);
                }
                *slot += data[l];
                bits &= bits - 1;
            }
            (mret1 as u8, d2)
        }
    }

    /// Fused whole-stream f32 summation via **Algorithm 2** at 8 lanes;
    /// same contract as the AVX-512 driver (the caller folds `aux` into
    /// `target` afterwards in `touched` order).
    ///
    /// Records `depth[d2] += 1` per vector and returns the vector count.
    ///
    /// # Safety
    ///
    /// Requires `avx2`; `idx.len() == vals.len()`;
    /// `aux.len() == target.len()`; `target.len() <= i32::MAX`.
    /// Out-of-range (including negative) indices panic like the portable
    /// model, before any lane of the offending vector commits.
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_add_f32_alg2(
        target: &mut [f32],
        aux: &mut [f32],
        touched: &mut Vec<i32>,
        idx: &[i32],
        vals: &[f32],
        depth: &mut [u64; 17],
    ) -> u64 {
        // SAFETY: masked loads/gathers only touch selected lanes; the
        // per-vector bounds check rejects any index the gather and the
        // scalar write-back must not see.
        unsafe {
            let n = idx.len();
            let bias = _mm256_set1_epi32(i32::MIN);
            let vlenb = _mm256_set1_epi32((target.len() as i32) ^ i32::MIN);
            let mut vectors = 0u64;
            let mut j = 0;
            while j < n {
                let rem = n - j;
                let active: u32 = if rem >= 8 { 0xFF } else { (1u32 << rem) - 1 };
                let (vidx, vval) = if rem >= 8 {
                    (
                        _mm256_loadu_si256(idx.as_ptr().add(j).cast()),
                        _mm256_loadu_ps(vals.as_ptr().add(j)),
                    )
                } else {
                    let am = mask_to_vec(active);
                    (
                        _mm256_maskload_epi32(idx.as_ptr().add(j), am),
                        _mm256_maskload_ps(vals.as_ptr().add(j), am),
                    )
                };
                let mut ai = [0i32; 8];
                let mut av = [0.0f32; 8];
                _mm256_storeu_si256(ai.as_mut_ptr().cast(), vidx);
                _mm256_storeu_ps(av.as_mut_ptr(), vval);
                let inb =
                    movemask32(_mm256_cmpgt_epi32(vlenb, _mm256_xor_si256(vidx, bias))) & active;
                if inb != active {
                    let bad = (active & !inb).trailing_zeros() as usize;
                    panic!(
                        "gather/scatter index {} out of bounds for slice of length {}",
                        ai[bad],
                        target.len()
                    );
                }
                let (mret1, d2) = alg2_add_f32(active as u8, ai, &mut av, aux, touched);
                depth[d2 as usize] += 1;
                // Conflict-free commit of the first-occurrence subset:
                // gather-add, scalar write-back of the distinct lanes.
                let mret1 = u32::from(mret1);
                let vmerged = _mm256_loadu_ps(av.as_ptr());
                let old = gather_f32_masked(&*target, vidx, mask_to_vec(mret1));
                let new = _mm256_add_ps(old, vmerged);
                let mut anew = [0.0f32; 8];
                _mm256_storeu_ps(anew.as_mut_ptr(), new);
                let mut bits = mret1;
                while bits != 0 {
                    let l = bits.trailing_zeros() as usize;
                    *target.get_unchecked_mut(ai[l] as usize) = anew[l];
                    bits &= bits - 1;
                }
                vectors += 1;
                j += 8;
            }
            vectors
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub use imp::{
    accumulate_add_f32, accumulate_add_f32_alg2, accumulate_add_i32, accumulate_max_f32,
    accumulate_max_i32, accumulate_min_f32, accumulate_min_i32, alg2_add_f32,
    conflict_free_subset_u8,
};

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

        #[test]
        fn fused_drivers_match_scalar_reference() {
            if !available() {
                eprintln!("skipping: AVX2 not available on this host");
                return;
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0xA2D6);
            for _ in 0..300 {
                let n: usize = rng.gen_range(0..60);
                let idx: Vec<i32> = (0..n).map(|_| rng.gen_range(0..7)).collect();
                let vf: Vec<f32> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
                let vi: Vec<i32> = (0..n).map(|_| rng.gen_range(-100..100)).collect();
                let init_f: Vec<f32> = (0..7).map(|k| k as f32 - 3.0).collect();
                let init_i: Vec<i32> = (0..7).map(|k| k - 3).collect();

                macro_rules! check {
                    ($f:ident, $init:expr, $vals:expr, $fold:expr) => {{
                        let mut target = $init.clone();
                        let mut depth = [0u64; 17];
                        // SAFETY: lengths match, indices in range; guarded
                        // by `available()`.
                        let vectors = unsafe { $f(&mut target, &idx, &$vals, &mut depth) };
                        assert_eq!(vectors, n.div_ceil(8) as u64);
                        assert_eq!(depth.iter().sum::<u64>(), vectors);
                        let mut expect = $init.clone();
                        for (&i, &v) in idx.iter().zip(&$vals) {
                            let slot = &mut expect[i as usize];
                            *slot = $fold(*slot, v);
                        }
                        assert_eq!(target, expect, stringify!($f));
                    }};
                }
                check!(accumulate_min_f32, init_f, vf, f32::min);
                check!(accumulate_max_f32, init_f, vf, f32::max);
                check!(accumulate_add_i32, init_i, vi, |a: i32, b: i32| a.wrapping_add(b));
                check!(accumulate_min_i32, init_i, vi, |a: i32, b: i32| a.min(b));
                check!(accumulate_max_i32, init_i, vi, |a: i32, b: i32| a.max(b));
            }
        }

        #[test]
        fn fused_add_handles_masked_tails_and_depth() {
            if !available() {
                eprintln!("skipping: AVX2 not available on this host");
                return;
            }
            // 13 items: one full vector plus a 5-lane masked tail.
            let idx: Vec<i32> = (0..13).map(|i| i % 3).collect();
            let vals: Vec<f32> = (0..13).map(|i| i as f32).collect();
            let mut target = vec![0.0f32; 3];
            let mut depth = [0u64; 17];
            // SAFETY: lengths match, indices all in range; guarded above.
            let vectors = unsafe { accumulate_add_f32(&mut target, &idx, &vals, &mut depth) };
            assert_eq!(vectors, 2);
            assert_eq!(depth.iter().sum::<u64>(), 2);
            let mut expect = vec![0.0f32; 3];
            for (i, v) in idx.iter().zip(&vals) {
                expect[*i as usize] += v;
            }
            assert_eq!(target, expect);
        }

        #[test]
        #[should_panic(expected = "out of bounds")]
        fn fused_driver_panics_on_negative_index() {
            if !available() {
                // Can't exercise the panic without the ISA; fail the
                // should_panic the expected way.
                panic!("index -1 out of bounds for slice of length 0 (avx2 unavailable)");
            }
            let idx = vec![0, 1, -1, 2];
            let vals = vec![1.0f32; 4];
            let mut target = vec![0.0f32; 4];
            let mut depth = [0u64; 17];
            // SAFETY: guarded by `available()`; the bad index must panic
            // before any commit.
            unsafe { accumulate_add_f32(&mut target, &idx, &vals, &mut depth) };
        }

        #[test]
        fn alg2_splits_first_and_second_occurrences() {
            if !available() {
                eprintln!("skipping: AVX2 not available on this host");
                return;
            }
            // Two identical groups of four distinct lanes: zero merges.
            let idx: [i32; 8] = std::array::from_fn(|i| (i % 4) as i32);
            let mut data = [1.0f32; 8];
            let mut aux = vec![0.0f32; 4];
            let mut touched = Vec::new();
            // SAFETY: guarded by `available()`.
            let (mret1, d2) = unsafe { alg2_add_f32(0xFF, idx, &mut data, &mut aux, &mut touched) };
            assert_eq!(d2, 0);
            assert_eq!(mret1, 0x0F);
            assert_eq!(touched.len(), 4);
            assert_eq!(aux, vec![1.0; 4]);
        }
    }
}
