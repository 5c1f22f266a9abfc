//! The AVX-512 backend: hardware `vpconflictd`, gather and scatter.
//!
//! When the host CPU supports `avx512f` + `avx512cd`, [`available`] returns
//! `true` and the backend-dispatch layer in `invector-core` routes every
//! kernel's hot loop through the real instructions
//! (`vpconflictd`, `vgatherdps`, `vscatterdps`) instead of the portable
//! software model. The portable model defines the semantics; this module
//! must agree with it **bit for bit** (see the differential tests at the
//! bottom of this file and in `tests/native_differential.rs`).
//!
//! The module supplies the lane vocabulary (`arch::lanes`): masked loads,
//! the unsigned bounds compare, `vpconflictd` + `vptestnmd` for the
//! conflict-free subset, masked gather and scatter. Algorithm 1 itself —
//! the stream driver, the merge-group walk and its identity-seeded
//! ascending fold — is the one the AVX2 backend runs too, instantiated here
//! inside each `#[target_feature]` entry. Bitwise parity with the portable
//! model follows from that fold; only the conflict detection, the loads
//! and the conflict-free gather-combine-scatter commit run as wide
//! instructions, which is where the time goes, because merge iterations
//! are rare (D1 ≈ 0 for graph workloads, §3.4).
//!
//! The raw free functions only exist on `x86_64`; the [`Avx512`] type and
//! its [`Isa`] impl exist everywhere, with `available()` a compile-time
//! `false` (and `unreachable!()` method stubs) on other architectures, so
//! the generic dispatch layer compiles on every target.
//!
//! All functions here are `unsafe`: callers must have validated lane indices
//! against the backing slice (for the functions that touch memory), and must
//! only call them when [`available`] reports support.

use std::sync::OnceLock;

use super::Isa;

/// Returns `true` when the running CPU supports the AVX-512 subset this
/// module needs (`avx512f` and `avx512cd`). The result is computed once and
/// cached.
#[inline]
pub fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> bool {
    std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512cd")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> bool {
    false
}

/// The 16-lane AVX-512 backend (`vpconflictd` conflict detection, hardware
/// gather/scatter). Zero-sized; see [`Isa`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Avx512;

/// Forwards one fused-driver trait method to the raw `imp` function of the
/// same name (or to an `unreachable!()` stub off x86_64).
macro_rules! avx512_isa_driver {
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
                unreachable!("avx512 backend is never available on this target")
            }
        }
    };
}

// SAFETY: the raw drivers below validate indices per vector before any
// masked gather/scatter, fold merge groups in the portable model's order,
// and are only reachable when `available()` observed avx512f+avx512cd.
unsafe impl Isa for Avx512 {
    const NAME: &'static str = "avx512";
    const LANES: usize = 16;
    const TAG: usize = crate::count::tag::AVX512;
    // loadidx + bounds-cmp + loadval + vpconflictd + broadcast + testn +
    // gather + combine + scatter + loop overhead — one instruction each.
    const MODEL_COST_PER_VECTOR: u64 = 10;

    #[inline]
    fn available() -> bool {
        available()
    }

    unsafe fn conflict_free_subset(active: u32, idx: &[i32]) -> u32 {
        debug_assert_eq!(idx.len(), Self::LANES);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: forwarded contract — caller checked `available()`.
        unsafe {
            let mut a = [0i32; 16];
            a.copy_from_slice(idx);
            u32::from(imp::conflict_free_subset_u16(active as u16, a))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (active, idx);
            unreachable!("avx512 backend is never available on this target")
        }
    }

    avx512_isa_driver!(accumulate_add_f32, f32);
    avx512_isa_driver!(accumulate_min_f32, f32);
    avx512_isa_driver!(accumulate_max_f32, f32);
    avx512_isa_driver!(accumulate_add_i32, i32);
    avx512_isa_driver!(accumulate_min_i32, i32);
    avx512_isa_driver!(accumulate_max_i32, i32);
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    use super::super::lanes::{self, alg1, first, fold, merge_groups, Add, Lanes, Values};
    use super::Avx512;
    use crate::records::{RecordVerdict, RECORD_LEN};

    /// Every lane of a 16-lane vector.
    const ALL: u32 = 0xFFFF;

    // SAFETY: `below` is one unsigned compare against the length, and
    // `conflict_free` is `vpconflictd` tested against the active lanes, so
    // both return exactly the lanes their contracts name.
    unsafe impl Lanes for Avx512 {
        type Idx = __m512i;

        #[inline(always)]
        unsafe fn load_idx(active: u32, src: *const i32) -> __m512i {
            // SAFETY: the masked load reads only the active lanes.
            unsafe { _mm512_maskz_loadu_epi32(active as u16, src.cast()) }
        }

        #[inline(always)]
        unsafe fn below(active: u32, idx: __m512i, len: usize) -> u32 {
            // SAFETY: register-only; the caller enabled the features.
            // Negative lanes wrap past `i32::MAX >= len` and fail too.
            unsafe {
                u32::from(_mm512_mask_cmplt_epu32_mask(
                    active as u16,
                    idx,
                    _mm512_set1_epi32(len as i32),
                ))
            }
        }

        #[inline(always)]
        unsafe fn conflict_free(active: u32, idx: __m512i) -> u32 {
            // SAFETY: register-only; the caller enabled the features. One
            // `testn` ((conflicts & active) == 0 per lane) replaces the
            // and + compare pair.
            unsafe {
                let conflicts = _mm512_conflict_epi32(idx);
                let act = _mm512_set1_epi32(active as i32);
                u32::from(_mm512_mask_testn_epi32_mask(active as u16, conflicts, act))
            }
        }

        #[inline(always)]
        unsafe fn equal(active: u32, idx: __m512i, key: i32) -> u32 {
            // SAFETY: register-only; the caller enabled the features.
            unsafe {
                u32::from(_mm512_mask_cmpeq_epi32_mask(active as u16, idx, _mm512_set1_epi32(key)))
            }
        }
    }

    /// Implements [`Values`] for one element type from its intrinsics.
    macro_rules! avx512_values {
        ($t:ty, $vec:ty, $load:ident, $mov:ident, $set1:ident, $zero:ident, $gather:ident,
         $add:ident, $min:ident, $max:ident, $scatter:ident) => {
            // SAFETY: every memory access is a masked load, gather or
            // scatter of the selected lanes only.
            unsafe impl Values<$t> for Avx512 {
                type Vec = $vec;

                #[inline(always)]
                unsafe fn load(active: u32, src: *const $t) -> $vec {
                    // SAFETY: the masked load reads only the active lanes.
                    unsafe { $load(active as u16, src.cast()) }
                }

                #[inline(always)]
                unsafe fn blend(v: $vec, lane: usize, x: $t) -> $vec {
                    // SAFETY: register-only; the caller enabled the features.
                    unsafe { $mov(v, 1 << lane, $set1(x)) }
                }

                #[inline(always)]
                unsafe fn gather(mask: u32, idx: __m512i, base: *const $t) -> $vec {
                    // SAFETY: the caller checked the selected indices.
                    unsafe { $gather::<4>($zero(), mask as u16, idx, base.cast()) }
                }

                #[inline(always)]
                unsafe fn add(a: $vec, b: $vec) -> $vec {
                    // SAFETY: register-only; the caller enabled the features.
                    unsafe { $add(a, b) }
                }

                #[inline(always)]
                unsafe fn min(a: $vec, b: $vec) -> $vec {
                    // SAFETY: register-only; the caller enabled the features.
                    unsafe { $min(a, b) }
                }

                #[inline(always)]
                unsafe fn max(a: $vec, b: $vec) -> $vec {
                    // SAFETY: register-only; the caller enabled the features.
                    unsafe { $max(a, b) }
                }

                #[inline(always)]
                unsafe fn commit(mask: u32, idx: __m512i, v: $vec, base: *mut $t) {
                    // SAFETY: the caller checked the selected indices and
                    // their distinctness.
                    unsafe { $scatter::<4>(base.cast(), mask as u16, idx, v) }
                }
            }
        };
    }

    avx512_values!(
        f32,
        __m512,
        _mm512_maskz_loadu_ps,
        _mm512_mask_mov_ps,
        _mm512_set1_ps,
        _mm512_setzero_ps,
        _mm512_mask_i32gather_ps,
        _mm512_add_ps,
        _mm512_min_ps,
        _mm512_max_ps,
        _mm512_mask_i32scatter_ps
    );
    avx512_values!(
        i32,
        __m512i,
        _mm512_maskz_loadu_epi32,
        _mm512_mask_mov_epi32,
        _mm512_set1_epi32,
        _mm512_setzero_si512,
        _mm512_mask_i32gather_epi32,
        _mm512_add_epi32,
        _mm512_min_epi32,
        _mm512_max_epi32,
        _mm512_mask_i32scatter_epi32
    );

    /// `vpconflictd`: for each lane `i`, a bitset of preceding lanes `j < i`
    /// holding the same 32-bit value.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` and `avx512cd` (check [`super::available`]).
    #[target_feature(enable = "avx512f,avx512cd")]
    pub unsafe fn conflict_i32(idx: [i32; 16]) -> [i32; 16] {
        // SAFETY: caller guarantees the required target features; loads and
        // stores go through unaligned intrinsics on locals we own.
        unsafe {
            let v = _mm512_loadu_si512(idx.as_ptr().cast());
            let c = _mm512_conflict_epi32(v);
            let mut out = [0i32; 16];
            _mm512_storeu_si512(out.as_mut_ptr().cast(), c);
            out
        }
    }

    /// Hardware gather of sixteen `f32` elements.
    ///
    /// # Safety
    ///
    /// Requires `avx512f`; every `idx[i]` must be in `0..base.len()`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gather_f32(base: &[f32], idx: [i32; 16]) -> [f32; 16] {
        // SAFETY: caller validated every index against `base.len()`.
        unsafe {
            let vidx = Avx512::load_idx(ALL, idx.as_ptr());
            let mut out = [0f32; 16];
            _mm512_storeu_ps(out.as_mut_ptr(), Avx512::gather(ALL, vidx, base.as_ptr()));
            out
        }
    }

    /// Hardware gather of sixteen `i32` elements.
    ///
    /// # Safety
    ///
    /// Requires `avx512f`; every `idx[i]` must be in `0..base.len()`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gather_i32(base: &[i32], idx: [i32; 16]) -> [i32; 16] {
        // SAFETY: caller validated every index against `base.len()`.
        unsafe {
            let vidx = Avx512::load_idx(ALL, idx.as_ptr());
            let mut out = [0i32; 16];
            _mm512_storeu_si512(out.as_mut_ptr().cast(), Avx512::gather(ALL, vidx, base.as_ptr()));
            out
        }
    }

    /// Hardware masked scatter of sixteen `f32` lanes: `base[idx[l]] =
    /// data[l]` for the selected lanes, which **must hold distinct indices**
    /// (e.g. a mask returned by [`invec_add_f32`]).
    ///
    /// # Safety
    ///
    /// Requires `avx512f`; every selected `idx[l]` must be in
    /// `0..base.len()` and the selected indices must be pairwise distinct.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn scatter_f32(mask: u16, base: &mut [f32], idx: [i32; 16], data: [f32; 16]) {
        // SAFETY: caller validated indices and distinctness.
        unsafe {
            let (vidx, v) = (Avx512::load_idx(ALL, idx.as_ptr()), Avx512::load(ALL, data.as_ptr()));
            Avx512::commit(u32::from(mask), vidx, v, base.as_mut_ptr());
        }
    }

    /// Hardware masked scatter of sixteen `i32` lanes; see [`scatter_f32`].
    ///
    /// # Safety
    ///
    /// Requires `avx512f`; every selected `idx[l]` must be in
    /// `0..base.len()` and the selected indices must be pairwise distinct.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn scatter_i32(mask: u16, base: &mut [i32], idx: [i32; 16], data: [i32; 16]) {
        // SAFETY: caller validated indices and distinctness.
        unsafe {
            let (vidx, v) = (Avx512::load_idx(ALL, idx.as_ptr()), Avx512::load(ALL, data.as_ptr()));
            Avx512::commit(u32::from(mask), vidx, v, base.as_mut_ptr());
        }
    }

    /// The paper's conflict-free-subset primitive, fully in hardware:
    /// `vpconflictd` + masked test against the broadcast active mask.
    /// Returns the mask of active lanes with no earlier active duplicate.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` and `avx512cd`.
    #[target_feature(enable = "avx512f,avx512cd")]
    pub unsafe fn conflict_free_subset_u16(active: u16, idx: [i32; 16]) -> u16 {
        // SAFETY: register-only intrinsics; loads from a local array.
        unsafe {
            let vidx = Avx512::load_idx(ALL, idx.as_ptr());
            Avx512::conflict_free(u32::from(active), vidx) as u16
        }
    }

    /// One per-vector Algorithm-1 entry for a (type, operator) pair, over
    /// the shared [`lanes::invec`].
    macro_rules! invec_entry {
        ($(#[$doc:meta])* $name:ident, $t:ty, $op:ident) => {
            $(#[$doc])*
            ///
            /// Conflict detection is `vpconflictd`; each (rare) merge
            /// iteration folds its group with the portable model's
            /// sequential identity-seeded ascending fold, so results are
            /// bitwise identical for **all** inputs, floats included.
            /// Returns the conflict-free mask and the number of merge
            /// iterations executed (`D1`), exactly like the portable
            /// `reduce_alg1`.
            ///
            /// # Safety
            ///
            /// Requires `avx512f` and `avx512cd`. No memory outside `data`
            /// is touched, so indices need no validation.
            #[target_feature(enable = "avx512f,avx512cd")]
            pub unsafe fn $name(active: u16, idx: [i32; 16], data: &mut [$t; 16]) -> (u16, u32) {
                // SAFETY: the features are enabled; both arrays hold 16 lanes.
                let (safe, d1) =
                    unsafe { lanes::invec::<Avx512, $t, lanes::$op>(u32::from(active), &idx, data) };
                (safe as u16, d1)
            }
        };
    }

    invec_entry!(
        /// Native Algorithm 1 with the **sum** operator over `f32` lanes
        /// (`invec_add`): the PageRank / aggregation fold.
        invec_add_f32,
        f32,
        Add
    );
    invec_entry!(
        /// Native Algorithm 1 with the **min** operator over `f32` lanes
        /// (`invec_min`): the SSSP relaxation fold.
        invec_min_f32,
        f32,
        Min
    );
    invec_entry!(
        /// Native Algorithm 1 with the **max** operator over `f32` lanes
        /// (`invec_max`): the SSWP relaxation fold.
        invec_max_f32,
        f32,
        Max
    );
    invec_entry!(
        /// Native Algorithm 1 with the **sum** operator over `i32` lanes
        /// (wrapping, like the portable `Sum` on `i32`).
        invec_add_i32,
        i32,
        Add
    );
    invec_entry!(
        /// Native Algorithm 1 with the **min** operator over `i32` lanes:
        /// the WCC label-propagation fold.
        invec_min_i32,
        i32,
        Min
    );
    invec_entry!(
        /// Native Algorithm 1 with the **max** operator over `i32` lanes.
        invec_max_i32,
        i32,
        Max
    );

    /// Native Algorithm 1 over `K` `f32` data vectors sharing one index
    /// vector (sum operator) — the multi-component fold Moldyn (3-D
    /// forces), Euler (4 flux components) and hash aggregation
    /// (count/sum/sumsq) run. One `vpconflictd` merge schedule serves every
    /// component, exactly like the portable `reduce_alg1_arr`.
    ///
    /// Returns the conflict-free mask and `D1`.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` and `avx512cd`. No memory outside `comps` is
    /// touched.
    #[target_feature(enable = "avx512f,avx512cd")]
    pub unsafe fn invec_add_arr_f32(
        active: u16,
        idx: [i32; 16],
        comps: &mut [[f32; 16]],
    ) -> (u16, u32) {
        // SAFETY: the features are enabled; `idx` holds 16 lanes.
        let (safe, d1) = unsafe {
            let vidx = Avx512::load_idx(ALL, idx.as_ptr());
            alg1::<Avx512>(u32::from(active), vidx, idx.as_ptr(), |group| {
                for comp in comps.iter_mut() {
                    comp[first(group)] = fold::<f32, Add>(group, |l| comp[l]);
                }
            })
        };
        (safe as u16, d1)
    }

    /// Algorithm 2's in-vector step (aux-array realization, §3.4) over the
    /// `f32` lanes in `data`, indexed by `vidx` (`keys[l]` is lane `l`'s
    /// index): first occurrences stay in `data` for the caller to commit
    /// (returned mask), second occurrences accumulate into the `aux`
    /// shadow (pushing newly-touched indices onto `touched`), and only
    /// third-and-later occurrences run merge iterations (returned `D2`).
    ///
    /// # Safety
    ///
    /// `avx512f` and `avx512cd` are enabled; `keys` holds the `active`
    /// lanes. `aux` writes are bounds-checked (panicking like the portable
    /// model on a bad index).
    #[inline(always)]
    unsafe fn alg2(
        active: u32,
        vidx: __m512i,
        keys: *const i32,
        data: &mut [f32; 16],
        aux: &mut [f32],
        touched: &mut Vec<i32>,
    ) -> (u32, u32) {
        // SAFETY: forwarded contract.
        unsafe {
            let first_occ = Avx512::conflict_free(active, vidx);
            let second_occ = Avx512::conflict_free(active & !first_occ, vidx);
            // Each group of the remaining lanes, minus the second
            // occurrences, folds into its first occurrence.
            let rest = active & !first_occ & !second_occ;
            let d2 = merge_groups::<Avx512>(rest, active & !second_occ, vidx, keys, |group| {
                data[first(group)] = fold::<f32, Add>(group, |l| data[l]);
            });
            // Route the second occurrences into the shadow array,
            // ascending lanes like the portable model.
            let mut bits = second_occ;
            while bits != 0 {
                let l = first(bits);
                let key = *keys.add(l);
                let slot = &mut aux[key as usize];
                if *slot == 0.0 {
                    touched.push(key);
                }
                *slot += data[l];
                bits &= bits - 1;
            }
            (first_occ, d2)
        }
    }

    /// Native Algorithm 2 (aux-array realization, §3.4) over `f32` sums:
    /// first occurrences stay in `data` for the caller to scatter (returned
    /// mask), second occurrences accumulate into the `aux` shadow (pushing
    /// newly-touched indices onto `touched`), and only third-and-later
    /// occurrences run merge iterations.
    ///
    /// Returns the main-target conflict-free mask and `D2`.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` and `avx512cd`. `aux` writes are bounds-checked
    /// (panicking like the portable model on a bad index), so indices need
    /// no prior validation.
    #[target_feature(enable = "avx512f,avx512cd")]
    pub unsafe fn alg2_add_f32(
        active: u16,
        idx: [i32; 16],
        data: &mut [f32; 16],
        aux: &mut [f32],
        touched: &mut Vec<i32>,
    ) -> (u16, u32) {
        // SAFETY: the features are enabled; `idx` holds 16 lanes.
        let (safe, d2) = unsafe {
            let vidx = Avx512::load_idx(ALL, idx.as_ptr());
            alg2(u32::from(active), vidx, idx.as_ptr(), data, aux, touched)
        };
        (safe as u16, d2)
    }

    /// One fused whole-stream Algorithm-1 entry for a (type, operator)
    /// pair: the shared [`lanes::accumulate`] compiled for AVX-512.
    macro_rules! accumulate_entry {
        ($(#[$doc:meta])* $name:ident, $t:ty, $op:ident) => {
            $(#[$doc])*
            ///
            /// The whole load → `vpconflictd` → in-vector-reduce →
            /// gather-combine-scatter pipeline stays inside this one
            /// `target_feature` function, so the loop lives in registers.
            /// A tail shorter than 16 lanes runs as one masked vector. Records
            /// one depth-histogram bucket per vector in `depth`
            /// (`depth[d] += 1`, `d` ≤ 8) and returns the number of vector
            /// iterations executed (`⌈n / 16⌉`).
            ///
            /// # Safety
            ///
            /// Requires `avx512f` + `avx512cd`; `idx.len() == vals.len()`;
            /// `target.len() <= i32::MAX`. Out-of-range (including negative)
            /// indices panic like the portable model, before any lane of
            /// the offending vector commits — one masked unsigned compare
            /// per vector validates all sixteen lanes, so callers need no
            /// scalar prevalidation pass.
            #[target_feature(enable = "avx512f,avx512cd")]
            pub unsafe fn $name(
                target: &mut [$t],
                idx: &[i32],
                vals: &[$t],
                depth: &mut [u64; 17],
            ) -> u64 {
                // SAFETY: the features are enabled; forwarded contract.
                unsafe { lanes::accumulate::<Avx512, $t, lanes::$op>(target, idx, vals, depth) }
            }
        };
    }

    accumulate_entry!(
        /// Fused whole-stream `target[idx[j]] += vals[j]` (f32 sums).
        accumulate_add_f32,
        f32,
        Add
    );
    accumulate_entry!(
        /// Fused whole-stream `target[idx[j]] = min(target[idx[j]], vals[j])`
        /// (f32): the SSSP-shaped reduction.
        accumulate_min_f32,
        f32,
        Min
    );
    accumulate_entry!(
        /// Fused whole-stream `target[idx[j]] = max(target[idx[j]], vals[j])`
        /// (f32): the SSWP-shaped reduction.
        accumulate_max_f32,
        f32,
        Max
    );
    accumulate_entry!(
        /// Fused whole-stream `target[idx[j]] += vals[j]` (wrapping i32).
        accumulate_add_i32,
        i32,
        Add
    );
    accumulate_entry!(
        /// Fused whole-stream i32 minimum: the WCC-shaped reduction.
        accumulate_min_i32,
        i32,
        Min
    );
    accumulate_entry!(
        /// Fused whole-stream i32 maximum.
        accumulate_max_i32,
        i32,
        Max
    );

    /// The record-admission kernel
    /// ([`records::split_records`](crate::records::split_records)) at 16
    /// records per iteration: four unaligned 64-byte loads, a
    /// `vpermt2d`/`vpermt2q` deinterleave into the key, value-bits and seq
    /// lanes, an unsigned key compare and a seq compare into masks, and
    /// two 64-byte column stores. A tail shorter than 16 records runs as
    /// one masked iteration: masked loads never touch bytes past the
    /// batch, masked stores never write past its last column element.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` (check [`super::available`]);
    /// `records.len() == 16 * keys.len()` and `bits.len() == keys.len()`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn split_records(
        records: &[u8],
        slots: u32,
        keys: &mut [MaybeUninit<i32>],
        bits: &mut [MaybeUninit<u32>],
    ) -> RecordVerdict {
        let n = keys.len();
        debug_assert!(records.len() == n * RECORD_LEN && bits.len() == n);
        let Some(first) = records.first_chunk::<8>() else {
            return RecordVerdict::CLEAN;
        };
        let first = u64::from_le_bytes(*first);
        // A 64-byte load holds four records as 32-bit lanes
        // `[seq_lo, seq_hi, idx, bits]`, or as 64-bit lanes `[seq, idx|bits]`.
        // Keys, then bits, of two loads (lane 16+ names the second operand):
        let key_bits =
            _mm512_setr_epi32(2, 6, 10, 14, 18, 22, 26, 30, 3, 7, 11, 15, 19, 23, 27, 31);
        let low_halves = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23);
        let high_halves =
            _mm512_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 28, 29, 30, 31);
        // Seqs of two loads (lane 8+ names the second operand).
        let seqs = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        let vslots = _mm512_set1_epi32(slots as i32);
        let sixteen = _mm512_set1_epi64(16);
        let mut expect_lo = _mm512_add_epi64(
            _mm512_set1_epi64(first as i64),
            _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let mut expect_hi = _mm512_add_epi64(expect_lo, _mm512_set1_epi64(8));
        let (mut bad_keys, mut bad_seqs) = (0u16, 0u8);
        let src = records.as_ptr();
        let mut j = 0;
        while j < n {
            let rem = n - j;
            let at = src.wrapping_add(j * RECORD_LEN);
            // SAFETY: records `j..j + min(rem, 16)` lie inside `records`.
            // A full block reads its 256 bytes with plain unaligned loads;
            // a tail reads each load's records under a lane mask (four
            // lanes per record), so no byte past the batch is touched, and
            // the pointer of a load with no records left is never
            // dereferenced.
            let (active, [a, b, c, d]) = unsafe {
                if rem >= 16 {
                    (u16::MAX, [0, 1, 2, 3].map(|v| _mm512_loadu_si512(at.add(64 * v).cast())))
                } else {
                    let lanes = |v: usize| {
                        let held = rem.saturating_sub(4 * v).min(4);
                        ((1u32 << (4 * held)) - 1) as u16
                    };
                    let load = |v: usize| {
                        _mm512_maskz_loadu_epi32(lanes(v), at.wrapping_add(64 * v).cast())
                    };
                    (((1u32 << rem) - 1) as u16, [load(0), load(1), load(2), load(3)])
                }
            };
            let kb_ab = _mm512_permutex2var_epi32(a, key_bits, b);
            let kb_cd = _mm512_permutex2var_epi32(c, key_bits, d);
            let vkeys = _mm512_permutex2var_epi32(kb_ab, low_halves, kb_cd);
            let vbits = _mm512_permutex2var_epi32(kb_ab, high_halves, kb_cd);
            let seq_ab = _mm512_permutex2var_epi64(a, seqs, b);
            let seq_cd = _mm512_permutex2var_epi64(c, seqs, d);
            bad_keys |= _mm512_mask_cmpge_epu32_mask(active, vkeys, vslots);
            bad_seqs |= _mm512_mask_cmpneq_epu64_mask(active as u8, seq_ab, expect_lo)
                | _mm512_mask_cmpneq_epu64_mask((active >> 8) as u8, seq_cd, expect_hi);
            // SAFETY: `j < n`, and the mask selects only the `min(rem, 16)`
            // column elements `j..` that exist.
            unsafe {
                _mm512_mask_storeu_epi32(keys.as_mut_ptr().add(j).cast(), active, vkeys);
                _mm512_mask_storeu_epi32(bits.as_mut_ptr().add(j).cast(), active, vbits);
            }
            expect_lo = _mm512_add_epi64(expect_lo, sixteen);
            expect_hi = _mm512_add_epi64(expect_hi, sixteen);
            j += 16;
        }
        RecordVerdict { in_range: bad_keys == 0, contiguous: bad_seqs == 0 }
    }
}

#[cfg(target_arch = "x86_64")]
pub use imp::{
    accumulate_add_f32, accumulate_add_i32, accumulate_max_f32, accumulate_max_i32,
    accumulate_min_f32, accumulate_min_i32, alg2_add_f32, conflict_free_subset_u16, conflict_i32,
    gather_f32, gather_i32, invec_add_arr_f32, invec_add_f32, invec_add_i32, invec_max_f32,
    invec_max_i32, invec_min_f32, invec_min_i32, scatter_f32, scatter_i32, split_records,
};

#[cfg(test)]
mod tests {
    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn native_backend_contract_off_x86_64() {
        // On non-x86 targets the raw entry points are compiled out and
        // availability must be a hard false so the dispatch layer can never
        // reach an AVX-512 path.
        assert!(!super::available());
    }

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use super::super::*;
        use rand::{Rng, SeedableRng};

        fn reference_conflict(idx: [i32; 16]) -> [i32; 16] {
            std::array::from_fn(|i| {
                let mut bits = 0i32;
                for j in 0..i {
                    if idx[j] == idx[i] {
                        bits |= 1 << j;
                    }
                }
                bits
            })
        }

        /// Portable conflict-free subset: active lanes with no earlier
        /// active duplicate.
        fn reference_cfs(active: u16, idx: [i32; 16]) -> u16 {
            let mut m = 0u16;
            for i in 0..16 {
                let act = active & (1 << i) != 0;
                let first = (0..i).all(|j| active & (1 << j) == 0 || idx[j] != idx[i]);
                if act && first {
                    m |= 1 << i;
                }
            }
            m
        }

        /// The portable model's sequential fold for one lane's group.
        fn reference_fold<T: Copy>(
            active: u16,
            idx: [i32; 16],
            data: [T; 16],
            lane: usize,
            identity: T,
            combine: impl Fn(T, T) -> T,
        ) -> T {
            let mut acc = identity;
            for l in 0..16 {
                if active & (1 << l) != 0 && idx[l] == idx[lane] {
                    acc = combine(acc, data[l]);
                }
            }
            acc
        }

        #[test]
        fn native_conflict_matches_reference_when_available() {
            if !available() {
                eprintln!("skipping: AVX-512 not available on this host");
                return;
            }
            let cases: [[i32; 16]; 4] = [
                std::array::from_fn(|i| i as i32),
                [7; 16],
                std::array::from_fn(|i| (i % 3) as i32),
                std::array::from_fn(|i| if i % 2 == 0 { -5 } else { i as i32 }),
            ];
            for idx in cases {
                // SAFETY: guarded by `available()`.
                let native = unsafe { conflict_i32(idx) };
                assert_eq!(native, reference_conflict(idx), "input {idx:?}");
            }
        }

        #[test]
        fn native_invec_add_matches_portable_model_bitwise() {
            if !available() {
                eprintln!("skipping: AVX-512 not available on this host");
                return;
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0xA1601);
            for _ in 0..500 {
                let idx: [i32; 16] = std::array::from_fn(|_| rng.gen_range(0..6));
                // Arbitrary floats: the sequential-fold merge makes the
                // native path bitwise identical, not merely close.
                let data: [f32; 16] = std::array::from_fn(|_| rng.gen_range(-100.0..100.0));
                let active: u16 = rng.gen();

                let mut native_data = data;
                // SAFETY: guarded by `available()`.
                let (native_mask, d1) = unsafe { invec_add_f32(active, idx, &mut native_data) };

                assert_eq!(
                    native_mask,
                    reference_cfs(active, idx),
                    "mask for idx {idx:?} active {active:#06x}"
                );
                // D1 = number of index groups with 2+ active lanes.
                let groups = (0..16)
                    .filter(|&i| active & (1 << i) != 0)
                    .filter(|&i| {
                        (0..16).filter(|&l| active & (1 << l) != 0 && idx[l] == idx[i]).count() > 1
                    })
                    .map(|i| idx[i])
                    .collect::<std::collections::HashSet<_>>();
                assert_eq!(d1 as usize, groups.len(), "D1 for idx {idx:?}");
                for (lane, got) in native_data.iter().enumerate() {
                    if native_mask & (1 << lane) != 0 {
                        let expect = reference_fold(active, idx, data, lane, 0.0f32, |a, b| a + b);
                        assert_eq!(got.to_bits(), expect.to_bits(), "lane {lane} idx {idx:?}");
                    }
                }
            }
        }

        #[test]
        fn native_invec_min_max_match_scalar_reference() {
            if !available() {
                eprintln!("skipping: AVX-512 not available on this host");
                return;
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0xA1602);
            for _ in 0..300 {
                let idx: [i32; 16] = std::array::from_fn(|_| rng.gen_range(0..5));
                let data: [f32; 16] = std::array::from_fn(|_| rng.gen_range(-100.0..100.0));
                let active: u16 = rng.gen::<u16>() | 1; // keep at least one lane

                for minimize in [true, false] {
                    let mut out = data;
                    // SAFETY: guarded by `available()`.
                    let (mask, _) = unsafe {
                        if minimize {
                            invec_min_f32(active, idx, &mut out)
                        } else {
                            invec_max_f32(active, idx, &mut out)
                        }
                    };
                    for (lane, got) in out.iter().enumerate() {
                        if mask & (1 << lane) != 0 {
                            let expect = if minimize {
                                reference_fold(active, idx, data, lane, f32::INFINITY, f32::min)
                            } else {
                                reference_fold(active, idx, data, lane, f32::NEG_INFINITY, f32::max)
                            };
                            assert_eq!(*got, expect, "lane {lane} minimize={minimize}");
                        }
                    }
                }
            }
        }

        #[test]
        fn native_invec_i32_variants_match_scalar_reference() {
            if !available() {
                eprintln!("skipping: AVX-512 not available on this host");
                return;
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0xA1603);
            for _ in 0..300 {
                let idx: [i32; 16] = std::array::from_fn(|_| rng.gen_range(-2..5));
                let data: [i32; 16] = std::array::from_fn(|_| rng.gen_range(i32::MIN..i32::MAX));
                let active: u16 = rng.gen();

                let mut add = data;
                let mut min = data;
                let mut max = data;
                // SAFETY: guarded by `available()`.
                let (m_add, _) = unsafe { invec_add_i32(active, idx, &mut add) };
                let (m_min, _) = unsafe { invec_min_i32(active, idx, &mut min) };
                let (m_max, _) = unsafe { invec_max_i32(active, idx, &mut max) };
                let expect_mask = reference_cfs(active, idx);
                assert_eq!(m_add, expect_mask);
                assert_eq!(m_min, expect_mask);
                assert_eq!(m_max, expect_mask);
                for lane in 0..16 {
                    if expect_mask & (1 << lane) != 0 {
                        assert_eq!(
                            add[lane],
                            reference_fold(active, idx, data, lane, 0i32, |a, b| a.wrapping_add(b))
                        );
                        assert_eq!(
                            min[lane],
                            reference_fold(active, idx, data, lane, i32::MAX, |a, b| a.min(b))
                        );
                        assert_eq!(
                            max[lane],
                            reference_fold(active, idx, data, lane, i32::MIN, |a, b| a.max(b))
                        );
                    }
                }
            }
        }

        #[test]
        fn native_conflict_free_subset_matches_portable() {
            if !available() {
                eprintln!("skipping: AVX-512 not available on this host");
                return;
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0xC0DE);
            for _ in 0..500 {
                let idx: [i32; 16] = std::array::from_fn(|_| rng.gen_range(-3..5));
                let active: u16 = rng.gen();
                // SAFETY: guarded by `available()`.
                let native = unsafe { conflict_free_subset_u16(active, idx) };
                assert_eq!(native, reference_cfs(active, idx), "idx {idx:?} active {active:#06x}");
            }
        }

        #[test]
        fn isa_trait_subset_matches_raw_entry_point() {
            use crate::arch::Isa;
            if !available() {
                eprintln!("skipping: AVX-512 not available on this host");
                return;
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0x15A);
            for _ in 0..200 {
                let idx: [i32; 16] = std::array::from_fn(|_| rng.gen_range(-3..5));
                let active: u16 = rng.gen();
                // SAFETY: guarded by `available()`.
                let raw = unsafe { conflict_free_subset_u16(active, idx) };
                // SAFETY: guarded by `available()`.
                let via_trait = unsafe { Avx512::conflict_free_subset(u32::from(active), &idx) };
                assert_eq!(u32::from(raw), via_trait);
            }
        }

        #[test]
        fn native_arr_fold_matches_per_component_single_folds() {
            if !available() {
                eprintln!("skipping: AVX-512 not available on this host");
                return;
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0xA1604);
            for _ in 0..200 {
                let idx: [i32; 16] = std::array::from_fn(|_| rng.gen_range(0..4));
                let active: u16 = rng.gen();
                let comps: [[f32; 16]; 3] =
                    std::array::from_fn(|_| std::array::from_fn(|_| rng.gen_range(-50.0..50.0)));
                let mut arr = comps;
                // SAFETY: guarded by `available()`.
                let (m_arr, d_arr) = unsafe { invec_add_arr_f32(active, idx, &mut arr) };
                for (c, comp) in comps.iter().enumerate() {
                    let mut single = *comp;
                    // SAFETY: guarded by `available()`.
                    let (m, d) = unsafe { invec_add_f32(active, idx, &mut single) };
                    assert_eq!(m, m_arr);
                    assert_eq!(d, d_arr);
                    for lane in 0..16 {
                        if m & (1 << lane) != 0 {
                            assert_eq!(
                                arr[c][lane].to_bits(),
                                single[lane].to_bits(),
                                "component {c} lane {lane}"
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn native_alg2_splits_first_and_second_occurrences() {
            if !available() {
                eprintln!("skipping: AVX-512 not available on this host");
                return;
            }
            // Two identical groups of eight distinct lanes: the §3.4
            // extreme case needs zero merge iterations.
            let idx: [i32; 16] = std::array::from_fn(|i| (i % 8) as i32);
            let mut data = [1.0f32; 16];
            let mut aux = vec![0.0f32; 8];
            let mut touched = Vec::new();
            // SAFETY: guarded by `available()`.
            let (mret1, d2) =
                unsafe { alg2_add_f32(0xFFFF, idx, &mut data, &mut aux, &mut touched) };
            assert_eq!(d2, 0);
            assert_eq!(mret1, 0x00FF);
            assert_eq!(touched.len(), 8);
            assert_eq!(aux, vec![1.0; 8]);
        }

        #[test]
        fn native_plain_scatters_write_selected_lanes_only() {
            if !available() {
                eprintln!("skipping: AVX-512 not available on this host");
                return;
            }
            let mut base_f = vec![-1.0f32; 20];
            let mut base_i = vec![-1i32; 20];
            let idx: [i32; 16] = std::array::from_fn(|i| i as i32);
            let df: [f32; 16] = std::array::from_fn(|i| i as f32);
            let di: [i32; 16] = std::array::from_fn(|i| i as i32 * 10);
            // SAFETY: indices in range and distinct; guarded above.
            unsafe { scatter_f32(0x000F, &mut base_f, idx, df) };
            unsafe { scatter_i32(0x000F, &mut base_i, idx, di) };
            assert_eq!(&base_f[..5], &[0.0, 1.0, 2.0, 3.0, -1.0]);
            assert_eq!(&base_i[..5], &[0, 10, 20, 30, -1]);
        }

        #[test]
        fn native_gathers_match_scalar_when_available() {
            if !available() {
                eprintln!("skipping: AVX-512 not available on this host");
                return;
            }
            let base_f: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
            let base_i: Vec<i32> = (0..64).map(|i| i * 3).collect();
            let idx: [i32; 16] = std::array::from_fn(|i| ((i * 37) % 64) as i32);
            // SAFETY: all indices in range; guarded by `available()`.
            let gf = unsafe { gather_f32(&base_f, idx) };
            let gi = unsafe { gather_i32(&base_i, idx) };
            for lane in 0..16 {
                assert_eq!(gf[lane], base_f[idx[lane] as usize]);
                assert_eq!(gi[lane], base_i[idx[lane] as usize]);
            }
        }
    }
}
