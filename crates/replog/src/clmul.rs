//! CRC-32 by carry-less multiplication: the PCLMULQDQ kernel behind
//! [`Crc32::update`](crate::Crc32::update) on x86-64.
//!
//! The method is Gopal et al., "Fast CRC Computation for Generic Polynomials
//! Using PCLMULQDQ Instruction" (Intel, 2009), in its bit-reflected form for
//! the IEEE polynomial `P(x)`. A 128-bit block that sits `d` bits before the
//! end of the data contributes its value times `x^d`, mod `P(x)`, to the CRC.
//! Two carry-less multiplies, one per 64-bit half against a precomputed
//! `x^k mod P(x)`, move a block `d` bits along without reducing it, onto a
//! later block it is XORed into. So the kernel
//!
//! 1. keeps four 128-bit accumulators and folds each across the next 64
//!    bytes, four independent multiply chains an iteration;
//! 2. folds the four into one, then that one across each remaining whole
//!    16-byte block;
//! 3. reduces the 128-bit remainder to 64 bits, then by a Barrett reduction
//!    to the 32-bit CRC register.
//!
//! Bytes after the last whole block go back to the table loop. The register
//! the kernel returns is the one the table loop computes over the same bytes,
//! bit for bit; the crate's tests compare the two, and a bit-at-a-time
//! reference, at every length up to 1 KiB and every alignment.

use std::arch::x86_64::*;

/// Shortest buffer [`Crc32::update`](crate::Crc32::update) hands the
/// kernel: two fold-by-4 blocks, so the four-chain loop always runs. The
/// kernel folds from 64 bytes and is faster than the table loop there too
/// (0.63–0.75 against 1.09–1.23 ns/byte at 64 bytes on an Intel Xeon KVM
/// guest), so the threshold could move down. On the durable path few
/// buffers fall between: seal frames are 15 bytes, a 512-update batch frame
/// 8 KiB, and slot images go through the CRC in 4 KiB chunks.
pub(crate) const MIN_LEN: usize = 128;

/// How far ahead of the fold-by-4 loop the next cache line is prefetched.
/// Out of cache the loop reads faster than the hardware prefetcher streams
/// memory in: on an Intel Xeon KVM guest, over five runs, a 64 MiB buffer
/// took 0.07–0.17 ns/byte without the prefetch and 0.05–0.09 with it, a
/// 4 MiB one 0.051–0.077 against 0.046–0.058; cache-resident buffers ran
/// the same.
const PREFETCH: usize = 4096;

// Each fold constant is `x^k mod P(x)`, bit-reflected and shifted left one
// place: the form a carry-less product of two reflected operands needs
// (Gopal et al.'s reflected-domain constants). A block's first (low) 64-bit
// half comes 64 bits before its second half in the data, so moving the block
// `d` bits along multiplies the first half by `x^(d+32)` and the second by
// `x^(d-32)`.

/// Fold across 64 bytes: `x^(4·128+32)` and `x^(4·128−32)` mod `P(x)`.
const FOLD_BY_4: (i64, i64) = (0x1_5444_2BD4, 0x1_C6E4_1596);
/// Fold across 16 bytes: `x^(128+32)` and `x^(128−32)` mod `P(x)`. The
/// second also folds the remainder's first half into its second.
const FOLD_BY_1: (i64, i64) = (0x1_7519_97D0, 0x0_CCAA_009E);
/// `x^64 mod P(x)`: folds the low 32 of the remaining 96 bits.
const FOLD_32: i64 = 0x1_63CD_6124;
/// `P(x)` itself, bit-reflected over its 33 coefficients.
const POLY: i64 = 0x1_DB71_0641;
/// Barrett's `μ = ⌊x^64 / P(x)⌋`, bit-reflected over its 33 coefficients.
const MU: i64 = 0x1_F701_1641;

/// Whether the running CPU has PCLMULQDQ; the kernel needs nothing else
/// beyond x86-64's baseline SSE2. `is_x86_feature_detected!` probes once
/// and caches the answer.
pub(crate) fn available() -> bool {
    std::is_x86_feature_detected!("pclmulqdq")
}

/// Folds the whole 16-byte blocks of `bytes` into the CRC register `state`
/// (the pre-inverted value [`Crc32`](crate::Crc32) keeps). Returns the new
/// register and the bytes after the last block, fewer than 16, for the
/// table loop. A buffer shorter than 64 bytes comes back untouched.
///
/// # Safety
///
/// The CPU supports PCLMULQDQ ([`available`]).
#[target_feature(enable = "pclmulqdq")]
pub(crate) unsafe fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
    let (blocks, rest) = bytes.as_chunks::<16>();
    let (quads, singles) = blocks.as_chunks::<4>();
    let Some((first, quads)) = quads.split_first() else {
        return (state, bytes);
    };
    let mut acc = [load(&first[0]), load(&first[1]), load(&first[2]), load(&first[3])];
    // The register enters as if XORed into the data's first 32 bits.
    acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));
    let by_4 = _mm_set_epi64x(FOLD_BY_4.1, FOLD_BY_4.0);
    for quad in quads {
        // A prefetch past the buffer's end is harmless: it never faults.
        _mm_prefetch::<_MM_HINT_T0>(quad.as_ptr().cast::<i8>().wrapping_add(PREFETCH));
        for (a, block) in acc.iter_mut().zip(quad) {
            *a = fold_into(load(block), *a, by_4);
        }
    }
    let by_1 = _mm_set_epi64x(FOLD_BY_1.1, FOLD_BY_1.0);
    let mut x = fold_into(acc[1], acc[0], by_1);
    x = fold_into(acc[2], x, by_1);
    x = fold_into(acc[3], x, by_1);
    for block in singles {
        x = fold_into(load(block), x, by_1);
    }
    (reduce(x, by_1), rest)
}

/// One block as a vector, byte 0 in the lowest lane.
#[inline]
fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is 16 readable bytes, and `loadu` takes any alignment.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// `next` XOR `x` moved the distance `d` that `k` encodes (low half times
/// `k`'s low constant, high half times its high one): 128 bits congruent to
/// `next + x·x^d` mod `P(x)`, not reduced.
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn fold_into(next: __m128i, x: __m128i, k: __m128i) -> __m128i {
    let low = _mm_clmulepi64_si128(x, k, 0x00);
    let high = _mm_clmulepi64_si128(x, k, 0x11);
    _mm_xor_si128(next, _mm_xor_si128(low, high))
}

/// The 32-bit CRC register of the 128-bit remainder `x`. `by_1` holds
/// [`FOLD_BY_1`].
#[target_feature(enable = "pclmulqdq")]
#[inline]
fn reduce(x: __m128i, by_1: __m128i) -> u32 {
    let low_32 = _mm_set_epi32(0, 0, 0, -1);
    // 128 → 96 bits: the first half moves 64 bits on, onto the second.
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, by_1, 0x10), _mm_srli_si128(x, 8));
    // 96 → 64 bits: the low 32 bits move on the same way.
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low_32), _mm_set_epi64x(0, FOLD_32), 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett: the quotient estimate `T1 = (x mod x^32)·μ`, then
    // `T2 = (T1 mod x^32)·P`; `x ⊕ T2` leaves the remainder in bits 32..64,
    // the upper half in the reflected domain.
    let poly_mu = _mm_set_epi64x(MU, POLY);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low_32), poly_mu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low_32), poly_mu, 0x00);
    _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x^k mod P(x)` in the fold constants' form: bit-reflected (so a
    /// multiply by `x` is a right shift), then shifted left one place.
    fn x_pow_mod_p(k: u32) -> i64 {
        let mut r = 0x8000_0000u32; // x^0
        for _ in 0..k {
            r = (r >> 1) ^ (0xEDB8_8320 & (r & 1).wrapping_neg());
        }
        i64::from(r) << 1
    }

    #[test]
    fn constants_are_the_powers_and_quotient_they_name() {
        assert_eq!(FOLD_BY_4, (x_pow_mod_p(4 * 128 + 32), x_pow_mod_p(4 * 128 - 32)));
        assert_eq!(FOLD_BY_1, (x_pow_mod_p(128 + 32), x_pow_mod_p(128 - 32)));
        assert_eq!(FOLD_32, x_pow_mod_p(64));
        // P(x) and μ = ⌊x^64 / P(x)⌋ (by long division), each reflected
        // over 33 coefficients.
        let p = 0x1_04C1_1DB7u64;
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for shift in (0..=32).rev() {
            if rem & (1 << (shift + 32)) != 0 {
                rem ^= u128::from(p) << shift;
                mu |= 1 << shift;
            }
        }
        let reflect_33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        assert_eq!((POLY, MU), (reflect_33(p), reflect_33(mu)));
    }
}
