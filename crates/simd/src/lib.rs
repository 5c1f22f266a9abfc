//! `invector-simd` — a software model of the AVX-512 subset used by
//! conflict-free vectorization of irregular reductions.
//!
//! The crate provides fixed-width SIMD vectors ([`SimdVec`]), AVX-512-style
//! write masks ([`Mask`]), the memory primitives irregular applications rely
//! on (gather, scatter and their masked variants, compress/expand), the
//! conflict-detection instruction family (`vpconflictd`, exposed as
//! [`conflict_detect`]) and masked horizontal reductions.
//!
//! Two execution paths exist behind a single API:
//!
//! * a **portable model** written in plain Rust, which defines the reference
//!   semantics and runs on any target, and
//! * **native backends** ([`arch`]) that execute the hot primitives with
//!   real SIMD instructions — AVX-512 (`_mm512_conflict_epi32`, hardware
//!   gather/scatter), AVX2 and NEON behind one [`Isa`] trait — when the
//!   host CPU supports them. Each is differential-tested against the
//!   portable model.
//!
//! Every emulated operation is accounted as one SIMD instruction by the
//! [`count`] module, so analytic cost claims (e.g. "Algorithm 1 takes
//! `2 + 8·D1` instructions") can be measured rather than assumed.
//!
//! # Example
//!
//! ```
//! use invector_simd::{I32x16, Mask16, conflict_free_subset};
//!
//! // Indices with duplicates: lanes 0 and 2 both target element 7.
//! let mut idx = [1i32; 16];
//! idx[0] = 7;
//! idx[2] = 7;
//! let idx = I32x16::from_array(idx);
//! let safe = conflict_free_subset(Mask16::all(), idx);
//! // Lane 2 conflicts with lane 0, so it drops out of the safe subset.
//! assert!(safe.test(0) && !safe.test(2));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arch;
pub mod count;
mod element;
mod mask;
pub mod trace;
mod vector;

mod conflict;

pub use arch::{Avx2, Avx512, Isa, Neon};
pub use conflict::{conflict_detect, conflict_free_subset, has_conflicts};
pub use element::SimdElement;
pub use mask::Mask;
pub use vector::SimdVec;

/// The number of 32-bit lanes in one AVX-512 vector — the width the paper's
/// evaluation (and this crate's aliases) are built around.
pub const LANES: usize = 16;

/// The number of 64-bit lanes in one AVX-512 vector.
pub const LANES64: usize = 8;

/// A 16-lane vector of `i32` (an AVX-512 `__m512i` holding epi32 elements).
pub type I32x16 = SimdVec<i32, LANES>;
/// A 16-lane vector of `u32`.
pub type U32x16 = SimdVec<u32, LANES>;
/// A 16-lane vector of `f32` (an AVX-512 `__m512`).
pub type F32x16 = SimdVec<f32, LANES>;
/// A 16-bit write mask (an AVX-512 `__mmask16`).
pub type Mask16 = Mask<LANES>;

/// An 8-lane vector of `i64` (an AVX-512 `__m512i` holding epi64 elements).
pub type I64x8 = SimdVec<i64, LANES64>;
/// An 8-lane vector of `u64`.
pub type U64x8 = SimdVec<u64, LANES64>;
/// An 8-lane vector of `f64` (an AVX-512 `__m512d`).
pub type F64x8 = SimdVec<f64, LANES64>;
/// An 8-lane vector of `i32` indices, as used by `vgatherdpd`-style mixed
/// 32-bit-index / 64-bit-data accesses.
pub type I32x8 = SimdVec<i32, LANES64>;
/// An 8-bit write mask (an AVX-512 `__mmask8`).
pub type Mask8 = Mask<LANES64>;
