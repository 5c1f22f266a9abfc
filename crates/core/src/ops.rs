//! Associative reduction operators.

#[cfg(target_arch = "x86_64")]
use invector_simd::arch::avx512;
use invector_simd::{Isa, SimdElement};

mod private {
    pub trait Sealed {}
    impl Sealed for super::Sum {}
    impl Sealed for super::Prod {}
    impl Sealed for super::Min {}
    impl Sealed for super::Max {}
    impl Sealed for super::BitOr {}
    impl Sealed for super::BitAnd {}
}

/// An associative binary operation over lane element `T`, with identity.
///
/// Associativity is what licenses in-vector reduction: partial sums computed
/// inside a SIMD vector can be folded in any order before reaching memory.
/// The trait is sealed — the operator set mirrors what the paper's
/// applications need (`invec_add`, `invec_min`, `invec_max`, plus a few more
/// for completeness), and each impl is unit-tested for the identity and
/// associativity laws.
///
/// Each impl also names the native drivers of its `(T, operator)` pair, if
/// it has any: `Sum`, `Min` and `Max` over `f32` and `i32` run on every
/// [`Isa`]'s fused stream driver and, on x86_64, on the per-vector AVX-512
/// Algorithm 1; `f32` `Sum` also has the multi-component and Algorithm-2
/// AVX-512 folds. The backend-dispatched drivers in [`accumulate`] and
/// [`invec`] call these, so the pair-to-driver mapping is resolved at
/// compile time; every other pair runs the portable model.
///
/// [`accumulate`]: crate::accumulate
/// [`invec`]: crate::invec
pub trait ReduceOp<T: SimdElement>: private::Sealed + Copy + Send + Sync + 'static {
    /// Human-readable operator name (for stats and harness output).
    const NAME: &'static str;

    /// The identity element: `combine(identity(), x) == x`.
    fn identity() -> T;

    /// The associative combiner.
    fn combine(a: T, b: T) -> T;

    /// Lane-wise vector combine — one SIMD instruction (`vaddps`,
    /// `vminps`, ...). The default implementation applies
    /// [`combine`](Self::combine) to each lane pair.
    #[inline]
    fn combine_vec<const N: usize>(
        a: invector_simd::SimdVec<T, N>,
        b: invector_simd::SimdVec<T, N>,
    ) -> invector_simd::SimdVec<T, N> {
        invector_simd::count::bump(1);
        let (a, b) = (a.as_array(), b.as_array());
        invector_simd::SimdVec::from_array(std::array::from_fn(|i| Self::combine(a[i], b[i])))
    }

    /// `I`'s fused whole-stream driver for this pair
    /// (`Isa::accumulate_{add,min,max}_{f32,i32}`): returns the vector
    /// count, or `None` when the pair has no driver.
    ///
    /// # Safety
    ///
    /// The driver's contract: `I::available()`, `idx.len() == vals.len()`
    /// and `target.len() <= i32::MAX`.
    #[doc(hidden)]
    #[inline(always)]
    unsafe fn isa_accumulate<I: Isa>(
        _target: &mut [T],
        _idx: &[i32],
        _vals: &[T],
        _depth: &mut [u64; 17],
    ) -> Option<u64> {
        None
    }

    /// The per-vector AVX-512 Algorithm 1 for this pair
    /// (`arch::avx512::invec_*`): the conflict-free mask and `D1`, or `None`
    /// when the pair has no such driver.
    ///
    /// # Safety
    ///
    /// The host must have AVX-512 (`arch::avx512::available()`).
    #[doc(hidden)]
    #[inline(always)]
    unsafe fn avx512_alg1(
        _active: u16,
        _idx: [i32; 16],
        _data: &mut [T; 16],
    ) -> Option<(u16, u32)> {
        None
    }

    /// [`avx512_alg1`](Self::avx512_alg1) over components sharing one
    /// index vector (`arch::avx512::invec_add_arr_f32`).
    ///
    /// # Safety
    ///
    /// As [`avx512_alg1`](Self::avx512_alg1).
    #[doc(hidden)]
    #[inline(always)]
    unsafe fn avx512_alg1_arr(
        _active: u16,
        _idx: [i32; 16],
        _comps: &mut [[T; 16]],
    ) -> Option<(u16, u32)> {
        None
    }

    /// The per-vector AVX-512 Algorithm 2 (`arch::avx512::alg2_add_f32`):
    /// the main-target mask and `D2`, or `None`.
    ///
    /// # Safety
    ///
    /// As [`avx512_alg1`](Self::avx512_alg1).
    #[doc(hidden)]
    #[inline(always)]
    unsafe fn avx512_alg2(
        _active: u16,
        _idx: [i32; 16],
        _data: &mut [T; 16],
        _aux: &mut [T],
        _touched: &mut Vec<i32>,
    ) -> Option<(u16, u32)> {
        None
    }
}

/// Addition (`invec_add`): the PageRank / aggregation reduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sum;

/// Multiplication.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Prod;

/// Minimum (`invec_min`): the SSSP / WCC relaxation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Min;

/// Maximum (`invec_max`): the SSWP relaxation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Max;

/// Bitwise OR (integers only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitOr;

/// Bitwise AND (integers only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitAnd;

/// The Algorithm-1 drivers of one `(T, operator)` pair: `I`'s fused stream
/// driver `$fused` and, on x86_64, the per-vector AVX-512 entry `$invec`.
/// Each method keeps the `# Safety` contract of its declaration in
/// [`ReduceOp`], which is the driver's own.
macro_rules! alg1_drivers {
    ($t:ty, $fused:ident, $invec:ident) => {
        #[inline(always)]
        unsafe fn isa_accumulate<I: Isa>(
            target: &mut [$t],
            idx: &[i32],
            vals: &[$t],
            depth: &mut [u64; 17],
        ) -> Option<u64> {
            // SAFETY: the caller keeps the driver's contract: `I` is
            // available, the lengths match, the target fits `i32` offsets.
            Some(unsafe { I::$fused(target, idx, vals, depth) })
        }
        #[cfg(target_arch = "x86_64")]
        #[inline(always)]
        unsafe fn avx512_alg1(
            active: u16,
            idx: [i32; 16],
            data: &mut [$t; 16],
        ) -> Option<(u16, u32)> {
            // SAFETY: the caller checked that the host has AVX-512.
            Some(unsafe { avx512::$invec(active, idx, data) })
        }
    };
}

/// The four numeric operators over `$t`. The optional `native:` groups
/// splice driver methods into the `Sum`, `Min` and `Max` impls.
macro_rules! impl_num_ops {
    ($t:ty, $zero:expr, $one:expr, $min_id:expr, $max_id:expr, $add:expr, $mul:expr
        $(, native: [$($sum:tt)*] [$($min:tt)*] [$($max:tt)*])?) => {
        impl ReduceOp<$t> for Sum {
            const NAME: &'static str = "add";
            #[inline(always)]
            fn identity() -> $t {
                $zero
            }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t {
                $add(a, b)
            }
            $($($sum)*)?
        }
        impl ReduceOp<$t> for Prod {
            const NAME: &'static str = "mul";
            #[inline(always)]
            fn identity() -> $t {
                $one
            }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t {
                $mul(a, b)
            }
        }
        impl ReduceOp<$t> for Min {
            const NAME: &'static str = "min";
            #[inline(always)]
            fn identity() -> $t {
                $min_id
            }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t {
                a.lane_min(b)
            }
            $($($min)*)?
        }
        impl ReduceOp<$t> for Max {
            const NAME: &'static str = "max";
            #[inline(always)]
            fn identity() -> $t {
                $max_id
            }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t {
                a.lane_max(b)
            }
            $($($max)*)?
        }
    };
}

impl_num_ops!(
    f32,
    0.0,
    1.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    |a: f32, b: f32| a + b,
    |a: f32, b: f32| a * b,
    native: [
        alg1_drivers!(f32, accumulate_add_f32, invec_add_f32);
        #[cfg(target_arch = "x86_64")]
        #[inline(always)]
        unsafe fn avx512_alg1_arr(
            active: u16,
            idx: [i32; 16],
            comps: &mut [[f32; 16]],
        ) -> Option<(u16, u32)> {
            // SAFETY: the caller checked that the host has AVX-512.
            Some(unsafe { avx512::invec_add_arr_f32(active, idx, comps) })
        }
        #[cfg(target_arch = "x86_64")]
        #[inline(always)]
        unsafe fn avx512_alg2(
            active: u16,
            idx: [i32; 16],
            data: &mut [f32; 16],
            aux: &mut [f32],
            touched: &mut Vec<i32>,
        ) -> Option<(u16, u32)> {
            // SAFETY: the caller checked that the host has AVX-512; the
            // driver bounds-checks its `aux` writes.
            Some(unsafe { avx512::alg2_add_f32(active, idx, data, aux, touched) })
        }
    ]
    [alg1_drivers!(f32, accumulate_min_f32, invec_min_f32);]
    [alg1_drivers!(f32, accumulate_max_f32, invec_max_f32);]
);
impl_num_ops!(
    i32,
    0,
    1,
    i32::MAX,
    i32::MIN,
    |a: i32, b: i32| a.wrapping_add(b),
    |a: i32, b: i32| a.wrapping_mul(b),
    native: [alg1_drivers!(i32, accumulate_add_i32, invec_add_i32);]
    [alg1_drivers!(i32, accumulate_min_i32, invec_min_i32);]
    [alg1_drivers!(i32, accumulate_max_i32, invec_max_i32);]
);
impl_num_ops!(
    u32,
    0,
    1,
    u32::MAX,
    u32::MIN,
    |a: u32, b: u32| a.wrapping_add(b),
    |a: u32, b: u32| a.wrapping_mul(b)
);

macro_rules! impl_bit_ops {
    ($t:ty) => {
        impl ReduceOp<$t> for BitOr {
            const NAME: &'static str = "or";
            #[inline(always)]
            fn identity() -> $t {
                0
            }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t {
                a | b
            }
        }
        impl ReduceOp<$t> for BitAnd {
            const NAME: &'static str = "and";
            #[inline(always)]
            fn identity() -> $t {
                !0
            }
            #[inline(always)]
            fn combine(a: $t, b: $t) -> $t {
                a & b
            }
        }
    };
}

impl_bit_ops!(i32);
impl_bit_ops!(u32);
impl_bit_ops!(i64);
impl_bit_ops!(u64);

impl_num_ops!(
    f64,
    0.0,
    1.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    |a: f64, b: f64| a + b,
    |a: f64, b: f64| a * b
);
impl_num_ops!(
    i64,
    0,
    1,
    i64::MAX,
    i64::MIN,
    |a: i64, b: i64| a.wrapping_add(b),
    |a: i64, b: i64| a.wrapping_mul(b)
);
impl_num_ops!(
    u64,
    0,
    1,
    u64::MAX,
    u64::MIN,
    |a: u64, b: u64| a.wrapping_add(b),
    |a: u64, b: u64| a.wrapping_mul(b)
);

#[cfg(test)]
mod tests {
    use super::*;

    fn check_laws<T: SimdElement, Op: ReduceOp<T>>(samples: &[T]) {
        for &x in samples {
            assert_eq!(Op::combine(Op::identity(), x), x, "{} left identity", Op::NAME);
            assert_eq!(Op::combine(x, Op::identity()), x, "{} right identity", Op::NAME);
        }
        for &a in samples {
            for &b in samples {
                for &c in samples {
                    assert_eq!(
                        Op::combine(Op::combine(a, b), c),
                        Op::combine(a, Op::combine(b, c)),
                        "{} associativity",
                        Op::NAME
                    );
                }
            }
        }
    }

    #[test]
    fn i32_operator_laws() {
        let samples = [-7i32, 0, 1, 3, i32::MAX, i32::MIN];
        check_laws::<i32, Sum>(&samples);
        check_laws::<i32, Prod>(&samples);
        check_laws::<i32, Min>(&samples);
        check_laws::<i32, Max>(&samples);
        check_laws::<i32, BitOr>(&samples);
        check_laws::<i32, BitAnd>(&samples);
    }

    #[test]
    fn u32_operator_laws() {
        let samples = [0u32, 1, 3, 0xFFFF_FFFF, 0x8000_0000];
        check_laws::<u32, Sum>(&samples);
        check_laws::<u32, Min>(&samples);
        check_laws::<u32, Max>(&samples);
        check_laws::<u32, BitOr>(&samples);
        check_laws::<u32, BitAnd>(&samples);
    }

    #[test]
    fn f32_identities_absorb() {
        // Exact associativity does not hold for float add; identity must.
        let samples = [-2.5f32, 0.0, 1.0, 1e10, -1e-10];
        for &x in &samples {
            assert_eq!(<Sum as ReduceOp<f32>>::combine(0.0, x), x);
            assert_eq!(<Min as ReduceOp<f32>>::combine(f32::INFINITY, x), x);
            assert_eq!(<Max as ReduceOp<f32>>::combine(f32::NEG_INFINITY, x), x);
            assert_eq!(<Prod as ReduceOp<f32>>::combine(1.0, x), x);
        }
    }

    #[test]
    fn min_max_pick_correct_extremes() {
        assert_eq!(<Min as ReduceOp<i32>>::combine(4, -9), -9);
        assert_eq!(<Max as ReduceOp<f32>>::combine(4.0, 9.5), 9.5);
    }
}
