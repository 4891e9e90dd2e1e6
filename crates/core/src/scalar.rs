//! Generic scalar abstraction — the Rust analog of the paper's
//! `LA_PRECISION` module plus Fortran generic resolution.
//!
//! LAPACK90's central point is that one generic name (`LA_GESV`) covers the
//! four Fortran instantiations `S`, `D`, `C`, `Z`. Here a single generic
//! function `gesv<T: Scalar>` covers the same four instantiations
//! `f32`, `f64`, `Complex<f32>`, `Complex<f64>`; monomorphisation performs
//! the resolution the Fortran compiler performed from interface blocks.
//!
//! [`RealScalar`] corresponds to `REAL(WP)` (with `WP => SP | DP`) and also
//! provides the machine parameters LAPACK obtains from `xLAMCH`.

use core::fmt::{Debug, Display};
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::complex::Complex;

/// An element type usable in every generic BLAS/LAPACK routine:
/// `f32`, `f64`, `Complex<f32>` or `Complex<f64>`.
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// The associated real type (`Self` for real scalars).
    type Real: RealScalar;

    /// `true` for the complex instantiations (`C`/`Z`), `false` for `S`/`D`.
    const IS_COMPLEX: bool;

    /// Single-letter LAPACK type prefix: `S`, `D`, `C` or `Z`.
    const PREFIX: char;

    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Embeds a real value.
    fn from_real(re: Self::Real) -> Self;
    /// Builds from real and imaginary parts; the imaginary part is dropped
    /// for real types (mirrors Fortran `CMPLX`/`REAL` conversions).
    fn from_re_im(re: Self::Real, im: Self::Real) -> Self;
    /// Converts from `f64` (rounding for `f32`-based types).
    fn from_f64(x: f64) -> Self;
    /// Real part.
    fn re(self) -> Self::Real;
    /// Imaginary part (zero for real types).
    fn im(self) -> Self::Real;
    /// Complex conjugate (identity for real types).
    fn conj(self) -> Self;
    /// Modulus `|x|`.
    fn abs(self) -> Self::Real;
    /// The cheap modulus `|re| + |im|` (LAPACK `CABS1`); `|x|` for reals.
    fn abs1(self) -> Self::Real;
    /// Squared modulus.
    fn abs_sqr(self) -> Self::Real;
    /// Multiplies by a real scalar.
    fn mul_real(self, r: Self::Real) -> Self;
    /// Divides by a real scalar.
    fn div_real(self, r: Self::Real) -> Self;
    /// Robust reciprocal (`xLADIV` for complex).
    fn recip(self) -> Self;
    /// Square root (principal branch for complex).
    fn sqrt(self) -> Self;
    /// Exact test against zero.
    #[inline(always)]
    fn is_zero(self) -> bool {
        self == Self::zero()
    }
    /// True when all parts are finite.
    fn is_finite(self) -> bool;
    /// True when any part is NaN.
    fn is_nan(self) -> bool;

    /// Machine epsilon of the associated real type (`xLAMCH('E')`).
    #[inline(always)]
    fn eps() -> Self::Real {
        Self::Real::EPS
    }
}

/// A real scalar (`f32` or `f64`), also providing the machine parameters
/// LAPACK reads through `xLAMCH`.
pub trait RealScalar: Scalar<Real = Self> + PartialOrd {
    /// Relative machine epsilon, `xLAMCH('E')` (ulp of 1.0).
    const EPS: Self;

    /// Safe minimum: smallest positive number whose reciprocal does not
    /// overflow (`xLAMCH('S')`). For IEEE types this is the smallest
    /// positive normal.
    fn sfmin() -> Self;
    /// Underflow threshold (`xLAMCH('U')`), smallest positive normal.
    fn rmin() -> Self;
    /// Overflow threshold (`xLAMCH('O')`), largest finite value.
    fn rmax() -> Self;
    /// `sfmin / eps`: the scaled small number used by the LAPACK drivers
    /// when guarding against over/underflow (`SMLNUM` in e.g. `xGEEV`).
    #[inline]
    fn smlnum() -> Self {
        Self::sfmin() / Self::EPS
    }
    /// `1 / smlnum` (`BIGNUM`).
    #[inline]
    fn bignum() -> Self {
        Self::one() / Self::smlnum()
    }

    /// Absolute value. Named `rabs` to avoid shadowing the inherent method.
    fn rabs(self) -> Self;
    /// Square root. Named `sqrt_r` to avoid shadowing the inherent method
    /// (and, since the rename, to avoid any confusion with [`rsqrt`]).
    ///
    /// History note: this method used to be called `rsqrt` while computing
    /// a plain square root — a naming trap where a caller wanting
    /// reciprocal-sqrt silently got sqrt. The plain square root is now
    /// `sqrt_r` (matching the `sin_r`/`cos_r`/`round_r` convention) and
    /// [`rsqrt`] really is `1/√x`.
    ///
    /// [`rsqrt`]: RealScalar::rsqrt
    fn sqrt_r(self) -> Self;
    /// Reciprocal square root, `1/√x`. Unlike the historic mis-named
    /// method (see [`sqrt_r`]), this genuinely computes the reciprocal:
    /// `rsqrt(4) == 0.5`, `rsqrt(0) == +∞`, `rsqrt(+∞) == 0`.
    ///
    /// [`sqrt_r`]: RealScalar::sqrt_r
    #[inline]
    fn rsqrt(self) -> Self {
        Self::one() / self.sqrt_r()
    }
    /// `sqrt(self² + other²)` without spurious overflow (`xLAPY2`).
    fn hypot(self, other: Self) -> Self;
    /// Four-quadrant arctangent.
    fn atan2(self, other: Self) -> Self;
    /// Sine.
    fn sin_r(self) -> Self;
    /// Cosine.
    fn cos_r(self) -> Self;
    /// Elementwise maximum (NaN-ignoring like Fortran `MAX` on orderable data).
    fn maxr(self, other: Self) -> Self;
    /// Elementwise minimum.
    fn minr(self, other: Self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Base-10 logarithm.
    fn log10(self) -> Self;
    /// Sign transfer: `|self| * sign(other)` (Fortran `SIGN`, with
    /// `sign(0) = +1` as LAPACK assumes).
    #[inline]
    fn sign(self, other: Self) -> Self {
        if other >= Self::zero() {
            self.rabs()
        } else {
            -self.rabs()
        }
    }
    /// Rounds to nearest integer value.
    fn round_r(self) -> Self;
    /// Conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Conversion from a count (exact for the sizes used here).
    fn from_usize(n: usize) -> Self;
    /// Finite test, named to avoid shadowing the inherent method.
    fn is_finite_r(self) -> bool;
    /// A quiet NaN, for the NaN-propagating reductions of the exception
    /// contract (`lange`, `lassq`; see `la_core::except`).
    fn nan() -> Self;
    /// LAPACK type prefix of the *complex* type built over this real type
    /// (`C` for `f32`, `Z` for `f64`).
    const CPREFIX: char;
}

macro_rules! impl_real_scalar {
    ($t:ty, $prefix:expr, $cprefix:expr) => {
        impl Scalar for $t {
            type Real = $t;
            const IS_COMPLEX: bool = false;
            const PREFIX: char = $prefix;

            #[inline(always)]
            fn zero() -> Self {
                0.0
            }
            #[inline(always)]
            fn one() -> Self {
                1.0
            }
            #[inline(always)]
            fn from_real(re: $t) -> Self {
                re
            }
            #[inline(always)]
            fn from_re_im(re: $t, _im: $t) -> Self {
                re
            }
            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn re(self) -> $t {
                self
            }
            #[inline(always)]
            fn im(self) -> $t {
                0.0
            }
            #[inline(always)]
            fn conj(self) -> Self {
                self
            }
            #[inline(always)]
            fn abs(self) -> $t {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn abs1(self) -> $t {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn abs_sqr(self) -> $t {
                self * self
            }
            #[inline(always)]
            fn mul_real(self, r: $t) -> Self {
                self * r
            }
            #[inline(always)]
            fn div_real(self, r: $t) -> Self {
                self / r
            }
            #[inline(always)]
            fn recip(self) -> Self {
                1.0 / self
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                <$t>::is_nan(self)
            }
        }

        impl RealScalar for $t {
            const EPS: Self = <$t>::EPSILON;
            const CPREFIX: char = $cprefix;

            #[inline(always)]
            fn sfmin() -> Self {
                <$t>::MIN_POSITIVE
            }
            #[inline(always)]
            fn rmin() -> Self {
                <$t>::MIN_POSITIVE
            }
            #[inline(always)]
            fn rmax() -> Self {
                <$t>::MAX
            }
            #[inline(always)]
            fn rabs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt_r(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn hypot(self, other: Self) -> Self {
                <$t>::hypot(self, other)
            }
            #[inline(always)]
            fn atan2(self, other: Self) -> Self {
                <$t>::atan2(self, other)
            }
            #[inline(always)]
            fn sin_r(self) -> Self {
                <$t>::sin(self)
            }
            #[inline(always)]
            fn cos_r(self) -> Self {
                <$t>::cos(self)
            }
            #[inline(always)]
            fn maxr(self, other: Self) -> Self {
                if self >= other {
                    self
                } else {
                    other
                }
            }
            #[inline(always)]
            fn minr(self, other: Self) -> Self {
                if self <= other {
                    self
                } else {
                    other
                }
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                <$t>::powi(self, n)
            }
            #[inline(always)]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline(always)]
            fn log10(self) -> Self {
                <$t>::log10(self)
            }
            #[inline(always)]
            fn round_r(self) -> Self {
                <$t>::round(self)
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn from_usize(n: usize) -> Self {
                n as $t
            }
            #[inline(always)]
            fn is_finite_r(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn nan() -> Self {
                <$t>::NAN
            }
        }
    };
}

impl_real_scalar!(f32, 'S', 'C');
impl_real_scalar!(f64, 'D', 'Z');

impl<R: RealScalar> Scalar for Complex<R> {
    type Real = R;
    const IS_COMPLEX: bool = true;
    const PREFIX: char = R::CPREFIX;

    #[inline(always)]
    fn zero() -> Self {
        Complex::zero()
    }
    #[inline(always)]
    fn one() -> Self {
        Complex::one()
    }
    #[inline(always)]
    fn from_real(re: R) -> Self {
        Complex::from_real(re)
    }
    #[inline(always)]
    fn from_re_im(re: R, im: R) -> Self {
        Complex::new(re, im)
    }
    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        Complex::from_real(R::from_f64(x).re())
    }
    #[inline(always)]
    fn re(self) -> R {
        self.re
    }
    #[inline(always)]
    fn im(self) -> R {
        self.im
    }
    #[inline(always)]
    fn conj(self) -> Self {
        Complex::conj(self)
    }
    #[inline(always)]
    fn abs(self) -> R {
        Complex::abs(self)
    }
    #[inline(always)]
    fn abs1(self) -> R {
        Complex::abs1(self)
    }
    #[inline(always)]
    fn abs_sqr(self) -> R {
        Complex::norm_sqr(self)
    }
    #[inline(always)]
    fn mul_real(self, r: R) -> Self {
        self.scale(r)
    }
    #[inline(always)]
    fn div_real(self, r: R) -> Self {
        self.unscale(r)
    }
    #[inline(always)]
    fn recip(self) -> Self {
        Complex::recip(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        Complex::sqrt(self)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        Complex::is_finite(self)
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        Complex::is_nan(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{C32, C64};

    #[allow(clippy::eq_op)] // `one - one == zero` etc. are the axioms under test
    fn generic_axioms<T: Scalar>() {
        let one = T::one();
        let zero = T::zero();
        assert!(zero.is_zero());
        assert!(!one.is_zero());
        assert_eq!(one + zero, one);
        assert_eq!(one * one, one);
        assert_eq!(one - one, zero);
        assert_eq!(one.conj().conj(), one);
        assert_eq!(T::from_f64(2.0) * T::from_f64(3.0), T::from_f64(6.0));
        let x = T::from_re_im(T::Real::from_usize(3), T::Real::from_usize(4));
        assert!(
            (x.abs_sqr() - x.abs() * x.abs()).rabs()
                <= T::Real::EPS * x.abs_sqr() * T::Real::from_usize(4)
        );
        assert!((x * x.recip() - one).abs() <= T::Real::EPS * T::Real::from_usize(8));
    }

    #[test]
    fn axioms_all_four_instantiations() {
        generic_axioms::<f32>();
        generic_axioms::<f64>();
        generic_axioms::<C32>();
        generic_axioms::<C64>();
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants are the contract
    fn prefixes_match_lapack() {
        assert_eq!(f32::PREFIX, 'S');
        assert_eq!(f64::PREFIX, 'D');
        assert_eq!(C32::PREFIX, 'C');
        assert_eq!(C64::PREFIX, 'Z');
        assert!(!f64::IS_COMPLEX && C64::IS_COMPLEX);
    }

    #[test]
    fn machine_params_match_paper() {
        // The paper's Appendix E/F report eps = 1.1921e-07 in single precision.
        assert!((f32::EPS as f64 - 1.1920929e-7).abs() < 1e-13);
        assert!(f64::sfmin() > 0.0 && (1.0 / f64::sfmin()).is_finite());
        assert!(f64::smlnum() < f64::EPS && f64::bignum() > 1.0 / f64::EPS);
    }

    #[test]
    fn sign_transfer_matches_fortran() {
        assert_eq!(3.0f64.sign(-2.0), -3.0);
        assert_eq!((-3.0f64).sign(2.0), 3.0);
        assert_eq!(3.0f64.sign(0.0), 3.0);
    }

    #[test]
    fn real_abs1_equals_abs() {
        assert_eq!(Scalar::abs1(-2.5f64), 2.5);
        assert_eq!(Scalar::abs(-2.5f64), 2.5);
    }

    #[test]
    fn sqrt_r_and_rsqrt_semantics_locked() {
        // The naming trap this test guards against: `rsqrt` was once a
        // plain square root. `sqrt_r` is √x, `rsqrt` is 1/√x — forever.
        fn check<R: RealScalar>() {
            assert_eq!(R::from_usize(4).sqrt_r(), R::from_usize(2));
            assert_eq!(
                R::from_usize(4).rsqrt(),
                R::from_usize(1) / R::from_usize(2)
            );
            assert_eq!(R::from_usize(1).rsqrt(), R::one());
            // rsqrt(0) diverges instead of returning 0 — the reciprocal
            // really is taken.
            assert!(!R::zero().rsqrt().is_finite_r());
            let x = R::from_f64(2.0);
            assert!(
                (x.rsqrt() * x.sqrt_r() - R::one()).rabs() <= R::EPS * R::from_usize(4),
                "rsqrt·sqrt_r must be ~1"
            );
        }
        check::<f32>();
        check::<f64>();
    }
}
