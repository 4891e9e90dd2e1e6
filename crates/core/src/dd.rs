//! Double-double extended precision — the residual precision above `f64`.
//!
//! [`Dd`] represents a value as an unevaluated sum `hi + lo` of two `f64`
//! with `|lo| ≤ ulp(hi)/2` (the *normalized* form), giving ≈106 bits of
//! significand (~31 decimal digits) from ordinary hardware doubles. The
//! arithmetic uses the classic error-free transforms (Dekker `two_prod`
//! via FMA, Knuth `two_sum`) as in QD / Bailey's ddfun and the
//! XBLAS-style extended-precision accumulators that back LAPACK's
//! `xGERFSX` extra-precise refinement.
//!
//! `Dd` implements [`Scalar`] and [`RealScalar`], so every generic
//! routine in the workspace — `gemm`, `getrf`, norms — monomorphises
//! over it, and `Complex<Dd>` comes for free from the blanket complex
//! impl. The mixed-precision drivers use it for residual accumulation
//! (`LA_REFINE=dd`): the residual `b − A·x` is computed with ~2× the
//! working significand, which is what lets iterative refinement reach
//! backward errors at the f64 roundoff floor on ill-conditioned systems.
//!
//! Machine parameters: `EPS = 2⁻¹⁰⁴` (the conventional worst-case unit
//! roundoff of double-double; the format's precision is actually
//! variable — `1 + 2⁻³⁰⁰` is representable — but 2⁻¹⁰⁴ bounds the
//! relative error of one arithmetic operation). Range equals `f64`
//! range: `rmin`/`sfmin` = `f64::MIN_POSITIVE`, `rmax` = `f64::MAX`.
//!
//! Transcendentals (`sin_r`, `cos_r`, `atan2`, `ln`, `log10`) are
//! evaluated in `f64` on the rounded value and are therefore only
//! f64-accurate; they exist to satisfy [`RealScalar`] (the refinement
//! paths never call them). `sqrt`, `hypot`, `powi`, and the field
//! operations carry full double-double accuracy.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::scalar::{RealScalar, Scalar};

/// A double-double value: the unevaluated, normalized sum `hi + lo`.
///
/// Construct with [`Dd::from_f64`] (exact), [`Dd::new`] (renormalizing),
/// or the arithmetic operators. Convert back with [`Dd::to_f64`]
/// (correctly rounded, since `hi` is the rounded value in normalized
/// form).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Dd {
    /// Leading component: the `f64` nearest the represented value.
    pub hi: f64,
    /// Trailing component: the rounding error of `hi`, `|lo| ≤ ulp(hi)/2`.
    pub lo: f64,
}

/// Knuth two-sum: `a + b = s + e` exactly, for any `a`, `b`.
#[inline(always)]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Fast two-sum: `a + b = s + e` exactly, requires `|a| ≥ |b|` (or a == 0).
#[inline(always)]
fn quick_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let e = b - (s - a);
    (s, e)
}

/// Dekker product via FMA: `a · b = p + e` exactly.
#[inline(always)]
fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = a.mul_add(b, -p);
    (p, e)
}

impl Dd {
    /// Additive identity.
    pub const ZERO: Dd = Dd { hi: 0.0, lo: 0.0 };
    /// Multiplicative identity.
    pub const ONE: Dd = Dd { hi: 1.0, lo: 0.0 };

    /// Builds from components, renormalizing so `|lo| ≤ ulp(hi)/2`.
    #[inline]
    pub fn new(hi: f64, lo: f64) -> Dd {
        let (s, e) = two_sum(hi, lo);
        Dd { hi: s, lo: e }
    }

    /// Exact embedding of an `f64` (no rounding).
    #[inline(always)]
    pub fn from_f64(x: f64) -> Dd {
        Dd { hi: x, lo: 0.0 }
    }

    /// Rounds to the nearest `f64`. In normalized form this is `hi`, but
    /// the sum is taken so denormalized inputs still round correctly.
    #[inline(always)]
    pub fn to_f64(self) -> f64 {
        self.hi + self.lo
    }

    /// Exact product of two `f64`, kept in double-double (no rounding:
    /// both the product and its FMA-recovered error are stored).
    #[inline]
    pub fn prod(a: f64, b: f64) -> Dd {
        let (p, e) = two_prod(a, b);
        Dd { hi: p, lo: e }
    }

    /// Fused accumulate of an exact `f64` product: `self + a·b` with the
    /// product's low part captured before the double-double add. This is
    /// the inner-loop primitive of the `Dd` residual accumulation in the
    /// mixed-precision refinement drivers.
    #[inline]
    pub fn fma_acc(self, a: f64, b: f64) -> Dd {
        self + Dd::prod(a, b)
    }

    #[inline]
    fn abs_dd(self) -> Dd {
        if self.hi < 0.0 || (self.hi == 0.0 && self.lo < 0.0) {
            -self
        } else {
            self
        }
    }
}

impl Neg for Dd {
    type Output = Dd;
    #[inline(always)]
    fn neg(self) -> Dd {
        Dd {
            hi: -self.hi,
            lo: -self.lo,
        }
    }
}

impl Add for Dd {
    type Output = Dd;
    #[inline]
    fn add(self, rhs: Dd) -> Dd {
        // Knuth add: exact sums of both component pairs, then renormalize.
        let (s, e) = two_sum(self.hi, rhs.hi);
        let (t, f) = two_sum(self.lo, rhs.lo);
        let (s2, e2) = quick_two_sum(s, e + t);
        let (hi, lo) = quick_two_sum(s2, e2 + f);
        Dd { hi, lo }
    }
}

impl Sub for Dd {
    type Output = Dd;
    #[inline]
    fn sub(self, rhs: Dd) -> Dd {
        self + (-rhs)
    }
}

impl Mul for Dd {
    type Output = Dd;
    #[inline]
    fn mul(self, rhs: Dd) -> Dd {
        let (p, e) = two_prod(self.hi, rhs.hi);
        let e = e + (self.hi * rhs.lo + self.lo * rhs.hi);
        let (hi, lo) = quick_two_sum(p, e);
        Dd { hi, lo }
    }
}

impl Div for Dd {
    type Output = Dd;
    #[inline]
    fn div(self, rhs: Dd) -> Dd {
        // Long division: three f64 quotient digits, each peeled off by an
        // exact double-double residual update.
        let q1 = self.hi / rhs.hi;
        if !q1.is_finite() {
            // 0/0, x/0, inf operands: let f64 semantics decide the sign/NaN.
            return Dd::from_f64(q1);
        }
        let r = self - rhs * Dd::from_f64(q1);
        let q2 = r.hi / rhs.hi;
        let r = r - rhs * Dd::from_f64(q2);
        let q3 = r.hi / rhs.hi;
        let (s, e) = quick_two_sum(q1, q2);
        Dd { hi: s, lo: e } + Dd::from_f64(q3)
    }
}

impl AddAssign for Dd {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Dd) {
        *self = *self + rhs;
    }
}
impl SubAssign for Dd {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Dd) {
        *self = *self - rhs;
    }
}
impl MulAssign for Dd {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Dd) {
        *self = *self * rhs;
    }
}
impl DivAssign for Dd {
    #[inline(always)]
    fn div_assign(&mut self, rhs: Dd) {
        *self = *self / rhs;
    }
}

impl Sum for Dd {
    fn sum<I: Iterator<Item = Dd>>(iter: I) -> Dd {
        iter.fold(Dd::ZERO, |acc, x| acc + x)
    }
}

impl PartialOrd for Dd {
    #[inline]
    fn partial_cmp(&self, other: &Dd) -> Option<Ordering> {
        // Normalized form makes the order lexicographic: when the leading
        // components tie, the trailing components decide.
        match self.hi.partial_cmp(&other.hi) {
            Some(Ordering::Equal) => self.lo.partial_cmp(&other.lo),
            ord => ord,
        }
    }
}

impl fmt::Display for Dd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Shown at f64 precision; the full value needs ~32 digits and the
        // Display surface is diagnostics, not serialization.
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

impl Scalar for Dd {
    type Real = Dd;
    const IS_COMPLEX: bool = false;
    const PREFIX: char = 'X';

    #[inline(always)]
    fn zero() -> Self {
        Dd::ZERO
    }
    #[inline(always)]
    fn one() -> Self {
        Dd::ONE
    }
    #[inline(always)]
    fn from_real(re: Dd) -> Self {
        re
    }
    #[inline(always)]
    fn from_re_im(re: Dd, _im: Dd) -> Self {
        re
    }
    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        Dd::from_f64(x)
    }
    #[inline(always)]
    fn re(self) -> Dd {
        self
    }
    #[inline(always)]
    fn im(self) -> Dd {
        Dd::ZERO
    }
    #[inline(always)]
    fn conj(self) -> Self {
        self
    }
    #[inline(always)]
    fn abs(self) -> Dd {
        self.abs_dd()
    }
    #[inline(always)]
    fn abs1(self) -> Dd {
        self.abs_dd()
    }
    #[inline(always)]
    fn abs_sqr(self) -> Dd {
        self * self
    }
    #[inline(always)]
    fn mul_real(self, r: Dd) -> Self {
        self * r
    }
    #[inline(always)]
    fn div_real(self, r: Dd) -> Self {
        self / r
    }
    #[inline(always)]
    fn recip(self) -> Self {
        Dd::ONE / self
    }
    #[inline]
    fn sqrt(self) -> Self {
        RealScalar::sqrt_r(self)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        self.hi.is_finite() && self.lo.is_finite()
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        self.hi.is_nan() || self.lo.is_nan()
    }
}

impl RealScalar for Dd {
    // 2⁻¹⁰⁴, the conventional double-double unit roundoff. The decimal
    // literal identifies the power of two exactly (locked by a test).
    const EPS: Self = Dd {
        hi: 4.930380657631324e-32,
        lo: 0.0,
    };
    const CPREFIX: char = 'x';

    #[inline(always)]
    fn sfmin() -> Self {
        Dd::from_f64(f64::MIN_POSITIVE)
    }
    #[inline(always)]
    fn rmin() -> Self {
        Dd::from_f64(f64::MIN_POSITIVE)
    }
    #[inline(always)]
    fn rmax() -> Self {
        Dd::from_f64(f64::MAX)
    }
    #[inline(always)]
    fn rabs(self) -> Self {
        self.abs_dd()
    }
    #[inline]
    fn sqrt_r(self) -> Self {
        if self.hi == 0.0 && self.lo == 0.0 {
            return Dd::ZERO;
        }
        if self.hi < 0.0 {
            return RealScalar::nan();
        }
        // Karp–Markstein: f64 seed x ≈ 1/√a, y = a·x ≈ √a, then one
        // correction y + (a − y²)·x/2 — quadratic convergence lands at
        // full double-double accuracy from the 53-bit seed.
        let x = 1.0 / self.hi.sqrt();
        let y = self.hi * x;
        let yd = Dd::from_f64(y);
        let diff = self - yd * yd;
        yd + Dd::from_f64(diff.hi * (x * 0.5))
    }
    #[inline]
    fn hypot(self, other: Self) -> Self {
        // xLAPY2 shape: factor out the larger magnitude so the squares
        // cannot overflow for representable results.
        let a = self.abs_dd();
        let b = other.abs_dd();
        let (big, small) = if a >= b { (a, b) } else { (b, a) };
        if big.hi == 0.0 {
            return Dd::ZERO;
        }
        let r = small / big;
        big * RealScalar::sqrt_r(Dd::ONE + r * r)
    }
    #[inline]
    fn atan2(self, other: Self) -> Self {
        Dd::from_f64(self.to_f64().atan2(other.to_f64()))
    }
    #[inline]
    fn sin_r(self) -> Self {
        Dd::from_f64(self.to_f64().sin())
    }
    #[inline]
    fn cos_r(self) -> Self {
        Dd::from_f64(self.to_f64().cos())
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
    #[inline]
    fn powi(self, n: i32) -> Self {
        if n == 0 {
            return Dd::ONE;
        }
        let mut base = if n < 0 { Dd::ONE / self } else { self };
        let mut e = n.unsigned_abs();
        let mut acc = Dd::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }
    #[inline]
    fn ln(self) -> Self {
        Dd::from_f64(self.to_f64().ln())
    }
    #[inline]
    fn log10(self) -> Self {
        Dd::from_f64(self.to_f64().log10())
    }
    #[inline]
    fn round_r(self) -> Self {
        Dd::from_f64(self.to_f64().round())
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        Dd::to_f64(self)
    }
    #[inline]
    fn from_usize(n: usize) -> Self {
        // Exact even past 2⁵³: capture the conversion error of the lead.
        let hi = n as f64;
        let err = (n as i128).wrapping_sub(hi as i128) as f64;
        Dd::new(hi, err)
    }
    #[inline(always)]
    fn is_finite_r(self) -> bool {
        Scalar::is_finite(self)
    }
    #[inline(always)]
    fn nan() -> Self {
        Dd {
            hi: f64::NAN,
            lo: f64::NAN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dd(x: f64) -> Dd {
        Dd::from_f64(x)
    }

    #[test]
    fn eps_is_two_pow_minus_104() {
        assert_eq!(Dd::EPS.hi, 2f64.powi(-104));
        assert_eq!(Dd::EPS.lo, 0.0);
    }

    #[test]
    fn add_recovers_bits_below_f64_precision() {
        // 1 + 2⁻⁶⁰ is not representable in f64 (it rounds back to 1), but
        // double-double keeps it and the later subtraction recovers it.
        let tiny = 2f64.powi(-60);
        let x = Dd::ONE + dd(tiny);
        assert_ne!(x, Dd::ONE, "1 + 2^-60 must be distinguishable from 1");
        assert_eq!((x - Dd::ONE).to_f64(), tiny);
        // f64 control: the same computation collapses.
        assert_eq!((1.0 + tiny) - 1.0, 0.0);
    }

    #[test]
    fn prod_is_error_free() {
        // two_prod captures the exact rounding error of an f64 multiply.
        let a = 1.0 + 2f64.powi(-30);
        let b = 1.0 + 2f64.powi(-29);
        let p = Dd::prod(a, b);
        // Exact product: 1 + 2^-29 + 2^-30 + 2^-59; f64 loses the 2^-59.
        assert_eq!(p.hi, a * b);
        assert_eq!(p.lo, 2f64.powi(-59));
    }

    #[test]
    fn mul_and_div_roundtrip_near_dd_eps() {
        let third = Dd::ONE / dd(3.0);
        let back = third * dd(3.0);
        let err = (back - Dd::ONE).abs_dd();
        assert!(
            err <= Dd::EPS * dd(8.0),
            "1/3*3 error {:e} exceeds dd eps bound",
            err.to_f64()
        );
    }

    #[test]
    fn sqrt_is_dd_accurate() {
        let s = RealScalar::sqrt_r(dd(2.0));
        let err = (s * s - dd(2.0)).abs_dd();
        assert!(
            err <= Dd::EPS * dd(8.0),
            "sqrt(2)^2 error {:e}",
            err.to_f64()
        );
        assert_eq!(RealScalar::sqrt_r(Dd::ZERO), Dd::ZERO);
        assert!(Scalar::is_nan(RealScalar::sqrt_r(dd(-1.0))));
    }

    #[test]
    fn sum_accumulates_in_extended_precision() {
        // Σ 0.1 (the f64 nearest 1/10), 10 times. In f64 the partial-sum
        // roundings make it ≠ 10·0.1; in Dd each add is error-free down
        // to 2⁻¹⁰⁴ so the result matches the exact 10× product.
        let ten_tenths: Dd = (0..10).map(|_| dd(0.1)).sum();
        let exact = Dd::prod(10.0, 0.1);
        assert_eq!(ten_tenths, exact);
        let f64_sum = (0..10).map(|_| 0.1f64).sum::<f64>();
        assert_ne!(f64_sum, 10.0 * 0.1, "f64 control should show drift");
    }

    #[test]
    fn ordering_is_lexicographic_on_normalized_parts() {
        let base = Dd::ONE;
        let up = Dd::ONE + dd(2f64.powi(-80));
        let down = Dd::ONE - dd(2f64.powi(-80));
        assert!(down < base && base < up);
        assert_eq!(base.maxr(up), up);
        assert_eq!(base.minr(down), down);
    }

    #[test]
    fn machine_params_and_prefix() {
        assert_eq!(Dd::PREFIX, 'X');
        assert_eq!(Dd::CPREFIX, 'x');
        const _: () = assert!(!Dd::IS_COMPLEX);
        assert!(Dd::rmin() > Dd::ZERO);
        assert!(Scalar::is_finite(Dd::rmax()));
        assert!((Dd::ONE / Dd::rmin()).hi.is_finite());
        assert!(Scalar::is_nan(<Dd as RealScalar>::nan()));
    }

    #[test]
    fn powi_hypot_and_misc() {
        assert_eq!(dd(2.0).powi(10), dd(1024.0));
        let inv = dd(2.0).powi(-2);
        assert_eq!(inv, dd(0.25));
        let h = dd(3.0).hypot(dd(4.0));
        assert!((h - dd(5.0)).abs_dd() <= Dd::EPS * dd(16.0));
        // hypot must not overflow for large-but-representable inputs.
        let big = dd(1e300);
        assert!(Scalar::is_finite(big.hypot(big)));
        assert_eq!(Dd::from_usize(7), dd(7.0));
        assert_eq!(dd(2.5).round_r(), dd(3.0));
        assert_eq!(dd(-1.5).sign(dd(2.0)), dd(1.5));
    }

    #[test]
    fn fma_acc_matches_exact_accumulation() {
        // Residual-style accumulation: acc += a*b with the product error
        // captured. Use values whose product has a nonzero low part.
        let a = 1.0 + 2f64.powi(-30);
        let acc = Dd::ZERO.fma_acc(a, a).fma_acc(-1.0, a * a);
        // a*a (exact) minus fl(a*a) = the two_prod error term.
        let expected = Dd::prod(a, a) - dd(a * a);
        assert_eq!(acc.to_f64(), expected.to_f64());
    }

    #[test]
    fn div_edge_cases_follow_f64_semantics() {
        assert!(Scalar::is_nan(Dd::ZERO / Dd::ZERO));
        assert!(!Scalar::is_finite(Dd::ONE / Dd::ZERO));
        assert_eq!((Dd::ONE / Dd::ZERO).hi, f64::INFINITY);
    }
}
