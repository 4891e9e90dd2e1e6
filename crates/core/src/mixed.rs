//! Precision pairs — the type-level bridge for mixed-precision
//! algorithms (Dongarra-lineage `DSGESV`/`ZCGESV` iterative refinement
//! and its GMRES-IR three-precision descendants).
//!
//! LAPACK90's generic resolution picks *one* instantiation of the
//! S/D/C/Z quadruple per call. Mixed-precision refinement needs *two* at
//! once: the working precision the caller's data lives in, and the low
//! precision the O(n³) factorization runs in. [`Demote`] and [`Promote`]
//! connect the canonical pairs — `f64 ↔ f32` and
//! `Complex<f64> ↔ Complex<f32>` — so a single generic driver can round
//! its matrix down, factor cheaply, and widen the solution back for
//! full-precision refinement.
//!
//! ```text
//!    Dd  (extended residuals, la_core::dd)
//!     ↑
//!    f64 ──→ f32        C64 ──→ C32
//! ```
//!
//! The per-pair constants mirror what `DSGESV` reads from `SLAMCH`:
//! [`Demote::lo_eps`] (the low precision's unit roundoff, expressed in
//! the working real type — the per-iteration error floor of the low
//! factorization), [`Demote::lo_overflow`] (the low precision's overflow
//! threshold — a working-precision entry beyond it cannot be demoted,
//! the `DLAG2S` failure mode) and [`Demote::lo_rmin`] (the smallest
//! positive normal — entries far below it demote to zero, the underflow
//! failure mode [`demote_slice`] flags; see Demmel et al.,
//! arXiv:2207.09281 on surfacing narrow-range hazards instead of silently
//! diverging).
//!
//! ```
//! use la_core::mixed::{Demote, Promote};
//! let x: f64 = 1.0 + f64::EPSILON; // below f32 resolution
//! let lo: f32 = x.demote();
//! assert_eq!(lo, 1.0f32);
//! assert_eq!(lo.promote(), 1.0f64); // widening is exact
//! assert_eq!(f64::lo_eps(), f32::EPSILON as f64);
//! ```

use crate::complex::Complex;
use crate::scalar::{RealScalar, Scalar};

/// A working-precision scalar that has a lower-precision counterpart:
/// `f64 → f32`, `Complex<f64> → Complex<f32>`.
///
/// The demotion rounds (to nearest); entries larger in magnitude than
/// [`Demote::lo_overflow`] leave the low precision's finite range, which
/// mixed-precision drivers must detect (see [`demote_slice`]) and answer
/// with their full-precision fallback path.
pub trait Demote: Scalar {
    /// The low-precision counterpart (same real/complex structure).
    type Lo: Promote<Hi = Self> + Scalar;

    /// Rounds to the low precision.
    fn demote(self) -> Self::Lo;

    /// The low precision's unit roundoff in working-precision terms
    /// (`SLAMCH('E')` seen from the `D` side): the accuracy floor of one
    /// low-precision solve, hence the per-iteration contraction factor of
    /// mixed refinement.
    #[inline]
    fn lo_eps() -> Self::Real {
        Self::Real::from_f64(<<Self::Lo as Scalar>::Real as RealScalar>::EPS.to_f64())
    }

    /// The low precision's overflow threshold in working-precision terms
    /// (`SLAMCH('O')` seen from the `D` side): any entry with `|re|` or
    /// `|im|` above it demotes to infinity.
    #[inline]
    fn lo_overflow() -> Self::Real {
        Self::Real::from_f64(<<Self::Lo as Scalar>::Real as RealScalar>::rmax().to_f64())
    }

    /// The low precision's underflow threshold in working-precision terms
    /// (`SLAMCH('U')` seen from the `D` side): entries far below it
    /// demote to zero, erasing structure the factorization needs.
    #[inline]
    fn lo_rmin() -> Self::Real {
        Self::Real::from_f64(<<Self::Lo as Scalar>::Real as RealScalar>::rmin().to_f64())
    }
}

/// A low-precision scalar that widens exactly into its working-precision
/// counterpart: `f32 → f64`, `Complex<f32> → Complex<f64>`.
pub trait Promote: Scalar {
    /// The working-precision counterpart.
    type Hi: Demote<Lo = Self> + Scalar;

    /// Widens to the working precision (exact — every `f32` value is an
    /// `f64` value).
    fn promote(self) -> Self::Hi;
}

impl Demote for f64 {
    type Lo = f32;
    #[inline(always)]
    fn demote(self) -> f32 {
        self as f32
    }
}

impl Promote for f32 {
    type Hi = f64;
    #[inline(always)]
    fn promote(self) -> f64 {
        self as f64
    }
}

impl Demote for Complex<f64> {
    type Lo = Complex<f32>;
    #[inline(always)]
    fn demote(self) -> Complex<f32> {
        Complex::new(self.re as f32, self.im as f32)
    }
}

impl Promote for Complex<f32> {
    type Hi = Complex<f64>;
    #[inline(always)]
    fn promote(self) -> Complex<f64> {
        Complex::new(self.re as f64, self.im as f64)
    }
}

/// Outcome of a checked slice demotion: which of the two range hazards
/// occurred. Both mean the low-precision image misrepresents the data
/// and the driver must take its full-precision fallback (`iter = -2` in
/// the mixed drivers' convention).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DemoteFlags {
    /// A finite source entry demoted to ±∞ (the `DLAG2S` `INFO > 0`
    /// condition).
    pub overflow: bool,
    /// A non-zero finite source component demoted to zero. Left
    /// unflagged, the refinement loop diverges instead of falling back.
    pub underflow: bool,
}

impl DemoteFlags {
    /// `true` when the demotion preserved every entry's finiteness and
    /// non-zero structure.
    #[inline]
    pub fn ok(self) -> bool {
        !self.overflow && !self.underflow
    }

    #[inline]
    fn record<T: Demote>(&mut self, s: T, lo: T::Lo) {
        // Non-finite *sources* are not flagged here: NaN/Inf inputs are
        // the domain of the `except` screening policy.
        self.overflow |= !lo.is_finite() && s.is_finite();
        self.underflow |= (lo.re().is_zero() && !s.re().is_zero() && s.re().is_finite_r())
            || (lo.im().is_zero() && !s.im().is_zero() && s.im().is_finite_r());
    }
}

/// Demotes `src` elementwise into `dst`, reporting overflow-to-∞ and
/// underflow-to-zero separately in [`DemoteFlags`]; on either, the low
/// image misrepresents the data and the caller must take its
/// full-precision path. Callers demoting *residuals* (which legitimately
/// shrink toward zero) should pre-scale by an exact power of two and
/// consult only the `overflow` flag; callers demoting the *matrix* should
/// require [`DemoteFlags::ok`].
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn demote_slice<T: Demote>(src: &[T], dst: &mut [T::Lo]) -> DemoteFlags {
    assert_eq!(src.len(), dst.len(), "demote_slice: length mismatch");
    let mut flags = DemoteFlags::default();
    for (d, &s) in dst.iter_mut().zip(src) {
        let lo = s.demote();
        flags.record(s, lo);
        *d = lo;
    }
    flags
}

/// Widens `src` elementwise into `dst` (exact).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn promote_slice<L: Promote>(src: &[L], dst: &mut [L::Hi]) {
    assert_eq!(src.len(), dst.len(), "promote_slice: length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s.promote();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{C32, C64};

    #[test]
    fn demotion_rounds_promotion_is_exact() {
        let x = 1.0f64 + f64::EPSILON;
        assert_eq!(x.demote(), 1.0f32);
        // Round trip through the pair is the identity on f32 values.
        for v in [0.0f32, -1.5, f32::MIN_POSITIVE, f32::MAX] {
            assert_eq!(v.promote().demote(), v);
        }
        let z = C64::new(3.25, -0.5);
        assert_eq!(z.demote(), C32::new(3.25, -0.5));
        assert_eq!(z.demote().promote(), z); // representable both ways
    }

    #[test]
    fn pair_constants_match_slamch() {
        assert_eq!(f64::lo_eps(), f32::EPSILON as f64);
        assert_eq!(f64::lo_overflow(), f32::MAX as f64);
        assert_eq!(C64::lo_eps(), f32::EPSILON as f64);
        assert_eq!(C64::lo_overflow(), f32::MAX as f64);
        // The pair is genuinely mixed: the low eps is far coarser than
        // the working eps.
        assert!(f64::lo_eps() > 1e7 * f64::EPSILON);
    }

    #[test]
    fn demote_slice_flags_overflow() {
        let src = [1.0f64, 2.0, 3.0];
        let mut dst = [0.0f32; 3];
        assert!(demote_slice(&src, &mut dst).ok());
        assert_eq!(dst, [1.0f32, 2.0, 3.0]);

        let src = [1.0f64, 1e300, 3.0]; // 1e300 overflows f32
        assert!(!demote_slice(&src, &mut dst).ok());

        // Non-finite sources pass through unflagged (screening territory).
        let src = [f64::INFINITY, 1.0, 2.0];
        assert!(demote_slice(&src, &mut dst).ok());
        assert!(dst[0].is_infinite());

        let zsrc = [C64::new(0.0, 1e300)];
        let mut zdst = [C32::new(0.0, 0.0)];
        assert!(!demote_slice(&zsrc, &mut zdst).ok());
    }

    #[test]
    fn demote_slice_flags_underflow_to_zero() {
        // 1e-300 is a perfectly healthy f64 but demotes to 0.0f32 — the
        // hazard that used to slip through and send refinement diverging.
        let src = [1.0f64, 1e-300, 3.0];
        let mut dst = [0.0f32; 3];
        let flags = demote_slice(&src, &mut dst);
        assert!(flags.underflow && !flags.overflow && !flags.ok());

        // Exact zeros are structure, not underflow.
        let src = [0.0f64, -0.0, 2.0];
        assert!(demote_slice(&src, &mut dst).ok());

        // A subnormal-but-nonzero image is not flagged: magnitude
        // survived, only precision was lost.
        let src = [2.0f64.powi(-140)];
        let mut one = [0.0f32];
        let flags = demote_slice(&src, &mut one);
        assert!(one[0] > 0.0 && flags.ok());

        // Complex: a zeroed imaginary part alone trips the flag.
        let zsrc = [C64::new(1.0, 1e-300)];
        let mut zdst = [C32::new(0.0, 0.0)];
        assert!(!demote_slice(&zsrc, &mut zdst).ok());
    }

    #[test]
    fn promote_slice_widens() {
        let src = [1.5f32, -2.25];
        let mut dst = [0.0f64; 2];
        promote_slice(&src, &mut dst);
        assert_eq!(dst, [1.5f64, -2.25]);
    }
}
