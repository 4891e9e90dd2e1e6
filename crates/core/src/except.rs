//! Exception-handling subsystem — consistent NaN/Inf screening for the
//! driver layer, modeled on Demmel et al., "Proposed Consistent Exception
//! Handling for the BLAS and LAPACK" (arXiv:2207.09281).
//!
//! LAPACK 77 — and the LAPACK90 paper with it — is silent about non-finite
//! inputs: a NaN fed to `LA_GESV` propagates through the factorization and
//! comes back as a garbage "solution" with `INFO = 0`. This module supplies
//! the missing contract as a *runtime policy*, off by default so the fast
//! path pays nothing:
//!
//! * [`FpCheckPolicy`] — what to screen: nothing, inputs, outputs, or both.
//!   One field of the ambient context ([`crate::ctx::Ctx::fp_check`]):
//!   initialized from the `LA_FP_CHECK` environment variable, settable
//!   process-wide via [`crate::ctx::update`] or per call tree via
//!   [`with_policy`].
//! * [`all_finite`] — the O(n) screening sweep over a slice of any of the
//!   four scalar types (a complex element is finite iff both parts are).
//! * A screening failure surfaces as [`crate::LaError::NonFinite`] with the
//!   dedicated `INFO` extension code `-101` (mirroring the paper's `-100`
//!   allocation-failure convention) and the 1-based index of the offending
//!   argument.

use crate::ctx;
use crate::scalar::Scalar;

/// What the `la90` drivers screen for non-finite values (NaN or ±Inf).
///
/// Screening is O(input) per driver call and short-circuits on the first
/// non-finite element; the default [`Off`](FpCheckPolicy::Off) reduces the
/// whole subsystem to a single relaxed policy load per call.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum FpCheckPolicy {
    /// No screening (the LAPACK 77 behaviour). Default.
    #[default]
    Off,
    /// Screen array inputs on entry; a NaN/Inf input is rejected with
    /// `LaError::NonFinite` (`INFO = -101`) before any computation.
    ScanInputs,
    /// Screen computed outputs on exit; a driver that would return poison
    /// with `INFO = 0` reports `NonFinite` instead.
    ScanOutputs,
    /// Both input and output screening.
    Full,
}

impl FpCheckPolicy {
    /// `true` when inputs are to be screened on driver entry.
    #[inline(always)]
    pub fn scan_inputs(self) -> bool {
        matches!(self, FpCheckPolicy::ScanInputs | FpCheckPolicy::Full)
    }

    /// `true` when outputs are to be screened on driver exit.
    #[inline(always)]
    pub fn scan_outputs(self) -> bool {
        matches!(self, FpCheckPolicy::ScanOutputs | FpCheckPolicy::Full)
    }

    /// Parses an `LA_FP_CHECK` value. Accepted (case-insensitive):
    /// `off`/`none`/`0` → `Off`; `inputs`/`in` → `ScanInputs`;
    /// `outputs`/`out` → `ScanOutputs`; `full`/`all`/`on`/`1` → `Full`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(FpCheckPolicy::Off),
            "inputs" | "in" => Some(FpCheckPolicy::ScanInputs),
            "outputs" | "out" => Some(FpCheckPolicy::ScanOutputs),
            "full" | "all" | "on" | "1" => Some(FpCheckPolicy::Full),
            _ => None,
        }
    }
}

/// The policy in effect on this thread: the innermost scope's if one is
/// open, the process-global policy otherwise.
pub fn policy() -> FpCheckPolicy {
    ctx::peek(|f| f.ctx.fp_check)
}

/// Runs `f` with `p` in effect on the current thread and on every worker
/// the call tree fans out to, restoring the previous state afterwards
/// (also on panic). Nested calls stack.
pub fn with_policy<R>(p: FpCheckPolicy, f: impl FnOnce() -> R) -> R {
    ctx::scoped(|frame| frame.ctx.fp_check = p, f)
}

/// `true` iff every element of `xs` is finite (for complex types: both
/// parts finite — no NaN, no ±Inf anywhere).
///
/// One linear pass; checks are batched eight at a time so the compiler can
/// vectorize the finiteness tests while still bailing out early on poisoned
/// data.
pub fn all_finite<T: Scalar>(xs: &[T]) -> bool {
    let mut chunks = xs.chunks_exact(8);
    for c in &mut chunks {
        let mut ok = true;
        for &x in c {
            ok &= x.is_finite();
        }
        if !ok {
            return false;
        }
    }
    chunks.remainder().iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{C32, C64};
    use crate::scalar::RealScalar;

    #[test]
    fn parse_accepts_documented_spellings() {
        assert_eq!(FpCheckPolicy::parse("off"), Some(FpCheckPolicy::Off));
        assert_eq!(FpCheckPolicy::parse("0"), Some(FpCheckPolicy::Off));
        assert_eq!(
            FpCheckPolicy::parse("inputs"),
            Some(FpCheckPolicy::ScanInputs)
        );
        assert_eq!(FpCheckPolicy::parse("IN"), Some(FpCheckPolicy::ScanInputs));
        assert_eq!(
            FpCheckPolicy::parse("outputs"),
            Some(FpCheckPolicy::ScanOutputs)
        );
        assert_eq!(FpCheckPolicy::parse("Full"), Some(FpCheckPolicy::Full));
        assert_eq!(FpCheckPolicy::parse("1"), Some(FpCheckPolicy::Full));
        assert_eq!(FpCheckPolicy::parse("bogus"), None);
    }

    #[test]
    fn scan_flags_follow_levels() {
        assert!(!FpCheckPolicy::Off.scan_inputs());
        assert!(!FpCheckPolicy::Off.scan_outputs());
        assert!(FpCheckPolicy::ScanInputs.scan_inputs());
        assert!(!FpCheckPolicy::ScanInputs.scan_outputs());
        assert!(!FpCheckPolicy::ScanOutputs.scan_inputs());
        assert!(FpCheckPolicy::ScanOutputs.scan_outputs());
        assert!(FpCheckPolicy::Full.scan_inputs());
        assert!(FpCheckPolicy::Full.scan_outputs());
    }

    #[test]
    fn scoped_policy_stacks_and_restores() {
        let base = policy();
        with_policy(FpCheckPolicy::ScanInputs, || {
            assert_eq!(policy(), FpCheckPolicy::ScanInputs);
            with_policy(FpCheckPolicy::Full, || {
                assert_eq!(policy(), FpCheckPolicy::Full);
            });
            assert_eq!(policy(), FpCheckPolicy::ScanInputs);
        });
        assert_eq!(policy(), base);
    }

    #[test]
    fn all_finite_all_four_types() {
        fn check<T: Scalar>() {
            let nan = T::Real::nan();
            let inf = T::Real::one() / T::Real::zero();
            // Long enough to exercise both the batched body and the tail.
            let mut v: Vec<T> = (0..19).map(|i| T::from_f64(i as f64)).collect();
            assert!(all_finite(&v));
            v[17] = T::from_real(nan);
            assert!(!all_finite(&v));
            v[17] = T::from_real(inf);
            assert!(!all_finite(&v));
            v[17] = T::zero();
            // Imaginary-part poison: dropped by the real types, caught for
            // the complex ones.
            v[3] = T::from_re_im(T::Real::zero(), nan);
            assert_eq!(all_finite(&v), !T::IS_COMPLEX);
        }
        check::<f32>();
        check::<f64>();
        check::<C32>();
        check::<C64>();
        assert!(all_finite::<f64>(&[]));
    }
}
