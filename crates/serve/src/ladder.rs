//! The retry-with-degradation ladder: one job's attempts, driven by the
//! substrate's typed failure taxonomy.
//!
//! Each arm of the ladder pairs a failure class with the cheapest
//! countermeasure that can actually help, so a retry is never a blind
//! re-roll:
//!
//! * `SoftFault` (`−102`, detected corruption) → retry under
//!   [`AbftPolicy::Recover`], which repairs the stripe from its snapshot;
//!   a fault that survives even `Recover` is reported, not retried again.
//! * `NonFinite` with an unpinpointed origin (`argument == 0`) → one
//!   retry under [`FpCheckPolicy::Full`] so the rejection names the
//!   offending argument; a pinpointed `NonFinite` is definitive.
//! * A worker panic → plain retry (the panic was isolated at the job
//!   boundary); exhausting the budget yields [`Rejection::Panicked`].
//! * A residual-check failure on an `INFO = 0` answer → retry under
//!   `Recover` (the answer is wrong the way silent corruption is wrong);
//!   exhausting the budget yields [`Rejection::ResidualRejected`] — the
//!   service refuses to serve the answer.
//! * `Cancelled` (`−103`) → [`Rejection::DeadlineExceeded`], never
//!   retried: the deadline that cancelled attempt k has also expired for
//!   attempt k+1.
//! * Everything else (singular, not-positive-definite, illegal argument,
//!   allocation failure, pinpointed non-finite) → definitive
//!   [`Rejection::Failed`]; no retry can change the data.
//!
//! Mixed-precision non-convergence never reaches the ladder: the drivers
//! fall back to the bitwise full-precision sequence internally.

use std::panic::{catch_unwind, AssertUnwindSafe};

use la_core::abft::AbftPolicy;
use la_core::except::FpCheckPolicy;
use la_core::Demote;
use la_core::{cancel, ctx};
use la_core::{LaError, Mat, RealScalar, Scalar, Side, Trans};

use crate::{Rejection, ServeConfig, SolveOp, SolveOutput};

/// A finished ladder run: the outcome plus whether any fault-class event
/// (panic, soft fault, residual failure, NaN re-screen) occurred on the
/// way — the input to the per-tenant fault streak.
pub(crate) struct Attempted<T: Demote> {
    pub outcome: Result<SolveOutput<T>, Rejection>,
    pub fault_seen: bool,
}

/// One solve attempt. The job's `a`/`b` stay pristine (attempts must be
/// independent); the working copies are cloned here.
fn solve_once<T: Demote>(op: SolveOp, a: &Mat<T>, b: &Mat<T>) -> Result<(Mat<T>, i32), LaError> {
    match op {
        SolveOp::Gesv => {
            let mut af = a.clone();
            let mut x = b.clone();
            la90::gesv(&mut af, &mut x)?;
            Ok((x, 0))
        }
        SolveOp::Posv(uplo) => {
            let mut af = a.clone();
            let mut x = b.clone();
            la90::posv_uplo(&mut af, &mut x, uplo)?;
            Ok((x, 0))
        }
        SolveOp::GesvMixed => {
            let mut af = a.clone();
            let mut x = Mat::zeros(b.nrows(), b.ncols());
            let iter = la90::gesv_mixed(&mut af, b, &mut x)?;
            Ok((x, iter))
        }
        SolveOp::PosvMixed(uplo) => {
            let mut af = a.clone();
            let mut x = Mat::zeros(b.nrows(), b.ncols());
            let iter = la90::posv_mixed_uplo(&mut af, b, &mut x, uplo)?;
            Ok((x, iter))
        }
    }
}

/// Normwise residual acceptance: for every column,
/// `‖b_j − A·x_j‖∞ ≤ tol · (n·max|A|·‖x_j‖∞ + ‖b_j‖∞)` with
/// `tol = 64·n·ε` — loose enough for legitimate pivot growth, tight
/// enough that a corrupted stripe (an O(1)-relative error) cannot pass.
/// The `Posv` ops multiply through `symm` on the stored triangle, so a
/// caller who filled only one triangle is judged fairly.
fn residual_ok<T: Demote>(op: SolveOp, a: &Mat<T>, b: &Mat<T>, x: &Mat<T>) -> bool {
    let n = a.nrows();
    let nrhs = b.ncols();
    if n == 0 || nrhs == 0 {
        return true;
    }
    let mut r = b.clone();
    let rld = r.lda();
    match op {
        SolveOp::Gesv | SolveOp::GesvMixed => la_blas::gemm(
            Trans::No,
            Trans::No,
            n,
            nrhs,
            n,
            -T::one(),
            a.as_slice(),
            a.lda(),
            x.as_slice(),
            x.lda(),
            T::one(),
            r.as_mut_slice(),
            rld,
        ),
        SolveOp::Posv(uplo) | SolveOp::PosvMixed(uplo) => la_blas::symm(
            T::IS_COMPLEX,
            Side::Left,
            uplo,
            n,
            nrhs,
            -T::one(),
            a.as_slice(),
            a.lda(),
            x.as_slice(),
            x.lda(),
            T::one(),
            r.as_mut_slice(),
            rld,
        ),
    }
    let mut amax = T::Real::zero();
    for j in 0..n {
        for i in 0..n {
            amax = amax.maxr(a[(i, j)].abs1());
        }
    }
    let nr = T::Real::from_usize(n);
    let tol = T::Real::EPS * nr * T::Real::from_usize(64);
    for j in 0..nrhs {
        let (mut rnrm, mut xnrm, mut bnrm) = (T::Real::zero(), T::Real::zero(), T::Real::zero());
        for i in 0..n {
            rnrm = rnrm.maxr(r[(i, j)].abs1());
            xnrm = xnrm.maxr(x[(i, j)].abs1());
            bnrm = bnrm.maxr(b[(i, j)].abs1());
        }
        // NaN compares false against everything, so a poisoned answer
        // would sail through the ratio test — screen finiteness first.
        if !rnrm.is_finite_r() || !xnrm.is_finite_r() {
            return false;
        }
        let den = nr * amax * xnrm + bnrm;
        if den > T::Real::zero() {
            if rnrm / den > tol {
                return false;
            }
        } else if rnrm > T::Real::zero() {
            return false;
        }
    }
    true
}

/// Runs the ladder for one job. Assumes the caller has already installed
/// the job's cancel token, probe scope and ABFT scope on this thread.
pub(crate) fn run<T: Demote>(
    op: SolveOp,
    a: &Mat<T>,
    b: &Mat<T>,
    cfg: &ServeConfig,
) -> Attempted<T> {
    let max = cfg.max_attempts.max(1);
    let mut attempts = 0u32;
    let mut fault_seen = false;
    let mut abft_boost: Option<AbftPolicy> = None;
    let mut fp_boost: Option<FpCheckPolicy> = None;
    let finish = |outcome, fault_seen| Attempted {
        outcome,
        fault_seen,
    };
    loop {
        if cancel::cancelled() {
            return finish(Err(Rejection::DeadlineExceeded), fault_seen);
        }
        attempts += 1;
        // This attempt's configuration: the job's, with whatever the
        // earlier attempts escalated.
        let mut attempt = ctx::current();
        attempt.abft = abft_boost.unwrap_or(attempt.abft);
        attempt.fp_check = fp_boost.unwrap_or(attempt.fp_check);
        let solved = catch_unwind(AssertUnwindSafe(|| {
            ctx::with(attempt, || solve_once(op, a, b))
        }));
        match solved {
            Err(_) => {
                fault_seen = true;
                if attempts >= max {
                    return finish(Err(Rejection::Panicked { attempts }), fault_seen);
                }
            }
            Ok(Err(e)) => match e {
                LaError::SoftFault { .. } => {
                    fault_seen = true;
                    if abft_boost == Some(AbftPolicy::Recover) || attempts >= max {
                        // Recover itself failed verification — definitive.
                        return finish(Err(Rejection::Failed(e)), fault_seen);
                    }
                    abft_boost = Some(AbftPolicy::Recover);
                }
                LaError::NonFinite { argument: 0, .. } => {
                    fault_seen = true;
                    if fp_boost.is_some() || attempts >= max {
                        return finish(Err(Rejection::Failed(e)), fault_seen);
                    }
                    // Re-run under the full screen purely to *name* the
                    // offending argument in the rejection.
                    fp_boost = Some(FpCheckPolicy::Full);
                }
                LaError::Cancelled { .. } => {
                    return finish(Err(Rejection::DeadlineExceeded), fault_seen);
                }
                other => return finish(Err(Rejection::Failed(other)), fault_seen),
            },
            Ok(Ok((x, iter))) => {
                if cfg.verify_residual && !residual_ok(op, a, b, &x) {
                    fault_seen = true;
                    if attempts >= max {
                        return finish(Err(Rejection::ResidualRejected { attempts }), fault_seen);
                    }
                    // A poisoned (non-finite) answer is a NaN problem, not
                    // a corruption problem: retry under the full screen so
                    // the rejection pinpoints the offending argument.
                    // A finite-but-wrong answer retries under Recover.
                    if x.as_slice().iter().any(|v| !v.abs1().is_finite_r()) {
                        fp_boost = Some(FpCheckPolicy::Full);
                    } else {
                        abft_boost = Some(AbftPolicy::Recover);
                    }
                } else {
                    return finish(
                        Ok(SolveOutput {
                            x,
                            iter,
                            attempts,
                            degraded: attempts > 1,
                            // The service stamps the job's effective
                            // brownout level after the ladder returns.
                            brownout: 0,
                        }),
                        fault_seen,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use la_core::mat;
    use std::time::{Duration, Instant};

    fn cfg() -> ServeConfig {
        ServeConfig::default()
    }

    #[test]
    fn clean_solve_serves_first_try() {
        let a: Mat<f64> = mat![[4.0, 1.0], [1.0, 3.0]];
        let b = Mat::from_col_major(2, 1, vec![9.0, 5.0]);
        let out = run(SolveOp::Gesv, &a, &b, &cfg()).outcome.unwrap();
        assert_eq!(out.attempts, 1);
        assert!(!out.degraded);
        assert!((out.x[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((out.x[(1, 0)] - 1.0).abs() < 1e-12);
        let att = run(SolveOp::GesvMixed, &a, &b, &cfg());
        let out = att.outcome.unwrap();
        assert!(!att.fault_seen);
        assert!((out.x[(0, 0)] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn definitive_errors_reject_without_retry() {
        let a: Mat<f64> = mat![[1.0, 2.0], [2.0, 4.0]]; // singular
        let b = Mat::from_col_major(2, 1, vec![1.0, 2.0]);
        let att = run(SolveOp::Gesv, &a, &b, &cfg());
        match att.outcome {
            Err(Rejection::Failed(LaError::Singular { .. })) => {}
            other => panic!("expected Failed(Singular), got {other:?}"),
        }
        assert!(!att.fault_seen, "singularity is data, not a fault");
        // Indefinite matrix through the Cholesky path.
        let a: Mat<f64> = mat![[1.0, 0.0], [0.0, -1.0]];
        let att = run(SolveOp::Posv(la_core::Uplo::Upper), &a, &b, &cfg());
        assert!(matches!(
            att.outcome,
            Err(Rejection::Failed(LaError::NotPosDef { .. }))
        ));
    }

    #[test]
    fn nonfinite_input_is_pinpointed_then_rejected() {
        let a: Mat<f64> = mat![[1.0, 0.0], [0.0, f64::NAN]];
        let b = Mat::from_col_major(2, 1, vec![1.0, 1.0]);
        // Under the default Off policy the NaN surfaces as an output scan
        // miss or propagates; force the unpinpointed entry arm by running
        // with ScanOutputs, which reports argument 0 on poisoned outputs?
        // Simpler: the ladder's contract is observable regardless of
        // which arm fired — the rejection must be Failed(NonFinite) or
        // Failed(Singular), never a panic or a served answer.
        let att = la_core::except::with_policy(FpCheckPolicy::ScanInputs, || {
            run(SolveOp::Gesv, &a, &b, &cfg())
        });
        match att.outcome {
            Err(Rejection::Failed(LaError::NonFinite { argument, .. })) => {
                assert!(argument > 0, "input screen names the argument");
            }
            other => panic!("expected Failed(NonFinite), got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_rejects_between_attempts() {
        let a: Mat<f64> = mat![[4.0, 1.0], [1.0, 3.0]];
        let b = Mat::from_col_major(2, 1, vec![9.0, 5.0]);
        let token = la_core::CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let att = cancel::with_token(token, || run(SolveOp::Gesv, &a, &b, &cfg()));
        assert_eq!(att.outcome.unwrap_err(), Rejection::DeadlineExceeded);
    }

    #[test]
    fn residual_check_accepts_legitimate_answers() {
        // A moderately conditioned 24×24 system through all four ops.
        let n = 24;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut a = Mat::<f64>::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                a[(i, j)] = next();
            }
        }
        // SPD version: S = A·Aᵀ + n·I.
        let mut s = Mat::<f64>::zeros(n, n);
        let sld = s.lda();
        la_blas::gemm(
            Trans::No,
            Trans::ConjTrans,
            n,
            n,
            n,
            1.0,
            a.as_slice(),
            a.lda(),
            a.as_slice(),
            a.lda(),
            0.0,
            s.as_mut_slice(),
            sld,
        );
        for i in 0..n {
            a[(i, i)] += n as f64; // diagonally dominant general matrix
            s[(i, i)] += n as f64;
        }
        let mut b = Mat::<f64>::zeros(n, 2);
        for j in 0..2 {
            for i in 0..n {
                b[(i, j)] = next();
            }
        }
        for op in [
            SolveOp::Gesv,
            SolveOp::GesvMixed,
            SolveOp::Posv(la_core::Uplo::Upper),
            SolveOp::PosvMixed(la_core::Uplo::Lower),
        ] {
            let m = match op {
                SolveOp::Gesv | SolveOp::GesvMixed => &a,
                _ => &s,
            };
            let att = run(op, m, &b, &cfg());
            let out = att
                .outcome
                .unwrap_or_else(|e| panic!("{} rejected a clean solve: {e}", op.as_str()));
            assert_eq!(out.attempts, 1, "{}", op.as_str());
        }
    }

    #[test]
    fn residual_check_rejects_a_corrupted_answer() {
        let a: Mat<f64> = mat![[4.0, 1.0], [1.0, 3.0]];
        let b = Mat::from_col_major(2, 1, vec![9.0, 5.0]);
        let x = Mat::from_col_major(2, 1, vec![7.0, -3.0]); // wrong
        assert!(!residual_ok(SolveOp::Gesv, &a, &b, &x));
        let good = Mat::from_col_major(2, 1, vec![2.0, 1.0]);
        assert!(residual_ok(SolveOp::Gesv, &a, &b, &good));
    }
}
