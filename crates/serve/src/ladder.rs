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
//!
//! Every attempt runs on the calling worker's [`Scratch`]: the factor copy
//! is refilled from the job's pristine `A` (attempts stay independent) and
//! the residual check computes `b − A·x` through
//! [`la_lapack::residual_working`] into the scratch's vector, so an
//! attempt allocates the `x` it may return and nothing else of its own.

use std::panic::{catch_unwind, AssertUnwindSafe};

use la_core::abft::AbftPolicy;
use la_core::except::FpCheckPolicy;
use la_core::Demote;
use la_core::{cancel, ctx};
use la_core::{LaError, Mat, RealScalar, Scalar, Uplo};
use la_lapack::{max_abs1, residual_working, MixedOp};

use crate::{Rejection, ServeConfig, SolveOp, SolveOutput};

/// A finished ladder run: the outcome plus whether any fault-class event
/// (panic, soft fault, residual failure, NaN re-screen) occurred on the
/// way — the input to the per-tenant fault streak.
pub(crate) struct Attempted<T: Demote> {
    pub outcome: Result<SolveOutput<T>, Rejection>,
    pub fault_seen: bool,
}

/// Scratch bytes a worker keeps between jobs. An order-96 `f64` job needs
/// 73 KB and an order-256 one 512 KB; a buffer grown past this by one large
/// request is handed back after that job instead of pinning its memory for
/// the life of the worker.
const SCRATCH_KEEP_BYTES: usize = 1 << 20;

/// One worker's reusable workspace: the factor copy every attempt
/// overwrites and the residual vector of the answer check. Owned by the
/// worker loop, so a job allocates only the `x` it returns.
pub(crate) struct Scratch<T: Demote> {
    af: Mat<T>,
    r: Vec<T>,
}

impl<T: Demote> Scratch<T> {
    pub(crate) fn new() -> Self {
        Scratch {
            af: Mat::zeros(0, 0),
            r: Vec::new(),
        }
    }

    /// Releases what the last job grew past [`SCRATCH_KEEP_BYTES`].
    pub(crate) fn trim(&mut self) {
        let held = (self.af.as_slice().len() + self.r.capacity()) * std::mem::size_of::<T>();
        if held > SCRATCH_KEEP_BYTES {
            *self = Scratch::new();
        }
    }
}

/// One solve attempt. The job's `a`/`b` stay pristine (attempts must be
/// independent): the factor copy is refilled from `a` into the worker's
/// scratch, and the only allocation is the `x` the caller receives.
fn solve_once<T: Demote>(
    op: SolveOp,
    a: &Mat<T>,
    b: &Mat<T>,
    af: &mut Mat<T>,
) -> Result<(Mat<T>, i32), LaError> {
    af.clone_from(a);
    match op {
        SolveOp::Gesv => {
            let mut x = b.clone();
            la90::gesv(af, &mut x)?;
            Ok((x, 0))
        }
        SolveOp::Posv(uplo) => {
            let mut x = b.clone();
            la90::posv_uplo(af, &mut x, uplo)?;
            Ok((x, 0))
        }
        SolveOp::GesvMixed => {
            let mut x = Mat::zeros(b.nrows(), b.ncols());
            let iter = la90::gesv_mixed(af, b, &mut x)?;
            Ok((x, iter))
        }
        SolveOp::PosvMixed(uplo) => {
            let mut x = Mat::zeros(b.nrows(), b.ncols());
            let iter = la90::posv_mixed_uplo(af, b, &mut x, uplo)?;
            Ok((x, iter))
        }
    }
}

/// `max |a_ij|` (`abs1` moduli) over the part of `A` the op reads: all of it
/// for the LU ops, the stored triangle for the Cholesky ops. NaN if that
/// part holds one.
fn stored_amax<T: Scalar>(op: MixedOp, a: &Mat<T>) -> T::Real {
    let MixedOp::Chol(uplo) = op else {
        return max_abs1(a.as_slice());
    };
    let mut amax = T::Real::zero();
    for j in 0..a.ncols() {
        let col = match uplo {
            Uplo::Upper => &a.col(j)[..=j],
            Uplo::Lower => &a.col(j)[j..],
        };
        let c = max_abs1(col);
        if c.is_nan() {
            return c;
        }
        amax = amax.maxr(c);
    }
    amax
}

/// Normwise residual acceptance: for every column,
/// `‖b_j − A·x_j‖∞ ≤ tol · (n·max|A|·‖x_j‖∞ + ‖b_j‖∞)` with
/// `tol = 64·n·ε` — loose enough for legitimate pivot growth, tight
/// enough that a corrupted stripe (an O(1)-relative error) cannot pass.
///
/// The residual is [`la_lapack::residual_working`] into the worker's
/// scratch `r` — a `gemv`/`hemv` per column up to two right-hand sides,
/// one `gemm`/`symm` above — and every norm is [`la_lapack::max_abs1`],
/// whose NaN sticks wherever it sits. The `Posv` ops read the stored
/// triangle only, for the product and for `max|A|`, so a caller who filled
/// only one triangle is judged fairly. At n = 96, one right-hand side, that
/// is ≈ 5 µs beside a 35–50 µs solve (EXPERIMENTS.md, "A served solve costs
/// what it computes").
fn residual_ok<T: Scalar>(op: SolveOp, a: &Mat<T>, b: &Mat<T>, x: &Mat<T>, r: &mut Vec<T>) -> bool {
    let n = a.nrows();
    let nrhs = b.ncols();
    if n == 0 || nrhs == 0 {
        return true;
    }
    let mop = match op {
        SolveOp::Gesv | SolveOp::GesvMixed => MixedOp::Lu,
        SolveOp::Posv(uplo) | SolveOp::PosvMixed(uplo) => MixedOp::Chol(uplo),
    };
    if r.len() < n * nrhs {
        r.resize(n * nrhs, T::zero());
    }
    residual_working(
        mop,
        n,
        nrhs,
        a.as_slice(),
        a.lda(),
        b.as_slice(),
        b.lda(),
        x.as_slice(),
        x.lda(),
        r,
    );
    let amax = stored_amax(mop, a);
    let nr = T::Real::from_usize(n);
    let tol = T::Real::EPS * nr * T::Real::from_usize(64);
    for j in 0..nrhs {
        let rnrm = max_abs1(&r[j * n..(j + 1) * n]);
        let xnrm = max_abs1(x.col(j));
        let bnrm = max_abs1(b.col(j));
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

/// Runs the ladder for one job on the worker's `scratch`. Assumes the
/// caller has already installed the job's cancel token, probe scope and
/// ABFT scope on this thread.
pub(crate) fn run<T: Demote>(
    op: SolveOp,
    a: &Mat<T>,
    b: &Mat<T>,
    cfg: &ServeConfig,
    scratch: &mut Scratch<T>,
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
            ctx::with(attempt, || solve_once(op, a, b, &mut scratch.af))
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
                if cfg.verify_residual && !residual_ok(op, a, b, &x, &mut scratch.r) {
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
    use la_core::{mat, Side, Trans};
    use std::time::{Duration, Instant};

    fn cfg() -> ServeConfig {
        ServeConfig::default()
    }

    /// The ladder as the older tests call it: a fresh workspace per run.
    fn run<T: Demote>(op: SolveOp, a: &Mat<T>, b: &Mat<T>, cfg: &ServeConfig) -> Attempted<T> {
        super::run(op, a, b, cfg, &mut Scratch::new())
    }

    /// Likewise the gate, on a residual vector of its own.
    fn residual_ok<T: Scalar>(op: SolveOp, a: &Mat<T>, b: &Mat<T>, x: &Mat<T>) -> bool {
        super::residual_ok(op, a, b, x, &mut Vec::new())
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
    /// The gate as the parent commit had it — `gemm`/`symm` into a clone of
    /// `b`, element-indexed `maxr` folds, `max|A|` over the whole square —
    /// kept as the oracle the rewritten one must agree with on finite data.
    fn residual_ok_oracle<T: Scalar>(op: SolveOp, a: &Mat<T>, b: &Mat<T>, x: &Mat<T>) -> bool {
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
            let (mut rnrm, mut xnrm, mut bnrm) =
                (T::Real::zero(), T::Real::zero(), T::Real::zero());
            for i in 0..n {
                rnrm = rnrm.maxr(r[(i, j)].abs1());
                xnrm = xnrm.maxr(x[(i, j)].abs1());
                bnrm = bnrm.maxr(b[(i, j)].abs1());
            }
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

    const ALL_OPS: [SolveOp; 6] = [
        SolveOp::Gesv,
        SolveOp::GesvMixed,
        SolveOp::Posv(Uplo::Upper),
        SolveOp::Posv(Uplo::Lower),
        SolveOp::PosvMixed(Uplo::Upper),
        SolveOp::PosvMixed(Uplo::Lower),
    ];

    fn stored_triangle(op: SolveOp) -> Option<Uplo> {
        match op {
            SolveOp::Gesv | SolveOp::GesvMixed => None,
            SolveOp::Posv(uplo) | SolveOp::PosvMixed(uplo) => Some(uplo),
        }
    }

    /// A seeded system for `op` with its computed answer: a diagonally
    /// dominant general matrix for the LU ops, `G·Gᴴ + n·I` with both
    /// triangles filled for the Cholesky ops. Solved by the plain driver of
    /// the op's family (the gate does not care which driver answered).
    fn solved_system<T: Scalar>(
        op: SolveOp,
        n: usize,
        nrhs: usize,
        seed: u64,
    ) -> (Mat<T>, Mat<T>, Mat<T>) {
        let mut state = seed | 1;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut entry = move || {
            let (re, im) = (unit(), unit());
            T::from_re_im(T::Real::from_f64(re), T::Real::from_f64(im))
        };
        let g = Mat::<T>::from_fn(n, n, |_, _| entry());
        let mut a = g.clone();
        if stored_triangle(op).is_some() {
            let lda = a.lda();
            la_blas::gemm(
                Trans::No,
                Trans::ConjTrans,
                n,
                n,
                n,
                T::one(),
                g.as_slice(),
                g.lda(),
                g.as_slice(),
                g.lda(),
                T::zero(),
                a.as_mut_slice(),
                lda,
            );
        }
        for i in 0..n {
            a[(i, i)] += T::from_f64(n as f64);
        }
        let b = Mat::<T>::from_fn(n, nrhs, |_, _| entry());
        let (mut af, mut x) = (a.clone(), b.clone());
        match stored_triangle(op) {
            None => la90::gesv(&mut af, &mut x).unwrap(),
            Some(uplo) => la90::posv_uplo(&mut af, &mut x, uplo).unwrap(),
        }
        (a, b, x)
    }

    /// `v` with one bit of its real part's significand flipped: the lowest
    /// one the type stores, or the highest.
    fn flip_bit<T: Scalar>(v: T, highest: bool) -> T {
        let lowest = if std::mem::size_of::<T::Real>() == 4 {
            29
        } else {
            0
        };
        let bit = if highest { 51 } else { lowest };
        let re = f64::from_bits(v.re().to_f64().to_bits() ^ (1u64 << bit));
        T::from_re_im(T::Real::from_f64(re), v.im())
    }

    fn gate_agrees_with_the_parents<T: Scalar>() {
        for (k, op) in ALL_OPS.into_iter().enumerate() {
            for nrhs in [1usize, 2, 3, 5] {
                let n = 19 + nrhs; // ragged against the reduction's eight lanes
                let (a, b, x) =
                    solved_system::<T>(op, n, nrhs, 0x9e37_79b9 + (k * 8 + nrhs) as u64);
                // Spoil the largest entry of the last column, so every
                // column has to be looked at and the damage is O(‖x‖).
                let j = nrhs - 1;
                let i = la_blas::iamax(n, x.col(j), 1);
                let spoiled = |f: &dyn Fn(T) -> T| {
                    let mut y = x.clone();
                    y[(i, j)] = f(x[(i, j)]);
                    y
                };
                let cases: [(&str, Mat<T>, bool); 5] = [
                    ("clean", x.clone(), true),
                    ("lowest bit flipped", spoiled(&|v| flip_bit(v, false)), true),
                    (
                        "highest bit flipped",
                        spoiled(&|v| flip_bit(v, true)),
                        false,
                    ),
                    ("entry doubled", spoiled(&|v| v + v), false),
                    ("entry zeroed", spoiled(&|_| T::zero()), false),
                ];
                for (what, y, expect) in cases {
                    let tag = format!("{} {} nrhs={nrhs}: {what}", T::PREFIX, op.as_str());
                    let got = residual_ok(op, &a, &b, &y);
                    assert_eq!(got, residual_ok_oracle(op, &a, &b, &y), "{tag}");
                    assert_eq!(got, expect, "{tag}");
                }
            }
        }
    }

    #[test]
    fn gate_decides_as_the_parents_did_on_finite_answers() {
        gate_agrees_with_the_parents::<f32>();
        gate_agrees_with_the_parents::<f64>();
        gate_agrees_with_the_parents::<la_core::C32>();
        gate_agrees_with_the_parents::<la_core::C64>();
    }

    fn other_triangle_is_never_read<T: Scalar>() {
        for op in [SolveOp::Posv(Uplo::Upper), SolveOp::PosvMixed(Uplo::Lower)] {
            let uplo = stored_triangle(op).unwrap();
            let (mut a, b, x) = solved_system::<T>(op, 21, 2, 0xfeed);
            for j in 0..21 {
                for i in 0..21 {
                    let unstored = match uplo {
                        Uplo::Upper => i > j,
                        Uplo::Lower => i < j,
                    };
                    if unstored {
                        a[(i, j)] = T::from_real(T::Real::nan());
                    }
                }
            }
            // (The parent read the whole square for `max|A|`: finite garbage
            // there loosened its bound, a NaN made it order-dependent.)
            assert!(residual_ok(op, &a, &b, &x), "{}", op.as_str());
            let mut wrong = x.clone();
            wrong[(3, 1)] += T::one();
            assert!(!residual_ok(op, &a, &b, &wrong), "{}", op.as_str());
        }
    }

    #[test]
    fn cholesky_gate_reads_the_stored_triangle_only() {
        other_triangle_is_never_read::<f64>();
        other_triangle_is_never_read::<la_core::C64>();
    }

    fn leading_nonfinite_is_rejected<T: Scalar>() {
        for op in [SolveOp::Gesv, SolveOp::Posv(Uplo::Upper)] {
            let (a, b, x) = solved_system::<T>(op, 17, 2, 0xabcd);
            for poison in [T::Real::nan(), T::Real::one() / T::Real::zero()] {
                // The only non-finite entry is the first one of a column:
                // every later element is finite, which is what a `maxr`
                // fold forgets a NaN over.
                for j in 0..2 {
                    let mut y = x.clone();
                    y[(0, j)] = T::from_real(poison);
                    assert!(
                        !residual_ok(op, &a, &b, &y),
                        "{} {}",
                        T::PREFIX,
                        op.as_str()
                    );
                }
            }
        }
    }

    #[test]
    fn gate_rejects_an_answer_whose_only_nonfinite_entry_comes_first() {
        leading_nonfinite_is_rejected::<f64>();
        leading_nonfinite_is_rejected::<la_core::C64>();
    }
}
