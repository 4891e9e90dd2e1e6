//! The retry-with-degradation ladder: one job's attempts, driven by the
//! substrate's typed failure taxonomy.
//!
//! Each arm pairs a failure class with what can help, and there is one
//! retry rule: the solve re-runs as it was, in the job's own frame. The
//! faults worth a retry are transient (an injected corruption disarms
//! itself on firing), so the re-run computes the clean answer under the
//! job's own ABFT and screening policies.
//!
//! * `SoftFault` (`−102`, detected corruption) → retry; exhausting the
//!   budget yields it as [`Rejection::Failed`].
//! * A worker panic → retry (the panic was isolated at the job boundary);
//!   exhausting the budget yields [`Rejection::Panicked`].
//! * A residual-check failure on a finite `INFO = 0` answer → retry;
//!   exhausting the budget yields [`Rejection::ResidualRejected`] — the
//!   service refuses to serve the answer.
//! * A non-finite answer → the job's own `A`, then `B`, is screened
//!   ([`la_core::except::all_finite`]); a NaN/Inf there is rejected as
//!   `NonFinite { argument: 1 | 2 }`, the error la90's own input screen
//!   returns, without a second factorization. From finite inputs it is
//!   retried once; a second non-finite answer is rejected
//!   `NonFinite { argument: 2 }`, the error of la90's output screen.
//! * `Cancelled` (`−103`) → [`Rejection::DeadlineExceeded`], never
//!   retried: the deadline that cancelled attempt k has also expired for
//!   attempt k+1.
//! * Everything else (singular, not-positive-definite, illegal argument,
//!   allocation failure, a NaN/Inf la90's own screen found) → definitive
//!   [`Rejection::Failed`]; no retry can change the data.
//!
//! Every attempt runs on the calling worker's [`Scratch`]: the factor copy
//! is refilled from the job's pristine `A` (attempts stay independent) and
//! the residual check computes `b − A·x` through
//! [`la_lapack::residual_working`] into the scratch's vector, so an
//! attempt allocates the `x` it may return and nothing else of its own.

use std::panic::{catch_unwind, AssertUnwindSafe};

use la_core::cancel;
use la_core::except::all_finite;
use la_core::{LaError, Mat, RealScalar, Scalar, Uplo};
use la_lapack::{max_abs1, residual_working, MixedOp};

use crate::{Rejection, ServeConfig, SolveOp, SolveOutput};

/// Scratch bytes a worker keeps between jobs. An order-96 `f64` job needs
/// 73 KB and an order-256 one 512 KB; a buffer grown past this by one large
/// request is handed back after that job instead of pinning its memory for
/// the life of the worker.
const SCRATCH_KEEP_BYTES: usize = 1 << 20;

/// One worker's reusable workspace: the factor copy every attempt
/// overwrites and the residual vector of the answer check. Owned by the
/// worker loop, so a job allocates only the `x` it returns.
pub(crate) struct Scratch<T: Scalar> {
    af: Mat<T>,
    r: Vec<T>,
}

impl<T: Scalar> Scratch<T> {
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
fn solve_once<T: Scalar>(
    op: SolveOp,
    a: &Mat<T>,
    b: &Mat<T>,
    af: &mut Mat<T>,
) -> Result<Mat<T>, LaError> {
    af.clone_from(a);
    let mut x = b.clone();
    match op {
        SolveOp::Gesv => la90::gesv(af, &mut x)?,
        SolveOp::Posv(uplo) => la90::posv_uplo(af, &mut x, uplo)?,
    }
    Ok(x)
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
        SolveOp::Gesv => MixedOp::Lu,
        SolveOp::Posv(uplo) => MixedOp::Chol(uplo),
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
/// caller has already installed the job's frame on this thread: its
/// policies, cancel token, probe scope and ABFT scope. An answer served
/// after a failed attempt comes back `degraded`.
pub(crate) fn run<T: Scalar>(
    op: SolveOp,
    a: &Mat<T>,
    b: &Mat<T>,
    cfg: &ServeConfig,
    scratch: &mut Scratch<T>,
) -> Result<SolveOutput<T>, Rejection> {
    let max = cfg.max_attempts.max(1);
    let routine = match op {
        SolveOp::Gesv => "LA_GESV",
        SolveOp::Posv(_) => "LA_POSV",
    };
    let mut attempts = 0;
    let mut poisoned = false;
    loop {
        attempts += 1;
        if cancel::cancelled() {
            return Err(Rejection::DeadlineExceeded);
        }
        let solved = catch_unwind(AssertUnwindSafe(|| solve_once(op, a, b, &mut scratch.af)));
        // What this attempt's failure is called if it is the last one.
        let failed = match solved {
            Err(_) => Rejection::Panicked { attempts },
            Ok(Err(e @ LaError::SoftFault { .. })) => Rejection::Failed(e),
            Ok(Err(LaError::Cancelled { .. })) => return Err(Rejection::DeadlineExceeded),
            Ok(Err(e)) => return Err(Rejection::Failed(e)),
            Ok(Ok(x)) => {
                if !cfg.verify_residual || residual_ok(op, a, b, &x, &mut scratch.r) {
                    return Ok(SolveOutput {
                        x,
                        attempts,
                        degraded: attempts > 1,
                    });
                }
                if !all_finite(x.as_slice()) {
                    // A NaN problem: the poisoned input is named without a
                    // second factorization; finite inputs that poison the
                    // answer twice are rejected as la90's output screen
                    // would reject them.
                    let argument = if !all_finite(a.as_slice()) {
                        Some(1)
                    } else if !all_finite(b.as_slice()) {
                        Some(2)
                    } else {
                        poisoned.then_some(2)
                    };
                    if let Some(argument) = argument {
                        return Err(Rejection::Failed(LaError::NonFinite { routine, argument }));
                    }
                    poisoned = true;
                }
                Rejection::ResidualRejected { attempts }
            }
        };
        if attempts >= max {
            return Err(failed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use la_core::except::FpCheckPolicy;
    use la_core::{mat, probe, ProbePolicy, Side, Trans};
    use std::time::{Duration, Instant};

    fn cfg() -> ServeConfig {
        ServeConfig::default()
    }

    /// The ladder as the older tests call it: a fresh workspace per run.
    fn run<T: Scalar>(
        op: SolveOp,
        a: &Mat<T>,
        b: &Mat<T>,
        cfg: &ServeConfig,
    ) -> Result<SolveOutput<T>, Rejection> {
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
        let out = run(SolveOp::Gesv, &a, &b, &cfg()).unwrap();
        assert_eq!(out.attempts, 1);
        assert!(!out.degraded);
        assert!((out.x[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((out.x[(1, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn definitive_errors_reject_without_retry() {
        let a: Mat<f64> = mat![[1.0, 2.0], [2.0, 4.0]]; // singular
        let b = Mat::from_col_major(2, 1, vec![1.0, 2.0]);
        let (outcome, attempts) = run_counted(SolveOp::Gesv, &a, &b, 3);
        match outcome {
            Err(Rejection::Failed(LaError::Singular { .. })) => {}
            other => panic!("expected Failed(Singular), got {other:?}"),
        }
        assert_eq!(attempts, 1, "singularity is data, not a fault");
        // Indefinite matrix through the Cholesky path.
        let a: Mat<f64> = mat![[1.0, 0.0], [0.0, -1.0]];
        let (outcome, attempts) = run_counted(SolveOp::Posv(Uplo::Upper), &a, &b, 3);
        assert!(matches!(
            outcome,
            Err(Rejection::Failed(LaError::NotPosDef { .. }))
        ));
        assert_eq!(attempts, 1);
    }

    /// The ladder under the default policy (no screen in la90) with a
    /// budget of `max_attempts`, and the attempts it made: its driver
    /// calls, as the probe counts them.
    fn run_counted(
        op: SolveOp,
        a: &Mat<f64>,
        b: &Mat<f64>,
        max_attempts: u32,
    ) -> (Result<SolveOutput<f64>, Rejection>, u64) {
        let cfg = ServeConfig {
            max_attempts,
            ..cfg()
        };
        let (outcome, rows) = la_core::except::with_policy(FpCheckPolicy::Off, || {
            probe::with_policy(ProbePolicy::Counters, || {
                probe::job_scope(|| run(op, a, b, &cfg))
            })
        });
        let calls = rows
            .iter()
            .filter(|r| r.routine.starts_with("LA_"))
            .map(|r| r.calls)
            .sum();
        (outcome, calls)
    }

    #[test]
    fn a_nonfinite_answer_is_rejected_by_what_poisoned_it() {
        let nan = f64::NAN;
        let spd: Mat<f64> = mat![[4.0, 1.0], [1.0, 3.0]];
        let rhs = Mat::from_col_major(2, 1, vec![9.0, 5.0]);
        let nan_a: Mat<f64> = mat![[1.0, 0.0], [0.0, nan]];
        let nan_b = Mat::from_col_major(2, 1, vec![nan, 5.0]);
        let unstored: Mat<f64> = mat![[4.0, 1.0], [nan, 3.0]];
        let tiny: Mat<f64> = mat![[1e-308, 0.0], [0.0, 1.0]];
        let huge = Mat::from_col_major(2, 1, vec![1e300, 1.0]);
        let non_finite =
            |routine, argument| Some(Rejection::Failed(LaError::NonFinite { routine, argument }));
        let first_try = |r: Option<Rejection>| std::array::from_fn(|_| (r.clone(), 1));
        // Per case: the rejection (`None`: served) and the attempts made,
        // at `max_attempts` 1, 2 and 3.
        type Case<'a> = (&'a str, SolveOp, &'a Mat<f64>, &'a Mat<f64>);
        type Want = [(Option<Rejection>, u64); 3];
        let cases: [(Case, Want); 5] = [
            (
                ("NaN in A", SolveOp::Gesv, &nan_a, &rhs),
                first_try(non_finite("LA_GESV", 1)),
            ),
            (
                ("NaN in B", SolveOp::Posv(Uplo::Upper), &spd, &nan_b),
                first_try(non_finite("LA_POSV", 2)),
            ),
            (
                ("NaN in both", SolveOp::Gesv, &nan_a, &nan_b),
                first_try(non_finite("LA_GESV", 1)),
            ),
            (
                (
                    "NaN in the unread triangle",
                    SolveOp::Posv(Uplo::Upper),
                    &unstored,
                    &rhs,
                ),
                first_try(None),
            ),
            (
                (
                    "finite system, overflowing answer",
                    SolveOp::Gesv,
                    &tiny,
                    &huge,
                ),
                [
                    (Some(Rejection::ResidualRejected { attempts: 1 }), 1),
                    (non_finite("LA_GESV", 2), 2),
                    (non_finite("LA_GESV", 2), 2),
                ],
            ),
        ];
        for ((what, op, a, b), want) in cases {
            for (max_attempts, (rejection, attempts)) in (1..).zip(want) {
                let (outcome, made) = run_counted(op, a, b, max_attempts);
                let tag = format!("{what}, max_attempts {max_attempts}");
                assert_eq!(made, attempts, "{tag}: attempts");
                match outcome {
                    Ok(out) => {
                        assert_eq!(rejection, None, "{tag}: served");
                        assert_eq!(u64::from(out.attempts), attempts, "{tag}");
                    }
                    Err(r) => assert_eq!(Some(r), rejection, "{tag}"),
                }
            }
        }
    }

    #[test]
    fn expired_deadline_rejects_between_attempts() {
        let a: Mat<f64> = mat![[4.0, 1.0], [1.0, 3.0]];
        let b = Mat::from_col_major(2, 1, vec![9.0, 5.0]);
        let token = la_core::CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let outcome = cancel::with_token(token, || run(SolveOp::Gesv, &a, &b, &cfg()));
        assert_eq!(outcome.unwrap_err(), Rejection::DeadlineExceeded);
    }

    #[test]
    fn residual_check_accepts_legitimate_answers() {
        // A moderately conditioned 24×24 system through all three ops.
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
            SolveOp::Posv(la_core::Uplo::Upper),
            SolveOp::Posv(la_core::Uplo::Lower),
        ] {
            let m = match op {
                SolveOp::Gesv => &a,
                _ => &s,
            };
            let out = run(op, m, &b, &cfg())
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
            SolveOp::Gesv => la_blas::gemm(
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
            SolveOp::Posv(uplo) => la_blas::symm(
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

    const ALL_OPS: [SolveOp; 3] = [
        SolveOp::Gesv,
        SolveOp::Posv(Uplo::Upper),
        SolveOp::Posv(Uplo::Lower),
    ];

    fn stored_triangle(op: SolveOp) -> Option<Uplo> {
        match op {
            SolveOp::Gesv => None,
            SolveOp::Posv(uplo) => Some(uplo),
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
        for op in [SolveOp::Posv(Uplo::Upper), SolveOp::Posv(Uplo::Lower)] {
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

    #[cfg(feature = "fault-inject")]
    #[test]
    fn a_wrong_answer_is_re_run_under_the_jobs_own_abft_policy() {
        use la_core::abft::inject::{arm, is_armed, CorruptKind, Corruption};
        use la_core::abft::{self, AbftPolicy};
        use la_core::probe::{Layer, Span};
        use la_core::tune::{self, TuneConfig};
        // The job runs with ABFT off, so the corrupted factor goes
        // unnoticed until the residual gate; with `par_flops: 0` any retry
        // that turned ABFT on would checksum this order-128 `getrf`, and
        // its spans would say so.
        let job = TuneConfig {
            max_threads: 1,
            par_flops: 0,
            nb_getrf: 8,
            ..TuneConfig::defaults()
        };
        let n = 128;
        let a = Mat::<f64>::from_fn(n, n, |i, j| {
            if i == j {
                n as f64
            } else {
                ((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.5
            }
        });
        let b = Mat::<f64>::from_fn(n, 1, |i, _| 1.0 + i as f64 / n as f64);
        // Block 13 of 16: no other test of this crate factors that many
        // blocks, so none of them can take the one shot.
        arm(Corruption {
            routine: "getrf",
            stripe: 13,
            kind: CorruptKind::Scale,
        });
        let outcome = tune::with(job, || {
            abft::with_policy(AbftPolicy::Off, || {
                probe::with_policy(ProbePolicy::Spans, || {
                    let _root = probe::span(Layer::Driver, "ladder_wrong_answer_rerun", 0, 0);
                    run(SolveOp::Gesv, &a, &b, &cfg())
                })
            })
        });
        assert!(!is_armed(), "the corruption did not fire");
        let out = outcome.expect("the re-run is served");
        assert_eq!(out.attempts, 2, "served on the re-run");
        assert!(out.degraded);
        let root = probe::snapshot()
            .spans
            .into_iter()
            .find(|s| s.routine == "ladder_wrong_answer_rerun")
            .expect("the test's root span");
        let attempts: Vec<&Span> = root
            .children
            .iter()
            .filter(|s| s.routine == "LA_GESV")
            .collect();
        assert_eq!(attempts.len(), 2);
        fn abft_tagged(s: &Span) -> bool {
            s.abft || s.children.iter().any(abft_tagged)
        }
        assert!(
            attempts[1].find("getrf").is_some() && !abft_tagged(attempts[1]),
            "the re-run ran under ABFT"
        );
    }
}
