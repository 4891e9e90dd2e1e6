//! Mixed-precision iterative-refinement drivers — `LA_GESV_MIXED` and
//! `LA_POSV_MIXED`.
//!
//! These wrap the substrate's [`f77::gesv_mixed`]/[`f77::posv_mixed`]
//! (the `DSGESV`/`DSPOSV` lineage): the O(n³) factorization runs in the
//! demoted precision of the working type's [`Demote`] pair — `f32` for
//! `f64`, `Complex<f32>` for `Complex<f64>` — the solution is refined
//! against the original working-precision matrix (residuals in double-double under
//! `LA_REFINE=dd`), and any low-precision failure — demotion
//! overflow/underflow, zero pivot, refinement stall — transparently
//! re-solves with the full working-precision factorization, bit-for-bit
//! the plain [`gesv`](crate::gesv)/[`posv`](crate::posv) result.
//!
//! The extra-precise refinement entries [`gesvxx`]/[`posvxx`] (the
//! `xGESVXX`/`xPOSVXX` lineage) always accumulate residuals in
//! double-double and return componentwise *and* normwise backward errors
//! plus forward error estimates per right-hand side ([`RfsxOut`]).
//!
//! Unlike the plain drivers, the right-hand side is **not** overwritten:
//! the solution lands in a separate `X` (the `DSGESV` calling sequence),
//! so the driver can iterate `r = B − A·X` against the caller's `B`.
//!
//! The returned `iter` follows the `DSGESV` convention — `≥ 0`: number
//! of refinement steps on the successful low-precision path; `< 0`: the
//! full-precision fallback ran (`-2` demotion overflow, `-3`
//! low-precision factorization failure, `-31` no convergence within
//! [`f77::ITERMAX`] steps). The `*_mixedx` expert forms also measure the
//! achieved normwise backward error `max_j ‖B−A·X‖∞ / (‖A‖∞‖X‖∞+‖B‖∞)`
//! against a snapshot of the original matrix.

use la_blas::{gemm, symm};
use la_core::{erinfo, Demote, LaError, Mat, Norm, PositiveInfo, RealScalar, Scalar, Trans, Uplo};
use la_lapack as f77;
pub use la_lapack::RfsxOut;

use crate::rhs::{screen_inputs, screen_outputs, Rhs};

fn illegal(routine: &'static str, index: usize) -> LaError {
    LaError::IllegalArg { routine, index }
}

/// Outcome of the expert mixed drivers ([`gesv_mixedx`] /
/// [`posv_mixedx`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedOut<R> {
    /// Refinement iteration count, `DSGESV` convention (negative: the
    /// full-precision fallback produced the solution).
    pub iter: i32,
    /// Achieved normwise backward error of the returned solution,
    /// measured against the original matrix:
    /// `max_j ‖b_j − A·x_j‖∞ / (‖A‖∞·‖x_j‖∞ + ‖b_j‖∞)`.
    pub berr: R,
}

/// Normwise backward error of `x` against the untouched copies `a0`/`b`.
fn normwise_berr<T: Scalar>(
    routine: &'static str,
    n: usize,
    nrhs: usize,
    anrm: T::Real,
    a0: &[T],
    lda: usize,
    herm_uplo: Option<Uplo>,
    b: &[T],
    ldb: usize,
    x: &[T],
    ldx: usize,
) -> Result<T::Real, LaError> {
    let mut r = crate::rhs::alloc_ws(routine, n * nrhs, T::zero())?;
    for j in 0..nrhs {
        r[j * n..j * n + n].copy_from_slice(&b[j * ldb..j * ldb + n]);
    }
    match herm_uplo {
        None => gemm(
            Trans::No,
            Trans::No,
            n,
            nrhs,
            n,
            -T::one(),
            a0,
            lda,
            x,
            ldx,
            T::one(),
            &mut r,
            n,
        ),
        Some(uplo) => symm(
            T::IS_COMPLEX,
            la_core::Side::Left,
            uplo,
            n,
            nrhs,
            -T::one(),
            a0,
            lda,
            x,
            ldx,
            T::one(),
            &mut r,
            n,
        ),
    }
    let mut berr = T::Real::zero();
    for j in 0..nrhs {
        let (mut rnrm, mut xnrm, mut bnrm) = (T::Real::zero(), T::Real::zero(), T::Real::zero());
        for i in 0..n {
            rnrm = rnrm.maxr(r[i + j * n].abs1());
            xnrm = xnrm.maxr(x[i + j * ldx].abs1());
            bnrm = bnrm.maxr(b[i + j * ldb].abs1());
        }
        let den = anrm * xnrm + bnrm;
        if den > T::Real::zero() {
            berr = berr.maxr(rnrm / den);
        }
    }
    Ok(berr)
}

fn gesv_mixed_opt<T, B, X>(
    a: &mut Mat<T>,
    b: &B,
    x: &mut X,
    ipiv: Option<&mut [i32]>,
    want_berr: bool,
) -> Result<MixedOut<T::Real>, LaError>
where
    T: Demote,
    B: Rhs<T> + ?Sized,
    X: Rhs<T> + ?Sized,
{
    const SRNAME: &str = "LA_GESV_MIXED";
    let _probe = crate::rhs::driver_span(SRNAME);
    let n = a.nrows();
    if !a.is_square() {
        return Err(illegal(SRNAME, 1));
    }
    if b.nrows() != n {
        return Err(illegal(SRNAME, 2));
    }
    if x.nrows() != n || x.nrhs() != b.nrhs() {
        return Err(illegal(SRNAME, 3));
    }
    if let Some(p) = &ipiv {
        if p.len() != n {
            return Err(illegal(SRNAME, 4));
        }
    }
    screen_inputs!(SRNAME, 1 => a.as_slice(), 2 => b.as_slice());
    let mut local;
    let piv: &mut [i32] = match ipiv {
        Some(p) => p,
        None => {
            local = crate::rhs::alloc_ws(SRNAME, n, 0i32)?;
            &mut local
        }
    };
    let nrhs = b.nrhs();
    let (lda, ldb, ldx) = (a.lda(), b.ldb(), x.ldb());
    // The expert form measures the achieved backward error against the
    // original matrix, which the fallback path overwrites — snapshot it.
    let (a0, anrm) = if want_berr {
        let mut a0 = crate::rhs::alloc_ws(SRNAME, a.as_slice().len(), T::zero())?;
        a0.copy_from_slice(a.as_slice());
        (a0, f77::lange(Norm::Inf, n, n, a.as_slice(), lda))
    } else {
        (Vec::new(), T::Real::zero())
    };
    let mut iter = 0i32;
    let linfo = f77::gesv_mixed(
        n,
        nrhs,
        a.as_mut_slice(),
        lda,
        piv,
        b.as_slice(),
        ldb,
        x.as_mut_slice(),
        ldx,
        &mut iter,
    );
    erinfo(linfo, SRNAME, PositiveInfo::Singular)?;
    screen_outputs(SRNAME, 3, x.as_slice())?;
    let berr = if want_berr {
        normwise_berr(
            SRNAME,
            n,
            nrhs,
            anrm,
            &a0,
            lda,
            None,
            b.as_slice(),
            ldb,
            x.as_slice(),
            ldx,
        )?
    } else {
        T::Real::zero()
    };
    Ok(MixedOut { iter, berr })
}

/// `CALL LA_GESV_MIXED( A, B, X, INFO=info )` — solves `A·X = B` by LU
/// factorization in the demoted precision with working-precision
/// iterative refinement; transparently falls back to the plain
/// full-precision [`gesv`](crate::gesv) on any low-precision failure.
/// `B` is left untouched; the solution lands in `X`. Returns the
/// refinement iteration count (`DSGESV` convention, negative on
/// fallback).
///
/// ```
/// use la_core::mat;
/// let mut a: la_core::Mat<f64> = mat![[4.0, 1.0], [1.0, 3.0]];
/// let b: Vec<f64> = vec![9.0, 5.0]; // solution is (2, 1)ᵀ
/// let mut x = vec![0.0f64; 2];
/// let iter = la90::gesv_mixed(&mut a, &b, &mut x)?;
/// assert!(iter >= 0); // low-precision path converged
/// assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), la_core::LaError>(())
/// ```
pub fn gesv_mixed<T, B, X>(a: &mut Mat<T>, b: &B, x: &mut X) -> Result<i32, LaError>
where
    T: Demote,
    B: Rhs<T> + ?Sized,
    X: Rhs<T> + ?Sized,
{
    gesv_mixed_opt(a, b, x, None, false).map(|o| o.iter)
}

/// [`gesv_mixed`] with the optional `IPIV` output (length `a.nrows()`;
/// `INFO = -4` otherwise). On the low-precision path the pivots are
/// those of the demoted factorization.
pub fn gesv_mixed_ipiv<T, B, X>(
    a: &mut Mat<T>,
    b: &B,
    x: &mut X,
    ipiv: &mut [i32],
) -> Result<i32, LaError>
where
    T: Demote,
    B: Rhs<T> + ?Sized,
    X: Rhs<T> + ?Sized,
{
    gesv_mixed_opt(a, b, x, Some(ipiv), false).map(|o| o.iter)
}

/// Expert form of [`gesv_mixed`]: also measures the achieved normwise
/// backward error of the returned solution against a snapshot of the
/// original `A` (an extra O(n²) gemm + the snapshot copy).
pub fn gesv_mixedx<T, B, X>(a: &mut Mat<T>, b: &B, x: &mut X) -> Result<MixedOut<T::Real>, LaError>
where
    T: Demote,
    B: Rhs<T> + ?Sized,
    X: Rhs<T> + ?Sized,
{
    gesv_mixed_opt(a, b, x, None, true)
}

fn posv_mixed_opt<T, B, X>(
    a: &mut Mat<T>,
    b: &B,
    x: &mut X,
    uplo: Uplo,
    want_berr: bool,
) -> Result<MixedOut<T::Real>, LaError>
where
    T: Demote,
    B: Rhs<T> + ?Sized,
    X: Rhs<T> + ?Sized,
{
    const SRNAME: &str = "LA_POSV_MIXED";
    let _probe = crate::rhs::driver_span(SRNAME);
    let n = a.nrows();
    if !a.is_square() {
        return Err(illegal(SRNAME, 1));
    }
    if b.nrows() != n {
        return Err(illegal(SRNAME, 2));
    }
    if x.nrows() != n || x.nrhs() != b.nrhs() {
        return Err(illegal(SRNAME, 3));
    }
    screen_inputs!(SRNAME, 1 => a.as_slice(), 2 => b.as_slice());
    let nrhs = b.nrhs();
    let (lda, ldb, ldx) = (a.lda(), b.ldb(), x.ldb());
    let (a0, anrm) = if want_berr {
        let mut a0 = crate::rhs::alloc_ws(SRNAME, a.as_slice().len(), T::zero())?;
        a0.copy_from_slice(a.as_slice());
        (
            a0,
            f77::lansy(Norm::Inf, uplo, T::IS_COMPLEX, n, a.as_slice(), lda),
        )
    } else {
        (Vec::new(), T::Real::zero())
    };
    let mut iter = 0i32;
    let linfo = f77::posv_mixed(
        uplo,
        n,
        nrhs,
        a.as_mut_slice(),
        lda,
        b.as_slice(),
        ldb,
        x.as_mut_slice(),
        ldx,
        &mut iter,
    );
    erinfo(linfo, SRNAME, PositiveInfo::NotPosDef)?;
    screen_outputs(SRNAME, 3, x.as_slice())?;
    let berr = if want_berr {
        normwise_berr(
            SRNAME,
            n,
            nrhs,
            anrm,
            &a0,
            lda,
            Some(uplo),
            b.as_slice(),
            ldb,
            x.as_slice(),
            ldx,
        )?
    } else {
        T::Real::zero()
    };
    Ok(MixedOut { iter, berr })
}

/// `CALL LA_POSV_MIXED( A, B, X, INFO=info )` — solves the
/// symmetric/Hermitian positive-definite `A·X = B` by Cholesky in the
/// demoted precision with working-precision refinement; falls back to
/// the plain [`posv`](crate::posv) on any low-precision failure. Uses
/// the upper triangle (the Fortran `UPLO` default); `B` is untouched,
/// the solution lands in `X`. Returns the iteration count.
pub fn posv_mixed<T, B, X>(a: &mut Mat<T>, b: &B, x: &mut X) -> Result<i32, LaError>
where
    T: Demote,
    B: Rhs<T> + ?Sized,
    X: Rhs<T> + ?Sized,
{
    posv_mixed_opt(a, b, x, Uplo::Upper, false).map(|o| o.iter)
}

/// [`posv_mixed`] with an explicit `UPLO`.
pub fn posv_mixed_uplo<T, B, X>(
    a: &mut Mat<T>,
    b: &B,
    x: &mut X,
    uplo: Uplo,
) -> Result<i32, LaError>
where
    T: Demote,
    B: Rhs<T> + ?Sized,
    X: Rhs<T> + ?Sized,
{
    posv_mixed_opt(a, b, x, uplo, false).map(|o| o.iter)
}

/// Expert form of [`posv_mixed`]: explicit `UPLO` plus the achieved
/// normwise backward error measured against a snapshot of the original
/// `A`.
pub fn posv_mixedx<T, B, X>(
    a: &mut Mat<T>,
    b: &B,
    x: &mut X,
    uplo: Uplo,
) -> Result<MixedOut<T::Real>, LaError>
where
    T: Demote,
    B: Rhs<T> + ?Sized,
    X: Rhs<T> + ?Sized,
{
    posv_mixed_opt(a, b, x, uplo, true)
}

/// `CALL LA_GESVXX( A, B, X, BERR=, NBERR=, FERR=, INFO= )` — solve
/// `A·X = B` with LU in the working precision, then drive the solution to
/// working-precision backward error with extra-precise (double-double)
/// residual refinement (`xGESVXX` semantics, without equilibration). `A`
/// is overwritten by its factors; `B` is untouched. Returns the per-rhs
/// componentwise/normwise backward errors and forward error estimates —
/// on badly conditioned systems (Hilbert up to `n = 12`) the refined
/// solution reaches componentwise backward error `≤ 4ε` where the plain
/// solve does not.
pub fn gesvxx<T, B, X>(a: &mut Mat<T>, b: &B, x: &mut X) -> Result<RfsxOut<T::Real>, LaError>
where
    T: Scalar,
    B: Rhs<T> + ?Sized,
    X: Rhs<T> + ?Sized,
{
    const SRNAME: &str = "LA_GESVXX";
    let _probe = crate::rhs::driver_span(SRNAME);
    let n = a.nrows();
    if !a.is_square() {
        return Err(illegal(SRNAME, 1));
    }
    if b.nrows() != n {
        return Err(illegal(SRNAME, 2));
    }
    if x.nrows() != n || x.nrhs() != b.nrhs() {
        return Err(illegal(SRNAME, 3));
    }
    screen_inputs!(SRNAME, 1 => a.as_slice(), 2 => b.as_slice());
    let nrhs = b.nrhs();
    let (lda, ldb, ldx) = (a.lda(), b.ldb(), x.ldb());
    // The refinement iterates against the original matrix, which the
    // factorization overwrites — snapshot it first.
    let mut a0 = crate::rhs::alloc_ws(SRNAME, a.as_slice().len(), T::zero())?;
    a0.copy_from_slice(a.as_slice());
    let mut ipiv = crate::rhs::alloc_ws(SRNAME, n, 0i32)?;
    let linfo = f77::getrf(n, n, a.as_mut_slice(), lda, &mut ipiv);
    erinfo(linfo, SRNAME, PositiveInfo::Singular)?;
    for j in 0..nrhs {
        x.as_mut_slice()[j * ldx..j * ldx + n].copy_from_slice(&b.as_slice()[j * ldb..j * ldb + n]);
    }
    let linfo = f77::getrs(
        Trans::No,
        n,
        nrhs,
        a.as_slice(),
        lda,
        &ipiv,
        x.as_mut_slice(),
        ldx,
    );
    erinfo(linfo, SRNAME, PositiveInfo::Singular)?;
    let (linfo, out) = f77::gerfsx(
        Trans::No,
        n,
        nrhs,
        &a0,
        lda,
        a.as_slice(),
        lda,
        &ipiv,
        b.as_slice(),
        ldb,
        x.as_mut_slice(),
        ldx,
    );
    erinfo(linfo, SRNAME, PositiveInfo::Singular)?;
    screen_outputs(SRNAME, 3, x.as_slice())?;
    Ok(out)
}

/// `CALL LA_POSVXX( A, B, X, UPLO=, ... )` — the symmetric/Hermitian
/// positive-definite companion of [`gesvxx`]: Cholesky in the working
/// precision plus extra-precise residual refinement (`xPOSVXX`
/// semantics). Only the `uplo` triangle is referenced; `A` is overwritten
/// by its factor.
pub fn posvxx<T, B, X>(
    a: &mut Mat<T>,
    b: &B,
    x: &mut X,
    uplo: Uplo,
) -> Result<RfsxOut<T::Real>, LaError>
where
    T: Scalar,
    B: Rhs<T> + ?Sized,
    X: Rhs<T> + ?Sized,
{
    const SRNAME: &str = "LA_POSVXX";
    let _probe = crate::rhs::driver_span(SRNAME);
    let n = a.nrows();
    if !a.is_square() {
        return Err(illegal(SRNAME, 1));
    }
    if b.nrows() != n {
        return Err(illegal(SRNAME, 2));
    }
    if x.nrows() != n || x.nrhs() != b.nrhs() {
        return Err(illegal(SRNAME, 3));
    }
    screen_inputs!(SRNAME, 1 => a.as_slice(), 2 => b.as_slice());
    let nrhs = b.nrhs();
    let (lda, ldb, ldx) = (a.lda(), b.ldb(), x.ldb());
    let mut a0 = crate::rhs::alloc_ws(SRNAME, a.as_slice().len(), T::zero())?;
    a0.copy_from_slice(a.as_slice());
    let linfo = f77::potrf(uplo, n, a.as_mut_slice(), lda);
    erinfo(linfo, SRNAME, PositiveInfo::NotPosDef)?;
    for j in 0..nrhs {
        x.as_mut_slice()[j * ldx..j * ldx + n].copy_from_slice(&b.as_slice()[j * ldb..j * ldb + n]);
    }
    let linfo = f77::potrs(uplo, n, nrhs, a.as_slice(), lda, x.as_mut_slice(), ldx);
    erinfo(linfo, SRNAME, PositiveInfo::NotPosDef)?;
    let (linfo, out) = f77::porfsx(
        uplo,
        n,
        nrhs,
        &a0,
        lda,
        a.as_slice(),
        lda,
        b.as_slice(),
        ldb,
        x.as_mut_slice(),
        ldx,
    );
    erinfo(linfo, SRNAME, PositiveInfo::NotPosDef)?;
    screen_outputs(SRNAME, 3, x.as_slice())?;
    Ok(out)
}
