//! The extra-precise refinement drivers `LA_GESVXX` / `LA_POSVXX` (the
//! `xGESVXX`/`xPOSVXX` lineage): factor in the working precision, then
//! refine with residuals accumulated in double-double, and return
//! componentwise *and* normwise backward errors plus forward error
//! estimates per right-hand side ([`RfsxOut`]).
//!
//! Unlike the plain drivers, the right-hand side is **not** overwritten:
//! the solution lands in a separate `X`, so the refinement can iterate
//! `r = B − A·X` against the caller's `B`.

use la_core::{erinfo, LaError, Mat, PositiveInfo, Scalar, Trans, Uplo};
use la_lapack as f77;
pub use la_lapack::RfsxOut;

use crate::rhs::{screen_inputs, screen_outputs, Rhs};

fn illegal(routine: &'static str, index: usize) -> LaError {
    LaError::IllegalArg { routine, index }
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
