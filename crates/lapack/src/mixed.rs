//! Mixed-precision iterative-refinement solve (`xSGESV` lineage): factor
//! in the demoted precision of the working type's [`Demote`] pair
//! (`f64 → f32`, `Complex<f64> → Complex<f32>`), refine in the working
//! precision — with residuals optionally accumulated in double-double —
//! and fall back to the full-precision factorization whenever the cheap
//! path cannot deliver working-precision backward error.
//!
//! The algorithm is Dongarra's `DSGESV`/`ZCGESV`, extended to the
//! GMRES-IR-style three-precision regime (Carson–Higham): demote `A`
//! (and `B`), run the existing generic [`getrf`] + [`getrs`] on the
//! low-precision copy, promote the solution and iterate
//!
//! ```text
//! r = b − A·x          (working precision, or double-double when
//!                       LA_REFINE=dd — the extended-residual regime)
//! A·d ≈ r              (low-precision factored solve, residual
//!                       pre-scaled by an exact power of two)
//! x = x + d
//! ```
//!
//! declaring convergence when every right-hand side satisfies the
//! `DSGESV` backward-error test `‖r‖∞ ≤ ‖x‖∞ · ‖A‖∞ · ε · √n` (see
//! [`bwd_threshold`]), for at most [`ITERMAX`] iterations.
//!
//! The residual precision comes from `la_core::tune` (`LA_REFINE` =
//! `working`|`dd`).
//!
//! The path taken is reported through the `iter` out-parameter with the
//! exact `DSGESV` convention:
//!
//! * `iter ≥ 0` — the low-precision path succeeded after `iter`
//!   refinement steps (`0`: the first solve was already good enough);
//! * `iter = -2` — an entry of `A` or `B` left the low precision's
//!   representable range during demotion: overflow to infinity (the
//!   `DLAG2S` failure mode) *or* underflow of a non-zero entry to zero
//!   (unflagged, it sends the loop diverging instead of falling back);
//! * `iter = -3` — the low-precision factorization hit a zero pivot;
//! * `iter = -(ITERMAX+1)` — refinement ran [`ITERMAX`] steps without
//!   converging.
//!
//! Every negative `iter` means the routine transparently re-solved with
//! the full working-precision factorization — the exact operation
//! sequence of plain [`gesv`](crate::gesv), so the fallback result is
//! bitwise identical to the plain driver's.
//!
//! Residual columns are scaled by an exact power of two before each
//! demotion, so a residual that has legitimately shrunk toward the
//! convergence floor cannot spuriously underflow the low precision's
//! range (the scaling is exact in both precisions and the triangular
//! solves are degree-1 homogeneous, so the correction is unchanged).
//!
//! The low-precision stages run inside [`probe::with_lo`], so span trees
//! and counters report the demoted flops separately from the
//! working-precision refinement around them.
//!
//! The residual engines here, [`residual_working`] and `residual_dd`,
//! also read one triangle of a Hermitian matrix ([`MixedOp::Chol`]): the
//! `posvxx` refinement and `la-serve`'s answer check of a served Cholesky
//! solve use them that way.

use la_blas::{gemm, gemv, hemv, symm};
use la_core::dd::Dd;
use la_core::mixed::{demote_slice, Demote, Promote};
use la_core::tune::{self, RefineMode};
use la_core::{probe, Norm, RealScalar, Scalar, Trans, Uplo};

use crate::aux::{lange, max_abs1};
use crate::lu::{getrf, getrs};

/// Maximum number of refinement iterations before the driver gives up on
/// the low-precision path (`ITERMAX` in `DSGESV`).
pub const ITERMAX: i32 = 30;

/// `BWDMAX` of `DSGESV`: multiplier on the backward-error threshold.
const BWDMAX: f64 = 1.0;

/// The `DSGESV` convergence threshold: `anrm · ε · √n · BWDMAX`, with
/// `ε` the *working* precision's unit roundoff and `anrm = ‖A‖∞`. A
/// refined solution whose residual satisfies
/// `‖r‖∞ ≤ ‖x‖∞ · bwd_threshold(anrm, n)` has working-precision
/// normwise backward error whatever precision did the factoring. Public so tests can lock the formula per type.
pub fn bwd_threshold<R: RealScalar>(anrm: R, n: usize) -> R {
    anrm * R::EPS * R::from_usize(n).sqrt_r() * R::from_f64(BWDMAX)
}

/// Which storage of `A` a residual reads: a general matrix (the LU
/// solves — `gesv_mixed`, `gesvxx`), or one triangle of a symmetric /
/// Hermitian one (the Cholesky solves — `posvxx`, the served `posv`
/// answer check).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MixedOp {
    /// A general matrix, every entry stored.
    Lu,
    /// Only the given triangle is stored; the residual reads that
    /// triangle, mirroring (conjugate-)symmetrically.
    Chol(Uplo),
}

/// Demotes an `rows × cols` working-precision matrix (leading dimension
/// `ld`) into a tight low-precision copy; `None` when an entry leaves the
/// low precision's representable range (overflow *or* underflow-to-zero).
fn demote_mat<T: Demote>(rows: usize, cols: usize, a: &[T], ld: usize) -> Option<Vec<T::Lo>> {
    let mut out = vec![T::Lo::zero(); rows * cols];
    for j in 0..cols {
        let (src, dst) = (&a[j * ld..][..rows], &mut out[j * rows..][..rows]);
        if !demote_slice(src, dst).ok() {
            return None;
        }
    }
    Some(out)
}

/// Demotes the residual block column-by-column with an exact power-of-two
/// pre-scaling: column `j` is multiplied by `scales[j] = 2^(−⌈log₂‖r_j‖∞⌉)`
/// so its magnitude lands at ~1 before rounding down. Only *overflow* is a
/// failure here — a residual component far below the column norm is below
/// the low precision's resolution anyway, and zeroing it changes nothing
/// the low-precision solve could see. Returns `false` on overflow.
fn demote_residual<T: Demote>(
    n: usize,
    nrhs: usize,
    r: &[T],
    sr: &mut [T::Lo],
    scales: &mut [T::Real],
) -> bool {
    let mut scaled = vec![T::zero(); n];
    for j in 0..nrhs {
        let col = &r[j * n..j * n + n];
        let rn = max_abs1(col).to_f64();
        let s = if rn > 0.0 && rn.is_finite() {
            T::Real::from_f64(2f64.powi(-(rn.log2().ceil() as i32)))
        } else {
            T::Real::one()
        };
        scales[j] = s;
        for (d, &v) in scaled.iter_mut().zip(col) {
            *d = v.mul_real(s);
        }
        if demote_slice(&scaled, &mut sr[j * n..j * n + n]).overflow {
            return false;
        }
    }
    true
}

/// `x(:, j) += promote(d(:, j)) / scales[j]` — applies a promoted
/// low-precision correction (tight leading dimension `rows`), undoing the
/// exact power-of-two residual scaling.
fn add_promoted<T: Demote>(
    rows: usize,
    cols: usize,
    d: &[T::Lo],
    scales: &[T::Real],
    x: &mut [T],
    ldx: usize,
) {
    for j in 0..cols {
        let s = scales[j];
        for i in 0..rows {
            x[i + j * ldx] += d[i + j * rows].promote().div_real(s);
        }
    }
}

/// The `DSGESV` convergence test over all right-hand sides:
/// `‖r(:,j)‖∞ ≤ ‖x(:,j)‖∞ · cte` for every `j` (with
/// `cte = ‖A‖∞ · ε · √n · BWDMAX`). The norms are NaN-propagating
/// ([`max_abs1`]) and NaNs fail the comparison, so a poisoned residual or
/// iterate routes to the fallback instead of "converging".
fn converged<T: Scalar>(n: usize, nrhs: usize, r: &[T], x: &[T], ldx: usize, cte: T::Real) -> bool {
    (0..nrhs).all(|j| {
        let rnrm = max_abs1(&r[j * n..j * n + n]);
        let xnrm = max_abs1(&x[j * ldx..j * ldx + n]);
        rnrm <= xnrm * cte
    })
}

/// Element `op(A)[i, k]` under the storage convention of `op`: direct (or
/// transposed, per `trans`) for LU, (conjugate-)symmetric mirror into the
/// stored triangle for Cholesky (where `trans` is ignored — the matrix
/// equals its own (conjugate) transpose).
#[inline]
fn stored_elem<T: Scalar>(op: MixedOp, trans: Trans, a: &[T], lda: usize, i: usize, k: usize) -> T {
    match op {
        MixedOp::Lu => match trans {
            Trans::No => a[i + k * lda],
            Trans::Trans => a[k + i * lda],
            Trans::ConjTrans => a[k + i * lda].conj(),
        },
        MixedOp::Chol(uplo) => {
            let direct = match uplo {
                Uplo::Upper => i <= k,
                Uplo::Lower => i >= k,
            };
            if direct {
                a[i + k * lda]
            } else if T::IS_COMPLEX {
                a[k + i * lda].conj()
            } else {
                a[k + i * lda]
            }
        }
    }
}

/// Working-precision residual `r := b − A·x` (tight `r` with leading
/// dimension `n`, at least `n·nrhs` long): BLAS-2 per column for thin
/// right-hand sides (streams `A` once at memory bandwidth), BLAS-3
/// otherwise; the Cholesky variant reads only the stored triangle via
/// `hemv`/`symm`. Allocates nothing — the refinement loop here and
/// `la-serve`'s answer verification both call it on their own buffers.
#[allow(clippy::too_many_arguments)]
pub fn residual_working<T: Scalar>(
    op: MixedOp,
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    x: &[T],
    ldx: usize,
    r: &mut [T],
) {
    for j in 0..nrhs {
        r[j * n..j * n + n].copy_from_slice(&b[j * ldb..j * ldb + n]);
    }
    match op {
        MixedOp::Lu => {
            if nrhs <= 2 {
                for j in 0..nrhs {
                    gemv(
                        Trans::No,
                        n,
                        n,
                        -T::one(),
                        a,
                        lda,
                        &x[j * ldx..j * ldx + n],
                        1,
                        T::one(),
                        &mut r[j * n..j * n + n],
                        1,
                    );
                }
            } else {
                gemm(
                    Trans::No,
                    Trans::No,
                    n,
                    nrhs,
                    n,
                    -T::one(),
                    a,
                    lda,
                    x,
                    ldx,
                    T::one(),
                    r,
                    n,
                );
            }
        }
        MixedOp::Chol(uplo) => {
            if nrhs <= 2 {
                for j in 0..nrhs {
                    hemv(
                        uplo,
                        n,
                        -T::one(),
                        a,
                        lda,
                        &x[j * ldx..j * ldx + n],
                        1,
                        T::one(),
                        &mut r[j * n..j * n + n],
                        1,
                    );
                }
            } else {
                symm(
                    T::IS_COMPLEX,
                    la_core::Side::Left,
                    uplo,
                    n,
                    nrhs,
                    -T::one(),
                    a,
                    lda,
                    x,
                    ldx,
                    T::one(),
                    r,
                    n,
                );
            }
        }
    }
}

/// Extended-precision residual `r := round(b − op(A)·x)` with every inner
/// product accumulated in double-double (real and imaginary components
/// separately, each partial product captured exactly via FMA) and one
/// rounding to the working precision at the end — the residual engine of
/// the `LA_REFINE=dd` three-precision regime and of the `*rfsx` drivers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn residual_dd<T: Scalar>(
    op: MixedOp,
    trans: Trans,
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    x: &[T],
    ldx: usize,
    r: &mut [T],
) {
    for j in 0..nrhs {
        for i in 0..n {
            let bij = b[i + j * ldb];
            let mut re = Dd::from_f64(bij.re().to_f64());
            let mut im = Dd::from_f64(bij.im().to_f64());
            for k in 0..n {
                let aik = stored_elem(op, trans, a, lda, i, k);
                let xkj = x[k + j * ldx];
                let (ar, xr) = (aik.re().to_f64(), xkj.re().to_f64());
                re = re.fma_acc(-ar, xr);
                if T::IS_COMPLEX {
                    let (ai, xi) = (aik.im().to_f64(), xkj.im().to_f64());
                    re = re.fma_acc(ai, xi);
                    im = im.fma_acc(-ar, xi);
                    im = im.fma_acc(-ai, xr);
                }
            }
            r[i + j * n] = T::from_re_im(
                T::Real::from_f64(re.to_f64()),
                T::Real::from_f64(im.to_f64()),
            );
        }
    }
}

/// Attempts the low-precision LU solve + refinement loop. `Ok(iter)` with
/// the converged iteration count, `Err(code)` with the `DSGESV`-style
/// negative reason when the full-precision fallback must run.
#[allow(clippy::too_many_arguments)]
fn refine_lo<T: Demote>(
    refine: RefineMode,
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    ipiv: &mut [i32],
    b: &[T],
    ldb: usize,
    x: &mut [T],
    ldx: usize,
    cte: T::Real,
) -> Result<i32, i32> {
    // Demote the matrix and the right-hand sides; either range hazard
    // (overflow to ∞, non-zero entry to zero) → fallback.
    let mut sa = demote_mat(n, n, a, lda).ok_or(-2)?;
    let mut sx = demote_mat(n, nrhs, b, ldb).ok_or(-2)?;

    // Factor and solve entirely in the low precision.
    let finfo = probe::with_lo(|| getrf(n, n, &mut sa, n, ipiv));
    if finfo == la_core::cancel::INFO_CANCELLED {
        // Cancellation is not a low-precision *failure* — the caller's
        // deadline passed. Burning it further on a full-precision
        // fallback would be exactly backwards; propagate instead.
        return Err(finfo);
    }
    if finfo != 0 {
        return Err(-3);
    }
    let solve = |sb: &mut [T::Lo]| getrs(Trans::No, n, nrhs, &sa, n, ipiv, sb, n);
    probe::with_lo(|| solve(&mut sx));
    for j in 0..nrhs {
        for i in 0..n {
            x[i + j * ldx] = sx[i + j * n].promote();
        }
    }

    let residual = |b: &[T], r: &mut [T], x: &[T]| match refine {
        RefineMode::Working => residual_working(MixedOp::Lu, n, nrhs, a, lda, b, ldb, x, ldx, r),
        RefineMode::Dd => residual_dd(MixedOp::Lu, Trans::No, n, nrhs, a, lda, b, ldb, x, ldx, r),
    };

    // Refine against the original working-precision A.
    let mut r = vec![T::zero(); n * nrhs];
    let mut sr = vec![T::Lo::zero(); n * nrhs];
    let mut scales = vec![T::Real::one(); nrhs];
    residual(b, &mut r, x);
    if converged(n, nrhs, &r, x, ldx, cte) {
        return Ok(0);
    }
    for it in 1..=ITERMAX {
        if !demote_residual(n, nrhs, &r, &mut sr, &mut scales) {
            return Err(-2);
        }
        probe::with_lo(|| solve(&mut sr));
        add_promoted(n, nrhs, &sr, &scales, x, ldx);
        residual(b, &mut r, x);
        if converged(n, nrhs, &r, x, ldx, cte) {
            return Ok(it);
        }
    }
    Err(-ITERMAX - 1)
}

/// Mixed-precision general solve (`DSGESV`/`ZCGESV`): computes
/// `X = A⁻¹·B` by LU factorization in the demoted precision
/// ([`Demote::Lo`]) with working-precision iterative refinement (residuals in double-double under
/// `LA_REFINE=dd`), falling back to the plain working-precision
/// [`gesv`](crate::gesv) operation sequence on any low-precision failure.
/// `A` is preserved on the refinement path and overwritten by the `getrf`
/// factors on the fallback path; `B` is never modified. The path taken
/// lands in `iter` (see the module docs).
#[allow(clippy::too_many_arguments)]
pub fn gesv_mixed<T: Demote>(
    n: usize,
    nrhs: usize,
    a: &mut [T],
    lda: usize,
    ipiv: &mut [i32],
    b: &[T],
    ldb: usize,
    x: &mut [T],
    ldx: usize,
    iter: &mut i32,
) -> i32 {
    let _probe = probe::span(probe::Layer::Lapack, "gesv_mixed", 0, 0);
    *iter = 0;
    if lda < n.max(1) {
        return -4;
    }
    if ldb < n.max(1) {
        return -7;
    }
    if ldx < n.max(1) {
        return -9;
    }
    if n == 0 || nrhs == 0 {
        return 0;
    }

    let anrm = lange(Norm::Inf, n, n, a, lda);
    let cte = bwd_threshold(anrm, n);

    let lo = refine_lo(
        tune::current().refine,
        n,
        nrhs,
        a,
        lda,
        ipiv,
        b,
        ldb,
        x,
        ldx,
        cte,
    );
    match lo {
        Ok(it) => {
            *iter = it;
            0
        }
        Err(code) if code == la_core::cancel::INFO_CANCELLED => code,
        Err(code) => {
            *iter = code;
            // Full-precision fallback: the exact plain-gesv sequence, so
            // the result is bitwise identical to calling gesv directly.
            let info = getrf(n, n, a, lda, ipiv);
            if info != 0 {
                return info;
            }
            for j in 0..nrhs {
                x[j * ldx..j * ldx + n].copy_from_slice(&b[j * ldb..j * ldb + n]);
            }
            getrs(Trans::No, n, nrhs, a, lda, ipiv, x, ldx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testmat::{Dist, Larnv};
    use la_core::mixed::Promote;
    use la_core::{C32, C64};

    fn dd_system<T: Scalar>(n: usize, seed: u64) -> (Vec<T>, Vec<T>, Vec<T>) {
        let mut rng = Larnv::new(seed);
        let mut a = vec![T::zero(); n * n];
        for v in a.iter_mut() {
            *v = rng.scalar(Dist::Uniform11);
        }
        for i in 0..n {
            a[i + i * n] += T::from_f64(n as f64);
        }
        let xt: Vec<T> = (0..n)
            .map(|i| T::from_f64(1.0 + i as f64 / n as f64))
            .collect();
        let mut b = vec![T::zero(); n];
        for i in 0..n {
            for k in 0..n {
                b[i] += a[i + k * n] * xt[k];
            }
        }
        (a, b, xt)
    }

    #[test]
    fn gesv_mixed_converges_on_well_conditioned() {
        fn run<T: Demote>() {
            let n = 48;
            let (mut a, b, xt) = dd_system::<T>(n, 77);
            let mut ipiv = vec![0i32; n];
            let mut x = vec![T::zero(); n];
            let mut iter = 0i32;
            let info = gesv_mixed(n, 1, &mut a, n, &mut ipiv, &b, n, &mut x, n, &mut iter);
            assert_eq!(info, 0, "{}", T::PREFIX);
            assert!(
                iter >= 0,
                "{}: fallback not expected, iter={iter}",
                T::PREFIX
            );
            let tol = T::Real::EPS.to_f64() * 1e4;
            for i in 0..n {
                assert!((x[i] - xt[i]).abs().to_f64() < tol, "{}: x[{i}]", T::PREFIX);
            }
        }
        run::<f64>();
        run::<C64>();
    }

    #[test]
    fn gesv_mixed_converges_under_both_refine_modes() {
        for refine in [RefineMode::Working, RefineMode::Dd] {
            let cfg = tune::TuneConfig {
                refine,
                ..tune::current()
            };
            tune::with(cfg, || {
                let n = 32;
                let (mut a, b, xt) = dd_system::<f64>(n, 123);
                let mut ipiv = vec![0i32; n];
                let mut x = vec![0.0f64; n];
                let mut iter = 0i32;
                let info = gesv_mixed(n, 1, &mut a, n, &mut ipiv, &b, n, &mut x, n, &mut iter);
                assert_eq!(info, 0, "{refine:?}");
                assert!(iter >= 0, "{refine:?}: iter={iter}");
                for i in 0..n {
                    assert!(
                        (x[i] - xt[i]).abs() < 1e-11,
                        "{refine:?}: x[{i}] = {} vs {}",
                        x[i],
                        xt[i]
                    );
                }
            });
        }
    }

    #[test]
    fn demotion_overflow_takes_fallback() {
        // An entry beyond f32::MAX cannot be demoted: iter = -2, yet the
        // fallback still solves the (diagonal) system exactly.
        let n = 4;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i + i * n] = 1.0;
        }
        a[0] = 1e300;
        let b = vec![1e300, 2.0, 3.0, 4.0];
        let mut ipiv = vec![0i32; n];
        let mut x = vec![0.0f64; n];
        let mut iter = 0i32;
        let info = gesv_mixed(n, 1, &mut a, n, &mut ipiv, &b, n, &mut x, n, &mut iter);
        assert_eq!(info, 0);
        assert_eq!(iter, -2);
        assert_eq!(x[0], 1.0);
        assert_eq!(x[3], 4.0);
    }

    #[test]
    fn demotion_underflow_takes_fallback() {
        // A diagonal entry far below the f32 range demotes to +0.0 —
        // losing the row's only structure. This used to slip through the
        // overflow-only check and surface as a -3 zero-pivot at best;
        // now it is flagged at demotion time as iter = -2 and the f64
        // fallback solves exactly.
        let n = 3;
        let mut a = vec![0.0f64; n * n];
        a[0] = 1e-60; // demotes to +0.0f32
        a[1 + n] = 1.0;
        a[2 + 2 * n] = 1.0;
        let b = vec![1e-60, 2.0, 3.0];
        let mut ipiv = vec![0i32; n];
        let mut x = vec![0.0f64; n];
        let mut iter = 0i32;
        let info = gesv_mixed(n, 1, &mut a, n, &mut ipiv, &b, n, &mut x, n, &mut iter);
        assert_eq!(info, 0);
        assert_eq!(iter, -2);
        assert!((x[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lo_zero_pivot_takes_fallback() {
        // Nonsingular in f64, exactly singular after f32 rounding
        // (1 + 1e-12 rounds to 1.0f32): the low-precision LU meets a
        // zero pivot (iter = -3) and the f64 fallback solves fine.
        let n = 2;
        let mut a = vec![1.0f64, 1.0, 1.0, 1.0 + 1e-12];
        let b = vec![2.0f64, 2.0 + 1e-12];
        let mut ipiv = vec![0i32; n];
        let mut x = vec![0.0f64; n];
        let mut iter = 0i32;
        let info = gesv_mixed(n, 1, &mut a, n, &mut ipiv, &b, n, &mut x, n, &mut iter);
        assert_eq!(info, 0);
        assert_eq!(iter, -3);
        // x = (1, 1) exactly solves the system.
        assert!((x[0] - 1.0).abs() < 1e-3 && (x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn moderate_scalings_stay_on_the_low_path() {
        // 1e5 and 1e-10 are far inside the f32 range: no demotion
        // fallback, and the uniformly scaled identity solves exactly.
        for scale in [1e5f64, 1e-10] {
            let n = 2;
            let mut a = vec![scale, 0.0, 0.0, scale];
            let b = vec![scale, scale];
            let mut ipiv = vec![0i32; n];
            let mut x = vec![0.0f64; n];
            let mut iter = 0i32;
            let info = gesv_mixed(n, 1, &mut a, n, &mut ipiv, &b, n, &mut x, n, &mut iter);
            assert_eq!(info, 0, "scale={scale:e}");
            assert!(iter >= 0, "scale={scale:e}: iter={iter}");
            assert!((x[0] - 1.0).abs() < 1e-10, "scale={scale:e}: x[0]={}", x[0]);
        }
    }

    #[test]
    fn nonconvergence_code_is_minus_itermax_plus_one() {
        // An ill-conditioned matrix whose f32 factorization cannot
        // contract the error: iter = -(ITERMAX+1) and the fallback's
        // answer matches plain gesv bitwise.
        let n = 8;
        // Hilbert: cond ≈ 1.5e10, beyond what an f32 factor (eps 2⁻²⁴)
        // can contract.
        let mut a = vec![0.0f64; n * n];
        for j in 0..n {
            for i in 0..n {
                a[i + j * n] = 1.0 / (i + j + 1) as f64;
            }
        }
        let b = vec![1.0f64; n];
        let mut ac = a.clone();
        let mut ipiv = vec![0i32; n];
        let mut x = vec![0.0f64; n];
        let mut iter = 0i32;
        let info = gesv_mixed(n, 1, &mut ac, n, &mut ipiv, &b, n, &mut x, n, &mut iter);
        assert_eq!(info, 0);
        assert_eq!(iter, -ITERMAX - 1);
        // Bitwise-identical to plain gesv.
        let mut ac = a.clone();
        let mut ipiv = vec![0i32; n];
        let mut xg = b.clone();
        let info = crate::gesv(n, 1, &mut ac, n, &mut ipiv, &mut xg, n);
        assert_eq!(info, 0);
        for i in 0..n {
            assert_eq!(x[i].to_bits(), xg[i].to_bits(), "fallback must be bitwise");
        }
    }

    #[test]
    fn cte_matches_dsgesv_formula_all_four_types() {
        // ‖A‖∞ · ε · √n · BWDMAX, in each working real precision.
        fn check<T: Scalar>() {
            let n = 25usize;
            let anrm = T::Real::from_f64(3.5);
            let expect =
                anrm * T::Real::EPS * T::Real::from_usize(n).sqrt_r() * T::Real::from_f64(BWDMAX);
            assert_eq!(bwd_threshold(anrm, n), expect, "{}", T::PREFIX);
            // √25 = 5 exactly: the formula is anrm·ε·5.
            assert_eq!(
                bwd_threshold(anrm, n),
                anrm * T::Real::EPS * T::Real::from_usize(5),
                "{}",
                T::PREFIX
            );
        }
        check::<f32>();
        check::<f64>();
        check::<C32>();
        check::<C64>();
    }

    #[test]
    fn quick_returns_and_bad_ld() {
        let mut a = [1.0f64];
        let b = [1.0f64];
        let mut x = [0.0f64];
        let mut ipiv = [0i32];
        let mut iter = 7i32;
        assert_eq!(
            gesv_mixed(0, 1, &mut a, 1, &mut ipiv, &b, 1, &mut x, 1, &mut iter),
            0
        );
        assert_eq!(iter, 0);
        // nrhs == 0 is a quick return too.
        let mut iter = 9i32;
        assert_eq!(
            gesv_mixed(1, 0, &mut a, 1, &mut ipiv, &b, 1, &mut x, 1, &mut iter),
            0
        );
        assert_eq!(iter, 0);
        let mut iter = 7i32;
        assert_eq!(
            gesv_mixed(2, 1, &mut a, 1, &mut ipiv, &b, 2, &mut x, 2, &mut iter),
            -4
        );
    }

    #[test]
    fn c32_f32_are_valid_promote_sides() {
        // The pairing is only implemented downward from f64/C64; the low
        // side promotes exactly.
        assert_eq!(1.5f32.promote(), 1.5f64);
        assert_eq!(C32::new(1.0, -2.0).promote(), C64::new(1.0, -2.0));
    }

    #[test]
    fn dd_residual_is_sharper_than_working() {
        // A case engineered so b − A·x cancels catastrophically in f64:
        // the Dd residual recovers digits the working one has already
        // lost. x chosen with a tiny perturbation; residual components
        // are O(ε²)-exact in Dd.
        let n = 2;
        let a = vec![1.0f64, 1e-8, 1e-8, 1.0];
        let x = vec![1.0f64 + 1e-9, 1.0 - 1e-9];
        // b := exact A·x rounded — then r = b − A·x reconstructs the
        // rounding errors, which the working-precision residual partly
        // misses but Dd captures.
        let mut b = vec![0.0f64; n];
        for i in 0..n {
            let mut acc = Dd::ZERO;
            for k in 0..n {
                acc = acc.fma_acc(a[i + k * n], x[k]);
            }
            b[i] = acc.to_f64();
        }
        let mut r_work = vec![0.0f64; n];
        let mut r_dd = vec![0.0f64; n];
        residual_working(MixedOp::Lu, n, 1, &a, n, &b, n, &x, n, &mut r_work);
        residual_dd(MixedOp::Lu, Trans::No, n, 1, &a, n, &b, n, &x, n, &mut r_dd);
        // Exact residuals via Dd reference (b was rounded, so the true
        // residual is the rounding error of b — tiny but nonzero).
        for i in 0..n {
            let mut acc = Dd::from_f64(b[i]);
            for k in 0..n {
                acc = acc.fma_acc(-a[i + k * n], x[k]);
            }
            let exact = acc.to_f64();
            assert_eq!(r_dd[i], exact, "Dd residual must be correctly rounded");
            // The working-precision residual of this cancellation-heavy
            // case need not match; the point of the test is that the Dd
            // path reproduces the exact value.
        }
    }

    #[test]
    fn chol_residual_reads_one_triangle_and_mirrors_it() {
        // `residual_working(Chol(uplo), …)` — the residual of la-serve's
        // Cholesky answer check — against a gemm residual on the explicitly
        // mirrored (conjugated, for complex) matrix. The unreferenced
        // triangle holds NaN, so reading it poisons the answer; nrhs 1 and
        // 2 run `hemv`, 3 and 5 `symm` (n = 13 its direct loop, n = 70 its
        // route through gemm).
        fn run<T: Scalar>() {
            let nan = T::from_f64(f64::NAN);
            let mut rng = Larnv::new(2718);
            for n in [1usize, 13, 70] {
                // Hermitian, real diagonal; `full` is every entry.
                let mut full = vec![T::zero(); n * n];
                for j in 0..n {
                    full[j + j * n] = T::from_f64(rng.scalar::<f64>(Dist::Uniform11));
                    for i in 0..j {
                        let v: T = rng.scalar(Dist::Uniform11);
                        full[i + j * n] = v;
                        full[j + i * n] = v.conj();
                    }
                }
                for uplo in [Uplo::Upper, Uplo::Lower] {
                    let mut a = full.clone();
                    for j in 0..n {
                        for i in 0..n {
                            if (uplo == Uplo::Upper && i > j) || (uplo == Uplo::Lower && i < j) {
                                a[i + j * n] = nan;
                            }
                        }
                    }
                    for nrhs in [1usize, 2, 3, 5] {
                        let (ldb, ldx) = (n + 2, n + 1);
                        let b: Vec<T> = (0..ldb * nrhs)
                            .map(|_| rng.scalar(Dist::Uniform11))
                            .collect();
                        let x: Vec<T> = (0..ldx * nrhs)
                            .map(|_| rng.scalar(Dist::Uniform11))
                            .collect();
                        let mut r = vec![T::zero(); n * nrhs];
                        residual_working(
                            MixedOp::Chol(uplo),
                            n,
                            nrhs,
                            &a,
                            n,
                            &b,
                            ldb,
                            &x,
                            ldx,
                            &mut r,
                        );
                        let mut want = vec![T::zero(); n * nrhs];
                        for j in 0..nrhs {
                            want[j * n..j * n + n].copy_from_slice(&b[j * ldb..j * ldb + n]);
                        }
                        gemm(
                            Trans::No,
                            Trans::No,
                            n,
                            nrhs,
                            n,
                            -T::one(),
                            &full,
                            n,
                            &x,
                            ldx,
                            T::one(),
                            &mut want,
                            n,
                        );
                        let eps = T::Real::EPS.to_f64();
                        for j in 0..nrhs {
                            for i in 0..n {
                                // Rounding of either order: n·ε times the
                                // magnitudes summed.
                                let mut mag = b[i + j * ldb].abs().to_f64();
                                for k in 0..n {
                                    mag += (full[i + k * n] * x[k + j * ldx]).abs().to_f64();
                                }
                                let err = (r[i + j * n] - want[i + j * n]).abs().to_f64();
                                assert!(
                                    err <= 4.0 * (n as f64) * eps * mag,
                                    "{} {uplo:?} n={n} nrhs={nrhs} r[{i},{j}]: {} vs {}",
                                    T::PREFIX,
                                    r[i + j * n],
                                    want[i + j * n]
                                );
                            }
                        }
                    }
                }
            }
        }
        run::<f32>();
        run::<f64>();
        run::<C32>();
        run::<C64>();
    }
}
