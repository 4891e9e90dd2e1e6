//! The residual engines of the refinement drivers and of `la-serve`'s
//! answer check: `r = b − op(A)·x` for a general matrix or for one stored
//! triangle of a symmetric / Hermitian one ([`MixedOp`]).
//!
//! * [`residual_working`] computes the residual in the working precision
//!   with BLAS-2/3 (`gemv`/`gemm`, `hemv`/`symm`); `la-serve` checks every
//!   served answer with it.
//! * `residual_dd` accumulates every inner product in double-double and
//!   rounds once: the extra-precise residual of the `*rfsx` refinement
//!   (`gesvxx`, `posvxx`), which mixes the working precision with the
//!   ≈106-bit one of [`Dd`].

use la_blas::{gemm, gemv, hemv, symm};
use la_core::dd::Dd;
use la_core::{RealScalar, Scalar, Trans, Uplo};

/// Which storage of `A` a residual reads: a general matrix (the LU
/// solves — `gesvxx`, the served `gesv` answer check), or one triangle of
/// a symmetric / Hermitian one (the Cholesky solves — `posvxx`, the
/// served `posv` answer check).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MixedOp {
    /// A general matrix, every entry stored.
    Lu,
    /// Only the given triangle is stored; the residual reads that
    /// triangle, mirroring (conjugate-)symmetrically.
    Chol(Uplo),
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
/// `hemv`/`symm`. Allocates nothing — `la-serve`'s answer verification
/// calls it on its own buffers.
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
/// the `*rfsx` drivers.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testmat::{Dist, Larnv};
    use la_core::{C32, C64};

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

    #[test]
    fn dd_residual_reads_every_op_and_triangle_exactly() {
        // `residual_dd` under each storage convention `rfsx_engine` hands
        // it — LU with `No`/`Trans`/`ConjTrans`, Cholesky with either
        // stored triangle — against the double-double sum over the
        // explicit `op(A)` (transposed, conjugated or mirrored), computed
        // in the same order, so the results agree bit for bit. The
        // unreferenced triangle holds NaN. Cases: the cancellation-heavy
        // 2×2 above, and a random n = 13 (non-Hermitian for LU).
        fn exact<T: Scalar>(n: usize, m: &[T], b: &[T], x: &[T]) -> Vec<T> {
            (0..n)
                .map(|i| {
                    let mut re = Dd::from_f64(b[i].re().to_f64());
                    let mut im = Dd::from_f64(b[i].im().to_f64());
                    for k in 0..n {
                        let (ar, ai) = (m[i + k * n].re().to_f64(), m[i + k * n].im().to_f64());
                        let (xr, xi) = (x[k].re().to_f64(), x[k].im().to_f64());
                        re = re.fma_acc(-ar, xr);
                        if T::IS_COMPLEX {
                            re = re.fma_acc(ai, xi);
                            im = im.fma_acc(-ar, xi);
                            im = im.fma_acc(-ai, xr);
                        }
                    }
                    T::from_re_im(
                        T::Real::from_f64(re.to_f64()),
                        T::Real::from_f64(im.to_f64()),
                    )
                })
                .collect()
        }
        fn check<T: Scalar>(n: usize, a: &[T], herm: &[T], x: &[T], b: &[T]) {
            let nan = T::from_f64(f64::NAN);
            let at = |i: usize, k: usize| a[i + k * n];
            let lu: [(Trans, Vec<T>); 3] = [
                (Trans::No, a.to_vec()),
                (Trans::Trans, (0..n * n).map(|p| at(p / n, p % n)).collect()),
                (
                    Trans::ConjTrans,
                    (0..n * n).map(|p| at(p / n, p % n).conj()).collect(),
                ),
            ];
            for (trans, m) in lu {
                let mut r = vec![nan; n];
                residual_dd(MixedOp::Lu, trans, n, 1, a, n, b, n, x, n, &mut r);
                assert_eq!(r, exact(n, &m, b, x), "{} Lu {trans:?} n={n}", T::PREFIX);
            }
            for uplo in [Uplo::Upper, Uplo::Lower] {
                let mut s = herm.to_vec();
                for j in 0..n {
                    for i in 0..n {
                        if (uplo == Uplo::Upper && i > j) || (uplo == Uplo::Lower && i < j) {
                            s[i + j * n] = nan;
                        }
                    }
                }
                let mut r = vec![nan; n];
                // `trans` is ignored for a Hermitian matrix.
                residual_dd(
                    MixedOp::Chol(uplo),
                    Trans::Trans,
                    n,
                    1,
                    &s,
                    n,
                    b,
                    n,
                    x,
                    n,
                    &mut r,
                );
                let want = exact(n, herm, b, x);
                assert_eq!(r, want, "{} Chol({uplo:?}) n={n}", T::PREFIX);
            }
        }
        fn run<T: Scalar>() {
            // The 2×2: b is A·x rounded, so the residual is b's rounding
            // error, lost to cancellation in the working precision.
            let a: Vec<T> = [1.0, 1e-8, 1e-8, 1.0].map(T::from_f64).to_vec();
            let x: Vec<T> = [1.0 + 1e-9, 1.0 - 1e-9].map(T::from_f64).to_vec();
            let b = exact(2, &a, &[T::zero(); 2], &x)
                .into_iter()
                .map(|v| -v)
                .collect::<Vec<T>>();
            check(2, &a, &a, &x, &b);

            let n = 13;
            let mut rng = Larnv::new(4242);
            let a: Vec<T> = (0..n * n).map(|_| rng.scalar(Dist::Uniform11)).collect();
            let mut herm = vec![T::zero(); n * n];
            for j in 0..n {
                herm[j + j * n] = T::from_f64(n as f64 + rng.scalar::<f64>(Dist::Uniform11));
                for i in 0..j {
                    let v: T = rng.scalar(Dist::Uniform11);
                    herm[i + j * n] = v;
                    herm[j + i * n] = v.conj();
                }
            }
            let x: Vec<T> = (0..n).map(|_| rng.scalar(Dist::Uniform11)).collect();
            let b: Vec<T> = (0..n).map(|_| rng.scalar(Dist::Uniform11)).collect();
            check(n, &a, &herm, &x, &b);
        }
        run::<f64>();
        run::<C64>();
    }
}
