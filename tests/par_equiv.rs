//! Serial-vs-parallel equivalence for the striped BLAS-3 layer, and
//! NB-independence for the blocked factorizations, across all four scalar
//! types. The parallel paths are forced on by a scoped `tune::with`
//! override with the flop threshold at zero, so these tests exercise the
//! thread decomposition even on small matrices and single-core hosts.

use la_blas::{gemm, herk, syrk, trmm, trsm};
use la_core::{tune, Diag, RealScalar, Scalar, Side, Trans, Uplo, C32, C64};
use la_lapack as f77;

/// Serial reference: thread budget 1 (threshold irrelevant).
fn serial() -> tune::TuneConfig {
    tune::TuneConfig {
        max_threads: 1,
        ..tune::TuneConfig::defaults()
    }
}

/// Forced-parallel: 4 threads (oversubscribed if the host has fewer
/// cores, so the decomposition runs even on single-core machines), every
/// flop count above threshold.
fn forced() -> tune::TuneConfig {
    tune::TuneConfig {
        max_threads: 4,
        oversubscribe: true,
        par_flops: 0,
        ..tune::TuneConfig::defaults()
    }
}

struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
    fn val<T: Scalar>(&mut self) -> T {
        let re = self.next_f64();
        let im = if T::IS_COMPLEX { self.next_f64() } else { 0.0 };
        T::from_re_im(T::Real::from_f64(re), T::Real::from_f64(im))
    }
    fn vec<T: Scalar>(&mut self, n: usize) -> Vec<T> {
        (0..n).map(|_| self.val()).collect()
    }
}

fn assert_close<T: Scalar>(serial: &[T], parallel: &[T], tol: f64, what: &str) {
    assert_eq!(serial.len(), parallel.len());
    for (idx, (&s, &p)) in serial.iter().zip(parallel).enumerate() {
        let d = (s - p).abs().to_f64();
        let scale = 1.0 + s.abs().to_f64();
        assert!(d <= tol * scale, "{what}: element {idx} differs by {d}");
    }
}

fn gemm_equiv<T: Scalar>(tol: f64) {
    let (m, n, k) = (45usize, 67, 33);
    let mut rng = Rng(1);
    let a: Vec<T> = rng.vec(m * k);
    let b: Vec<T> = rng.vec(k * n);
    let c0: Vec<T> = rng.vec(m * n);
    let beta = T::from_f64(0.5);
    for &(ta, tb) in &[
        (Trans::No, Trans::No),
        (Trans::No, Trans::Trans),
        (Trans::Trans, Trans::No),
        (Trans::ConjTrans, Trans::ConjTrans),
    ] {
        let (lda, ldb) = (
            if ta == Trans::No { m } else { k },
            if tb == Trans::No { k } else { n },
        );
        let mut cs = c0.clone();
        tune::with(serial(), || {
            gemm(
                ta,
                tb,
                m,
                n,
                k,
                T::one(),
                &a,
                lda,
                &b,
                ldb,
                beta,
                &mut cs,
                m,
            );
        });
        let mut cp = c0.clone();
        tune::with(forced(), || {
            gemm(
                ta,
                tb,
                m,
                n,
                k,
                T::one(),
                &a,
                lda,
                &b,
                ldb,
                beta,
                &mut cp,
                m,
            );
        });
        assert_close(&cs, &cp, tol, &format!("{}gemm {ta:?}/{tb:?}", T::PREFIX));
    }
}

#[test]
fn gemm_serial_parallel_equivalent() {
    gemm_equiv::<f32>(1e-4);
    gemm_equiv::<f64>(1e-12);
    gemm_equiv::<C32>(1e-4);
    gemm_equiv::<C64>(1e-12);
}

fn trsm_equiv<T: Scalar>(tol: f64) {
    let (m, n) = (40usize, 53);
    let mut rng = Rng(2);
    // Well-conditioned triangle: dominant diagonal.
    let mut a: Vec<T> = rng.vec(m * m);
    for i in 0..m {
        a[i + i * m] += T::from_f64(4.0);
    }
    let b0: Vec<T> = rng.vec(m * n);
    let alpha = T::from_f64(1.25);
    for &uplo in &[Uplo::Lower, Uplo::Upper] {
        for &trans in &[Trans::No, Trans::Trans, Trans::ConjTrans] {
            let mut bs = b0.clone();
            tune::with(serial(), || {
                trsm(
                    Side::Left,
                    uplo,
                    trans,
                    Diag::NonUnit,
                    m,
                    n,
                    alpha,
                    &a,
                    m,
                    &mut bs,
                    m,
                );
            });
            let mut bp = b0.clone();
            tune::with(forced(), || {
                trsm(
                    Side::Left,
                    uplo,
                    trans,
                    Diag::NonUnit,
                    m,
                    n,
                    alpha,
                    &a,
                    m,
                    &mut bp,
                    m,
                );
            });
            assert_close(
                &bs,
                &bp,
                tol,
                &format!("{}trsm {uplo:?}/{trans:?}", T::PREFIX),
            );
        }
    }
    // Right side routes through the transposed left solve; make sure the
    // nested parallel dispatch agrees too.
    let mut bs = b0.clone();
    let an: Vec<T> = {
        let mut rng = Rng(3);
        let mut t: Vec<T> = rng.vec(n * n);
        for i in 0..n {
            t[i + i * n] += T::from_f64(4.0);
        }
        t
    };
    tune::with(serial(), || {
        trsm(
            Side::Right,
            Uplo::Upper,
            Trans::No,
            Diag::NonUnit,
            m,
            n,
            alpha,
            &an,
            n,
            &mut bs,
            m,
        );
    });
    let mut bp = b0.clone();
    tune::with(forced(), || {
        trsm(
            Side::Right,
            Uplo::Upper,
            Trans::No,
            Diag::NonUnit,
            m,
            n,
            alpha,
            &an,
            n,
            &mut bp,
            m,
        );
    });
    assert_close(&bs, &bp, tol, &format!("{}trsm right", T::PREFIX));
}

#[test]
fn trsm_serial_parallel_equivalent() {
    trsm_equiv::<f32>(1e-4);
    trsm_equiv::<f64>(1e-12);
    trsm_equiv::<C32>(1e-4);
    trsm_equiv::<C64>(1e-12);
}

fn trmm_equiv<T: Scalar>(tol: f64) {
    let (m, n) = (37usize, 49);
    let mut rng = Rng(4);
    let a: Vec<T> = rng.vec(m * m);
    let b0: Vec<T> = rng.vec(m * n);
    let alpha = T::from_f64(0.75);
    for &uplo in &[Uplo::Lower, Uplo::Upper] {
        for &trans in &[Trans::No, Trans::Trans, Trans::ConjTrans] {
            let mut bs = b0.clone();
            tune::with(serial(), || {
                trmm(
                    Side::Left,
                    uplo,
                    trans,
                    Diag::NonUnit,
                    m,
                    n,
                    alpha,
                    &a,
                    m,
                    &mut bs,
                    m,
                );
            });
            let mut bp = b0.clone();
            tune::with(forced(), || {
                trmm(
                    Side::Left,
                    uplo,
                    trans,
                    Diag::NonUnit,
                    m,
                    n,
                    alpha,
                    &a,
                    m,
                    &mut bp,
                    m,
                );
            });
            assert_close(
                &bs,
                &bp,
                tol,
                &format!("{}trmm {uplo:?}/{trans:?}", T::PREFIX),
            );
        }
    }
}

#[test]
fn trmm_serial_parallel_equivalent() {
    trmm_equiv::<f32>(1e-4);
    trmm_equiv::<f64>(1e-12);
    trmm_equiv::<C32>(1e-4);
    trmm_equiv::<C64>(1e-12);
}

fn syrk_herk_equiv<T: Scalar>(tol: f64) {
    let (n, k) = (131usize, 29); // > two 48-column blocks, ragged tail
    let mut rng = Rng(5);
    let a: Vec<T> = rng.vec(n * k.max(n));
    let c0: Vec<T> = rng.vec(n * n);
    for &uplo in &[Uplo::Lower, Uplo::Upper] {
        for &trans in &[Trans::No, Trans::Trans] {
            let lda = if trans == Trans::No { n } else { k };
            let mut cs = c0.clone();
            tune::with(serial(), || {
                syrk(
                    uplo,
                    trans,
                    n,
                    k,
                    T::from_f64(1.5),
                    &a,
                    lda,
                    T::from_f64(0.5),
                    &mut cs,
                    n,
                );
            });
            let mut cp = c0.clone();
            tune::with(forced(), || {
                syrk(
                    uplo,
                    trans,
                    n,
                    k,
                    T::from_f64(1.5),
                    &a,
                    lda,
                    T::from_f64(0.5),
                    &mut cp,
                    n,
                );
            });
            assert_close(
                &cs,
                &cp,
                tol,
                &format!("{}syrk {uplo:?}/{trans:?}", T::PREFIX),
            );

            // herk: ConjTrans in place of Trans for the complex types.
            let htrans = if T::IS_COMPLEX && trans == Trans::Trans {
                Trans::ConjTrans
            } else {
                trans
            };
            let mut cs = c0.clone();
            tune::with(serial(), || {
                herk::<T>(
                    uplo,
                    htrans,
                    n,
                    k,
                    T::Real::from_f64(1.5),
                    &a,
                    lda,
                    T::Real::from_f64(0.5),
                    &mut cs,
                    n,
                );
            });
            let mut cp = c0.clone();
            tune::with(forced(), || {
                herk::<T>(
                    uplo,
                    htrans,
                    n,
                    k,
                    T::Real::from_f64(1.5),
                    &a,
                    lda,
                    T::Real::from_f64(0.5),
                    &mut cp,
                    n,
                );
            });
            assert_close(
                &cs,
                &cp,
                tol,
                &format!("{}herk {uplo:?}/{htrans:?}", T::PREFIX),
            );
        }
    }
}

#[test]
fn syrk_herk_serial_parallel_equivalent() {
    syrk_herk_equiv::<f32>(1e-4);
    syrk_herk_equiv::<f64>(1e-12);
    syrk_herk_equiv::<C32>(1e-4);
    syrk_herk_equiv::<C64>(1e-12);
}

/// The factorizations must compute the same factors for every block size:
/// NB only changes how the trailing updates are batched. Every width here
/// is under half the order, so each run takes the blocked loop; 63 and 96
/// leave a ragged last panel.
#[test]
fn getrf_identical_across_block_sizes() {
    let n = 200usize;
    let mut rng = Rng(6);
    let mut a0: Vec<f64> = rng.vec(n * n);
    for i in 0..n {
        a0[i + i * n] += 8.0;
    }
    let run = |nb: usize| {
        let cfg = tune::TuneConfig {
            nb_getrf: nb,
            ..tune::TuneConfig::defaults()
        };
        tune::with(cfg, || {
            let mut a = a0.clone();
            let mut ipiv = vec![0i32; n];
            assert_eq!(f77::getrf(n, n, &mut a, n, &mut ipiv), 0, "nb={nb}");
            (a, ipiv)
        })
    };
    let (aref, pref) = run(1);
    for nb in [8usize, 32, 63, 96] {
        let (a, p) = run(nb);
        assert_eq!(p, pref, "pivots differ at nb={nb}");
        for idx in 0..n * n {
            let d = (a[idx] - aref[idx]).abs();
            assert!(
                d <= 1e-11 * (1.0 + aref[idx].abs()),
                "factor differs at nb={nb}, element {idx}: {d}"
            );
        }
    }
}

#[test]
fn potrf_identical_across_block_sizes() {
    let n = 200usize;
    let mut rng = Rng(7);
    // SPD: diagonally dominant symmetric matrix.
    let mut a0 = vec![0.0f64; n * n];
    for j in 0..n {
        for i in 0..=j {
            let v = 0.5 * rng.next_f64();
            a0[i + j * n] = v;
            a0[j + i * n] = v;
        }
        a0[j + j * n] = (n as f64) / 4.0 + a0[j + j * n].abs();
    }
    let run = |nb: usize| {
        let cfg = tune::TuneConfig {
            nb_potrf: nb,
            ..tune::TuneConfig::defaults()
        };
        tune::with(cfg, || {
            let mut a = a0.clone();
            assert_eq!(f77::potrf(Uplo::Lower, n, &mut a, n), 0, "nb={nb}");
            a
        })
    };
    let aref = run(1);
    for nb in [8usize, 32, 63, 96] {
        let a = run(nb);
        for j in 0..n {
            for i in j..n {
                let idx = i + j * n;
                let d = (a[idx] - aref[idx]).abs();
                assert!(
                    d <= 1e-11 * (1.0 + aref[idx].abs()),
                    "factor differs at nb={nb}, ({i},{j}): {d}"
                );
            }
        }
    }
}

/// The scoped override must also steer the factorizations when they run
/// with forced parallelism underneath (decision points on the calling
/// thread).
#[test]
fn factorization_results_independent_of_parallelism() {
    let n = 160usize;
    let mut rng = Rng(8);
    let mut a0: Vec<f64> = rng.vec(n * n);
    for i in 0..n {
        a0[i + i * n] += 8.0;
    }
    let solve = |cfg: tune::TuneConfig| {
        tune::with(cfg, || {
            let mut a = a0.clone();
            let mut ipiv = vec![0i32; n];
            assert_eq!(f77::getrf(n, n, &mut a, n, &mut ipiv), 0);
            (a, ipiv)
        })
    };
    let (as_, ps) = solve(serial());
    let (ap, pp) = solve(forced());
    assert_eq!(ps, pp, "pivot choice must not depend on threading");
    for idx in 0..n * n {
        let d = (as_[idx] - ap[idx]).abs();
        assert!(d <= 1e-10 * (1.0 + as_[idx].abs()), "element {idx}: {d}");
    }
}
