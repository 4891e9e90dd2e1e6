//! Cross-checks every BLAS routine against a naive reference
//! implementation, for all four scalar instantiations (S/D/C/Z) and a grid
//! of shapes, transposes, triangles and strides.

// The reference kernels mirror the BLAS argument lists verbatim.
#![allow(clippy::too_many_arguments)]

use la_blas::*;
use la_core::{Diag, RealScalar, Scalar, Side, Trans, Uplo, C32, C64};

/// Deterministic pseudo-random scalar stream (splitmix64-based) so tests
/// need no external RNG and are reproducible across platforms.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed)
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    fn real(&mut self) -> f64 {
        // Uniform in [-1, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
    fn scalar<T: Scalar>(&mut self) -> T {
        let re = self.real();
        let im = self.real();
        T::from_re_im(
            <T::Real as Scalar>::from_f64(re),
            <T::Real as Scalar>::from_f64(im),
        )
    }
    fn vec<T: Scalar>(&mut self, n: usize) -> Vec<T> {
        (0..n).map(|_| self.scalar()).collect()
    }
}

fn tol<T: Scalar>(n: usize) -> f64 {
    T::eps().to_f64() * 50.0 * (n as f64 + 1.0)
}

fn assert_close<T: Scalar>(got: &[T], want: &[T], scale: f64, ctx: &str) {
    assert_eq!(got.len(), want.len());
    let t = tol::<T>(got.len()) * scale.max(1.0);
    for (k, (&g, &w)) in got.iter().zip(want).enumerate() {
        let d = (g - w).abs().to_f64();
        assert!(
            d <= t,
            "{ctx}: element {k}: got {g}, want {w}, |diff| = {d:.3e} > {t:.3e}"
        );
    }
}

/// Naive dense op(A) as an (m, n, row-major closure) triple.
fn op_el<T: Scalar>(trans: Trans, a: &[T], lda: usize, i: usize, j: usize) -> T {
    match trans {
        Trans::No => a[i + j * lda],
        Trans::Trans => a[j + i * lda],
        Trans::ConjTrans => a[j + i * lda].conj(),
    }
}

fn gemm_ref<T: Scalar>(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    for j in 0..n {
        for i in 0..m {
            let mut s = T::zero();
            for l in 0..k {
                s += op_el(transa, a, lda, i, l) * op_el(transb, b, ldb, l, j);
            }
            let cc = &mut c[i + j * ldc];
            *cc = beta * *cc + alpha * s;
        }
    }
}

fn gemm_suite<T: Scalar + 'static>() {
    let mut rng = Stream::new(42);
    for &(m, n, k) in &[(1, 1, 1), (3, 2, 4), (7, 5, 6), (16, 16, 16), (33, 17, 25)] {
        for &ta in &[Trans::No, Trans::Trans, Trans::ConjTrans] {
            for &tb in &[Trans::No, Trans::Trans, Trans::ConjTrans] {
                let (am, an) = if ta == Trans::No { (m, k) } else { (k, m) };
                let (bm, bn) = if tb == Trans::No { (k, n) } else { (n, k) };
                let lda = am + 2;
                let ldb = bm + 1;
                let ldc = m + 3;
                let a = rng.vec::<T>(lda * an);
                let b = rng.vec::<T>(ldb * bn);
                let c0 = rng.vec::<T>(ldc * n);
                let alpha = rng.scalar::<T>();
                let beta = rng.scalar::<T>();
                let mut c = c0.clone();
                gemm(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc);
                let mut cref = c0.clone();
                gemm_ref(
                    ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut cref, ldc,
                );
                assert_close(
                    &c,
                    &cref,
                    k as f64,
                    &format!("gemm {m}x{n}x{k} {ta:?} {tb:?}"),
                );
            }
        }
    }
}

#[test]
fn gemm_matches_reference_s() {
    gemm_suite::<f32>();
}
#[test]
fn gemm_matches_reference_d() {
    gemm_suite::<f64>();
}
#[test]
fn gemm_matches_reference_c() {
    gemm_suite::<C32>();
}
#[test]
fn gemm_matches_reference_z() {
    gemm_suite::<C64>();
}

#[test]
fn gemm_large_parallel_path() {
    // Big enough to cross the parallel threshold.
    let mut rng = Stream::new(7);
    let (m, n, k) = (96, 96, 96);
    let a = rng.vec::<f64>(m * k);
    let b = rng.vec::<f64>(k * n);
    let mut c = vec![0.0f64; m * n];
    gemm(
        Trans::No,
        Trans::No,
        m,
        n,
        k,
        1.0,
        &a,
        m,
        &b,
        k,
        0.0,
        &mut c,
        m,
    );
    let mut cref = vec![0.0f64; m * n];
    gemm_ref(
        Trans::No,
        Trans::No,
        m,
        n,
        k,
        1.0,
        &a,
        m,
        &b,
        k,
        0.0,
        &mut cref,
        m,
    );
    assert_close(&c, &cref, k as f64, "parallel gemm 96^3");
}

fn gemv_suite<T: Scalar>() {
    let mut rng = Stream::new(3);
    for &(m, n) in &[(1, 1), (4, 3), (9, 12), (17, 5)] {
        for &tr in &[Trans::No, Trans::Trans, Trans::ConjTrans] {
            for &(incx, incy) in &[(1usize, 1usize), (2, 3)] {
                let lda = m + 1;
                let a = rng.vec::<T>(lda * n);
                let (xl, yl) = if tr == Trans::No { (n, m) } else { (m, n) };
                let x = rng.vec::<T>(xl * incx);
                let y0 = rng.vec::<T>(yl * incy);
                let alpha = rng.scalar::<T>();
                let beta = rng.scalar::<T>();
                let mut y = y0.clone();
                gemv(tr, m, n, alpha, &a, lda, &x, incx, beta, &mut y, incy);
                // Reference via gemm on gathered vectors.
                let xg: Vec<T> = (0..xl).map(|i| x[i * incx]).collect();
                let mut yg: Vec<T> = (0..yl).map(|i| y0[i * incy]).collect();
                let (gm, gn) = if tr == Trans::No { (m, n) } else { (n, m) };
                gemm_ref(
                    tr,
                    Trans::No,
                    gm,
                    1,
                    gn,
                    alpha,
                    &a,
                    lda,
                    &xg,
                    gn.max(1),
                    beta,
                    &mut yg,
                    gm.max(1),
                );
                let got: Vec<T> = (0..yl).map(|i| y[i * incy]).collect();
                assert_close(
                    &got,
                    &yg,
                    n as f64,
                    &format!("gemv {m}x{n} {tr:?} incx={incx}"),
                );
            }
        }
    }
}

#[test]
fn gemv_matches_reference_all_types() {
    gemv_suite::<f32>();
    gemv_suite::<f64>();
    gemv_suite::<C32>();
    gemv_suite::<C64>();
}

/// `iamax` against the definition — first index of the largest `abs1`,
/// first NaN before any maximum — at lengths on both sides of where the
/// contiguous form changes loops, at strides 1 and 3.
fn iamax_suite<T: Scalar>() {
    let iamax_ref = |x: &[T]| -> usize {
        if let Some(i) = x.iter().position(|v| v.abs1().is_nan()) {
            return i;
        }
        let mut arg = 0;
        for (i, v) in x.iter().enumerate() {
            if v.abs1() > x[arg].abs1() {
                arg = i;
            }
        }
        arg
    };
    let mut rng = Stream::new(11);
    let nan = T::from_real(<T::Real as RealScalar>::nan());
    let big = T::from_f64(-9.0);
    for &n in &[1usize, 5, 15, 16, 17, 31, 32, 33, 96, 100] {
        let base = rng.vec::<T>(n);
        let mut cases = vec![("values", base.clone()), ("all zero", vec![T::zero(); n])];
        for at in [0, n / 2, n - 1] {
            let mut x = base.clone();
            x[at] = big;
            cases.push(("one maximum", x.clone()));
            x[n - 1] = -big;
            cases.push(("tie with the last", x.clone()));
            x[at] = nan;
            cases.push(("nan", x));
        }
        for (what, x) in &cases {
            let want = iamax_ref(x);
            assert_eq!(iamax(n, x, 1), want, "{} n={n} {what}", T::PREFIX);
            let mut wide = vec![nan; 3 * n];
            for (i, &v) in x.iter().enumerate() {
                wide[3 * i] = v;
            }
            assert_eq!(
                iamax(n, &wide, 3),
                want,
                "{} n={n} {what}, incx=3",
                T::PREFIX
            );
        }
        assert_eq!(iamax(n, &vec![T::zero(); n], 1), 0);
        let mut x = base;
        x[n - 1] = big;
        assert_eq!(iamax(n, &x, 1), n - 1);
    }
}

#[test]
fn iamax_matches_reference_all_types() {
    iamax_suite::<f32>();
    iamax_suite::<f64>();
    iamax_suite::<C32>();
    iamax_suite::<C64>();
}

#[test]
fn ger_variants() {
    let mut rng = Stream::new(5);
    let (m, n) = (6, 4);
    let x = rng.vec::<C64>(m);
    let y = rng.vec::<C64>(n);
    let alpha = rng.scalar::<C64>();
    let a0 = rng.vec::<C64>(m * n);

    let mut a = a0.clone();
    geru(m, n, alpha, &x, 1, &y, 1, &mut a, m);
    for j in 0..n {
        for i in 0..m {
            let want = a0[i + j * m] + alpha * x[i] * y[j];
            assert!((a[i + j * m] - want).abs() < 1e-12);
        }
    }

    let mut a = a0.clone();
    gerc(m, n, alpha, &x, 1, &y, 1, &mut a, m);
    for j in 0..n {
        for i in 0..m {
            let want = a0[i + j * m] + alpha * x[i] * y[j].conj();
            assert!((a[i + j * m] - want).abs() < 1e-12);
        }
    }
}

/// Builds a dense Hermitian (or symmetric) matrix and its triangle-only
/// representation for testing symv/hemv/syr/her/syr2/her2.
fn herm_pair(rng: &mut Stream, n: usize, conj: bool) -> (Vec<C64>, Vec<C64>) {
    let mut full = vec![C64::zero(); n * n];
    for j in 0..n {
        for i in 0..=j {
            let v: C64 = rng.scalar();
            let v = if i == j && conj {
                C64::from_real(v.re)
            } else {
                v
            };
            full[i + j * n] = v;
            full[j + i * n] = if conj { v.conj() } else { v };
        }
    }
    (full.clone(), full)
}

#[test]
fn symv_hemv_match_dense_gemv() {
    let mut rng = Stream::new(11);
    let n = 9;
    for conj in [false, true] {
        let (full, tri) = herm_pair(&mut rng, n, conj);
        let x = rng.vec::<C64>(n);
        let y0 = rng.vec::<C64>(n);
        let alpha = rng.scalar::<C64>();
        let beta = rng.scalar::<C64>();
        for uplo in [Uplo::Upper, Uplo::Lower] {
            // Poison the unused triangle to prove it is never read.
            let mut t = tri.clone();
            for j in 0..n {
                for i in 0..n {
                    let unused = match uplo {
                        Uplo::Upper => i > j,
                        Uplo::Lower => i < j,
                    };
                    if unused {
                        t[i + j * n] = C64::new(f64::NAN, f64::NAN);
                    }
                }
            }
            let mut y = y0.clone();
            if conj {
                hemv(uplo, n, alpha, &t, n, &x, 1, beta, &mut y, 1);
            } else {
                symv(uplo, n, alpha, &t, n, &x, 1, beta, &mut y, 1);
            }
            let mut yref = y0.clone();
            gemv(Trans::No, n, n, alpha, &full, n, &x, 1, beta, &mut yref, 1);
            assert_close(&y, &yref, n as f64, &format!("symv conj={conj} {uplo:?}"));
        }
    }
}

#[test]
fn rank_updates_preserve_structure() {
    let mut rng = Stream::new(13);
    let n = 7;
    let x = rng.vec::<C64>(n);
    let y = rng.vec::<C64>(n);
    for uplo in [Uplo::Upper, Uplo::Lower] {
        // her: A + alpha x x^H stays Hermitian with real diagonal.
        let (_, tri) = herm_pair(&mut rng, n, true);
        let mut a = tri.clone();
        her(uplo, n, 0.7, &x, 1, &mut a, n);
        for j in 0..n {
            assert!(a[j + j * n].im.abs() < 1e-14, "her diagonal must stay real");
            for i in 0..n {
                let stored = match uplo {
                    Uplo::Upper => i <= j,
                    Uplo::Lower => i >= j,
                };
                if stored {
                    let want = tri[i + j * n] + x[i] * x[j].conj() * C64::from_real(0.7);
                    assert!((a[i + j * n] - want).abs() < 1e-12);
                }
            }
        }
        // her2 against explicit formula.
        let (_, tri) = herm_pair(&mut rng, n, true);
        let mut a = tri.clone();
        let alpha = rng.scalar::<C64>();
        her2(uplo, n, alpha, &x, 1, &y, 1, &mut a, n);
        for j in 0..n {
            for i in 0..n {
                let stored = match uplo {
                    Uplo::Upper => i <= j,
                    Uplo::Lower => i >= j,
                };
                if stored {
                    let mut want = tri[i + j * n]
                        + alpha * x[i] * y[j].conj()
                        + alpha.conj() * y[i] * x[j].conj();
                    if i == j {
                        want = C64::from_real(want.re);
                    }
                    assert!(
                        (a[i + j * n] - want).abs() < 1e-12,
                        "her2 {uplo:?} ({i},{j})"
                    );
                }
            }
        }
    }
}

#[test]
fn trmv_trsv_roundtrip() {
    let mut rng = Stream::new(17);
    let n = 10;
    for uplo in [Uplo::Upper, Uplo::Lower] {
        for trans in [Trans::No, Trans::Trans, Trans::ConjTrans] {
            for diag in [Diag::NonUnit, Diag::Unit] {
                // Well-conditioned triangular matrix.
                let mut a = rng.vec::<C64>(n * n);
                for j in 0..n {
                    a[j + j * n] = C64::from_real(3.0) + a[j + j * n];
                }
                let x0 = rng.vec::<C64>(n);
                let mut x = x0.clone();
                trmv(uplo, trans, diag, n, &a, n, &mut x, 1);
                trsv(uplo, trans, diag, n, &a, n, &mut x, 1);
                assert_close(
                    &x,
                    &x0,
                    n as f64,
                    &format!("trmv∘trsv {uplo:?} {trans:?} {diag:?}"),
                );
            }
        }
    }
}

/// Triangle orders around one and two of `trmm`'s 48-row blocks against
/// right-hand-side counts on both sides of the 4-column switch from a
/// `trsv`/`trmv` per column to the Level-3 forms.
fn trsm_trmm_roundtrip<T: Scalar>() {
    let mut rng = Stream::new(19);
    for side in [Side::Left, Side::Right] {
        for na in [8usize, 48, 49, 100] {
            for nrhs in [3usize, 4, 5, 64] {
                let (m, n) = if side == Side::Left {
                    (na, nrhs)
                } else {
                    (nrhs, na)
                };
                for uplo in [Uplo::Upper, Uplo::Lower] {
                    for trans in [Trans::No, Trans::Trans, Trans::ConjTrans] {
                        for diag in [Diag::NonUnit, Diag::Unit] {
                            // Off-diagonals scaled down so the (possibly
                            // unit-diagonal) triangle stays well conditioned
                            // at order 100.
                            let shrink = T::from_f64(1.0 / na as f64);
                            let mut a: Vec<T> =
                                rng.vec::<T>(na * na).iter().map(|&x| x * shrink).collect();
                            for j in 0..na {
                                a[j + j * na] += T::from_f64(4.0);
                            }
                            let b0 = rng.vec::<T>(m * n);
                            let mut b = b0.clone();
                            let alpha = T::from_re_im(
                                <T::Real as Scalar>::from_f64(1.5),
                                <T::Real as Scalar>::from_f64(-0.5),
                            );
                            trsm(side, uplo, trans, diag, m, n, alpha, &a, na, &mut b, m);
                            // Undo: X·op(A) (or op(A)·X) should give back alpha*B.
                            trmm(side, uplo, trans, diag, m, n, T::one(), &a, na, &mut b, m);
                            let want: Vec<T> = b0.iter().map(|&v| alpha * v).collect();
                            assert_close(
                                &b,
                                &want,
                                1.0,
                                &format!(
                                    "{}trsm/trmm {side:?} {uplo:?} {trans:?} {diag:?} {m}x{n}",
                                    T::PREFIX
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn trsm_solves_and_trmm_inverts_it() {
    trsm_trmm_roundtrip::<f64>();
    trsm_trmm_roundtrip::<C64>();
}

/// Reference `xTRSM`/`xTRMM` with `alpha = 0` set `B := 0` and return
/// without referencing `A` — an operand the operation does not reference
/// must not reach the result (Demmel et al., arXiv:2207.09281).
fn alpha_zero_never_reads_a<T: Scalar>() {
    let na = 6usize;
    let a = vec![T::from_f64(f64::NAN); na * na];
    let mut rng = Stream::new(21);
    for side in [Side::Left, Side::Right] {
        for nrhs in [1usize, 8] {
            let (m, n) = if side == Side::Left {
                (na, nrhs)
            } else {
                (nrhs, na)
            };
            let ldb = m + 1;
            let b0 = rng.vec::<T>(ldb * n);
            for uplo in [Uplo::Upper, Uplo::Lower] {
                for trans in [Trans::No, Trans::Trans, Trans::ConjTrans] {
                    for diag in [Diag::NonUnit, Diag::Unit] {
                        let zero = T::zero();
                        let mut want = b0.clone();
                        for col in want.chunks_mut(ldb) {
                            col[..m].fill(zero);
                        }
                        let tag = format!("{side:?} {uplo:?} {trans:?} {diag:?} {m}x{n}");
                        let mut b = b0.clone();
                        trsm(side, uplo, trans, diag, m, n, zero, &a, na, &mut b, ldb);
                        assert!(b == want, "{}trsm {tag}", T::PREFIX);
                        let mut b = b0.clone();
                        trmm(side, uplo, trans, diag, m, n, zero, &a, na, &mut b, ldb);
                        assert!(b == want, "{}trmm {tag}", T::PREFIX);
                    }
                }
            }
        }
    }
}

#[test]
fn trsm_trmm_alpha_zero_never_read_a() {
    alpha_zero_never_reads_a::<f32>();
    alpha_zero_never_reads_a::<f64>();
    alpha_zero_never_reads_a::<C32>();
    alpha_zero_never_reads_a::<C64>();
}

#[test]
fn syrk_herk_match_gemm() {
    let mut rng = Stream::new(23);
    let (n, k) = (7, 9);
    for trans in [Trans::No, Trans::Trans] {
        let (am, an) = if trans == Trans::No { (n, k) } else { (k, n) };
        let a = rng.vec::<C64>(am * an);
        // syrk vs gemm(A, A^T)
        let mut c = vec![C64::zero(); n * n];
        syrk(
            Uplo::Upper,
            trans,
            n,
            k,
            C64::one(),
            &a,
            am,
            C64::zero(),
            &mut c,
            n,
        );
        let mut cref = vec![C64::zero(); n * n];
        let other = if trans == Trans::No {
            Trans::Trans
        } else {
            Trans::No
        };
        gemm_ref(
            trans,
            other,
            n,
            n,
            k,
            C64::one(),
            &a,
            am,
            &a,
            am,
            C64::zero(),
            &mut cref,
            n,
        );
        for j in 0..n {
            for i in 0..=j {
                assert!(
                    (c[i + j * n] - cref[i + j * n]).abs() < 1e-12,
                    "syrk {trans:?}"
                );
            }
        }
        // herk vs gemm(A, A^H): use ConjTrans pairing.
        let mut c = vec![C64::zero(); n * n];
        herk(Uplo::Lower, trans, n, k, 1.0, &a, am, 0.0, &mut c, n);
        let mut cref = vec![C64::zero(); n * n];
        let other = if trans == Trans::No {
            Trans::ConjTrans
        } else {
            Trans::No
        };
        let first = if trans == Trans::No {
            Trans::No
        } else {
            Trans::ConjTrans
        };
        gemm_ref(
            first,
            other,
            n,
            n,
            k,
            C64::one(),
            &a,
            am,
            &a,
            am,
            C64::zero(),
            &mut cref,
            n,
        );
        for j in 0..n {
            for i in j..n {
                assert!(
                    (c[i + j * n] - cref[i + j * n]).abs() < 1e-12,
                    "herk {trans:?}"
                );
            }
        }
    }
}

#[test]
fn syr2k_matches_gemm_sum() {
    let mut rng = Stream::new(29);
    // Below the packed crossover, and above it with ragged tiles and (at
    // n = 530) a second column band.
    for (n, k) in [(6usize, 4usize), (61, 40), (530, 3)] {
        for uplo in [Uplo::Upper, Uplo::Lower] {
            for trans in [Trans::No, Trans::Trans] {
                let ld = if trans == Trans::No { n } else { k };
                let other = if trans == Trans::No {
                    Trans::Trans
                } else {
                    Trans::No
                };
                let a = rng.vec::<f64>(n * k);
                let b = rng.vec::<f64>(n * k);
                let c0 = rng.vec::<f64>(n * n);
                let mut c = c0.clone();
                syr2k(uplo, trans, n, k, 2.0, &a, ld, &b, ld, -0.5, &mut c, n);
                let mut cref = c0.clone();
                gemm_ref(
                    trans, other, n, n, k, 2.0, &a, ld, &b, ld, -0.5, &mut cref, n,
                );
                gemm_ref(
                    trans, other, n, n, k, 2.0, &b, ld, &a, ld, 1.0, &mut cref, n,
                );
                for j in 0..n {
                    for i in 0..n {
                        let idx = i + j * n;
                        if i == j || (i < j) == (uplo == Uplo::Upper) {
                            assert!(
                                (c[idx] - cref[idx]).abs() < 1e-12,
                                "syr2k {uplo:?} {trans:?} n={n} ({i},{j})"
                            );
                        } else {
                            assert_eq!(c[idx], c0[idx], "syr2k touched ({i},{j})");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn symm_matches_dense_gemm() {
    let mut rng = Stream::new(31);
    let (m, n) = (6, 5);
    for side in [Side::Left, Side::Right] {
        let na = if side == Side::Left { m } else { n };
        let (full_small, _) = herm_pair(&mut rng, na, true);
        let b = rng.vec::<C64>(m * n);
        let c0 = rng.vec::<C64>(m * n);
        let alpha = rng.scalar::<C64>();
        let beta = rng.scalar::<C64>();
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let mut c = c0.clone();
            symm(
                true,
                side,
                uplo,
                m,
                n,
                alpha,
                &full_small,
                na,
                &b,
                m,
                beta,
                &mut c,
                m,
            );
            let mut cref = c0.clone();
            match side {
                Side::Left => gemm_ref(
                    Trans::No,
                    Trans::No,
                    m,
                    n,
                    m,
                    alpha,
                    &full_small,
                    na,
                    &b,
                    m,
                    beta,
                    &mut cref,
                    m,
                ),
                Side::Right => gemm_ref(
                    Trans::No,
                    Trans::No,
                    m,
                    n,
                    n,
                    alpha,
                    &b,
                    m,
                    &full_small,
                    na,
                    beta,
                    &mut cref,
                    m,
                ),
            }
            assert_close(
                &c,
                &cref,
                (m * n) as f64,
                &format!("hemm {side:?} {uplo:?}"),
            );
        }
    }
}

#[test]
fn band_routines_match_dense() {
    let mut rng = Stream::new(37);
    let (m, n, kl, ku) = (8, 8, 2, 1);
    // Dense banded matrix + its band storage.
    let mut dense = vec![C64::zero(); m * n];
    let ldab = kl + ku + 1;
    let mut band = vec![C64::zero(); ldab * n];
    for j in 0..n {
        for i in j.saturating_sub(ku)..(j + kl + 1).min(m) {
            let v: C64 = rng.scalar();
            dense[i + j * m] = v;
            band[ku + i - j + j * ldab] = v;
        }
    }
    let x = rng.vec::<C64>(m.max(n));
    for trans in [Trans::No, Trans::Trans, Trans::ConjTrans] {
        let ylen = if trans == Trans::No { m } else { n };
        let mut y = vec![C64::zero(); ylen];
        gbmv(
            trans,
            m,
            n,
            kl,
            ku,
            C64::one(),
            &band,
            ldab,
            &x,
            1,
            C64::zero(),
            &mut y,
            1,
        );
        let mut yref = vec![C64::zero(); ylen];
        gemv(
            trans,
            m,
            n,
            C64::one(),
            &dense,
            m,
            &x,
            1,
            C64::zero(),
            &mut yref,
            1,
        );
        assert_close(&y, &yref, n as f64, &format!("gbmv {trans:?}"));
    }

    // tbsv roundtrip on an upper-triangular band.
    let kd = 2;
    let ldab = kd + 1;
    let mut tband = vec![C64::zero(); ldab * n];
    let mut tdense = vec![C64::zero(); n * n];
    for j in 0..n {
        for i in j.saturating_sub(kd)..=j {
            let v: C64 = if i == j {
                C64::from_real(3.0) + rng.scalar()
            } else {
                rng.scalar()
            };
            tband[kd + i - j + j * ldab] = v;
            tdense[i + j * n] = v;
        }
    }
    for trans in [Trans::No, Trans::Trans, Trans::ConjTrans] {
        let x0 = rng.vec::<C64>(n);
        let mut xb = x0.clone();
        tbsv(
            Uplo::Upper,
            trans,
            Diag::NonUnit,
            n,
            kd,
            &tband,
            ldab,
            &mut xb,
            1,
        );
        let mut xd = x0.clone();
        trsv(Uplo::Upper, trans, Diag::NonUnit, n, &tdense, n, &mut xd, 1);
        assert_close(&xb, &xd, n as f64, &format!("tbsv {trans:?}"));
    }

    // sbmv vs dense hemv.
    let kd = 2;
    let ldab = kd + 1;
    let mut hb = vec![C64::zero(); ldab * n];
    let mut hd = vec![C64::zero(); n * n];
    for j in 0..n {
        for i in j.saturating_sub(kd)..=j {
            let v: C64 = if i == j {
                C64::from_real(rng.scalar::<C64>().re)
            } else {
                rng.scalar()
            };
            hb[kd + i - j + j * ldab] = v;
            hd[i + j * n] = v;
            hd[j + i * n] = v.conj();
        }
    }
    let x = rng.vec::<C64>(n);
    let mut y = vec![C64::zero(); n];
    sbmv(
        true,
        Uplo::Upper,
        n,
        kd,
        C64::one(),
        &hb,
        ldab,
        &x,
        1,
        C64::zero(),
        &mut y,
        1,
    );
    let mut yref = vec![C64::zero(); n];
    gemv(
        Trans::No,
        n,
        n,
        C64::one(),
        &hd,
        n,
        &x,
        1,
        C64::zero(),
        &mut yref,
        1,
    );
    assert_close(&y, &yref, n as f64, "hbmv");
}

#[test]
fn packed_routines_match_dense() {
    let mut rng = Stream::new(41);
    let n = 7;
    for uplo in [Uplo::Upper, Uplo::Lower] {
        // Hermitian dense + packed.
        let (full, _) = herm_pair(&mut rng, n, true);
        let mut ap = vec![C64::zero(); n * (n + 1) / 2];
        let idx = |i: usize, j: usize| -> usize {
            match uplo {
                Uplo::Upper => i + j * (j + 1) / 2,
                Uplo::Lower => i + j * (2 * n - j - 1) / 2,
            }
        };
        for j in 0..n {
            match uplo {
                Uplo::Upper => {
                    for i in 0..=j {
                        ap[idx(i, j)] = full[i + j * n];
                    }
                }
                Uplo::Lower => {
                    for i in j..n {
                        ap[idx(i, j)] = full[i + j * n];
                    }
                }
            }
        }
        let x = rng.vec::<C64>(n);
        let mut y = vec![C64::zero(); n];
        spmv(
            true,
            uplo,
            n,
            C64::one(),
            &ap,
            &x,
            1,
            C64::zero(),
            &mut y,
            1,
        );
        let mut yref = vec![C64::zero(); n];
        gemv(
            Trans::No,
            n,
            n,
            C64::one(),
            &full,
            n,
            &x,
            1,
            C64::zero(),
            &mut yref,
            1,
        );
        assert_close(&y, &yref, n as f64, &format!("hpmv {uplo:?}"));

        // tpmv/tpsv roundtrip.
        let mut tp = vec![C64::zero(); n * (n + 1) / 2];
        for (k, v) in tp.iter_mut().enumerate() {
            *v = C64::new(0.1 * (k as f64 + 1.0), -0.05 * k as f64);
        }
        for j in 0..n {
            tp[idx(j, j)] = C64::from_real(2.0 + j as f64 * 0.1);
        }
        for trans in [Trans::No, Trans::Trans, Trans::ConjTrans] {
            let x0 = rng.vec::<C64>(n);
            let mut x = x0.clone();
            tpmv(uplo, trans, Diag::NonUnit, n, &tp, &mut x, 1);
            tpsv(uplo, trans, Diag::NonUnit, n, &tp, &mut x, 1);
            assert_close(&x, &x0, n as f64, &format!("tpmv∘tpsv {uplo:?} {trans:?}"));
        }
    }
}

#[test]
fn spr2_matches_dense_syr2() {
    let mut rng = Stream::new(43);
    let n = 6;
    for uplo in [Uplo::Upper, Uplo::Lower] {
        let x = rng.vec::<C64>(n);
        let y = rng.vec::<C64>(n);
        let alpha = rng.scalar::<C64>();
        let mut dense = vec![C64::zero(); n * n];
        let mut ap = vec![C64::zero(); n * (n + 1) / 2];
        her2(uplo, n, alpha, &x, 1, &y, 1, &mut dense, n);
        spr2(true, uplo, n, alpha, &x, 1, &y, 1, &mut ap);
        let idx = |i: usize, j: usize| -> usize {
            match uplo {
                Uplo::Upper => i + j * (j + 1) / 2,
                Uplo::Lower => i + j * (2 * n - j - 1) / 2,
            }
        };
        for j in 0..n {
            let range: Vec<usize> = match uplo {
                Uplo::Upper => (0..=j).collect(),
                Uplo::Lower => (j..n).collect(),
            };
            for i in range {
                assert!((ap[idx(i, j)] - dense[i + j * n]).abs() < 1e-12);
            }
        }
    }
}
