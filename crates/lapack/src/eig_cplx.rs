//! Complex nonsymmetric eigenproblem: single-shift implicit QR on a
//! complex Hessenberg matrix (`zlahqr`-style `hseqr_cplx`), complex plane
//! rotations (`zlartg`), triangular eigenvector back-substitution
//! (`trevc_cplx`), Schur reordering (`trexc_cplx`) and the drivers
//! `geev_cplx` / `gees_cplx`.

use la_core::{Complex, RealScalar};

use crate::hess::{gebak, gebal, gehd2, orghr, BalanceJob};

/// Generates a complex plane rotation (`xLARTG`, complex form):
/// returns `(c, s, r)` with real `c ≥ 0` such that
/// `[c s; -conj(s) c]·[f; g] = [r; 0]`.
pub fn zlartg<R: RealScalar>(f: Complex<R>, g: Complex<R>) -> (R, Complex<R>, Complex<R>) {
    if g.abs1().is_zero() {
        return (R::one(), Complex::zero(), f);
    }
    if f.abs1().is_zero() {
        let ga = g.abs();
        return (R::zero(), g.conj().unscale(ga), Complex::new(ga, R::zero()));
    }
    let fa = f.abs();
    let ga = g.abs();
    let d = fa.hypot(ga);
    let c = fa / d;
    let fs = f.unscale(fa); // f/|f|
    let s = fs * g.conj().unscale(d);
    let r = fs.scale(d);
    (c, s, r)
}

/// Single-shift implicit QR on a complex upper Hessenberg matrix
/// (`xLAHQR`, complex form, `WANTT = true`): produces the (upper
/// triangular) Schur form in place, the eigenvalues in `w`, and
/// accumulates `Z` when provided. Returns `0` or the 1-based failure row.
#[allow(clippy::too_many_arguments)]
pub fn hseqr_cplx<R: RealScalar>(
    n: usize,
    ilo: usize,
    ihi: usize,
    h: &mut [Complex<R>],
    ldh: usize,
    w: &mut [Complex<R>],
    mut z: Option<(&mut [Complex<R>], usize)>,
) -> i32 {
    type C<R> = Complex<R>;
    let ulp = R::EPS;
    if n == 0 {
        return 0;
    }
    let nh = ihi - ilo + 1;
    let smlnum = R::sfmin() * (R::from_usize(nh) / ulp);

    let mut i = ihi as isize;
    while i >= ilo as isize {
        let iu = i as usize;
        if iu == ilo {
            w[iu] = h[iu + iu * ldh];
            i -= 1;
            continue;
        }
        let maxits = 60 * nh.max(10);
        let mut its = 0usize;
        let l;
        loop {
            // Split search.
            let mut ll = ilo;
            let mut k = iu;
            while k > ilo {
                let sub = h[k + (k - 1) * ldh].abs1();
                if sub <= smlnum {
                    ll = k;
                    break;
                }
                let mut tst = h[k - 1 + (k - 1) * ldh].abs1() + h[k + k * ldh].abs1();
                if tst.is_zero() {
                    if k >= ilo + 2 {
                        tst += h[k - 1 + (k - 2) * ldh].abs1();
                    }
                    if k < ihi {
                        tst += h[k + 1 + k * ldh].abs1();
                    }
                }
                if sub <= ulp * tst {
                    ll = k;
                    break;
                }
                k -= 1;
            }
            if ll > ilo {
                h[ll + (ll - 1) * ldh] = C::zero();
            }
            if ll >= iu {
                l = ll;
                break;
            }
            if its >= maxits {
                return (iu + 1) as i32;
            }
            its += 1;
            // Wilkinson shift from the trailing 2×2 (exceptional every 10th).
            let shift = if its.is_multiple_of(10) {
                h[iu + iu * ldh] + C::from_real(R::from_f64(0.75) * h[iu + (iu - 1) * ldh].abs1())
            } else {
                let a = h[iu - 1 + (iu - 1) * ldh];
                let b = h[iu - 1 + iu * ldh];
                let c = h[iu + (iu - 1) * ldh];
                let d = h[iu + iu * ldh];
                let two = C::from_real(R::one() + R::one());
                let p = (a - d).ladiv(two);
                let disc = (p * p + b * c).sqrt();
                let l1 = (a + d).ladiv(two) + disc;
                let l2 = (a + d).ladiv(two) - disc;
                if (l1 - d).abs1() <= (l2 - d).abs1() {
                    l1
                } else {
                    l2
                }
            };
            // Implicit single-shift sweep from ll to iu using 2×1
            // Householder reflectors.
            let m = ll;
            for k in m..iu {
                let (v1, v2) = if k == m {
                    (h[m + m * ldh] - shift, h[m + 1 + m * ldh])
                } else {
                    (h[k + (k - 1) * ldh], h[k + 1 + (k - 1) * ldh])
                };
                let mut tail = vec![v2];
                let (beta, tau) = crate::aux::larfg(v1, &mut tail);
                let v2n = tail[0];
                if k > m {
                    h[k + (k - 1) * ldh] = C::from_real(beta);
                    h[k + 1 + (k - 1) * ldh] = C::zero();
                }
                // Left: rows (k, k+1) ← (I − conj(τ)·v·vᴴ)·rows, all cols k..n.
                let tc = tau.conj();
                for j in k..n {
                    let s = h[k + j * ldh] + v2n.conj() * h[k + 1 + j * ldh];
                    h[k + j * ldh] = h[k + j * ldh] - tc * s;
                    h[k + 1 + j * ldh] = h[k + 1 + j * ldh] - tc * v2n * s;
                }
                // Right: cols (k, k+1) ← cols·(I − τ·v·vᴴ), rows 0..min(k+2,iu)+1.
                let last = (k + 2).min(iu);
                for r in 0..=last {
                    let s = h[r + k * ldh] + h[r + (k + 1) * ldh] * v2n;
                    h[r + k * ldh] = h[r + k * ldh] - tau * s;
                    h[r + (k + 1) * ldh] = h[r + (k + 1) * ldh] - tau * s * v2n.conj();
                }
                if let Some((zm, ldz)) = z.as_mut() {
                    let ld = *ldz;
                    for r in 0..ld {
                        let s = zm[r + k * ld] + zm[r + (k + 1) * ld] * v2n;
                        zm[r + k * ld] = zm[r + k * ld] - tau * s;
                        zm[r + (k + 1) * ld] = zm[r + (k + 1) * ld] - tau * s * v2n.conj();
                    }
                }
            }
        }
        let _ = l;
        // Converged 1×1 at iu.
        w[iu] = h[iu + iu * ldh];
        i -= 1;
    }
    // Zero the strict lower triangle (rounding dust below the diagonal).
    for j in 0..n {
        for r in j + 1..n {
            h[r + j * ldh] = Complex::zero();
        }
    }
    0
}

/// Right and/or left eigenvectors of a complex upper triangular Schur
/// factor, backtransformed by `Z` (`xTREVC`, complex form).
#[allow(clippy::type_complexity)]
pub fn trevc_cplx<R: RealScalar>(
    want_right: bool,
    want_left: bool,
    n: usize,
    t: &[Complex<R>],
    ldt: usize,
    z: &[Complex<R>],
    ldz: usize,
) -> (Vec<Complex<R>>, Vec<Complex<R>>) {
    type C<R> = Complex<R>;
    let smin = R::sfmin() / R::EPS;
    let mut vr = if want_right {
        vec![C::<R>::zero(); n * n]
    } else {
        vec![]
    };
    let mut vl = if want_left {
        vec![C::<R>::zero(); n * n]
    } else {
        vec![]
    };
    if want_right {
        for ki in (0..n).rev() {
            let lam = t[ki + ki * ldt];
            let mut x = vec![C::<R>::zero(); ki + 1];
            x[ki] = C::one();
            for j in (0..ki).rev() {
                let mut r = C::zero();
                for l in j + 1..=ki {
                    r += t[j + l * ldt] * x[l];
                }
                let den = t[j + j * ldt] - lam;
                let den = if den.abs1() < smin {
                    C::new(smin, R::zero())
                } else {
                    den
                };
                x[j] = (-r).ladiv(den);
            }
            // vr(:, ki) = Z(:, 0..=ki)·x, normalized.
            let mut nrm2 = R::zero();
            for r in 0..n {
                let mut s = C::zero();
                for (l, xv) in x.iter().enumerate() {
                    s += z[r + l * ldz] * *xv;
                }
                vr[r + ki * n] = s;
                nrm2 += s.norm_sqr();
            }
            let nrm = nrm2.sqrt_r();
            if nrm > R::zero() {
                for r in 0..n {
                    vr[r + ki * n] = vr[r + ki * n].unscale(nrm);
                }
            }
        }
    }
    if want_left {
        for ki in 0..n {
            // Solve Tᴴ·w = λ̄·w by forward substitution.
            let lam_bar = t[ki + ki * ldt].conj();
            let mut wv = vec![C::<R>::zero(); n];
            wv[ki] = C::one();
            for j in ki + 1..n {
                let mut r = C::zero();
                for l in ki..j {
                    r += t[l + j * ldt].conj() * wv[l];
                }
                let den = t[j + j * ldt].conj() - lam_bar;
                let den = if den.abs1() < smin {
                    C::new(smin, R::zero())
                } else {
                    den
                };
                wv[j] = (-r).ladiv(den);
            }
            let mut nrm2 = R::zero();
            for r in 0..n {
                let mut s = C::zero();
                for l in ki..n {
                    s += z[r + l * ldz] * wv[l];
                }
                vl[r + ki * n] = s;
                nrm2 += s.norm_sqr();
            }
            let nrm = nrm2.sqrt_r();
            if nrm > R::zero() {
                for r in 0..n {
                    vl[r + ki * n] = vl[r + ki * n].unscale(nrm);
                }
            }
        }
    }
    (vr, vl)
}

/// Swaps the adjacent diagonal entries `t(j,j)` and `t(j+1,j+1)` of a
/// complex Schur form, updating `T` and `Z` (`xTREXC`'s elementary step).
pub fn swap_cplx<R: RealScalar>(
    n: usize,
    t: &mut [Complex<R>],
    ldt: usize,
    z: &mut [Complex<R>],
    ldz: usize,
    j: usize,
) {
    let t11 = t[j + j * ldt];
    let t12 = t[j + (j + 1) * ldt];
    let t22 = t[j + 1 + (j + 1) * ldt];
    // Rotation from the eigenvector (t12, t22 − t11) of the block for t22.
    let (c, s, _r) = zlartg(t12, t22 - t11);
    // Rows (j, j+1) ← G·rows  (columns j..n).
    for col in j..n {
        let x = t[j + col * ldt];
        let y = t[j + 1 + col * ldt];
        t[j + col * ldt] = x.scale(c) + s * y;
        t[j + 1 + col * ldt] = y.scale(c) - s.conj() * x;
    }
    // Columns (j, j+1) ← cols·Gᴴ  (rows 0..=j+1).
    for row in 0..=(j + 1).min(n - 1) {
        let x = t[row + j * ldt];
        let y = t[row + (j + 1) * ldt];
        t[row + j * ldt] = x.scale(c) + y * s.conj();
        t[row + (j + 1) * ldt] = y.scale(c) - x * s;
    }
    for row in 0..ldz {
        let x = z[row + j * ldz];
        let y = z[row + (j + 1) * ldz];
        z[row + j * ldz] = x.scale(c) + y * s.conj();
        z[row + (j + 1) * ldz] = y.scale(c) - x * s;
    }
    // Exact zeros/values on the diagonal positions.
    t[j + 1 + j * ldt] = Complex::zero();
    t[j + j * ldt] = t22;
    t[j + 1 + (j + 1) * ldt] = t11;
}

/// Results of [`geev_cplx`].
pub struct GeevCplxResult<R> {
    /// Eigenvalues.
    pub w: Vec<Complex<R>>,
    /// Right eigenvectors (columns), empty unless requested.
    pub vr: Vec<Complex<R>>,
    /// Left eigenvectors (columns), empty unless requested.
    pub vl: Vec<Complex<R>>,
}

/// Eigenvalues and optionally eigenvectors of a complex general matrix
/// (`xGEEV`, complex form). `A` is destroyed.
pub fn geev_cplx<R: RealScalar>(
    want_vl: bool,
    want_vr: bool,
    n: usize,
    a: &mut [Complex<R>],
    lda: usize,
) -> (i32, GeevCplxResult<R>) {
    type C<R> = Complex<R>;
    let mut res = GeevCplxResult {
        w: vec![C::<R>::zero(); n],
        vr: vec![],
        vl: vec![],
    };
    if n == 0 {
        return (0, res);
    }
    let (ilo, ihi, scale) = gebal::<C<R>>(BalanceJob::Both, n, a, lda);
    let mut tau = vec![C::<R>::zero(); n.saturating_sub(1).max(1)];
    gehd2(n, ilo, ihi, a, lda, &mut tau);
    let want_vecs = want_vl || want_vr;
    let mut zq = if want_vecs {
        let mut q = vec![C::<R>::zero(); n * n];
        crate::aux::lacpy(None, n, n, a, lda, &mut q, n);
        orghr(n, ilo, ihi, &mut q, n, &tau);
        q
    } else {
        vec![]
    };
    for j in 0..n {
        for i in j + 2..n {
            a[i + j * lda] = C::zero();
        }
    }
    let info = if want_vecs {
        hseqr_cplx(n, ilo, ihi, a, lda, &mut res.w, Some((&mut zq, n)))
    } else {
        hseqr_cplx(n, ilo, ihi, a, lda, &mut res.w, None)
    };
    if info != 0 {
        return (info, res);
    }
    // Isolated eigenvalues from the balancing permutation.
    for i in (0..ilo).chain(ihi + 1..n) {
        res.w[i] = a[i + i * lda];
    }
    if want_vecs {
        let (vr, vl) = trevc_cplx(want_vr, want_vl, n, a, lda, &zq, n);
        res.vr = vr;
        res.vl = vl;
        if want_vr {
            gebak::<C<R>>(ilo, ihi, &scale, true, n, n, &mut res.vr, n);
            for j in 0..n {
                normalize_c(&mut res.vr[j * n..j * n + n]);
            }
        }
        if want_vl {
            gebak::<C<R>>(ilo, ihi, &scale, false, n, n, &mut res.vl, n);
            for j in 0..n {
                normalize_c(&mut res.vl[j * n..j * n + n]);
            }
        }
    }
    (0, res)
}

fn normalize_c<R: RealScalar>(col: &mut [Complex<R>]) {
    let mut ss = R::zero();
    for v in col.iter() {
        ss += v.norm_sqr();
    }
    let nrm = ss.sqrt_r();
    if nrm > R::zero() {
        for v in col.iter_mut() {
            *v = v.unscale(nrm);
        }
    }
}

/// Complex Schur decomposition with optional reordering (`xGEES`,
/// complex form): `A = Z·T·Zᴴ`. Returns `(info, w, sdim)`.
#[allow(clippy::type_complexity)]
pub fn gees_cplx<R: RealScalar>(
    want_vs: bool,
    n: usize,
    a: &mut [Complex<R>],
    lda: usize,
    select: Option<&dyn Fn(Complex<R>) -> bool>,
    vs: &mut [Complex<R>],
    ldvs: usize,
) -> (i32, Vec<Complex<R>>, usize) {
    type C<R> = Complex<R>;
    let mut w = vec![C::<R>::zero(); n];
    if n == 0 {
        return (0, w, 0);
    }
    let mut tau = vec![C::<R>::zero(); n.saturating_sub(1).max(1)];
    gehd2(n, 0, n - 1, a, lda, &mut tau);
    let mut zbuf;
    let (zslice, ldz): (&mut [C<R>], usize) = if want_vs {
        crate::aux::lacpy(None, n, n, a, lda, vs, ldvs);
        orghr(n, 0, n - 1, vs, ldvs, &tau);
        (vs, ldvs)
    } else {
        zbuf = vec![C::<R>::zero(); n * n];
        crate::aux::lacpy(None, n, n, a, lda, &mut zbuf, n);
        orghr(n, 0, n - 1, &mut zbuf, n, &tau);
        (&mut zbuf, n)
    };
    for j in 0..n {
        for i in j + 2..n {
            a[i + j * lda] = C::zero();
        }
    }
    let info = hseqr_cplx(n, 0, n - 1, a, lda, &mut w, Some((zslice, ldz)));
    if info != 0 {
        return (info, w, 0);
    }
    let mut sdim = 0usize;
    if let Some(sel) = select {
        let mut dst = 0usize;
        for src in 0..n {
            if sel(a[src + src * lda]) {
                let mut pos = src;
                while pos > dst {
                    swap_cplx(n, a, lda, zslice, ldz, pos - 1);
                    pos -= 1;
                }
                dst += 1;
            }
        }
        sdim = dst;
    }
    for (j, wj) in w.iter_mut().enumerate() {
        *wj = a[j + j * lda];
    }
    (0, w, sdim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use la_blas::gemm;
    use la_core::{Trans, C64};

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((self.0 >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
        fn cmat(&mut self, n: usize) -> Vec<C64> {
            (0..n * n)
                .map(|_| C64::new(self.next(), self.next()))
                .collect()
        }
    }

    #[test]
    fn zlartg_rotates() {
        let f = C64::new(1.0, 2.0);
        let g = C64::new(-3.0, 0.5);
        let (c, s, r) = zlartg(f, g);
        assert!((f.scale(c) + s * g - r).abs() < 1e-14);
        assert!((g.scale(c) - s.conj() * f).abs() < 1e-14);
        assert!((c * c + s.norm_sqr() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn complex_schur_random() {
        let mut rng = Rng(5);
        for &n in &[1usize, 2, 3, 6, 11, 24] {
            let a0 = rng.cmat(n);
            let mut t = a0.clone();
            let mut tau = vec![C64::zero(); n.max(2) - 1];
            crate::hess::gehd2(n, 0, n - 1, &mut t, n, &mut tau);
            let mut z = t.clone();
            crate::hess::orghr(n, 0, n - 1, &mut z, n, &tau);
            for j in 0..n {
                for i in j + 2..n {
                    t[i + j * n] = C64::zero();
                }
            }
            let mut w = vec![C64::zero(); n];
            let info = hseqr_cplx(n, 0, n - 1, &mut t, n, &mut w, Some((&mut z, n)));
            assert_eq!(info, 0, "n={n}");
            // T upper triangular.
            for j in 0..n {
                for i in j + 1..n {
                    assert_eq!(t[i + j * n], C64::zero(), "T not triangular ({i},{j})");
                }
                assert_eq!(w[j], t[j + j * n]);
            }
            // Z unitary, A = Z T Zᴴ.
            let mut zhz = vec![C64::zero(); n * n];
            gemm(
                Trans::ConjTrans,
                Trans::No,
                n,
                n,
                n,
                C64::one(),
                &z,
                n,
                &z,
                n,
                C64::zero(),
                &mut zhz,
                n,
            );
            for j in 0..n {
                for i in 0..n {
                    let want = if i == j { C64::one() } else { C64::zero() };
                    assert!((zhz[i + j * n] - want).abs() < 1e-12 * (n as f64 + 1.0));
                }
            }
            let mut zt = vec![C64::zero(); n * n];
            gemm(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                C64::one(),
                &z,
                n,
                &t,
                n,
                C64::zero(),
                &mut zt,
                n,
            );
            let mut rec = vec![C64::zero(); n * n];
            gemm(
                Trans::No,
                Trans::ConjTrans,
                n,
                n,
                n,
                C64::one(),
                &zt,
                n,
                &z,
                n,
                C64::zero(),
                &mut rec,
                n,
            );
            for k in 0..n * n {
                assert!(
                    (rec[k] - a0[k]).abs() < 1e-11 * (n as f64 + 1.0),
                    "n={n} ZTZᴴ≠A at {k}"
                );
            }
        }
    }

    #[test]
    fn geev_cplx_eigenpairs() {
        let mut rng = Rng(9);
        for &n in &[3usize, 8, 15] {
            let a0 = rng.cmat(n);
            let mut a = a0.clone();
            let (info, res) = geev_cplx(true, true, n, &mut a, n);
            assert_eq!(info, 0);
            for j in 0..n {
                // Right: A v = λ v.
                let v = &res.vr[j * n..j * n + n];
                let mut av = vec![C64::zero(); n];
                la_blas::gemv(
                    Trans::No,
                    n,
                    n,
                    C64::one(),
                    &a0,
                    n,
                    v,
                    1,
                    C64::zero(),
                    &mut av,
                    1,
                );
                for i in 0..n {
                    assert!(
                        (av[i] - res.w[j] * v[i]).abs() < 1e-10 * (n as f64),
                        "n={n} right pair {j}"
                    );
                }
                // Left: uᴴ A = λ uᴴ  ⇔  Aᴴ u = λ̄ u.
                let u = &res.vl[j * n..j * n + n];
                let mut ahu = vec![C64::zero(); n];
                la_blas::gemv(
                    Trans::ConjTrans,
                    n,
                    n,
                    C64::one(),
                    &a0,
                    n,
                    u,
                    1,
                    C64::zero(),
                    &mut ahu,
                    1,
                );
                for i in 0..n {
                    assert!(
                        (ahu[i] - res.w[j].conj() * u[i]).abs() < 1e-10 * (n as f64),
                        "n={n} left pair {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn gees_cplx_reorders() {
        let mut rng = Rng(13);
        let n = 10;
        let a0 = rng.cmat(n);
        let mut a = a0.clone();
        let mut vs = vec![C64::zero(); n * n];
        let select = |w: C64| w.re > 0.0;
        let (info, w, sdim) = gees_cplx(true, n, &mut a, n, Some(&select), &mut vs, n);
        assert_eq!(info, 0);
        for (j, wj) in w.iter().enumerate() {
            if j < sdim {
                assert!(wj.re > 0.0, "leading eigenvalue {j} has re = {}", wj.re);
            } else {
                assert!(wj.re <= 0.0, "trailing eigenvalue {j} has re = {}", wj.re);
            }
        }
        // Schur relation after reordering.
        let mut vt = vec![C64::zero(); n * n];
        gemm(
            Trans::No,
            Trans::No,
            n,
            n,
            n,
            C64::one(),
            &vs,
            n,
            &a,
            n,
            C64::zero(),
            &mut vt,
            n,
        );
        let mut rec = vec![C64::zero(); n * n];
        gemm(
            Trans::No,
            Trans::ConjTrans,
            n,
            n,
            n,
            C64::one(),
            &vt,
            n,
            &vs,
            n,
            C64::zero(),
            &mut rec,
            n,
        );
        for k in 0..n * n {
            assert!((rec[k] - a0[k]).abs() < 1e-10, "reordered ZTZᴴ≠A at {k}");
        }
    }

    #[test]
    fn swap_cplx_direct() {
        let n = 2;
        let mut t = vec![
            C64::new(1.0, 1.0),
            C64::zero(),
            C64::new(0.5, -0.25),
            C64::new(-2.0, 3.0),
        ];
        let t0c = (t[0], t[3]);
        let mut z = vec![C64::one(), C64::zero(), C64::zero(), C64::one()];
        let tt = t.clone();
        swap_cplx(2, &mut t, n, &mut z, n, 0);
        assert_eq!(t[1], C64::zero());
        assert!((t[0] - t0c.1).abs() < 1e-14);
        assert!((t[3] - t0c.0).abs() < 1e-14);
        // Similarity: Z T Zᴴ = T_old.
        let mut zt = vec![C64::zero(); 4];
        gemm(
            Trans::No,
            Trans::No,
            2,
            2,
            2,
            C64::one(),
            &z,
            2,
            &t,
            2,
            C64::zero(),
            &mut zt,
            2,
        );
        let mut rec = vec![C64::zero(); 4];
        gemm(
            Trans::No,
            Trans::ConjTrans,
            2,
            2,
            2,
            C64::one(),
            &zt,
            2,
            &z,
            2,
            C64::zero(),
            &mut rec,
            2,
        );
        for k in 0..4 {
            assert!((rec[k] - tt[k]).abs() < 1e-13);
        }
    }

    #[test]
    fn known_complex_eigenvalues() {
        // Diagonal + nilpotent: eigenvalues are the diagonal.
        let n = 4;
        let mut a = vec![C64::zero(); n * n];
        let diag = [
            C64::new(1.0, 1.0),
            C64::new(-2.0, 0.5),
            C64::new(0.0, -3.0),
            C64::new(4.0, 0.0),
        ];
        for (i, &d) in diag.iter().enumerate() {
            a[i + i * n] = d;
            if i + 1 < n {
                a[i + (i + 1) * n] = C64::new(1.0, -1.0);
            }
        }
        let (info, res) = geev_cplx(false, false, n, &mut a, n);
        assert_eq!(info, 0);
        let mut got: Vec<C64> = res.w.clone();
        got.sort_by(|p, q| p.re.partial_cmp(&q.re).unwrap());
        let mut want = diag.to_vec();
        want.sort_by(|p, q| p.re.partial_cmp(&q.re).unwrap());
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-10, "{g} vs {w}");
        }
    }
}
