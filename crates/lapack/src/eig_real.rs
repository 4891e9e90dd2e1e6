//! Real nonsymmetric eigenproblem: Francis implicit double-shift QR on
//! Hessenberg form (`lahqr`/`hseqr`), standardization of 2×2 blocks
//! (`lanv2`), eigenvectors of the quasi-triangular Schur factor
//! (`trevc`), reordering of the Schur form (`trexc`/`trsen`-lite), and
//! the drivers `geev` and `gees` for real matrices.
//!
//! Complex arithmetic inside the real path (eigenvector back-substitution
//! for complex-conjugate pairs) uses `Complex<R>` directly.

use la_core::{Complex, RealScalar, Trans};

use crate::hess::{gebak, gebal, gehd2, orghr, BalanceJob};

/// Standardizes a real 2×2 block to Schur form (`xLANV2`).
///
/// Input block `[a b; c d]`; returns
/// `(a', b', c', d', rt1r, rt1i, rt2r, rt2i, cs, sn)` where the rotation
/// `[cs sn; -sn cs]` applied as a similarity gives the standardized block:
/// either upper triangular (real eigenvalues) or with `a' = d'` and
/// `b'·c' < 0` (complex pair `a' ± i·√(−b'c')`).
#[allow(clippy::type_complexity)]
pub fn lanv2<R: RealScalar>(a: R, b: R, c: R, d: R) -> (R, R, R, R, R, R, R, R, R, R) {
    let zero = R::zero();
    let one = R::one();
    let two = one + one;
    if c.is_zero() {
        return (a, b, c, d, a, zero, d, zero, one, zero);
    }
    if b.is_zero() {
        // Exchange rows and columns (rotation by 90°).
        return (d, -c, zero, a, d, zero, a, zero, zero, one);
    }
    if (a - d).is_zero() && b.sign(one) != c.sign(one) {
        let rti = (b.rabs() * c.rabs()).sqrt_r();
        return (a, b, c, d, a, rti, d, -rti, one, zero);
    }
    let p = (a - d) / two;
    let disc = p * p + b * c;
    if disc >= zero {
        // Real eigenvalues: λ₁ = d + z with z = p + sign(√disc, p).
        let z = p + disc.sqrt_r().sign(p);
        let lam1 = d + z;
        let lam2 = d - (b * c) / z;
        // Rotation from the eigenvector (z, c).
        let r = z.hypot(c);
        let cs = z / r;
        let sn = c / r;
        // Apply the similarity numerically.
        let (na, nb, _nc, nd) = rotate2(a, b, c, d, cs, sn);
        (na, nb, zero, nd, lam1, zero, lam2, zero, cs, sn)
    } else {
        // Complex pair: rotate to equalize the diagonal.
        // tan(2θ) = -(a-d)/(b+c); handle b + c = 0 with θ = π/4.
        let t = -(a - d);
        let u = b + c;
        let (cs, sn) = if u.is_zero() {
            let h = (one / two).sqrt_r();
            (h, h)
        } else {
            let rr = t.hypot(u);
            let cos2 = u / rr;
            let sin2 = t / rr;
            // Half-angle with the branch cos θ ≥ 0.
            let cs = ((one + cos2.rabs()) / two).sqrt_r();
            let sn0 = sin2 / (two * cs);
            if cos2 >= zero {
                (cs, sn0)
            } else {
                // cos2θ < 0: swap roles.
                let snh = cs;
                let csh = sin2 / (two * snh);
                (csh.rabs(), snh.mul_real_sign(csh, sin2))
            }
        };
        let (na, nb, nc, nd) = rotate2(a, b, c, d, cs, sn);
        let mid = (na + nd) / two;
        let prod = nb * nc;
        let rti = if prod < zero {
            (-prod).sqrt_r()
        } else {
            // Rounding pushed the product nonnegative: treat as (nearly)
            // equal real eigenvalues.
            zero
        };
        (mid, nb, nc, mid, mid, rti, mid, -rti, cs, sn)
    }
}

/// Small helper trait used by [`lanv2`]'s branch bookkeeping.
trait SignHelp: RealScalar {
    fn mul_real_sign(self, mag_src: Self, sign_src: Self) -> Self {
        let _ = mag_src;
        // magnitude of self, sign of sign_src — used to keep the rotation
        // consistent across the cos2θ < 0 branch.
        self.rabs().sign(sign_src)
    }
}
impl<R: RealScalar> SignHelp for R {}

/// Applies the similarity `Gᵀ·M·G` with `G = [cs -sn; sn cs]` to a 2×2.
fn rotate2<R: RealScalar>(a: R, b: R, c: R, d: R, cs: R, sn: R) -> (R, R, R, R) {
    // Rows first.
    let (r1a, r1b) = (cs * a + sn * c, cs * b + sn * d);
    let (r2a, r2b) = (-sn * a + cs * c, -sn * b + cs * d);
    // Then columns.
    let na = r1a * cs + r1b * sn;
    let nb = -r1a * sn + r1b * cs;
    let nc = r2a * cs + r2b * sn;
    let nd = -r2a * sn + r2b * cs;
    (na, nb, nc, nd)
}

/// Francis implicit double-shift QR iteration on an upper Hessenberg
/// matrix (`xLAHQR` with `WANTT = true`): computes the real Schur form
/// in place, the eigenvalues in `(wr, wi)`, and accumulates `Z` if given.
/// Returns `0` on success, or `i+1` (1-based) if convergence failed at
/// row `i`.
#[allow(clippy::too_many_arguments)]
pub fn hseqr<R: RealScalar>(
    n: usize,
    ilo: usize,
    ihi: usize,
    h: &mut [R],
    ldh: usize,
    wr: &mut [R],
    wi: &mut [R],
    mut z: Option<(&mut [R], usize)>,
) -> i32 {
    let zero = R::zero();
    let one = R::one();
    let ulp = R::EPS;
    if n == 0 {
        return 0;
    }
    let nh = ihi - ilo + 1;
    let smlnum = R::sfmin() * (R::from_usize(nh) / ulp);
    let dat1 = R::from_f64(0.75);
    let dat2 = R::from_f64(-0.4375);

    let mut i = ihi as isize;
    while i >= ilo as isize {
        let iu = i as usize;
        if iu == ilo {
            wr[iu] = h[iu + iu * ldh];
            wi[iu] = zero;
            i -= 1;
            continue;
        }
        #[allow(unused_assignments)]
        let mut l = ilo;
        let maxits = 40 * nh.max(10);
        let mut its = 0usize;
        loop {
            // Look for a negligible subdiagonal to split the problem.
            l = ilo;
            let mut k = iu;
            while k > ilo {
                let sub = h[k + (k - 1) * ldh].rabs();
                if sub <= smlnum {
                    l = k;
                    break;
                }
                let mut tst = h[k - 1 + (k - 1) * ldh].rabs() + h[k + k * ldh].rabs();
                if tst.is_zero() {
                    if k >= ilo + 2 {
                        tst += h[k - 1 + (k - 2) * ldh].rabs();
                    }
                    if k < ihi {
                        tst += h[k + 1 + k * ldh].rabs();
                    }
                }
                if sub <= ulp * tst {
                    // Ahues–Tisseur refined deflation criterion.
                    let ab = sub.maxr(h[k - 1 + k * ldh].rabs());
                    let ba = sub.minr(h[k - 1 + k * ldh].rabs());
                    let aa = h[k + k * ldh]
                        .rabs()
                        .maxr((h[k - 1 + (k - 1) * ldh] - h[k + k * ldh]).rabs());
                    let bb = h[k + k * ldh]
                        .rabs()
                        .minr((h[k - 1 + (k - 1) * ldh] - h[k + k * ldh]).rabs());
                    let s = aa + ab;
                    if ba * (ab / s) <= smlnum.maxr(ulp * (bb * (aa / s))) {
                        l = k;
                        break;
                    }
                }
                k -= 1;
            }
            if l > ilo {
                h[l + (l - 1) * ldh] = zero;
            }
            if l + 1 >= iu {
                break;
            }
            if its >= maxits {
                return (iu + 1) as i32;
            }
            its += 1;
            // Shifts.
            let (h11, h21, h12, h22);
            if its == 10 || its == 20 || its.is_multiple_of(30) {
                // Exceptional shift.
                let s = h[iu + (iu - 1) * ldh].rabs() + h[iu - 1 + (iu - 2) * ldh].rabs();
                h11 = dat1 * s + h[iu + iu * ldh];
                h12 = dat2 * s;
                h21 = s;
                h22 = h11;
            } else {
                h11 = h[iu - 1 + (iu - 1) * ldh];
                h21 = h[iu + (iu - 1) * ldh];
                h12 = h[iu - 1 + iu * ldh];
                h22 = h[iu + iu * ldh];
            }
            let s = h11.rabs() + h12.rabs() + h21.rabs() + h22.rabs();
            let (rt1r, rt1i, rt2r, rt2i);
            if s.is_zero() {
                rt1r = zero;
                rt1i = zero;
                rt2r = zero;
                rt2i = zero;
            } else {
                let h11 = h11 / s;
                let h12 = h12 / s;
                let h21 = h21 / s;
                let h22 = h22 / s;
                let tr = (h11 + h22) / (one + one);
                let det = (h11 - tr) * (h22 - tr) - h12 * h21;
                let rtdisc = det.rabs().sqrt_r();
                if det >= zero {
                    // Complex conjugate shifts.
                    rt1r = tr * s;
                    rt1i = rtdisc * s;
                    rt2r = rt1r;
                    rt2i = -rt1i;
                } else {
                    // Real shifts: pick the one closer to h22, use twice.
                    let r1 = tr + rtdisc;
                    let r2 = tr - rtdisc;
                    let chosen = if (r1 - h22).rabs() <= (r2 - h22).rabs() {
                        r1
                    } else {
                        r2
                    };
                    rt1r = chosen * s;
                    rt2r = rt1r;
                    rt1i = zero;
                    rt2i = zero;
                }
            }
            // Find the sweep start m (small-bulge criterion).
            let mut v = [zero; 3];
            #[allow(unused_assignments)]
            let mut m = l;
            let mut mm = iu.saturating_sub(2);
            loop {
                if mm < l || mm == usize::MAX {
                    m = l;
                    // Recompute v at l.
                    let h21s = h[l + 1 + l * ldh];
                    let ss = (h[l + l * ldh] - rt2r).rabs() + rt1i.rabs() + h21s.rabs();
                    let h21s = h21s / ss;
                    v[0] = h21s * h[l + (l + 1) * ldh]
                        + (h[l + l * ldh] - rt1r) * ((h[l + l * ldh] - rt2r) / ss)
                        - rt1i * (rt2i / ss);
                    v[1] = h21s * (h[l + l * ldh] + h[l + 1 + (l + 1) * ldh] - rt1r - rt2r);
                    v[2] = h21s * h[l + 2 + (l + 1) * ldh];
                    break;
                }
                let mu = mm;
                let h21s = h[mu + 1 + mu * ldh];
                let ss = (h[mu + mu * ldh] - rt2r).rabs() + rt1i.rabs() + h21s.rabs();
                let h21s = h21s / ss;
                v[0] = h21s * h[mu + (mu + 1) * ldh]
                    + (h[mu + mu * ldh] - rt1r) * ((h[mu + mu * ldh] - rt2r) / ss)
                    - rt1i * (rt2i / ss);
                v[1] = h21s * (h[mu + mu * ldh] + h[mu + 1 + (mu + 1) * ldh] - rt1r - rt2r);
                v[2] = h21s * h[mu + 2 + (mu + 1) * ldh];
                let sv = v[0].rabs() + v[1].rabs() + v[2].rabs();
                v[0] = v[0] / sv;
                v[1] = v[1] / sv;
                v[2] = v[2] / sv;
                if mu == l {
                    m = l;
                    break;
                }
                let lhs = h[mu + (mu - 1) * ldh].rabs() * (v[1].rabs() + v[2].rabs());
                let rhs = ulp
                    * v[0].rabs()
                    * (h[mu - 1 + (mu - 1) * ldh].rabs()
                        + h[mu + mu * ldh].rabs()
                        + h[mu + 1 + (mu + 1) * ldh].rabs());
                if lhs <= rhs {
                    m = mu;
                    break;
                }
                if mm == 0 {
                    m = l;
                    break;
                }
                mm -= 1;
            }
            // Double-shift bulge chase.
            for kk in m..iu {
                let nr = 3.min(iu - kk + 1);
                let mut vv = [zero; 3];
                if kk > m {
                    for (r, vr) in vv.iter_mut().enumerate().take(nr) {
                        *vr = h[kk + r + (kk - 1) * ldh];
                    }
                } else {
                    vv[..3].copy_from_slice(&v);
                    if nr == 2 {
                        vv[2] = zero;
                    }
                }
                // Householder on vv[0..nr].
                let alpha = vv[0];
                let mut tail: Vec<R> = vv[1..nr].to_vec();
                let (beta, t1) = crate::aux::larfg(alpha, &mut tail);
                let v2 = if nr > 1 { tail[0] } else { zero };
                let v3 = if nr > 2 { tail[1] } else { zero };
                let t2 = t1 * v2;
                let t3 = t1 * v3;
                if kk > m {
                    h[kk + (kk - 1) * ldh] = beta;
                    h[kk + 1 + (kk - 1) * ldh] = zero;
                    if kk < iu - 1 {
                        h[kk + 2 + (kk - 1) * ldh] = zero;
                    }
                } else if m > l {
                    // Starting mid-block: account for the reflector's effect
                    // on the (negligible-fill) coupling column.
                    h[kk + (kk - 1) * ldh] = h[kk + (kk - 1) * ldh] * (one - t1);
                }
                // Left: rows kk..kk+nr over all columns kk.. (wantt).
                for j in kk..n {
                    let mut sum = h[kk + j * ldh] + v2 * h[kk + 1 + j * ldh];
                    if nr == 3 {
                        sum += v3 * h[kk + 2 + j * ldh];
                    }
                    h[kk + j * ldh] = h[kk + j * ldh] - sum * t1;
                    h[kk + 1 + j * ldh] = h[kk + 1 + j * ldh] - sum * t2;
                    if nr == 3 {
                        h[kk + 2 + j * ldh] = h[kk + 2 + j * ldh] - sum * t3;
                    }
                }
                // Right: columns kk..kk+nr over rows 0..min(kk+3, iu)+1.
                let last = (kk + 3).min(iu);
                for r in 0..=last {
                    let mut sum = h[r + kk * ldh] + v2 * h[r + (kk + 1) * ldh];
                    if nr == 3 {
                        sum += v3 * h[r + (kk + 2) * ldh];
                    }
                    h[r + kk * ldh] = h[r + kk * ldh] - sum * t1;
                    h[r + (kk + 1) * ldh] = h[r + (kk + 1) * ldh] - sum * t2;
                    if nr == 3 {
                        h[r + (kk + 2) * ldh] = h[r + (kk + 2) * ldh] - sum * t3;
                    }
                }
                if let Some((zm, ldz)) = z.as_mut() {
                    let ld = *ldz;
                    for r in 0..ld {
                        let mut sum = zm[r + kk * ld] + v2 * zm[r + (kk + 1) * ld];
                        if nr == 3 {
                            sum += v3 * zm[r + (kk + 2) * ld];
                        }
                        zm[r + kk * ld] = zm[r + kk * ld] - sum * t1;
                        zm[r + (kk + 1) * ld] = zm[r + (kk + 1) * ld] - sum * t2;
                        if nr == 3 {
                            zm[r + (kk + 2) * ld] = zm[r + (kk + 2) * ld] - sum * t3;
                        }
                    }
                }
            }
        }
        // Converged 1×1 or 2×2 block at rows l..=iu.
        if l == iu {
            wr[iu] = h[iu + iu * ldh];
            wi[iu] = zero;
            i -= 1;
        } else {
            // l == iu - 1: standardize the 2×2 block.
            let (na, nb, nc, nd, r1r, r1i, r2r, r2i, cs, sn) = lanv2(
                h[iu - 1 + (iu - 1) * ldh],
                h[iu - 1 + iu * ldh],
                h[iu + (iu - 1) * ldh],
                h[iu + iu * ldh],
            );
            h[iu - 1 + (iu - 1) * ldh] = na;
            h[iu - 1 + iu * ldh] = nb;
            h[iu + (iu - 1) * ldh] = nc;
            h[iu + iu * ldh] = nd;
            wr[iu - 1] = r1r;
            wi[iu - 1] = r1i;
            wr[iu] = r2r;
            wi[iu] = r2i;
            // Apply the rotation to the rest of H and to Z.
            if iu + 1 < n {
                for j in iu + 1..n {
                    let x = h[iu - 1 + j * ldh];
                    let y = h[iu + j * ldh];
                    h[iu - 1 + j * ldh] = cs * x + sn * y;
                    h[iu + j * ldh] = cs * y - sn * x;
                }
            }
            if iu >= 2 {
                for r in 0..iu - 1 {
                    let x = h[r + (iu - 1) * ldh];
                    let y = h[r + iu * ldh];
                    h[r + (iu - 1) * ldh] = cs * x + sn * y;
                    h[r + iu * ldh] = cs * y - sn * x;
                }
            }
            if let Some((zm, ldz)) = z.as_mut() {
                let ld = *ldz;
                for r in 0..ld {
                    let x = zm[r + (iu - 1) * ld];
                    let y = zm[r + iu * ld];
                    zm[r + (iu - 1) * ld] = cs * x + sn * y;
                    zm[r + iu * ld] = cs * y - sn * x;
                }
            }
            i -= 2;
        }
    }
    0
}

/// Guarded complex division used during back-substitution: denominator
/// magnitudes below `smin` are replaced by `smin`.
fn guarded_div<R: RealScalar>(num: Complex<R>, den: Complex<R>, smin: R) -> Complex<R> {
    let d = if den.abs1() < smin {
        Complex::new(smin, R::zero())
    } else {
        den
    };
    num.ladiv(d)
}

/// Right and/or left eigenvectors of a real quasi-triangular Schur factor
/// (`xTREVC` with `SIDE` and backtransform): `t` is the Schur form
/// (`n × n`), `z` the Schur vectors; `(wr, wi)` the eigenvalues as
/// produced by [`hseqr`]. Returns `(vr, vl)` in LAPACK's packed real
/// convention (complex pairs occupy two columns: real and imaginary
/// parts).
#[allow(clippy::type_complexity)]
pub fn trevc<R: RealScalar>(
    want_right: bool,
    want_left: bool,
    n: usize,
    t: &[R],
    ldt: usize,
    z: &[R],
    ldz: usize,
    wr: &[R],
    wi: &[R],
) -> (Vec<R>, Vec<R>) {
    let zero = R::zero();
    let smin = R::sfmin() / R::EPS;
    let mut vr = if want_right {
        vec![zero; n * n]
    } else {
        vec![]
    };
    let mut vl = if want_left { vec![zero; n * n] } else { vec![] };

    // Helper: complex back-substitution for right eigenvectors of T at λ,
    // for the leading principal block 0..=ki.
    let solve_right = |ki: usize, lam: Complex<R>, x: &mut [Complex<R>]| {
        let mut j = ki as isize - 1;
        // Skip the eigenvalue's own block (1 or 2 rows already set).
        if wi[ki] != zero {
            j = ki as isize - 2;
        }
        while j >= 0 {
            let ju = j as usize;
            let pair = ju > 0 && !t[ju + (ju - 1) * ldt].is_zero();
            if !pair {
                // 1×1: x_j = −(Σ_{l>j} t_{jl} x_l)/(t_jj − λ).
                let mut r = Complex::zero();
                for l in ju + 1..=ki {
                    r += x[l].scale(t[ju + l * ldt]);
                }
                let den = Complex::new(t[ju + ju * ldt], zero) - lam;
                x[ju] = guarded_div(-r, den, smin);
                j -= 1;
            } else {
                // 2×2 block rows (ju-1, ju).
                let p = ju - 1;
                let mut r1 = Complex::zero();
                let mut r2 = Complex::zero();
                for l in ju + 1..=ki {
                    r1 += x[l].scale(t[p + l * ldt]);
                    r2 += x[l].scale(t[ju + l * ldt]);
                }
                // Solve [t_pp−λ, t_pj; t_jp, t_jj−λ]·[x_p; x_j] = −[r1; r2].
                let a11 = Complex::new(t[p + p * ldt], zero) - lam;
                let a12 = Complex::new(t[p + ju * ldt], zero);
                let a21 = Complex::new(t[ju + p * ldt], zero);
                let a22 = Complex::new(t[ju + ju * ldt], zero) - lam;
                let det = a11 * a22 - a12 * a21;
                let det = if det.abs1() < smin {
                    Complex::new(smin, zero)
                } else {
                    det
                };
                x[p] = (a12 * r2 - a22 * r1).ladiv(det);
                x[ju] = (a21 * r1 - a11 * r2).ladiv(det);
                j -= 2;
            }
        }
    };

    if want_right {
        let mut ki = n as isize - 1;
        while ki >= 0 {
            let k = ki as usize;
            if wi[k] == zero {
                // Real eigenvalue.
                let lam = Complex::new(wr[k], zero);
                let mut x = vec![Complex::zero(); k + 1];
                x[k] = Complex::one();
                solve_right(k, lam, &mut x);
                // vr column k = Z(:, 0..=k) · Re(x) (x is real here).
                for r in 0..n {
                    let mut s = zero;
                    for (l, xv) in x.iter().enumerate() {
                        s += z[r + l * ldz] * xv.re;
                    }
                    vr[r + k * n] = s;
                }
                normalize_col(&mut vr[k * n..k * n + n]);
                ki -= 1;
            } else {
                // Complex pair at (k-1, k) with wi[k-1] > 0.
                let p = k - 1;
                let lam = Complex::new(wr[p], wi[p]);
                let mut x = vec![Complex::zero(); k + 1];
                // Initialize within the 2×2 block.
                let t12 = t[p + k * ldt];
                let t21 = t[k + p * ldt];
                if t12.rabs() >= t21.rabs() {
                    x[p] = Complex::one();
                    x[k] = Complex::new(zero, wi[p] / t12);
                } else {
                    x[k] = Complex::one();
                    x[p] = Complex::new(zero, wi[p] / t21);
                }
                solve_right(k, lam, &mut x);
                // Backtransform; store Re in column p, Im in column k.
                for r in 0..n {
                    let mut sre = zero;
                    let mut sim = zero;
                    for (l, xv) in x.iter().enumerate() {
                        sre += z[r + l * ldz] * xv.re;
                        sim += z[r + l * ldz] * xv.im;
                    }
                    vr[r + p * n] = sre;
                    vr[r + k * n] = sim;
                }
                normalize_pair(&mut vr, n, p, k);
                ki -= 2;
            }
        }
    }

    if want_left {
        // Left eigenvectors: solve yᴴ·T = λ·yᴴ, i.e. forward-substitute
        // w = ȳ from (Tᵀ − λ̄)·w = 0.
        let mut ki = 0usize;
        while ki < n {
            let k = ki;
            let pair = wi[k] != zero;
            let lam_bar = if pair {
                Complex::new(wr[k], -wi[k]) // wi[k] > 0 at the first of the pair
            } else {
                Complex::new(wr[k], zero)
            };
            let lo = if pair { k + 2 } else { k + 1 };
            let mut w = vec![Complex::zero(); n];
            if pair {
                // Initialize within the block for Tᵀ.
                let t12 = t[k + (k + 1) * ldt];
                let t21 = t[k + 1 + k * ldt];
                // (Tᵀ − λ̄) restricted to the block: [[t11−λ̄, t21],[t12, t22−λ̄]].
                if t21.rabs() >= t12.rabs() {
                    w[k] = Complex::one();
                    w[k + 1] = Complex::new(zero, -wi[k] / t21);
                } else {
                    w[k + 1] = Complex::one();
                    w[k] = Complex::new(zero, -wi[k] / t12);
                }
            } else {
                w[k] = Complex::one();
            }
            let mut j = lo;
            while j < n {
                let pair_j = j + 1 < n && !t[j + 1 + j * ldt].is_zero();
                if !pair_j {
                    // (Tᵀ)_{jj} w_j = −Σ_{l<j} (Tᵀ)_{jl} w_l = −Σ t_{lj} w_l.
                    let mut r = Complex::zero();
                    for l in k..j {
                        r += w[l].scale(t[l + j * ldt]);
                    }
                    let den = Complex::new(t[j + j * ldt], zero) - lam_bar;
                    w[j] = guarded_div(-r, den, smin);
                    j += 1;
                } else {
                    let q = j + 1;
                    let mut r1 = Complex::zero();
                    let mut r2 = Complex::zero();
                    for l in k..j {
                        r1 += w[l].scale(t[l + j * ldt]);
                        r2 += w[l].scale(t[l + q * ldt]);
                    }
                    // Solve [[t_jj−λ̄, t_qj],[t_jq, t_qq−λ̄]]·[w_j; w_q] = −[r1; r2]
                    // (this is (Tᵀ − λ̄) restricted to rows/cols j, q).
                    let a11 = Complex::new(t[j + j * ldt], zero) - lam_bar;
                    let a12 = Complex::new(t[q + j * ldt], zero);
                    let a21 = Complex::new(t[j + q * ldt], zero);
                    let a22 = Complex::new(t[q + q * ldt], zero) - lam_bar;
                    let det = a11 * a22 - a12 * a21;
                    let det = if det.abs1() < smin {
                        Complex::new(smin, zero)
                    } else {
                        det
                    };
                    w[j] = (a12 * r2 - a22 * r1).ladiv(det);
                    w[q] = (a21 * r1 - a11 * r2).ladiv(det);
                    j += 2;
                }
            }
            // y = w̄; backtransform: vl = Z·y.
            if pair {
                for r in 0..n {
                    let mut sre = zero;
                    let mut sim = zero;
                    for l in k..n {
                        // y_l = conj(w_l) = (re, −im).
                        sre += z[r + l * ldz] * w[l].re;
                        sim += z[r + l * ldz] * (-w[l].im);
                    }
                    vl[r + k * n] = sre;
                    vl[r + (k + 1) * n] = sim;
                }
                normalize_pair(&mut vl, n, k, k + 1);
                ki += 2;
            } else {
                for r in 0..n {
                    let mut s = zero;
                    for l in k..n {
                        s += z[r + l * ldz] * w[l].re;
                    }
                    vl[r + k * n] = s;
                }
                normalize_col(&mut vl[k * n..k * n + n]);
                ki += 1;
            }
        }
    }
    (vr, vl)
}

fn normalize_col<R: RealScalar>(col: &mut [R]) {
    let nrm = la_blas::nrm2(col.len(), col, 1);
    if nrm > R::zero() {
        for v in col.iter_mut() {
            *v = *v / nrm;
        }
    }
}

fn normalize_pair<R: RealScalar>(v: &mut [R], n: usize, p: usize, k: usize) {
    let mut ss = R::zero();
    for r in 0..n {
        ss += v[r + p * n] * v[r + p * n] + v[r + k * n] * v[r + k * n];
    }
    let nrm = ss.sqrt_r();
    if nrm > R::zero() {
        for r in 0..n {
            v[r + p * n] = v[r + p * n] / nrm;
            v[r + k * n] = v[r + k * n] / nrm;
        }
    }
}

/// Block sizes of the quasi-triangular `T` starting at each row.
fn block_size<R: RealScalar>(t: &[R], ldt: usize, n: usize, j: usize) -> usize {
    if j + 1 < n && !t[j + 1 + j * ldt].is_zero() {
        2
    } else {
        1
    }
}

/// Swaps two adjacent diagonal blocks of a real Schur form (`xTREXC`'s
/// inner step / `xLAEXC`): the block starting at `j1` (size `p`) and the
/// next one (size `q`). Updates `T` and the Schur vectors `Z`.
pub fn swap_schur_blocks<R: RealScalar>(
    n: usize,
    t: &mut [R],
    ldt: usize,
    z: &mut [R],
    ldz: usize,
    j1: usize,
) -> i32 {
    let p = block_size(t, ldt, n, j1);
    let j2 = j1 + p;
    if j2 >= n {
        return 0;
    }
    let q = block_size(t, ldt, n, j2);
    let s = p + q;
    // Extract A11 (p×p), A12 (p×q), A22 (q×q).
    let mut a11 = vec![R::zero(); p * p];
    let mut a12 = vec![R::zero(); p * q];
    let mut a22 = vec![R::zero(); q * q];
    for c in 0..p {
        for r in 0..p {
            a11[r + c * p] = t[j1 + r + (j1 + c) * ldt];
        }
    }
    for c in 0..q {
        for r in 0..p {
            a12[r + c * p] = t[j1 + r + (j2 + c) * ldt];
        }
        for r in 0..q {
            a22[r + c * q] = t[j2 + r + (j2 + c) * ldt];
        }
    }
    // Solve the small Sylvester equation A11·X − X·A22 = A12 via the
    // Kronecker system (I⊗A11 − A22ᵀ⊗I)·vec(X) = vec(A12).
    let m = p * q;
    let mut kmat = vec![R::zero(); m * m];
    for cc in 0..q {
        for rr in 0..p {
            let row = rr + cc * p;
            for c2 in 0..q {
                for r2 in 0..p {
                    let col = r2 + c2 * p;
                    let mut v = R::zero();
                    if cc == c2 {
                        v += a11[rr + r2 * p];
                    }
                    if rr == r2 {
                        v -= a22[c2 + cc * q];
                    }
                    kmat[row + col * m] = v;
                }
            }
        }
    }
    // Invariance of span([X; I]) needs A11·X + A12 = X·A22, i.e. the
    // Sylvester right-hand side is −A12.
    let mut xvec: Vec<R> = a12.iter().map(|&v| -v).collect();
    let mut ipiv = vec![0i32; m];
    let info = crate::lu::gesv(m, 1, &mut kmat, m, &mut ipiv, &mut xvec, m);
    if info != 0 {
        return 1; // blocks too close to swap
    }
    // QR of [X; I_q] ((s) × q): its Q reverses the block order.
    let mut w = vec![R::zero(); s * q];
    for c in 0..q {
        for r in 0..p {
            w[r + c * s] = xvec[r + c * p];
        }
        w[p + c + c * s] = R::one();
    }
    let mut tauq = vec![R::zero(); q];
    crate::qr::geqrf(s, q, &mut w, s, &mut tauq);
    let mut qfull = vec![R::zero(); s * s];
    crate::aux::lacpy(None, s, q, &w, s, &mut qfull, s);
    crate::qr::orgqr(s, s, q, &mut qfull, s, &tauq);
    // Similarity on the full T: rows j1..j1+s ← Qᵀ·rows; cols ← cols·Q.
    // Rows.
    let mut tmp = vec![R::zero(); s];
    for c in 0..n {
        for r in 0..s {
            let mut acc = R::zero();
            for l in 0..s {
                acc += qfull[l + r * s] * t[j1 + l + c * ldt];
            }
            tmp[r] = acc;
        }
        for r in 0..s {
            t[j1 + r + c * ldt] = tmp[r];
        }
    }
    // Columns.
    for r in 0..n {
        for c in 0..s {
            let mut acc = R::zero();
            for l in 0..s {
                acc += t[r + (j1 + l) * ldt] * qfull[l + c * s];
            }
            tmp[c] = acc;
        }
        for c in 0..s {
            t[r + (j1 + c) * ldt] = tmp[c];
        }
    }
    // Z columns.
    for r in 0..ldz {
        for c in 0..s {
            let mut acc = R::zero();
            for l in 0..s {
                acc += z[r + (j1 + l) * ldz] * qfull[l + c * s];
            }
            tmp[c] = acc;
        }
        for c in 0..s {
            z[r + (j1 + c) * ldz] = tmp[c];
        }
    }
    // Clean the subdiagonal fill and restandardize the new blocks.
    // New leading block has size q, trailing p.
    for c in 0..q {
        for r in q..s {
            t[j1 + r + (j1 + c) * ldt] = R::zero();
        }
    }
    if q == 2 {
        standardize_2x2(n, t, ldt, z, ldz, j1);
    }
    if p == 2 {
        standardize_2x2(n, t, ldt, z, ldz, j1 + q);
    }
    0
}

/// Standardizes the 2×2 block at `(j, j)` via [`lanv2`], applying the
/// rotation to the rest of `T` and to `Z`.
fn standardize_2x2<R: RealScalar>(
    n: usize,
    t: &mut [R],
    ldt: usize,
    z: &mut [R],
    ldz: usize,
    j: usize,
) {
    let (na, nb, nc, nd, _r1r, _r1i, _r2r, _r2i, cs, sn) = lanv2(
        t[j + j * ldt],
        t[j + (j + 1) * ldt],
        t[j + 1 + j * ldt],
        t[j + 1 + (j + 1) * ldt],
    );
    t[j + j * ldt] = na;
    t[j + (j + 1) * ldt] = nb;
    t[j + 1 + j * ldt] = nc;
    t[j + 1 + (j + 1) * ldt] = nd;
    for c in j + 2..n {
        let x = t[j + c * ldt];
        let y = t[j + 1 + c * ldt];
        t[j + c * ldt] = cs * x + sn * y;
        t[j + 1 + c * ldt] = cs * y - sn * x;
    }
    for r in 0..j {
        let x = t[r + j * ldt];
        let y = t[r + (j + 1) * ldt];
        t[r + j * ldt] = cs * x + sn * y;
        t[r + (j + 1) * ldt] = cs * y - sn * x;
    }
    for r in 0..ldz {
        let x = z[r + j * ldz];
        let y = z[r + (j + 1) * ldz];
        z[r + j * ldz] = cs * x + sn * y;
        z[r + (j + 1) * ldz] = cs * y - sn * x;
    }
}

/// Reads the eigenvalues off a quasi-triangular `T`.
pub fn schur_eigenvalues<R: RealScalar>(n: usize, t: &[R], ldt: usize) -> (Vec<R>, Vec<R>) {
    let mut wr = vec![R::zero(); n];
    let mut wi = vec![R::zero(); n];
    let mut j = 0;
    while j < n {
        if block_size(t, ldt, n, j) == 2 {
            let (_, _, _, _, r1r, r1i, r2r, r2i, _, _) = lanv2(
                t[j + j * ldt],
                t[j + (j + 1) * ldt],
                t[j + 1 + j * ldt],
                t[j + 1 + (j + 1) * ldt],
            );
            wr[j] = r1r;
            wi[j] = r1i;
            wr[j + 1] = r2r;
            wi[j + 1] = r2i;
            j += 2;
        } else {
            wr[j] = t[j + j * ldt];
            wi[j] = R::zero();
            j += 1;
        }
    }
    (wr, wi)
}

/// Computed results of [`geev`].
pub struct GeevResult<R> {
    /// Real parts of the eigenvalues.
    pub wr: Vec<R>,
    /// Imaginary parts of the eigenvalues (conjugate pairs adjacent,
    /// positive first).
    pub wi: Vec<R>,
    /// Right eigenvectors in LAPACK's packed real convention (empty when
    /// not requested).
    pub vr: Vec<R>,
    /// Left eigenvectors, same convention (empty when not requested).
    pub vl: Vec<R>,
}

/// Eigenvalues and optionally left/right eigenvectors of a real general
/// matrix (`xGEEV`). `A` is destroyed. Returns `(info, result)`.
pub fn geev<R: RealScalar>(
    want_vl: bool,
    want_vr: bool,
    n: usize,
    a: &mut [R],
    lda: usize,
) -> (i32, GeevResult<R>) {
    let mut res = GeevResult {
        wr: vec![R::zero(); n],
        wi: vec![R::zero(); n],
        vr: vec![],
        vl: vec![],
    };
    if n == 0 {
        return (0, res);
    }
    let (ilo, ihi, scale) = gebal::<R>(BalanceJob::Both, n, a, lda);
    let mut tau = vec![R::zero(); n.saturating_sub(1).max(1)];
    gehd2(n, ilo, ihi, a, lda, &mut tau);
    let want_vecs = want_vl || want_vr;
    let mut z = if want_vecs {
        let mut q = vec![R::zero(); n * n];
        crate::aux::lacpy(None, n, n, a, lda, &mut q, n);
        orghr(n, ilo, ihi, &mut q, n, &tau);
        q
    } else {
        vec![]
    };
    // Zero the sub-Hessenberg storage before iterating.
    for j in 0..n {
        for i in j + 2..n {
            a[i + j * lda] = R::zero();
        }
    }
    let info = if want_vecs {
        hseqr(
            n,
            ilo,
            ihi,
            a,
            lda,
            &mut res.wr,
            &mut res.wi,
            Some((&mut z, n)),
        )
    } else {
        hseqr(n, ilo, ihi, a, lda, &mut res.wr, &mut res.wi, None)
    };
    if info != 0 {
        return (info, res);
    }
    // Eigenvalues isolated by the balancing permutation sit on the
    // diagonal outside the iteration window.
    for i in (0..ilo).chain(ihi + 1..n) {
        res.wr[i] = a[i + i * lda];
        res.wi[i] = R::zero();
    }
    if want_vecs {
        let (vr, vl) = trevc(want_vr, want_vl, n, a, lda, &z, n, &res.wr, &res.wi);
        res.vr = vr;
        res.vl = vl;
        if want_vr {
            gebak::<R>(ilo, ihi, &scale, true, n, n, &mut res.vr, n);
            renormalize(n, &res.wi, &mut res.vr);
        }
        if want_vl {
            gebak::<R>(ilo, ihi, &scale, false, n, n, &mut res.vl, n);
            renormalize(n, &res.wi, &mut res.vl);
        }
    }
    (0, res)
}

/// Renormalizes packed eigenvector columns after the balancing
/// back-transform.
fn renormalize<R: RealScalar>(n: usize, wi: &[R], v: &mut [R]) {
    let mut j = 0;
    while j < n {
        if wi[j] == R::zero() {
            normalize_col(&mut v[j * n..j * n + n]);
            j += 1;
        } else {
            normalize_pair(v, n, j, j + 1);
            j += 2;
        }
    }
}

/// Computed results of [`gees`].
pub struct GeesResult<R> {
    /// Real parts of the eigenvalues (reordered).
    pub wr: Vec<R>,
    /// Imaginary parts.
    pub wi: Vec<R>,
    /// Number of selected eigenvalues now in the leading block (`SDIM`).
    pub sdim: usize,
}

/// Real Schur decomposition with optional eigenvalue reordering
/// (`xGEES`): `A = Z·T·Zᵀ`. On exit `a` holds `T`; `vs` (if requested)
/// the Schur vectors. `select(wr, wi)` chooses eigenvalues to move to the
/// leading block.
#[allow(clippy::type_complexity)]
pub fn gees<R: RealScalar>(
    want_vs: bool,
    n: usize,
    a: &mut [R],
    lda: usize,
    select: Option<&dyn Fn(R, R) -> bool>,
    vs: &mut [R],
    ldvs: usize,
) -> (i32, GeesResult<R>) {
    let mut res = GeesResult {
        wr: vec![R::zero(); n],
        wi: vec![R::zero(); n],
        sdim: 0,
    };
    if n == 0 {
        return (0, res);
    }
    // No balancing here: the Schur vectors must satisfy A = Z T Zᵀ exactly.
    let mut tau = vec![R::zero(); n.saturating_sub(1).max(1)];
    gehd2(n, 0, n - 1, a, lda, &mut tau);
    // Z always needed for reordering; compute into vs or a scratch.
    let mut zbuf;
    let (zslice, ldz): (&mut [R], usize) = if want_vs {
        crate::aux::lacpy(None, n, n, a, lda, vs, ldvs);
        orghr(n, 0, n - 1, vs, ldvs, &tau);
        (vs, ldvs)
    } else {
        zbuf = vec![R::zero(); n * n];
        crate::aux::lacpy(None, n, n, a, lda, &mut zbuf, n);
        orghr(n, 0, n - 1, &mut zbuf, n, &tau);
        (&mut zbuf, n)
    };
    for j in 0..n {
        for i in j + 2..n {
            a[i + j * lda] = R::zero();
        }
    }
    let info = hseqr(
        n,
        0,
        n - 1,
        a,
        lda,
        &mut res.wr,
        &mut res.wi,
        Some((zslice, ldz)),
    );
    if info != 0 {
        return (info, res);
    }
    if let Some(sel) = select {
        // Move selected blocks to the front by adjacent swaps.
        let mut dst = 0usize;
        loop {
            // Find the first selected block at or after dst.
            let mut src = dst;
            let mut found = None;
            while src < n {
                let bs = block_size(a, lda, n, src);
                let (wr_b, wi_b) = block_eigs(a, lda, src, bs);
                let selected = sel(wr_b, wi_b) || (bs == 2 && sel(wr_b, -wi_b));
                if selected && src > dst {
                    found = Some(src);
                    break;
                }
                if selected && src == dst {
                    dst += bs;
                    src = dst;
                    continue;
                }
                src += bs;
            }
            match found {
                None => break,
                Some(mut pos) => {
                    // Bubble the block at `pos` up to `dst`.
                    while pos > dst {
                        // Find the block immediately before pos.
                        let mut prev = dst;
                        loop {
                            let bs = block_size(a, lda, n, prev);
                            if prev + bs == pos {
                                break;
                            }
                            prev += bs;
                        }
                        let swap_info = swap_schur_blocks(n, a, lda, zslice, ldz, prev);
                        if swap_info != 0 {
                            // Could not swap: give up the reordering of
                            // this block (ill-conditioned swap).
                            return ((n + 1) as i32, res);
                        }
                        pos = prev;
                    }
                    dst += block_size(a, lda, n, dst);
                }
            }
        }
        // Count sdim.
        let mut j = 0;
        res.sdim = 0;
        while j < dst {
            j += block_size(a, lda, n, j);
            res.sdim = j;
        }
        res.sdim = dst;
    }
    let (wr, wi) = schur_eigenvalues(n, a, lda);
    res.wr = wr;
    res.wi = wi;
    (0, res)
}

/// Eigenvalue of the (1×1 or 2×2) block at `j` (first of the pair for
/// 2×2).
fn block_eigs<R: RealScalar>(t: &[R], ldt: usize, j: usize, bs: usize) -> (R, R) {
    if bs == 1 {
        (t[j + j * ldt], R::zero())
    } else {
        let (_, _, _, _, r1r, r1i, _, _, _, _) = lanv2(
            t[j + j * ldt],
            t[j + (j + 1) * ldt],
            t[j + 1 + j * ldt],
            t[j + 1 + (j + 1) * ldt],
        );
        (r1r, r1i)
    }
}

/// Helper re-export used by tests and the expert drivers.
pub fn dense_eig_residual<R: RealScalar>(n: usize, a: &[R], wr: &[R], wi: &[R], vr: &[R]) -> R {
    // ‖A·v − λ·v‖∞ over all eigenpairs, complex pairs included.
    let zero = R::zero();
    let mut worst = zero;
    let mut j = 0;
    while j < n {
        if wi[j] == zero {
            let mut av = vec![zero; n];
            la_blas::gemv(
                Trans::No,
                n,
                n,
                R::one(),
                a,
                n,
                &vr[j * n..j * n + n],
                1,
                zero,
                &mut av,
                1,
            );
            for i in 0..n {
                worst = worst.maxr((av[i] - wr[j] * vr[i + j * n]).rabs());
            }
            j += 1;
        } else {
            // v = vr(:,j) + i vr(:,j+1), λ = wr[j] + i wi[j].
            let mut avr = vec![zero; n];
            let mut avi = vec![zero; n];
            la_blas::gemv(
                Trans::No,
                n,
                n,
                R::one(),
                a,
                n,
                &vr[j * n..j * n + n],
                1,
                zero,
                &mut avr,
                1,
            );
            la_blas::gemv(
                Trans::No,
                n,
                n,
                R::one(),
                a,
                n,
                &vr[(j + 1) * n..(j + 1) * n + n],
                1,
                zero,
                &mut avi,
                1,
            );
            for i in 0..n {
                let re = avr[i] - (wr[j] * vr[i + j * n] - wi[j] * vr[i + (j + 1) * n]);
                let im = avi[i] - (wr[j] * vr[i + (j + 1) * n] + wi[j] * vr[i + j * n]);
                worst = worst.maxr(re.hypot(im));
            }
            j += 2;
        }
    }
    worst
}
