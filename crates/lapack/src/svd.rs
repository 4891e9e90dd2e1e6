//! Singular value decomposition: Golub–Kahan bidiagonalization
//! (`gebd2`/`gebrd`), generation of the bidiagonalizing transforms
//! (`orgbr`), the implicit-QR bidiagonal SVD with Demmel–Kahan zero-shift
//! steps (`bdsqr`) and the driver `gesvd`.

use la_blas::lacgv;
use la_core::{RealScalar, Scalar, Side};

use crate::aux::{larf, larfg, lartg};
use crate::qr::orgqr;

/// Unblocked Golub–Kahan bidiagonalization (`xGEBD2`) for `m ≥ n`:
/// `Qᴴ·A·P = B` upper bidiagonal. `d` (n) and `e` (n−1) receive the real
/// bidiagonal; `tauq`/`taup` the reflector scalars; reflectors stay in `A`.
///
/// Callers with `m < n` should bidiagonalize `Aᴴ` instead (as
/// [`gesvd`] does).
pub fn gebd2<T: Scalar>(
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    d: &mut [T::Real],
    e: &mut [T::Real],
    tauq: &mut [T],
    taup: &mut [T],
) -> i32 {
    assert!(m >= n, "gebd2 requires m >= n (transpose first)");
    let mut work = vec![T::zero(); m.max(n)];
    for i in 0..n {
        // Column reflector H_i annihilating A(i+1.., i).
        let (beta, tqi) = {
            let alpha = a[i + i * lda];
            let start = (i + 1).min(m - 1) + i * lda;
            let len = m - i - 1;
            let mut x: Vec<T> = a[start..start + len].to_vec();
            let (b, t) = larfg(alpha, &mut x);
            a[start..start + len].copy_from_slice(&x);
            (b, t)
        };
        d[i] = beta;
        tauq[i] = tqi;
        a[i + i * lda] = T::one();
        if i + 1 < n {
            // Apply H_iᴴ from the left to A(i.., i+1..).
            let (vcol, rest) = {
                let split = (i + 1) * lda;
                let (head, tail) = a.split_at_mut(split);
                (&head[i + i * lda..i + i * lda + (m - i)], tail)
            };
            larf(
                Side::Left,
                m - i,
                n - i - 1,
                vcol,
                1,
                tqi.conj(),
                &mut rest[i..],
                lda,
                &mut work,
            );
        }
        a[i + i * lda] = T::from_real(d[i]);
        if i + 1 < n {
            // Row reflector G_i annihilating A(i, i+2..), with the usual
            // conjugated-row dance for complex data.
            lacgv(n - i - 1, &mut a[i + (i + 1) * lda..], lda);
            let alpha = a[i + (i + 1) * lda];
            let tail_len = n - i - 2;
            let tail_off = i + (i + 2).min(n - 1) * lda;
            let (beta2, tpi) = {
                let mut x: Vec<T> = (0..tail_len).map(|k| a[tail_off + k * lda]).collect();
                let (b, t) = larfg(alpha, &mut x);
                for (k, v) in x.into_iter().enumerate() {
                    a[tail_off + k * lda] = v;
                }
                (b, t)
            };
            e[i] = beta2;
            taup[i] = tpi;
            a[i + (i + 1) * lda] = T::one();
            // Apply G_i from the right to A(i+1.., i+1..).
            if i + 1 < m {
                let v: Vec<T> = (0..n - i - 1).map(|k| a[i + (i + 1 + k) * lda]).collect();
                larf(
                    Side::Right,
                    m - i - 1,
                    n - i - 1,
                    &v,
                    1,
                    tpi,
                    &mut a[i + 1 + (i + 1) * lda..],
                    lda,
                    &mut work,
                );
            }
            lacgv(n - i - 1, &mut a[i + (i + 1) * lda..], lda);
            a[i + (i + 1) * lda] = T::from_real(e[i]);
        } else if i < n {
            // No row reflector for the last column.
            if i < taup.len() {
                taup[i] = T::zero();
            }
        }
    }
    0
}

/// Blocked entry point (`xGEBRD`); delegates to [`gebd2`].
#[allow(clippy::too_many_arguments)]
pub fn gebrd<T: Scalar>(
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    d: &mut [T::Real],
    e: &mut [T::Real],
    tauq: &mut [T],
    taup: &mut [T],
) -> i32 {
    gebd2(m, n, a, lda, d, e, tauq, taup)
}

/// Generates the left transform `Q` (`xORGBR` with `VECT='Q'`): the `m × k`
/// matrix with orthonormal columns from the column reflectors of
/// [`gebrd`]. `a` must still hold the factorization output; `k = min(m,n)`.
pub fn orgbr_q<T: Scalar>(m: usize, k: usize, a: &mut [T], lda: usize, tauq: &[T]) -> i32 {
    orgqr(m, k, k, a, lda, tauq)
}

/// Generates `Pᴴ` (`xORGBR` with `VECT='P'`): the `k × n` matrix with
/// orthonormal rows from the row reflectors of [`gebrd`] (`m ≥ n` layout,
/// `k = n`). Returns a fresh buffer (`k × n`, column-major).
pub fn orgbr_p<T: Scalar>(n: usize, a: &[T], lda: usize, taup: &[T]) -> Vec<T> {
    // Pᴴ = G_{n-2}ᴴ ⋯ G_0ᴴ applied to I, G_iᴴ = I − conj(taup_i)·v·vᴴ,
    // with v(i+1) = 1 and v(i+2..n) = conj(stored row i).
    let mut pt = vec![T::zero(); n * n];
    for i in 0..n {
        pt[i + i * n] = T::one();
    }
    let mut work = vec![T::zero(); n];
    for i in 0..n.saturating_sub(1) {
        let mut v = vec![T::zero(); n];
        v[i + 1] = T::one();
        for c in i + 2..n {
            v[c] = a[i + c * lda].conj();
        }
        larf(
            Side::Left,
            n,
            n,
            &v,
            1,
            taup[i].conj(),
            &mut pt,
            n,
            &mut work,
        );
    }
    pt
}

/// Implicit-QR SVD of a real upper-bidiagonal matrix (`xBDSQR`).
///
/// On success `d` holds the singular values in **descending** order;
/// `u` (`nru × n`, columns rotated/permuted) and `vt` (`n × ncvt`, rows
/// rotated/permuted) accumulate the transforms when provided. Returns the
/// number of unconverged off-diagonals as `info`.
#[allow(clippy::too_many_arguments)]
pub fn bdsqr<T: Scalar>(
    n: usize,
    d: &mut [T::Real],
    e: &mut [T::Real],
    mut vt: Option<(&mut [T], usize, usize)>, // (buffer, ldvt, ncvt)
    mut u: Option<(&mut [T], usize, usize)>,  // (buffer, ldu, nru)
) -> i32 {
    if n == 0 {
        return 0;
    }
    let zero = T::Real::zero();
    let one = T::Real::one();
    let eps = T::Real::EPS;
    let maxit = 6 * n * n;
    let mut iters = 0usize;

    // Rotate VT rows (k, k+1) by (c, s) from the left.
    let rot_vt = |vt: &mut Option<(&mut [T], usize, usize)>, k: usize, c: T::Real, s: T::Real| {
        if let Some((m, ldvt, ncvt)) = vt.as_mut() {
            let ld = *ldvt;
            for j in 0..*ncvt {
                let t1 = m[k + j * ld];
                let t2 = m[k + 1 + j * ld];
                m[k + j * ld] = t1.mul_real(c) + t2.mul_real(s);
                m[k + 1 + j * ld] = t2.mul_real(c) - t1.mul_real(s);
            }
        }
    };
    // Rotate U columns (k, k+1) by (c, s) from the right.
    let rot_u = |u: &mut Option<(&mut [T], usize, usize)>, k: usize, c: T::Real, s: T::Real| {
        if let Some((m, ldu, nru)) = u.as_mut() {
            let ld = *ldu;
            for i in 0..*nru {
                let t1 = m[i + k * ld];
                let t2 = m[i + (k + 1) * ld];
                m[i + k * ld] = t1.mul_real(c) + t2.mul_real(s);
                m[i + (k + 1) * ld] = t2.mul_real(c) - t1.mul_real(s);
            }
        }
    };

    let mut mhi = n - 1; // active block upper index
    'main: while mhi > 0 {
        if iters > maxit {
            let mut cnt = 0;
            for i in 0..n - 1 {
                if !e[i].is_zero() {
                    cnt += 1;
                }
            }
            return cnt;
        }
        // Deflate negligible off-diagonals.
        for i in 0..mhi {
            if e[i].rabs() <= eps * (d[i].rabs() + d[i + 1].rabs()) {
                e[i] = zero;
            }
        }
        if e[mhi - 1].is_zero() {
            mhi -= 1;
            continue 'main;
        }
        // Find the start of the active block.
        let mut mlo = mhi - 1;
        while mlo > 0 && !e[mlo - 1].is_zero() {
            mlo -= 1;
        }
        iters += 1;

        // If a diagonal in the block is (near) zero, one zero-shift sweep
        // deflates it stably; also prefer zero shift when the shift would
        // lose all relative accuracy.
        let mut dmin = d[mlo].rabs();
        for i in mlo..=mhi {
            dmin = dmin.minr(d[i].rabs());
        }
        let dmax = {
            let mut v = zero;
            for i in mlo..=mhi {
                v = v.maxr(d[i].rabs());
            }
            for i in mlo..mhi {
                v = v.maxr(e[i].rabs());
            }
            v
        };
        let use_zero_shift = dmin <= eps * dmax;

        if use_zero_shift {
            // Demmel–Kahan zero-shift QR sweep.
            let (mut cs, mut oldcs) = (one, one);
            let mut oldsn = zero;
            for k in mlo..mhi {
                let (c1, s1, r1) = lartg(d[k] * cs, e[k]);
                cs = c1;
                let sn = s1;
                if k > mlo {
                    e[k - 1] = oldsn * r1;
                }
                let (c2, s2, r2) = lartg(oldcs * r1, d[k + 1] * sn);
                oldcs = c2;
                oldsn = s2;
                d[k] = r2;
                rot_vt(&mut vt, k, cs, sn);
                rot_u(&mut u, k, oldcs, oldsn);
            }
            let h = d[mhi] * cs;
            e[mhi - 1] = h * oldsn;
            d[mhi] = h * oldcs;
        } else {
            // Wilkinson shift from the trailing 2×2 of BᵀB.
            let dm = d[mhi];
            let dm1 = d[mhi - 1];
            let em1 = e[mhi - 1];
            let em2 = if mhi >= 2 { e[mhi - 2] } else { zero };
            let t11 = dm1 * dm1 + em2 * em2;
            let t22 = dm * dm + em1 * em1;
            let t12 = dm1 * em1;
            let delta = (t11 - t22) / (one + one);
            let mu = if delta.is_zero() && t12.is_zero() {
                t22
            } else {
                let denom = delta.rabs() + delta.hypot(t12);
                t22 - (t12 * t12 / denom).sign(delta)
            };
            let mut f = d[mlo] * d[mlo] - mu;
            let mut g = d[mlo] * e[mlo];
            for k in mlo..mhi {
                let (c, s, r) = lartg(f, g);
                if k > mlo {
                    e[k - 1] = r;
                }
                // Right rotation on columns (k, k+1) of B.
                f = c * d[k] + s * e[k];
                e[k] = c * e[k] - s * d[k];
                g = s * d[k + 1];
                d[k + 1] = c * d[k + 1];
                rot_vt(&mut vt, k, c, s);
                let (c2, s2, r2) = lartg(f, g);
                d[k] = r2;
                // Left rotation on rows (k, k+1).
                f = c2 * e[k] + s2 * d[k + 1];
                d[k + 1] = c2 * d[k + 1] - s2 * e[k];
                if k + 1 < mhi {
                    g = s2 * e[k + 1];
                    e[k + 1] = c2 * e[k + 1];
                }
                rot_u(&mut u, k, c2, s2);
            }
            e[mhi - 1] = f;
        }
    }
    // Make singular values nonnegative (flip the corresponding VT row).
    for i in 0..n {
        if d[i] < zero {
            d[i] = -d[i];
            if let Some((m, ldvt, ncvt)) = vt.as_mut() {
                let ld = *ldvt;
                for j in 0..*ncvt {
                    m[i + j * ld] = -m[i + j * ld];
                }
            }
        }
    }
    // Sort descending, permuting U columns and VT rows.
    for i in 0..n {
        let mut k = i;
        for j in i + 1..n {
            if d[j] > d[k] {
                k = j;
            }
        }
        if k != i {
            d.swap(i, k);
            if let Some((m, ldvt, ncvt)) = vt.as_mut() {
                let ld = *ldvt;
                for j in 0..*ncvt {
                    m.swap(i + j * ld, k + j * ld);
                }
            }
            if let Some((m, ldu, nru)) = u.as_mut() {
                let ld = *ldu;
                for r in 0..*nru {
                    m.swap(r + i * ld, r + k * ld);
                }
            }
        }
    }
    0
}

/// SVD driver (`xGESVD`): `A = U·Σ·Vᴴ`. Returns
/// `(s, u, vt, info)` with `s` descending, `u` an `m × k` column-major
/// buffer (empty unless `want_u`), `vt` a `k × n` buffer (empty unless
/// `want_vt`), `k = min(m, n)`. `A` is destroyed.
#[allow(clippy::type_complexity)]
pub fn gesvd<T: Scalar>(
    want_u: bool,
    want_vt: bool,
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
) -> (Vec<T::Real>, Vec<T>, Vec<T>, i32) {
    let k = m.min(n);
    if k == 0 {
        return (vec![], vec![], vec![], 0);
    }
    if m < n {
        // SVD(A) from SVD(Aᴴ): Aᴴ = Ũ Σ Ṽᴴ  ⇒  A = Ṽ Σ Ũᴴ.
        let mut ah = vec![T::zero(); n * m];
        for j in 0..n {
            for i in 0..m {
                ah[j + i * n] = a[i + j * lda].conj();
            }
        }
        let (s, ut, vtt, info) = gesvd(want_vt, want_u, n, m, &mut ah, n);
        // u of A = (vtt)ᴴ: vtt is k × m ⇒ u is m × k.
        let u = if want_u {
            let mut u = vec![T::zero(); m * k];
            for j in 0..k {
                for i in 0..m {
                    u[i + j * m] = vtt[j + i * k].conj();
                }
            }
            u
        } else {
            vec![]
        };
        // vt of A = (ut)ᴴ: ut is n × k ⇒ vt is k × n.
        let vt = if want_vt {
            let mut vt = vec![T::zero(); k * n];
            for j in 0..n {
                for i in 0..k {
                    vt[i + j * k] = ut[j + i * n].conj();
                }
            }
            vt
        } else {
            vec![]
        };
        return (s, u, vt, info);
    }
    // m >= n: bidiagonalize directly.
    let mut d = vec![T::Real::zero(); n];
    let mut e = vec![T::Real::zero(); n.saturating_sub(1).max(1)];
    let mut tauq = vec![T::zero(); n];
    let mut taup = vec![T::zero(); n];
    gebrd(m, n, a, lda, &mut d, &mut e, &mut tauq, &mut taup);
    let mut vt = if want_vt {
        orgbr_p(n, a, lda, &taup)
    } else {
        vec![]
    };
    let mut u = if want_u {
        let mut q = vec![T::zero(); m * n];
        crate::aux::lacpy(None, m, n, a, lda, &mut q, m);
        orgbr_q(m, n, &mut q, m, &tauq);
        q
    } else {
        vec![]
    };
    let info = bdsqr(
        n,
        &mut d,
        &mut e,
        if want_vt {
            Some((&mut vt[..], n, n))
        } else {
            None
        },
        if want_u {
            Some((&mut u[..], m, m))
        } else {
            None
        },
    );
    (d, u, vt, info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use la_blas::gemm;
    use la_core::{Trans as Tr, C64};

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((self.0 >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
        fn cvec(&mut self, n: usize) -> Vec<C64> {
            (0..n).map(|_| C64::new(self.next(), self.next())).collect()
        }
    }

    fn check_svd(m: usize, n: usize, a0: &[C64], s: &[f64], u: &[C64], vt: &[C64], tol: f64) {
        let k = m.min(n);
        // Descending, nonnegative.
        for i in 0..k {
            assert!(s[i] >= 0.0);
            if i > 0 {
                assert!(s[i] <= s[i - 1] + 1e-12);
            }
        }
        // U, VT orthonormal.
        let mut uhu = vec![C64::zero(); k * k];
        gemm(
            Tr::ConjTrans,
            Tr::No,
            k,
            k,
            m,
            C64::one(),
            u,
            m,
            u,
            m,
            C64::zero(),
            &mut uhu,
            k,
        );
        let mut vvh = vec![C64::zero(); k * k];
        gemm(
            Tr::No,
            Tr::ConjTrans,
            k,
            k,
            n,
            C64::one(),
            vt,
            k,
            vt,
            k,
            C64::zero(),
            &mut vvh,
            k,
        );
        for j in 0..k {
            for i in 0..k {
                let want = if i == j { C64::one() } else { C64::zero() };
                assert!(
                    (uhu[i + j * k] - want).abs() < tol,
                    "UᴴU ({i},{j}) = {}",
                    uhu[i + j * k]
                );
                assert!(
                    (vvh[i + j * k] - want).abs() < tol,
                    "VVᴴ ({i},{j}) = {}",
                    vvh[i + j * k]
                );
            }
        }
        // U Σ Vᴴ = A.
        let mut us = vec![C64::zero(); m * k];
        for j in 0..k {
            for i in 0..m {
                us[i + j * m] = u[i + j * m].scale(s[j]);
            }
        }
        let mut rec = vec![C64::zero(); m * n];
        gemm(
            Tr::No,
            Tr::No,
            m,
            n,
            k,
            C64::one(),
            &us,
            m,
            vt,
            k,
            C64::zero(),
            &mut rec,
            m,
        );
        for idx in 0..m * n {
            assert!(
                (rec[idx] - a0[idx]).abs() < tol,
                "UΣVᴴ≠A at {idx}: {} vs {}",
                rec[idx],
                a0[idx]
            );
        }
    }

    #[test]
    fn gebrd_bidiagonalizes() {
        let mut rng = Rng(3);
        let (m, n) = (7usize, 5usize);
        let a0 = rng.cvec(m * n);
        let mut f = a0.clone();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n - 1];
        let mut tauq = vec![C64::zero(); n];
        let mut taup = vec![C64::zero(); n];
        gebrd(m, n, &mut f, m, &mut d, &mut e, &mut tauq, &mut taup);
        // Reconstruct: Q B Pᴴ = A.
        let mut b = vec![C64::zero(); n * n];
        for i in 0..n {
            b[i + i * n] = C64::from_real(d[i]);
            if i + 1 < n {
                b[i + (i + 1) * n] = C64::from_real(e[i]);
            }
        }
        let pt = orgbr_p(n, &f, m, &taup);
        let mut q = f.clone();
        orgbr_q(m, n, &mut q, m, &tauq);
        let mut qb = vec![C64::zero(); m * n];
        gemm(
            Tr::No,
            Tr::No,
            m,
            n,
            n,
            C64::one(),
            &q,
            m,
            &b,
            n,
            C64::zero(),
            &mut qb,
            m,
        );
        let mut rec = vec![C64::zero(); m * n];
        gemm(
            Tr::No,
            Tr::No,
            m,
            n,
            n,
            C64::one(),
            &qb,
            m,
            &pt,
            n,
            C64::zero(),
            &mut rec,
            m,
        );
        for idx in 0..m * n {
            assert!(
                (rec[idx] - a0[idx]).abs() < 1e-12 * (m * n) as f64,
                "QBPᴴ≠A at {idx}: {} vs {}",
                rec[idx],
                a0[idx]
            );
        }
    }

    #[test]
    fn bdsqr_known_singular_values() {
        // B = bidiag(d = [3, 2, 1], e = [0, 0]) → singular values 3, 2, 1.
        let mut d = vec![1.0f64, 3.0, 2.0];
        let mut e = vec![0.0f64, 0.0];
        assert_eq!(bdsqr::<f64>(3, &mut d, &mut e, None, None), 0);
        assert_eq!(d, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn gesvd_tall_complex() {
        let mut rng = Rng(11);
        let (m, n) = (8usize, 5usize);
        let a0 = rng.cvec(m * n);
        let mut a = a0.clone();
        let (s, u, vt, info) = gesvd(true, true, m, n, &mut a, m);
        assert_eq!(info, 0);
        check_svd(m, n, &a0, &s, &u, &vt, 1e-11 * (m * n) as f64);
    }

    #[test]
    fn gesvd_wide_real_via_transpose() {
        let mut rng = Rng(13);
        let (m, n) = (4usize, 9usize);
        let a0: Vec<C64> = rng
            .cvec(m * n)
            .iter()
            .map(|z| C64::from_real(z.re))
            .collect();
        let mut a = a0.clone();
        let (s, u, vt, info) = gesvd(true, true, m, n, &mut a, m);
        assert_eq!(info, 0);
        check_svd(m, n, &a0, &s, &u, &vt, 1e-11 * (m * n) as f64);
    }

    #[test]
    fn gesvd_square_matches_eigen_of_gram() {
        // Singular values of A are sqrt of eigenvalues of AᴴA.
        let mut rng = Rng(17);
        let n = 6usize;
        let a0 = rng.cvec(n * n);
        let mut a = a0.clone();
        let (s, _, _, info) = gesvd(false, false, n, n, &mut a, n);
        assert_eq!(info, 0);
        let mut gram = vec![C64::zero(); n * n];
        gemm(
            Tr::ConjTrans,
            Tr::No,
            n,
            n,
            n,
            C64::one(),
            &a0,
            n,
            &a0,
            n,
            C64::zero(),
            &mut gram,
            n,
        );
        let mut w = vec![0.0; n];
        crate::eigsym::syev(false, la_core::Uplo::Upper, n, &mut gram, n, &mut w);
        for i in 0..n {
            let want = w[n - 1 - i].max(0.0).sqrt();
            assert!(
                (s[i] - want).abs() < 1e-10 * (1.0 + want),
                "σ_{i} = {} want {}",
                s[i],
                want
            );
        }
    }

    #[test]
    fn gesvd_rank_deficient() {
        // Rank-1 matrix: one nonzero singular value.
        let (m, n) = (5usize, 4usize);
        let u0: Vec<f64> = (1..=m).map(|i| i as f64).collect();
        let v0: Vec<f64> = (1..=n).map(|i| 1.0 / i as f64).collect();
        let a0: Vec<C64> = (0..m * n)
            .map(|idx| C64::from_real(u0[idx % m] * v0[idx / m]))
            .collect();
        let mut a = a0.clone();
        let (s, u, vt, info) = gesvd(true, true, m, n, &mut a, m);
        assert_eq!(info, 0);
        assert!(s[0] > 1.0);
        for &sv in &s[1..] {
            assert!(sv < 1e-12 * s[0], "extra singular value {sv}");
        }
        check_svd(m, n, &a0, &s, &u, &vt, 1e-11 * (m * n) as f64);
    }

    #[test]
    fn bdsqr_nonconvergence_is_bounded_and_reported() {
        // A NaN diagonal makes every deflation and convergence test
        // false, so the Demmel–Kahan sweep can never reduce the problem:
        // the 6n² total-iteration cap must stop the loop in bounded time
        // and report the number of unconverged superdiagonals as a
        // positive info, never hang or return success.
        let n = 5;
        let mut d = [1.0f64, f64::NAN, 2.0, 3.0, 4.0];
        let mut e = [1.0f64, 1.0, 1.0, 1.0];
        let info = bdsqr::<f64>(n, &mut d, &mut e, None, None);
        assert!(
            info > 0,
            "non-convergence must yield positive info, got {info}"
        );
        assert!(
            info <= (n - 1) as i32,
            "info counts superdiagonals, got {info}"
        );
    }

    #[test]
    fn gesvd_propagates_nonconvergence_info() {
        // The same stall through the full driver: bidiagonalizing a NaN
        // matrix hands bdsqr a NaN bidiagonal, and the positive info must
        // surface through gesvd's return (the la90 wrapper turns it into
        // the NoConvergence error).
        let n = 4;
        let mut a = vec![f64::NAN; n * n];
        let (_s, _u, _vt, info) = gesvd(true, true, n, n, &mut a, n);
        assert!(
            info > 0,
            "gesvd on a NaN matrix must report non-convergence, got {info}"
        );
    }
}
