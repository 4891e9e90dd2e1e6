//! Generalized Schur decomposition of a complex pencil `(A, B)` — the QZ
//! algorithm (`gghrd` + `hgeqz`, complex single-shift form, plus a
//! `tgevc`-style eigenvector back-substitution).
//!
//! `A·Z = Q·S`, `B·Z = Q·P` with `Q`, `Z` unitary, `S`, `P` upper
//! triangular; the generalized eigenvalues are `α_i/β_i = S_ii/P_ii`.
//!
//! Real pencils are handled by the callers through complex embedding
//! (mathematically identical spectrum; see DESIGN.md). Near-singular
//! `P` diagonals are regularised at `ε‖B‖` — a backward perturbation of
//! the same order as the factorization error — rather than carrying
//! LAPACK's explicit infinite-eigenvalue deflation machinery.

use la_core::{Complex, RealScalar};

use crate::eig_cplx::zlartg;

type C<R> = Complex<R>;

/// Applies the rotation `[c s; -s̄ c]` to rows `(r1, r2)` over columns
/// `lo..hi`.
#[allow(clippy::too_many_arguments)]
fn rot_rows<R: RealScalar>(
    m: &mut [C<R>],
    ld: usize,
    r1: usize,
    r2: usize,
    lo: usize,
    hi: usize,
    c: R,
    s: C<R>,
) {
    for j in lo..hi {
        let x = m[r1 + j * ld];
        let y = m[r2 + j * ld];
        m[r1 + j * ld] = x.scale(c) + s * y;
        m[r2 + j * ld] = y.scale(c) - s.conj() * x;
    }
}

/// Applies the rotation from the right to columns `(c1, c2)` over rows
/// `lo..hi`: `col1' = c·col1 − s̄·col2`, `col2' = s·col1 + c·col2`.
#[allow(clippy::too_many_arguments)]
fn rot_cols<R: RealScalar>(
    m: &mut [C<R>],
    ld: usize,
    c1: usize,
    c2: usize,
    lo: usize,
    hi: usize,
    c: R,
    s: C<R>,
) {
    for i in lo..hi {
        let x = m[i + c1 * ld];
        let y = m[i + c2 * ld];
        m[i + c1 * ld] = x.scale(c) - s.conj() * y;
        m[i + c2 * ld] = y.scale(c) + s * x;
    }
}

/// Reduces a complex pencil `(A, B)` to Hessenberg–triangular form
/// (`xGGHRD` preceded by the `B = QR` preprocessing): on exit `A` is
/// upper Hessenberg, `B` upper triangular, and `q`/`z` accumulate the
/// left/right transforms (must come in as identity or an existing
/// basis).
pub fn gghrd<R: RealScalar>(
    n: usize,
    a: &mut [C<R>],
    lda: usize,
    b: &mut [C<R>],
    ldb: usize,
    q: &mut [C<R>],
    ldq: usize,
    z: &mut [C<R>],
    ldz: usize,
) -> i32 {
    // Stage 1: B := Qᴴ·B upper triangular (Householder QR), A := Qᴴ·A.
    let mut tau = vec![C::<R>::zero(); n];
    crate::qr::geqrf(n, n, b, ldb, &mut tau);
    crate::qr::ormqr(
        la_core::Side::Left,
        la_core::Trans::ConjTrans,
        n,
        n,
        n.min(n),
        b,
        ldb,
        &tau,
        a,
        lda,
    );
    // Q := Q·Q_b (apply from the right — Q starts as a basis).
    crate::qr::ormqr(
        la_core::Side::Right,
        la_core::Trans::No,
        n,
        n,
        n,
        b,
        ldb,
        &tau,
        q,
        ldq,
    );
    // Zero B's sub-triangle (reflector storage).
    for j in 0..n {
        for i in j + 1..n {
            b[i + j * ldb] = C::zero();
        }
    }
    if n <= 2 {
        return 0;
    }
    // Stage 2: Givens sweep turning A into Hessenberg while keeping B
    // triangular.
    for j in 0..n - 2 {
        for i in (j + 2..n).rev() {
            // Left rotation on rows (i-1, i) zeroing A(i, j).
            let (c, s, r) = zlartg(a[i - 1 + j * lda], a[i + j * lda]);
            a[i - 1 + j * lda] = r;
            a[i + j * lda] = C::zero();
            rot_rows(a, lda, i - 1, i, j + 1, n, c, s);
            rot_rows(b, ldb, i - 1, i, i - 1, n, c, s);
            // Q := Q·Gᴴ.
            for row in 0..n {
                let x = q[row + (i - 1) * ldq];
                let y = q[row + i * ldq];
                q[row + (i - 1) * ldq] = x.scale(c) + y * s.conj();
                q[row + i * ldq] = y.scale(c) - x * s;
            }
            // B picked up fill at (i, i-1): right rotation on columns
            // (i-1, i) zeroing it.
            let (c2, s2, _r2) = zlartg(b[i + i * ldb], b[i + (i - 1) * ldb]);
            rot_cols(b, ldb, i - 1, i, 0, i + 1, c2, s2);
            b[i + (i - 1) * ldb] = C::zero();
            rot_cols(a, lda, i - 1, i, 0, n, c2, s2);
            rot_cols(z, ldz, i - 1, i, 0, ldz, c2, s2);
        }
    }
    0
}

/// Single-shift QZ iteration on a Hessenberg–triangular pencil
/// (`xHGEQZ`, complex): produces the generalized Schur form in place
/// and the eigenvalue ratios `(alpha, beta)`. Returns `0` or the
/// (1-based) row where convergence failed.
#[allow(clippy::too_many_arguments)]
pub fn hgeqz<R: RealScalar>(
    n: usize,
    a: &mut [C<R>],
    lda: usize,
    b: &mut [C<R>],
    ldb: usize,
    q: &mut [C<R>],
    ldq: usize,
    z: &mut [C<R>],
    ldz: usize,
    alpha: &mut [C<R>],
    beta: &mut [C<R>],
) -> i32 {
    let eps = R::EPS;
    if n == 0 {
        return 0;
    }
    // Norm scales for the deflation tests.
    let anorm = crate::aux::lange(la_core::Norm::One, n, n, a, lda).maxr(R::sfmin());
    let bnorm = crate::aux::lange(la_core::Norm::One, n, n, b, ldb).maxr(R::sfmin());
    let atol = eps * anorm;
    let btol = eps * bnorm;

    // Regularise negligible B diagonals (cf. module docs).
    for i in 0..n {
        if b[i + i * ldb].abs1() < btol {
            b[i + i * ldb] = C::from_real(btol);
        }
    }

    let mut ihi = n as isize - 1;
    let maxit = 60 * n.max(10);
    let mut its_total = 0usize;
    while ihi >= 0 {
        let iu = ihi as usize;
        if iu == 0 {
            alpha[0] = a[0];
            beta[0] = b[0];
            break;
        }
        let mut its = 0usize;
        let l;
        loop {
            // Deflation scan.
            let mut ll = 0usize;
            let mut k = iu;
            while k > 0 {
                if a[k + (k - 1) * lda].abs1()
                    <= atol.maxr(eps * (a[k + k * lda].abs1() + a[k - 1 + (k - 1) * lda].abs1()))
                {
                    a[k + (k - 1) * lda] = C::zero();
                    ll = k;
                    break;
                }
                k -= 1;
            }
            if ll >= iu {
                l = ll;
                break;
            }
            if its >= maxit || its_total >= maxit * 4 {
                return (iu + 1) as i32;
            }
            its += 1;
            its_total += 1;
            // Shift: eigenvalue of the trailing 2×2 pencil closest to the
            // bottom ratio (Wilkinson analog); exceptional every 10th.
            let sigma = if its.is_multiple_of(10) {
                (a[iu + iu * lda].ladiv(b[iu + iu * ldb]))
                    + C::from_real(R::from_f64(0.75) * a[iu + (iu - 1) * lda].abs1())
            } else {
                let h11 = a[iu - 1 + (iu - 1) * lda];
                let h12 = a[iu - 1 + iu * lda];
                let h21 = a[iu + (iu - 1) * lda];
                let h22 = a[iu + iu * lda];
                let t11 = b[iu - 1 + (iu - 1) * ldb];
                let t12 = b[iu - 1 + iu * ldb];
                let t22 = b[iu + iu * ldb];
                // det(H − σT) = a2σ² + a1σ + a0 with T lower-left zero.
                let a2 = t11 * t22;
                let a1 = -(h11 * t22 + t11 * h22 - h21 * t12);
                let a0 = h11 * h22 - h21 * h12;
                let disc = (a1 * a1 - a2 * a0.scale(R::from_usize(4).re())).sqrt();
                let two_a2 = a2 + a2;
                let r1 = (-a1 + disc).ladiv(two_a2);
                let r2 = (-a1 - disc).ladiv(two_a2);
                let target = h22.ladiv(t22);
                if (r1 - target).abs1() <= (r2 - target).abs1() {
                    r1
                } else {
                    r2
                }
            };
            // Implicit single-shift sweep on ll..=iu.
            for k in ll..iu {
                // Left rotation zeroing the subdiagonal bulge of (A − σB).
                let (f, g) = if k == ll {
                    (a[k + k * lda] - sigma * b[k + k * ldb], a[k + 1 + k * lda])
                } else {
                    (a[k + (k - 1) * lda], a[k + 1 + (k - 1) * lda])
                };
                let (c, s, r) = zlartg(f, g);
                if k > ll {
                    a[k + (k - 1) * lda] = r;
                    a[k + 1 + (k - 1) * lda] = C::zero();
                }
                rot_rows(a, lda, k, k + 1, k, n, c, s);
                rot_rows(b, ldb, k, k + 1, k, n, c, s);
                for row in 0..ldq {
                    let x = q[row + k * ldq];
                    let y = q[row + (k + 1) * ldq];
                    q[row + k * ldq] = x.scale(c) + y * s.conj();
                    q[row + (k + 1) * ldq] = y.scale(c) - x * s;
                }
                // B fill at (k+1, k): right rotation on cols (k, k+1).
                let (c2, s2, _r2) = zlartg(b[k + 1 + (k + 1) * ldb], b[k + 1 + k * ldb]);
                let hi_a = (k + 3).min(iu + 1).min(n);
                rot_cols(a, lda, k, k + 1, 0, hi_a, c2, s2);
                rot_cols(b, ldb, k, k + 1, 0, k + 2, c2, s2);
                b[k + 1 + k * ldb] = C::zero();
                rot_cols(z, ldz, k, k + 1, 0, ldz, c2, s2);
            }
        }
        // Converged 1×1 at iu (l == iu).
        let _ = l;
        alpha[iu] = a[iu + iu * lda];
        beta[iu] = b[iu + iu * ldb];
        ihi -= 1;
    }
    // Clean subdiagonal dust.
    for j in 0..n {
        for i in j + 1..n {
            a[i + j * lda] = C::zero();
            b[i + j * ldb] = C::zero();
        }
    }
    0
}

/// Right generalized eigenvectors from the triangular pencil
/// (`xTGEVC`-style back-substitution, backtransformed by `Z`):
/// column `j` satisfies `(β_j·S − α_j·P)·x = 0` mapped through `Z`.
pub fn tgevc_right<R: RealScalar>(
    n: usize,
    s: &[C<R>],
    lds: usize,
    p: &[C<R>],
    ldp: usize,
    z: &[C<R>],
    ldz: usize,
) -> Vec<C<R>> {
    let smin = R::sfmin() / R::EPS;
    let mut v = vec![C::<R>::zero(); n * n];
    for j in (0..n).rev() {
        let aj = s[j + j * lds];
        let bj = p[j + j * ldp];
        let mut x = vec![C::<R>::zero(); j + 1];
        x[j] = C::one();
        for i in (0..j).rev() {
            // (β_j S − α_j P) x = 0 row i.
            let mut r = C::zero();
            for k in i + 1..=j {
                r += (bj * s[i + k * lds] - aj * p[i + k * ldp]) * x[k];
            }
            let den = bj * s[i + i * lds] - aj * p[i + i * ldp];
            let den = if den.abs1() < smin {
                C::from_real(smin)
            } else {
                den
            };
            x[i] = (-r).ladiv(den);
        }
        // Backtransform and normalize.
        let mut nrm2 = R::zero();
        for row in 0..n {
            let mut acc = C::zero();
            for (k, xv) in x.iter().enumerate() {
                acc += z[row + k * ldz] * *xv;
            }
            v[row + j * n] = acc;
            nrm2 += acc.norm_sqr();
        }
        let nrm = nrm2.sqrt_r();
        if nrm > R::zero() {
            for row in 0..n {
                v[row + j * n] = v[row + j * n].unscale(nrm);
            }
        }
    }
    v
}

/// Outputs of [`gegs_cplx`].
pub struct GegsOut<R: RealScalar> {
    /// `α` diagonal of the Schur form `S`.
    pub alpha: Vec<C<R>>,
    /// `β` diagonal of the triangular `P`.
    pub beta: Vec<C<R>>,
    /// Left Schur vectors `Q` (`n × n`).
    pub q: Vec<C<R>>,
    /// Right Schur vectors `Z` (`n × n`).
    pub z: Vec<C<R>>,
}

/// Generalized Schur driver for a complex pencil (`xGEGS`):
/// `A = Q·S·Zᴴ`, `B = Q·P·Zᴴ`. On exit `a` holds `S` and `b` holds `P`.
pub fn gegs_cplx<R: RealScalar>(
    n: usize,
    a: &mut [C<R>],
    lda: usize,
    b: &mut [C<R>],
    ldb: usize,
) -> (i32, GegsOut<R>) {
    let mut q = vec![C::<R>::zero(); n * n];
    let mut z = vec![C::<R>::zero(); n * n];
    for i in 0..n {
        q[i + i * n] = C::one();
        z[i + i * n] = C::one();
    }
    let mut out = GegsOut {
        alpha: vec![C::<R>::zero(); n],
        beta: vec![C::<R>::zero(); n],
        q: vec![],
        z: vec![],
    };
    if n == 0 {
        return (0, out);
    }
    gghrd(n, a, lda, b, ldb, &mut q, n, &mut z, n);
    let info = hgeqz(
        n,
        a,
        lda,
        b,
        ldb,
        &mut q,
        n,
        &mut z,
        n,
        &mut out.alpha,
        &mut out.beta,
    );
    out.q = q;
    out.z = z;
    (info, out)
}

/// Generalized eigenvalues (and optional right eigenvectors) of a
/// complex pencil via QZ (`xGEGV`): returns `(info, alpha, beta, vr)`.
#[allow(clippy::type_complexity)]
pub fn gegv_qz_cplx<R: RealScalar>(
    want_vr: bool,
    n: usize,
    a: &mut [C<R>],
    lda: usize,
    b: &mut [C<R>],
    ldb: usize,
) -> (i32, Vec<C<R>>, Vec<C<R>>, Vec<C<R>>) {
    let (info, out) = gegs_cplx(n, a, lda, b, ldb);
    if info != 0 {
        return (info, out.alpha, out.beta, vec![]);
    }
    let vr = if want_vr {
        tgevc_right(n, a, lda, b, ldb, &out.z, n)
    } else {
        vec![]
    };
    (0, out.alpha, out.beta, vr)
}

/// Generalized eigenvalues of a *real* pencil via the complex QZ
/// (complex embedding — same spectrum, conjugate-symmetric):
/// `(info, alpha, beta)`.
#[allow(clippy::type_complexity)]
pub fn gegv_qz_real<R: RealScalar>(
    n: usize,
    a: &[R],
    lda: usize,
    b: &[R],
    ldb: usize,
) -> (i32, Vec<C<R>>, Vec<C<R>>) {
    let mut ac: Vec<C<R>> = (0..n * n)
        .map(|k| C::from_real(a[k % (n.max(1)) + (k / n.max(1)) * lda]))
        .collect();
    let mut bc: Vec<C<R>> = (0..n * n)
        .map(|k| C::from_real(b[k % (n.max(1)) + (k / n.max(1)) * ldb]))
        .collect();
    let (info, alpha, beta, _) = gegv_qz_cplx(false, n, &mut ac, n.max(1), &mut bc, n.max(1));
    (info, alpha, beta)
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

    fn check_schur_pair(
        n: usize,
        a0: &[C64],
        b0: &[C64],
        s: &[C64],
        p: &[C64],
        q: &[C64],
        z: &[C64],
        tol: f64,
    ) {
        // Q, Z unitary.
        for (name, m) in [("Q", q), ("Z", z)] {
            let mut g = vec![C64::zero(); n * n];
            gemm(
                Trans::ConjTrans,
                Trans::No,
                n,
                n,
                n,
                C64::one(),
                m,
                n,
                m,
                n,
                C64::zero(),
                &mut g,
                n,
            );
            for j in 0..n {
                for i in 0..n {
                    let want = if i == j { C64::one() } else { C64::zero() };
                    assert!(
                        (g[i + j * n] - want).abs() < tol,
                        "{name} not unitary ({i},{j})"
                    );
                }
            }
        }
        // A = Q S Zᴴ, B = Q P Zᴴ.
        for (name, orig, tri) in [("A", a0, s), ("B", b0, p)] {
            let mut qt = vec![C64::zero(); n * n];
            gemm(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                C64::one(),
                q,
                n,
                tri,
                n,
                C64::zero(),
                &mut qt,
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
                &qt,
                n,
                z,
                n,
                C64::zero(),
                &mut rec,
                n,
            );
            for k in 0..n * n {
                assert!(
                    (rec[k] - orig[k]).abs() < tol,
                    "{name}: QTZᴴ mismatch at {k}: {} vs {}",
                    rec[k],
                    orig[k]
                );
            }
        }
        // Triangularity.
        for j in 0..n {
            for i in j + 1..n {
                assert!(s[i + j * n].abs() < tol && p[i + j * n].abs() < tol);
            }
        }
    }

    #[test]
    fn gghrd_reduces_and_preserves() {
        let n = 8;
        let mut rng = Rng(3);
        let a0 = rng.cmat(n);
        let b0 = rng.cmat(n);
        let mut a = a0.clone();
        let mut b = b0.clone();
        let mut q = vec![C64::zero(); n * n];
        let mut z = vec![C64::zero(); n * n];
        for i in 0..n {
            q[i + i * n] = C64::one();
            z[i + i * n] = C64::one();
        }
        gghrd(n, &mut a, n, &mut b, n, &mut q, n, &mut z, n);
        // A Hessenberg, B triangular.
        for j in 0..n {
            for i in j + 2..n {
                assert!(a[i + j * n].abs() < 1e-13, "A not Hessenberg at ({i},{j})");
            }
            for i in j + 1..n {
                assert!(b[i + j * n].abs() < 1e-13, "B not triangular at ({i},{j})");
            }
        }
        // A = Q H Zᴴ, B = Q T Zᴴ.
        for (orig, red) in [(&a0, &a), (&b0, &b)] {
            let mut qt = vec![C64::zero(); n * n];
            gemm(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                C64::one(),
                &q,
                n,
                red,
                n,
                C64::zero(),
                &mut qt,
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
                &qt,
                n,
                &z,
                n,
                C64::zero(),
                &mut rec,
                n,
            );
            for k in 0..n * n {
                assert!(
                    (rec[k] - orig[k]).abs() < 1e-12 * n as f64,
                    "similarity broken at {k}"
                );
            }
        }
    }

    #[test]
    fn qz_full_decomposition() {
        for &n in &[2usize, 5, 10, 16] {
            let mut rng = Rng(7 + n as u64);
            let a0 = rng.cmat(n);
            let b0 = rng.cmat(n);
            let mut a = a0.clone();
            let mut b = b0.clone();
            let (info, out) = gegs_cplx(n, &mut a, n, &mut b, n);
            assert_eq!(info, 0, "n={n}");
            check_schur_pair(
                n,
                &a0,
                &b0,
                &a,
                &b,
                &out.q,
                &out.z,
                1e-10 * (n as f64 + 1.0),
            );
            // Eigenvalue check: det(β_j·A − α_j·B) = 0 via σ_min.
            for j in 0..n {
                let mut pencil: Vec<C64> = (0..n * n)
                    .map(|k| out.beta[j] * a0[k] - out.alpha[j] * b0[k])
                    .collect();
                let (sv, _, _, sinfo) = crate::svd::gesvd(false, false, n, n, &mut pencil, n);
                assert_eq!(sinfo, 0);
                assert!(
                    sv[n - 1] < 1e-9 * sv[0].max(1.0),
                    "n={n} pencil σ_min for eigenvalue {j}: {}",
                    sv[n - 1]
                );
            }
        }
    }

    #[test]
    fn qz_eigenvectors() {
        let n = 7;
        let mut rng = Rng(31);
        let a0 = rng.cmat(n);
        let b0 = rng.cmat(n);
        let mut a = a0.clone();
        let mut b = b0.clone();
        let (info, alpha, beta, vr) = gegv_qz_cplx(true, n, &mut a, n, &mut b, n);
        assert_eq!(info, 0);
        for j in 0..n {
            // β A x = α B x.
            let x = &vr[j * n..j * n + n];
            let mut worst = 0.0f64;
            for i in 0..n {
                let mut ax = C64::zero();
                let mut bx = C64::zero();
                for k in 0..n {
                    ax += a0[i + k * n] * x[k];
                    bx += b0[i + k * n] * x[k];
                }
                worst = worst.max((beta[j] * ax - alpha[j] * bx).abs());
            }
            assert!(worst < 1e-10 * n as f64, "eigvec {j} residual {worst}");
        }
    }

    #[test]
    fn qz_known_diagonal_pencil() {
        // A = diag(1..n), B = I: eigenvalues exactly 1..n.
        let n = 5;
        let mut a = vec![C64::zero(); n * n];
        let mut b = vec![C64::zero(); n * n];
        for i in 0..n {
            a[i + i * n] = C64::from_real((i + 1) as f64);
            b[i + i * n] = C64::one();
        }
        let (info, out) = gegs_cplx(n, &mut a, n, &mut b, n);
        assert_eq!(info, 0);
        let mut lams: Vec<f64> = (0..n)
            .map(|j| (out.alpha[j].ladiv(out.beta[j])).re)
            .collect();
        lams.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (k, &l) in lams.iter().enumerate() {
            assert!((l - (k + 1) as f64).abs() < 1e-10, "λ_{k} = {l}");
        }
    }

    #[test]
    fn qz_real_embedding_conjugate_pairs() {
        // A real pencil with a rotation block has complex pair eigenvalues.
        let n = 4;
        let mut rng = Rng(41);
        let a0: Vec<f64> = (0..n * n).map(|_| rng.next()).collect();
        let mut b0: Vec<f64> = (0..n * n).map(|_| rng.next() * 0.2).collect();
        for i in 0..n {
            b0[i + i * n] += 2.0;
        }
        let (info, alpha, beta) = gegv_qz_real(n, &a0, n, &b0, n);
        assert_eq!(info, 0);
        // Ratios come in conjugate pairs (up to sorting).
        let mut lams: Vec<C64> = (0..n).map(|j| alpha[j].ladiv(beta[j])).collect();
        lams.sort_by(|x, y| x.re.partial_cmp(&y.re).unwrap());
        let im_sum: f64 = lams.iter().map(|l| l.im).sum();
        assert!(im_sum.abs() < 1e-9, "imaginary parts must cancel: {im_sum}");
    }
}
