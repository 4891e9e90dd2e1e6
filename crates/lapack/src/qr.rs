//! Orthogonal factorizations: Householder QR (`geqr2`/`geqrf`), LQ
//! (`gelq2`/`gelqf`), generation and application of `Q`
//! (`orgqr`/`ormqr`/`orglq`/`ormlq` — the `UNG`/`UNM` variants for complex
//! are the same generic functions), and column-pivoted QR (`geqp3`).

use la_blas::{lacgv, nrm2, scal};
use la_core::{probe, RealScalar, Scalar, Side, Trans};

use crate::aux::{ilaenv_nb, larf, larfb, larfg, larft};

/// Strided [`larfg`]: gathers the vector, generates the reflector and
/// scatters the tail back.
fn larfg_strided<T: Scalar>(
    n1: usize,
    alpha: T,
    a: &mut [T],
    off: usize,
    inc: usize,
) -> (T::Real, T) {
    let mut x: Vec<T> = (0..n1).map(|k| a[off + k * inc]).collect();
    let (beta, tau) = larfg(alpha, &mut x);
    for (k, v) in x.into_iter().enumerate() {
        a[off + k * inc] = v;
    }
    (beta, tau)
}

/// Unblocked Householder QR (`xGEQR2`): `A = Q·R`; the reflectors are
/// stored below the diagonal, `R` on and above, scalar factors in `tau`.
pub fn geqr2<T: Scalar>(m: usize, n: usize, a: &mut [T], lda: usize, tau: &mut [T]) -> i32 {
    let k = m.min(n);
    let mut work = vec![T::zero(); n];
    for i in 0..k {
        // Generate H_i to annihilate A(i+1.., i).
        let (beta, taui) = {
            let alpha = a[i + i * lda];
            let tail_len = m - i - 1;
            let start = i + 1 + i * lda;
            let mut x_view: Vec<T> = a[start..start + tail_len].to_vec();
            let (b, t) = larfg(alpha, &mut x_view);
            a[start..start + tail_len].copy_from_slice(&x_view);
            (b, t)
        };
        tau[i] = taui;
        a[i + i * lda] = T::one();
        if i + 1 < n {
            // Apply H_iᴴ to the trailing columns.
            let taui_c = taui.conj();
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
                taui_c,
                &mut rest[i..],
                lda,
                &mut work,
            );
        }
        a[i + i * lda] = T::from_real(beta);
    }
    0
}

/// Blocked Householder QR (`xGEQRF`).
pub fn geqrf<T: Scalar>(m: usize, n: usize, a: &mut [T], lda: usize, tau: &mut [T]) -> i32 {
    let _probe = probe::span(
        probe::Layer::Lapack,
        "geqrf",
        probe::flops::geqrf(m, n),
        (2 * m * n * std::mem::size_of::<T>()) as u64,
    );
    let k = m.min(n);
    // LA_FACTOR=dag: hand problems spanning more than one tile to the
    // task-graph runtime (same compact-WY output and info codes).
    let cfg = la_core::tune::current();
    if cfg.factor == la_core::tune::FactorAlgo::Dag && k > cfg.tile_size() {
        return crate::tiled::geqrf_dag(m, n, a, lda, tau);
    }
    let nb = ilaenv_nb("geqrf", k);
    if k <= 2 * nb {
        return geqr2(m, n, a, lda, tau);
    }
    let mut t = vec![T::zero(); nb * nb];
    let mut i = 0;
    while i < k {
        // Cooperative cancellation checkpoint: one cheap thread-local
        // read per panel step, so a deadline lands within one panel's
        // O(n²·nb) of work instead of after the whole O(n³).
        if la_core::cancel::cancelled() {
            return la_core::cancel::INFO_CANCELLED;
        }
        let ib = nb.min(k - i);
        // Factor the panel.
        geqr2(m - i, ib, &mut a[i + i * lda..], lda, &mut tau[i..i + ib]);
        if i + ib < n {
            // Form T and apply Hᴴ to the trailing matrix.
            larft(
                m - i,
                ib,
                &a[i + i * lda..],
                lda,
                &tau[i..i + ib],
                &mut t,
                nb,
            );
            // larfb needs V (in the panel) and C (trailing) disjoint: the
            // panel columns i..i+ib vs trailing columns i+ib.. — split.
            let (panel, trail) = a.split_at_mut((i + ib) * lda);
            larfb(
                Side::Left,
                Trans::ConjTrans,
                m - i,
                n - i - ib,
                ib,
                &panel[i + i * lda..],
                lda,
                &t,
                nb,
                &mut trail[i..],
                lda,
            );
        }
        i += ib;
    }
    0
}

/// Generates the explicit `m × n` matrix `Q` with orthonormal columns from
/// the first `k` reflectors of [`geqrf`] (`xORGQR`/`xUNGQR`).
pub fn orgqr<T: Scalar>(m: usize, n: usize, k: usize, a: &mut [T], lda: usize, tau: &[T]) -> i32 {
    let _probe = probe::span(
        probe::Layer::Lapack,
        "orgqr",
        probe::flops::orgqr(m, n, k),
        (2 * m * n * std::mem::size_of::<T>()) as u64,
    );
    if n == 0 {
        return 0;
    }
    let mut work = vec![T::zero(); n];
    // Columns k..n start as identity columns.
    for j in k..n {
        for i in 0..m {
            a[i + j * lda] = T::zero();
        }
        if j < m {
            a[j + j * lda] = T::one();
        }
    }
    for i in (0..k).rev() {
        let taui = tau[i];
        if i + 1 < n {
            a[i + i * lda] = T::one();
            let (vpart, rest) = {
                let split = (i + 1) * lda;
                let (head, tail) = a.split_at_mut(split);
                (&head[i + i * lda..i + i * lda + (m - i)], tail)
            };
            larf(
                Side::Left,
                m - i,
                n - i - 1,
                vpart,
                1,
                taui,
                &mut rest[i..],
                lda,
                &mut work,
            );
        }
        if i + 1 < m {
            scal(m - i - 1, -taui, &mut a[i + 1 + i * lda..], 1);
        }
        a[i + i * lda] = T::one() - taui;
        for l in 0..i {
            a[l + i * lda] = T::zero();
        }
    }
    0
}

/// Applies `Q` (or `Qᴴ`) from [`geqrf`] to `C` (`xORMQR`/`xUNMQR`).
/// `a` holds the reflectors (`m × k` panel when `side == Left`,
/// `n × k` when `side == Right`).
#[allow(clippy::too_many_arguments)]
pub fn ormqr<T: Scalar>(
    side: Side,
    trans: Trans,
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    tau: &[T],
    c: &mut [T],
    ldc: usize,
) -> i32 {
    let nq = match side {
        Side::Left => m,
        Side::Right => n,
    };
    let _probe = probe::span(
        probe::Layer::Lapack,
        "ormqr",
        probe::flops::ormqr(side, m, n, k),
        ((nq * k + 2 * m * n) * std::mem::size_of::<T>()) as u64,
    );
    let mut work = vec![T::zero(); m.max(n)];
    // Order of application: Left+ConjTrans and Right+No go forward.
    let forward = matches!(
        (side, trans.is_transposed()),
        (Side::Left, true) | (Side::Right, false)
    );
    let idx: Vec<usize> = if forward {
        (0..k).collect()
    } else {
        (0..k).rev().collect()
    };
    let mut v = vec![T::zero(); nq];
    for &i in &idx {
        // v = reflector i (unit head, tail from the panel).
        v[..nq].iter_mut().for_each(|x| *x = T::zero());
        v[i] = T::one();
        for r in i + 1..nq {
            v[r] = a[r + i * lda];
        }
        let taui = if trans.is_conj() || (trans.is_transposed() && !T::IS_COMPLEX) {
            tau[i].conj()
        } else {
            tau[i]
        };
        match side {
            Side::Left => larf(Side::Left, m, n, &v[..m], 1, taui, c, ldc, &mut work),
            Side::Right => {
                // H from the right uses conj(tau) for ConjTrans handled
                // above; larf applies I − tau v vᴴ directly.
                larf(Side::Right, m, n, &v[..n], 1, taui, c, ldc, &mut work)
            }
        }
    }
    0
}

/// Unblocked LQ factorization (`xGELQ2`): `A = L·Q`; reflectors stored to
/// the right of the diagonal.
pub fn gelq2<T: Scalar>(m: usize, n: usize, a: &mut [T], lda: usize, tau: &mut [T]) -> i32 {
    let k = m.min(n);
    let mut work = vec![T::zero(); m];
    for i in 0..k {
        // Conjugate the row segment, reflect, conjugate back (zgelq2).
        lacgv(n - i, &mut a[i + i * lda..], lda);
        let alpha = a[i + i * lda];
        let (beta, taui) = larfg_strided(n - i - 1, alpha, a, i + (i + 1).min(n - 1) * lda, lda);
        tau[i] = taui;
        a[i + i * lda] = T::one();
        if i + 1 < m {
            // Apply H_i from the right to A(i+1.., i..).
            let v: Vec<T> = (0..n - i).map(|kk| a[i + (i + kk) * lda]).collect();
            larf(
                Side::Right,
                m - i - 1,
                n - i,
                &v,
                1,
                taui,
                &mut a[i + 1 + i * lda..],
                lda,
                &mut work,
            );
        }
        a[i + i * lda] = T::from_real(beta);
        lacgv(n - i - 1, &mut a[i + (i + 1).min(n - 1) * lda..], lda);
    }
    0
}

/// LQ factorization (`xGELQF`); delegates to the unblocked kernel (LQ is
/// only on the critical path for strongly underdetermined systems).
pub fn gelqf<T: Scalar>(m: usize, n: usize, a: &mut [T], lda: usize, tau: &mut [T]) -> i32 {
    // LQ of m×n costs what QR of the transposed n×m costs.
    let _probe = probe::span(
        probe::Layer::Lapack,
        "gelqf",
        probe::flops::geqrf(n, m),
        (2 * m * n * std::mem::size_of::<T>()) as u64,
    );
    gelq2(m, n, a, lda, tau)
}

/// Extracts reflector `i` of an LQ factorization as a dense `n`-vector
/// (unit head at position `i`), undoing the conjugated row storage.
fn lq_reflector<T: Scalar>(n: usize, a: &[T], lda: usize, i: usize) -> Vec<T> {
    let mut v = vec![T::zero(); n];
    v[i] = T::one();
    for c in i + 1..n {
        v[c] = a[i + c * lda].conj();
    }
    v
}

/// Generates the explicit `m × n` matrix `Q` with orthonormal rows from
/// the first `k` reflectors of [`gelqf`] (`xORGLQ`/`xUNGLQ`).
pub fn orglq<T: Scalar>(m: usize, n: usize, k: usize, a: &mut [T], lda: usize, tau: &[T]) -> i32 {
    // Build Q = H_k ⋯ H_1 by applying reflectors to an identity-seeded
    // workspace row block, mirroring xORGL2.
    let mut work = vec![T::zero(); m.max(n)];
    // Rows k..m start as identity rows.
    for i in k..m {
        for j in 0..n {
            a[i + j * lda] = T::zero();
        }
        if i < n {
            a[i + i * lda] = T::one();
        }
    }
    for i in (0..k).rev() {
        let taui = tau[i];
        let v = lq_reflector(n, a, lda, i);
        // Apply H_i (= I − conj(tau_i) v̄ v̄ᴴ as stored... we use the dense v
        // directly) to rows i+1.. from the right, then form row i.
        if i + 1 < m {
            larf(
                Side::Right,
                m - i - 1,
                n - i,
                &v[i..],
                1,
                taui.conj(),
                &mut a[i + 1 + i * lda..],
                lda,
                &mut work,
            );
        }
        // Row i of Q: e_iᵀ H_i = e_iᵀ − conj(tau_i)·v̄... computed directly:
        // (H_i)(i, :) = e_i − tau_i v v̄ᴴ row? Set from the reflector:
        // row = e_i − conj(tau_i) · conj(v_i(i)) · vᴴ, with v(i) = 1.
        for c in i..n {
            a[i + c * lda] = if c == i {
                T::one() - taui.conj()
            } else {
                -taui.conj() * v[c].conj()
            };
        }
        for c in 0..i {
            a[i + c * lda] = T::zero();
        }
    }
    0
}

/// Applies `Q` (or `Qᴴ`) from [`gelqf`] to `C` (`xORMLQ`/`xUNMLQ`).
#[allow(clippy::too_many_arguments)]
pub fn ormlq<T: Scalar>(
    side: Side,
    trans: Trans,
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    tau: &[T],
    c: &mut [T],
    ldc: usize,
) -> i32 {
    let nq = match side {
        Side::Left => m,
        Side::Right => n,
    };
    let mut work = vec![T::zero(); m.max(n)];
    // Q = H_k ⋯ H_1 with H_i = I − conj(tau_i)·v_i·v_iᴴ in dense-v form
    // (matching orglq above). Applying Q means H_1 acts... Q·x applies H_1
    // last: iterate i descending for Q, ascending for Qᴴ, on the left.
    let forward = matches!(
        (side, trans.is_transposed()),
        (Side::Left, false) | (Side::Right, true)
    );
    let idx: Vec<usize> = if forward {
        (0..k).collect()
    } else {
        (0..k).rev().collect()
    };
    for &i in &idx {
        let v = lq_reflector(nq, a, lda, i);
        let taui = if trans.is_transposed() {
            tau[i]
        } else {
            tau[i].conj()
        };
        larf(side, m, n, &v, 1, taui, c, ldc, &mut work);
    }
    0
}

/// Column-pivoted QR (`xGEQP3`, computed with the level-2 `xGEQP2`
/// algorithm): `A·P = Q·R` with `|r_11| ≥ |r_22| ≥ …`. `jpvt` is 1-based
/// on exit (LAPACK convention).
pub fn geqp3<T: Scalar>(
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    jpvt: &mut [i32],
    tau: &mut [T],
) -> i32 {
    let k = m.min(n);
    let mut work = vec![T::zero(); n];
    // Column norms (current and original, for the downdate safeguard).
    let mut vn1: Vec<T::Real> = (0..n)
        .map(|j| nrm2(m, &a[j * lda..j * lda + m], 1))
        .collect();
    let mut vn2 = vn1.clone();
    for (j, p) in jpvt.iter_mut().enumerate().take(n) {
        *p = (j + 1) as i32;
    }
    let tol3z = T::Real::EPS.sqrt_r();
    for i in 0..k {
        // Pick the column with the largest remaining norm.
        let mut pvt = i;
        for j in i + 1..n {
            if vn1[j] > vn1[pvt] {
                pvt = j;
            }
        }
        if pvt != i {
            for r in 0..m {
                a.swap(r + pvt * lda, r + i * lda);
            }
            jpvt.swap(pvt, i);
            vn1[pvt] = vn1[i];
            vn2[pvt] = vn2[i];
        }
        // Householder on column i.
        let (beta, taui) = {
            let alpha = a[i + i * lda];
            let start = i + 1 + i * lda;
            let len = m - i - 1;
            let mut x: Vec<T> = a[start..start + len].to_vec();
            let (b, t) = larfg(alpha, &mut x);
            a[start..start + len].copy_from_slice(&x);
            (b, t)
        };
        tau[i] = taui;
        a[i + i * lda] = T::one();
        if i + 1 < n {
            let taui_c = taui.conj();
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
                taui_c,
                &mut rest[i..],
                lda,
                &mut work,
            );
        }
        a[i + i * lda] = T::from_real(beta);
        // Downdate the partial column norms.
        for j in i + 1..n {
            if vn1[j] > T::Real::zero() {
                let t = a[i + j * lda].abs() / vn1[j];
                let t = (T::Real::one() - t * t).maxr(T::Real::zero());
                let t2 = t * {
                    let r = vn1[j] / vn2[j];
                    r * r
                };
                if t2 <= T::Real::EPS * tol3z {
                    // Recompute from scratch to avoid cancellation.
                    if i + 1 < m {
                        vn1[j] = nrm2(m - i - 1, &a[i + 1 + j * lda..], 1);
                        vn2[j] = vn1[j];
                    } else {
                        vn1[j] = T::Real::zero();
                        vn2[j] = T::Real::zero();
                    }
                } else {
                    vn1[j] = vn1[j] * t.sqrt_r();
                }
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use la_blas::gemm;
    use la_core::{Trans, Uplo, C64};

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

    fn frob_diff(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x - y).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn qr_reconstructs() {
        let mut rng = Rng(1);
        for &(m, n) in &[(6usize, 4usize), (5, 5), (4, 7), (9, 3)] {
            let a0 = rng.cvec(m * n);
            let mut f = a0.clone();
            let k = m.min(n);
            let mut tau = vec![C64::zero(); k];
            assert_eq!(geqr2(m, n, &mut f, m, &mut tau), 0);
            // Extract R.
            let mut r = vec![C64::zero(); k * n];
            for j in 0..n {
                for i in 0..k.min(j + 1) {
                    r[i + j * k] = f[i + j * m];
                }
            }
            // Q: m×k.
            let mut q = f.clone();
            assert_eq!(orgqr(m, k, k, &mut q, m, &tau), 0);
            // Orthonormal columns: QᴴQ = I.
            let mut qtq = vec![C64::zero(); k * k];
            gemm(
                Trans::ConjTrans,
                Trans::No,
                k,
                k,
                m,
                C64::one(),
                &q,
                m,
                &q,
                m,
                C64::zero(),
                &mut qtq,
                k,
            );
            for j in 0..k {
                for i in 0..k {
                    let want = if i == j { C64::one() } else { C64::zero() };
                    assert!((qtq[i + j * k] - want).abs() < 1e-12, "({m},{n}) QᴴQ");
                }
            }
            // Q·R = A.
            let mut qr = vec![C64::zero(); m * n];
            gemm(
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                C64::one(),
                &q,
                m,
                &r,
                k,
                C64::zero(),
                &mut qr,
                m,
            );
            assert!(
                frob_diff(&qr, &a0) < 1e-12 * (m * n) as f64,
                "({m},{n}) QR=A"
            );
        }
    }

    #[test]
    fn blocked_geqrf_matches_unblocked() {
        let mut rng = Rng(2);
        let (m, n) = (150, 90);
        let a0: Vec<f64> = (0..m * n).map(|_| rng.next()).collect();
        let mut f1 = a0.clone();
        let mut t1 = vec![0.0; n];
        // Force blocked path: k=90 > 2*32.
        assert_eq!(geqrf(m, n, &mut f1, m, &mut t1), 0);
        let mut f2 = a0.clone();
        let mut t2 = vec![0.0; n];
        assert_eq!(geqr2(m, n, &mut f2, m, &mut t2), 0);
        for k in 0..m * n {
            assert!((f1[k] - f2[k]).abs() < 1e-10, "factor elem {k}");
        }
        for k in 0..n {
            assert!((t1[k] - t2[k]).abs() < 1e-12, "tau {k}");
        }
    }

    #[test]
    fn ormqr_matches_explicit_q() {
        let mut rng = Rng(3);
        let (m, n, k) = (7usize, 4usize, 4usize);
        let a0 = rng.cvec(m * k);
        let mut f = a0.clone();
        let mut tau = vec![C64::zero(); k];
        geqr2(m, k, &mut f, m, &mut tau);
        let mut q = f.clone();
        let mut qfull = vec![C64::zero(); m * m];
        // Full m×m Q.
        for j in 0..k {
            for i in 0..m {
                qfull[i + j * m] = q[i + j * m];
            }
        }
        orgqr(m, m, k, &mut qfull, m, &tau);
        let _ = &mut q;
        let c0 = rng.cvec(m * n);
        for trans in [Trans::No, Trans::ConjTrans] {
            let mut c = c0.clone();
            ormqr(Side::Left, trans, m, n, k, &f, m, &tau, &mut c, m);
            let mut cref = vec![C64::zero(); m * n];
            gemm(
                trans,
                Trans::No,
                m,
                n,
                m,
                C64::one(),
                &qfull,
                m,
                &c0,
                m,
                C64::zero(),
                &mut cref,
                m,
            );
            assert!(
                frob_diff(&c, &cref) < 1e-12 * (m * n) as f64,
                "left {trans:?}"
            );
        }
        // Right side: C is n×m.
        let c0 = rng.cvec(n * m);
        for trans in [Trans::No, Trans::ConjTrans] {
            let mut c = c0.clone();
            ormqr(Side::Right, trans, n, m, k, &f, m, &tau, &mut c, n);
            let mut cref = vec![C64::zero(); n * m];
            gemm(
                Trans::No,
                trans,
                n,
                m,
                m,
                C64::one(),
                &c0,
                n,
                &qfull,
                m,
                C64::zero(),
                &mut cref,
                n,
            );
            assert!(
                frob_diff(&c, &cref) < 1e-12 * (m * n) as f64,
                "right {trans:?}"
            );
        }
    }

    #[test]
    fn lq_reconstructs() {
        let mut rng = Rng(4);
        for &(m, n) in &[(4usize, 7usize), (5, 5), (3, 9)] {
            let a0 = rng.cvec(m * n);
            let mut f = a0.clone();
            let k = m.min(n);
            let mut tau = vec![C64::zero(); k];
            assert_eq!(gelq2(m, n, &mut f, m, &mut tau), 0);
            // L: m×k lower part.
            let mut l = vec![C64::zero(); m * k];
            for j in 0..k {
                for i in j..m {
                    l[i + j * m] = f[i + j * m];
                }
            }
            // Q: k×n with orthonormal rows.
            let mut q = f.clone();
            assert_eq!(orglq(k, n, k, &mut q, m, &tau), 0);
            let mut qqt = vec![C64::zero(); k * k];
            gemm(
                Trans::No,
                Trans::ConjTrans,
                k,
                k,
                n,
                C64::one(),
                &q,
                m,
                &q,
                m,
                C64::zero(),
                &mut qqt,
                k,
            );
            for j in 0..k {
                for i in 0..k {
                    let want = if i == j { C64::one() } else { C64::zero() };
                    assert!(
                        (qqt[i + j * k] - want).abs() < 1e-12,
                        "({m},{n}) QQᴴ ({i},{j}) = {}",
                        qqt[i + j * k]
                    );
                }
            }
            let mut lq = vec![C64::zero(); m * n];
            gemm(
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                C64::one(),
                &l,
                m,
                &q,
                m,
                C64::zero(),
                &mut lq,
                m,
            );
            assert!(
                frob_diff(&lq, &a0) < 1e-11 * (m * n) as f64,
                "({m},{n}) LQ=A"
            );
        }
    }

    #[test]
    fn ormlq_matches_explicit_q() {
        let mut rng = Rng(6);
        let (k, nq) = (3usize, 6usize); // Q is nq×nq from k reflectors
        let a0 = rng.cvec(k * nq);
        let mut f = a0.clone();
        let mut tau = vec![C64::zero(); k];
        gelq2(k, nq, &mut f, k, &mut tau);
        // Full nq×nq Q.
        let mut qfull = vec![C64::zero(); nq * nq];
        for j in 0..nq {
            for i in 0..k {
                qfull[i + j * nq] = f[i + j * k];
            }
        }
        orglq(nq, nq, k, &mut qfull, nq, &tau);
        let n = 4;
        let c0 = rng.cvec(nq * n);
        for trans in [Trans::No, Trans::ConjTrans] {
            let mut c = c0.clone();
            ormlq(Side::Left, trans, nq, n, k, &f, k, &tau, &mut c, nq);
            let mut cref = vec![C64::zero(); nq * n];
            gemm(
                trans,
                Trans::No,
                nq,
                n,
                nq,
                C64::one(),
                &qfull,
                nq,
                &c0,
                nq,
                C64::zero(),
                &mut cref,
                nq,
            );
            assert!(
                frob_diff(&c, &cref) < 1e-12 * (nq * n) as f64,
                "ormlq left {trans:?}"
            );
        }
    }

    #[test]
    fn geqp3_pivots_by_norm() {
        let mut rng = Rng(7);
        let (m, n) = (8usize, 6usize);
        // Columns with wildly different scales.
        let mut a0 = rng.cvec(m * n);
        for j in 0..n {
            let s = 10f64.powi(-(j as i32));
            for i in 0..m {
                a0[i + j * m] = a0[i + j * m].scale(s);
            }
        }
        let mut f = a0.clone();
        let mut jpvt = vec![0i32; n];
        let mut tau = vec![C64::zero(); m.min(n)];
        assert_eq!(geqp3(m, n, &mut f, m, &mut jpvt, &mut tau), 0);
        // Diagonal of R decreasing in magnitude.
        for i in 1..m.min(n) {
            assert!(
                f[i + i * m].abs() <= f[i - 1 + (i - 1) * m].abs() + 1e-12,
                "R diagonal not decreasing"
            );
        }
        // A·P = Q·R: check by reconstructing column jpvt[j]-1.
        let k = m.min(n);
        let mut r = vec![C64::zero(); k * n];
        for j in 0..n {
            for i in 0..k.min(j + 1) {
                r[i + j * k] = f[i + j * m];
            }
        }
        let mut q = f.clone();
        orgqr(m, k, k, &mut q, m, &tau);
        let mut qr = vec![C64::zero(); m * n];
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            C64::one(),
            &q,
            m,
            &r,
            k,
            C64::zero(),
            &mut qr,
            m,
        );
        for j in 0..n {
            let src = (jpvt[j] - 1) as usize;
            for i in 0..m {
                assert!(
                    (qr[i + j * m] - a0[i + src * m]).abs() < 1e-11,
                    "pivoted reconstruction ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn real_qr_small_exact() {
        // QR of [[3],[4]] gives R = ∓5.
        let mut a = vec![3.0f64, 4.0];
        let mut tau = vec![0.0f64];
        geqr2(2, 1, &mut a, 2, &mut tau);
        assert!((a[0].abs() - 5.0).abs() < 1e-14);
        let _ = Uplo::Upper;
    }
}
