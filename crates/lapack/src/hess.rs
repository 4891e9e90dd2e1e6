//! Reduction to Hessenberg form and balancing — the shared front end of
//! the nonsymmetric eigensolvers: `gebal`, `gebak`, `gehd2`/`gehrd`,
//! `orghr`/`unghr`.

use la_core::{RealScalar, Scalar, Side};

use crate::aux::{larf, larfg};

/// Balancing job for [`gebal`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum BalanceJob {
    /// No balancing (`'N'`).
    None,
    /// Permutation only (`'P'`).
    Permute,
    /// Diagonal scaling only (`'S'`).
    Scale,
    /// Permute, then scale (`'B'`) — the `xGEEV` default.
    #[default]
    Both,
}

/// Balances a general matrix (`xGEBAL`): first permutes rows/columns to
/// isolate eigenvalues that need no iteration (pushing row-isolated ones
/// to the bottom and column-isolated ones to the top), then applies
/// diagonal similarity scaling to the active window `ilo..=ihi`.
///
/// Returns `(ilo, ihi, scale)` where `scale[i]` holds the scale factor
/// for `i` in the window and the (1-based) exchange partner for isolated
/// positions — LAPACK's exact encoding, consumed by [`gebak`].
pub fn gebal<T: Scalar>(
    job: BalanceJob,
    n: usize,
    a: &mut [T],
    lda: usize,
) -> (usize, usize, Vec<T::Real>) {
    let mut scale = vec![T::Real::one(); n];
    if n == 0 {
        return (0, 0, scale);
    }
    if job == BalanceJob::None {
        return (0, n - 1, scale);
    }
    let mut k = 0usize; // window start
    let mut l = n; // window end (exclusive)

    if job == BalanceJob::Permute || job == BalanceJob::Both {
        // Exchange helper: swap position j with position m, recording the
        // move (columns over rows 0..l, rows over columns k..n — xGEBAL's
        // EXC block).
        let exchange =
            |a: &mut [T], scale: &mut [T::Real], j: usize, m: usize, l: usize, k: usize| {
                scale[m] = T::Real::from_usize(j + 1);
                if j == m {
                    return;
                }
                for r in 0..l {
                    a.swap(r + j * lda, r + m * lda);
                }
                for c in k..n {
                    a.swap(j + c * lda, m + c * lda);
                }
            };
        // Phase 1: rows whose off-diagonal part (within the window) is
        // zero → isolated eigenvalue, move to the bottom.
        'rows: loop {
            if l == 0 {
                break;
            }
            for j in (k..l).rev() {
                let mut nonzero = false;
                for c in k..l {
                    if c != j && !a[j + c * lda].is_zero() {
                        nonzero = true;
                        break;
                    }
                }
                if !nonzero {
                    exchange(a, &mut scale, j, l - 1, l, k);
                    l -= 1;
                    if l == 0 {
                        break 'rows;
                    }
                    continue 'rows;
                }
            }
            break;
        }
        // Phase 2: columns whose off-diagonal part is zero → move to the
        // top. (`continue 'cols` restarts the scan with the advanced k.)
        #[allow(clippy::mut_range_bound)]
        'cols: loop {
            for j in k..l {
                let mut nonzero = false;
                for r in k..l {
                    if r != j && !a[r + j * lda].is_zero() {
                        nonzero = true;
                        break;
                    }
                }
                if !nonzero {
                    exchange(a, &mut scale, j, k, l, k);
                    k += 1;
                    continue 'cols;
                }
            }
            break;
        }
    }
    let (ilo, ihi) = (k, l.saturating_sub(1));

    if (job == BalanceJob::Scale || job == BalanceJob::Both) && ilo < l {
        let sclfac = T::Real::from_f64(2.0);
        let factor = T::Real::from_f64(0.95);
        let sfmin1 = T::Real::sfmin() / T::Real::EPS;
        let sfmax1 = T::Real::one() / sfmin1;
        // Iterative row/column norm equalization over the window.
        let mut converged = false;
        let mut sweeps = 0;
        while !converged && sweeps < 32 {
            converged = true;
            sweeps += 1;
            for i in ilo..=ihi {
                let mut c = T::Real::zero();
                let mut r = T::Real::zero();
                for j in ilo..=ihi {
                    if j != i {
                        c += a[j + i * lda].abs1();
                        r += a[i + j * lda].abs1();
                    }
                }
                if c.is_zero() || r.is_zero() {
                    continue;
                }
                let mut g = r / sclfac;
                let mut f = T::Real::one();
                let s = c + r;
                while c < g {
                    if f > sfmax1 || c > sfmax1 / sclfac {
                        break;
                    }
                    f = f * sclfac;
                    c = c * sclfac;
                    g = g / sclfac;
                }
                g = c / sclfac;
                while g >= r {
                    if f < sfmin1 * sclfac || g < sfmin1 {
                        break;
                    }
                    f = f / sclfac;
                    c = c / sclfac;
                    g = g / sclfac;
                }
                if (c + r) >= factor * s {
                    continue;
                }
                converged = false;
                scale[i] = scale[i] * f;
                let finv = T::Real::one() / f;
                // Row i over columns ilo..n; column i over rows 0..=ihi
                // (xGEBAL's ranges).
                for j in ilo..n {
                    a[i + j * lda] = a[i + j * lda].mul_real(finv);
                }
                for j in 0..=ihi {
                    a[j + i * lda] = a[j + i * lda].mul_real(f);
                }
            }
        }
    }
    (ilo, ihi, scale)
}

/// Undoes the balancing on computed eigenvectors (`xGEBAK`): applies the
/// scaling to the window rows (multiply for right eigenvectors, divide
/// for left), then replays the permutation exchanges in reverse.
#[allow(clippy::too_many_arguments)]
pub fn gebak<T: Scalar>(
    ilo: usize,
    ihi: usize,
    scale: &[T::Real],
    right: bool,
    n: usize,
    m: usize,
    v: &mut [T],
    ldv: usize,
) {
    if n == 0 || m == 0 {
        return;
    }
    // Scaling part (window only).
    if ihi >= ilo {
        for i in ilo..=ihi {
            let s = if right {
                scale[i]
            } else {
                T::Real::one() / scale[i]
            };
            for j in 0..m {
                v[i + j * ldv] = v[i + j * ldv].mul_real(s);
            }
        }
    }
    // Permutation part: i = ilo-1..0 then ihi+1..n, swapping row i with
    // row scale[i]-1 (both vector sides use the same swaps).
    let undo = |i: usize, v: &mut [T]| {
        let kk = scale[i].to_f64() as usize;
        if kk >= 1 {
            let kk = kk - 1;
            if kk != i {
                for j in 0..m {
                    v.swap(i + j * ldv, kk + j * ldv);
                }
            }
        }
    };
    for i in (0..ilo).rev() {
        undo(i, v);
    }
    for i in ihi + 1..n {
        undo(i, v);
    }
}

/// Unblocked reduction to upper Hessenberg form by Householder similarity
/// (`xGEHD2`): `Qᴴ·A·Q = H`. The reflectors stay below the first
/// subdiagonal; `tau` receives their scalars.
pub fn gehd2<T: Scalar>(
    n: usize,
    ilo: usize,
    ihi: usize,
    a: &mut [T],
    lda: usize,
    tau: &mut [T],
) -> i32 {
    let mut work = vec![T::zero(); n];
    for i in ilo..ihi {
        // Annihilate A(i+2.., i).
        let (beta, taui) = {
            let alpha = a[i + 1 + i * lda];
            let start = (i + 2).min(n - 1) + i * lda;
            let len = ihi.saturating_sub(i + 1);
            larfg(alpha, &mut a[start..start + len])
        };
        tau[i] = taui;
        a[i + 1 + i * lda] = T::one();
        let nv = ihi - i; // reflector length (rows i+1..=ihi)
                          // Apply H from the right to A(0..=ihi, i+1..=ihi).
        {
            let v: Vec<T> = a[i + 1 + i * lda..i + 1 + i * lda + nv].to_vec();
            larf(
                Side::Right,
                ihi + 1,
                nv,
                &v,
                1,
                taui,
                &mut a[(i + 1) * lda..],
                lda,
                &mut work,
            );
            // Apply Hᴴ from the left to A(i+1.., i+1..n).
            larf(
                Side::Left,
                nv,
                n - i - 1,
                &v,
                1,
                taui.conj(),
                &mut a[i + 1 + (i + 1) * lda..],
                lda,
                &mut work,
            );
        }
        a[i + 1 + i * lda] = T::from_real(beta);
    }
    0
}

/// Blocked entry point (`xGEHRD`); delegates to [`gehd2`].
pub fn gehrd<T: Scalar>(
    n: usize,
    ilo: usize,
    ihi: usize,
    a: &mut [T],
    lda: usize,
    tau: &mut [T],
) -> i32 {
    gehd2(n, ilo, ihi, a, lda, tau)
}

/// Generates the unitary `Q` of the Hessenberg reduction
/// (`xORGHR`/`xUNGHR`): overwrites `A` with the explicit `n × n` `Q`.
pub fn orghr<T: Scalar>(
    n: usize,
    ilo: usize,
    ihi: usize,
    a: &mut [T],
    lda: usize,
    tau: &[T],
) -> i32 {
    if n == 0 {
        return 0;
    }
    // Harvest the reflectors before overwriting.
    let mut vs: Vec<(usize, Vec<T>)> = Vec::new();
    for i in ilo..ihi {
        let mut v = vec![T::zero(); n];
        v[i + 1] = T::one();
        for r in i + 2..=ihi {
            v[r] = a[r + i * lda];
        }
        vs.push((i, v));
    }
    crate::aux::laset(None, n, n, T::zero(), T::one(), a, lda);
    let mut work = vec![T::zero(); n];
    // Q = H_{ilo} H_{ilo+1} ⋯ H_{ihi-1}: apply in descending order to I.
    for (i, v) in vs.iter().rev() {
        larf(Side::Left, n, n, v, 1, tau[*i], a, lda, &mut work);
    }
    0
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
    }

    #[test]
    fn hessenberg_similarity_roundtrip() {
        let n = 9;
        let mut rng = Rng(3);
        let a0: Vec<C64> = (0..n * n)
            .map(|_| C64::new(rng.next(), rng.next()))
            .collect();
        let mut h = a0.clone();
        let mut tau = vec![C64::zero(); n - 1];
        gehd2(n, 0, n - 1, &mut h, n, &mut tau);
        // H is upper Hessenberg.
        for j in 0..n {
            for i in j + 2..n {
                // Below the first subdiagonal: reflector storage, logically 0.
                let _ = (i, j);
            }
        }
        let mut q = h.clone();
        orghr(n, 0, n - 1, &mut q, n, &tau);
        // Q unitary.
        let mut qhq = vec![C64::zero(); n * n];
        gemm(
            Trans::ConjTrans,
            Trans::No,
            n,
            n,
            n,
            C64::one(),
            &q,
            n,
            &q,
            n,
            C64::zero(),
            &mut qhq,
            n,
        );
        for j in 0..n {
            for i in 0..n {
                let want = if i == j { C64::one() } else { C64::zero() };
                assert!((qhq[i + j * n] - want).abs() < 1e-12, "QᴴQ ({i},{j})");
            }
        }
        // Q H Qᴴ = A with H's sub-sub-diagonal zeroed.
        let mut hcl = h.clone();
        for j in 0..n {
            for i in j + 2..n {
                hcl[i + j * n] = C64::zero();
            }
        }
        let mut qh = vec![C64::zero(); n * n];
        gemm(
            Trans::No,
            Trans::No,
            n,
            n,
            n,
            C64::one(),
            &q,
            n,
            &hcl,
            n,
            C64::zero(),
            &mut qh,
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
            &qh,
            n,
            &q,
            n,
            C64::zero(),
            &mut rec,
            n,
        );
        for k in 0..n * n {
            assert!(
                (rec[k] - a0[k]).abs() < 1e-12 * n as f64,
                "QHQᴴ≠A at {k}: {} vs {}",
                rec[k],
                a0[k]
            );
        }
    }

    #[test]
    fn balance_permutes_isolated_eigenvalues() {
        // Block triangular with an isolated row and column: the window
        // should shrink and the isolated diagonal entries stay eigenvalues.
        let n = 4;
        #[rustfmt::skip]
        let mut a = vec![
            // column-major: a(i,j)
            2.0f64, 0.0, 0.0, 0.0,   // col 0: only diagonal — column-isolated
            1.0,    3.0, 1.0, 0.0,   // col 1
            4.0,    2.0, 5.0, 0.0,   // col 2
            1.0,    1.0, 1.0, 7.0,   // col 3: row 3 has zeros left — row-isolated
        ];
        let (ilo, ihi, scale) = gebal::<f64>(BalanceJob::Permute, n, &mut a, n);
        assert!(
            ilo >= 1,
            "column-isolated eigenvalue not deflated: ilo={ilo}"
        );
        assert!(ihi <= 2, "row-isolated eigenvalue not deflated: ihi={ihi}");
        // Diagonal outside the window holds the isolated eigenvalues 2, 7.
        let mut outside: Vec<f64> = (0..ilo).chain(ihi + 1..n).map(|i| a[i + i * n]).collect();
        outside.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(outside, vec![2.0, 7.0]);
        let _ = scale;
    }

    #[test]
    fn geev_with_permutation_still_correct() {
        // A matrix the permutation phase actually rearranges.
        let n = 5;
        let mut a = vec![0.0f64; n * n];
        // Column 2 isolated (only diagonal), row 0 isolated.
        a[0] = 4.0;
        a[1 + n] = 1.0;
        a[2 + 2 * n] = -3.0;
        a[3 + 3 * n] = 2.0;
        a[4 + 4 * n] = 0.5;
        a[1 + 3 * n] = 2.0;
        a[3 + n] = -1.5;
        a[4 + 3 * n] = 1.0;
        a[1 + 4 * n] = 0.7;
        a[n] = 9.0; // entry (0, 1): row 0 couples forward only
        let a0 = a.clone();
        let (info, res) = crate::eig_real::geev(true, true, n, &mut a, n);
        assert_eq!(info, 0);
        let r = crate::eig_real::dense_eig_residual(n, &a0, &res.wr, &res.wi, &res.vr);
        assert!(r < 1e-10, "residual after permutation balancing = {r}");
    }

    #[test]
    fn balance_reduces_norm_spread() {
        let n = 4;
        // Badly scaled matrix.
        let mut a = vec![
            1.0f64, 1e-8, 2.0, 1e-7, //
            1e8, 2.0, 1e8, 3.0, //
            0.5, 1e-8, 3.0, 1e-9, //
            1e7, 4.0, 1e9, 1.0,
        ];
        let a0 = a.clone();
        let (ilo, ihi, scale) = gebal(BalanceJob::Scale, n, &mut a, n);
        assert_eq!((ilo, ihi), (0, 3));
        // Similarity preserved: D⁻¹ A0 D = A ⇒ A0 = D A D⁻¹.
        for j in 0..n {
            for i in 0..n {
                let want = a[i + j * n] * scale[i] / scale[j];
                assert!(
                    (want - a0[i + j * n]).abs() <= 1e-9 * (1.0 + a0[i + j * n].abs()),
                    "similarity broken at ({i},{j})"
                );
            }
        }
        // Norm spread (max row norm / min row norm) should not grow.
        let spread = |m: &[f64]| -> f64 {
            let mut mx: f64 = 0.0;
            let mut mn = f64::INFINITY;
            for i in 0..n {
                let r: f64 = (0..n).map(|j| m[i + j * n].abs()).sum();
                mx = mx.max(r);
                mn = mn.min(r);
            }
            mx / mn
        };
        assert!(spread(&a) <= spread(&a0));
    }

    #[test]
    fn gebak_roundtrip() {
        let n = 3;
        let scale = vec![2.0f64, 0.5, 4.0];
        let v0: Vec<f64> = (0..n * 2).map(|k| k as f64 + 1.0).collect();
        let mut v = v0.clone();
        gebak::<f64>(0, n - 1, &scale, true, n, 2, &mut v, n);
        gebak::<f64>(0, n - 1, &scale, false, n, 2, &mut v, n);
        for k in 0..n * 2 {
            assert!((v[k] - v0[k]).abs() < 1e-14);
        }
    }
}
