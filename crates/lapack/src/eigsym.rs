//! Symmetric/Hermitian eigenproblems: tridiagonal reduction
//! (`sytd2`/`sytrd`, packed `sptrd`), generation/application of the
//! reduction transform (`orgtr`/`ormtr`/`opgtr`), the implicit-shift
//! tridiagonal QL/QR eigensolver (`steqr`, `sterf`), bisection + inverse
//! iteration (`stebz`, `stein`) and the drivers `syev`/`heev`, `stev`,
//! `spev`/`hpev`, `sbev`/`hbev`, `syevx`/`stevx`.

use la_blas::{axpy, dotc, hemv, her2, spmv, spr2};
use la_core::{RealScalar, Scalar, Side, Uplo};

use crate::aux::{larf, larfg};

/// Reduces a Hermitian (or real symmetric) matrix to real symmetric
/// tridiagonal form by a unitary similarity `Qᴴ·A·Q = T`
/// (`xSYTD2`/`xHETD2`). `d`, `e` receive the tridiagonal; `tau` the
/// reflector scalars; the reflectors remain in `A`.
pub fn sytd2<T: Scalar>(
    uplo: Uplo,
    n: usize,
    a: &mut [T],
    lda: usize,
    d: &mut [T::Real],
    e: &mut [T::Real],
    tau: &mut [T],
) -> i32 {
    if n == 0 {
        return 0;
    }
    let half = T::from_f64(0.5);
    match uplo {
        Uplo::Lower => {
            for i in 0..n - 1 {
                // Annihilate A(i+2.., i).
                let (beta, taui) = {
                    let alpha = a[i + 1 + i * lda];
                    let start = (i + 2).min(n - 1) + i * lda;
                    let len = n - i - 2;
                    larfg(alpha, &mut a[start..start + len])
                };
                e[i] = beta;
                if !taui.is_zero() {
                    a[i + 1 + i * lda] = T::one();
                    let nv = n - i - 1;
                    // w := tau · A22 · v
                    let mut w = vec![T::zero(); nv];
                    {
                        let (vcol, a22) = {
                            let split = (i + 1) * lda;
                            let (head, tail) = a.split_at_mut(split);
                            (&head[i + 1 + i * lda..i + 1 + i * lda + nv], tail)
                        };
                        hemv(
                            Uplo::Lower,
                            nv,
                            taui,
                            &a22[i + 1..],
                            lda,
                            vcol,
                            1,
                            T::zero(),
                            &mut w,
                            1,
                        );
                        // w -= (tau/2)(wᴴv) v
                        let alpha = -half * taui * dotc(nv, &w, 1, vcol, 1);
                        axpy(nv, alpha, vcol, 1, &mut w, 1);
                        // A22 -= v·wᴴ + w·vᴴ
                        her2(
                            Uplo::Lower,
                            nv,
                            -T::one(),
                            vcol,
                            1,
                            &w,
                            1,
                            &mut a22[i + 1..],
                            lda,
                        );
                    }
                } else if T::IS_COMPLEX {
                    let idx = (i + 1) + (i + 1) * lda;
                    a[idx] = T::from_real(a[idx].re());
                }
                a[i + 1 + i * lda] = T::from_real(e[i]);
                d[i] = a[i + i * lda].re();
                tau[i] = taui;
            }
            d[n - 1] = a[n - 1 + (n - 1) * lda].re();
        }
        Uplo::Upper => {
            for i in (1..n).rev() {
                // Annihilate A(0..i-1, i); head element at a(i-1, i).
                let (beta, taui) = {
                    let alpha = a[i - 1 + i * lda];
                    let start = i * lda;
                    let len = i - 1;
                    larfg(alpha, &mut a[start..start + len])
                };
                e[i - 1] = beta;
                if !taui.is_zero() {
                    a[i - 1 + i * lda] = T::one();
                    let nv = i;
                    let mut w = vec![T::zero(); nv];
                    {
                        let (a11, vcol) = {
                            let split = i * lda;
                            let (head, tail) = a.split_at_mut(split);
                            (head, &tail[..nv])
                        };
                        // v occupies a(0..i, i) with implicit head ordering:
                        // v = (a(0..i-1, i), 1) — we stored 1 at a(i-1, i),
                        // so vcol = a(0..i, i)? The reflector from larfg has
                        // its unit element at position i-1 and tail at
                        // 0..i-1 — contiguous as stored.
                        hemv(
                            Uplo::Upper,
                            nv,
                            taui,
                            a11,
                            lda,
                            vcol,
                            1,
                            T::zero(),
                            &mut w,
                            1,
                        );
                        let alpha = -half * taui * dotc(nv, &w, 1, vcol, 1);
                        axpy(nv, alpha, vcol, 1, &mut w, 1);
                        her2(Uplo::Upper, nv, -T::one(), vcol, 1, &w, 1, a11, lda);
                    }
                } else if T::IS_COMPLEX {
                    let idx = (i - 1) + (i - 1) * lda;
                    a[idx] = T::from_real(a[idx].re());
                }
                a[i - 1 + i * lda] = T::from_real(e[i - 1]);
                d[i] = a[i + i * lda].re();
                tau[i - 1] = taui;
            }
            d[0] = a[0].re();
        }
    }
    0
}

/// Blocked entry point (`xSYTRD`/`xHETRD`); delegates to [`sytd2`].
pub fn sytrd<T: Scalar>(
    uplo: Uplo,
    n: usize,
    a: &mut [T],
    lda: usize,
    d: &mut [T::Real],
    e: &mut [T::Real],
    tau: &mut [T],
) -> i32 {
    sytd2(uplo, n, a, lda, d, e, tau)
}

/// Generates the unitary matrix `Q` of the tridiagonal reduction
/// (`xORGTR`/`xUNGTR`): overwrites `A` with the explicit `n × n` `Q`.
pub fn orgtr<T: Scalar>(uplo: Uplo, n: usize, a: &mut [T], lda: usize, tau: &[T]) -> i32 {
    if n == 0 {
        return 0;
    }
    // Collect the reflector vectors first (they live in A, which we are
    // about to overwrite with Q).
    let mut vs: Vec<Vec<T>> = Vec::with_capacity(n.saturating_sub(1));
    match uplo {
        Uplo::Lower => {
            for i in 0..n - 1 {
                let mut v = vec![T::zero(); n];
                v[i + 1] = T::one();
                for r in i + 2..n {
                    v[r] = a[r + i * lda];
                }
                vs.push(v);
            }
        }
        Uplo::Upper => {
            for i in 0..n - 1 {
                // Reflector i annihilated column i+1 above the diagonal:
                // unit element at position i, tail at 0..i.
                let mut v = vec![T::zero(); n];
                v[i] = T::one();
                for r in 0..i {
                    v[r] = a[r + (i + 1) * lda];
                }
                vs.push(v);
            }
        }
    }
    // Q := I, then apply the H_i in the correct order.
    crate::aux::laset(None, n, n, T::zero(), T::one(), a, lda);
    let mut work = vec![T::zero(); n];
    match uplo {
        Uplo::Lower => {
            // Q = H_1 H_2 ⋯ H_{n-1}: apply descending.
            for i in (0..n - 1).rev() {
                larf(Side::Left, n, n, &vs[i], 1, tau[i], a, lda, &mut work);
            }
        }
        Uplo::Upper => {
            // Q = H_{n-1} ⋯ H_1: apply ascending.
            for i in 0..n - 1 {
                larf(Side::Left, n, n, &vs[i], 1, tau[i], a, lda, &mut work);
            }
        }
    }
    0
}

/// Applies the `Q` of a tridiagonal reduction to a matrix
/// (`xORMTR`/`xUNMTR`), from the left: `C := Q·C` or `Qᴴ·C`.
#[allow(clippy::too_many_arguments)]
pub fn ormtr_left<T: Scalar>(
    uplo: Uplo,
    conj_trans: bool,
    n: usize,
    a: &[T],
    lda: usize,
    tau: &[T],
    c: &mut [T],
    ncols: usize,
    ldc: usize,
) -> i32 {
    if n == 0 {
        return 0;
    }
    let mut work = vec![T::zero(); ncols.max(n)];
    let apply = |i: usize, c: &mut [T], work: &mut [T], taui: T| {
        let mut v = vec![T::zero(); n];
        match uplo {
            Uplo::Lower => {
                v[i + 1] = T::one();
                for r in i + 2..n {
                    v[r] = a[r + i * lda];
                }
            }
            Uplo::Upper => {
                v[i] = T::one();
                for r in 0..i {
                    v[r] = a[r + (i + 1) * lda];
                }
            }
        }
        larf(Side::Left, n, ncols, &v, 1, taui, c, ldc, work);
    };
    // Ordering mirrors orgtr; Qᴴ reverses it and conjugates tau.
    let order: Vec<usize> = match (uplo, conj_trans) {
        (Uplo::Lower, false) => (0..n - 1).rev().collect(),
        (Uplo::Lower, true) => (0..n - 1).collect(),
        (Uplo::Upper, false) => (0..n - 1).collect(),
        (Uplo::Upper, true) => (0..n - 1).rev().collect(),
    };
    for i in order {
        let taui = if conj_trans { tau[i].conj() } else { tau[i] };
        apply(i, c, &mut work, taui);
    }
    0
}

/// Implicit-shift QL/QR eigensolver for a real symmetric tridiagonal
/// matrix (`xSTEQR`). Eigenvalues return in ascending order in `d`; if
/// `z` is provided (an `n`-column matrix, typically `Q` from the
/// reduction), it is postmultiplied by the accumulated rotations so its
/// columns become eigenvectors. Returns the number of unconverged
/// off-diagonals as `info`.
pub fn steqr<T: Scalar>(
    n: usize,
    d: &mut [T::Real],
    e: &mut [T::Real],
    mut z: Option<(&mut [T], usize)>,
) -> i32 {
    if n <= 1 {
        return 0;
    }
    let zero = T::Real::zero();
    let one = T::Real::one();
    let two = one + one;
    let eps = T::Real::EPS;
    let maxit = 50usize;
    // Convention: when z is supplied, `ldz` must equal its row count —
    // the rotations touch full columns.
    // Work on a length-n copy of e (the classic tqli formulation writes
    // the rotation radius into e[m], one past the caller's n-1 slots).
    let mut ework = vec![zero; n];
    ework[..n - 1].copy_from_slice(&e[..n - 1]);
    let e = &mut ework[..];

    for l in 0..n {
        let mut iter = 0usize;
        'outer: loop {
            // Find the first small off-diagonal at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].rabs() + d[m + 1].rabs();
                if e[m].rabs() <= eps * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break 'outer;
            }
            if iter >= maxit {
                // Count remaining unconverged off-diagonals.
                let mut cnt = 0;
                for i in 0..n - 1 {
                    let dd = d[i].rabs() + d[i + 1].rabs();
                    if e[i].rabs() > eps * dd {
                        cnt += 1;
                    }
                }
                return cnt;
            }
            iter += 1;
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (two * e[l]);
            let mut r = g.hypot(one);
            g = d[m] - d[l] + e[l] / (g + r.sign(g));
            let (mut s, mut c) = (one, one);
            let mut p = zero;
            let mut i = m;
            while i > l {
                let ii = i - 1;
                let f = s * e[ii];
                let b = c * e[ii];
                r = f.hypot(g);
                e[i] = r;
                if r.is_zero() {
                    // Recover: split has occurred.
                    d[i] = d[i] - p;
                    e[m] = zero;
                    continue 'outer;
                }
                s = f / r;
                c = g / r;
                g = d[i] - p;
                r = (d[ii] - g) * s + two * c * b;
                p = s * r;
                d[i] = g + p;
                g = c * r - b;
                // Accumulate the rotation into z columns ii and i.
                if let Some((zm, ldz)) = z.as_mut() {
                    let ld = *ldz;
                    for k in 0..ld {
                        let zf = zm[k + i * ld];
                        zm[k + i * ld] = zm[k + ii * ld].mul_real(s) + zf.mul_real(c);
                        zm[k + ii * ld] = zm[k + ii * ld].mul_real(c) - zf.mul_real(s);
                    }
                }
                i -= 1;
            }
            d[l] = d[l] - p;
            e[l] = g;
            e[m] = zero;
        }
    }
    // Sort ascending (selection sort, swapping z columns along).
    for i in 0..n {
        let mut k = i;
        for j in i + 1..n {
            if d[j] < d[k] {
                k = j;
            }
        }
        if k != i {
            d.swap(i, k);
            if let Some((zm, ldz)) = z.as_mut() {
                let ld = *ldz;
                for r in 0..ld {
                    zm.swap(r + i * ld, r + k * ld);
                }
            }
        }
    }
    0
}

/// Eigenvalues only of a symmetric tridiagonal matrix (`xSTERF`).
pub fn sterf<R: RealScalar>(n: usize, d: &mut [R], e: &mut [R]) -> i32 {
    steqr::<R>(n, d, e, None)
}

/// Counts eigenvalues of the symmetric tridiagonal `(d, e)` strictly less
/// than `x` (Sturm sequence via the shifted `LDLᵀ` pivots).
pub fn sturm_count<R: RealScalar>(n: usize, d: &[R], e: &[R], x: R) -> usize {
    let mut count = 0usize;
    let mut q = R::one();
    let pivmin = R::sfmin();
    for i in 0..n {
        q = if i == 0 {
            d[0] - x
        } else {
            let denom = if q.rabs() < pivmin { pivmin.sign(q) } else { q };
            d[i] - x - e[i - 1] * e[i - 1] / denom
        };
        if q < R::zero() {
            count += 1;
        }
    }
    count
}

/// Which eigenvalues `stebz`/`syevx` should compute.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EigRange<R> {
    /// All eigenvalues.
    All,
    /// Eigenvalues in the half-open interval `(vl, vu]`.
    Value(R, R),
    /// Eigenvalues with 1-based indices `il..=iu` in ascending order.
    Index(usize, usize),
}

/// Computes selected eigenvalues of a symmetric tridiagonal matrix by
/// bisection (`xSTEBZ`). Returns them in ascending order.
pub fn stebz<R: RealScalar>(range: EigRange<R>, n: usize, d: &[R], e: &[R], abstol: R) -> Vec<R> {
    if n == 0 {
        return vec![];
    }
    // Gershgorin bounds.
    let mut lo = d[0];
    let mut hi = d[0];
    for i in 0..n {
        let off = if i > 0 { e[i - 1].rabs() } else { R::zero() }
            + if i + 1 < n { e[i].rabs() } else { R::zero() };
        lo = lo.minr(d[i] - off);
        hi = hi.maxr(d[i] + off);
    }
    let span = (hi - lo).maxr(R::one());
    let lo = lo - span * R::EPS * R::from_usize(n) - R::sfmin();
    let hi = hi + span * R::EPS * R::from_usize(n) + R::sfmin();
    let tol = if abstol > R::zero() {
        abstol
    } else {
        R::EPS * (hi.rabs().maxr(lo.rabs())) * R::from_usize(2)
    };

    let (i_lo, i_hi) = match range {
        EigRange::All => (1usize, n),
        EigRange::Index(il, iu) => (il.max(1), iu.min(n)),
        EigRange::Value(vl, vu) => {
            let cl = sturm_count(n, d, e, vl);
            let cu = sturm_count(n, d, e, vu);
            if cu <= cl {
                return vec![];
            }
            (cl + 1, cu)
        }
    };
    let mut out = Vec::with_capacity(i_hi.saturating_sub(i_lo) + 1);
    for idx in i_lo..=i_hi {
        // Bisect for the idx-th smallest eigenvalue.
        let (mut a, mut b) = (lo, hi);
        while b - a > tol + R::EPS * (a.rabs().maxr(b.rabs())) {
            let mid = (a + b) / (R::one() + R::one());
            if sturm_count(n, d, e, mid) >= idx {
                b = mid;
            } else {
                a = mid;
            }
        }
        out.push((a + b) / (R::one() + R::one()));
    }
    out
}

/// Inverse iteration for eigenvectors of a symmetric tridiagonal matrix
/// at given eigenvalues (`xSTEIN`). Returns the vectors as columns of an
/// `n × m` matrix; close eigenvalues are reorthogonalized.
pub fn stein<R: RealScalar>(n: usize, d: &[R], e: &[R], w: &[R]) -> Vec<R> {
    let m = w.len();
    let mut z = vec![R::zero(); n * m];
    let eps = R::EPS;
    // Scale reference for perturbation and grouping.
    let tnorm = crate::aux::lanst(la_core::Norm::One, n, d, e).maxr(R::one());
    let mut prev_lambda = R::zero();
    let mut group_start = 0usize;
    for (j, &lambda0) in w.iter().enumerate() {
        // Perturb repeated eigenvalues slightly to separate the systems.
        let mut lambda = lambda0;
        if j > 0 && (lambda - prev_lambda).rabs() <= eps * tnorm * R::from_usize(10) {
            lambda = prev_lambda + eps * tnorm * R::from_usize(10);
        } else {
            group_start = j;
        }
        prev_lambda = lambda;
        // Start vector: deterministic pseudo-random, nonzero.
        let mut v: Vec<R> = (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(j as u64 * 0x85ebca6b);
                R::from_f64(((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5 + 0.75)
            })
            .collect();
        for _ in 0..5 {
            // Solve (T − λI)x = v with partial-pivoting tridiagonal LU.
            let mut dl: Vec<R> = e[..n.saturating_sub(1)].to_vec();
            let mut dd: Vec<R> = d.iter().take(n).map(|&x| x - lambda).collect();
            let mut du: Vec<R> = e[..n.saturating_sub(1)].to_vec();
            let mut du2 = vec![R::zero(); n.saturating_sub(2)];
            let mut ipiv = vec![0i32; n];
            // Guard exact singularity with a tiny perturbation.
            for x in dd.iter_mut() {
                if x.rabs() < R::sfmin() / eps {
                    *x = (R::sfmin() / eps).sign(*x);
                }
            }
            crate::band::gttrf(n, &mut dl, &mut dd, &mut du, &mut du2, &mut ipiv);
            crate::band::gttrs(
                la_core::Trans::No,
                n,
                1,
                &dl,
                &dd,
                &du,
                &du2,
                &ipiv,
                &mut v,
                n.max(1),
            );
            // Reorthogonalize within the cluster.
            for g in group_start..j {
                let mut dot = R::zero();
                for i in 0..n {
                    dot += z[i + g * n] * v[i];
                }
                for i in 0..n {
                    let upd = z[i + g * n] * dot;
                    v[i] -= upd;
                }
            }
            // Normalize.
            let nrm = la_blas::nrm2(n, &v, 1);
            if nrm > R::zero() {
                for x in v.iter_mut() {
                    *x = *x / nrm;
                }
            }
        }
        z[j * n..j * n + n].copy_from_slice(&v);
    }
    z
}

/// Symmetric/Hermitian eigen driver (`xSYEV`/`xHEEV`): all eigenvalues,
/// optionally eigenvectors (returned in `a`'s columns). Eigenvalues come
/// back ascending in `w`.
pub fn syev<T: Scalar>(
    want_z: bool,
    uplo: Uplo,
    n: usize,
    a: &mut [T],
    lda: usize,
    w: &mut [T::Real],
) -> i32 {
    if n == 0 {
        return 0;
    }
    let mut e = vec![T::Real::zero(); n.saturating_sub(1).max(1)];
    let mut tau = vec![T::zero(); n.saturating_sub(1).max(1)];
    sytrd(uplo, n, a, lda, w, &mut e, &mut tau);
    if want_z {
        orgtr(uplo, n, a, lda, &tau);
        steqr::<T>(n, w, &mut e, Some((a, lda)))
    } else {
        steqr::<T>(n, w, &mut e, None)
    }
}

/// Symmetric tridiagonal driver (`xSTEV`): eigenvalues (ascending) and
/// optionally eigenvectors of `(d, e)`.
pub fn stev<R: RealScalar>(
    n: usize,
    d: &mut [R],
    e: &mut [R],
    z: Option<(&mut [R], usize)>,
) -> i32 {
    if let Some((zm, ldz)) = z {
        crate::aux::laset(None, n, n, R::zero(), R::one(), zm, ldz);
        steqr::<R>(n, d, e, Some((zm, ldz)))
    } else {
        steqr::<R>(n, d, e, None)
    }
}

/// Expert driver (`xSYEVX`/`xHEEVX`-style): selected eigenvalues (and
/// optionally eigenvectors) of a dense Hermitian matrix via bisection +
/// inverse iteration. Returns `(eigenvalues, eigenvectors)` where the
/// vector matrix is `n × m` (empty when `want_z` is false).
#[allow(clippy::type_complexity)]
pub fn syevx<T: Scalar>(
    want_z: bool,
    range: EigRange<T::Real>,
    uplo: Uplo,
    n: usize,
    a: &mut [T],
    lda: usize,
    abstol: T::Real,
) -> (Vec<T::Real>, Vec<T>) {
    if n == 0 {
        return (vec![], vec![]);
    }
    let mut d = vec![T::Real::zero(); n];
    let mut e = vec![T::Real::zero(); n.saturating_sub(1).max(1)];
    let mut tau = vec![T::zero(); n.saturating_sub(1).max(1)];
    sytrd(uplo, n, a, lda, &mut d, &mut e, &mut tau);
    let w = stebz(range, n, &d, &e, abstol);
    if !want_z || w.is_empty() {
        return (w, vec![]);
    }
    let zr = stein(n, &d, &e, &w);
    // Lift to T and back-transform with Q from the reduction.
    let m = w.len();
    let mut z: Vec<T> = zr.iter().map(|&x| T::from_real(x)).collect();
    ormtr_left(uplo, false, n, a, lda, &tau, &mut z, m, n);
    (w, z)
}

/// Expert tridiagonal driver (`xSTEVX`-style): selected eigenvalues and
/// optionally eigenvectors by bisection + inverse iteration.
pub fn stevx<R: RealScalar>(
    want_z: bool,
    range: EigRange<R>,
    n: usize,
    d: &[R],
    e: &[R],
    abstol: R,
) -> (Vec<R>, Vec<R>) {
    let w = stebz(range, n, d, e, abstol);
    if !want_z || w.is_empty() {
        return (w, vec![]);
    }
    let z = stein(n, d, e, &w);
    (w, z)
}

// ---------------------------------------------------------------------------
// Packed and band reductions.
// ---------------------------------------------------------------------------

/// Packed tridiagonal reduction (`xSPTRD`/`xHPTRD`).
pub fn sptrd<T: Scalar>(
    uplo: Uplo,
    n: usize,
    ap: &mut [T],
    d: &mut [T::Real],
    e: &mut [T::Real],
    tau: &mut [T],
) -> i32 {
    if n == 0 {
        return 0;
    }
    let half = T::from_f64(0.5);
    let idx = |i: usize, j: usize| -> usize {
        match uplo {
            Uplo::Upper => i + j * (j + 1) / 2,
            Uplo::Lower => i + j * (2 * n - j - 1) / 2,
        }
    };
    match uplo {
        Uplo::Lower => {
            for i in 0..n - 1 {
                let nv = n - i - 1;
                // Column i below the diagonal, packed contiguously.
                let col0 = idx(i + 1, i);
                let (beta, taui) = {
                    let alpha = ap[col0];
                    larfg(alpha, &mut ap[col0 + 1..col0 + nv])
                };
                e[i] = beta;
                if !taui.is_zero() {
                    ap[col0] = T::one();
                    // Work on the trailing packed submatrix AP(i+1.., i+1..),
                    // which starts at idx(i+1, i+1) with order nv.
                    let sub0 = idx(i + 1, i + 1);
                    let mut w = vec![T::zero(); nv];
                    {
                        let v: Vec<T> = ap[col0..col0 + nv].to_vec();
                        spmv(
                            T::IS_COMPLEX,
                            Uplo::Lower,
                            nv,
                            taui,
                            &ap[sub0..],
                            &v,
                            1,
                            T::zero(),
                            &mut w,
                            1,
                        );
                        let alpha = -half * taui * dotc(nv, &w, 1, &v, 1);
                        axpy(nv, alpha, &v, 1, &mut w, 1);
                        spr2(
                            T::IS_COMPLEX,
                            Uplo::Lower,
                            nv,
                            -T::one(),
                            &v,
                            1,
                            &w,
                            1,
                            &mut ap[sub0..],
                        );
                    }
                }
                ap[col0] = T::from_real(e[i]);
                d[i] = ap[idx(i, i)].re();
                tau[i] = taui;
            }
            d[n - 1] = ap[idx(n - 1, n - 1)].re();
        }
        Uplo::Upper => {
            for i in (1..n).rev() {
                // Column i above the diagonal: packed at idx(0, i)..idx(i-1, i)+1.
                let col0 = idx(0, i);
                let (beta, taui) = {
                    let alpha = ap[col0 + i - 1];
                    larfg(alpha, &mut ap[col0..col0 + i - 1])
                };
                e[i - 1] = beta;
                if !taui.is_zero() {
                    ap[col0 + i - 1] = T::one();
                    let nv = i;
                    let mut w = vec![T::zero(); nv];
                    {
                        let v: Vec<T> = ap[col0..col0 + nv].to_vec();
                        spmv(
                            T::IS_COMPLEX,
                            Uplo::Upper,
                            nv,
                            taui,
                            ap,
                            &v,
                            1,
                            T::zero(),
                            &mut w,
                            1,
                        );
                        let alpha = -half * taui * dotc(nv, &w, 1, &v, 1);
                        axpy(nv, alpha, &v, 1, &mut w, 1);
                        spr2(T::IS_COMPLEX, Uplo::Upper, nv, -T::one(), &v, 1, &w, 1, ap);
                    }
                }
                ap[col0 + i - 1] = T::from_real(e[i - 1]);
                d[i] = ap[idx(i, i)].re();
                tau[i - 1] = taui;
            }
            d[0] = ap[0].re();
        }
    }
    0
}

/// Generates `Q` of the packed reduction into a dense `n × n` matrix
/// (`xOPGTR`/`xUPGTR`).
pub fn opgtr<T: Scalar>(uplo: Uplo, n: usize, ap: &[T], tau: &[T], q: &mut [T], ldq: usize) -> i32 {
    crate::aux::laset(None, n, n, T::zero(), T::one(), q, ldq);
    if n == 0 {
        return 0;
    }
    let idx = |i: usize, j: usize| -> usize {
        match uplo {
            Uplo::Upper => i + j * (j + 1) / 2,
            Uplo::Lower => i + j * (2 * n - j - 1) / 2,
        }
    };
    let mut work = vec![T::zero(); n];
    match uplo {
        Uplo::Lower => {
            for i in (0..n - 1).rev() {
                let mut v = vec![T::zero(); n];
                v[i + 1] = T::one();
                for r in i + 2..n {
                    v[r] = ap[idx(r, i)];
                }
                larf(Side::Left, n, n, &v, 1, tau[i], q, ldq, &mut work);
            }
        }
        Uplo::Upper => {
            for i in 0..n - 1 {
                let mut v = vec![T::zero(); n];
                v[i] = T::one();
                for r in 0..i {
                    v[r] = ap[idx(r, i + 1)];
                }
                larf(Side::Left, n, n, &v, 1, tau[i], q, ldq, &mut work);
            }
        }
    }
    0
}

/// Packed eigen driver (`xSPEV`/`xHPEV`): eigenvalues ascending, optional
/// eigenvectors into `z`.
pub fn spev<T: Scalar>(
    want_z: bool,
    uplo: Uplo,
    n: usize,
    ap: &mut [T],
    w: &mut [T::Real],
    z: Option<(&mut [T], usize)>,
) -> i32 {
    let mut e = vec![T::Real::zero(); n.saturating_sub(1).max(1)];
    let mut tau = vec![T::zero(); n.saturating_sub(1).max(1)];
    sptrd(uplo, n, ap, w, &mut e, &mut tau);
    if want_z {
        let (zm, ldz) = z.expect("z required when want_z");
        opgtr(uplo, n, ap, &tau, zm, ldz);
        steqr::<T>(n, w, &mut e, Some((zm, ldz)))
    } else {
        steqr::<T>(n, w, &mut e, None)
    }
}

/// Band eigen driver (`xSBEV`/`xHBEV`): expands the band to dense storage
/// and runs the dense path (functionally complete; an in-band Givens
/// reduction (`xSBTRD`) is listed as future work in DESIGN.md).
#[allow(clippy::too_many_arguments)]
pub fn sbev<T: Scalar>(
    want_z: bool,
    uplo: Uplo,
    n: usize,
    kd: usize,
    ab: &[T],
    ldab: usize,
    w: &mut [T::Real],
    z: Option<(&mut [T], usize)>,
) -> i32 {
    // Expand the stored triangle.
    let mut a = vec![T::zero(); (n * n).max(1)];
    for j in 0..n {
        match uplo {
            Uplo::Upper => {
                for i in j.saturating_sub(kd)..=j {
                    a[i + j * n] = ab[kd + i - j + j * ldab];
                }
            }
            Uplo::Lower => {
                for i in j..(j + kd + 1).min(n) {
                    a[i + j * n] = ab[i - j + j * ldab];
                }
            }
        }
    }
    let info = syev(want_z, uplo, n, &mut a, n.max(1), w);
    if want_z {
        if let Some((zm, ldz)) = z {
            crate::aux::lacpy(None, n, n, &a, n.max(1), zm, ldz);
        }
    }
    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use la_blas::gemm;
    use la_core::{Norm, Trans, C64};

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((self.0 >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
    }

    fn rand_herm(n: usize, seed: u64) -> Vec<C64> {
        let mut r = Rng(seed);
        let mut a = vec![C64::zero(); n * n];
        for j in 0..n {
            for i in 0..=j {
                let v = if i == j {
                    C64::from_real(r.next())
                } else {
                    C64::new(r.next(), r.next())
                };
                a[i + j * n] = v;
                a[j + i * n] = v.conj();
            }
        }
        a
    }

    fn rand_sym_real(n: usize, seed: u64) -> Vec<f64> {
        let mut r = Rng(seed);
        let mut a = vec![0.0; n * n];
        for j in 0..n {
            for i in 0..=j {
                let v = r.next();
                a[i + j * n] = v;
                a[j + i * n] = v;
            }
        }
        a
    }

    /// ‖A·Z − Z·diag(w)‖ / (‖A‖·n·eps) — the LAPACK-style residual.
    fn eig_residual(n: usize, a: &[C64], z: &[C64], w: &[f64]) -> f64 {
        let mut az = vec![C64::zero(); n * n];
        gemm(
            Trans::No,
            Trans::No,
            n,
            n,
            n,
            C64::one(),
            a,
            n,
            z,
            n,
            C64::zero(),
            &mut az,
            n,
        );
        let mut worst: f64 = 0.0;
        for j in 0..n {
            for i in 0..n {
                let want = z[i + j * n].scale(w[j]);
                worst = worst.max((az[i + j * n] - want).abs());
            }
        }
        let anorm = crate::aux::lange(Norm::One, n, n, a, n).max(1.0);
        worst / (anorm * n as f64 * f64::EPSILON)
    }

    #[test]
    fn sytrd_preserves_eigen_structure() {
        // Qᴴ A Q = T: verify Q T Qᴴ = A.
        let n = 8;
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let a0 = rand_herm(n, 3);
            let mut f = a0.clone();
            let mut d = vec![0.0; n];
            let mut e = vec![0.0; n - 1];
            let mut tau = vec![C64::zero(); n - 1];
            sytrd(uplo, n, &mut f, n, &mut d, &mut e, &mut tau);
            let mut q = f.clone();
            orgtr(uplo, n, &mut q, n, &tau);
            // T as dense.
            let mut t = vec![C64::zero(); n * n];
            for i in 0..n {
                t[i + i * n] = C64::from_real(d[i]);
                if i + 1 < n {
                    t[i + 1 + i * n] = C64::from_real(e[i]);
                    t[i + (i + 1) * n] = C64::from_real(e[i]);
                }
            }
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
                &t,
                n,
                C64::zero(),
                &mut qt,
                n,
            );
            let mut qtqh = vec![C64::zero(); n * n];
            gemm(
                Trans::No,
                Trans::ConjTrans,
                n,
                n,
                n,
                C64::one(),
                &qt,
                n,
                &q,
                n,
                C64::zero(),
                &mut qtqh,
                n,
            );
            for k in 0..n * n {
                assert!(
                    (qtqh[k] - a0[k]).abs() < 1e-12 * n as f64,
                    "{uplo:?}: QTQᴴ≠A at {k}: {} vs {}",
                    qtqh[k],
                    a0[k]
                );
            }
        }
    }

    #[test]
    fn steqr_diagonalizes_known_matrix() {
        // T = tridiag(-1, 2, -1): eigenvalues 2 - 2cos(kπ/(n+1)).
        let n = 12;
        let mut d = vec![2.0f64; n];
        let mut e = vec![-1.0f64; n - 1];
        let mut z = vec![0.0f64; n * n];
        for i in 0..n {
            z[i + i * n] = 1.0;
        }
        assert_eq!(steqr::<f64>(n, &mut d, &mut e, Some((&mut z, n))), 0);
        for k in 0..n {
            let want = 2.0 - 2.0 * (std::f64::consts::PI * (k + 1) as f64 / (n as f64 + 1.0)).cos();
            assert!(
                (d[k] - want).abs() < 1e-12,
                "λ_{k} = {} want {}",
                d[k],
                want
            );
        }
        // Z orthogonal.
        let mut ztz = vec![0.0f64; n * n];
        gemm(
            Trans::Trans,
            Trans::No,
            n,
            n,
            n,
            1.0,
            &z,
            n,
            &z,
            n,
            0.0,
            &mut ztz,
            n,
        );
        for j in 0..n {
            for i in 0..n {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((ztz[i + j * n] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn syev_full_decomposition_complex() {
        let n = 10;
        let a0 = rand_herm(n, 7);
        let mut a = a0.clone();
        let mut w = vec![0.0; n];
        assert_eq!(syev(true, Uplo::Lower, n, &mut a, n, &mut w), 0);
        // Ascending.
        for i in 1..n {
            assert!(w[i] >= w[i - 1]);
        }
        let r = eig_residual(n, &a0, &a, &w);
        assert!(r < 50.0, "residual ratio = {r}");
    }

    #[test]
    fn syev_real_upper_values_match_lower() {
        let n = 9;
        let a0 = rand_sym_real(n, 11);
        let mut w1 = vec![0.0; n];
        let mut a1 = a0.clone();
        assert_eq!(syev(false, Uplo::Upper, n, &mut a1, n, &mut w1), 0);
        let mut w2 = vec![0.0; n];
        let mut a2 = a0.clone();
        assert_eq!(syev(true, Uplo::Lower, n, &mut a2, n, &mut w2), 0);
        for i in 0..n {
            assert!((w1[i] - w2[i]).abs() < 1e-11, "{w1:?} vs {w2:?}");
        }
    }

    #[test]
    fn stebz_stein_match_steqr() {
        let n = 15;
        let mut r = Rng(13);
        let d0: Vec<f64> = (0..n).map(|_| r.next() * 3.0).collect();
        let e0: Vec<f64> = (0..n - 1).map(|_| r.next()).collect();
        let mut d = d0.clone();
        let mut e = e0.clone();
        assert_eq!(sterf(n, &mut d, &mut e), 0);
        // All eigenvalues via bisection.
        let w = stebz(EigRange::All, n, &d0, &e0, 0.0);
        assert_eq!(w.len(), n);
        for i in 0..n {
            assert!(
                (w[i] - d[i]).abs() < 1e-9,
                "bisection λ_{i}: {} vs {}",
                w[i],
                d[i]
            );
        }
        // Index range.
        let w3 = stebz(EigRange::Index(2, 4), n, &d0, &e0, 0.0);
        assert_eq!(w3.len(), 3);
        for (k, &v) in w3.iter().enumerate() {
            assert!((v - d[k + 1]).abs() < 1e-9);
        }
        // Value range.
        let (vl, vu) = (d[2] + 1e-7, d[6] + 1e-7);
        let wv = stebz(EigRange::Value(vl, vu), n, &d0, &e0, 0.0);
        assert_eq!(wv.len(), 4, "{wv:?}");
        // Eigenvectors by inverse iteration.
        let z = stein(n, &d0, &e0, &w);
        for (j, &lam) in w.iter().enumerate() {
            // ‖T v − λ v‖ small.
            let v = &z[j * n..j * n + n];
            let mut res: f64 = 0.0;
            for i in 0..n {
                let mut tv = d0[i] * v[i];
                if i > 0 {
                    tv += e0[i - 1] * v[i - 1];
                }
                if i + 1 < n {
                    tv += e0[i] * v[i + 1];
                }
                res = res.max((tv - lam * v[i]).abs());
            }
            assert!(res < 1e-8, "stein residual λ_{j} = {res}");
        }
    }

    #[test]
    fn syevx_selected_with_vectors() {
        let n = 12;
        let a0 = rand_herm(n, 21);
        // Reference.
        let mut aref = a0.clone();
        let mut wref = vec![0.0; n];
        syev(false, Uplo::Lower, n, &mut aref, n, &mut wref);
        // Selected indices 3..=6.
        let mut a = a0.clone();
        let (w, z) = syevx(true, EigRange::Index(3, 6), Uplo::Lower, n, &mut a, n, 0.0);
        assert_eq!(w.len(), 4);
        for k in 0..4 {
            assert!((w[k] - wref[k + 2]).abs() < 1e-9);
        }
        // Residual for each vector.
        for (j, &lam) in w.iter().enumerate() {
            let v = &z[j * n..j * n + n];
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
            let mut res: f64 = 0.0;
            for i in 0..n {
                res = res.max((av[i] - v[i].scale(lam)).abs());
            }
            assert!(res < 1e-7, "syevx residual λ_{j} = {res}");
        }
    }

    #[test]
    fn spev_matches_syev() {
        let n = 9;
        let a0 = rand_herm(n, 33);
        let mut aref = a0.clone();
        let mut wref = vec![0.0; n];
        syev(false, Uplo::Upper, n, &mut aref, n, &mut wref);
        for uplo in [Uplo::Upper, Uplo::Lower] {
            // Pack.
            let mut ap = vec![C64::zero(); n * (n + 1) / 2];
            let mut k = 0;
            match uplo {
                Uplo::Upper => {
                    for j in 0..n {
                        for i in 0..=j {
                            ap[k] = a0[i + j * n];
                            k += 1;
                        }
                    }
                }
                Uplo::Lower => {
                    for j in 0..n {
                        for i in j..n {
                            ap[k] = a0[i + j * n];
                            k += 1;
                        }
                    }
                }
            }
            let mut w = vec![0.0; n];
            let mut z = vec![C64::zero(); n * n];
            assert_eq!(spev(true, uplo, n, &mut ap, &mut w, Some((&mut z, n))), 0);
            for i in 0..n {
                assert!((w[i] - wref[i]).abs() < 1e-10, "{uplo:?}");
            }
            let r = eig_residual(n, &a0, &z, &w);
            assert!(r < 50.0, "{uplo:?} residual = {r}");
        }
    }

    #[test]
    fn sbev_matches_dense() {
        let n = 14;
        let kd = 2;
        let mut r = Rng(44);
        // Hermitian band.
        let mut a0 = vec![C64::zero(); n * n];
        for j in 0..n {
            for i in j.saturating_sub(kd)..=j {
                let v = if i == j {
                    C64::from_real(r.next())
                } else {
                    C64::new(r.next(), r.next())
                };
                a0[i + j * n] = v;
                a0[j + i * n] = v.conj();
            }
        }
        let mut aref = a0.clone();
        let mut wref = vec![0.0; n];
        syev(false, Uplo::Upper, n, &mut aref, n, &mut wref);
        let ldab = kd + 1;
        let mut ab = vec![C64::zero(); ldab * n];
        for j in 0..n {
            for i in j.saturating_sub(kd)..=j {
                ab[kd + i - j + j * ldab] = a0[i + j * n];
            }
        }
        let mut w = vec![0.0; n];
        let mut z = vec![C64::zero(); n * n];
        assert_eq!(
            sbev(
                true,
                Uplo::Upper,
                n,
                kd,
                &ab,
                ldab,
                &mut w,
                Some((&mut z, n))
            ),
            0
        );
        for i in 0..n {
            assert!((w[i] - wref[i]).abs() < 1e-10);
        }
        let res = eig_residual(n, &a0, &z, &w);
        assert!(res < 50.0, "residual = {res}");
    }

    #[test]
    fn stev_identity_z() {
        let n = 6;
        let mut d: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut e = vec![0.0f64; n - 1];
        let mut z = vec![0.0f64; n * n];
        assert_eq!(stev(n, &mut d, &mut e, Some((&mut z, n))), 0);
        for i in 0..n {
            assert_eq!(d[i], i as f64);
            assert_eq!(z[i + i * n], 1.0);
        }
    }
}
