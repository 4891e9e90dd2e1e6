//! LU factorization and the general linear-equation drivers:
//! `getf2`, `getrf` (blocked), `getrs`, `getri`, `gecon`, `geequ`,
//! `laqge`, `gerfs`, `gesv`, `gesvx`.
//!
//! All routines keep LAPACK's Fortran calling conventions (dimensions,
//! leading dimensions, 1-based `ipiv`, `info` return) so the `la90` layer
//! can wrap them exactly as the paper's `SGESV_F90` wraps `SGESV`.

use la_blas::{gemm, gemv, iamax, scal, strip_update, trsm, STRIP};
use la_core::{probe, Diag, Norm, RealScalar, Scalar, Side, Trans, Uplo};

use crate::aux::{lacon, lange, laswp, try_zeros, Blocking, INFO_NO_WORKSPACE};

/// Unblocked LU factorization with partial pivoting (`xGETF2`).
///
/// On exit `A = P·L·U` with unit-diagonal `L` below and `U` on/above the
/// diagonal; `ipiv` is 1-based. Returns `info` (LAPACK convention:
/// `> 0` if `U(i,i)` is exactly zero).
///
/// The eliminations reach the columns right of a strip of [`STRIP`] pivots
/// late: inside the strip each pivot updates the strip's remaining columns
/// at once, everything further right receives the whole strip in one pass
/// (`apply_pivots`) instead of one pass per pivot. Every element still
/// sees the same subtractions in the same order as the right-looking
/// rank-1 form, so factors, pivots and `info` are that form's, bit for bit.
pub fn getf2<T: Scalar>(m: usize, n: usize, a: &mut [T], lda: usize, ipiv: &mut [i32]) -> i32 {
    let mut info = 0i32;
    let mn = m.min(n);
    let mut u = [T::zero(); STRIP * TILE_COLS];
    for j0 in (0..mn).step_by(STRIP) {
        let end = (j0 + STRIP).min(mn);
        for j in j0..end {
            // Pivot: largest |.| in column j at or below the diagonal.
            let p = j + iamax(m - j, &a[j + j * lda..], 1);
            ipiv[j] = (p + 1) as i32;
            if !a[p + j * lda].is_zero() {
                if p != j {
                    // Swap full rows j and p.
                    for k in 0..n {
                        a.swap(j + k * lda, p + k * lda);
                    }
                }
                // Scale the multipliers.
                if j + 1 < m {
                    let inv = a[j + j * lda].recip();
                    scal(m - j - 1, inv, &mut a[j + 1 + j * lda..], 1);
                }
            } else if info == 0 {
                info = (j + 1) as i32;
            }
            // Rank-1 update of the strip's remaining columns, in line: three
            // columns at most are too little work for a call.
            if j + 1 < m && j + 1 < end {
                let (head, rest) = a.split_at_mut((j + 1) * lda);
                let l = &head[j + 1 + j * lda..m + j * lda];
                for col in rest.chunks_mut(lda).take(end - j - 1) {
                    let ajk = col[j];
                    if !ajk.is_zero() {
                        for (x, &l) in col[j + 1..m].iter_mut().zip(l) {
                            *x -= l * ajk;
                        }
                    }
                }
            }
        }
        apply_pivots(m, a, lda, j0, end - j0, end..n, &mut u);
    }
    info
}

/// Columns of `U` that [`apply_pivots`] stages at a time.
const TILE_COLS: usize = 32;

/// Applies pivot columns `j0..j0 + d` (`1 ≤ d ≤ STRIP`; factored, their row
/// swaps done) to the columns `cols` right of them: the `d × d` unit-lower
/// solve on the pivots' own rows leaves `U(j0..j0 + d, cols)` there, then
/// the rows below get `x := (…(x − l₀u₀) − …) − l_{d−1}u_{d−1}` in one
/// pass. A zero `u` skips its term, as the rank-1 form skips a zero in the
/// pivot row.
fn apply_pivots<T: Scalar>(
    m: usize,
    a: &mut [T],
    lda: usize,
    j0: usize,
    d: usize,
    cols: std::ops::Range<usize>,
    u: &mut [T; STRIP * TILE_COLS],
) {
    if cols.is_empty() {
        return;
    }
    // The pivot columns and `cols` borrow disjointly: `cols` starts `tail`.
    let (head, tail) = a.split_at_mut(cols.start * lda);
    for c0 in (0..cols.len()).step_by(TILE_COLS) {
        let nc = TILE_COLS.min(cols.len() - c0);
        for (c, uc) in u.chunks_exact_mut(STRIP).take(nc).enumerate() {
            let col = &mut tail[j0 + (c0 + c) * lda..][..d];
            for r in 0..d {
                uc[r] = col[r];
                if !col[r].is_zero() {
                    let l = &head[j0 + (j0 + r) * lda..][..d];
                    for s in r + 1..d {
                        col[s] -= l[s] * uc[r];
                    }
                }
            }
        }
        let below = j0 + d;
        if below < m {
            let (l, c) = (&head[below + j0 * lda..], &mut tail[below + c0 * lda..]);
            strip_update(m - below, nc, d, l, lda, &u[..], STRIP, c, lda);
        }
    }
}

/// Blocked right-looking LU factorization with partial pivoting
/// (`xGETRF`). Same contract as [`getf2`].
///
/// When the ABFT policy (`la_core::abft`) is enabled and the problem is
/// at or above the parallel-flop threshold, the factors are verified
/// against the row-sum identity `L·(U·e) = P·(A·e)` on exit; a mismatch
/// is recovered by a serial re-run from a snapshot or surfaced as a
/// pending soft fault, per policy.
pub fn getrf<T: Scalar>(m: usize, n: usize, a: &mut [T], lda: usize, ipiv: &mut [i32]) -> i32 {
    let _probe = probe::span(
        probe::Layer::Lapack,
        "getrf",
        probe::flops::getrf(m, n),
        (2 * m * n * std::mem::size_of::<T>()) as u64,
    );
    let mn = m.min(n);
    if mn == 0 {
        return 0;
    }
    // One decision for the core, the recovery re-run and the ABFT block
    // labels.
    let how = Blocking::of("getrf", mn);
    probe::note_nb(how.nb);
    let check = crate::abft::active(crate::abft::flop3(m, n, mn))
        .map(|pol| crate::abft::getrf_encode(pol, m, n, a, lda));
    // The factor-level identity covers every inner BLAS-3 update, so
    // nested per-block checksums would only stack an O(n³/nb) tax on
    // top; run the core with ABFT off whenever the factor check is on.
    let info = if check.is_some() {
        la_core::abft::with_policy(la_core::abft::AbftPolicy::Off, || {
            getrf_core(m, n, a, lda, ipiv, how)
        })
    } else {
        getrf_core(m, n, a, lda, ipiv, how)
    };
    // A cancelled factorization left the buffers partially updated and one
    // without workspace never started; there is nothing meaningful to
    // verify (or corrupt), so surface the code as-is.
    if info == la_core::cancel::INFO_CANCELLED || info == INFO_NO_WORKSPACE {
        return info;
    }
    #[cfg(feature = "fault-inject")]
    crate::abft::inject_factor("getrf", mn, how.nb, a, lda);
    match check {
        None => info,
        Some(ck) => crate::abft::getrf_verify(ck, m, n, a, lda, ipiv, info, how.nb, |a, ipiv| {
            let serial = la_core::TuneConfig {
                max_threads: 1,
                ..la_core::tune::current()
            };
            la_core::tune::with(serial, || {
                la_core::abft::with_policy(la_core::abft::AbftPolicy::Off, || {
                    getrf_core(m, n, a, lda, ipiv, how)
                })
            })
        }),
    }
}

/// The factorization proper, shared by the public entry, the ABFT
/// recovery re-run, and the tiled-dag panel tasks; `how` is the caller's
/// [`Blocking::of`]`("getrf", min(m, n))`.
pub(crate) fn getrf_core<T: Scalar>(
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    ipiv: &mut [i32],
    how: Blocking,
) -> i32 {
    let mn = m.min(n);
    // LA_FACTOR=dag: hand problems spanning more than one tile to the
    // task-graph runtime (same factors, pivots and info codes).
    let cfg = la_core::tune::current();
    if cfg.factor == la_core::tune::FactorAlgo::Dag && mn > cfg.tile_size() {
        return crate::tiled::getrf_dag(m, n, a, lda, ipiv);
    }
    if !how.blocked {
        return getf2(m, n, a, lda, ipiv);
    }
    let nb = how.nb;
    let mut info = 0i32;
    // Holds each step's copy of U12; step 0 has the largest.
    let Some(mut u12) = try_zeros::<T>(nb * (n - nb)) else {
        return INFO_NO_WORKSPACE;
    };
    let mut j = 0;
    while j < mn {
        // Cooperative cancellation checkpoint: one cheap thread-local
        // read per panel step, so a deadline lands within one panel's
        // O(n²·nb) of work instead of after the whole O(n³).
        if la_core::cancel::cancelled() {
            return la_core::cancel::INFO_CANCELLED;
        }
        let jb = nb.min(mn - j);
        // Factor the panel A(j:m, j:j+jb).
        let panel_info = {
            let panel = &mut a[j + j * lda..];
            getf2(m - j, jb, panel, lda, &mut ipiv[j..j + jb])
        };
        if panel_info > 0 && info == 0 {
            info = panel_info + j as i32;
        }
        // Adjust pivot indices to the global row numbering.
        for k in j..j + jb {
            ipiv[k] += j as i32;
        }
        // Apply interchanges to the columns left of the panel...
        laswp(j, a, lda, j, j + jb, ipiv);
        if j + jb < n {
            // ...and to the right of it.
            let right = &mut a[(j + jb) * lda..];
            laswp(n - j - jb, right, lda, j, j + jb, ipiv);
            // U block row: solve L11 * U12 = A12.
            {
                let (left, right) = a.split_at_mut((j + jb) * lda);
                let l11 = &left[j + j * lda..];
                trsm(
                    Side::Left,
                    Uplo::Lower,
                    Trans::No,
                    Diag::Unit,
                    jb,
                    n - j - jb,
                    T::one(),
                    l11,
                    lda,
                    &mut right[j..],
                    lda,
                );
            }
            // Trailing update: A22 -= L21 * U12.
            if j + jb < m {
                let (left, right) = a.split_at_mut((j + jb) * lda);
                let l21 = &left[j + jb + j * lda..];
                let ld = lda;
                // U12 (rows j..j+jb of `right`) and A22 (rows j+jb..)
                // interleave column by column in the one buffer, so gemm
                // reads U12 from a copy.
                let ncols = n - j - jb;
                let u12 = &mut u12[..jb * ncols];
                for (c, dst) in u12.chunks_exact_mut(jb).enumerate() {
                    dst.copy_from_slice(&right[j + c * ld..j + c * ld + jb]);
                }
                gemm(
                    Trans::No,
                    Trans::No,
                    m - j - jb,
                    ncols,
                    jb,
                    -T::one(),
                    l21,
                    ld,
                    u12,
                    jb,
                    T::one(),
                    &mut right[j + jb..],
                    ld,
                );
            }
        }
        j += jb;
    }
    info
}

/// Solves `op(A)·X = B` using the LU factorization from [`getrf`]
/// (`xGETRS`).
pub fn getrs<T: Scalar>(
    trans: Trans,
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    ipiv: &[i32],
    b: &mut [T],
    ldb: usize,
) -> i32 {
    let _probe = probe::span(
        probe::Layer::Lapack,
        "getrs",
        probe::flops::getrs(n, nrhs),
        ((n * n + 2 * n * nrhs) * std::mem::size_of::<T>()) as u64,
    );
    if n == 0 || nrhs == 0 {
        return 0;
    }
    match trans {
        Trans::No => {
            // B := P B; L y = B; U x = y.
            laswp(nrhs, b, ldb, 0, n, ipiv);
            trsm(
                Side::Left,
                Uplo::Lower,
                Trans::No,
                Diag::Unit,
                n,
                nrhs,
                T::one(),
                a,
                lda,
                b,
                ldb,
            );
            trsm(
                Side::Left,
                Uplo::Upper,
                Trans::No,
                Diag::NonUnit,
                n,
                nrhs,
                T::one(),
                a,
                lda,
                b,
                ldb,
            );
        }
        _ => {
            // op(A) = Aᵀ or Aᴴ: Uᵀ y = B; Lᵀ x = y; B := Pᵀ x.
            trsm(
                Side::Left,
                Uplo::Upper,
                trans,
                Diag::NonUnit,
                n,
                nrhs,
                T::one(),
                a,
                lda,
                b,
                ldb,
            );
            trsm(
                Side::Left,
                Uplo::Lower,
                trans,
                Diag::Unit,
                n,
                nrhs,
                T::one(),
                a,
                lda,
                b,
                ldb,
            );
            crate::aux::laswp_rev(nrhs, b, ldb, 0, n, ipiv);
        }
    }
    0
}

/// Computes the inverse from the LU factorization (`xGETRI`).
pub fn getri<T: Scalar>(n: usize, a: &mut [T], lda: usize, ipiv: &[i32]) -> i32 {
    let _probe = probe::span(
        probe::Layer::Lapack,
        "getri",
        probe::flops::getri(n),
        (2 * n * n * std::mem::size_of::<T>()) as u64,
    );
    // Check for singular U first, as LAPACK does.
    for i in 0..n {
        if a[i + i * lda].is_zero() {
            return (i + 1) as i32;
        }
    }
    if n == 0 {
        return 0;
    }
    // Invert U in place.
    for j in 0..n {
        let ajj = a[j + j * lda].recip();
        a[j + j * lda] = ajj;
        if j > 0 {
            // Column j of inv(U): solve with the already-inverted leading
            // block: a(0..j, j) := -ajj * U(0..j,0..j)^{-1} a(0..j, j).
            // Since U(0..j,0..j) has already been inverted, multiply.
            let (head, tail) = a.split_at_mut(j * lda);
            let col = &mut tail[..j];
            la_blas::trmv(Uplo::Upper, Trans::No, Diag::NonUnit, j, head, lda, col, 1);
            scal(j, -ajj, col, 1);
        }
    }
    // Solve inv(A)·L = inv(U): sweep columns right-to-left.
    let mut work = vec![T::zero(); n];
    for j in (0..n).rev() {
        // Save the subdiagonal of L column j and zero it.
        for i in j + 1..n {
            work[i] = a[i + j * lda];
            a[i + j * lda] = T::zero();
        }
        if j + 1 < n {
            // a(:, j) -= A(:, j+1..n) * work(j+1..n)
            let ncols = n - j - 1;
            let mut upd = vec![T::zero(); n];
            gemv(
                Trans::No,
                n,
                ncols,
                T::one(),
                &a[(j + 1) * lda..],
                lda,
                &work[j + 1..],
                1,
                T::zero(),
                &mut upd,
                1,
            );
            for i in 0..n {
                let u = upd[i];
                a[i + j * lda] -= u;
            }
        }
    }
    // Apply column interchanges: columns j and ipiv(j) swapped, j from
    // right to left.
    for j in (0..n).rev() {
        let p = (ipiv[j] - 1) as usize;
        if p != j {
            for i in 0..n {
                a.swap(i + j * lda, i + p * lda);
            }
        }
    }
    0
}

/// Estimates the reciprocal condition number from the LU factorization
/// (`xGECON`). `anorm` is the norm of the *original* matrix in the chosen
/// norm (`One` or `Inf`).
pub fn gecon<T: Scalar>(
    norm: Norm,
    n: usize,
    a: &[T],
    lda: usize,
    ipiv: &[i32],
    anorm: T::Real,
) -> T::Real {
    if n == 0 {
        return T::Real::one();
    }
    if anorm.is_zero() {
        return T::Real::zero();
    }
    // Estimate ||A^{-1}|| in the requested norm with Higham's estimator.
    // For the ∞-norm, estimate the 1-norm of A^{-H} instead.
    let want_inf = norm == Norm::Inf;
    let ainvnm = lacon::<T>(n, |x, conj_t| {
        let solve_trans = conj_t != want_inf;
        let tr = if solve_trans {
            Trans::ConjTrans
        } else {
            Trans::No
        };
        getrs(tr, n, 1, a, lda, ipiv, x, n.max(1));
    });
    if ainvnm.is_zero() {
        T::Real::zero()
    } else {
        (T::Real::one() / ainvnm) / anorm
    }
}

/// How a system was equilibrated (`EQUED` of the expert drivers).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Equed {
    /// No equilibration.
    #[default]
    None,
    /// Row scaling only.
    Row,
    /// Column scaling only.
    Col,
    /// Both row and column scaling.
    Both,
}

/// Computes row and column scalings to equilibrate a matrix (`xGEEQU`).
///
/// Returns `(rowcnd, colcnd, amax, info)`; `r`/`c` receive the scale
/// factors.
pub fn geequ<T: Scalar>(
    m: usize,
    n: usize,
    a: &[T],
    lda: usize,
    r: &mut [T::Real],
    c: &mut [T::Real],
) -> (T::Real, T::Real, T::Real, i32) {
    let one = T::Real::one();
    let zero = T::Real::zero();
    if m == 0 || n == 0 {
        return (one, one, zero, 0);
    }
    let smlnum = T::Real::sfmin();
    let bignum = one / smlnum;
    // Row scale factors: 1 / max_j |a_ij|.
    for ri in r.iter_mut().take(m) {
        *ri = zero;
    }
    for j in 0..n {
        for i in 0..m {
            r[i] = r[i].maxr(a[i + j * lda].abs());
        }
    }
    let mut rcmin = bignum;
    let mut rcmax = zero;
    for &ri in r.iter().take(m) {
        rcmax = rcmax.maxr(ri);
        rcmin = rcmin.minr(ri);
    }
    let amax = rcmax;
    if rcmin.is_zero() {
        let bad = r.iter().take(m).position(|x| x.is_zero()).unwrap();
        return (zero, zero, amax, (bad + 1) as i32);
    }
    for ri in r.iter_mut().take(m) {
        *ri = one / (*ri).minr(bignum).maxr(smlnum);
    }
    let rowcnd = rcmin.maxr(smlnum).minr(bignum) / rcmax.minr(bignum).maxr(smlnum);
    // Column scale factors on the row-scaled matrix.
    for cj in c.iter_mut().take(n) {
        *cj = zero;
    }
    for j in 0..n {
        for i in 0..m {
            c[j] = c[j].maxr(a[i + j * lda].abs() * r[i]);
        }
    }
    let mut ccmin = bignum;
    let mut ccmax = zero;
    for &cj in c.iter().take(n) {
        ccmax = ccmax.maxr(cj);
        ccmin = ccmin.minr(cj);
    }
    if ccmin.is_zero() {
        let bad = c.iter().take(n).position(|x| x.is_zero()).unwrap();
        return (rowcnd, zero, amax, (m + bad + 1) as i32);
    }
    for cj in c.iter_mut().take(n) {
        *cj = one / (*cj).minr(bignum).maxr(smlnum);
    }
    let colcnd = ccmin.maxr(smlnum).minr(bignum) / ccmax.minr(bignum).maxr(smlnum);
    (rowcnd, colcnd, amax, 0)
}

/// Applies equilibration scalings to `A` when worthwhile (`xLAQGE`);
/// returns how the matrix was actually scaled.
pub fn laqge<T: Scalar>(
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    r: &[T::Real],
    c: &[T::Real],
    rowcnd: T::Real,
    colcnd: T::Real,
    amax: T::Real,
) -> Equed {
    let thresh = T::Real::from_f64(0.1);
    let small = T::Real::sfmin() / T::Real::EPS;
    let large = T::Real::one() / small;
    let row_bad = rowcnd < thresh || amax < small || amax > large;
    let col_bad = colcnd < thresh;
    match (row_bad, col_bad) {
        (false, false) => Equed::None,
        (false, true) => {
            for j in 0..n {
                for i in 0..m {
                    a[i + j * lda] = a[i + j * lda].mul_real(c[j]);
                }
            }
            Equed::Col
        }
        (true, false) => {
            for j in 0..n {
                for i in 0..m {
                    a[i + j * lda] = a[i + j * lda].mul_real(r[i]);
                }
            }
            Equed::Row
        }
        (true, true) => {
            for j in 0..n {
                for i in 0..m {
                    a[i + j * lda] = a[i + j * lda].mul_real(r[i] * c[j]);
                }
            }
            Equed::Both
        }
    }
}

/// Shared iterative-refinement + error-bound engine used by all the
/// `*RFS` routines. `matvec(trans, x, y)` computes `y := op(A)·x`,
/// `absmv(x, y)` computes `y := |A|·x`, `solve(trans, rhs)` solves with
/// the factored matrix in place. Exposed so higher layers can assemble
/// refinement for storage formats without a dedicated `xRFS` routine.
#[allow(clippy::too_many_arguments)]
pub fn refine_generic<T: Scalar>(
    n: usize,
    nrhs: usize,
    matvec: &dyn Fn(bool, &[T], &mut [T]),
    absmv: &dyn Fn(&[T::Real], &mut [T::Real]),
    solve: &dyn Fn(bool, &mut [T]),
    b: &[T],
    ldb: usize,
    x: &mut [T],
    ldx: usize,
    ferr: &mut [T::Real],
    berr: &mut [T::Real],
) {
    let eps = T::Real::EPS;
    let safmin = T::Real::sfmin();
    let safe1 = T::Real::from_usize(n + 1) * safmin;
    let itmax = 5;
    let mut r = vec![T::zero(); n];
    let mut xabs = vec![T::Real::zero(); n];
    let mut s = vec![T::Real::zero(); n];
    for j in 0..nrhs {
        let bj = &b[j * ldb..j * ldb + n];
        let mut lstres = T::Real::from_f64(3.0);
        let mut berr_j;
        let mut iter = 0;
        loop {
            // r := b - A x
            let xj = &x[j * ldx..j * ldx + n];
            matvec(false, xj, &mut r);
            for i in 0..n {
                r[i] = bj[i] - r[i];
            }
            // s := |A| |x| + |b|
            for i in 0..n {
                xabs[i] = xj[i].abs();
            }
            absmv(&xabs, &mut s);
            for i in 0..n {
                s[i] += bj[i].abs();
            }
            // Componentwise backward error.
            berr_j = T::Real::zero();
            for i in 0..n {
                let denom = if s[i] > safe1 { s[i] } else { s[i] + safe1 };
                berr_j = berr_j.maxr(r[i].abs() / denom);
            }
            // Keep iterating only while the backward error keeps halving
            // (LAPACK's progress test; `>=` rather than `!(<)` so NaN stops
            // the loop too).
            if berr_j <= eps || iter >= itmax || berr_j >= lstres.div_real_half() {
                break;
            }
            lstres = berr_j;
            iter += 1;
            // Solve A dx = r; x += dx.
            solve(false, &mut r);
            let xj = &mut x[j * ldx..j * ldx + n];
            for i in 0..n {
                let d = r[i];
                xj[i] += d;
            }
        }
        berr[j] = berr_j;

        // Forward error bound: || |A^{-1}| ( |r| + (n+1) eps (|A||x|+|b|) ) ||
        // estimated via Higham's estimator on A^{-1}·diag(w).
        let xj = &x[j * ldx..j * ldx + n];
        matvec(false, xj, &mut r);
        for i in 0..n {
            r[i] = bj[i] - r[i];
        }
        for i in 0..n {
            xabs[i] = xj[i].abs();
        }
        absmv(&xabs, &mut s);
        let nz = T::Real::from_usize(n + 1);
        let mut w = vec![T::Real::zero(); n];
        for i in 0..n {
            let si = s[i] + bj[i].abs();
            w[i] = r[i].abs() + nz * eps * si + if si > safe1 { T::Real::zero() } else { safe1 };
        }
        let est = lacon::<T>(n, |v, conj_t| {
            if conj_t {
                // v := (A^{-1} diag(w))^H v = diag(w) A^{-H} v
                solve(true, v);
                for i in 0..n {
                    v[i] = v[i].mul_real(w[i]);
                }
            } else {
                // v := A^{-1} (diag(w) v)
                for i in 0..n {
                    v[i] = v[i].mul_real(w[i]);
                }
                solve(false, v);
            }
        });
        let xnorm = xj.iter().fold(T::Real::zero(), |m, v| m.maxr(v.abs()));
        ferr[j] = if xnorm > T::Real::zero() {
            (est / xnorm).minr(T::Real::one())
        } else {
            T::Real::zero()
        };
    }
}

/// Helper: `x/2` for real scalars without importing literals everywhere.
trait Half {
    fn div_real_half(self) -> Self;
}
impl<R: RealScalar> Half for R {
    fn div_real_half(self) -> Self {
        self / (R::one() + R::one())
    }
}

/// Improves the solution of `A·X = B` by iterative refinement and returns
/// forward/backward error bounds (`xGERFS`).
#[allow(clippy::too_many_arguments)]
pub fn gerfs<T: Scalar>(
    trans: Trans,
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    af: &[T],
    ldaf: usize,
    ipiv: &[i32],
    b: &[T],
    ldb: usize,
    x: &mut [T],
    ldx: usize,
    ferr: &mut [T::Real],
    berr: &mut [T::Real],
) -> i32 {
    let matvec = |conj_t: bool, v: &[T], y: &mut [T]| {
        let tr = match (trans, conj_t) {
            (Trans::No, false) => Trans::No,
            (Trans::No, true) => Trans::ConjTrans,
            (t, false) => t,
            (_, true) => Trans::No,
        };
        y.fill(T::zero());
        gemv(tr, n, n, T::one(), a, lda, v, 1, T::zero(), y, 1);
    };
    let absmv = |v: &[T::Real], y: &mut [T::Real]| {
        for yi in y.iter_mut() {
            *yi = T::Real::zero();
        }
        // |op(A)| has the same row sums pattern as op(|A|).
        for j in 0..n {
            for i in 0..n {
                let aij = if trans == Trans::No {
                    a[i + j * lda].abs()
                } else {
                    a[j + i * lda].abs()
                };
                y[i] += aij * v[j];
            }
        }
    };
    let solve = |conj_t: bool, rhs: &mut [T]| {
        let tr = match (trans, conj_t) {
            (Trans::No, false) => Trans::No,
            (Trans::No, true) => Trans::ConjTrans,
            (t, false) => t,
            (_, true) => Trans::No,
        };
        getrs(tr, n, 1, af, ldaf, ipiv, rhs, n.max(1));
    };
    refine_generic(n, nrhs, &matvec, &absmv, &solve, b, ldb, x, ldx, ferr, berr);
    0
}

/// Simple driver: solves `A·X = B` by LU with partial pivoting (`xGESV`).
/// `A` is overwritten by its factors, `B` by the solution.
pub fn gesv<T: Scalar>(
    n: usize,
    nrhs: usize,
    a: &mut [T],
    lda: usize,
    ipiv: &mut [i32],
    b: &mut [T],
    ldb: usize,
) -> i32 {
    let info = getrf(n, n, a, lda, ipiv);
    if info != 0 {
        return info;
    }
    getrs(Trans::No, n, nrhs, a, lda, ipiv, b, ldb)
}

/// Factorization mode of the expert drivers (`FACT`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Fact {
    /// Factor the matrix (`'N'`).
    #[default]
    NotFactored,
    /// `AF`/`ipiv` already contain the factorization (`'F'`).
    Factored,
    /// Equilibrate, then factor (`'E'`).
    Equilibrate,
}

/// Outputs of [`gesvx`].
#[derive(Clone, Debug, Default)]
pub struct SvxResult<R> {
    /// Reciprocal condition number estimate of the (equilibrated) matrix.
    pub rcond: R,
    /// Forward error bound per right-hand side.
    pub ferr: Vec<R>,
    /// Componentwise backward error per right-hand side.
    pub berr: Vec<R>,
    /// Reciprocal pivot growth factor (`RPVGRW`).
    pub rpvgrw: R,
    /// How the system was equilibrated.
    pub equed: Equed,
}

/// Expert driver for general systems (`xGESVX`): optional equilibration,
/// LU factorization, solution, iterative refinement, condition estimate
/// and error bounds.
///
/// `a` is the input matrix (overwritten by the equilibrated matrix when
/// equilibration is applied); `af`/`ipiv` receive (or provide, with
/// [`Fact::Factored`]) the factorization; `x` receives the solution.
/// Returns `(info, SvxResult)`.
#[allow(clippy::too_many_arguments)]
pub fn gesvx<T: Scalar>(
    fact: Fact,
    trans: Trans,
    n: usize,
    nrhs: usize,
    a: &mut [T],
    lda: usize,
    af: &mut [T],
    ldaf: usize,
    ipiv: &mut [i32],
    r: &mut [T::Real],
    c: &mut [T::Real],
    b: &mut [T],
    ldb: usize,
    x: &mut [T],
    ldx: usize,
) -> (i32, SvxResult<T::Real>) {
    let mut out = SvxResult {
        rcond: T::Real::zero(),
        ferr: vec![T::Real::zero(); nrhs],
        berr: vec![T::Real::zero(); nrhs],
        rpvgrw: T::Real::zero(),
        equed: Equed::None,
    };
    // Equilibrate if requested.
    if fact == Fact::Equilibrate {
        let (rowcnd, colcnd, amax, ieq) = geequ(n, n, a, lda, r, c);
        if ieq == 0 {
            out.equed = laqge(n, n, a, lda, r, c, rowcnd, colcnd, amax);
        }
    }
    let row_scaled = matches!(out.equed, Equed::Row | Equed::Both);
    let col_scaled = matches!(out.equed, Equed::Col | Equed::Both);
    // Scale the right-hand sides.
    for j in 0..nrhs {
        let col = &mut b[j * ldb..j * ldb + n];
        if trans == Trans::No {
            if row_scaled {
                for (i, v) in col.iter_mut().enumerate() {
                    *v = v.mul_real(r[i]);
                }
            }
        } else if col_scaled {
            for (i, v) in col.iter_mut().enumerate() {
                *v = v.mul_real(c[i]);
            }
        }
    }
    // Factor (unless supplied).
    if fact != Fact::Factored {
        crate::aux::lacpy(None, n, n, a, lda, af, ldaf);
        let info = getrf(n, n, af, ldaf, ipiv);
        if info > 0 {
            // Singular: compute pivot growth on the leading part, return.
            out.rpvgrw = rpvgrw(n, info as usize, a, lda, af, ldaf);
            return (info, out);
        }
    }
    out.rpvgrw = rpvgrw(n, n, a, lda, af, ldaf);
    // Condition estimate in the appropriate norm.
    let norm = if trans == Trans::No {
        Norm::One
    } else {
        Norm::Inf
    };
    let anorm = lange(norm, n, n, a, lda);
    out.rcond = gecon(norm, n, af, ldaf, ipiv, anorm);
    // Solve.
    crate::aux::lacpy(None, n, nrhs, b, ldb, x, ldx);
    getrs(trans, n, nrhs, af, ldaf, ipiv, x, ldx);
    // Refine.
    gerfs(
        trans,
        n,
        nrhs,
        a,
        lda,
        af,
        ldaf,
        ipiv,
        b,
        ldb,
        x,
        ldx,
        &mut out.ferr,
        &mut out.berr,
    );
    // Undo the solution scaling.
    for j in 0..nrhs {
        let col = &mut x[j * ldx..j * ldx + n];
        if trans == Trans::No {
            if col_scaled {
                for (i, v) in col.iter_mut().enumerate() {
                    *v = v.mul_real(c[i]);
                }
            }
        } else if row_scaled {
            for (i, v) in col.iter_mut().enumerate() {
                *v = v.mul_real(r[i]);
            }
        }
    }
    let info = if out.rcond < T::Real::EPS {
        (n + 1) as i32
    } else {
        0
    };
    (info, out)
}

/// Reciprocal pivot growth `max|a_ij| / max|u_ij|` over the leading
/// `k` columns.
fn rpvgrw<T: Scalar>(n: usize, k: usize, a: &[T], lda: usize, af: &[T], ldaf: usize) -> T::Real {
    let amax = lange(Norm::Max, n, k, a, lda);
    let umax = crate::aux::lantr(Norm::Max, Uplo::Upper, Diag::NonUnit, k, k, af, ldaf);
    if umax.is_zero() || amax.is_zero() {
        T::Real::one()
    } else {
        amax / umax
    }
}

/// Solves the triangular system `op(A)·x = scale·b` with scaling to
/// prevent overflow — the `xLATRS` contract in a compact row-oriented
/// form, used where robustness matters more than speed.
///
/// On entry `x` holds `b` (unit stride); on exit it holds the solution of
/// the *scaled* system, and the returned `scale ∈ [0, 1]` is the factor
/// that was applied to the right-hand side. The solve never produces Inf
/// or NaN from finite input, however extreme the scaling of `A` or `b`:
/// whenever an intermediate would pass the overflow threshold, the whole
/// solution vector (and `scale`) is scaled down instead. An exactly
/// singular `A` (a zero diagonal in the `NonUnit` case) returns
/// `scale = 0` with `x` a null vector of `op(A)` scaled to unit entries —
/// the same convention as LAPACK's `xLATRS`.
pub fn latrs_basic<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    n: usize,
    a: &[T],
    lda: usize,
    x: &mut [T],
) -> T::Real {
    let (zero, one) = (T::Real::zero(), T::Real::one());
    let half = T::Real::from_f64(0.5);
    let bignum = T::Real::bignum();
    let mut scale = one;
    if n == 0 {
        return scale;
    }

    // Row-oriented substitution: in solve order, the pivot update is
    // `x_i = (x_i − Σ_k c_{ik}·x_k) / d_i` over the already-solved `k`,
    // with `c_{ik} = op(A)[i,k]` and `d_i = op(A)[i,i]`. Ascending order
    // when the effective (transposed) triangle is lower.
    let fwd = (uplo == Uplo::Lower) == (trans == Trans::No);
    let coef = |i: usize, k: usize| -> T {
        match trans {
            Trans::No => a[i + k * lda],
            Trans::Trans => a[k + i * lda],
            Trans::ConjTrans => a[k + i * lda].conj(),
        }
    };
    let solved = |i: usize| if fwd { 0..i } else { i + 1..n };

    // Growth bound for each dot product: the 1-norm of the off-diagonal
    // coefficient row (`CNORM` in xLATRS).
    let mut cnorm = vec![zero; n];
    for (i, ci) in cnorm.iter_mut().enumerate() {
        let mut s = zero;
        for k in solved(i) {
            s = s + coef(i, k).abs1();
        }
        // A row of near-overflow entries can push the sum itself past the
        // threshold; clamping keeps the guard arithmetic below finite.
        *ci = if s.is_finite() { s } else { T::Real::rmax() };
    }

    let mut xmax = zero;
    for v in x[..n].iter() {
        xmax = xmax.maxr(v.abs1());
    }

    let order: Box<dyn Iterator<Item = usize>> = if fwd {
        Box::new(0..n)
    } else {
        Box::new((0..n).rev())
    };
    for i in order {
        // Keep `xmax` small enough that every product `c_{ik}·x_k` and
        // the running sum `x_i + cnorm_i·xmax` stay below the overflow
        // threshold; scaling the whole vector re-targets the solve to a
        // smaller multiple of `b`, which is exactly the contract.
        let g = cnorm[i].maxr(one);
        let lim = half * bignum / g;
        if xmax > lim {
            let s = lim / xmax; // two divisions: `g * xmax` may overflow
            for v in x[..n].iter_mut() {
                *v = v.mul_real(s);
            }
            scale = scale * s;
            xmax = xmax * s;
        }

        let mut num = x[i];
        for k in solved(i) {
            num = num - coef(i, k) * x[k];
        }

        if diag == Diag::NonUnit {
            let d = if trans == Trans::ConjTrans {
                a[i + i * lda].conj()
            } else {
                a[i + i * lda]
            };
            let tjj = d.abs1();
            if tjj > zero {
                // `abs1` over-estimates a complex modulus by at most 2×;
                // the extra `half` keeps the quotient under `bignum` even
                // at that edge.
                let xj = num.abs1();
                if xj > tjj * bignum * half {
                    let s = tjj * bignum * half / xj;
                    for v in x[..n].iter_mut() {
                        *v = v.mul_real(s);
                    }
                    scale = scale * s;
                    xmax = xmax * s;
                    num = num.mul_real(s);
                }
                x[i] = num / d;
            } else {
                // Singular: restart as a null-vector solve, `scale = 0`.
                for v in x[..n].iter_mut() {
                    *v = T::zero();
                }
                x[i] = T::one();
                scale = zero;
                xmax = one;
                continue;
            }
        } else {
            x[i] = num;
        }
        xmax = xmax.maxr(x[i].abs1());
    }
    scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use la_blas::trsv;
    use la_core::C64;

    fn matvec_dense<T: Scalar>(n: usize, a: &[T], x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); n];
        gemv(Trans::No, n, n, T::one(), a, n, x, 1, T::zero(), &mut y, 1);
        y
    }

    #[test]
    fn getrf_and_getrs_solve_small() {
        // The Appendix E matrix.
        #[rustfmt::skip]
        let a0: Vec<f64> = vec![
            0., 1., 7., 4., 5.,
            2., 0., 6., 6., 9.,
            3., 5., 8., 0., 0.,
            5., 6., 0., 3., 0.,
            4., 6., 5., 9., 8.,
        ];
        let n = 5;
        let mut a = a0.clone();
        let mut ipiv = vec![0i32; n];
        let info = getrf(n, n, &mut a, n, &mut ipiv);
        assert_eq!(info, 0);
        // The paper's Appendix E reports IPIV = (3,5,3,4,5).
        assert_eq!(ipiv, vec![3, 5, 3, 4, 5]);
        // Solve with b = row sums → x = ones.
        let mut b: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| a0[i + j * n]).sum())
            .collect();
        getrs(Trans::No, n, 1, &a, n, &ipiv, &mut b, n);
        for &xi in &b {
            assert!((xi - 1.0).abs() < 1e-12, "x = {b:?}");
        }
    }

    #[test]
    fn getf2_reports_singularity() {
        let mut a = vec![1.0f64, 2.0, 2.0, 4.0]; // rank 1
        let mut ipiv = vec![0i32; 2];
        let info = getf2(2, 2, &mut a, 2, &mut ipiv);
        assert_eq!(info, 2);
    }

    #[test]
    fn blocked_matches_unblocked() {
        // n > crossover so getrf takes the blocked path.
        let n = 200;
        let mut rng = 1u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((rng >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a0: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let mut a1 = a0.clone();
        let mut p1 = vec![0i32; n];
        assert_eq!(getrf(n, n, &mut a1, n, &mut p1), 0);
        let mut a2 = a0.clone();
        let mut p2 = vec![0i32; n];
        assert_eq!(getf2(n, n, &mut a2, n, &mut p2), 0);
        assert_eq!(p1, p2);
        for k in 0..n * n {
            assert!(
                (a1[k] - a2[k]).abs() < 1e-9 * (1.0 + a2[k].abs()),
                "mismatch at {k}: {} vs {}",
                a1[k],
                a2[k]
            );
        }
    }

    #[test]
    fn getri_inverts() {
        let n = 4;
        let a0 = vec![
            4.0f64, 1., 0., 0., 1., 4., 1., 0., 0., 1., 4., 1., 0., 0., 1., 4.,
        ];
        let mut a = a0.clone();
        let mut ipiv = vec![0i32; n];
        assert_eq!(getrf(n, n, &mut a, n, &mut ipiv), 0);
        assert_eq!(getri(n, &mut a, n, &ipiv), 0);
        // A * inv(A) = I.
        let mut prod = vec![0.0f64; n * n];
        gemm(
            Trans::No,
            Trans::No,
            n,
            n,
            n,
            1.0,
            &a0,
            n,
            &a,
            n,
            0.0,
            &mut prod,
            n,
        );
        for j in 0..n {
            for i in 0..n {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((prod[i + j * n] - want).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn complex_solve_roundtrip() {
        let n = 6;
        let mut seed = 9u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a0: Vec<C64> = (0..n * n).map(|_| C64::new(next(), next())).collect();
        let xtrue: Vec<C64> = (0..n).map(|_| C64::new(next(), next())).collect();
        let b = matvec_dense(n, &a0, &xtrue);
        let mut a = a0.clone();
        let mut ipiv = vec![0i32; n];
        let mut x = b.clone();
        assert_eq!(gesv(n, 1, &mut a, n, &mut ipiv, &mut x, n), 0);
        for i in 0..n {
            assert!((x[i] - xtrue[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn gecon_sees_ill_conditioning() {
        // Well conditioned: identity-ish.
        let n = 8;
        let mut a: Vec<f64> = vec![0.0; n * n];
        for i in 0..n {
            a[i + i * n] = 1.0;
        }
        let anorm = lange(Norm::One, n, n, &a, n);
        let mut f = a.clone();
        let mut ipiv = vec![0i32; n];
        getrf(n, n, &mut f, n, &mut ipiv);
        let rc = gecon(Norm::One, n, &f, n, &ipiv, anorm);
        assert!(rc > 0.5, "identity rcond = {rc}");

        // Ill conditioned: Hilbert-like.
        let mut h: Vec<f64> = vec![0.0; n * n];
        for j in 0..n {
            for i in 0..n {
                h[i + j * n] = 1.0 / (i + j + 1) as f64;
            }
        }
        let anorm = lange(Norm::One, n, n, &h, n);
        let mut f = h.clone();
        getrf(n, n, &mut f, n, &mut ipiv);
        let rc = gecon(Norm::One, n, &f, n, &ipiv, anorm);
        assert!(rc < 1e-6, "hilbert rcond = {rc}");
    }

    #[test]
    fn geequ_scales_badly_scaled_matrix() {
        let n = 3;
        // Rows of wildly different magnitude.
        let a = vec![1e-8f64, 1.0, 1e8, 2e-8, 3.0, 2e8, 3e-8, 2.0, 1e8];
        let mut r = vec![0.0; n];
        let mut c = vec![0.0; n];
        let (rowcnd, _colcnd, amax, info) = geequ(n, n, &a, n, &mut r, &mut c);
        assert_eq!(info, 0);
        assert!(rowcnd < 0.1);
        assert!(amax > 1e7);
        // After scaling, every row max should be ~1.
        for i in 0..n {
            let m = (0..n)
                .map(|j| (a[i + j * n] * r[i]).abs())
                .fold(0.0, f64::max);
            assert!((m - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gesvx_full_path() {
        let n = 10;
        let nrhs = 2;
        let mut seed = 77u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a0: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let xtrue: Vec<f64> = (0..n * nrhs).map(|_| next()).collect();
        let mut b = vec![0.0f64; n * nrhs];
        gemm(
            Trans::No,
            Trans::No,
            n,
            nrhs,
            n,
            1.0,
            &a0,
            n,
            &xtrue,
            n,
            0.0,
            &mut b,
            n,
        );

        let mut a = a0.clone();
        let mut af = vec![0.0f64; n * n];
        let mut ipiv = vec![0i32; n];
        let mut r = vec![0.0f64; n];
        let mut c = vec![0.0f64; n];
        let mut x = vec![0.0f64; n * nrhs];
        let (info, res) = gesvx(
            Fact::Equilibrate,
            Trans::No,
            n,
            nrhs,
            &mut a,
            n,
            &mut af,
            n,
            &mut ipiv,
            &mut r,
            &mut c,
            &mut b,
            n,
            &mut x,
            n,
        );
        assert_eq!(info, 0);
        assert!(res.rcond > 0.0 && res.rcond <= 1.0);
        assert!(res.rpvgrw > 0.0);
        for j in 0..nrhs {
            assert!(res.berr[j] <= 1e-13, "berr = {:?}", res.berr);
            assert!(res.ferr[j] < 1e-6, "ferr = {:?}", res.ferr);
        }
        for k in 0..n * nrhs {
            assert!((x[k] - xtrue[k]).abs() < 1e-8);
        }
    }

    // ----- latrs_basic: scaled triangular solves at the extremes -----

    use la_core::C32;

    /// `op(A)[r,c]` as an (re, im) f64 pair, honouring the stored
    /// triangle and the unit diagonal — the reference for residuals.
    fn op_elem<T: Scalar>(
        uplo: Uplo,
        trans: Trans,
        diag: Diag,
        a: &[T],
        lda: usize,
        r: usize,
        c: usize,
    ) -> (f64, f64) {
        let (i, j, conj) = match trans {
            Trans::No => (r, c, false),
            Trans::Trans => (c, r, false),
            Trans::ConjTrans => (c, r, true),
        };
        if i == j && diag == Diag::Unit {
            return (1.0, 0.0);
        }
        let stored = match uplo {
            Uplo::Lower => i >= j,
            Uplo::Upper => i <= j,
        };
        if !stored {
            return (0.0, 0.0);
        }
        let v = a[i + j * lda];
        let im = v.im().to_f64();
        (v.re().to_f64(), if conj { -im } else { im })
    }

    /// Asserts the `xLATRS` contract on one solve: finite output,
    /// `scale ∈ [0, 1]`, and a small componentwise residual of
    /// `op(A)·x − scale·b`, evaluated in f64 so the check itself cannot
    /// overflow on near-`rmax` data.
    fn latrs_contract<T: Scalar>(
        uplo: Uplo,
        trans: Trans,
        diag: Diag,
        n: usize,
        a: &[T],
        lda: usize,
        b: &[T],
        x: &[T],
        scale: T::Real,
        tag: &str,
    ) {
        assert!(
            x[..n].iter().all(|v| v.is_finite()),
            "{tag}: non-finite solution"
        );
        let s = scale.to_f64();
        assert!((0.0..=1.0).contains(&s), "{tag}: scale = {s}");
        let eps = T::Real::EPS.to_f64();
        let rmin = T::Real::rmin().to_f64();
        for i in 0..n {
            let (mut rre, mut rim, mut den) = (0.0f64, 0.0f64, 0.0f64);
            let mut rowmax = 0.0f64;
            for k in 0..n {
                let (cre, cim) = op_elem(uplo, trans, diag, a, lda, i, k);
                let (xre, xim) = (x[k].re().to_f64(), x[k].im().to_f64());
                rre += cre * xre - cim * xim;
                rim += cre * xim + cim * xre;
                den += (cre.abs() + cim.abs()) * (xre.abs() + xim.abs());
                rowmax = rowmax.max(cre.abs() + cim.abs());
            }
            let (bre, bim) = (b[i].re().to_f64(), b[i].im().to_f64());
            rre -= s * bre;
            rim -= s * bim;
            den += s * (bre.abs() + bim.abs());
            let resid = rre.abs() + rim.abs();
            // Row-sum bound with a generous safety factor, plus the
            // subnormal noise floor: solution entries that the rescaling
            // pushes below `rmin` carry an absolute error up to one
            // subnormal ulp (`rmin·eps`) each, amplified by the row's
            // coefficients — relative accuracy is unrepresentable there.
            let tol = eps * 16.0 * (n as f64) * den
                + 16.0 * (n as f64) * rowmax * rmin * eps
                + f64::MIN_POSITIVE;
            assert!(
                resid <= tol,
                "{tag}: row {i} residual {resid:.3e} > tol {tol:.3e}"
            );
        }
    }

    /// Builds a triangular matrix with off-diagonal magnitudes ~`off`
    /// and diagonal magnitudes ~`dia` (both may be near `sfmin` or near
    /// the overflow threshold).
    fn tri_extreme<T: Scalar>(
        rng: &mut crate::testmat::Larnv,
        n: usize,
        off: f64,
        dia: f64,
    ) -> Vec<T> {
        let mut a = vec![T::zero(); n * n];
        for j in 0..n {
            for i in 0..n {
                let v: T = rng.scalar(crate::testmat::Dist::Uniform11);
                a[i + j * n] = if i == j {
                    // Keep the diagonal away from accidental cancellation:
                    // magnitude exactly `dia`, random sign/phase from `v`.
                    let u = if v.is_zero() {
                        T::one()
                    } else {
                        v.div_real(v.abs1())
                    };
                    u.mul_real(T::Real::from_f64(dia))
                } else {
                    v.mul_real(T::Real::from_f64(off))
                };
            }
        }
        a
    }

    fn latrs_extremes_for<T: Scalar>() {
        let n = 16usize;
        let mut rng = crate::testmat::Larnv::new(42);
        let big = T::Real::rmax().to_f64() / (4.0 * n as f64);
        let tiny = T::Real::sfmin().to_f64();
        // (off, dia, expect_downscale): growth cases must engage scaling.
        let cases: [(f64, f64, bool, &str); 4] = [
            (1.0, tiny, true, "tiny-diagonal"),
            (big, 1.0, true, "huge-offdiagonal"),
            (tiny, tiny, true, "all-near-sfmin"),
            (1.0, 4.0 * n as f64, false, "well-scaled"),
        ];
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for trans in [Trans::No, Trans::Trans, Trans::ConjTrans] {
                for &(off, dia, downscale, name) in &cases {
                    let a: Vec<T> = tri_extreme(&mut rng, n, off, dia);
                    let b: Vec<T> = rng.vec(crate::testmat::Dist::Uniform11, n);
                    let mut x = b.clone();
                    let scale = latrs_basic(uplo, trans, Diag::NonUnit, n, &a, n, &mut x);
                    let tag = format!("{name} {uplo:?} {trans:?} {}", T::PREFIX);
                    latrs_contract(uplo, trans, Diag::NonUnit, n, &a, n, &b, &x, scale, &tag);
                    if downscale {
                        assert!(
                            scale < T::Real::one(),
                            "{tag}: expected a downscaled solve, got scale = 1"
                        );
                    } else {
                        assert_eq!(scale.to_f64(), 1.0, "{tag}: well-scaled solve rescaled");
                    }
                }
                // Unit-diagonal variant on the huge-growth case.
                let a: Vec<T> = tri_extreme(&mut rng, n, big, 1.0);
                let b: Vec<T> = rng.vec(crate::testmat::Dist::Uniform11, n);
                let mut x = b.clone();
                let scale = latrs_basic(uplo, trans, Diag::Unit, n, &a, n, &mut x);
                let tag = format!("unit-diag {uplo:?} {trans:?} {}", T::PREFIX);
                latrs_contract(uplo, trans, Diag::Unit, n, &a, n, &b, &x, scale, &tag);

                // Exactly singular: scale = 0 and x is a finite null
                // vector of op(A).
                let mut a: Vec<T> = tri_extreme(&mut rng, n, 1.0, 4.0 * n as f64);
                a[2 + 2 * n] = T::zero();
                let b: Vec<T> = rng.vec(crate::testmat::Dist::Uniform11, n);
                let mut x = b.clone();
                let scale = latrs_basic(uplo, trans, Diag::NonUnit, n, &a, n, &mut x);
                let tag = format!("singular {uplo:?} {trans:?} {}", T::PREFIX);
                assert!(scale.is_zero(), "{tag}: scale = {scale:?}");
                assert!(
                    x[..n].iter().any(|v| !v.is_zero()),
                    "{tag}: trivial null vector"
                );
                latrs_contract(uplo, trans, Diag::NonUnit, n, &a, n, &b, &x, scale, &tag);
            }
        }
    }

    #[test]
    fn latrs_scaled_solves_at_the_extremes() {
        latrs_extremes_for::<f32>();
        latrs_extremes_for::<f64>();
        latrs_extremes_for::<C32>();
        latrs_extremes_for::<C64>();
    }

    #[test]
    fn latrs_matches_trsv_on_tame_systems() {
        let n = 12usize;
        let mut rng = crate::testmat::Larnv::new(9);
        let a: Vec<f64> = tri_extreme(&mut rng, n, 1.0, 4.0 * n as f64);
        let b: Vec<f64> = rng.vec(crate::testmat::Dist::Uniform11, n);
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for trans in [Trans::No, Trans::Trans] {
                let mut x = b.clone();
                let scale = latrs_basic(uplo, trans, Diag::NonUnit, n, &a, n, &mut x);
                assert_eq!(scale, 1.0);
                let mut y = b.clone();
                trsv(uplo, trans, Diag::NonUnit, n, &a, n, &mut y, 1);
                for i in 0..n {
                    let d = (x[i] - y[i]).abs();
                    let m = y[i].abs().max(1.0);
                    assert!(d <= 1e-13 * m, "{uplo:?} {trans:?} row {i}: {d:e}");
                }
            }
        }
    }
}
