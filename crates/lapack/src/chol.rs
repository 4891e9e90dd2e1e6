//! Cholesky factorizations and the positive-definite drivers:
//! dense (`potrf`/`potrs`/`pocon`/`porfs`/`posv`/`posvx`),
//! packed (`pptrf`/`pptrs`/`ppsv`), band (`pbtrf`/`pbtrs`/`pbsv`) and
//! tridiagonal (`pttrf`/`pttrs`/`ptsv`).

use la_blas::{chol_leaf, chol_step, dotc, hemv, rscal, scal, spmv, tbsv, tpsv, trsm};
use la_core::{probe, Diag, Norm, RealScalar, Scalar, Side, Trans, Uplo};

use crate::aux::{lacon, lansy, one_thread, try_zeros, Blocking, Route, INFO_NO_WORKSPACE};
use crate::lu::refine_generic;

/// Unblocked Cholesky factorization (`xPOTF2`): `A = UᴴU` or `A = LLᴴ`.
/// Returns `info > 0` if the leading minor of that order is not positive
/// definite, and [`INFO_NO_WORKSPACE`] if its `n − 1`-element workspace
/// cannot be allocated.
///
/// The leaf is [`la_blas::chol_leaf`]: right-looking, as reference
/// `xPOTF2` scales — each pivot scales its row or column by the reciprocal
/// of its square root, then the trailing triangle is updated one contiguous
/// column at a time, two pivots per pass (`Upper` through a copy of the
/// pivot row in the workspace). It runs as compiled for the widest SIMD
/// tier the host has (one tier selector in `la_blas::kernel`); it asks for
/// no fused multiply-add, so the bits do not depend on the tier.
pub fn potf2<T: Scalar>(uplo: Uplo, n: usize, a: &mut [T], lda: usize) -> i32 {
    let Some(mut ws) = try_zeros::<T>(n.saturating_sub(1)) else {
        return INFO_NO_WORKSPACE;
    };
    chol_leaf(uplo, n, a, lda, &mut ws)
}

/// Recursive Cholesky factorization (`xPOTRF2`): `A = UᴴU` or `A = LLᴴ`
/// with every flop outside the 32-wide leaves in one
/// [`la_blas::chol_step`] per node. Same `info` as [`potf2`]: the order of
/// the first leading minor that is not positive, or [`INFO_NO_WORKSPACE`]
/// if its workspace (at most 31 elements for `Upper`, about `n²/4` for
/// `Lower`) cannot be allocated.
pub fn potrf2<T: Scalar>(uplo: Uplo, n: usize, a: &mut [T], lda: usize) -> i32 {
    let Some(mut ws) = try_zeros::<T>(potrf2_ws_len(uplo, n)) else {
        return INFO_NO_WORKSPACE;
    };
    one_thread(|| potrf2_ws(uplo, n, a, lda, &mut ws))
}

/// Widest block [`potrf2`] factors with [`potf2`], and the grid its splits
/// fall on.
const POTRF2_LEAF: usize = 32;

/// Columns a [`potrf2`] node of order `n > POTRF2_LEAF` factors first:
/// half its leaves, rounded up, so the leaves are the `POTRF2_LEAF`-wide
/// panels a blocked loop at that width would factor, in the same order.
fn potrf2_split(n: usize) -> usize {
    POTRF2_LEAF * n.div_ceil(POTRF2_LEAF).div_ceil(2)
}

/// Elements of workspace [`potrf2`] takes on an order-`n` block: the
/// largest leaf scratch, `n − 1`, of any node, or for `Lower` the largest
/// step's copy of `L21ᴴ`, `n1·(n − n1)`, if larger (an `Upper` step solves
/// in place); the nodes run one after another on the same elements.
pub(crate) fn potrf2_ws_len(uplo: Uplo, n: usize) -> usize {
    if n <= POTRF2_LEAF {
        return n.saturating_sub(1);
    }
    let n1 = potrf2_split(n);
    let copy = if uplo == Uplo::Lower {
        n1 * (n - n1)
    } else {
        0
    };
    copy.max(potrf2_ws_len(uplo, n1))
        .max(potrf2_ws_len(uplo, n - n1))
}

/// [`potrf2`] on a caller-provided workspace of at least
/// [`potrf2_ws_len`]`(uplo, n)` elements (contents ignored).
fn potrf2_ws<T: Scalar>(uplo: Uplo, n: usize, a: &mut [T], lda: usize, ws: &mut [T]) -> i32 {
    if n <= POTRF2_LEAF {
        return chol_leaf(uplo, n, a, lda, ws);
    }
    let n1 = potrf2_split(n);
    let info = potrf2_ws(uplo, n1, a, lda, ws);
    if info != 0 {
        return info;
    }
    chol_step(uplo, n1, n - n1, a, lda, ws);
    match potrf2_ws(uplo, n - n1, &mut a[n1 + n1 * lda..], lda, ws) {
        0 => 0,
        // A positive code counts minors from the second block's corner.
        info => info + n1 as i32,
    }
}

/// Blocked right-looking Cholesky factorization (`xPOTRF`).
///
/// When the ABFT policy (`la_core::abft`) is enabled and the problem is
/// at or above the parallel-flop threshold, the factor is verified
/// against the row-sum identity `L·(Lᴴ·e) = A·e` (resp. `Uᴴ·(U·e)`) on
/// exit; a mismatch is recovered by a serial re-run from a snapshot or
/// surfaced as a pending soft fault, per policy.
pub fn potrf<T: Scalar>(uplo: Uplo, n: usize, a: &mut [T], lda: usize) -> i32 {
    let _probe = probe::span(
        probe::Layer::Lapack,
        "potrf",
        probe::flops::potrf(n),
        (n * (n + 1) * std::mem::size_of::<T>()) as u64,
    );
    // One decision for the core, the recovery re-run and the ABFT block
    // labels.
    let how = Blocking::of("potrf", n, n);
    probe::note_nb(how.nb);
    let check = crate::abft::active(crate::abft::flop3(n, n, n) / 3)
        .map(|pol| crate::abft::potrf_encode(pol, uplo, n, a, lda));
    // The factor-level identity covers every inner BLAS-3 update, so
    // nested per-block checksums would only stack an O(n³/nb) tax on
    // top; run the core with ABFT off whenever the factor check is on.
    let info = if check.is_some() {
        la_core::abft::with_policy(la_core::abft::AbftPolicy::Off, || {
            potrf_core(uplo, n, a, lda, how)
        })
    } else {
        potrf_core(uplo, n, a, lda, how)
    };
    // A cancelled factorization left the buffers partially updated and one
    // without workspace never started; there is nothing meaningful to
    // verify (or corrupt), so surface the code as-is.
    if info == la_core::cancel::INFO_CANCELLED || info == INFO_NO_WORKSPACE {
        return info;
    }
    #[cfg(feature = "fault-inject")]
    crate::abft::inject_factor("potrf", n, how.nb, a, lda);
    match check {
        None => info,
        Some(ck) => crate::abft::potrf_verify(ck, uplo, n, a, lda, info, how.nb, |a| {
            // Serial, on the call's own route: the graph computes the same
            // bits on any number of threads, so the recovered factor is the
            // clean call's.
            one_thread(|| {
                la_core::abft::with_policy(la_core::abft::AbftPolicy::Off, || {
                    potrf_core(uplo, n, a, lda, how)
                })
            })
        }),
    }
}

/// The factorization proper, shared by the public entry, the ABFT
/// recovery re-run, and the tiled-dag diagonal tasks; `how` is the
/// caller's [`Blocking::of`]`("potrf", n, n)`.
pub(crate) fn potrf_core<T: Scalar>(
    uplo: Uplo,
    n: usize,
    a: &mut [T],
    lda: usize,
    how: Blocking,
) -> i32 {
    match how.route {
        // Same factor up to rounding, same info codes. A graph without
        // memory for its workspace leaves `a` as it found it; the serial
        // route, which needs one panel's worth, runs instead.
        Route::Dag => match crate::tiled::potrf_dag(uplo, n, a, lda) {
            INFO_NO_WORKSPACE => {
                one_thread(|| potrf_core(uplo, n, a, lda, Blocking::of("potrf", n, n)))
            }
            info => info,
        },
        Route::Unblocked | Route::Blocked => {
            let nb = loop_nb(how, n);
            match try_zeros::<T>(potrf_ws_len(uplo, n, nb)) {
                Some(mut ws) => one_thread(|| potrf_blocked(uplo, n, a, lda, nb, &mut ws)),
                None => INFO_NO_WORKSPACE,
            }
        }
    }
}

/// Panel width of the serial loop on `how`'s route for an order-`n`
/// problem: the whole order at or below the crossover, where the recursive
/// panel factors the matrix in one piece.
pub(crate) fn loop_nb(how: Blocking, n: usize) -> usize {
    match how.route {
        Route::Unblocked => n,
        _ => how.nb,
    }
}

/// Elements of workspace [`potrf_blocked`] takes: the recursion's on a
/// whole diagonal block, or for `Lower` the first step's copy of its
/// off-diagonal block, `nb·(n − nb)`, if larger. A last, narrower block of
/// `r` columns needs at most `r²/4`, under the first step's copy.
pub(crate) fn potrf_ws_len(uplo: Uplo, n: usize, nb: usize) -> usize {
    let nb = nb.min(n);
    let copy = if uplo == Uplo::Lower {
        nb * (n - nb)
    } else {
        0
    };
    copy.max(potrf2_ws_len(uplo, nb))
}

/// Right-looking blocked Cholesky with panel width `nb` (`nb ≥ n`: one
/// panel): [`potrf2`] on each diagonal block, then [`la_blas::chol_step`]
/// right of it, both on `ws` (at least [`potrf_ws_len`] elements, contents
/// ignored).
pub(crate) fn potrf_blocked<T: Scalar>(
    uplo: Uplo,
    n: usize,
    a: &mut [T],
    lda: usize,
    nb: usize,
    ws: &mut [T],
) -> i32 {
    let mut j = 0;
    while j < n {
        // Cooperative cancellation checkpoint: one cheap thread-local
        // read per panel step, so a deadline lands within one panel's
        // O(n²·nb) of work instead of after the whole O(n³).
        if la_core::cancel::cancelled() {
            return la_core::cancel::INFO_CANCELLED;
        }
        let jb = nb.min(n - j);
        let corner = &mut a[j + j * lda..];
        let info = potrf2_ws(uplo, jb, corner, lda, ws);
        if info != 0 {
            // A positive code counts minors from this panel's corner.
            return info + j as i32;
        }
        if j + jb < n {
            chol_step(uplo, jb, n - j - jb, corner, lda, ws);
        }
        j += jb;
    }
    0
}

/// Solves `A·X = B` from the Cholesky factorization (`xPOTRS`).
pub fn potrs<T: Scalar>(
    uplo: Uplo,
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
) -> i32 {
    let _probe = probe::span(
        probe::Layer::Lapack,
        "potrs",
        probe::flops::potrs(n, nrhs),
        ((n * (n + 1) / 2 + 2 * n * nrhs) * std::mem::size_of::<T>()) as u64,
    );
    match uplo {
        Uplo::Upper => {
            trsm(
                Side::Left,
                Uplo::Upper,
                Trans::ConjTrans,
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
        Uplo::Lower => {
            trsm(
                Side::Left,
                Uplo::Lower,
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
            trsm(
                Side::Left,
                Uplo::Lower,
                Trans::ConjTrans,
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
    }
    0
}

/// Reciprocal condition estimate from the Cholesky factorization
/// (`xPOCON`).
pub fn pocon<T: Scalar>(uplo: Uplo, n: usize, a: &[T], lda: usize, anorm: T::Real) -> T::Real {
    if n == 0 {
        return T::Real::one();
    }
    if anorm.is_zero() {
        return T::Real::zero();
    }
    let ainvnm = lacon::<T>(n, |x, _conj_t| {
        // A is Hermitian: A^{-1} = A^{-H}.
        potrs(uplo, n, 1, a, lda, x, n.max(1));
    });
    if ainvnm.is_zero() {
        T::Real::zero()
    } else {
        (T::Real::one() / ainvnm) / anorm
    }
}

/// Iterative refinement + error bounds for SPD systems (`xPORFS`).
#[allow(clippy::too_many_arguments)]
pub fn porfs<T: Scalar>(
    uplo: Uplo,
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    af: &[T],
    ldaf: usize,
    b: &[T],
    ldb: usize,
    x: &mut [T],
    ldx: usize,
    ferr: &mut [T::Real],
    berr: &mut [T::Real],
) -> i32 {
    let matvec = |_conj_t: bool, v: &[T], y: &mut [T]| {
        y.fill(T::zero());
        hemv(uplo, n, T::one(), a, lda, v, 1, T::zero(), y, 1);
    };
    let absmv = |v: &[T::Real], y: &mut [T::Real]| {
        for yi in y.iter_mut() {
            *yi = T::Real::zero();
        }
        for j in 0..n {
            for i in 0..n {
                let stored = match uplo {
                    Uplo::Upper => i <= j,
                    Uplo::Lower => i >= j,
                };
                let aij = if stored {
                    a[i + j * lda].abs()
                } else {
                    a[j + i * lda].abs()
                };
                y[i] += aij * v[j];
            }
        }
    };
    let solve = |_conj_t: bool, rhs: &mut [T]| {
        potrs(uplo, n, 1, af, ldaf, rhs, n.max(1));
    };
    refine_generic(n, nrhs, &matvec, &absmv, &solve, b, ldb, x, ldx, ferr, berr);
    0
}

/// Simple SPD driver (`xPOSV`): Cholesky-factor and solve.
pub fn posv<T: Scalar>(
    uplo: Uplo,
    n: usize,
    nrhs: usize,
    a: &mut [T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
) -> i32 {
    let info = potrf(uplo, n, a, lda);
    if info != 0 {
        return info;
    }
    potrs(uplo, n, nrhs, a, lda, b, ldb)
}

/// Computes equilibration scalings for an SPD matrix (`xPOEQU`):
/// `s_i = 1/√a_ii`. Returns `(scond, amax, info)`.
pub fn poequ<T: Scalar>(
    n: usize,
    a: &[T],
    lda: usize,
    s: &mut [T::Real],
) -> (T::Real, T::Real, i32) {
    let zero = T::Real::zero();
    if n == 0 {
        return (T::Real::one(), zero, 0);
    }
    let mut smin = a[0].re();
    let mut amax = a[0].re();
    for i in 0..n {
        let d = a[i + i * lda].re();
        s[i] = d;
        smin = smin.minr(d);
        amax = amax.maxr(d);
    }
    if smin <= zero {
        let bad = (0..n).find(|&i| a[i + i * lda].re() <= zero).unwrap();
        return (zero, amax, (bad + 1) as i32);
    }
    for si in s.iter_mut().take(n) {
        *si = T::Real::one() / si.sqrt_r();
    }
    let scond = smin.sqrt_r() / amax.sqrt_r();
    (scond, amax, 0)
}

/// Applies symmetric equilibration `A := diag(s)·A·diag(s)` to the stored
/// triangle when worthwhile (`xLAQSY`-style). Returns `true` if scaled.
pub fn laqsy<T: Scalar>(
    uplo: Uplo,
    n: usize,
    a: &mut [T],
    lda: usize,
    s: &[T::Real],
    scond: T::Real,
    amax: T::Real,
) -> bool {
    let thresh = T::Real::from_f64(0.1);
    let small = T::Real::sfmin() / T::Real::EPS;
    let large = T::Real::one() / small;
    if scond >= thresh && amax >= small && amax <= large {
        return false;
    }
    for j in 0..n {
        let (lo, hi) = match uplo {
            Uplo::Upper => (0, j + 1),
            Uplo::Lower => (j, n),
        };
        for i in lo..hi {
            a[i + j * lda] = a[i + j * lda].mul_real(s[i] * s[j]);
        }
    }
    true
}

/// Expert SPD driver (`xPOSVX`): optional equilibration, factorization,
/// solve, refinement, condition estimate. Returns
/// `(info, rcond, ferr, berr, equilibrated)`.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn posvx<T: Scalar>(
    fact: crate::lu::Fact,
    uplo: Uplo,
    n: usize,
    nrhs: usize,
    a: &mut [T],
    lda: usize,
    af: &mut [T],
    ldaf: usize,
    s: &mut [T::Real],
    b: &mut [T],
    ldb: usize,
    x: &mut [T],
    ldx: usize,
) -> (i32, T::Real, Vec<T::Real>, Vec<T::Real>, bool) {
    use crate::lu::Fact;
    let mut equed = false;
    if fact == Fact::Equilibrate {
        let (scond, amax, ieq) = poequ(n, a, lda, s);
        if ieq == 0 {
            equed = laqsy(uplo, n, a, lda, s, scond, amax);
        }
    }
    if equed {
        for j in 0..nrhs {
            for i in 0..n {
                b[i + j * ldb] = b[i + j * ldb].mul_real(s[i]);
            }
        }
    }
    if fact != Fact::Factored {
        crate::aux::lacpy(Some(uplo), n, n, a, lda, af, ldaf);
        let info = potrf(uplo, n, af, ldaf);
        if info > 0 {
            return (info, T::Real::zero(), vec![], vec![], equed);
        }
    }
    let anorm = lansy(Norm::One, uplo, T::IS_COMPLEX, n, a, lda);
    let rcond = pocon(uplo, n, af, ldaf, anorm);
    crate::aux::lacpy(None, n, nrhs, b, ldb, x, ldx);
    potrs(uplo, n, nrhs, af, ldaf, x, ldx);
    let mut ferr = vec![T::Real::zero(); nrhs];
    let mut berr = vec![T::Real::zero(); nrhs];
    porfs(
        uplo, n, nrhs, a, lda, af, ldaf, b, ldb, x, ldx, &mut ferr, &mut berr,
    );
    if equed {
        for j in 0..nrhs {
            for i in 0..n {
                x[i + j * ldx] = x[i + j * ldx].mul_real(s[i]);
            }
        }
    }
    let info = if rcond < T::Real::EPS {
        (n + 1) as i32
    } else {
        0
    };
    (info, rcond, ferr, berr, equed)
}

// ---------------------------------------------------------------------------
// Packed storage.
// ---------------------------------------------------------------------------

/// Packed Cholesky factorization (`xPPTRF`).
pub fn pptrf<T: Scalar>(uplo: Uplo, n: usize, ap: &mut [T]) -> i32 {
    match uplo {
        Uplo::Upper => {
            for j in 0..n {
                let jc = j * (j + 1) / 2;
                // Solve Uᴴ(0..j,0..j) · u = a(0..j, j).
                if j > 0 {
                    let (head, tail) = ap.split_at_mut(jc);
                    tpsv(
                        Uplo::Upper,
                        Trans::ConjTrans,
                        Diag::NonUnit,
                        j,
                        head,
                        &mut tail[..j],
                        1,
                    );
                }
                let dot = dotc(j, &ap[jc..], 1, &ap[jc..], 1);
                let ajj = ap[jc + j].re() - dot.re();
                if ajj <= T::Real::zero() || !ajj.is_finite_r() {
                    return (j + 1) as i32;
                }
                ap[jc + j] = T::from_real(ajj.sqrt_r());
            }
        }
        Uplo::Lower => {
            for j in 0..n {
                let jj = j + j * (2 * n - j - 1) / 2;
                let ajj = ap[jj].re();
                if ajj <= T::Real::zero() || !ajj.is_finite_r() {
                    return (j + 1) as i32;
                }
                let ajj = ajj.sqrt_r();
                ap[jj] = T::from_real(ajj);
                if j + 1 < n {
                    let (col, rest) = ap[jj..].split_at_mut(n - j);
                    rscal(n - j - 1, T::Real::one() / ajj, &mut col[1..], 1);
                    // Rank-1 update of the trailing packed triangle:
                    // AP(j+1.., j+1..) -= col·colᴴ.
                    let tail_n = n - j - 1;
                    let mut off = 0usize;
                    for c in 0..tail_n {
                        let vc = col[1 + c].conj();
                        for r in c..tail_n {
                            let upd = col[1 + r] * vc;
                            rest[off + r - c] -= upd;
                        }
                        off += tail_n - c;
                    }
                    // Keep diagonals exactly real for the Hermitian case.
                    if T::IS_COMPLEX {
                        let mut off = 0usize;
                        for c in 0..tail_n {
                            rest[off] = T::from_real(rest[off].re());
                            off += tail_n - c;
                        }
                    }
                }
            }
        }
    }
    0
}

/// Solves from the packed Cholesky factorization (`xPPTRS`).
pub fn pptrs<T: Scalar>(
    uplo: Uplo,
    n: usize,
    nrhs: usize,
    ap: &[T],
    b: &mut [T],
    ldb: usize,
) -> i32 {
    for j in 0..nrhs {
        let col = &mut b[j * ldb..j * ldb + n];
        match uplo {
            Uplo::Upper => {
                tpsv(Uplo::Upper, Trans::ConjTrans, Diag::NonUnit, n, ap, col, 1);
                tpsv(Uplo::Upper, Trans::No, Diag::NonUnit, n, ap, col, 1);
            }
            Uplo::Lower => {
                tpsv(Uplo::Lower, Trans::No, Diag::NonUnit, n, ap, col, 1);
                tpsv(Uplo::Lower, Trans::ConjTrans, Diag::NonUnit, n, ap, col, 1);
            }
        }
    }
    0
}

/// Packed SPD driver (`xPPSV`).
pub fn ppsv<T: Scalar>(
    uplo: Uplo,
    n: usize,
    nrhs: usize,
    ap: &mut [T],
    b: &mut [T],
    ldb: usize,
) -> i32 {
    let info = pptrf(uplo, n, ap);
    if info != 0 {
        return info;
    }
    pptrs(uplo, n, nrhs, ap, b, ldb)
}

/// Reciprocal condition estimate from the packed factorization
/// (`xPPCON`).
pub fn ppcon<T: Scalar>(uplo: Uplo, n: usize, ap: &[T], anorm: T::Real) -> T::Real {
    if n == 0 {
        return T::Real::one();
    }
    if anorm.is_zero() {
        return T::Real::zero();
    }
    let ainvnm = lacon::<T>(n, |x, _| {
        pptrs(uplo, n, 1, ap, x, n.max(1));
    });
    if ainvnm.is_zero() {
        T::Real::zero()
    } else {
        (T::Real::one() / ainvnm) / anorm
    }
}

/// Matrix-vector product with a packed Hermitian matrix — exported for
/// the packed drivers' verification paths.
pub fn sp_matvec<T: Scalar>(uplo: Uplo, n: usize, ap: &[T], x: &[T], y: &mut [T]) {
    y.fill(T::zero());
    spmv(T::IS_COMPLEX, uplo, n, T::one(), ap, x, 1, T::zero(), y, 1);
}

// ---------------------------------------------------------------------------
// Band storage.
// ---------------------------------------------------------------------------

/// Band Cholesky factorization (`xPBTF2`/`xPBTRF`, unblocked). The band
/// matrix uses `LDAB = kd + 1` storage (diagonal at row `kd` for `Upper`,
/// row 0 for `Lower`).
pub fn pbtrf<T: Scalar>(uplo: Uplo, n: usize, kd: usize, ab: &mut [T], ldab: usize) -> i32 {
    match uplo {
        Uplo::Upper => {
            for j in 0..n {
                let ajj = ab[kd + j * ldab].re();
                if ajj <= T::Real::zero() || !ajj.is_finite_r() {
                    return (j + 1) as i32;
                }
                let ajj = ajj.sqrt_r();
                ab[kd + j * ldab] = T::from_real(ajj);
                let kn = kd.min(n - j - 1);
                if kn > 0 {
                    // Scale row j of U within the band, then rank-1 update
                    // the trailing band triangle.
                    for k in 1..=kn {
                        let idx = kd - k + (j + k) * ldab;
                        ab[idx] = ab[idx].div_real(ajj);
                    }
                    for c in 1..=kn {
                        let ujc = ab[kd - c + (j + c) * ldab];
                        for r in 1..=c {
                            let ujr = ab[kd - r + (j + r) * ldab];
                            let idx = kd - (c - r) + (j + c) * ldab;
                            let upd = ujr.conj() * ujc;
                            // a(j+r, j+c) -= conj(u_{j,j+r}) * u_{j,j+c}
                            ab[idx] -= upd;
                        }
                    }
                    if T::IS_COMPLEX {
                        for c in 1..=kn {
                            let idx = kd + (j + c) * ldab;
                            ab[idx] = T::from_real(ab[idx].re());
                        }
                    }
                }
            }
        }
        Uplo::Lower => {
            for j in 0..n {
                let ajj = ab[j * ldab].re();
                if ajj <= T::Real::zero() || !ajj.is_finite_r() {
                    return (j + 1) as i32;
                }
                let ajj = ajj.sqrt_r();
                ab[j * ldab] = T::from_real(ajj);
                let kn = kd.min(n - j - 1);
                if kn > 0 {
                    for k in 1..=kn {
                        let idx = k + j * ldab;
                        ab[idx] = ab[idx].div_real(ajj);
                    }
                    for c in 1..=kn {
                        let ljc = ab[c + j * ldab].conj();
                        for r in c..=kn {
                            let ljr = ab[r + j * ldab];
                            let idx = (r - c) + (j + c) * ldab;
                            let upd = ljr * ljc;
                            ab[idx] -= upd;
                        }
                    }
                    if T::IS_COMPLEX {
                        for c in 1..=kn {
                            let idx = (j + c) * ldab;
                            ab[idx] = T::from_real(ab[idx].re());
                        }
                    }
                }
            }
        }
    }
    0
}

/// Solves from the band Cholesky factorization (`xPBTRS`).
#[allow(clippy::too_many_arguments)]
pub fn pbtrs<T: Scalar>(
    uplo: Uplo,
    n: usize,
    kd: usize,
    nrhs: usize,
    ab: &[T],
    ldab: usize,
    b: &mut [T],
    ldb: usize,
) -> i32 {
    for j in 0..nrhs {
        let col = &mut b[j * ldb..j * ldb + n];
        match uplo {
            Uplo::Upper => {
                tbsv(
                    Uplo::Upper,
                    Trans::ConjTrans,
                    Diag::NonUnit,
                    n,
                    kd,
                    ab,
                    ldab,
                    col,
                    1,
                );
                tbsv(
                    Uplo::Upper,
                    Trans::No,
                    Diag::NonUnit,
                    n,
                    kd,
                    ab,
                    ldab,
                    col,
                    1,
                );
            }
            Uplo::Lower => {
                tbsv(
                    Uplo::Lower,
                    Trans::No,
                    Diag::NonUnit,
                    n,
                    kd,
                    ab,
                    ldab,
                    col,
                    1,
                );
                tbsv(
                    Uplo::Lower,
                    Trans::ConjTrans,
                    Diag::NonUnit,
                    n,
                    kd,
                    ab,
                    ldab,
                    col,
                    1,
                );
            }
        }
    }
    0
}

/// Band SPD driver (`xPBSV`).
#[allow(clippy::too_many_arguments)]
pub fn pbsv<T: Scalar>(
    uplo: Uplo,
    n: usize,
    kd: usize,
    nrhs: usize,
    ab: &mut [T],
    ldab: usize,
    b: &mut [T],
    ldb: usize,
) -> i32 {
    let info = pbtrf(uplo, n, kd, ab, ldab);
    if info != 0 {
        return info;
    }
    pbtrs(uplo, n, kd, nrhs, ab, ldab, b, ldb)
}

// ---------------------------------------------------------------------------
// Tridiagonal SPD.
// ---------------------------------------------------------------------------

/// `L·D·Lᴴ` factorization of a Hermitian positive-definite tridiagonal
/// matrix (`xPTTRF`). `d` is the real diagonal; `e` the subdiagonal.
pub fn pttrf<T: Scalar>(n: usize, d: &mut [T::Real], e: &mut [T]) -> i32 {
    for i in 0..n {
        if d[i] <= T::Real::zero() || !d[i].is_finite_r() {
            return (i + 1) as i32;
        }
        if i + 1 < n {
            let ei = e[i];
            e[i] = ei.div_real(d[i]);
            d[i + 1] = d[i + 1] - (e[i] * ei.conj()).re();
        }
    }
    0
}

/// Solves from the `L·D·Lᴴ` factorization (`xPTTRS`).
pub fn pttrs<T: Scalar>(
    n: usize,
    nrhs: usize,
    d: &[T::Real],
    e: &[T],
    b: &mut [T],
    ldb: usize,
) -> i32 {
    for j in 0..nrhs {
        let col = &mut b[j * ldb..j * ldb + n];
        // Forward: L y = b.
        for i in 1..n {
            let upd = e[i - 1] * col[i - 1];
            col[i] -= upd;
        }
        // Diagonal: D z = y.
        for i in 0..n {
            col[i] = col[i].div_real(d[i]);
        }
        // Backward: Lᴴ x = z.
        for i in (0..n.saturating_sub(1)).rev() {
            let upd = e[i].conj() * col[i + 1];
            col[i] -= upd;
        }
    }
    0
}

/// Tridiagonal SPD driver (`xPTSV`).
pub fn ptsv<T: Scalar>(
    n: usize,
    nrhs: usize,
    d: &mut [T::Real],
    e: &mut [T],
    b: &mut [T],
    ldb: usize,
) -> i32 {
    let info = pttrf::<T>(n, d, e);
    if info != 0 {
        return info;
    }
    pttrs(n, nrhs, d, e, b, ldb)
}

/// Scales a vector by a real factor (shared helper).
pub fn scale_vec<T: Scalar>(v: &mut [T], r: T::Real) {
    let _ = scal::<T>; // keep the import referenced in all feature combos
    for x in v.iter_mut() {
        *x = x.mul_real(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use la_core::C64;

    /// Random Hermitian positive definite matrix A = Bᴴ B + n·I.
    fn rand_hpd(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let b: Vec<C64> = (0..n * n).map(|_| C64::new(next(), next())).collect();
        let mut a = vec![C64::zero(); n * n];
        la_blas::gemm(
            Trans::ConjTrans,
            Trans::No,
            n,
            n,
            n,
            C64::one(),
            &b,
            n,
            &b,
            n,
            C64::zero(),
            &mut a,
            n,
        );
        for i in 0..n {
            a[i + i * n] += C64::from_real(n as f64);
        }
        a
    }

    fn rand_spd(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let b: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let mut a = vec![0.0; n * n];
        la_blas::gemm(
            Trans::Trans,
            Trans::No,
            n,
            n,
            n,
            1.0,
            &b,
            n,
            &b,
            n,
            0.0,
            &mut a,
            n,
        );
        for i in 0..n {
            a[i + i * n] += n as f64;
        }
        a
    }

    #[test]
    fn potrf_reconstructs_both_uplos() {
        let n = 12;
        let a0 = rand_hpd(n, 3);
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let mut f = a0.clone();
            assert_eq!(potrf(uplo, n, &mut f, n), 0, "{uplo:?}");
            // Reassemble.
            let mut prod = vec![C64::zero(); n * n];
            match uplo {
                Uplo::Upper => {
                    // A = Uᴴ U: zero the strict lower part of f first.
                    let mut u = f.clone();
                    for j in 0..n {
                        for i in j + 1..n {
                            u[i + j * n] = C64::zero();
                        }
                    }
                    la_blas::gemm(
                        Trans::ConjTrans,
                        Trans::No,
                        n,
                        n,
                        n,
                        C64::one(),
                        &u,
                        n,
                        &u,
                        n,
                        C64::zero(),
                        &mut prod,
                        n,
                    );
                }
                Uplo::Lower => {
                    let mut l = f.clone();
                    for j in 0..n {
                        for i in 0..j {
                            l[i + j * n] = C64::zero();
                        }
                    }
                    la_blas::gemm(
                        Trans::No,
                        Trans::ConjTrans,
                        n,
                        n,
                        n,
                        C64::one(),
                        &l,
                        n,
                        &l,
                        n,
                        C64::zero(),
                        &mut prod,
                        n,
                    );
                }
            }
            for k in 0..n * n {
                assert!(
                    (prod[k] - a0[k]).abs() < 1e-10 * n as f64,
                    "{uplo:?} elem {k}: {} vs {}",
                    prod[k],
                    a0[k]
                );
            }
        }
    }

    #[test]
    fn blocked_potrf_matches_unblocked() {
        let n = 250;
        let a0 = rand_spd(n, 11);
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let mut f1 = a0.clone();
            // Above the crossover (2·96 = 192): the blocked path.
            assert_eq!(potrf(uplo, n, &mut f1, n), 0);
            let mut f2 = a0.clone();
            assert_eq!(potf2(uplo, n, &mut f2, n), 0);
            for j in 0..n {
                let range: Vec<usize> = match uplo {
                    Uplo::Upper => (0..=j).collect(),
                    Uplo::Lower => (j..n).collect(),
                };
                for i in range {
                    assert!(
                        (f1[i + j * n] - f2[i + j * n]).abs() < 1e-8,
                        "{uplo:?} ({i},{j})"
                    );
                }
            }
        }
    }

    /// The identity the two-panel crossover rests on: from 129 to 192
    /// columns a recursive panel splits at 96 (up to 128 it splits at 64),
    /// so it makes the blocked loop's calls at NB 96 and computes its
    /// bits.
    fn potrf2_is_the_blocked_loop_at_96<T: Scalar>(n: usize, a0: &[T]) {
        let bits = |v: &[T]| -> Vec<(u64, u64)> {
            v.iter()
                .map(|x| (x.re().to_f64().to_bits(), x.im().to_f64().to_bits()))
                .collect()
        };
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let (mut whole, mut blocked) = (a0.to_vec(), a0.to_vec());
            let mut ws = vec![T::zero(); potrf_ws_len(uplo, n, 96)];
            let info = one_thread(|| potrf_blocked(uplo, n, &mut blocked, n, 96, &mut ws));
            assert_eq!((potrf2(uplo, n, &mut whole, n), info), (0, 0));
            assert!(bits(&whole) == bits(&blocked), "n={n} {uplo:?}");
        }
    }

    #[test]
    fn potrf2_is_the_blocked_loop_from_129_to_192() {
        for n in 129..=192 {
            potrf2_is_the_blocked_loop_at_96(n, &rand_spd(n, n as u64));
            potrf2_is_the_blocked_loop_at_96(n, &rand_hpd(n, n as u64));
        }
    }

    #[test]
    fn posv_solves() {
        let n = 10;
        let a0 = rand_hpd(n, 17);
        let xtrue: Vec<C64> = (0..n)
            .map(|i| C64::new(i as f64 + 1.0, -(i as f64)))
            .collect();
        let mut b = vec![C64::zero(); n];
        la_blas::gemv(
            Trans::No,
            n,
            n,
            C64::one(),
            &a0,
            n,
            &xtrue,
            1,
            C64::zero(),
            &mut b,
            1,
        );
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let mut a = a0.clone();
            let mut x = b.clone();
            assert_eq!(posv(uplo, n, 1, &mut a, n, &mut x, n), 0);
            for i in 0..n {
                assert!((x[i] - xtrue[i]).abs() < 1e-9, "{uplo:?}");
            }
        }
    }

    #[test]
    fn potrf_detects_indefinite() {
        // diag(1, -1) is not positive definite: fails at minor 2.
        let mut a = vec![1.0f64, 0.0, 0.0, -1.0];
        assert_eq!(potrf(Uplo::Upper, 2, &mut a, 2), 2);
    }

    #[test]
    fn packed_matches_dense() {
        let n = 9;
        let a0 = rand_hpd(n, 23);
        let xtrue: Vec<C64> = (0..n).map(|i| C64::new(1.0, i as f64 * 0.5)).collect();
        let mut b = vec![C64::zero(); n];
        la_blas::gemv(
            Trans::No,
            n,
            n,
            C64::one(),
            &a0,
            n,
            &xtrue,
            1,
            C64::zero(),
            &mut b,
            1,
        );
        for uplo in [Uplo::Upper, Uplo::Lower] {
            // Pack the triangle.
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
            let mut x = b.clone();
            assert_eq!(ppsv(uplo, n, 1, &mut ap, &mut x, n), 0);
            for i in 0..n {
                assert!((x[i] - xtrue[i]).abs() < 1e-9, "{uplo:?}: {x:?}");
            }
        }
    }

    #[test]
    fn band_cholesky_solves() {
        let n = 20;
        let kd = 2;
        // SPD band matrix: diagonally dominant.
        let mut dense = vec![C64::zero(); n * n];
        for i in 0..n {
            dense[i + i * n] = C64::from_real(4.0);
            if i + 1 < n {
                dense[i + (i + 1) * n] = C64::new(1.0, 0.3);
                dense[i + 1 + i * n] = C64::new(1.0, -0.3);
            }
            if i + 2 < n {
                dense[i + (i + 2) * n] = C64::new(0.5, -0.2);
                dense[i + 2 + i * n] = C64::new(0.5, 0.2);
            }
        }
        let xtrue: Vec<C64> = (0..n).map(|i| C64::new((i % 3) as f64, 1.0)).collect();
        let mut b = vec![C64::zero(); n];
        la_blas::gemv(
            Trans::No,
            n,
            n,
            C64::one(),
            &dense,
            n,
            &xtrue,
            1,
            C64::zero(),
            &mut b,
            1,
        );
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let ldab = kd + 1;
            let mut ab = vec![C64::zero(); ldab * n];
            for j in 0..n {
                match uplo {
                    Uplo::Upper => {
                        for i in j.saturating_sub(kd)..=j {
                            ab[kd + i - j + j * ldab] = dense[i + j * n];
                        }
                    }
                    Uplo::Lower => {
                        for i in j..(j + kd + 1).min(n) {
                            ab[i - j + j * ldab] = dense[i + j * n];
                        }
                    }
                }
            }
            let mut x = b.clone();
            assert_eq!(pbsv(uplo, n, kd, 1, &mut ab, ldab, &mut x, n), 0);
            for i in 0..n {
                assert!((x[i] - xtrue[i]).abs() < 1e-10, "{uplo:?}");
            }
        }
    }

    #[test]
    fn tridiagonal_spd_solves() {
        let n = 15;
        let mut d = vec![3.0f64; n];
        let mut e: Vec<C64> = (0..n - 1)
            .map(|i| C64::new(0.5, 0.2 * i as f64 % 0.7))
            .collect();
        // Build dense for reference.
        let mut dense = vec![C64::zero(); n * n];
        for i in 0..n {
            dense[i + i * n] = C64::from_real(d[i]);
            if i + 1 < n {
                dense[i + 1 + i * n] = e[i];
                dense[i + (i + 1) * n] = e[i].conj();
            }
        }
        let xtrue: Vec<C64> = (0..n).map(|i| C64::new(1.0 + i as f64, -0.5)).collect();
        let mut b = vec![C64::zero(); n];
        la_blas::gemv(
            Trans::No,
            n,
            n,
            C64::one(),
            &dense,
            n,
            &xtrue,
            1,
            C64::zero(),
            &mut b,
            1,
        );
        assert_eq!(ptsv(n, 1, &mut d, &mut e, &mut b, n), 0);
        for i in 0..n {
            assert!((b[i] - xtrue[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn pttrf_detects_indefinite() {
        let mut d = vec![1.0f64, -2.0];
        let mut e = vec![0.0f64];
        assert_eq!(pttrf::<f64>(2, &mut d, &mut e), 2);
    }

    #[test]
    fn pocon_and_posvx() {
        let n = 8;
        let a0 = rand_spd(n, 31);
        let anorm = lansy(Norm::One, Uplo::Upper, false, n, &a0, n);
        let mut f = a0.clone();
        assert_eq!(potrf(Uplo::Upper, n, &mut f, n), 0);
        let rc = pocon(Uplo::Upper, n, &f, n, anorm);
        assert!(rc > 0.0 && rc <= 1.0);

        let xtrue: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        let mut b = vec![0.0f64; n];
        la_blas::gemv(Trans::No, n, n, 1.0, &a0, n, &xtrue, 1, 0.0, &mut b, 1);
        let mut a = a0.clone();
        let mut af = vec![0.0f64; n * n];
        let mut s = vec![0.0f64; n];
        let mut x = vec![0.0f64; n];
        let (info, rcond, ferr, berr, _eq) = posvx(
            crate::lu::Fact::Equilibrate,
            Uplo::Lower,
            n,
            1,
            &mut a,
            n,
            &mut af,
            n,
            &mut s,
            &mut b,
            n,
            &mut x,
            n,
        );
        assert_eq!(info, 0);
        assert!(rcond > 0.0);
        assert!(berr[0] < 1e-13);
        assert!(ferr[0] < 1e-6);
        for i in 0..n {
            assert!((x[i] - xtrue[i]).abs() < 1e-8);
        }
    }
}
