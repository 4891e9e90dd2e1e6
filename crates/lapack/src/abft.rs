//! Huang–Abraham checksums for the blocked factorizations.
//!
//! Where the BLAS layer (see `la_blas`'s internal checksum module)
//! protects individual Level-3 products, this module protects whole
//! factorizations end to end: for `P·A = L·U` the row sums satisfy
//! `L·(U·e) = P·(A·e)`, and for `A = L·Lᴴ` (resp. `Uᴴ·U`) they satisfy
//! `L·(Lᴴ·e) = A·e` — O(n²) identities over an O(n³) computation, and
//! ones that any corruption of the computed factors themselves breaks,
//! not just corruption of an individual Level-3 update (defense in
//! depth: the inner `gemm`/`trsm`/`herk` calls carry their own
//! checksums when large enough; the fused `lu_step`/`chol_step` sweeps
//! carry none, and this identity is what covers them).
//!
//! Recovery restores the snapshotted input and re-runs the whole
//! factorization on the serial path — the same machinery the graceful-
//! degradation layer uses for worker panics — which reproduces the
//! fault-free factors bit for bit (the parallel and serial paths share
//! per-element arithmetic). A mismatch that survives recovery, or any
//! mismatch under [`AbftPolicy::Verify`], is parked as a pending
//! [`la_core::abft::SoftFault`] that the driver layer surfaces as
//! `INFO = -102`.

use la_core::abft::{self, AbftPolicy};
use la_core::{probe, RealScalar, Scalar, Uplo};

/// `u128` dimension product for the activation threshold (the same
/// saturating arithmetic the BLAS striping decision uses).
pub(crate) fn flop3(d0: usize, d1: usize, d2: usize) -> u128 {
    d0 as u128 * d1 as u128 * d2 as u128
}

/// Policy gate: ABFT enabled and the factorization at or above the
/// parallel-flop threshold.
pub(crate) fn active(flops: u128) -> Option<AbftPolicy> {
    let ctx = la_core::ctx::current();
    (ctx.abft.enabled() && flops >= ctx.tune.par_flops as u128).then_some(ctx.abft)
}

/// `true` when a checksum discrepancy is a genuine (finite) fault.
fn exceeds<T: Scalar>(diff: T, tol: T::Real) -> bool {
    let d = diff.abs1();
    d.is_finite() && d > tol
}

/// Mismatch tolerance for an order-`nf` factorization whose data and
/// factors are bounded by `scale`: `16·ε·nf²·√nf·scale` — a worst-case
/// deterministic bound with statistical headroom on top, so genuine
/// rounding never trips it while any corruption of a factor element
/// (O(scale) against a tolerance that is O(ε·poly(n)·scale)) does.
fn factor_tol<R: RealScalar>(nf: usize, scale: R) -> R {
    let nfr = R::from_usize(nf.max(1));
    R::from_f64(16.0) * R::EPS * nfr * nfr * nfr.sqrt() * scale
}

/// Factor applied when re-verifying after a recovery re-run.
fn loose<R: RealScalar>(tol: R) -> R {
    tol * R::from_f64(64.0)
}

/// Checksum state of a factorization: row sums of the input, the
/// magnitude of the input, and — under `Recover` — a snapshot of it.
pub(crate) struct FactorCheck<T: Scalar> {
    w: Vec<T>,
    maxa0: T::Real,
    snap: Option<Vec<T>>,
}

// ---------------------------------------------------------------------
// GETRF: P·A = L·U  ⇒  L·(U·e) = P·(A·e)
// ---------------------------------------------------------------------

/// Encodes the LU row-sum checksum `w = A·e` before the factorization
/// overwrites `A`.
pub(crate) fn getrf_encode<T: Scalar>(
    pol: AbftPolicy,
    m: usize,
    n: usize,
    a: &[T],
    lda: usize,
) -> FactorCheck<T> {
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Lapack, "getrf", 0, 0);
        let mut w = vec![T::zero(); m];
        let mut maxa0 = T::Real::zero();
        for j in 0..n {
            let col = &a[j * lda..j * lda + m];
            for (wi, &x) in w.iter_mut().zip(col) {
                *wi += x;
                maxa0 = maxa0.maxr(x.abs1());
            }
        }
        let snap = if pol.recover() {
            Some(a.to_vec())
        } else {
            None
        };
        FactorCheck { w, maxa0, snap }
    })
}

/// First row where `L·(U·e)` strays from the pivoted input row sums by
/// more than the tolerance, or `None` when the factors check out. The
/// tolerance depends on the factors' magnitude, which is accumulated
/// for free while the checksum passes touch every element once;
/// `tol_of` maps that magnitude to the tolerance.
fn getrf_bad_row<T: Scalar>(
    w0: &[T],
    m: usize,
    n: usize,
    a: &[T],
    lda: usize,
    ipiv: &[i32],
    tol_of: impl Fn(T::Real) -> T::Real,
) -> Option<usize> {
    let mn = m.min(n);
    // Pivoted input row sums: the interchanges applied in factorization
    // order, exactly as laswp applied them to A.
    let mut w = w0.to_vec();
    for i in 0..mn {
        let p = (ipiv[i] - 1) as usize;
        if p != i {
            w.swap(i, p);
        }
    }
    // t = U·e over the stored upper trapezoid, accumulated column by
    // column so every inner loop walks a contiguous column prefix (a
    // row-by-row sweep would stride by `lda` and miss cache on every
    // element — an O(n²) pass that costs like O(n³)). The prefix rows
    // of each column are exactly the U part, so the factors' magnitude
    // accumulates here for free.
    let mut maxlu = T::Real::zero();
    let mut t = vec![T::zero(); mn];
    for j in 0..n {
        let col = &a[j * lda..];
        for (ti, &x) in t.iter_mut().zip(col).take(j + 1) {
            *ti += x;
            maxlu = maxlu.maxr(x.abs1());
        }
    }
    // r = L·t with L's implicit unit diagonal, again column-major: each
    // column l of L contributes a[i,l]·t[l] to the rows below it — the
    // suffix rows are exactly the L part, completing the magnitude.
    let mut r = vec![T::zero(); m];
    r[..mn].copy_from_slice(&t);
    for (l, &tl) in t.iter().enumerate() {
        let col = &a[l * lda..l * lda + m];
        for (ri, &x) in r.iter_mut().zip(col).skip(l + 1) {
            *ri += x * tl;
            maxlu = maxlu.maxr(x.abs1());
        }
    }
    let tol = tol_of(maxlu);
    (0..m).find(|&i| exceeds(r[i] - w[i], tol))
}

/// Verifies the LU checksum after the factorization; on mismatch either
/// recovers (restore the snapshot, re-run serially via `rerun`, check
/// again) or parks a pending soft fault, per policy. Returns the `info`
/// the caller should report — the re-run's when recovery ran.
#[allow(clippy::too_many_arguments)]
pub(crate) fn getrf_verify<T: Scalar>(
    ck: FactorCheck<T>,
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    ipiv: &mut [i32],
    info: i32,
    nb: usize,
    rerun: impl FnOnce(&mut [T], &mut [i32]) -> i32,
) -> i32 {
    // A positive info means the factorization stopped at an exact zero
    // pivot; the checksum identity only holds for completed factors.
    if info != 0 {
        return info;
    }
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Lapack, "getrf", 0, 0);
        abft::note_check();
        let tol_of = |maxlu: T::Real| factor_tol(m.max(n), maxlu + ck.maxa0);
        let nb = nb.max(1);
        let Some(bad) = getrf_bad_row(&ck.w, m, n, a, lda, ipiv, tol_of) else {
            return info;
        };
        let Some(snap) = ck.snap.as_deref() else {
            abft::raise("getrf", bad / nb);
            return info;
        };
        a.copy_from_slice(snap);
        let new_info = rerun(a, ipiv);
        if new_info != 0 {
            // The clean run succeeded, so a failing re-run is itself a
            // fault that recovery could not clear.
            abft::raise("getrf", bad / nb);
            return new_info;
        }
        match getrf_bad_row(&ck.w, m, n, a, lda, ipiv, |mx| loose(tol_of(mx))) {
            None => {
                abft::note_detection();
                abft::note_recovery();
            }
            Some(b) => abft::raise("getrf", b / nb),
        }
        new_info
    })
}

// ---------------------------------------------------------------------
// POTRF: A = L·Lᴴ (Lower) / A = Uᴴ·U (Upper)  ⇒  factor·(factorᴴ·e) = A·e
// ---------------------------------------------------------------------

/// Encodes the Cholesky row-sum checksum `w = A·e` from the stored
/// triangle (the other half supplied by Hermitian symmetry; the
/// diagonal read as real, exactly as the factorization reads it).
pub(crate) fn potrf_encode<T: Scalar>(
    pol: AbftPolicy,
    uplo: Uplo,
    n: usize,
    a: &[T],
    lda: usize,
) -> FactorCheck<T> {
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Lapack, "potrf", 0, 0);
        let mut w = vec![T::zero(); n];
        let mut maxa0 = T::Real::zero();
        for j in 0..n {
            let d = T::from_real(a[j + j * lda].re());
            w[j] += d;
            maxa0 = maxa0.maxr(d.abs1());
            let (lo, hi) = match uplo {
                Uplo::Upper => (0, j),
                Uplo::Lower => (j + 1, n),
            };
            for i in lo..hi {
                let x = a[i + j * lda];
                maxa0 = maxa0.maxr(x.abs1());
                // Stored element A[i,j] also stands in for A[j,i] = conj.
                w[i] += x;
                w[j] += x.conj();
            }
        }
        let snap = if pol.recover() {
            Some(a.to_vec())
        } else {
            None
        };
        FactorCheck { w, maxa0, snap }
    })
}

/// First row where the factor checksum strays from the input row sums
/// by more than the tolerance. As in [`getrf_bad_row`], the factor's
/// magnitude accumulates while the first checksum pass touches every
/// stored element; `tol_of` maps it to the tolerance.
fn potrf_bad_row<T: Scalar>(
    w: &[T],
    uplo: Uplo,
    n: usize,
    a: &[T],
    lda: usize,
    tol_of: impl Fn(T::Real) -> T::Real,
) -> Option<usize> {
    // Both passes walk contiguous column segments: a row-by-row sweep of
    // the `lda`-strided storage would miss cache on every element.
    let mut maxl = T::Real::zero();
    let mut t = vec![T::zero(); n];
    let mut r = vec![T::zero(); n];
    match uplo {
        Uplo::Lower => {
            // t = Lᴴ·e: conjugated column sums of L (column suffixes).
            for (i, ti) in t.iter_mut().enumerate() {
                let mut s = T::zero();
                for &x in &a[i + i * lda..n + i * lda] {
                    s += x.conj();
                    maxl = maxl.maxr(x.abs1());
                }
                *ti = s;
            }
            // r = L·t: column l scales into the rows at and below it.
            for (l, &tl) in t.iter().enumerate() {
                let col = &a[l * lda..l * lda + n];
                for (ri, &x) in r.iter_mut().zip(col).skip(l) {
                    *ri += x * tl;
                }
            }
        }
        Uplo::Upper => {
            // t = U·e: row sums of U, accumulated by column prefix.
            for j in 0..n {
                let col = &a[j * lda..];
                for (ti, &x) in t.iter_mut().zip(col).take(j + 1) {
                    *ti += x;
                    maxl = maxl.maxr(x.abs1());
                }
            }
            // r = Uᴴ·t: conjugated dot of column prefix i with t.
            for (i, ri) in r.iter_mut().enumerate() {
                let mut s = T::zero();
                for (&x, &tl) in a[i * lda..i * lda + i + 1].iter().zip(&t) {
                    s += x.conj() * tl;
                }
                *ri = s;
            }
        }
    }
    let tol = tol_of(maxl);
    (0..n).find(|&i| exceeds(r[i] - w[i], tol))
}

/// Verifies the Cholesky checksum; recovery semantics as in
/// [`getrf_verify`].
pub(crate) fn potrf_verify<T: Scalar>(
    ck: FactorCheck<T>,
    uplo: Uplo,
    n: usize,
    a: &mut [T],
    lda: usize,
    info: i32,
    nb: usize,
    rerun: impl FnOnce(&mut [T]) -> i32,
) -> i32 {
    // A positive info means the matrix was not positive definite and the
    // factorization aborted mid-way; there is nothing to verify.
    if info != 0 {
        return info;
    }
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Lapack, "potrf", 0, 0);
        abft::note_check();
        let tol_of = |maxl: T::Real| factor_tol(n, maxl * maxl + ck.maxa0);
        let nb = nb.max(1);
        let Some(bad) = potrf_bad_row(&ck.w, uplo, n, a, lda, tol_of) else {
            return info;
        };
        let Some(snap) = ck.snap.as_deref() else {
            abft::raise("potrf", bad / nb);
            return info;
        };
        a.copy_from_slice(snap);
        let new_info = rerun(a);
        if new_info != 0 {
            abft::raise("potrf", bad / nb);
            return new_info;
        }
        match potrf_bad_row(&ck.w, uplo, n, a, lda, |mx| loose(tol_of(mx))) {
            None => {
                abft::note_detection();
                abft::note_recovery();
            }
            Some(b) => abft::raise("potrf", b / nb),
        }
        new_info
    })
}

/// Silent-corruption hook for the factorizations (feature-gated like the
/// BLAS stripe hooks): offers the diagonal element at the head of each
/// `nb`-block to the one-shot injector, so a test can aim corruption at
/// a chosen block of the computed factors.
#[cfg(feature = "fault-inject")]
pub(crate) fn inject_factor<T: Scalar>(
    routine: &'static str,
    mn: usize,
    nb: usize,
    a: &mut [T],
    lda: usize,
) {
    if !abft::inject::is_armed() {
        return;
    }
    let nb = nb.max(1);
    let mut blk = 0usize;
    let mut j = 0usize;
    while j < mn {
        if abft::inject::maybe_corrupt(routine, blk, &mut a[j + j * lda]) {
            return;
        }
        j += nb;
        blk += 1;
    }
}
