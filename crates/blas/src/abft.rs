//! Huang–Abraham checksum layer for the Level-3 operations.
//!
//! Algorithm-based fault tolerance (ABFT) exploits the fact that the
//! Level-3 operations preserve linear invariants: for the update
//! `C = α·op(A)·op(B) + β·C` the column sums satisfy
//! `eᵀC = eᵀC₀·β + α·(eᵀop(A))·op(B)`, an O(n²) identity protecting an
//! O(n³) computation. This module encodes the invariant before the
//! compute kernel runs, verifies it afterwards against a norm-scaled
//! tolerance, and — under [`AbftPolicy::Recover`] — localizes the
//! offending column stripe, restores it from a snapshot and re-runs the
//! exact per-stripe serial kernel under the same [`PackedPlan`], which
//! reproduces the fault-free result bit for bit (the striped and serial
//! paths share per-column summation order and the same microkernel).
//!
//! Under [`AbftPolicy::Verify`] a persistent mismatch is parked as a
//! pending [`la_core::abft::SoftFault`] that the driver layer surfaces
//! as `INFO = -102` through `ERINFO`.
//!
//! The checks engage only for operations at or above the parallel-flop
//! threshold (`TuneConfig::par_flops`) — the same "large operation"
//! boundary the striping decision uses — so the per-call overhead stays
//! a lower-order term. Non-finite discrepancies are never flagged: a
//! NaN/Inf in the data is the province of the `except` screening layer,
//! not a soft fault.

use la_core::abft::{self, AbftPolicy};
use la_core::{probe, Diag, MatMut, MatRef, RealScalar, Scalar, Trans, Uplo};

use crate::kernel::PackedPlan;
use crate::l3::{gemm_serial, syrk_block, trmm_left_cols, SYRK_NB};

/// Policy gate shared by every protected entry point: returns the active
/// policy when ABFT is on *and* the operation is at or above the
/// parallel-flop threshold.
pub(crate) fn active(ctx: &la_core::Ctx, flops: u128) -> Option<AbftPolicy> {
    (ctx.abft.enabled() && flops >= ctx.tune.par_flops as u128).then_some(ctx.abft)
}

fn cjs<T: Scalar>(conj: bool, x: T) -> T {
    if conj {
        x.conj()
    } else {
        x
    }
}

/// `max |x|₁` over the stored region of a view.
fn maxabs<T: Scalar>(a: MatRef<'_, T>) -> T::Real {
    let mut m = T::Real::zero();
    for j in 0..a.ncols() {
        for &x in a.col(j) {
            m = m.maxr(x.abs1());
        }
    }
    m
}

/// `true` when a checksum discrepancy is a genuine (finite) fault.
fn exceeds<T: Scalar>(diff: T, tol: T::Real) -> bool {
    let d = diff.abs1();
    d.is_finite() && d > tol
}

/// Start column and width of stripe `t` under the same split
/// `stripe_cols` uses.
fn stripe_bounds(n: usize, stripes: usize, t: usize) -> (usize, usize) {
    let base = n / stripes;
    let extra = n % stripes;
    (t * base + t.min(extra), base + usize::from(t < extra))
}

/// Stripe index owning column `j` (inverse of [`stripe_bounds`]).
fn stripe_of(n: usize, stripes: usize, j: usize) -> usize {
    let base = n / stripes;
    let extra = n % stripes;
    if base == 0 {
        return j;
    }
    let cut = extra * (base + 1);
    if j < cut {
        j / (base + 1)
    } else {
        extra + (j - cut) / base
    }
}

/// Indices of stripes containing at least one column whose checksum
/// discrepancy exceeds `tol`.
fn bad_stripes<T: Scalar>(
    n: usize,
    stripes: usize,
    tol: T::Real,
    expect: &[T],
    actual: impl Fn(usize) -> T,
) -> Vec<usize> {
    let mut bad: Vec<usize> = Vec::new();
    for (j, &e) in expect.iter().enumerate().take(n) {
        if exceeds(actual(j) - e, tol) {
            let t = stripe_of(n, stripes, j);
            if bad.last() != Some(&t) {
                bad.push(t);
            }
        }
    }
    bad
}

/// Restores columns `j0..j0+w` of `c` from a snapshot of its full
/// backing slice (same layout, same lda).
fn restore_cols<T: Scalar>(c: &mut MatMut<'_, T>, snap: &[T], j0: usize, w: usize) {
    let (rows, ld) = (c.nrows(), c.lda());
    for j in j0..j0 + w {
        c.col_mut(j).copy_from_slice(&snap[j * ld..j * ld + rows]);
    }
}

/// Factor applied to the tolerance when re-verifying a recovered stripe.
fn loose<R: RealScalar>(tol: R) -> R {
    tol * R::from_f64(64.0)
}

/// Shared outcome bookkeeping: nothing failed → silent pass; recovery
/// succeeded → detection + recovery counters; otherwise park a pending
/// soft fault (which counts the detection itself).
fn conclude(routine: &'static str, recovered: bool, still_bad: Option<usize>) {
    match still_bad {
        None if recovered => {
            abft::note_detection();
            abft::note_recovery();
        }
        None => {}
        Some(block) => abft::raise(routine, block),
    }
}

// ---------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------

/// Checksum state for a column-checksummed operation: per-column expected
/// sums, the mismatch tolerance, and (under `Recover`) a snapshot of the
/// output as it stood when the checksum was encoded.
pub(crate) struct ColCheck<T: Scalar> {
    expect: Vec<T>,
    tol: T::Real,
    snap: Option<Vec<T>>,
}

/// Encodes the GEMM column checksum. Must be called after the β-scaling
/// of `C` and before the product accumulates: `expect[j] = eᵀC_j +
/// α·(eᵀop(A))·op(B)_j`. `a` and `b` are the *stored* operands (op maps
/// into them via the trans flags); `c` is `m × n`.
pub(crate) fn gemm_encode<T: Scalar>(
    pol: AbftPolicy,
    transa: Trans,
    transb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatRef<'_, T>,
) -> ColCheck<T> {
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Blas, "gemm", 0, 0);
        let (m, n) = (c.nrows(), c.ncols());
        let k = if transa == Trans::No {
            a.ncols()
        } else {
            a.nrows()
        };
        let cja = transa == Trans::ConjTrans;
        let cjb = transb == Trans::ConjTrans;
        // v = eᵀ·op(A), length k.
        let mut v = vec![T::zero(); k];
        if transa == Trans::No {
            for (l, vl) in v.iter_mut().enumerate() {
                let mut s = T::zero();
                for &x in a.col(l) {
                    s += x;
                }
                *vl = s;
            }
        } else {
            for i in 0..m {
                let col = a.col(i);
                for (l, vl) in v.iter_mut().enumerate() {
                    *vl += cjs(cja, col[l]);
                }
            }
        }
        let mut expect = vec![T::zero(); n];
        for (j, ej) in expect.iter_mut().enumerate() {
            let mut cs = T::zero();
            for &x in c.col(j) {
                cs += x;
            }
            let mut dot = T::zero();
            if transb == Trans::No {
                let col = b.col(j);
                for (l, &vl) in v.iter().enumerate() {
                    dot += vl * col[l];
                }
            } else {
                for (l, &vl) in v.iter().enumerate() {
                    dot += vl * cjs(cjb, b.at(j, l));
                }
            }
            *ej = cs + alpha * dot;
        }
        let maxa = maxabs(a);
        let maxb = maxabs(b);
        let maxc = maxabs(c);
        let tol = T::Real::from_f64(32.0)
            * T::Real::EPS
            * T::Real::from_usize(m)
            * (T::Real::from_usize(k) * alpha.abs1() * maxa * maxb + maxc);
        let snap = if pol.recover() {
            Some(c.as_slice().to_vec())
        } else {
            None
        };
        ColCheck { expect, tol, snap }
    })
}

/// Verifies the GEMM column checksum; on mismatch recovers the offending
/// stripes (restore + serial re-run of the exact band kernel under the
/// same plan) or parks a pending soft fault, per policy.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_verify<T: Scalar>(
    ck: ColCheck<T>,
    stripes: usize,
    plan: &PackedPlan<T>,
    transa: Trans,
    transb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    mut c: MatMut<'_, T>,
) {
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Blas, "gemm", 0, 0);
        abft::note_check();
        let (m, n) = (c.nrows(), c.ncols());
        let k = if transa == Trans::No {
            a.ncols()
        } else {
            a.nrows()
        };
        let colsum = |c: &MatMut<'_, T>, j: usize| {
            let mut s = T::zero();
            for &x in c.col(j) {
                s += x;
            }
            s
        };
        let bad = bad_stripes(n, stripes, ck.tol, &ck.expect, |j| colsum(&c, j));
        if bad.is_empty() {
            return;
        }
        let Some(snap) = ck.snap.as_deref() else {
            abft::raise("gemm", bad[0]);
            return;
        };
        for &t in &bad {
            let (j0, w) = stripe_bounds(n, stripes, t);
            restore_cols(&mut c, snap, j0, w);
            let bsub = match transb {
                Trans::No => b.subview(0, j0, k, w),
                _ => b.subview(j0, 0, w, k),
            };
            gemm_serial(
                plan,
                transa,
                transb,
                alpha,
                a,
                bsub,
                c.rb().subview(0, j0, m, w),
            );
        }
        let ltol = loose(ck.tol);
        let still = bad.iter().copied().find(|&t| {
            let (j0, w) = stripe_bounds(n, stripes, t);
            (j0..j0 + w).any(|j| exceeds(colsum(&c, j) - ck.expect[j], ltol))
        });
        conclude("gemm", true, still);
    })
}

// ---------------------------------------------------------------------
// SYRK / HERK
// ---------------------------------------------------------------------

/// Element of `op(A)` as `syrk_block` reads it.
fn ael<T: Scalar>(trans: Trans, a: MatRef<'_, T>, i: usize, l: usize) -> T {
    if trans == Trans::No {
        a.at(i, l)
    } else {
        a.at(l, i)
    }
}

/// Encodes the rank-k update checksum over the stored triangle: for each
/// column `j`, the sum of the updated rows must land on `β·eᵀC₀_j +
/// α·Σ_l S_l(j)·r(j,l)` where `S_l(j)` is a running prefix (Upper) or
/// suffix (Lower) sum over the column term and `r` the row term, with
/// the conjugations placed exactly as `syrk_block` places them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn syrk_encode<T: Scalar>(
    pol: AbftPolicy,
    conj: bool,
    uplo: Uplo,
    trans: Trans,
    k: usize,
    alpha: T,
    a: MatRef<'_, T>,
    beta: T,
    c: MatRef<'_, T>,
) -> ColCheck<T> {
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Blas, "syrk", 0, 0);
        let n = c.nrows();
        // Column term accumulated into the running sums, and row term the
        // sums are dotted with — conjugated as syrk_block conjugates them.
        let colterm = |i: usize, l: usize| {
            let x = ael(trans, a, i, l);
            cjs(conj && trans != Trans::No, x)
        };
        let rowterm = |j: usize, l: usize| {
            let x = ael(trans, a, j, l);
            cjs(conj && trans == Trans::No, x)
        };
        // β·(sum of the updated rows of C₀), with the Hermitian case
        // reading only the real part of the stored diagonal, as the
        // kernel's trailing `from_real` enforces.
        let colsum0 = |j: usize| {
            let (lo, hi) = match uplo {
                Uplo::Upper => (0, j + 1),
                Uplo::Lower => (j, n),
            };
            let mut s = T::zero();
            for i in lo..hi {
                let x = c.at(i, j);
                s += if conj && i == j {
                    T::from_real(x.re())
                } else {
                    x
                };
            }
            s
        };
        let mut expect = vec![T::zero(); n];
        let mut run = vec![T::zero(); k];
        let col = |j: usize, run: &mut [T]| {
            for (l, rl) in run.iter_mut().enumerate() {
                *rl += colterm(j, l);
            }
            let mut dot = T::zero();
            for (l, &rl) in run.iter().enumerate() {
                dot += rl * rowterm(j, l);
            }
            beta * colsum0(j) + alpha * dot
        };
        match uplo {
            Uplo::Upper => {
                for j in 0..n {
                    expect[j] = col(j, &mut run);
                }
            }
            Uplo::Lower => {
                for j in (0..n).rev() {
                    expect[j] = col(j, &mut run);
                }
            }
        }
        let maxa = maxabs(a);
        let maxc = maxabs(c);
        let tol = T::Real::from_f64(32.0)
            * T::Real::EPS
            * T::Real::from_usize(n)
            * (T::Real::from_usize(k) * alpha.abs1() * maxa * maxa + beta.abs1() * maxc);
        let snap = if pol.recover() {
            Some(c.as_slice().to_vec())
        } else {
            None
        };
        ColCheck { expect, tol, snap }
    })
}

/// Verifies the rank-k update checksum; recovery restores and re-runs
/// the offending `SYRK_NB` column band(s) through `syrk_block`, the
/// same band sweep both the serial and the dealt-parallel paths execute.
#[allow(clippy::too_many_arguments)]
pub(crate) fn syrk_verify<T: Scalar>(
    ck: ColCheck<T>,
    plan: &PackedPlan<T>,
    conj: bool,
    uplo: Uplo,
    trans: Trans,
    k: usize,
    alpha: T,
    a: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Blas, "syrk", 0, 0);
        abft::note_check();
        let n = c.nrows();
        let colsum = |c: &MatMut<'_, T>, j: usize| {
            let (lo, hi) = match uplo {
                Uplo::Upper => (0, j + 1),
                Uplo::Lower => (j, n),
            };
            let mut s = T::zero();
            for &x in &c.col(j)[lo..hi] {
                s += x;
            }
            s
        };
        let mut bad: Vec<usize> = Vec::new();
        for j in 0..n {
            if exceeds(colsum(&c, j) - ck.expect[j], ck.tol) {
                let blk = j / SYRK_NB;
                if bad.last() != Some(&blk) {
                    bad.push(blk);
                }
            }
        }
        if bad.is_empty() {
            return;
        }
        let Some(snap) = ck.snap.as_deref() else {
            abft::raise("syrk", bad[0]);
            return;
        };
        for &blk in &bad {
            let j0 = blk * SYRK_NB;
            let jb = SYRK_NB.min(n - j0);
            restore_cols(&mut c, snap, j0, jb);
            syrk_block(
                plan,
                conj,
                uplo,
                trans,
                k,
                alpha,
                a,
                beta,
                j0,
                jb,
                c.rb().subview(0, j0, n, jb),
            );
        }
        let ltol = loose(ck.tol);
        let still = bad.iter().copied().find(|&blk| {
            let j0 = blk * SYRK_NB;
            let jb = SYRK_NB.min(n - j0);
            (j0..j0 + jb).any(|j| exceeds(colsum(&c, j) - ck.expect[j], ltol))
        });
        conclude("syrk", true, still);
    })
}

// ---------------------------------------------------------------------
// TRSM / TRMM (Side::Left — the Right side recurses through Left)
// ---------------------------------------------------------------------

/// `v = eᵀ·op(A)` over the stored triangle including the implicit unit
/// diagonal — the checksum row vector shared by the triangular
/// operations.
fn tri_colsums<T: Scalar>(uplo: Uplo, trans: Trans, diag: Diag, a: MatRef<'_, T>) -> Vec<T> {
    let m = a.nrows();
    let cjt = trans == Trans::ConjTrans;
    let mut v = vec![T::zero(); m];
    for jcol in 0..m {
        let (lo, hi) = match uplo {
            Uplo::Upper => (0, jcol),
            Uplo::Lower => (jcol + 1, m),
        };
        for i in lo..hi {
            let x = a.at(i, jcol);
            if trans == Trans::No {
                // A[i, jcol] sits in column jcol of op(A).
                v[jcol] += x;
            } else {
                // op(A)[jcol, i] = cj(A[i, jcol]) sits in column i.
                v[i] += cjs(cjt, x);
            }
        }
    }
    for (i, vi) in v.iter_mut().enumerate() {
        *vi += if diag == Diag::Unit {
            T::one()
        } else {
            cjs(cjt, a.at(i, i))
        };
    }
    v
}

/// Checksum state for the triangular solve: `eᵀ·op(A)` and the column
/// sums of the α-scaled right-hand sides, against which `v·x_j` is
/// checked after the solve.
pub(crate) struct TrsmCheck<T: Scalar> {
    v: Vec<T>,
    expect: Vec<T>,
    maxa: T::Real,
    maxb: T::Real,
    snap: Option<Vec<T>>,
}

/// Encodes the TRSM checksum. Must be called after α has been applied to
/// `B` and before the solve overwrites it: `op(A)·X = B` implies
/// `(eᵀop(A))·X_j = eᵀB_j`.
pub(crate) fn trsm_encode<T: Scalar>(
    pol: AbftPolicy,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
) -> TrsmCheck<T> {
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Blas, "trsm", 0, 0);
        let n = b.ncols();
        let v = tri_colsums(uplo, trans, diag, a);
        let mut expect = vec![T::zero(); n];
        for (j, ej) in expect.iter_mut().enumerate() {
            let mut s = T::zero();
            for &x in b.col(j) {
                s += x;
            }
            *ej = s;
        }
        let maxa = maxabs(a).maxr(T::Real::one());
        let maxb = maxabs(b);
        let snap = if pol.recover() {
            Some(b.as_slice().to_vec())
        } else {
            None
        };
        TrsmCheck {
            v,
            expect,
            maxa,
            maxb,
            snap,
        }
    })
}

/// Verifies the TRSM checksum (`v·x_j` against the encoded `eᵀB_j`);
/// recovery restores the offending stripe and re-runs `solve` on it —
/// the column kernel the call chose for every stripe.
pub(crate) fn trsm_verify<T: Scalar>(
    ck: TrsmCheck<T>,
    stripes: usize,
    solve: impl Fn(MatMut<'_, T>),
    mut b: MatMut<'_, T>,
) {
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Blas, "trsm", 0, 0);
        abft::note_check();
        let (m, n) = (b.nrows(), b.ncols());
        let vx = |b: &MatMut<'_, T>, j: usize| {
            let col = b.col(j);
            let mut s = T::zero();
            for (i, &vi) in ck.v.iter().enumerate() {
                s += vi * col[i];
            }
            s
        };
        // The solve's backward error is a multiple of ‖A‖·‖X‖, so the
        // tolerance is scaled by the magnitude of the *computed* solution.
        let maxx = maxabs(b.as_ref());
        let mr = T::Real::from_usize(m);
        let tol = T::Real::from_f64(64.0) * T::Real::EPS * mr * (mr * ck.maxa * maxx + ck.maxb);
        let bad = bad_stripes(n, stripes, tol, &ck.expect, |j| vx(&b, j));
        if bad.is_empty() {
            return;
        }
        let Some(snap) = ck.snap.as_deref() else {
            abft::raise("trsm", bad[0]);
            return;
        };
        for &t in &bad {
            let (j0, w) = stripe_bounds(n, stripes, t);
            restore_cols(&mut b, snap, j0, w);
            solve(b.rb().subview(0, j0, m, w));
        }
        let ltol = loose(tol);
        let still = bad.iter().copied().find(|&t| {
            let (j0, w) = stripe_bounds(n, stripes, t);
            (j0..j0 + w).any(|j| exceeds(vx(&b, j) - ck.expect[j], ltol))
        });
        conclude("trsm", true, still);
    })
}

/// Encodes the TRMM checksum from the *unscaled* input `B₀`:
/// `eᵀ(α·op(A)·B₀)_j = α·(eᵀop(A))·B₀_j`, checked against the column
/// sums of the overwritten output.
pub(crate) fn trmm_encode<T: Scalar>(
    pol: AbftPolicy,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
) -> ColCheck<T> {
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Blas, "trmm", 0, 0);
        let (m, n) = (b.nrows(), b.ncols());
        let v = tri_colsums(uplo, trans, diag, a);
        let mut expect = vec![T::zero(); n];
        for (j, ej) in expect.iter_mut().enumerate() {
            let col = b.col(j);
            let mut s = T::zero();
            for (i, &vi) in v.iter().enumerate() {
                s += vi * col[i];
            }
            *ej = alpha * s;
        }
        let maxa = maxabs(a).maxr(T::Real::one());
        let maxb = maxabs(b);
        let mr = T::Real::from_usize(m);
        let tol = T::Real::from_f64(64.0) * T::Real::EPS * mr * mr * alpha.abs1() * maxa * maxb;
        let snap = if pol.recover() {
            Some(b.as_slice().to_vec())
        } else {
            None
        };
        ColCheck { expect, tol, snap }
    })
}

/// Verifies the TRMM column checksum; recovery restores the offending
/// stripe and re-runs `trmm_left_cols` on it under the same plan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn trmm_verify<T: Scalar>(
    ck: ColCheck<T>,
    stripes: usize,
    plan: &PackedPlan<T>,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: T,
    a: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Blas, "trmm", 0, 0);
        abft::note_check();
        let (m, n) = (b.nrows(), b.ncols());
        let colsum = |b: &MatMut<'_, T>, j: usize| {
            let mut s = T::zero();
            for &x in b.col(j) {
                s += x;
            }
            s
        };
        let bad = bad_stripes(n, stripes, ck.tol, &ck.expect, |j| colsum(&b, j));
        if bad.is_empty() {
            return;
        }
        let Some(snap) = ck.snap.as_deref() else {
            abft::raise("trmm", bad[0]);
            return;
        };
        for &t in &bad {
            let (j0, w) = stripe_bounds(n, stripes, t);
            restore_cols(&mut b, snap, j0, w);
            trmm_left_cols(
                plan,
                uplo,
                trans,
                diag,
                alpha,
                a,
                b.rb().subview(0, j0, m, w),
            );
        }
        let ltol = loose(ck.tol);
        let still = bad.iter().copied().find(|&t| {
            let (j0, w) = stripe_bounds(n, stripes, t);
            (j0..j0 + w).any(|j| exceeds(colsum(&b, j) - ck.expect[j], ltol))
        });
        conclude("trmm", true, still);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_bounds_and_inverse_agree() {
        for &(n, stripes) in &[(7usize, 3usize), (12, 4), (5, 8), (1, 1), (64, 5)] {
            let mut owner = vec![usize::MAX; n];
            for t in 0..stripes {
                let (j0, w) = stripe_bounds(n, stripes, t);
                for j in j0..(j0 + w).min(n) {
                    owner[j] = t;
                }
            }
            for j in 0..n {
                assert_eq!(
                    owner[j],
                    stripe_of(n, stripes, j),
                    "n={n} stripes={stripes} j={j}"
                );
            }
        }
    }

    #[test]
    fn nonfinite_discrepancies_are_not_faults() {
        assert!(!exceeds(f64::NAN, 1e-12));
        assert!(!exceeds(f64::INFINITY, 1e-12));
        assert!(exceeds(1.0f64, 1e-12));
        assert!(!exceeds(1e-13f64, 1e-12));
    }

    /// End-to-end exercise of the injection → detection → recovery path
    /// for one representative operation; the full routine × stripe ×
    /// policy sweep lives in the workspace `degrade` test.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn gemm_corruption_is_detected_and_recovered() {
        use la_core::abft::inject::{arm, is_armed, CorruptKind, Corruption};
        use la_core::abft::{clear_pending, take_pending, with_policy};
        use la_core::tune;
        let (m, n, k) = (24usize, 32usize, 24usize);
        let a: Vec<f64> = (0..m * k)
            .map(|i| ((i * 7 % 13) as f64 - 6.0) / 3.0)
            .collect();
        let b: Vec<f64> = (0..k * n)
            .map(|i| ((i * 5 % 11) as f64 - 5.0) / 4.0)
            .collect();
        let c0: Vec<f64> = (0..m * n)
            .map(|i| ((i * 3 % 7) as f64 - 3.0) / 2.0)
            .collect();
        let cfg = tune::TuneConfig {
            max_threads: 4,
            oversubscribe: true,
            par_flops: 0,
            ..tune::current()
        };
        let run = |c: &mut Vec<f64>| {
            crate::l3::gemm(Trans::No, Trans::No, m, n, k, 1.5, &a, m, &b, k, 0.5, c, m)
        };
        let clean = tune::with(cfg, || {
            let mut c = c0.clone();
            run(&mut c);
            c
        });

        // Verify policy: the corruption survives, a soft fault is parked.
        clear_pending();
        let corrupted = tune::with(cfg, || {
            with_policy(AbftPolicy::Verify, || {
                arm(Corruption {
                    routine: "gemm",
                    stripe: 1,
                    kind: CorruptKind::Scale,
                });
                let mut c = c0.clone();
                run(&mut c);
                c
            })
        });
        assert!(!is_armed(), "corruption must have fired");
        let fault = take_pending().expect("verify must park a soft fault");
        assert_eq!(fault.routine, "gemm");
        assert_eq!(fault.block, 1);
        assert_ne!(clean, corrupted);

        // Recover policy: the result is bit-for-bit the clean one.
        let recovered = tune::with(cfg, || {
            with_policy(AbftPolicy::Recover, || {
                arm(Corruption {
                    routine: "gemm",
                    stripe: 1,
                    kind: CorruptKind::FlipMantissaBit,
                });
                let mut c = c0.clone();
                run(&mut c);
                c
            })
        });
        assert!(!is_armed());
        assert!(take_pending().is_none(), "recovery must clear the fault");
        assert_eq!(clean, recovered, "recovery must be bitwise identical");
    }
}
