//! Huang–Abraham checksum layer for the Level-3 operations.
//!
//! Algorithm-based fault tolerance (ABFT) exploits the fact that the
//! Level-3 operations preserve linear invariants: for the update
//! `C = α·op(A)·op(B) + β·C` the column sums satisfy
//! `eᵀC = eᵀC₀·β + α·(eᵀop(A))·op(B)`, an O(n²) identity protecting an
//! O(n³) computation. This module encodes the invariant before the
//! compute kernel runs, verifies it afterwards against a norm-scaled
//! tolerance, and — under [`AbftPolicy::Recover`] — maps the offending
//! columns to the column bands of the call's band driver, restores those
//! bands from a snapshot and re-runs the call's own band body on them,
//! which reproduces the fault-free result bit for bit (a band's bits do
//! not depend on how the call was cut). One function, [`recover_bands`],
//! does that for every protected operation.
//!
//! Under [`AbftPolicy::Verify`] a persistent mismatch is parked as a
//! pending [`la_core::abft::SoftFault`] that the driver layer surfaces
//! as `INFO = -102` through `ERINFO`.
//!
//! The checks engage only for operations at or above the parallel-flop
//! threshold (`TuneConfig::par_flops`) — the same "large operation"
//! boundary the fork decision uses — so the per-call overhead stays
//! a lower-order term. Non-finite discrepancies are never flagged: a
//! NaN/Inf in the data is the province of the `except` screening layer,
//! not a soft fault.

use la_core::abft::{self, AbftPolicy};
use la_core::{probe, Diag, MatMut, MatRef, RealScalar, Scalar, Trans, Uplo};

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

/// Restores columns `j0..j0+w` of `c` from a snapshot of its full
/// backing slice (same layout, same lda).
fn restore_cols<T: Scalar>(c: &mut MatMut<'_, T>, snap: &[T], j0: usize, w: usize) {
    let (rows, ld) = (c.nrows(), c.lda());
    for j in j0..j0 + w {
        c.col_mut(j).copy_from_slice(&snap[j * ld..j * ld + rows]);
    }
}

/// Factor applied to the tolerance when re-verifying a recovered band.
fn loose<R: RealScalar>(tol: R) -> R {
    tol * R::from_f64(64.0)
}

/// The one verification tail of the banded Level-3 operations. `diff(c, j)`
/// is column `j`'s checksum discrepancy; a column past `tol` marks its band
/// (`j / width`) bad. Without a snapshot (`Verify`) the first bad band is
/// parked as a soft fault. With one (`Recover`) every bad band is restored
/// from it and re-run through `body` — the call's own band body — and then
/// re-checked against the loose tolerance: clean counts a detection and a
/// recovery, still bad parks the fault.
fn recover_bands<T: Scalar, F>(
    routine: &'static str,
    width: usize,
    tol: T::Real,
    snap: Option<&[T]>,
    mut c: MatMut<'_, T>,
    diff: impl Fn(&MatMut<'_, T>, usize) -> T,
    body: &F,
) where
    F: Fn(usize, MatMut<'_, T>),
{
    let (m, n) = (c.nrows(), c.ncols());
    let mut bad: Vec<usize> = Vec::new();
    for j in 0..n {
        if exceeds(diff(&c, j), tol) && bad.last() != Some(&(j / width)) {
            bad.push(j / width);
        }
    }
    if bad.is_empty() {
        return;
    }
    let Some(snap) = snap else {
        abft::raise(routine, bad[0]);
        return;
    };
    let cols = |t: usize| t * width..n.min((t + 1) * width);
    for &t in &bad {
        let (j0, w) = (cols(t).start, cols(t).len());
        restore_cols(&mut c, snap, j0, w);
        body(j0, c.rb().subview(0, j0, m, w));
    }
    let ltol = loose(tol);
    match bad
        .iter()
        .find(|&&t| cols(t).any(|j| exceeds(diff(&c, j), ltol)))
    {
        None => {
            abft::note_detection();
            abft::note_recovery();
        }
        Some(&t) => abft::raise(routine, t),
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

/// Verifies a column checksum — `sum(c, j)` is the sum the check covers in
/// column `j` of the output — and recovers or reports per policy through
/// [`recover_bands`].
pub(crate) fn verify_cols<T: Scalar, F>(
    routine: &'static str,
    ck: ColCheck<T>,
    width: usize,
    body: &F,
    c: MatMut<'_, T>,
    sum: impl Fn(&MatMut<'_, T>, usize) -> T,
) where
    F: Fn(usize, MatMut<'_, T>),
{
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Blas, routine, 0, 0);
        abft::note_check();
        let diff = |c: &MatMut<'_, T>, j: usize| sum(c, j) - ck.expect[j];
        recover_bands(routine, width, ck.tol, ck.snap.as_deref(), c, diff, body);
    })
}

/// The sum of `x`: the column sums the checksums of the rank-k update and
/// of the products compare.
pub(crate) fn sum<T: Scalar>(x: &[T]) -> T {
    let mut s = T::zero();
    for &v in x {
        s += v;
    }
    s
}

// ---------------------------------------------------------------------
// SYRK / HERK
// ---------------------------------------------------------------------

/// Element of `op(A)` as the rank-k band body reads it.
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
/// the conjugations placed exactly as the band body places them.
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
        // sums are dotted with — conjugated as the band body conjugates them.
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

/// Verifies the TRSM checksum (`v·x_j` against the encoded `eᵀB_j`) and
/// recovers or reports per policy through [`recover_bands`].
pub(crate) fn trsm_verify<T: Scalar, F>(ck: TrsmCheck<T>, width: usize, solve: &F, b: MatMut<'_, T>)
where
    F: Fn(usize, MatMut<'_, T>),
{
    probe::with_abft(|| {
        let _s = probe::span(probe::Layer::Blas, "trsm", 0, 0);
        abft::note_check();
        // The solve's backward error is a multiple of ‖A‖·‖X‖, so the
        // tolerance is scaled by the magnitude of the *computed* solution.
        let maxx = maxabs(b.as_ref());
        let mr = T::Real::from_usize(b.nrows());
        let tol = T::Real::from_f64(64.0) * T::Real::EPS * mr * (mr * ck.maxa * maxx + ck.maxb);
        let diff = |b: &MatMut<'_, T>, j: usize| {
            let col = b.col(j);
            let mut s = T::zero();
            for (i, &vi) in ck.v.iter().enumerate() {
                s += vi * col[i];
            }
            s - ck.expect[j]
        };
        recover_bands("trsm", width, tol, ck.snap.as_deref(), b, diff, solve);
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes the tests that arm the process-wide corruption slot or
    /// run multi-band calls that could fire another test's arming.
    pub(crate) static ARMED: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn nonfinite_discrepancies_are_not_faults() {
        assert!(!exceeds(f64::NAN, 1e-12));
        assert!(!exceeds(f64::INFINITY, 1e-12));
        assert!(exceeds(1.0f64, 1e-12));
        assert!(!exceeds(1e-13f64, 1e-12));
    }

    /// End-to-end exercise of the injection → detection → recovery path
    /// for one representative operation; the full routine × band ×
    /// policy sweep lives in the workspace `degrade` test.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn gemm_corruption_is_detected_and_recovered() {
        use la_core::abft::inject::{arm, is_armed, CorruptKind, Corruption};
        use la_core::abft::{clear_pending, take_pending, with_policy};
        use la_core::tune;
        let _armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
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
