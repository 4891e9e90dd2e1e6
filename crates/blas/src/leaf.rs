//! The unblocked Level-2 leaves of the factorizations: the LU panel
//! ([`lu_leaf`], `xGETF2`) and the Cholesky leaf ([`chol_leaf`],
//! `xPOTF2`), beside the Level-3 steps ([`crate::lu_step`],
//! [`crate::chol_step`]) that work right of them.
//!
//! Both are plain Rust loops over contiguous columns, written so that the
//! compiler vectorizes them: no reduction carries a dependence from one
//! element to the next. [`crate::kernel::on_tier`] runs each one as
//! compiled for the widest SIMD tier the thread may use (AVX-512F, else
//! AVX2+FMA, else the generic build). For `f64` and `f32` on a `simd`
//! tier the LU leaf has an explicit vector body instead (`vector`, with
//! masked loads and stores for the last rows of a column and a vector pivot
//! search). Nothing here asks for a fused multiply-add, so the factors,
//! pivots and `info` are the same bits on every tier.

use la_core::{RealScalar, Scalar, Uplo};

use crate::kernel::{on_tier, reciprocal_is_safe, Leaf};

#[cfg(target_arch = "x86_64")]
mod vector;

/// Unblocked LU factorization with partial pivoting (`xGETF2`) of the
/// `m × n` matrix `a`: on exit `A = P·L·U`, unit-lower `L` below the
/// diagonal, `U` on and above it; `ipiv` (at least `min(m, n)` entries) is
/// 1-based. Returns `0`, or `j + 1` for the first `j` with `U(j, j)`
/// exactly zero.
///
/// The eliminations reach the columns right of a strip of four pivots
/// late: inside the strip each pivot updates the strip's remaining columns
/// at once (the pivot search, the row swaps and that rank-1 update are
/// done column by column), and everything further right receives the
/// whole strip in one pass (`apply_pivots`) instead of one pass per
/// pivot. Every element still sees the same subtractions in the same order
/// as the right-looking rank-1 form, so factors, pivots and `info` are that
/// form's, bit for bit, on every tier.
///
/// The multipliers below a pivot `d` are scaled as `xGETF2` scales them:
/// by `1/d` when [`crate::kernel::reciprocal_is_safe`] allows (`|d| ≥
/// sfmin`, or ±Inf or NaN), else divided by `d` one by one — a subnormal
/// pivot's reciprocal overflows, and `[[1e-310, 1], [5e-311, 2]]` would
/// factor to `L21 = Inf`, `U22 = −Inf` instead of 0.5 and 1.5.
///
/// The leaves' tier selector (`kernel::on_tier`'s rule) picks the body.
/// Complex types, and every type in the generic build, run the plain Rust
/// body as compiled for the tier. `f64` and `f32` on the AVX-512F or AVX2
/// tier run an explicit vector body on `zmm` or `ymm` registers: every pass
/// down a column runs whole registers, its last rows in one masked load and
/// store, so a column of any length runs at vector width; and the search
/// returns [`crate::l1::iamax`]'s index exactly — the first largest
/// modulus, the first NaN if there is one — from a pass that keeps
/// lane-wise maxima and a second that finds the first hit without a branch
/// on where it lies. Each element takes the same operations in the same
/// order, products rounded before their subtraction (no fused
/// multiply-add), so the bits do not depend on the body or the tier.
pub fn lu_leaf<T: Scalar>(m: usize, n: usize, a: &mut [T], lda: usize, ipiv: &mut [i32]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(body) = vector::body::<T>() {
        return body.lu(m, n, a, lda, ipiv);
    }
    on_tier(LuLeaf { m, n, a, lda, ipiv })
}

/// [`lu_leaf`]'s arguments.
struct LuLeaf<'a, T> {
    m: usize,
    n: usize,
    a: &'a mut [T],
    lda: usize,
    ipiv: &'a mut [i32],
}

impl<T: Scalar> Leaf for LuLeaf<'_, T> {
    type Out = i32;

    #[inline(always)]
    fn run(self) -> i32 {
        let LuLeaf { m, n, a, lda, ipiv } = self;
        let mut info = 0i32;
        let mn = m.min(n);
        let mut u = [T::zero(); STRIP * TILE_COLS];
        for j0 in (0..mn).step_by(STRIP) {
            let end = (j0 + STRIP).min(mn);
            for j in j0..end {
                // Pivot: largest |.| in column j at or below the diagonal.
                let p = j + crate::l1::iamax(m - j, &a[j + j * lda..], 1);
                ipiv[j] = (p + 1) as i32;
                if !a[p + j * lda].is_zero() {
                    if p != j {
                        // Swap full rows j and p.
                        for k in 0..n {
                            a.swap(j + k * lda, p + k * lda);
                        }
                    }
                    // Scale the multipliers: by the reciprocal under
                    // `xGETF2`'s rule, else one division each.
                    let pivot = a[j + j * lda];
                    let l = &mut a[j + 1 + j * lda..m + j * lda];
                    if reciprocal_is_safe(pivot) {
                        let inv = pivot.recip();
                        for x in l {
                            *x *= inv;
                        }
                    } else {
                        divide_by(l, pivot);
                    }
                } else if info == 0 {
                    info = (j + 1) as i32;
                }
                // Rank-1 update of the strip's remaining columns, in line:
                // three columns at most are too little work for a pass.
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
}

/// `x := x / d` element by element: the scaling of the multipliers below
/// a pivot whose reciprocal [`reciprocal_is_safe`] refuses (a subnormal
/// one). Rare, so kept out of the leaves' loops.
#[cold]
#[inline(never)]
fn divide_by<T: Scalar>(x: &mut [T], d: T) {
    for v in x {
        *v = *v / d;
    }
}

/// Most columns of `A` that [`strip_update`] folds into one pass over a
/// column of `C` — and so the width of the strips [`lu_leaf`] delays its
/// updates by.
const STRIP: usize = 4;

/// Columns of `U` that [`apply_pivots`] stages at a time.
const TILE_COLS: usize = 32;

/// Applies pivot columns `j0..j0 + d` (`1 ≤ d ≤ STRIP`; factored, their row
/// swaps done) to the columns `cols` right of them: the `d × d` unit-lower
/// solve on the pivots' own rows leaves `U(j0..j0 + d, cols)` there, then
/// the rows below get `x := (…(x − l₀u₀) − …) − l_{d−1}u_{d−1}` in one
/// pass. A zero `u` skips its term, as the rank-1 form skips a zero in the
/// pivot row.
#[inline(always)]
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

/// Delayed update by a strip of columns: `C := C − A·B`, `A` `m × k`,
/// `B` `k × n`, `C` `m × n`, unpacked, for a small depth `k` (the loop
/// takes [`STRIP`] columns of `A` at a time).
///
/// Each element of `C` is `((c − a₀b₀) − a₁b₁) − …` with the terms in
/// depth order and each product rounded before its subtraction — what `k`
/// successive rank-1 updates compute, bit for bit — but a column of `C` is
/// loaded and stored once per [`STRIP`] terms instead of once per term, and
/// two such columns share each load of `A` ([`fold_pair`]). A
/// term whose `B` entry is exactly zero is skipped (as `axpy` and the
/// rank-1 loops skip it), so an `Inf` in `A` meets no `0`. It runs inside
/// [`lu_leaf`], so on that leaf's tier; with no fused multiply-add the
/// result does not depend on the tier.
#[inline(always)]
fn strip_update<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    for l0 in (0..k).step_by(STRIP) {
        let d = STRIP.min(k - l0);
        let a = &a[l0 * lda..];
        // A full strip without a zero coefficient folds in one pass.
        let full = |x: &[T]| d == STRIP && x.iter().all(|t| !t.is_zero());
        let mut j = 0;
        while j < n {
            let x = &b[l0 + j * ldb..l0 + j * ldb + d];
            if !T::IS_COMPLEX && j + 1 < n {
                // Two such columns share one pass: each `A` entry is loaded
                // once for both. (A complex pair needs 16 coefficient
                // registers and spills: `cgetf2` 96 × 32 ran 2.4× slower.)
                let x1 = &b[l0 + (j + 1) * ldb..l0 + (j + 1) * ldb + d];
                if full(x) && full(x1) {
                    let (y0, y1) = c[j * ldc..].split_at_mut(ldc);
                    fold_pair::<T, STRIP>(a, lda, (x, x1), (&mut y0[..m], &mut y1[..m]));
                    j += 2;
                    continue;
                }
            }
            let y = &mut c[j * ldc..j * ldc + m];
            if full(x) {
                fold::<T, STRIP>(a, lda, x, y);
            } else {
                for (l, t) in x.iter().enumerate() {
                    if !t.is_zero() {
                        fold::<T, 1>(&a[l * lda..], lda, std::slice::from_ref(t), y);
                    }
                }
            }
            j += 1;
        }
    }
}

/// One pass `y := (…(y − a₀x₀) − …) − a_{G−1}x_{G−1}`; `G` is a constant so
/// the term loop unrolls inside the row loop.
#[inline(always)]
fn fold<T: Scalar, const G: usize>(a: &[T], lda: usize, x: &[T], y: &mut [T]) {
    let m = y.len();
    let cols: [&[T]; G] = std::array::from_fn(|l| &a[l * lda..l * lda + m]);
    let x: [T; G] = std::array::from_fn(|l| x[l]);
    for i in 0..m {
        let mut v = y[i];
        for l in 0..G {
            v -= cols[l][i] * x[l];
        }
        y[i] = v;
    }
}

/// [`fold`] on two columns `y₀`, `y₁` (same length) with their own
/// coefficients, in one pass over the rows of `A`.
#[inline(always)]
fn fold_pair<T: Scalar, const G: usize>(
    a: &[T],
    lda: usize,
    (x0, x1): (&[T], &[T]),
    (y0, y1): (&mut [T], &mut [T]),
) {
    let m = y0.len();
    let y1 = &mut y1[..m];
    let cols: [&[T]; G] = std::array::from_fn(|l| &a[l * lda..l * lda + m]);
    let x0: [T; G] = std::array::from_fn(|l| x0[l]);
    let x1: [T; G] = std::array::from_fn(|l| x1[l]);
    for i in 0..m {
        let (mut v0, mut v1) = (y0[i], y1[i]);
        for l in 0..G {
            let al = cols[l][i];
            v0 -= al * x0[l];
            v1 -= al * x1[l];
        }
        y0[i] = v0;
        y1[i] = v1;
    }
}

/// Unblocked Cholesky factorization (`xPOTF2`) of the order-`n` Hermitian
/// matrix `a`: `A = UᴴU` (`Upper`) or `A = LLᴴ` (`Lower`), from the given
/// triangle only. Returns `0`, or `j + 1` for the first `j` whose pivot is
/// not positive (or not finite); the factor is then complete in its first
/// `j` rows or columns. `ws` holds at least `n − 1` elements (contents
/// ignored) for `Upper`.
///
/// Right-looking, with the reference `xPOTF2`'s scaling: each pivot scales
/// its row (`Upper`) or column (`Lower`) by the reciprocal of its square
/// root, and the trailing triangle takes the rank-1 update one contiguous
/// column at a time — `Lower` from the pivot columns themselves, `Upper`
/// from conjugated copies of the pivot rows (the first in `ws`, the second
/// on the stack, up to 32 long). Pivots go in pairs:
/// the first updates only the second's row or column, and the rest of the
/// triangle takes both updates in one pass, each entry `(a − x₀t₀) − x₁t₁`
/// — the two rank-1 updates' bits, in pivot order. No entry carries a dot
/// product, so every column vectorizes.
pub fn chol_leaf<T: Scalar>(uplo: Uplo, n: usize, a: &mut [T], lda: usize, ws: &mut [T]) -> i32 {
    on_tier(CholLeaf {
        uplo,
        n,
        a,
        lda,
        ws,
    })
}

/// Longest second pivot row an `Upper` [`chol_leaf`] pair keeps (on the
/// stack): pivots pair while at most this many columns lie right of the
/// pair, so a leaf of order ≤ 33 — every `potrf2` leaf — pairs throughout.
const PAIR_ROW: usize = 32;

/// [`chol_leaf`]'s arguments.
struct CholLeaf<'a, T> {
    uplo: Uplo,
    n: usize,
    a: &'a mut [T],
    lda: usize,
    ws: &'a mut [T],
}

/// `1 / √d` after storing `√d` at `d`, or `None` if the pivot `d` is not
/// positive (or not finite).
#[inline(always)]
fn pivot<T: Scalar>(d: &mut T) -> Option<T::Real> {
    let djj = d.re();
    if djj <= T::Real::zero() || !djj.is_finite_r() {
        return None;
    }
    let djj = djj.sqrt_r();
    *d = T::from_real(djj);
    Some(T::Real::one() / djj)
}

impl<T: Scalar> Leaf for CholLeaf<'_, T> {
    type Out = i32;

    #[inline(always)]
    fn run(self) -> i32 {
        let CholLeaf {
            uplo,
            n,
            a,
            lda,
            ws,
        } = self;
        // The second pivot row of an `Upper` pair.
        let mut x1 = [T::zero(); PAIR_ROW];
        let mut j = 0;
        while j < n {
            let j1 = j + 1;
            let Some(r) = pivot(&mut a[j + j * lda]) else {
                return j1 as i32;
            };
            if j1 == n {
                break;
            }
            let rest = n - j1;
            let (head, right) = a.split_at_mut(j1 * lda);
            match uplo {
                Uplo::Upper => {
                    let x0 = &mut ws[..rest];
                    if rest - 1 > PAIR_ROW {
                        // The next row does not fit `x1`: pivot j alone.
                        // Column j1 + k: scale its row-j entry into U and
                        // x0, then rows j1 ..= j1 + k take the update.
                        for (k, col) in right.chunks_mut(lda).take(rest).enumerate() {
                            let u = col[j].mul_real(r);
                            col[j] = u;
                            x0[k] = u.conj();
                            for (y, &x) in col[j1..=j1 + k].iter_mut().zip(&*x0) {
                                *y -= x * u;
                            }
                        }
                        j = j1;
                        continue;
                    }
                    // Column j1: its row-j entry into U and x0, then the
                    // second pivot.
                    let u = right[j].mul_real(r);
                    right[j] = u;
                    x0[0] = u.conj();
                    right[j1] -= x0[0] * u;
                    let Some(r1) = pivot(&mut right[j1]) else {
                        return (j1 + 1) as i32;
                    };
                    // Column j + 2 + k: its row-j entry into U and x0, its
                    // row-j1 entry (pivot j's update, then the scale) into U
                    // and x1, then rows j + 2 ..= j + 2 + k take both pivots.
                    let first = lda.min(right.len());
                    let cols = right[first..].chunks_mut(lda);
                    for (k, col) in cols.take(rest - 1).enumerate() {
                        let u0 = col[j].mul_real(r);
                        col[j] = u0;
                        x0[k + 1] = u0.conj();
                        let u1 = (col[j1] - x0[0] * u0).mul_real(r1);
                        col[j1] = u1;
                        x1[k] = u1.conj();
                        let y = &mut col[j + 2..=j + 2 + k];
                        sub_pair(y, (&x0[1..], u0), (&x1[..], u1));
                    }
                }
                Uplo::Lower => {
                    // Column j scaled into L (x0); pivot j updates column j1
                    // only.
                    let x0 = &mut head[j1 + j * lda..n + j * lda];
                    for x in x0.iter_mut() {
                        *x = x.mul_real(r);
                    }
                    let (c1, right) = right.split_at_mut(lda.min(right.len()));
                    let t0 = x0[0].conj();
                    for (y, &x) in c1[j1..n].iter_mut().zip(&*x0) {
                        *y -= x * t0;
                    }
                    let Some(r) = pivot(&mut c1[j1]) else {
                        return (j1 + 1) as i32;
                    };
                    let x1 = &mut c1[j + 2..n];
                    for x in x1.iter_mut() {
                        *x = x.mul_real(r);
                    }
                    // Column j + 2 + k from its diagonal down takes both.
                    for (k, col) in right.chunks_mut(lda).take(rest - 1).enumerate() {
                        let (t0, t1) = (x0[k + 1].conj(), x1[k].conj());
                        let y = &mut col[j + 2 + k..n];
                        sub_pair(y, (&x0[k + 1..], t0), (&x1[k..], t1));
                    }
                }
            }
            j += 2;
        }
        0
    }
}

/// `y := (y − x₀·t₀) − x₁·t₁` element by element, each product rounded
/// before its subtraction (no fused multiply-add): two rank-1 updates'
/// bits in one pass. `x₀` and `x₁` are at least as long as `y`.
#[inline(always)]
fn sub_pair<T: Scalar>(y: &mut [T], (x0, t0): (&[T], T), (x1, t1): (&[T], T)) {
    for ((y, &a), &b) in y.iter_mut().zip(x0).zip(x1) {
        *y = (*y - a * t0) - b * t1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use la_core::{C32, C64};

    /// Deterministic values in [−1, 1), none of them zero.
    fn vals<T: Scalar>(n: usize, seed: usize) -> Vec<T> {
        let v = |i: usize| ((i * 37 + seed * 11) % 101) as f64 / 50.5 - 0.995;
        (0..n)
            .map(|i| {
                let im = if T::IS_COMPLEX { v(i + 50) } else { 0.0 };
                T::from_re_im(T::Real::from_f64(v(i)), T::Real::from_f64(im))
            })
            .collect()
    }

    fn bits<T: Scalar>(v: &[T]) -> Vec<(u64, u64)> {
        v.iter()
            .map(|x| (x.re().to_f64().to_bits(), x.im().to_f64().to_bits()))
            .collect()
    }

    /// `strip_update` is `k` rank-1 updates in depth order, bit for bit —
    /// ragged row counts around the vector widths, one and several
    /// columns, depths around [`STRIP`], zero coefficients (skipped: the
    /// `Inf` in `A` they face leaves no NaN), rows `m..ldc` untouched.
    fn strip_update_contract<T: Scalar>() {
        let inf = T::from_real(T::Real::one() / T::Real::zero());
        for m in [1usize, 3, 4, 5, 95, 96, 97] {
            for n in [1usize, 2, 5] {
                for k in [1usize, 3, 4, 5, 9] {
                    let (lda, ldb, ldc) = (m + 2, k + 1, m + 3);
                    let mut a: Vec<T> = vals(lda * k, 1);
                    let mut b: Vec<T> = vals(ldb * n, 2);
                    // A zero in the first column's second strip (or its
                    // only one), facing an Inf.
                    let l0 = k - 1;
                    b[l0] = T::zero();
                    a[l0 * lda] = inf;
                    let c0: Vec<T> = vals(ldc * n, 3);
                    let mut want = c0.clone();
                    for j in 0..n {
                        for l in 0..k {
                            let t = b[l + j * ldb];
                            if t.is_zero() {
                                continue;
                            }
                            for i in 0..m {
                                want[i + j * ldc] -= a[i + l * lda] * t;
                            }
                        }
                    }
                    let mut got = c0.clone();
                    strip_update(m, n, k, &a, lda, &b, ldb, &mut got, ldc);
                    let tag = format!("{} m={m} n={n} k={k}", T::PREFIX);
                    assert_eq!(bits(&got), bits(&want), "{tag}");
                }
            }
        }
    }

    #[test]
    fn strip_update_is_k_rank1_updates_bit_for_bit() {
        strip_update_contract::<f32>();
        strip_update_contract::<f64>();
        strip_update_contract::<C32>();
        strip_update_contract::<C64>();
    }
}
