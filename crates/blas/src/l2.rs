//! Level 2 BLAS: matrix-vector operations.
//!
//! Matrices are column-major slices with an explicit leading dimension
//! (`a[i + j*lda]`), exactly the Fortran convention, so the `la-lapack`
//! routines can hand sub-blocks through by offsetting into one buffer.

use la_core::{Diag, Scalar, Trans, Uplo};

use crate::l1::{axpy, dotc, dotu};

#[inline(always)]
fn cj<T: Scalar>(conj: bool, x: T) -> T {
    if conj {
        x.conj()
    } else {
        x
    }
}

/// General matrix-vector product (`xGEMV`):
/// `y := alpha*op(A)*x + beta*y` with `op` given by `trans`.
pub fn gemv<T: Scalar>(
    trans: Trans,
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    incx: usize,
    beta: T,
    y: &mut [T],
    incy: usize,
) {
    let leny = if trans.is_transposed() { n } else { m };
    // y := beta*y
    if beta != T::one() {
        let mut iy = 0;
        for _ in 0..leny {
            y[iy] = if beta.is_zero() {
                T::zero()
            } else {
                beta * y[iy]
            };
            iy += incy;
        }
    }
    if m == 0 || n == 0 || alpha.is_zero() {
        return;
    }
    match trans {
        Trans::No => {
            // Column-sweep: y += (alpha*x_j) * A(:,j), unit stride in A.
            let mut jx = 0;
            for j in 0..n {
                let t = alpha * x[jx];
                if !t.is_zero() {
                    if incy == 1 {
                        axpy(m, t, &a[j * lda..j * lda + m], 1, &mut y[..m], 1);
                    } else {
                        let mut iy = 0;
                        for i in 0..m {
                            y[iy] += t * a[i + j * lda];
                            iy += incy;
                        }
                    }
                }
                jx += incx;
            }
        }
        Trans::Trans | Trans::ConjTrans => {
            let conj = trans.is_conj();
            // Four columns at a time on a contiguous `x`: each sum runs in
            // `dotc`/`dotu`'s order (same bits), but four independent
            // chains hide the add latency a short dot product is made of.
            let quads = if incx == 1 { n / 4 } else { 0 };
            for q in 0..quads {
                let cols: [&[T]; 4] = std::array::from_fn(|c| {
                    let j = 4 * q + c;
                    &a[j * lda..j * lda + m]
                });
                let mut s = [T::zero(); 4];
                for (i, &xi) in x[..m].iter().enumerate() {
                    for c in 0..4 {
                        s[c] += cj(conj, cols[c][i]) * xi;
                    }
                }
                for c in 0..4 {
                    y[(4 * q + c) * incy] += alpha * s[c];
                }
            }
            let mut jy = 4 * quads * incy;
            for j in 4 * quads..n {
                let col = &a[j * lda..j * lda + m];
                let s = if incx == 1 {
                    if conj {
                        dotc(m, col, 1, &x[..m], 1)
                    } else {
                        dotu(m, col, 1, &x[..m], 1)
                    }
                } else {
                    let mut s = T::zero();
                    let mut ix = 0;
                    for i in 0..m {
                        s += cj(conj, col[i]) * x[ix];
                        ix += incx;
                    }
                    s
                };
                y[jy] += alpha * s;
                jy += incy;
            }
        }
    }
}

/// Unconjugated rank-1 update (`xGER` / `xGERU`): `A := alpha*x*yᵀ + A`.
pub fn geru<T: Scalar>(
    m: usize,
    n: usize,
    alpha: T,
    x: &[T],
    incx: usize,
    y: &[T],
    incy: usize,
    a: &mut [T],
    lda: usize,
) {
    let mut jy = 0;
    for j in 0..n {
        let t = alpha * y[jy];
        if !t.is_zero() {
            if incx == 1 {
                axpy(m, t, &x[..m], 1, &mut a[j * lda..j * lda + m], 1);
            } else {
                let mut ix = 0;
                for i in 0..m {
                    a[i + j * lda] += t * x[ix];
                    ix += incx;
                }
            }
        }
        jy += incy;
    }
}

/// Conjugated rank-1 update (`xGERC`): `A := alpha*x*yᴴ + A`.
pub fn gerc<T: Scalar>(
    m: usize,
    n: usize,
    alpha: T,
    x: &[T],
    incx: usize,
    y: &[T],
    incy: usize,
    a: &mut [T],
    lda: usize,
) {
    let mut jy = 0;
    for j in 0..n {
        let t = alpha * y[jy].conj();
        if !t.is_zero() {
            let mut ix = 0;
            for i in 0..m {
                a[i + j * lda] += t * x[ix];
                ix += incx;
            }
        }
        jy += incy;
    }
}

/// Most columns of `A` that [`strip_update`] folds into one pass over a
/// column of `C` — and so the width of the strips `getf2` delays its
/// updates by.
pub const STRIP: usize = 4;

/// Delayed update by a strip of columns: `C := C − A·B`, `A` `m × k`,
/// `B` `k × n`, `C` `m × n`, unpacked, for a small depth `k` (any `k` is
/// accepted; the loop takes [`STRIP`] columns of `A` at a time).
///
/// Each element of `C` is `((c − a₀b₀) − a₁b₁) − …` with the terms in
/// depth order and each product rounded before its subtraction — what `k`
/// successive rank-1 updates compute, bit for bit — but a column of `C` is
/// loaded and stored once per [`STRIP`] terms instead of once per term. A
/// term whose `B` entry is exactly zero is skipped (as `axpy` and the
/// rank-1 loops skip it), so an `Inf` in `A` meets no `0`.
///
/// With the `simd` feature, on a host with AVX2 the loop runs as compiled
/// for that vector unit; it is the same Rust (no intrinsics, no fused
/// multiply-add), so the result does not depend on the host.
pub fn strip_update<T: Scalar>(
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
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if crate::kernel::host_has_avx2_fma() {
        // SAFETY: the host has AVX2 and FMA, all the wrapper requires.
        return unsafe { strip_update_avx2(m, n, k, a, lda, b, ldb, c, ldc) };
    }
    strip_update_body(m, n, k, a, lda, b, ldb, c, ldc)
}

/// [`strip_update_body`] compiled for AVX2 (wider vectors only: the body
/// never asks for a fused multiply-add, so the bits stay the same).
///
/// # Safety
/// The host must have AVX2 and FMA.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
unsafe fn strip_update_avx2<T: Scalar>(
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
    strip_update_body(m, n, k, a, lda, b, ldb, c, ldc)
}

#[inline(always)]
fn strip_update_body<T: Scalar>(
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
        for j in 0..n {
            let x = &b[l0 + j * ldb..l0 + j * ldb + d];
            let y = &mut c[j * ldc..j * ldc + m];
            // A full strip without a zero coefficient folds in one pass.
            if d == STRIP && x.iter().all(|t| !t.is_zero()) {
                fold::<T, STRIP>(a, lda, x, y);
            } else {
                for (l, t) in x.iter().enumerate() {
                    if !t.is_zero() {
                        fold::<T, 1>(&a[l * lda..], lda, std::slice::from_ref(t), y);
                    }
                }
            }
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

fn symv_impl<T: Scalar>(
    conj: bool,
    uplo: Uplo,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    incx: usize,
    beta: T,
    y: &mut [T],
    incy: usize,
) {
    if beta != T::one() {
        let mut iy = 0;
        for _ in 0..n {
            y[iy] = if beta.is_zero() {
                T::zero()
            } else {
                beta * y[iy]
            };
            iy += incy;
        }
    }
    if n == 0 || alpha.is_zero() {
        return;
    }
    // Column sweep over the stored triangle; the mirrored part is picked up
    // by the accumulating dot product.
    let mut jx = 0;
    let mut jy = 0;
    for j in 0..n {
        let t1 = alpha * x[jx];
        let mut t2 = T::zero();
        match uplo {
            Uplo::Upper => {
                let mut ix = 0;
                let mut iy = 0;
                for i in 0..j {
                    let aij = a[i + j * lda];
                    y[iy] += t1 * aij;
                    t2 += cj(conj, aij) * x[ix];
                    ix += incx;
                    iy += incy;
                }
                let d = if conj {
                    T::from_real(a[j + j * lda].re())
                } else {
                    a[j + j * lda]
                };
                y[jy] += t1 * d + alpha * t2;
            }
            Uplo::Lower => {
                let d = if conj {
                    T::from_real(a[j + j * lda].re())
                } else {
                    a[j + j * lda]
                };
                let mut ix = (j + 1) * incx;
                let mut iy = (j + 1) * incy;
                for i in j + 1..n {
                    let aij = a[i + j * lda];
                    y[iy] += t1 * aij;
                    t2 += cj(conj, aij) * x[ix];
                    ix += incx;
                    iy += incy;
                }
                y[jy] += t1 * d + alpha * t2;
            }
        }
        jx += incx;
        jy += incy;
    }
}

/// Symmetric matrix-vector product (`xSYMV`): `y := alpha*A*x + beta*y`
/// with `A` symmetric, one triangle stored.
pub fn symv<T: Scalar>(
    uplo: Uplo,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    incx: usize,
    beta: T,
    y: &mut [T],
    incy: usize,
) {
    symv_impl(false, uplo, n, alpha, a, lda, x, incx, beta, y, incy)
}

/// Hermitian matrix-vector product (`xHEMV`); identical to [`symv`] for
/// real scalars.
pub fn hemv<T: Scalar>(
    uplo: Uplo,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    incx: usize,
    beta: T,
    y: &mut [T],
    incy: usize,
) {
    symv_impl(
        T::IS_COMPLEX,
        uplo,
        n,
        alpha,
        a,
        lda,
        x,
        incx,
        beta,
        y,
        incy,
    )
}

/// Symmetric rank-1 update (`xSYR`): `A := alpha*x*xᵀ + A` (one triangle).
pub fn syr<T: Scalar>(
    uplo: Uplo,
    n: usize,
    alpha: T,
    x: &[T],
    incx: usize,
    a: &mut [T],
    lda: usize,
) {
    for j in 0..n {
        let t = alpha * x[j * incx];
        if t.is_zero() {
            continue;
        }
        let (lo, hi) = match uplo {
            Uplo::Upper => (0, j + 1),
            Uplo::Lower => (j, n),
        };
        for i in lo..hi {
            a[i + j * lda] += x[i * incx] * t;
        }
    }
}

/// Hermitian rank-1 update (`xHER`): `A := alpha*x*xᴴ + A`, `alpha` real.
pub fn her<T: Scalar>(
    uplo: Uplo,
    n: usize,
    alpha: T::Real,
    x: &[T],
    incx: usize,
    a: &mut [T],
    lda: usize,
) {
    for j in 0..n {
        let t = x[j * incx].conj().mul_real(alpha);
        let (lo, hi) = match uplo {
            Uplo::Upper => (0, j + 1),
            Uplo::Lower => (j, n),
        };
        for i in lo..hi {
            let upd = x[i * incx] * t;
            let aij = &mut a[i + j * lda];
            *aij += upd;
            if i == j {
                // Keep the diagonal exactly real, as xHER guarantees.
                *aij = T::from_real(aij.re());
            }
        }
    }
}

fn syr2_impl<T: Scalar>(
    conj: bool,
    uplo: Uplo,
    n: usize,
    alpha: T,
    x: &[T],
    incx: usize,
    y: &[T],
    incy: usize,
    a: &mut [T],
    lda: usize,
) {
    for j in 0..n {
        let t1 = alpha * cj(conj, y[j * incy]);
        let t2 = cj(conj, alpha * x[j * incx]);
        if t1.is_zero() && t2.is_zero() {
            continue;
        }
        let (lo, hi) = match uplo {
            Uplo::Upper => (0, j + 1),
            Uplo::Lower => (j, n),
        };
        for i in lo..hi {
            let upd = x[i * incx] * t1 + y[i * incy] * t2;
            let aij = &mut a[i + j * lda];
            *aij += upd;
            if conj && i == j {
                *aij = T::from_real(aij.re());
            }
        }
    }
}

/// Symmetric rank-2 update (`xSYR2`): `A := alpha*x*yᵀ + alpha*y*xᵀ + A`.
pub fn syr2<T: Scalar>(
    uplo: Uplo,
    n: usize,
    alpha: T,
    x: &[T],
    incx: usize,
    y: &[T],
    incy: usize,
    a: &mut [T],
    lda: usize,
) {
    syr2_impl(false, uplo, n, alpha, x, incx, y, incy, a, lda)
}

/// Hermitian rank-2 update (`xHER2`): `A := alpha*x*yᴴ + ᾱ*y*xᴴ + A`.
pub fn her2<T: Scalar>(
    uplo: Uplo,
    n: usize,
    alpha: T,
    x: &[T],
    incx: usize,
    y: &[T],
    incy: usize,
    a: &mut [T],
    lda: usize,
) {
    syr2_impl(T::IS_COMPLEX, uplo, n, alpha, x, incx, y, incy, a, lda)
}

/// Triangular matrix-vector product (`xTRMV`): `x := op(A)*x`.
pub fn trmv<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    n: usize,
    a: &[T],
    lda: usize,
    x: &mut [T],
    incx: usize,
) {
    let unit = diag == Diag::Unit;
    let conj = trans.is_conj();
    match (trans.is_transposed(), uplo) {
        (false, Uplo::Upper) => {
            for j in 0..n {
                let t = x[j * incx];
                if !t.is_zero() {
                    for i in 0..j {
                        let xi = x[i * incx];
                        x[i * incx] = xi + t * a[i + j * lda];
                    }
                    if !unit {
                        x[j * incx] = t * a[j + j * lda];
                    }
                }
            }
        }
        (false, Uplo::Lower) => {
            for j in (0..n).rev() {
                let t = x[j * incx];
                if !t.is_zero() {
                    for i in (j + 1..n).rev() {
                        let xi = x[i * incx];
                        x[i * incx] = xi + t * a[i + j * lda];
                    }
                    if !unit {
                        x[j * incx] = t * a[j + j * lda];
                    }
                }
            }
        }
        (true, Uplo::Upper) => {
            for j in (0..n).rev() {
                let mut t = x[j * incx];
                if !unit {
                    t = t * cj(conj, a[j + j * lda]);
                }
                for i in (0..j).rev() {
                    t += cj(conj, a[i + j * lda]) * x[i * incx];
                }
                x[j * incx] = t;
            }
        }
        (true, Uplo::Lower) => {
            for j in 0..n {
                let mut t = x[j * incx];
                if !unit {
                    t = t * cj(conj, a[j + j * lda]);
                }
                for i in j + 1..n {
                    t += cj(conj, a[i + j * lda]) * x[i * incx];
                }
                x[j * incx] = t;
            }
        }
    }
}

/// Triangular solve with a single right-hand side (`xTRSV`):
/// `x := op(A)⁻¹ x`.
pub fn trsv<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    n: usize,
    a: &[T],
    lda: usize,
    x: &mut [T],
    incx: usize,
) {
    let unit = diag == Diag::Unit;
    let conj = trans.is_conj();
    if incx == 1 {
        return trsv_contiguous(uplo, trans.is_transposed(), conj, unit, a, lda, &mut x[..n]);
    }
    match (trans.is_transposed(), uplo) {
        (false, Uplo::Upper) => {
            for j in (0..n).rev() {
                if !x[j * incx].is_zero() {
                    if !unit {
                        x[j * incx] = x[j * incx] / a[j + j * lda];
                    }
                    let t = x[j * incx];
                    for i in 0..j {
                        let xi = x[i * incx];
                        x[i * incx] = xi - t * a[i + j * lda];
                    }
                }
            }
        }
        (false, Uplo::Lower) => {
            for j in 0..n {
                if !x[j * incx].is_zero() {
                    if !unit {
                        x[j * incx] = x[j * incx] / a[j + j * lda];
                    }
                    let t = x[j * incx];
                    for i in j + 1..n {
                        let xi = x[i * incx];
                        x[i * incx] = xi - t * a[i + j * lda];
                    }
                }
            }
        }
        (true, Uplo::Upper) => {
            for j in 0..n {
                let mut t = x[j * incx];
                for i in 0..j {
                    t -= cj(conj, a[i + j * lda]) * x[i * incx];
                }
                if !unit {
                    t = t / cj(conj, a[j + j * lda]);
                }
                x[j * incx] = t;
            }
        }
        (true, Uplo::Lower) => {
            for j in (0..n).rev() {
                let mut t = x[j * incx];
                for i in j + 1..n {
                    t -= cj(conj, a[i + j * lda]) * x[i * incx];
                }
                if !unit {
                    t = t / cj(conj, a[j + j * lda]);
                }
                x[j * incx] = t;
            }
        }
    }
}

/// [`trsv`] on a contiguous `x`: the same operations in the same order as
/// the strided loops (`x − t·a` and `x + (−t)·a` round alike), over
/// slices, so the column sweeps of the untransposed cases vectorize. This is the form left-side `trsm` runs
/// per column when it has only a few right-hand sides.
fn trsv_contiguous<T: Scalar>(
    uplo: Uplo,
    transposed: bool,
    conj: bool,
    unit: bool,
    a: &[T],
    lda: usize,
    x: &mut [T],
) {
    let n = x.len();
    // Column j of the stored triangle: rows `0..=j` (upper) or `j..n`.
    let upper_col = |j: usize| &a[j * lda..j * lda + j + 1];
    let lower_col = |j: usize| &a[j + j * lda..n + j * lda];
    match (transposed, uplo) {
        (false, Uplo::Upper) => {
            for j in (0..n).rev() {
                if x[j].is_zero() {
                    continue;
                }
                let col = upper_col(j);
                if !unit {
                    x[j] = x[j] / col[j];
                }
                let t = x[j];
                axpy(j, -t, col, 1, &mut x[..j], 1);
            }
        }
        (false, Uplo::Lower) => {
            for j in 0..n {
                if x[j].is_zero() {
                    continue;
                }
                let col = lower_col(j);
                if !unit {
                    x[j] = x[j] / col[0];
                }
                let t = x[j];
                axpy(n - j - 1, -t, &col[1..], 1, &mut x[j + 1..], 1);
            }
        }
        (true, Uplo::Upper) => {
            for j in 0..n {
                let col = upper_col(j);
                let mut t = x[j];
                for (&aij, &xi) in col.iter().zip(&x[..j]) {
                    t -= cj(conj, aij) * xi;
                }
                if !unit {
                    t = t / cj(conj, col[j]);
                }
                x[j] = t;
            }
        }
        (true, Uplo::Lower) => {
            for j in (0..n).rev() {
                let col = lower_col(j);
                let mut t = x[j];
                for (&aij, &xi) in col[1..].iter().zip(&x[j + 1..]) {
                    t -= cj(conj, aij) * xi;
                }
                if !unit {
                    t = t / cj(conj, col[0]);
                }
                x[j] = t;
            }
        }
    }
}

/// General band matrix-vector product (`xGBMV`). `a` holds LAPACK band
/// storage with the main diagonal at row `ku` (`LDAB >= kl + ku + 1`).
#[allow(clippy::too_many_arguments)]
pub fn gbmv<T: Scalar>(
    trans: Trans,
    m: usize,
    n: usize,
    kl: usize,
    ku: usize,
    alpha: T,
    a: &[T],
    ldab: usize,
    x: &[T],
    incx: usize,
    beta: T,
    y: &mut [T],
    incy: usize,
) {
    let leny = if trans.is_transposed() { n } else { m };
    if beta != T::one() {
        for k in 0..leny {
            y[k * incy] = if beta.is_zero() {
                T::zero()
            } else {
                beta * y[k * incy]
            };
        }
    }
    if alpha.is_zero() {
        return;
    }
    let conj = trans.is_conj();
    for j in 0..n {
        let lo = j.saturating_sub(ku);
        let hi = (j + kl + 1).min(m);
        match trans {
            Trans::No => {
                let t = alpha * x[j * incx];
                for i in lo..hi {
                    y[i * incy] += t * a[ku + i - j + j * ldab];
                }
            }
            _ => {
                let mut s = T::zero();
                for i in lo..hi {
                    s += cj(conj, a[ku + i - j + j * ldab]) * x[i * incx];
                }
                y[j * incy] += alpha * s;
            }
        }
    }
}

/// Triangular band solve (`xTBSV`). `a` holds triangular band storage:
/// for `Uplo::Upper` the diagonal is at row `kd`, for `Uplo::Lower` at row 0.
#[allow(clippy::too_many_arguments)]
pub fn tbsv<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    n: usize,
    kd: usize,
    a: &[T],
    ldab: usize,
    x: &mut [T],
    incx: usize,
) {
    let unit = diag == Diag::Unit;
    let conj = trans.is_conj();
    let at = |i: usize, j: usize| -> T {
        match uplo {
            Uplo::Upper => a[kd + i - j + j * ldab],
            Uplo::Lower => a[i - j + j * ldab],
        }
    };
    match (trans.is_transposed(), uplo) {
        (false, Uplo::Upper) => {
            for j in (0..n).rev() {
                if !x[j * incx].is_zero() {
                    if !unit {
                        x[j * incx] = x[j * incx] / at(j, j);
                    }
                    let t = x[j * incx];
                    for i in j.saturating_sub(kd)..j {
                        let xi = x[i * incx];
                        x[i * incx] = xi - t * at(i, j);
                    }
                }
            }
        }
        (false, Uplo::Lower) => {
            for j in 0..n {
                if !x[j * incx].is_zero() {
                    if !unit {
                        x[j * incx] = x[j * incx] / at(j, j);
                    }
                    let t = x[j * incx];
                    for i in j + 1..(j + kd + 1).min(n) {
                        let xi = x[i * incx];
                        x[i * incx] = xi - t * at(i, j);
                    }
                }
            }
        }
        (true, Uplo::Upper) => {
            for j in 0..n {
                let mut t = x[j * incx];
                for i in j.saturating_sub(kd)..j {
                    t -= cj(conj, at(i, j)) * x[i * incx];
                }
                if !unit {
                    t = t / cj(conj, at(j, j));
                }
                x[j * incx] = t;
            }
        }
        (true, Uplo::Lower) => {
            for j in (0..n).rev() {
                let mut t = x[j * incx];
                for i in j + 1..(j + kd + 1).min(n) {
                    t -= cj(conj, at(i, j)) * x[i * incx];
                }
                if !unit {
                    t = t / cj(conj, at(j, j));
                }
                x[j * incx] = t;
            }
        }
    }
}

/// Symmetric/Hermitian band matrix-vector product (`xSBMV`/`xHBMV`);
/// set `conj = T::IS_COMPLEX` for the Hermitian variant.
#[allow(clippy::too_many_arguments)]
pub fn sbmv<T: Scalar>(
    conj: bool,
    uplo: Uplo,
    n: usize,
    kd: usize,
    alpha: T,
    a: &[T],
    ldab: usize,
    x: &[T],
    incx: usize,
    beta: T,
    y: &mut [T],
    incy: usize,
) {
    if beta != T::one() {
        for k in 0..n {
            y[k * incy] = if beta.is_zero() {
                T::zero()
            } else {
                beta * y[k * incy]
            };
        }
    }
    if alpha.is_zero() {
        return;
    }
    let at = |i: usize, j: usize| -> T {
        match uplo {
            Uplo::Upper => a[kd + i - j + j * ldab],
            Uplo::Lower => a[i - j + j * ldab],
        }
    };
    for j in 0..n {
        let t1 = alpha * x[j * incx];
        let mut t2 = T::zero();
        match uplo {
            Uplo::Upper => {
                for i in j.saturating_sub(kd)..j {
                    let aij = at(i, j);
                    y[i * incy] += t1 * aij;
                    t2 += cj(conj, aij) * x[i * incx];
                }
            }
            Uplo::Lower => {
                for i in j + 1..(j + kd + 1).min(n) {
                    let aij = at(i, j);
                    y[i * incy] += t1 * aij;
                    t2 += cj(conj, aij) * x[i * incx];
                }
            }
        }
        let d = at(j, j);
        let d = if conj { T::from_real(d.re()) } else { d };
        y[j * incy] += t1 * d + alpha * t2;
    }
}

/// Packed symmetric/Hermitian matrix-vector product (`xSPMV`/`xHPMV`);
/// set `conj = T::IS_COMPLEX` for the Hermitian variant.
pub fn spmv<T: Scalar>(
    conj: bool,
    uplo: Uplo,
    n: usize,
    alpha: T,
    ap: &[T],
    x: &[T],
    incx: usize,
    beta: T,
    y: &mut [T],
    incy: usize,
) {
    if beta != T::one() {
        for k in 0..n {
            y[k * incy] = if beta.is_zero() {
                T::zero()
            } else {
                beta * y[k * incy]
            };
        }
    }
    if alpha.is_zero() {
        return;
    }
    let idx = |i: usize, j: usize| -> usize {
        match uplo {
            Uplo::Upper => i + j * (j + 1) / 2,
            Uplo::Lower => i + j * (2 * n - j - 1) / 2,
        }
    };
    for j in 0..n {
        let t1 = alpha * x[j * incx];
        let mut t2 = T::zero();
        let (lo, hi) = match uplo {
            Uplo::Upper => (0, j),
            Uplo::Lower => (j + 1, n),
        };
        for i in lo..hi {
            let aij = ap[idx(i, j)];
            y[i * incy] += t1 * aij;
            t2 += cj(conj, aij) * x[i * incx];
        }
        let d = ap[idx(j, j)];
        let d = if conj { T::from_real(d.re()) } else { d };
        y[j * incy] += t1 * d + alpha * t2;
    }
}

/// Packed symmetric/Hermitian rank-2 update (`xSPR2`/`xHPR2`).
pub fn spr2<T: Scalar>(
    conj: bool,
    uplo: Uplo,
    n: usize,
    alpha: T,
    x: &[T],
    incx: usize,
    y: &[T],
    incy: usize,
    ap: &mut [T],
) {
    let idx = |i: usize, j: usize| -> usize {
        match uplo {
            Uplo::Upper => i + j * (j + 1) / 2,
            Uplo::Lower => i + j * (2 * n - j - 1) / 2,
        }
    };
    for j in 0..n {
        let t1 = alpha * cj(conj, y[j * incy]);
        let t2 = cj(conj, alpha * x[j * incx]);
        let (lo, hi) = match uplo {
            Uplo::Upper => (0, j + 1),
            Uplo::Lower => (j, n),
        };
        for i in lo..hi {
            let upd = x[i * incx] * t1 + y[i * incy] * t2;
            let k = idx(i, j);
            ap[k] += upd;
            if conj && i == j {
                ap[k] = T::from_real(ap[k].re());
            }
        }
    }
}

/// Packed triangular matrix-vector product (`xTPMV`): `x := op(A)*x`.
pub fn tpmv<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    n: usize,
    ap: &[T],
    x: &mut [T],
    incx: usize,
) {
    let idx = |i: usize, j: usize| -> usize {
        match uplo {
            Uplo::Upper => i + j * (j + 1) / 2,
            Uplo::Lower => i + j * (2 * n - j - 1) / 2,
        }
    };
    let unit = diag == Diag::Unit;
    let conj = trans.is_conj();
    match (trans.is_transposed(), uplo) {
        (false, Uplo::Upper) => {
            for j in 0..n {
                let t = x[j * incx];
                for i in 0..j {
                    let xi = x[i * incx];
                    x[i * incx] = xi + t * ap[idx(i, j)];
                }
                if !unit {
                    x[j * incx] = t * ap[idx(j, j)];
                }
            }
        }
        (false, Uplo::Lower) => {
            for j in (0..n).rev() {
                let t = x[j * incx];
                for i in (j + 1..n).rev() {
                    let xi = x[i * incx];
                    x[i * incx] = xi + t * ap[idx(i, j)];
                }
                if !unit {
                    x[j * incx] = t * ap[idx(j, j)];
                }
            }
        }
        (true, Uplo::Upper) => {
            for j in (0..n).rev() {
                let mut t = x[j * incx];
                if !unit {
                    t = t * cj(conj, ap[idx(j, j)]);
                }
                for i in 0..j {
                    t += cj(conj, ap[idx(i, j)]) * x[i * incx];
                }
                x[j * incx] = t;
            }
        }
        (true, Uplo::Lower) => {
            for j in 0..n {
                let mut t = x[j * incx];
                if !unit {
                    t = t * cj(conj, ap[idx(j, j)]);
                }
                for i in j + 1..n {
                    t += cj(conj, ap[idx(i, j)]) * x[i * incx];
                }
                x[j * incx] = t;
            }
        }
    }
}

/// Packed triangular solve (`xTPSV`): `x := op(A)⁻¹ x`.
pub fn tpsv<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    n: usize,
    ap: &[T],
    x: &mut [T],
    incx: usize,
) {
    let idx = |i: usize, j: usize| -> usize {
        match uplo {
            Uplo::Upper => i + j * (j + 1) / 2,
            Uplo::Lower => i + j * (2 * n - j - 1) / 2,
        }
    };
    let unit = diag == Diag::Unit;
    let conj = trans.is_conj();
    match (trans.is_transposed(), uplo) {
        (false, Uplo::Upper) => {
            for j in (0..n).rev() {
                if !x[j * incx].is_zero() {
                    if !unit {
                        x[j * incx] = x[j * incx] / ap[idx(j, j)];
                    }
                    let t = x[j * incx];
                    for i in 0..j {
                        let xi = x[i * incx];
                        x[i * incx] = xi - t * ap[idx(i, j)];
                    }
                }
            }
        }
        (false, Uplo::Lower) => {
            for j in 0..n {
                if !x[j * incx].is_zero() {
                    if !unit {
                        x[j * incx] = x[j * incx] / ap[idx(j, j)];
                    }
                    let t = x[j * incx];
                    for i in j + 1..n {
                        let xi = x[i * incx];
                        x[i * incx] = xi - t * ap[idx(i, j)];
                    }
                }
            }
        }
        (true, Uplo::Upper) => {
            for j in 0..n {
                let mut t = x[j * incx];
                for i in 0..j {
                    t -= cj(conj, ap[idx(i, j)]) * x[i * incx];
                }
                if !unit {
                    t = t / cj(conj, ap[idx(j, j)]);
                }
                x[j * incx] = t;
            }
        }
        (true, Uplo::Lower) => {
            for j in (0..n).rev() {
                let mut t = x[j * incx];
                for i in j + 1..n {
                    t -= cj(conj, ap[idx(i, j)]) * x[i * incx];
                }
                if !unit {
                    t = t / cj(conj, ap[idx(j, j)]);
                }
                x[j * incx] = t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use la_core::{RealScalar, C32, C64};

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
    /// columns, depths around [`STRIP`], zero coefficients (skipped: the `Inf` in `A` they face
    /// leaves no NaN), rows `m..ldc` untouched — and, with `simd` on an
    /// AVX2 host, both compilations of the loop give those same bits.
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
                    let tag = format!("{} m={m} n={n} k={k}", T::PREFIX);
                    let mut plain = c0.clone();
                    strip_update_body(m, n, k, &a, lda, &b, ldb, &mut plain, ldc);
                    assert_eq!(bits(&plain), bits(&want), "{tag}: plain");
                    let mut got = c0.clone();
                    strip_update(m, n, k, &a, lda, &b, ldb, &mut got, ldc);
                    assert_eq!(bits(&got), bits(&want), "{tag}: dispatched");
                }
            }
        }
    }

    /// The transposed `gemv` on a contiguous `x` takes four columns at a
    /// time; every entry is still `y + alpha·dot(column, x)` with the sum
    /// in `dotc`/`dotu`'s order, bit for bit, on both sides of a group.
    fn gemv_transposed_contract<T: Scalar>() {
        for trans in [Trans::Trans, Trans::ConjTrans] {
            for m in [0usize, 1, 7, 33] {
                for n in [1usize, 3, 4, 5, 9] {
                    let lda = m + 2;
                    let a: Vec<T> = vals(lda * n, 4);
                    let x: Vec<T> = vals(m, 5);
                    let y0: Vec<T> = vals(2 * n, 6);
                    let alpha = T::from_f64(-0.75);
                    let mut want = y0.clone();
                    for j in 0..n {
                        let col = &a[j * lda..j * lda + m];
                        let dot = if trans == Trans::ConjTrans {
                            dotc(m, col, 1, &x, 1)
                        } else {
                            dotu(m, col, 1, &x, 1)
                        };
                        want[2 * j] += alpha * dot;
                    }
                    let mut got = y0.clone();
                    gemv(trans, m, n, alpha, &a, lda, &x, 1, T::one(), &mut got, 2);
                    let tag = format!("{} {trans:?} m={m} n={n}", T::PREFIX);
                    assert_eq!(bits(&got), bits(&want), "{tag}");
                }
            }
        }
    }

    #[test]
    fn gemv_transposed_is_a_dot_per_column_bit_for_bit() {
        gemv_transposed_contract::<f32>();
        gemv_transposed_contract::<f64>();
        gemv_transposed_contract::<C32>();
        gemv_transposed_contract::<C64>();
    }

    #[test]
    fn strip_update_is_k_rank1_updates_bit_for_bit() {
        strip_update_contract::<f32>();
        strip_update_contract::<f64>();
        strip_update_contract::<C32>();
        strip_update_contract::<C64>();
    }
}
