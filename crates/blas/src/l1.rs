//! Level 1 BLAS: vector-vector operations.
//!
//! Signatures follow the Fortran convention (`n`, slice, stride), with
//! 0-based indexing and strictly positive strides. One generic function
//! replaces each S/D/C/Z quadruple; real and complex variants that differ
//! only by conjugation are split (`dotu`/`dotc`) exactly as in BLAS.
//! LAPACK's row interchanges, `laswp`, live here too: `l3::lu_step`
//! applies them band by band, and `la_lapack` re-exports them.

use la_core::{RealScalar, Scalar};

/// `y := a*x + y` (`xAXPY`).
pub fn axpy<T: Scalar>(n: usize, a: T, x: &[T], incx: usize, y: &mut [T], incy: usize) {
    if n == 0 || a.is_zero() {
        return;
    }
    if incx == 1 && incy == 1 {
        for (yi, &xi) in y[..n].iter_mut().zip(&x[..n]) {
            *yi += a * xi;
        }
    } else {
        let (mut ix, mut iy) = (0, 0);
        for _ in 0..n {
            y[iy] += a * x[ix];
            ix += incx;
            iy += incy;
        }
    }
}

/// `x := a*x` (`xSCAL`).
pub fn scal<T: Scalar>(n: usize, a: T, x: &mut [T], incx: usize) {
    if incx == 1 {
        for xi in &mut x[..n] {
            *xi *= a;
        }
    } else {
        let mut ix = 0;
        for _ in 0..n {
            x[ix] *= a;
            ix += incx;
        }
    }
}

/// `x := r*x` with a real scalar (`CSSCAL`/`ZDSCAL`; plain `xSCAL` for reals).
pub fn rscal<T: Scalar>(n: usize, r: T::Real, x: &mut [T], incx: usize) {
    if incx == 1 {
        for xi in &mut x[..n] {
            *xi = xi.mul_real(r);
        }
    } else {
        let mut ix = 0;
        for _ in 0..n {
            x[ix] = x[ix].mul_real(r);
            ix += incx;
        }
    }
}

/// `y := x` (`xCOPY`).
pub fn copy<T: Scalar>(n: usize, x: &[T], incx: usize, y: &mut [T], incy: usize) {
    if incx == 1 && incy == 1 {
        y[..n].copy_from_slice(&x[..n]);
    } else {
        let (mut ix, mut iy) = (0, 0);
        for _ in 0..n {
            y[iy] = x[ix];
            ix += incx;
            iy += incy;
        }
    }
}

/// Exchanges `x` and `y` (`xSWAP`).
pub fn swap<T: Scalar>(n: usize, x: &mut [T], incx: usize, y: &mut [T], incy: usize) {
    let (mut ix, mut iy) = (0, 0);
    for _ in 0..n {
        core::mem::swap(&mut x[ix], &mut y[iy]);
        ix += incx;
        iy += incy;
    }
}

/// Unconjugated dot product `xᵀ y` (`xDOT` / `xDOTU`).
pub fn dotu<T: Scalar>(n: usize, x: &[T], incx: usize, y: &[T], incy: usize) -> T {
    let mut s = T::zero();
    if incx == 1 && incy == 1 {
        for (&xi, &yi) in x[..n].iter().zip(&y[..n]) {
            s += xi * yi;
        }
    } else {
        let (mut ix, mut iy) = (0, 0);
        for _ in 0..n {
            s += x[ix] * y[iy];
            ix += incx;
            iy += incy;
        }
    }
    s
}

/// Conjugated dot product `xᴴ y` (`xDOT` / `xDOTC`).
pub fn dotc<T: Scalar>(n: usize, x: &[T], incx: usize, y: &[T], incy: usize) -> T {
    let mut s = T::zero();
    if incx == 1 && incy == 1 {
        for (&xi, &yi) in x[..n].iter().zip(&y[..n]) {
            s += xi.conj() * yi;
        }
    } else {
        let (mut ix, mut iy) = (0, 0);
        for _ in 0..n {
            s += x[ix].conj() * y[iy];
            ix += incx;
            iy += incy;
        }
    }
    s
}

/// Euclidean norm `‖x‖₂` (`xNRM2`), computed with the scaled accumulation
/// of `xLASSQ` so it neither overflows nor underflows prematurely.
pub fn nrm2<T: Scalar>(n: usize, x: &[T], incx: usize) -> T::Real {
    let (mut scale, mut ssq) = (T::Real::zero(), T::Real::one());
    lassq(n, x, incx, &mut scale, &mut ssq);
    scale * ssq.sqrt_r()
}

/// `xLASSQ`: updates `(scale, ssq)` so that
/// `scale² · ssq = old_scale² · old_ssq + Σ |x_i|²` without overflow.
///
/// Exception semantics follow Demmel et al. (arXiv:2207.09281): a NaN
/// element makes `ssq` NaN so the caller's `scale * sqrt(ssq)` is NaN; an
/// Inf element (with no NaN anywhere) makes the result `+Inf`. NaN wins
/// over Inf regardless of encounter order.
pub fn lassq<T: Scalar>(n: usize, x: &[T], incx: usize, scale: &mut T::Real, ssq: &mut T::Real) {
    let mut update = |v: T::Real| {
        let a = v.rabs();
        if a.is_nan() {
            // Poison the sum-of-squares; `scale` stays finite (or Inf),
            // and `scale * sqrt(NaN)` is NaN even for `scale == 0`.
            *ssq = T::Real::nan();
            return;
        }
        if !a.is_finite_r() {
            // ±Inf: the exact sum is +Inf unless a NaN was already seen.
            // `scale/Inf == 0` keeps later finite updates harmless.
            *scale = a;
            if !ssq.is_nan() {
                *ssq = T::Real::one();
            }
            return;
        }
        if a.is_zero() {
            return;
        }
        if *scale < a {
            let r = *scale / a;
            *ssq = T::Real::one() + *ssq * r * r;
            *scale = a;
        } else {
            let r = a / *scale;
            *ssq += r * r;
        }
    };
    let mut ix = 0;
    for _ in 0..n {
        let xi = x[ix];
        update(xi.re());
        if T::IS_COMPLEX {
            update(xi.im());
        }
        ix += incx;
    }
}

/// Sum of `abs1` moduli (`xASUM` / `xCASUM`): `Σ (|re| + |im|)`.
pub fn asum<T: Scalar>(n: usize, x: &[T], incx: usize) -> T::Real {
    let mut s = T::Real::zero();
    let mut ix = 0;
    for _ in 0..n {
        s += x[ix].abs1();
        ix += incx;
    }
    s
}

/// 0-based index of the first element with the largest `abs1` modulus
/// (`IxAMAX`, shifted to 0-based). Returns 0 when `n == 0`.
///
/// NaN semantics are first-NaN-wins, per Demmel et al. (arXiv:2207.09281):
/// the index of the first NaN element is returned, so LU-style pivoting on
/// a poisoned column selects the NaN instead of silently skipping it (the
/// historical `a > best` comparison ignores NaN entirely).
pub fn iamax<T: Scalar>(n: usize, x: &[T], incx: usize) -> usize {
    // A short vector is done before the lanes of the other form fill.
    if incx == 1 && n >= 16 {
        return iamax_contiguous(&x[..n]);
    }
    let mut best = T::Real::zero();
    let mut arg = 0usize;
    let mut ix = 0;
    for k in 0..n {
        let a = x[ix].abs1();
        if a.is_nan() {
            return k;
        }
        if a > best {
            best = a;
            arg = k;
        }
        ix += incx;
    }
    arg
}

/// [`iamax`] on a contiguous `x`, same index in every case, with no branch
/// on where the maximum lies (a pivot search meets a new column every
/// time; a guessed branch is a misprediction per call). First the largest
/// modulus: element `i` goes to lane `i mod 8` of eight independent running
/// maxima and sums, no index carried, so the pass vectorizes. Then the
/// lane that holds it is walked once, end to start, keeping the last hit.
/// Two lanes holding the same maximum (an exact tie, or all zeros) take the
/// plain search. The moduli are non-negative, so their sum is NaN exactly
/// when one of them is, and then the first NaN is the answer. `x` is not
/// empty.
fn iamax_contiguous<T: Scalar>(x: &[T]) -> usize {
    const LANES: usize = 8;
    let mut best = [T::Real::zero(); LANES];
    let mut sum = [T::Real::zero(); LANES];
    let mut groups = x.chunks_exact(LANES);
    for g in &mut groups {
        for l in 0..LANES {
            let a = g[l].abs1();
            sum[l] += a;
            if a > best[l] {
                best[l] = a;
            }
        }
    }
    for (l, v) in groups.remainder().iter().enumerate() {
        let a = v.abs1();
        sum[l] += a;
        if a > best[l] {
            best[l] = a;
        }
    }
    // Pairwise, so the two reductions are three dependent steps, not eight.
    let mut top = best;
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for l in 0..width {
            sum[l] += sum[l + width];
            if top[l + width] > top[l] {
                top[l] = top[l + width];
            }
        }
    }
    if sum[0].is_nan() {
        return x.iter().position(|v| v.abs1().is_nan()).unwrap_or(0);
    }
    let max = top[0];
    let (mut lane, mut holders) = (0, 0);
    for l in (0..LANES).rev() {
        let holds = best[l] == max;
        lane = if holds { l } else { lane };
        holders += usize::from(holds);
    }
    if holders > 1 {
        return x.iter().position(|v| v.abs1() == max).unwrap_or(0);
    }
    let mut arg = lane;
    for i in (lane..x.len()).step_by(LANES).rev() {
        arg = if x[i].abs1() == max { i } else { arg };
    }
    arg
}

/// Generates a real Givens rotation (`xROTG`, real form):
/// returns `(c, s, r)` with `[c s; -s c]ᵀ [a; b] = [r; 0]`.
pub fn rotg<R: RealScalar>(a: R, b: R) -> (R, R, R) {
    // The LAPACK xLARTG formulation: robust and produces c >= 0.
    if b.is_zero() {
        (R::one(), R::zero(), a)
    } else if a.is_zero() {
        (R::zero(), R::one(), b)
    } else {
        let r = a.hypot(b).sign(a);
        let c = a / r;
        let s = b / r;
        (c, s, r)
    }
}

/// Applies a real plane rotation to a pair of vectors (`xROT`):
/// `(x_i, y_i) := (c·x_i + s·y_i, −s·x_i + c·y_i)`.
pub fn rot<T: Scalar>(
    n: usize,
    x: &mut [T],
    incx: usize,
    y: &mut [T],
    incy: usize,
    c: T::Real,
    s: T::Real,
) {
    let (mut ix, mut iy) = (0, 0);
    for _ in 0..n {
        let xi = x[ix];
        let yi = y[iy];
        x[ix] = xi.mul_real(c) + yi.mul_real(s);
        y[iy] = yi.mul_real(c) - xi.mul_real(s);
        ix += incx;
        iy += incy;
    }
}

/// Conjugates a vector in place (`xLACGV`). No-op for real scalars.
pub fn lacgv<T: Scalar>(n: usize, x: &mut [T], incx: usize) {
    if !T::IS_COMPLEX {
        return;
    }
    let mut ix = 0;
    for _ in 0..n {
        x[ix] = x[ix].conj();
        ix += incx;
    }
}

/// Applies a sequence of row interchanges to `A` (`xLASWP`).
///
/// `ipiv` is 1-based (LAPACK convention): for `k` in `k1..k2`, row `k` is
/// swapped with row `ipiv[k] - 1` (0-based rows). Columns are the outer
/// loop: every interchange is applied to one column while it sits in L1,
/// instead of striding each swap across all `n` columns.
pub fn laswp<T: Scalar>(n: usize, a: &mut [T], lda: usize, k1: usize, k2: usize, ipiv: &[i32]) {
    for j in 0..n {
        let col = &mut a[j * lda..];
        for k in k1..k2 {
            col.swap(k, (ipiv[k] - 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use la_core::C64;

    #[test]
    fn axpy_strided() {
        let x = [1.0f64, 9.0, 2.0, 9.0, 3.0];
        let mut y = [10.0f64, 20.0, 30.0];
        axpy(3, 2.0, &x, 2, &mut y, 1);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn dot_variants() {
        let x = [C64::new(1.0, 2.0), C64::new(3.0, -1.0)];
        let y = [C64::new(2.0, 0.0), C64::new(0.0, 1.0)];
        let du = dotu(2, &x, 1, &y, 1);
        let dc = dotc(2, &x, 1, &y, 1);
        assert_eq!(
            du,
            C64::new(1.0, 2.0) * C64::new(2.0, 0.0) + C64::new(3.0, -1.0) * C64::new(0.0, 1.0)
        );
        assert_eq!(
            dc,
            C64::new(1.0, -2.0) * C64::new(2.0, 0.0) + C64::new(3.0, 1.0) * C64::new(0.0, 1.0)
        );
    }

    #[test]
    fn nrm2_is_scale_safe() {
        let big = 1.0e200;
        let x = [big, big, big, big];
        let r: f64 = nrm2(4, &x, 1);
        assert!((r - 2.0e200).abs() < 1e185);
        let tiny = 1.0e-200;
        let x = [tiny; 9];
        let r: f64 = nrm2(9, &x, 1);
        assert!((r - 3.0e-200).abs() < 1e-214);
    }

    #[test]
    fn nrm2_complex() {
        let x = [C64::new(3.0, 4.0)];
        assert!((nrm2(1, &x, 1) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn asum_iamax() {
        let x = [C64::new(1.0, -1.0), C64::new(0.0, 3.0), C64::new(-2.0, 0.0)];
        assert_eq!(asum(3, &x, 1), 7.0);
        assert_eq!(iamax(3, &x, 1), 1);
        assert_eq!(iamax(0, &x, 1), 0);
    }

    #[test]
    fn reductions_propagate_nan_and_inf_all_four_types() {
        use la_core::C32;

        fn check<T: Scalar>() {
            let nan = T::from_real(T::Real::nan());
            let inf = T::from_real(T::Real::one() / T::Real::zero());
            let fin = |v: f64| T::from_f64(v);

            // nrm2 / lassq: NaN anywhere → NaN, Inf (no NaN) → +Inf.
            let x = [fin(1.0), nan, fin(2.0)];
            assert!(nrm2(3, &x, 1).is_nan(), "{}: nrm2 lost a NaN", T::PREFIX);
            let x = [fin(1.0), inf, fin(2.0)];
            let r = nrm2(3, &x, 1);
            assert!(
                !r.is_finite_r() && !r.is_nan(),
                "{}: nrm2 of an Inf vector must be +Inf, got {r:?}",
                T::PREFIX
            );
            // NaN wins over Inf in either encounter order.
            assert!(nrm2(2, &[nan, inf], 1).is_nan());
            assert!(nrm2(2, &[inf, nan], 1).is_nan());
            // NaN first, before scale ever leaves zero.
            assert!(nrm2(2, &[nan, fin(5.0)], 1).is_nan());
            // Two Infs stay Inf.
            let r = nrm2(2, &[inf, inf], 1);
            assert!(!r.is_finite_r() && !r.is_nan());

            // asum propagates through plain accumulation.
            assert!(asum(3, &[fin(1.0), nan, fin(2.0)], 1).is_nan());
            assert!(!asum(2, &[fin(1.0), inf], 1).is_finite_r());

            // iamax: first NaN wins; Inf dominates finite values.
            assert_eq!(iamax(4, &[fin(1.0), nan, fin(9.0), nan], 1), 1);
            assert_eq!(iamax(3, &[fin(1.0), fin(9.0), inf], 1), 2);
        }
        check::<f32>();
        check::<f64>();
        check::<C32>();
        check::<C64>();

        // Complex: a NaN hiding in the imaginary part must also poison.
        let x = [C64::new(1.0, 0.0), C64::new(0.0, f64::NAN)];
        assert!(nrm2(2, &x, 1).is_nan());
        assert_eq!(iamax(2, &x, 1), 1);
    }

    /// The contiguous form returns the strided loop's index in
    /// every case: on both sides of its 16-element cutoff and of its
    /// 8-lane groups, with the maximum first, last and repeated, all
    /// zeros, NaNs before and after the maximum, Inf.
    #[test]
    fn iamax_contiguous_agrees_with_strided_all_four_types() {
        use la_core::C32;

        fn check<T: Scalar>() {
            let nan = T::from_real(T::Real::nan());
            let inf = T::from_real(T::Real::one() / T::Real::zero());
            for n in [1usize, 7, 15, 16, 17, 23, 24, 25, 96, 97] {
                let base: Vec<T> = (0..n)
                    .map(|i| T::from_f64(((i * 37 + 11) % 101) as f64 / 50.5 - 1.0))
                    .collect();
                // The same values at stride 2, odd slots poisoned.
                let agree = |x: &[T], what: &str| -> usize {
                    let mut wide = vec![nan; 2 * n];
                    for (i, &v) in x.iter().enumerate() {
                        wide[2 * i] = v;
                    }
                    let got = iamax(n, x, 1);
                    assert_eq!(got, iamax(n, &wide, 2), "{} n={n} {what}", T::PREFIX);
                    got
                };
                agree(&base, "values");
                assert_eq!(agree(&vec![T::zero(); n], "all zero"), 0);
                let big = T::from_f64(-7.0);
                for at in [0, n / 2, n - 1] {
                    let mut x = base.clone();
                    x[at] = big;
                    assert_eq!(agree(&x, "one maximum"), at);
                    // A tie further on does not move it; one before does.
                    x[n - 1] = -big;
                    assert_eq!(agree(&x, "tie after"), at);
                    x[0] = big;
                    assert_eq!(agree(&x, "tie before"), 0);
                    // The first NaN beats the maximum wherever it is.
                    let mut x = base.clone();
                    x[n / 2] = inf;
                    x[at] = nan;
                    x[n - 1] = nan;
                    assert_eq!(agree(&x, "nan"), at);
                }
                let mut x = base.clone();
                x[n - 1] = inf;
                assert_eq!(agree(&x, "inf last"), n - 1);
            }
        }
        check::<f32>();
        check::<f64>();
        check::<C32>();
        check::<C64>();
    }

    #[test]
    fn rot_and_rotg_zero_second_component() {
        let (c, s, r) = rotg(3.0f64, 4.0);
        assert!((c * c + s * s - 1.0).abs() < 1e-15);
        assert!((r.abs() - 5.0).abs() < 1e-15);
        let mut x = [3.0f64];
        let mut y = [4.0f64];
        rot(1, &mut x, 1, &mut y, 1, c, s);
        assert!((x[0] - r).abs() < 1e-14);
        assert!(y[0].abs() < 1e-14);
    }

    #[test]
    fn swap_and_copy() {
        let mut x = [1.0f64, 2.0];
        let mut y = [3.0f64, 4.0];
        swap(2, &mut x, 1, &mut y, 1);
        assert_eq!(x, [3.0, 4.0]);
        let mut z = [0.0f64; 2];
        copy(2, &x, 1, &mut z, 1);
        assert_eq!(z, [3.0, 4.0]);
    }

    #[test]
    fn lacgv_conjugates_complex_only() {
        let mut x = [C64::new(1.0, 2.0)];
        lacgv(1, &mut x, 1);
        assert_eq!(x[0], C64::new(1.0, -2.0));
        let mut y = [5.0f64];
        lacgv(1, &mut y, 1);
        assert_eq!(y[0], 5.0);
    }
}
