//! End-to-end tests for the extra-precise refinement drivers of
//! `la90::mixed`:
//!
//! * `gesvxx` drives Hilbert systems up to n = 12 to componentwise
//!   backward error ≤ 4ε, and fixes a Wilkinson-growth system where the
//!   plain solve cannot,
//! * `posvxx` does the same for an SPD Hilbert system.

use la_core::{Mat, Scalar, Uplo};

/// The n×n Hilbert matrix — condition number ~10¹³ at n = 10.
fn hilbert<T: Scalar>(n: usize) -> Mat<T> {
    Mat::from_fn(n, n, |i, j| T::from_f64(1.0 / (i + j + 1) as f64))
}

/// Componentwise backward error with the residual measured in
/// double-double, so the measurement itself is trustworthy at ε.
fn comp_berr_f64(n: usize, a: &Mat<f64>, b: &[f64], x: &[f64]) -> f64 {
    let mut berr = 0.0f64;
    for i in 0..n {
        let mut acc = la_core::dd::Dd::from_f64(b[i]);
        let mut denom = b[i].abs();
        for k in 0..n {
            acc = acc.fma_acc(-a[(i, k)], x[k]);
            denom += (a[(i, k)] * x[k]).abs();
        }
        if denom > 0.0 {
            berr = berr.max(acc.to_f64().abs() / denom);
        }
    }
    berr
}

#[test]
fn gesvxx_hilbert_reaches_working_precision_backward_error() {
    // The PR's acceptance bound: extra-precise (double-double) residual
    // refinement achieves componentwise and normwise backward error ≤ 4ε
    // on Hilbert systems up to n = 12 (condition number ~1.7·10¹⁶).
    for n in [8usize, 10, 12] {
        let a0 = hilbert::<f64>(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut ax = a0.clone();
        let mut x = vec![0.0f64; n];
        let out = la90::gesvxx(&mut ax, &b, &mut x).expect("gesvxx");
        let refined = comp_berr_f64(n, &a0, &b, &x);
        assert!(
            refined <= 4.0 * f64::EPSILON,
            "n={n}: refined berr {refined:e} > 4ε"
        );
        // The driver's own reported bounds are consistent.
        assert!(
            out.berr[0] <= 16.0 * f64::EPSILON,
            "n={n}: {:e}",
            out.berr[0]
        );
        assert!(out.nberr[0] <= 4.0 * f64::EPSILON, "n={n}");
        assert!(out.niter[0] >= 1, "n={n}");
    }
}

#[test]
fn gesvxx_fixes_backward_error_plain_gesv_cannot() {
    // Where plain f64 gesv demonstrably does NOT meet the 4ε bound: the
    // Wilkinson growth matrix (unit diagonal, -1 below, last column 1)
    // has partial-pivoting element growth 2^(n-1), so at n = 60 the
    // plain solve's backward error is catastrophic (~0.1). Two passes of
    // double-double-residual refinement restore it to ≤ 4ε.
    let n = 60;
    let a0: Mat<f64> = Mat::from_fn(n, n, |i, j| {
        if j == n - 1 || i == j {
            1.0
        } else if i > j {
            -1.0
        } else {
            0.0
        }
    });
    let mut rng = la_lapack::Larnv::new(5);
    let b: Vec<f64> = (0..n)
        .map(|_| rng.scalar::<f64>(la_lapack::Dist::Uniform11))
        .collect();

    let mut ap = a0.clone();
    let mut bp = b.clone();
    la90::gesv(&mut ap, &mut bp).expect("gesv");
    let plain = comp_berr_f64(n, &a0, &b, &bp);
    assert!(
        plain > 1e3 * f64::EPSILON,
        "element growth should wreck the plain solve, got {plain:e}"
    );

    let mut ax = a0.clone();
    let mut x = vec![0.0f64; n];
    let out = la90::gesvxx(&mut ax, &b, &mut x).expect("gesvxx");
    let refined = comp_berr_f64(n, &a0, &b, &x);
    assert!(
        refined <= 4.0 * f64::EPSILON,
        "refined berr {refined:e} > 4ε"
    );
    assert!(out.berr[0] <= 16.0 * f64::EPSILON, "{:e}", out.berr[0]);
}

#[test]
fn posvxx_spd_hilbert() {
    let n = 10;
    let a0 = hilbert::<f64>(n); // SPD
    let b = vec![1.0f64; n];
    let mut ax = a0.clone();
    let mut x = vec![0.0f64; n];
    let out = la90::posvxx(&mut ax, &b, &mut x, Uplo::Lower).expect("posvxx");
    assert!(out.berr[0] <= 16.0 * f64::EPSILON, "{:e}", out.berr[0]);
    assert!(comp_berr_f64(n, &a0, &b, &x) <= 4.0 * f64::EPSILON);
}
