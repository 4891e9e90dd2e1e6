//! End-to-end tests for the mixed-precision iterative-refinement driver
//! (`LA_GESV_MIXED`) and the extra-precise refinement drivers:
//!
//! * well-conditioned systems take the low-precision path and refine to
//!   working-precision backward error (`iter > 0`) in both residual
//!   modes (working, dd),
//! * ill-conditioned systems (Hilbert) trigger the guaranteed
//!   full-precision fallback (`iter < 0`) and reproduce the plain
//!   `gesv` solution **bitwise**,
//! * the extra-precise `gesvxx` drives Hilbert systems up to n = 12 to
//!   componentwise backward error ≤ 4ε where the plain solve cannot,
//! * the probe span tree shows the O(n³) factorization flops tagged
//!   low-precision, dominating the working-precision refinement work.

use la_core::probe::{self, ProbePolicy};
use la_core::tune::{self, RefineMode};
use la_core::{Demote, Mat, RealScalar, Scalar, Uplo, C64};

/// Deterministic well-conditioned (diagonally dominant) system with a
/// known solution; returns `(A, B, X_true)`.
fn dd_system<T: Scalar>(n: usize, seed: u64) -> (Mat<T>, Vec<T>, Vec<T>) {
    let mut rng = la_lapack::Larnv::new(seed);
    let mut a: Mat<T> = Mat::from_fn(n, n, |_, _| rng.scalar(la_lapack::Dist::Uniform11));
    for i in 0..n {
        let d = a[(i, i)] + T::from_f64(n as f64);
        a[(i, i)] = d;
    }
    let xt: Vec<T> = (0..n)
        .map(|i| T::from_f64(1.0 + i as f64 / n as f64))
        .collect();
    let b: Vec<T> = (0..n)
        .map(|i| {
            let mut s = T::zero();
            for k in 0..n {
                s += a[(i, k)] * xt[k];
            }
            s
        })
        .collect();
    (a, b, xt)
}

/// The n×n Hilbert matrix — condition number ~10¹³ at n = 10, far beyond
/// what an f32 factorization plus refinement can recover.
fn hilbert<T: Scalar>(n: usize) -> Mat<T> {
    Mat::from_fn(n, n, |i, j| T::from_f64(1.0 / (i + j + 1) as f64))
}

#[test]
fn gesv_mixed_refines_well_conditioned_to_working_precision() {
    fn run<T: Demote>() {
        let n = 64;
        let (a0, b, xt) = dd_system::<T>(n, 1998);
        let mut a = a0.clone();
        let mut x = vec![T::zero(); n];
        let out = la90::gesv_mixedx(&mut a, &b, &mut x).expect("gesv_mixedx");
        // The initial f32-accuracy solve cannot pass the √eps_d-scaled
        // backward-error test, so at least one refinement step runs; the
        // low-precision path must converge, never fall back.
        assert!(
            out.iter > 0 && out.iter <= la_lapack::ITERMAX,
            "{}: iter = {}",
            T::PREFIX,
            out.iter
        );
        // Achieved normwise backward error at working precision.
        let berr = out.berr.to_f64();
        assert!(
            berr <= f64::EPSILON.sqrt(),
            "{}: berr = {berr:e}",
            T::PREFIX
        );
        // And the solution really is the known one.
        let tol = T::Real::EPS.to_f64() * 1e4;
        for i in 0..n {
            assert!((x[i] - xt[i]).abs().to_f64() < tol, "{}: x[{i}]", T::PREFIX);
        }
        // A was preserved (no fallback ran): still the original matrix.
        assert_eq!(a.as_slice(), a0.as_slice(), "{}: A clobbered", T::PREFIX);
    }
    run::<f64>();
    run::<C64>();
}

/// Bit pattern of a scalar, for exact fallback comparison.
fn bits<T: Scalar>(v: T) -> (u64, u64) {
    (v.re().to_f64().to_bits(), v.im().to_f64().to_bits())
}

#[test]
fn gesv_mixed_hilbert_falls_back_bitwise() {
    fn run<T: Demote>() {
        let n = 10;
        let a0 = hilbert::<T>(n);
        let b: Vec<T> = (0..n).map(|i| T::from_f64(1.0 + i as f64)).collect();

        let mut am = a0.clone();
        let mut x = vec![T::zero(); n];
        let iter = la90::gesv_mixed(&mut am, &b, &mut x).expect("gesv_mixed");
        assert!(
            iter < 0,
            "{}: Hilbert must fall back, iter = {iter}",
            T::PREFIX
        );

        // The fallback must be indistinguishable from plain LA_GESV: same
        // factors left in A, same solution, bit for bit.
        let mut ap = a0.clone();
        let mut bp = b.clone();
        la90::gesv(&mut ap, &mut bp).expect("gesv");
        for i in 0..n {
            assert_eq!(bits(x[i]), bits(bp[i]), "{}: x[{i}] differs", T::PREFIX);
        }
        for (idx, (&m, &p)) in am.as_slice().iter().zip(ap.as_slice()).enumerate() {
            assert_eq!(bits(m), bits(p), "{}: factor[{idx}] differs", T::PREFIX);
        }
    }
    run::<f64>();
    run::<C64>();
}

#[test]
fn gesv_mixed_converges_in_both_residual_modes() {
    // Each residual mode must refine a well-conditioned system to working
    // precision under the same convergence criterion (working-precision
    // backward error).
    for refine in [RefineMode::Working, RefineMode::Dd] {
        let cfg = tune::TuneConfig {
            refine,
            ..tune::current()
        };
        tune::with(cfg, || {
            let n = 64;
            let (a0, b, xt) = dd_system::<f64>(n, 1998);
            let mut a = a0.clone();
            let mut x = vec![0.0f64; n];
            let out = la90::gesv_mixedx(&mut a, &b, &mut x).expect("gesv_mixedx");
            assert!(
                out.iter > 0 && out.iter <= la_lapack::ITERMAX,
                "{refine:?}: iter = {}",
                out.iter
            );
            assert!(
                out.berr <= f64::EPSILON.sqrt(),
                "{refine:?}: berr = {:e}",
                out.berr
            );
            for i in 0..n {
                assert!((x[i] - xt[i]).abs() < 1e-10, "{refine:?}: x[{i}]");
            }
            // Converged low-precision path: A preserved.
            assert_eq!(a.as_slice(), a0.as_slice(), "{refine:?}");
        });
    }
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

#[test]
fn demotion_overflow_falls_back_with_iter_minus_2() {
    // An A entry beyond the f32 range cannot be demoted (the DLAG2S
    // condition): iter = -2, but the solve still succeeds in f64.
    let n = 4;
    let mut a: Mat<f64> = Mat::identity(n);
    a[(0, 0)] = 1e300;
    let b = vec![1e300, 2.0, 3.0, 4.0];
    let mut x = vec![0.0f64; n];
    let iter = la90::gesv_mixed(&mut a, &b, &mut x).expect("gesv_mixed");
    assert_eq!(iter, -2);
    assert_eq!(x[1], 2.0);
}

#[test]
fn lo_precision_factorization_dominates_span_tree() {
    // The whole point of the mixed driver: the O(n³) factorization flops
    // run (and are accounted) in the low precision, with only O(n²)
    // refinement work at working precision.
    probe::reset();
    let n = 192;
    probe::with_policy(ProbePolicy::Spans, || {
        let (mut a, b, _) = dd_system::<f64>(n, 7);
        let mut x = vec![0.0f64; n];
        let iter = la90::gesv_mixed(&mut a, &b, &mut x).expect("gesv_mixed");
        assert!(iter > 0, "expected the low-precision path, iter = {iter}");
    });

    let report = probe::snapshot();

    // Counter rows split by precision: the getrf row tagged `lo` carries
    // the full 2n³/3, and no working-precision getrf row exists (the
    // fallback never ran).
    let lo_getrf = report
        .counters
        .iter()
        .find(|r| r.routine == "getrf" && r.lo)
        .expect("low-precision getrf counter row");
    assert_eq!(lo_getrf.flops, probe::flops::getrf(n, n));
    assert!(
        !report
            .counters
            .iter()
            .any(|r| r.routine == "getrf" && !r.lo),
        "no full-precision getrf may run on the converged path"
    );

    // Low-precision flops dominate the working-precision refinement.
    let lo_total: u64 = report
        .counters
        .iter()
        .filter(|r| r.lo)
        .map(|r| r.flops)
        .sum();
    let hi_total: u64 = report
        .counters
        .iter()
        .filter(|r| !r.lo)
        .map(|r| r.flops)
        .sum();
    assert!(
        lo_total > 4 * hi_total,
        "lo flops {lo_total} should dwarf hi flops {hi_total}"
    );

    // The span tree shows the same structure under the driver root.
    let root = report
        .spans
        .iter()
        .find(|s| s.routine == "LA_GESV_MIXED")
        .expect("LA_GESV_MIXED root span");
    let mixed = root.find("gesv_mixed").expect("gesv_mixed span");
    let lo_fac = mixed
        .children
        .iter()
        .find(|c| c.routine == "getrf")
        .expect("getrf child");
    assert!(lo_fac.lo, "factorization span must be tagged low-precision");
    assert!(
        mixed
            .children
            .iter()
            .filter(|c| c.routine == "gemm")
            .all(|c| !c.lo),
        "residual gemms run at working precision"
    );
    // And the renderer marks the split.
    let rendered = report.to_table();
    assert!(
        rendered.contains("getrf[lo]"),
        "table should mark the low-precision rows:\n{rendered}"
    );
}
