//! The paper's "error exits" test category, widened to every driver
//! family: each shape violation must produce the ERINFO-convention
//! `INFO = -i` for the offending argument index, and the message must
//! carry the `LA_*` routine name exactly as the Fortran ERINFO prints it.

use la_core::{except, BandMat, FpCheckPolicy, LaError, Mat, PackedMat, SymBandMat, Trans, Uplo};

fn expect_nonfinite<T>(r: Result<T, LaError>, routine: &str, argument: usize) {
    match r {
        Err(e) => {
            assert!(
                matches!(e, LaError::NonFinite { .. }),
                "{routine}: expected NonFinite, got {e:?}"
            );
            assert_eq!(e.info(), -101, "{routine}: wrong INFO extension code");
            assert_eq!(e.routine(), routine, "wrong routine name");
            if let LaError::NonFinite { argument: got, .. } = e {
                assert_eq!(got, argument, "{routine}: wrong offending argument");
            }
            let msg = format!("{e}");
            assert!(
                msg.contains(&format!("Terminated in LAPACK90 subroutine {routine}")),
                "ERINFO message shape: {msg}"
            );
        }
        Ok(_) => panic!("{routine}: expected NonFinite on argument {argument}, got success"),
    }
}

fn expect_illegal<T>(r: Result<T, LaError>, routine: &str, index: i32) {
    match r {
        Err(e) => {
            assert_eq!(e.info(), -index, "{routine}: wrong INFO");
            assert_eq!(e.routine(), routine, "wrong routine name");
            let msg = format!("{e}");
            assert!(
                msg.contains(&format!("Terminated in LAPACK90 subroutine {routine}")),
                "ERINFO message shape: {msg}"
            );
        }
        Ok(_) => panic!("{routine}: expected INFO = -{index}, got success"),
    }
}

#[test]
fn gesv_family_error_exits() {
    // -1: A not square.
    let mut a: Mat<f64> = Mat::zeros(3, 4);
    let mut b: Vec<f64> = vec![0.0; 3];
    expect_illegal(la90::gesv(&mut a, &mut b), "LA_GESV", 1);
    // -2: B rows mismatch.
    let mut a: Mat<f64> = Mat::identity(4);
    let mut b: Vec<f64> = vec![0.0; 3];
    expect_illegal(la90::gesv(&mut a, &mut b), "LA_GESV", 2);
    // -3: IPIV length mismatch.
    let mut b: Vec<f64> = vec![0.0; 4];
    let mut piv = vec![0i32; 3];
    expect_illegal(la90::gesv_ipiv(&mut a, &mut b, &mut piv), "LA_GESV", 3);
}

#[test]
fn band_and_tridiagonal_error_exits() {
    // GBSV: band without factor space is argument 1.
    let mut ab: BandMat<f64> = BandMat::zeros(4, 4, 1, 1);
    let mut b: Vec<f64> = vec![0.0; 4];
    expect_illegal(la90::gbsv(&mut ab, &mut b), "LA_GBSV", 1);
    // GBSV: wrong B rows.
    let mut ab: BandMat<f64> = BandMat::zeros_for_factor(4, 4, 1, 1);
    let mut b: Vec<f64> = vec![0.0; 3];
    expect_illegal(la90::gbsv(&mut ab, &mut b), "LA_GBSV", 2);
    // GTSV: wrong DL length.
    let mut dl = vec![0.0f64; 1];
    let mut d = vec![1.0f64; 4];
    let mut du = vec![0.0f64; 3];
    let mut b = vec![0.0f64; 4];
    expect_illegal(la90::gtsv(&mut dl, &mut d, &mut du, &mut b), "LA_GTSV", 1);
    // PTSV: wrong E length.
    let mut d = vec![1.0f64; 4];
    let mut e = vec![0.0f64; 1];
    let mut b = vec![0.0f64; 4];
    expect_illegal(la90::ptsv::<f64, _>(&mut d, &mut e, &mut b), "LA_PTSV", 2);
}

#[test]
fn spd_and_indefinite_error_exits() {
    let mut a: Mat<f64> = Mat::zeros(3, 4);
    let mut b: Vec<f64> = vec![0.0; 3];
    expect_illegal(la90::posv(&mut a, &mut b), "LA_POSV", 1);
    let mut a: Mat<f64> = Mat::identity(3);
    let mut b: Vec<f64> = vec![0.0; 2];
    expect_illegal(la90::posv(&mut a, &mut b), "LA_POSV", 2);
    expect_illegal(la90::sysv(&mut a, &mut b), "LA_SYSV", 2);
    expect_illegal(la90::hesv(&mut a, &mut b), "LA_HESV", 2);
    let mut ap: PackedMat<f64> = PackedMat::zeros(3, Uplo::Upper);
    expect_illegal(la90::ppsv(&mut ap, &mut b), "LA_PPSV", 2);
    expect_illegal(la90::spsv(&mut ap, &mut b), "LA_SPSV", 2);
}

#[test]
fn least_squares_error_exits() {
    let mut a: Mat<f64> = Mat::zeros(5, 3);
    let mut b: Vec<f64> = vec![0.0; 4];
    expect_illegal(la90::gels(&mut a, &mut b), "LA_GELS", 2);
    expect_illegal(la90::gelss(&mut a, &mut b, -1.0), "LA_GELSS", 2);
    expect_illegal(la90::gelsx(&mut a, &mut b, -1.0), "LA_GELSX", 2);
    // GGLSE: dimension relations violated (p > n).
    let mut a: Mat<f64> = Mat::zeros(4, 2);
    let mut bb: Mat<f64> = Mat::zeros(3, 2);
    let mut c = vec![0.0f64; 4];
    let mut d = vec![0.0f64; 3];
    expect_illegal(la90::gglse(&mut a, &mut bb, &mut c, &mut d), "LA_GGLSE", 2);
}

#[test]
fn eigen_error_exits() {
    let mut a: Mat<f64> = Mat::zeros(3, 4);
    expect_illegal(la90::syev(&mut a, la90::Jobz::Values), "LA_SYEV", 1);
    expect_illegal(la90::syevd(&mut a, la90::Jobz::Values), "LA_SYEVD", 1);
    expect_illegal(la90::geev(&mut a, false, false), "LA_GEEV", 1);
    expect_illegal(la90::gees(&mut a, false, None), "LA_GEES", 1);
    // STEV: E too short.
    let mut d = vec![1.0f64; 5];
    let mut e = vec![0.0f64; 2];
    expect_illegal(
        la90::stev::<f64>(&mut d, &mut e, la90::Jobz::Values),
        "LA_STEV",
        2,
    );
    // SYGV: B shape.
    let mut a: Mat<f64> = Mat::identity(3);
    let mut b: Mat<f64> = Mat::identity(4);
    expect_illegal(la90::sygv(&mut a, &mut b, la90::Jobz::Values), "LA_SYGV", 2);
}

#[test]
fn computational_error_exits() {
    let mut a: Mat<f64> = Mat::zeros(4, 3);
    let mut piv = vec![0i32; 2];
    expect_illegal(la90::getrf(&mut a, &mut piv), "LA_GETRF", 2);
    let a: Mat<f64> = Mat::identity(3);
    let piv = vec![1i32; 2];
    let mut b = vec![0.0f64; 3];
    expect_illegal(la90::getrs(&a, &piv, &mut b, Trans::No), "LA_GETRS", 2);
    let mut a2: Mat<f64> = Mat::zeros(3, 2);
    expect_illegal(la90::getri(&mut a2, &piv), "LA_GETRI", 1);
    let mut a3: Mat<f64> = Mat::zeros(2, 3);
    expect_illegal(la90::potrf(&mut a3, Uplo::Upper), "LA_POTRF", 1);
    expect_illegal(la90::sytrd(&mut a3, Uplo::Upper), "LA_SYTRD", 1);
}

#[test]
fn positive_info_variants() {
    // Singular: the full Fortran ERINFO story incl. the U(i,i) = 0 text.
    let mut a: Mat<f64> = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
    let mut b = vec![1.0f64, 2.0];
    let e = la90::gesv(&mut a, &mut b).unwrap_err();
    assert!(matches!(e, LaError::Singular { index: 2, .. }));
    assert!(format!("{e}").contains("singular"));

    // Not positive definite.
    let mut a: Mat<f64> = Mat::from_rows(&[vec![1.0, 0.0], vec![0.0, -2.0]]);
    let mut b = vec![1.0f64, 1.0];
    let e = la90::posv(&mut a, &mut b).unwrap_err();
    assert!(matches!(e, LaError::NotPosDef { minor: 2, .. }));

    // Allocation-failure code path is representable.
    let e = LaError::AllocFailed {
        routine: "LA_GETRI",
    };
    assert_eq!(e.info(), -100);

    // ABFT soft-fault code path (INFO = -102), with and without a
    // localized block. End-to-end detection through a driver is covered
    // by tests/degrade.rs under the `fault-inject` feature.
    let e = LaError::SoftFault {
        routine: "LA_GESV",
        block: 3,
    };
    assert_eq!(e.info(), -102);
    assert_eq!(e.routine(), "LA_GESV");
    let msg = format!("{e}");
    assert!(msg.contains("Terminated in LAPACK90 subroutine LA_GESV"));
    assert!(msg.contains("soft fault in block 3"), "{msg}");
    let e = LaError::SoftFault {
        routine: "LA_POSV",
        block: usize::MAX,
    };
    assert!(format!("{e}").contains("detected a soft fault)"));
}

/// A square matrix with one NaN element.
fn nan_mat(n: usize) -> Mat<f64> {
    let mut a: Mat<f64> = Mat::identity(n);
    a[(0, 0)] = f64::NAN;
    a
}

/// A diagonally-dominant (finite) test matrix.
fn dd_mat(n: usize) -> Mat<f64> {
    Mat::from_fn(n, n, |i, j| if i == j { 4.0 } else { 1.0 })
}

#[test]
fn nonfinite_screening_linear_systems() {
    except::with_policy(FpCheckPolicy::ScanInputs, || {
        let nan = f64::NAN;
        // GESV: NaN in A is argument 1, NaN in B is argument 2.
        let mut b = vec![0.0f64; 3];
        expect_nonfinite(la90::gesv(&mut nan_mat(3), &mut b), "LA_GESV", 1);
        let mut b = vec![0.0f64, nan, 0.0];
        expect_nonfinite(la90::gesv(&mut dd_mat(3), &mut b), "LA_GESV", 2);
        // GBSV.
        let mut ab = BandMat::from_dense(&nan_mat(4), 1, 1, true);
        let mut b = vec![0.0f64; 4];
        expect_nonfinite(la90::gbsv(&mut ab, &mut b), "LA_GBSV", 1);
        // GTSV: NaN in D is argument 2.
        let mut dl = vec![0.0f64; 3];
        let mut d = vec![1.0, nan, 1.0, 1.0];
        let mut du = vec![0.0f64; 3];
        let mut b = vec![0.0f64; 4];
        expect_nonfinite(la90::gtsv(&mut dl, &mut d, &mut du, &mut b), "LA_GTSV", 2);
        // POSV / PPSV / PBSV / PTSV.
        let mut b = vec![0.0f64; 3];
        expect_nonfinite(la90::posv(&mut nan_mat(3), &mut b), "LA_POSV", 1);
        let mut ap = PackedMat::from_dense(&nan_mat(3), Uplo::Upper);
        expect_nonfinite(la90::ppsv(&mut ap, &mut b), "LA_PPSV", 1);
        let mut sb = SymBandMat::from_dense(&nan_mat(3), 1, Uplo::Upper);
        expect_nonfinite(la90::pbsv(&mut sb, &mut b), "LA_PBSV", 1);
        let mut d = vec![2.0f64, nan, 2.0];
        let mut e = vec![0.0f64; 2];
        expect_nonfinite(la90::ptsv::<f64, _>(&mut d, &mut e, &mut b), "LA_PTSV", 1);
        // SYSV / SPSV: NaN in B is argument 2.
        let mut b = vec![nan, 0.0, 0.0];
        expect_nonfinite(la90::sysv(&mut dd_mat(3), &mut b), "LA_SYSV", 2);
        let mut ap = PackedMat::from_dense(&dd_mat(3), Uplo::Upper);
        expect_nonfinite(la90::spsv(&mut ap, &mut b), "LA_SPSV", 2);
    });
}

#[test]
fn nonfinite_screening_least_squares() {
    except::with_policy(FpCheckPolicy::ScanInputs, || {
        let nan = f64::NAN;
        let mut a: Mat<f64> = Mat::from_fn(5, 3, |i, j| (i + j + 1) as f64);
        a[(2, 1)] = nan;
        let mut b = vec![0.0f64; 5];
        expect_nonfinite(la90::gels(&mut a.clone(), &mut b.clone()), "LA_GELS", 1);
        expect_nonfinite(
            la90::gelss(&mut a.clone(), &mut b.clone(), -1.0),
            "LA_GELSS",
            1,
        );
        expect_nonfinite(la90::gelsx(&mut a, &mut b, -1.0), "LA_GELSX", 1);
        // GGLSE: NaN in C is argument 3.
        let mut a: Mat<f64> = Mat::from_fn(4, 3, |i, j| (i + 2 * j + 1) as f64);
        let mut bb: Mat<f64> = Mat::from_fn(2, 3, |i, j| (i + j + 1) as f64);
        let mut c = vec![0.0f64, nan, 0.0, 0.0];
        let mut d = vec![0.0f64; 2];
        expect_nonfinite(la90::gglse(&mut a, &mut bb, &mut c, &mut d), "LA_GGLSE", 3);
        // GGGLM: NaN in D is argument 3.
        let mut a: Mat<f64> = Mat::from_fn(4, 2, |i, j| (i + j + 1) as f64);
        let mut bb: Mat<f64> = Mat::identity(4);
        let mut d = vec![0.0f64, 0.0, nan, 0.0];
        expect_nonfinite(la90::ggglm(&mut a, &mut bb, &mut d), "LA_GGGLM", 3);
    });
}

#[test]
fn nonfinite_screening_eigen_and_svd() {
    except::with_policy(FpCheckPolicy::ScanInputs, || {
        use la90::{EigRange, Jobz};
        let nan = f64::NAN;
        expect_nonfinite(la90::syev(&mut nan_mat(3), Jobz::Values), "LA_SYEV", 1);
        expect_nonfinite(la90::syevd(&mut nan_mat(3), Jobz::Values), "LA_SYEVD", 1);
        expect_nonfinite(
            la90::syevx(
                &mut nan_mat(3),
                Jobz::Values,
                EigRange::All,
                Uplo::Upper,
                0.0,
            ),
            "LA_SYEVX",
            1,
        );
        let mut ap = PackedMat::from_dense(&nan_mat(3), Uplo::Upper);
        expect_nonfinite(la90::spev(&mut ap.clone(), Jobz::Values), "LA_SPEV", 1);
        expect_nonfinite(la90::spevd(&mut ap.clone(), Jobz::Values), "LA_SPEVD", 1);
        expect_nonfinite(
            la90::spevx(&mut ap, Jobz::Values, EigRange::All, 0.0),
            "LA_SPEVX",
            1,
        );
        let sb = SymBandMat::from_dense(&nan_mat(3), 1, Uplo::Upper);
        expect_nonfinite(la90::sbev(&sb, Jobz::Values), "LA_SBEV", 1);
        expect_nonfinite(la90::sbevd(&sb, Jobz::Values), "LA_SBEVD", 1);
        expect_nonfinite(
            la90::sbevx(&sb, Jobz::Values, EigRange::All, 0.0),
            "LA_SBEVX",
            1,
        );
        // STEV family: NaN in D is 1, NaN in E is 2.
        let mut d = vec![1.0, nan, 1.0];
        let mut e = vec![0.0f64; 2];
        expect_nonfinite(
            la90::stev::<f64>(&mut d, &mut e, Jobz::Values),
            "LA_STEV",
            1,
        );
        let mut d = vec![1.0f64; 3];
        let mut e = vec![0.0, nan];
        expect_nonfinite(
            la90::stev::<f64>(&mut d, &mut e, Jobz::Values),
            "LA_STEV",
            2,
        );
        let mut d = vec![1.0, nan, 1.0];
        let mut e = vec![0.0f64; 2];
        expect_nonfinite(
            la90::stevd::<f64>(&mut d, &mut e, Jobz::Values),
            "LA_STEVD",
            1,
        );
        expect_nonfinite(
            la90::stevx::<f64>(&d, &e, Jobz::Values, EigRange::All, 0.0),
            "LA_STEVX",
            1,
        );
        // Nonsymmetric and SVD.
        expect_nonfinite(la90::geev(&mut nan_mat(3), false, false), "LA_GEEV", 1);
        expect_nonfinite(la90::geevx(&mut nan_mat(3)), "LA_GEEVX", 1);
        expect_nonfinite(la90::gees(&mut nan_mat(3), false, None), "LA_GEES", 1);
        expect_nonfinite(la90::gesvd(&mut nan_mat(3), false, false), "LA_GESVD", 1);
        // Generalized: NaN in B is argument 2.
        expect_nonfinite(
            la90::sygv(&mut dd_mat(3), &mut nan_mat(3), Jobz::Values),
            "LA_SYGV",
            2,
        );
        let mut ap = PackedMat::from_dense(&nan_mat(3), Uplo::Upper);
        let mut bp = PackedMat::from_dense(&dd_mat(3), Uplo::Upper);
        expect_nonfinite(la90::spgv(&mut ap, &mut bp, Jobz::Values), "LA_SPGV", 1);
        let sa = SymBandMat::from_dense(&nan_mat(3), 1, Uplo::Upper);
        let sb = SymBandMat::from_dense(&dd_mat(3), 1, Uplo::Upper);
        expect_nonfinite(la90::sbgv(&sa, &sb, Jobz::Values), "LA_SBGV", 1);
        expect_nonfinite(la90::gegv(&mut nan_mat(3), &mut dd_mat(3)), "LA_GEGV", 1);
        let mut ca: Mat<la_core::C64> = Mat::identity(3);
        ca[(0, 0)] = la_core::C64::new(f64::NAN, 0.0);
        let mut cb: Mat<la_core::C64> = Mat::identity(3);
        expect_nonfinite(la90::gegs(&mut ca, &mut cb), "LA_GEGS", 1);
    });
}

#[test]
fn nonfinite_screening_computational_and_expert() {
    except::with_policy(FpCheckPolicy::ScanInputs, || {
        use la90::Fact;
        let nan = f64::NAN;
        let mut piv = vec![0i32; 3];
        expect_nonfinite(la90::getrf(&mut nan_mat(3), &mut piv), "LA_GETRF", 1);
        expect_nonfinite(
            la90::getrf_rcond(&mut nan_mat(3), &mut piv, la_core::Norm::One),
            "LA_GETRF",
            1,
        );
        // GETRS: NaN in B is argument 3.
        let a = dd_mat(3);
        let piv = vec![1i32, 2, 3];
        let mut b = vec![nan, 0.0, 0.0];
        expect_nonfinite(la90::getrs(&a, &piv, &mut b, Trans::No), "LA_GETRS", 3);
        expect_nonfinite(la90::getri(&mut nan_mat(3), &piv), "LA_GETRI", 1);
        // GERFS: NaN in AF is argument 2.
        let mut x = vec![0.0f64; 3];
        let b = vec![1.0f64; 3];
        expect_nonfinite(
            la90::gerfs(&a, &nan_mat(3), &piv, &b, &mut x, Trans::No),
            "LA_GERFS",
            2,
        );
        expect_nonfinite(la90::geequ(&nan_mat(3)), "LA_GEEQU", 1);
        expect_nonfinite(la90::potrf(&mut nan_mat(3), Uplo::Upper), "LA_POTRF", 1);
        expect_nonfinite(
            la90::potrf_rcond(&mut nan_mat(3), Uplo::Upper),
            "LA_POTRF",
            1,
        );
        expect_nonfinite(
            la90::sygst(
                &mut dd_mat(3),
                &nan_mat(3),
                la90::GvItype::AxLBx,
                Uplo::Upper,
            ),
            "LA_SYGST",
            2,
        );
        expect_nonfinite(la90::sytrd(&mut nan_mat(3), Uplo::Upper), "LA_SYTRD", 1);
        // ORGTR: NaN in TAU is argument 2.
        let tau = vec![nan, 0.0];
        expect_nonfinite(
            la90::orgtr(&mut dd_mat(3), &tau, Uplo::Upper),
            "LA_ORGTR",
            2,
        );
        // LAGGE: NaN in the prescribed singular values (argument 4).
        let d = vec![1.0, nan, 0.5];
        expect_nonfinite(la90::lagge::<f64>(3, 3, &d, 7), "LA_LAGGE", 4);

        // Expert drivers.
        let mut x = vec![0.0f64; 3];
        let mut b = vec![nan, 0.0, 0.0];
        expect_nonfinite(
            la90::gesvx(&mut dd_mat(3), &mut b, &mut x, Fact::NotFactored, Trans::No),
            "LA_GESVX",
            2,
        );
        expect_nonfinite(
            la90::posvx(
                &mut nan_mat(3),
                &mut vec![0.0f64; 3],
                &mut x,
                Fact::NotFactored,
                Uplo::Upper,
            ),
            "LA_POSVX",
            1,
        );
        let ab = BandMat::from_dense(&nan_mat(3), 1, 1, false);
        expect_nonfinite(
            la90::gbsvx(&ab, &vec![0.0f64; 3], &mut x, Trans::No),
            "LA_GBSVX",
            1,
        );
        // GTSVX: NaN in DU is argument 3.
        let dl = vec![0.0f64; 2];
        let d = vec![2.0f64; 3];
        let du = vec![nan, 0.0];
        expect_nonfinite(
            la90::gtsvx(&dl, &d, &du, &vec![0.0f64; 3], &mut x, Trans::No),
            "LA_GTSVX",
            3,
        );
        // PTSVX: NaN in E is argument 2.
        let dr = vec![2.0f64; 3];
        let er = vec![nan, 0.0];
        expect_nonfinite(
            la90::ptsvx::<f64, _, _>(&dr, &er, &vec![0.0f64; 3], &mut x),
            "LA_PTSVX",
            2,
        );
        expect_nonfinite(
            la90::sysvx(&nan_mat(3), &vec![0.0f64; 3], &mut x, false, Uplo::Lower),
            "LA_SYSVX",
            1,
        );
        let ap = PackedMat::from_dense(&dd_mat(3), Uplo::Upper);
        expect_nonfinite(
            la90::spsvx(&ap, &vec![nan, 0.0, 0.0], &mut x, false),
            "LA_SPSVX",
            2,
        );
        let ap_nan = PackedMat::from_dense(&nan_mat(3), Uplo::Upper);
        expect_nonfinite(
            la90::ppsvx(&ap_nan, &vec![0.0f64; 3], &mut x),
            "LA_PPSVX",
            1,
        );
        let sb_nan = SymBandMat::from_dense(&nan_mat(3), 1, Uplo::Upper);
        expect_nonfinite(
            la90::pbsvx(&sb_nan, &vec![0.0f64; 3], &mut x),
            "LA_PBSVX",
            1,
        );
    });
}

#[test]
fn nonfinite_policy_gating() {
    // Off (pinned, so the test also passes when LA_FP_CHECK is set in
    // the environment): a NaN input flows through the LU unscreened —
    // the driver succeeds and the poison lands in the solution, NaN-in
    // NaN-out (the Demmel et al. consistency contract).
    except::with_policy(FpCheckPolicy::Off, || {
        let mut a = dd_mat(3);
        let mut b = vec![f64::NAN, 0.0, 0.0];
        assert_eq!(except::policy(), FpCheckPolicy::Off);
        la90::gesv(&mut a, &mut b).unwrap();
        assert!(b.iter().any(|x| x.is_nan()));
    });

    // ScanOutputs (and Full): finite inputs whose solution overflows are
    // flagged on the *output* argument instead of returning Inf silently.
    except::with_policy(FpCheckPolicy::ScanOutputs, || {
        let mut a: Mat<f64> = Mat::from_fn(1, 1, |_, _| 1e-308);
        let mut b = vec![1e308f64];
        expect_nonfinite(la90::gesv(&mut a, &mut b), "LA_GESV", 2);
    });
    except::with_policy(FpCheckPolicy::Full, || {
        // Full also screens inputs.
        let mut b = vec![0.0f64; 3];
        expect_nonfinite(la90::gesv(&mut nan_mat(3), &mut b), "LA_GESV", 1);
    });
}

/// A refinement driver of `la90::mixed` under its routine name; every
/// one takes its arguments in the order `(A, B, X)`.
type Refiner = (
    &'static str,
    fn(&mut Mat<f64>, &Mat<f64>, &mut Mat<f64>) -> Result<la90::RfsxOut<f64>, LaError>,
);

const REFINERS: [Refiner; 3] = [
    ("LA_GESVXX", |a, b, x| la90::gesvxx(a, b, x)),
    ("LA_POSVXX", |a, b, x| la90::posvxx(a, b, x, Uplo::Upper)),
    ("LA_POSVXX", |a, b, x| la90::posvxx(a, b, x, Uplo::Lower)),
];

#[test]
fn mixed_driver_error_exits() {
    for (name, solve) in REFINERS {
        let mut a: Mat<f64> = Mat::zeros(3, 4); // not square → -1
        let b: Mat<f64> = Mat::zeros(3, 1);
        let mut x: Mat<f64> = Mat::zeros(3, 1);
        expect_illegal(solve(&mut a, &b, &mut x), name, 1);
        let mut a: Mat<f64> = Mat::identity(4);
        let b: Mat<f64> = Mat::zeros(3, 1); // wrong B rows → -2
        let mut x: Mat<f64> = Mat::zeros(4, 1);
        expect_illegal(solve(&mut a, &b, &mut x), name, 2);
        let b: Mat<f64> = Mat::zeros(4, 1);
        let mut x: Mat<f64> = Mat::zeros(3, 1); // wrong X rows → -3
        expect_illegal(solve(&mut a, &b, &mut x), name, 3);
        let b: Mat<f64> = Mat::zeros(4, 2);
        let mut x: Mat<f64> = Mat::zeros(4, 3); // NRHS mismatch → -3
        expect_illegal(solve(&mut a, &b, &mut x), name, 3);
    }
}

#[test]
fn nonfinite_screening_mixed_drivers() {
    except::with_policy(FpCheckPolicy::ScanInputs, || {
        for (name, solve) in REFINERS {
            // NaN in A is argument 1, NaN in B is argument 2 — same
            // indices as the plain drivers, with X (argument 3) untouched
            // by the scan.
            let b: Mat<f64> = Mat::zeros(3, 1);
            let mut x: Mat<f64> = Mat::zeros(3, 1);
            expect_nonfinite(solve(&mut nan_mat(3), &b, &mut x), name, 1);
            let b = Mat::from_col_major(3, 1, vec![0.0, f64::NAN, 0.0]);
            expect_nonfinite(solve(&mut dd_mat(3), &b, &mut x), name, 2);
        }
    });
}
