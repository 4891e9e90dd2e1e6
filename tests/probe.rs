//! End-to-end tests for the `la_core::probe` observability layer: the
//! driver → factorization → BLAS-3 span tree, closed-form flop
//! accounting, and the guarantee that instrumentation never perturbs
//! numerical results.
//!
//! The probe counters and span roots are process-global, so every test
//! here serializes on one mutex before resetting them.

use std::sync::Mutex;

use la_core::probe::{self, flops, ProbePolicy};
use la_core::{tune, Mat, Side, Trans, Uplo};

static LOCK: Mutex<()> = Mutex::new(());

/// Deterministic well-conditioned test matrix (diagonally dominated).
fn test_matrix(n: usize, seed: u64) -> Mat<f64> {
    let mut a = Mat::zeros(n, n);
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    for j in 0..n {
        for i in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            a[(i, j)] = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
        }
        a[(j, j)] += n as f64;
    }
    a
}

/// Replicates `getrf`'s blocked loop analytically: the total flops its
/// trsm/gemm children should report for a square n×n factorization with
/// panel width `nb` (the panel getf2 work stays outside the BLAS).
fn getrf_blas_child_flops(n: usize, nb: usize) -> u64 {
    let mut total = 0u64;
    let mut j = 0usize;
    while j < n {
        let jb = nb.min(n - j);
        if j + jb < n {
            total += flops::trsm(Side::Left, jb, n - j - jb); // U12 solve
            total += flops::gemm(n - j - jb, n - j - jb, jb); // trailing update
        }
        j += jb;
    }
    total
}

#[test]
fn gesv_span_tree_matches_closed_form_flops() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    probe::reset();

    let n = 256usize;
    probe::with_policy(ProbePolicy::Spans, || {
        let mut a = test_matrix(n, 1);
        let mut b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        la90::gesv(&mut a, &mut b).expect("gesv");
    });

    let report = probe::snapshot();
    let root = report
        .spans
        .iter()
        .find(|s| s.routine == "LA_GESV")
        .expect("LA_GESV root span");
    assert_eq!(root.layer, probe::Layer::Driver);

    let getrf = root.find("getrf").expect("getrf child span under LA_GESV");
    assert_eq!(getrf.layer, probe::Layer::Lapack);
    assert_eq!(getrf.flops, flops::getrf(n, n));
    // NB captured from tune at entry.
    assert_eq!(getrf.nb, tune::current().nb("getrf", n));

    // The factorization's BLAS-3 leaves: gemm and trsm children whose
    // summed flops must match the analytically replicated blocked loop
    // within 1% (they agree exactly — both sides evaluate the same
    // closed forms — but the acceptance bound is 1%).
    let child_sum: u64 = getrf
        .children
        .iter()
        .filter(|c| c.routine == "gemm" || c.routine == "trsm")
        .map(|c| c.flops)
        .sum();
    assert!(
        getrf.children.iter().any(|c| c.routine == "gemm"),
        "getrf should record gemm leaves"
    );
    assert!(
        getrf.children.iter().any(|c| c.routine == "trsm"),
        "getrf should record trsm leaves"
    );
    let expected = getrf_blas_child_flops(n, tune::current().nb("getrf", n));
    let diff = child_sum.abs_diff(expected) as f64;
    assert!(
        diff <= expected as f64 * 0.01,
        "getrf BLAS child flops {child_sum} vs expected {expected}"
    );

    // The solve phase shows up too: getrs under the driver with its two
    // triangular solves.
    let getrs = root.find("getrs").expect("getrs child span under LA_GESV");
    assert_eq!(getrs.flops, flops::getrs(n, 1));
    assert_eq!(
        getrs
            .children
            .iter()
            .filter(|c| c.routine == "trsm")
            .count(),
        2
    );
}

#[test]
fn results_bitwise_identical_across_policies() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let n = 128usize;
    let solve = |pol: ProbePolicy| -> (Vec<u64>, Vec<u64>) {
        probe::with_policy(pol, || {
            let mut a = test_matrix(n, 7);
            let mut b: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 2.0).collect();
            la90::gesv(&mut a, &mut b).expect("gesv");
            (
                a.as_slice().iter().map(|x| x.to_bits()).collect(),
                b.iter().map(|x| x.to_bits()).collect(),
            )
        })
    };

    probe::reset();
    let off = solve(ProbePolicy::Off);
    let counters = solve(ProbePolicy::Counters);
    let spans = solve(ProbePolicy::Spans);
    assert_eq!(off, counters, "Counters policy changed numerical results");
    assert_eq!(off, spans, "Spans policy changed numerical results");
}

#[test]
fn off_policy_leaves_counters_untouched() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    probe::reset();

    probe::with_policy(ProbePolicy::Off, || {
        let mut a = test_matrix(64, 3);
        let mut b: Vec<f64> = vec![1.0; 64];
        la90::gesv(&mut a, &mut b).expect("gesv");
    });

    let report = probe::snapshot();
    assert!(
        report.counters.is_empty(),
        "Off policy recorded counters: {:?}",
        report.counters
    );
    assert!(report.spans.is_empty(), "Off policy recorded spans");
}

#[test]
fn counter_totals_match_closed_forms_across_sizes() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let take = |routine: &str| -> (u64, u64) {
        let report = probe::snapshot();
        report
            .counters
            .iter()
            .find(|r| r.routine == routine)
            .map(|r| (r.calls, r.flops))
            .unwrap_or((0, 0))
    };

    for &n in &[24usize, 64, 160, 256] {
        let a = test_matrix(n, n as u64);
        let b = test_matrix(n, n as u64 + 1);

        // gemm: 2n³ per call.
        probe::reset();
        probe::with_policy(ProbePolicy::Counters, || {
            let mut c: Mat<f64> = Mat::zeros(n, n);
            la_blas::gemm(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                1.0,
                a.as_slice(),
                n,
                b.as_slice(),
                n,
                0.0,
                c.as_mut_slice(),
                n,
            );
        });
        assert_eq!(take("gemm"), (1, flops::gemm(n, n, n)), "gemm n={n}");

        // syrk: k·n·(n+1).
        probe::reset();
        probe::with_policy(ProbePolicy::Counters, || {
            let mut c: Mat<f64> = Mat::zeros(n, n);
            la_blas::syrk(
                Uplo::Lower,
                Trans::No,
                n,
                n,
                1.0,
                a.as_slice(),
                n,
                0.0,
                c.as_mut_slice(),
                n,
            );
        });
        assert_eq!(take("syrk"), (1, flops::syrk(n, n)), "syrk n={n}");

        // trsm (left): m²·nrhs.
        probe::reset();
        probe::with_policy(ProbePolicy::Counters, || {
            let mut x = b.clone();
            la_blas::trsm(
                Side::Left,
                Uplo::Lower,
                Trans::No,
                la_core::Diag::NonUnit,
                n,
                n,
                1.0,
                a.as_slice(),
                n,
                x.as_mut_slice(),
                n,
            );
        });
        assert_eq!(
            take("trsm"),
            (1, flops::trsm(Side::Left, n, n)),
            "trsm n={n}"
        );

        // getrf: one top-level call; its own counter row carries the full
        // 2n³/3 closed form regardless of how many BLAS children it made.
        probe::reset();
        probe::with_policy(ProbePolicy::Counters, || {
            let mut m = a.clone();
            let mut ipiv = vec![0i32; n];
            assert_eq!(la_lapack::getrf(n, n, m.as_mut_slice(), n, &mut ipiv), 0);
        });
        assert_eq!(take("getrf"), (1, flops::getrf(n, n)), "getrf n={n}");

        // potrf on an SPD matrix: n³/3.
        probe::reset();
        probe::with_policy(ProbePolicy::Counters, || {
            let mut spd = Mat::zeros(n, n);
            for j in 0..n {
                for i in 0..n {
                    spd[(i, j)] = if i == j {
                        n as f64
                    } else {
                        1.0 / (1 + i + j) as f64
                    };
                }
            }
            assert_eq!(la_lapack::potrf(Uplo::Lower, n, spd.as_mut_slice(), n), 0);
        });
        assert_eq!(take("potrf"), (1, flops::potrf(n)), "potrf n={n}");
    }
}

#[test]
fn report_json_round_trips() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    probe::reset();

    probe::with_policy(ProbePolicy::Spans, || {
        let mut a = test_matrix(48, 5);
        let mut b: Vec<f64> = vec![2.0; 48];
        la90::gesv(&mut a, &mut b).expect("gesv");
    });

    let report = probe::snapshot();
    let json = report.to_json();
    let doc = la_core::json::Json::parse(&json).expect("report JSON parses");
    let counters = doc
        .get("counters")
        .and_then(|v| v.as_arr())
        .expect("counters array");
    assert_eq!(counters.len(), report.counters.len());
    assert!(doc.get("spans").and_then(|v| v.as_arr()).is_some());
    assert!(doc.get("parallel_fallbacks").is_some());
    // The table renderer covers the same rows.
    let table = report.to_table();
    assert!(table.contains("LA_GESV"));
    assert!(table.contains("getrf"));
}
