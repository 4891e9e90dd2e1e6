//! Mixed-precision refinement sweep: times the `DSGESV`-lineage drivers
//! (`gesv_mixed` / `posv_mixed`) against their plain full-precision
//! counterparts across sizes — with working-precision and with
//! double-double residuals — and emits `BENCH_mixed.json` in the current
//! directory.
//!
//! The benchmark matrices are well-conditioned (condition ~100), so the
//! low-precision path must converge (`iter ≥ 0`) — the sweep asserts it
//! on every timed run; a fallback would silently time the wrong
//! algorithm.
//!
//! Besides the timing rows, the sweep records the `dd_hilbert` accuracy
//! section: the componentwise backward error `gesvxx` (double-double
//! residual refinement) achieves on the n = 12 Hilbert system — the
//! measurement `bench_gate --max-dd-berr` holds at ≤ 4ε.
//!
//! `--quick` shrinks the sweep for CI (n = 512 only, still best-of-3)
//! and writes `BENCH_mixed.quick.json`, leaving the checked-in baseline
//! untouched; the `bench_gate` binary compares the two and additionally
//! enforces the ≥1.2× mixed-over-full floor on the baseline at n ≥ 1024.

use la_bench::{bench_matrix, bench_spd, timeit};
use la_core::json::JsonBuf;
use la_core::tune::{self, RefineMode};
use la_core::{Mat, Uplo};
use la_lapack as f77;

struct Row {
    op: &'static str,
    n: usize,
    ms: f64,
    iter: i32,
}

/// Times one `gesv_mixed` run in the given residual mode.
fn time_gesv_mixed(
    n: usize,
    reps: usize,
    gen: &Mat<f64>,
    b: &[f64],
    refine: RefineMode,
) -> (f64, i32) {
    let cfg = tune::TuneConfig {
        refine,
        ..tune::current()
    };
    tune::with(cfg, || {
        let mut last_iter = 0i32;
        let ms = timeit(reps, || {
            let mut a = gen.clone();
            let mut x = vec![0.0f64; n];
            let mut ipiv = vec![0i32; n];
            let mut iter = 0i32;
            assert_eq!(
                f77::gesv_mixed(
                    n,
                    1,
                    a.as_mut_slice(),
                    n,
                    &mut ipiv,
                    b,
                    n,
                    &mut x,
                    n,
                    &mut iter
                ),
                0
            );
            assert!(
                iter >= 0,
                "bench matrix must take the mixed path at {refine:?} (iter={iter})"
            );
            last_iter = iter;
            x
        }) * 1e3;
        (ms, last_iter)
    })
}

/// Componentwise backward error of `x` for `A·x = b`, residual measured
/// in double-double so the measurement is trustworthy at ε.
fn comp_berr(n: usize, a: &Mat<f64>, b: &[f64], x: &[f64]) -> f64 {
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

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = tune::host_parallelism();
    let mode = if quick { " (quick)" } else { "" };
    println!("== mixed_sweep{mode}: {cores} core(s) ==");

    let reps = 3;
    let sizes: &[usize] = if quick { &[512] } else { &[256, 512, 1024] };

    let mut rows: Vec<Row> = Vec::new();
    for &n in sizes {
        let gen: Mat<f64> = bench_matrix(n, 3);
        let spd: Mat<f64> = bench_spd(n, 9);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();

        // Plain full-precision LU solve.
        let ms = timeit(reps, || {
            let mut a = gen.clone();
            let mut bx = b.clone();
            let mut ipiv = vec![0i32; n];
            assert_eq!(
                f77::gesv(n, 1, a.as_mut_slice(), n, &mut ipiv, &mut bx, n),
                0
            );
            bx
        }) * 1e3;
        println!("gesv_full   n={n:5}  {ms:9.2} ms");
        rows.push(Row {
            op: "gesv_full",
            n,
            ms,
            iter: 0,
        });

        // Mixed: f32 factorization + f64 refinement, residuals in the
        // working precision and in double-double. Must converge.
        for (op, refine) in [
            ("gesv_mixed", RefineMode::Working),
            ("gesv_mixed_dd", RefineMode::Dd),
        ] {
            let (ms, iter) = time_gesv_mixed(n, reps, &gen, &b, refine);
            println!("{op:<13} n={n:5}  {ms:9.2} ms  (iter={iter})");
            rows.push(Row { op, n, ms, iter });
        }

        // Plain full-precision Cholesky solve.
        let ms = timeit(reps, || {
            let mut a = spd.clone();
            let mut bx = b.clone();
            assert_eq!(
                f77::posv(Uplo::Lower, n, 1, a.as_mut_slice(), n, &mut bx, n),
                0
            );
            bx
        }) * 1e3;
        println!("posv_full   n={n:5}  {ms:9.2} ms");
        rows.push(Row {
            op: "posv_full",
            n,
            ms,
            iter: 0,
        });

        let mut last_iter = 0i32;
        let ms = timeit(reps, || {
            let mut a = spd.clone();
            let mut x = vec![0.0f64; n];
            let mut iter = 0i32;
            assert_eq!(
                f77::posv_mixed(
                    Uplo::Lower,
                    n,
                    1,
                    a.as_mut_slice(),
                    n,
                    &b,
                    n,
                    &mut x,
                    n,
                    &mut iter
                ),
                0
            );
            assert!(iter >= 0, "bench SPD matrix must take the mixed path");
            last_iter = iter;
            x
        }) * 1e3;
        println!("posv_mixed  n={n:5}  {ms:9.2} ms  (iter={last_iter})");
        rows.push(Row {
            op: "posv_mixed",
            n,
            ms,
            iter: last_iter,
        });
    }

    // --- Emit JSON ----------------------------------------------------
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("host");
    j.begin_obj();
    j.field_uint("cores", cores as u64);
    j.end_obj();
    j.key("mixed_sweep");
    j.begin_arr();
    for r in &rows {
        j.begin_obj();
        j.field_str("op", r.op);
        j.field_uint("n", r.n as u64);
        j.field_num("ms", r.ms);
        j.field_uint("iter", r.iter.max(0) as u64);
        j.end_obj();
    }
    j.end_arr();
    // Headline: end-to-end mixed speedup over the plain driver.
    j.key("speedup_mixed_vs_full");
    j.begin_obj();
    for family in ["gesv", "posv"] {
        for &n in sizes {
            let full = rows
                .iter()
                .find(|r| r.op == format!("{family}_full") && r.n == n)
                .map(|r| r.ms);
            let mixed = rows
                .iter()
                .find(|r| r.op == format!("{family}_mixed") && r.n == n)
                .map(|r| r.ms);
            if let (Some(f), Some(m)) = (full, mixed) {
                if m > 0.0 {
                    j.field_num(&format!("{family}_{n}"), f / m);
                }
            }
        }
    }
    j.end_obj();
    // The double-double-residual loop against the plain driver.
    j.key("speedup_dd_vs_full");
    j.begin_obj();
    for &n in sizes {
        let ms_of = |op: &str| rows.iter().find(|r| r.op == op && r.n == n).map(|r| r.ms);
        if let (Some(f), Some(m)) = (ms_of("gesv_full"), ms_of("gesv_mixed_dd")) {
            if m > 0.0 {
                j.field_num(&format!("gesv_dd_{n}"), f / m);
            }
        }
    }
    j.end_obj();
    // Accuracy row for the CI gate: componentwise backward error of the
    // extra-precise (double-double residual) gesvxx on the n = 12
    // Hilbert system — must stay ≤ 4ε (`bench_gate --max-dd-berr`).
    {
        let n = 12;
        let hil: Mat<f64> = Mat::from_fn(n, n, |i, j| 1.0 / (i + j + 1) as f64);
        let bh: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut ah = hil.clone();
        let mut xh = vec![0.0f64; n];
        la90::gesvxx(&mut ah, &bh, &mut xh).expect("gesvxx on Hilbert");
        let berr = comp_berr(n, &hil, &bh, &xh);
        println!(
            "dd_hilbert  n={n:5}  comp berr {berr:.3e}  (4eps = {:.3e})",
            4.0 * f64::EPSILON
        );
        j.key("dd_hilbert");
        j.begin_obj();
        j.field_uint("n", n as u64);
        j.field_num("berr", berr);
        j.end_obj();
    }
    j.end_obj();
    let path = if quick {
        "BENCH_mixed.quick.json"
    } else {
        "BENCH_mixed.json"
    };
    std::fs::write(path, j.into_string()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}
