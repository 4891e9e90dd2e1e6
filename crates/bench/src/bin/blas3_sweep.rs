//! Tuning sweep for the parallel BLAS-3 layer: measures the Level-3
//! kernels and the blocked factorizations across thread counts and block
//! sizes via scoped [`la_core::tune`] overrides, and emits the results as
//! `BENCH_blas3.json` in the current directory.
//!
//! Every configuration is set through `tune::with` — the same mechanism
//! callers use — so the sweep doubles as an end-to-end check that the
//! runtime tuning actually steers the substrate.
//!
//! `--quick` shrinks the sweep for CI (n = 512 only, still best-of-3)
//! and writes `BENCH_blas3.quick.json` instead, leaving the checked-in
//! baseline untouched; the `bench_gate` binary compares the two.

use la_bench::{bench_matrix, bench_spd, timeit};
use la_core::json::JsonBuf;
use la_core::{tune, Mat, Trans, Uplo};
use la_lapack as f77;

fn cfg_threads(t: usize) -> tune::TuneConfig {
    tune::TuneConfig {
        max_threads: t,
        // The sweep measures striping behavior at the *requested* budget
        // even when it exceeds the host cores (the committed baselines
        // predate the host-core clamp and were taken that way).
        oversubscribe: true,
        ..tune::TuneConfig::defaults()
    }
}

struct Row {
    op: &'static str,
    n: usize,
    threads: usize,
    nb: usize,
    ms: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = tune::host_parallelism();
    let auto = tune::TuneConfig::defaults().threads();
    let mode = if quick { " (quick)" } else { "" };
    println!("== blas3_sweep{mode}: {cores} core(s), auto thread budget {auto} ==");

    // Quick mode drops the n=1024 grid but keeps best-of-5 timing:
    // fewer reps are too noisy to gate on now that the packed microkernel
    // path has made the serial n=512 rows only a few ms long.
    let reps = 5;
    let sizes: &[usize] = if quick { &[512] } else { &[512, 1024] };

    let mut rows: Vec<Row> = Vec::new();
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .iter()
        .copied()
        .filter(|&t| t == 1 || t <= 2 * cores)
        .collect();

    // --- Level-3 kernels across thread counts -------------------------
    for &n in sizes {
        let a: Mat<f64> = bench_matrix(n, 3);
        let b: Mat<f64> = bench_matrix(n, 5);
        let mut tri = a.clone();
        for i in 0..n {
            tri[(i, i)] += 4.0;
        }
        for &t in &thread_counts {
            let ms = timeit(reps, || {
                let mut c: Mat<f64> = Mat::zeros(n, n);
                tune::with(cfg_threads(t), || {
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
                c
            }) * 1e3;
            println!("gemm   n={n:5}  threads={t}  {ms:9.2} ms");
            rows.push(Row {
                op: "gemm",
                n,
                threads: t,
                nb: 0,
                ms,
            });

            let ms = timeit(reps, || {
                let mut c: Mat<f64> = Mat::zeros(n, n);
                tune::with(cfg_threads(t), || {
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
                c
            }) * 1e3;
            println!("syrk   n={n:5}  threads={t}  {ms:9.2} ms");
            rows.push(Row {
                op: "syrk",
                n,
                threads: t,
                nb: 0,
                ms,
            });

            let ms = timeit(reps, || {
                let mut x = b.clone();
                tune::with(cfg_threads(t), || {
                    la_blas::trsm(
                        la_core::Side::Left,
                        Uplo::Lower,
                        Trans::No,
                        la_core::Diag::NonUnit,
                        n,
                        n,
                        1.0,
                        tri.as_slice(),
                        n,
                        x.as_mut_slice(),
                        n,
                    );
                });
                x
            }) * 1e3;
            println!("trsm   n={n:5}  threads={t}  {ms:9.2} ms");
            rows.push(Row {
                op: "trsm",
                n,
                threads: t,
                nb: 0,
                ms,
            });
        }
    }

    // --- Factorizations across thread counts --------------------------
    for &n in sizes {
        let gen: Mat<f64> = bench_matrix(n, 7);
        let spd: Mat<f64> = bench_spd(n, 9);
        for &t in &thread_counts {
            let ms = timeit(reps, || {
                let mut a = gen.clone();
                let mut ipiv = vec![0i32; n];
                tune::with(cfg_threads(t), || {
                    assert_eq!(f77::getrf(n, n, a.as_mut_slice(), n, &mut ipiv), 0);
                });
                a
            }) * 1e3;
            println!("getrf  n={n:5}  threads={t}  {ms:9.2} ms");
            rows.push(Row {
                op: "getrf",
                n,
                threads: t,
                nb: 0,
                ms,
            });

            let ms = timeit(reps, || {
                let mut a = spd.clone();
                tune::with(cfg_threads(t), || {
                    assert_eq!(f77::potrf(Uplo::Lower, n, a.as_mut_slice(), n), 0);
                });
                a
            }) * 1e3;
            println!("potrf  n={n:5}  threads={t}  {ms:9.2} ms");
            rows.push(Row {
                op: "potrf",
                n,
                threads: t,
                nb: 0,
                ms,
            });
        }
    }

    // --- NB sweep for the blocked factorizations (auto threads) -------
    let n = 512usize;
    let gen: Mat<f64> = bench_matrix(n, 11);
    let spd: Mat<f64> = bench_spd(n, 13);
    for &nb in &[16usize, 32, 64, 96, 128] {
        let cfg = tune::TuneConfig {
            nb_getrf: nb,
            nb_potrf: nb,
            crossover: 0,
            ..tune::TuneConfig::defaults()
        };
        let ms = timeit(reps, || {
            let mut a = gen.clone();
            let mut ipiv = vec![0i32; n];
            tune::with(cfg, || {
                assert_eq!(f77::getrf(n, n, a.as_mut_slice(), n, &mut ipiv), 0);
            });
            a
        }) * 1e3;
        println!("getrf  n={n:5}  nb={nb:3}       {ms:9.2} ms");
        rows.push(Row {
            op: "getrf_nb",
            n,
            threads: 0,
            nb,
            ms,
        });

        let ms = timeit(reps, || {
            let mut a = spd.clone();
            tune::with(cfg, || {
                assert_eq!(f77::potrf(Uplo::Lower, n, a.as_mut_slice(), n), 0);
            });
            a
        }) * 1e3;
        println!("potrf  n={n:5}  nb={nb:3}       {ms:9.2} ms");
        rows.push(Row {
            op: "potrf_nb",
            n,
            threads: 0,
            nb,
            ms,
        });
    }

    // --- Emit JSON ----------------------------------------------------
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("host");
    j.begin_obj();
    j.field_uint("cores", cores as u64);
    j.field_uint("auto_thread_budget", auto as u64);
    j.end_obj();
    // Pre-PR reference (serial trailing-update substrate, single-core
    // container): potrf/getrf wall-clock before the parallel BLAS-3 layer
    // landed. Kept verbatim for cross-revision comparison.
    j.key("pre_pr_serial_baseline_ms");
    j.begin_obj();
    j.field_num("potrf_512", 7.99);
    j.field_num("getrf_512", 12.47);
    j.field_num("potrf_1024", 54.37);
    j.field_num("getrf_1024", 98.33);
    j.field_uint("host_cores", 1);
    j.end_obj();
    // Serial gemm wall-clock on the unpacked loop-nest substrate
    // immediately before the packed register-blocked microkernel path
    // landed, same single-core container. Kept verbatim: the
    // `speedup_packed_vs_prepacked` section below (and the
    // `bench_gate --min-gemm-speedup` floor) measure against it.
    j.key("pre_packed_gemm_baseline_ms");
    j.begin_obj();
    j.field_num("gemm_512", 42.296);
    j.field_num("gemm_1024", 249.516);
    j.field_uint("host_cores", 1);
    j.end_obj();
    for (key, ops) in [
        (
            "thread_sweep",
            &["gemm", "syrk", "trsm", "getrf", "potrf"][..],
        ),
        ("nb_sweep", &["getrf_nb", "potrf_nb"][..]),
    ] {
        j.key(key);
        j.begin_arr();
        for r in rows.iter().filter(|r| ops.contains(&r.op)) {
            j.begin_obj();
            j.field_str("op", r.op);
            j.field_uint("n", r.n as u64);
            j.field_uint("threads", r.threads as u64);
            j.field_uint("nb", r.nb as u64);
            j.field_num("ms", r.ms);
            j.end_obj();
        }
        j.end_arr();
    }
    // Headline speedups: best parallel time over the forced-serial time.
    j.key("speedup_vs_serial");
    j.begin_obj();
    for op in ["gemm", "syrk", "trsm", "getrf", "potrf"] {
        for &n in sizes {
            let serial = rows
                .iter()
                .find(|r| r.op == op && r.n == n && r.threads == 1)
                .map(|r| r.ms);
            let best = rows
                .iter()
                .filter(|r| r.op == op && r.n == n && r.threads > 1)
                .map(|r| r.ms)
                .fold(f64::INFINITY, f64::min);
            if let Some(s) = serial {
                if best.is_finite() {
                    j.field_num(&format!("{op}_{n}"), s / best);
                }
            }
        }
    }
    j.end_obj();
    // Packed-path headline: fresh serial gemm against the recorded
    // pre-packed serial baseline. `bench_gate --min-gemm-speedup`
    // enforces an absolute floor on these ratios at n ≥ 512.
    j.key("speedup_packed_vs_prepacked");
    j.begin_obj();
    for (n, pre_ms) in [(512usize, 42.296f64), (1024, 249.516)] {
        let fresh = rows
            .iter()
            .find(|r| r.op == "gemm" && r.n == n && r.threads == 1)
            .map(|r| r.ms);
        if let Some(ms) = fresh {
            j.field_num(&format!("gemm_{n}"), pre_ms / ms);
        }
    }
    j.end_obj();
    j.end_obj();
    let path = if quick {
        "BENCH_blas3.quick.json"
    } else {
        "BENCH_blas3.json"
    };
    std::fs::write(path, j.into_string()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}
