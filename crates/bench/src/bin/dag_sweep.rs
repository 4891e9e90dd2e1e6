//! Blocked-vs-dag sweep for the tile task-graph factorizations:
//! measures `getrf`/`potrf`/`geqrf` under `LA_FACTOR=blocked` and
//! `LA_FACTOR=dag` at a fixed thread budget, records the graph shape the
//! probe layer observed (task count, edge count, critical path,
//! occupancy), and emits `BENCH_dag.json` in the current directory.
//!
//! Both algorithm families are selected through `tune::with` — the same
//! scoped override callers use — so the sweep doubles as an end-to-end
//! check that `FactorAlgo::Dag` actually routes the public entry points
//! through the tile runtime.
//!
//! `--quick` shrinks the sweep for CI (n = 512 only) and writes
//! `BENCH_dag.quick.json` instead, leaving the checked-in baseline
//! untouched; `bench_gate --min-dag-speedup` enforces the committed
//! baseline's dag-over-blocked floor at n ≥ 2048.

use la_bench::{bench_matrix, bench_spd, timeit};
use la_core::json::JsonBuf;
use la_core::probe::{self, ProbePolicy};
use la_core::{tune, Mat, Uplo};
use la_lapack as f77;

/// Tile order used for every dag row (recorded in the `nb` column so
/// `bench_gate` matches rows across runs).
const TILE_NB: usize = 192;
/// Thread budget for both families. Oversubscription mirrors the other
/// committed baselines, which predate the host-core clamp.
const THREADS: usize = 4;

fn blocked_cfg() -> tune::TuneConfig {
    tune::TuneConfig {
        max_threads: THREADS,
        oversubscribe: true,
        ..tune::TuneConfig::defaults()
    }
}

fn dag_cfg() -> tune::TuneConfig {
    tune::TuneConfig {
        factor: tune::FactorAlgo::Dag,
        tile_nb: TILE_NB,
        ..blocked_cfg()
    }
}

struct Row {
    op: String,
    n: usize,
    nb: usize,
    ms: f64,
    gflops: f64,
}

/// Model flop counts for the square factorizations (LAPACK working
///-note formulas), used only for the reported GF/s column.
fn flops(family: &str, n: usize) -> f64 {
    let n3 = (n as f64).powi(3);
    match family {
        "getrf" => 2.0 / 3.0 * n3,
        "potrf" => 1.0 / 3.0 * n3,
        "geqrf" => 4.0 / 3.0 * n3,
        _ => unreachable!(),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = tune::host_parallelism();
    let mode = if quick { " (quick)" } else { "" };
    println!("== dag_sweep{mode}: {cores} core(s), threads={THREADS}, tile_nb={TILE_NB} ==");

    let reps = 3;
    let sizes: &[usize] = if quick { &[512] } else { &[512, 1024, 2048] };

    let mut rows: Vec<Row> = Vec::new();
    for &n in sizes {
        let gen: Mat<f64> = bench_matrix(n, 17);
        let spd: Mat<f64> = bench_spd(n, 19);
        for (algo, cfg, nb) in [
            ("blocked", blocked_cfg(), 0usize),
            ("dag", dag_cfg(), TILE_NB),
        ] {
            let ms = timeit(reps, || {
                let mut a = gen.clone();
                let mut ipiv = vec![0i32; n];
                tune::with(cfg, || {
                    assert_eq!(f77::getrf(n, n, a.as_mut_slice(), n, &mut ipiv), 0);
                });
                a
            }) * 1e3;
            push(&mut rows, "getrf", algo, n, nb, ms);

            let ms = timeit(reps, || {
                let mut a = spd.clone();
                tune::with(cfg, || {
                    assert_eq!(f77::potrf(Uplo::Lower, n, a.as_mut_slice(), n), 0);
                });
                a
            }) * 1e3;
            push(&mut rows, "potrf", algo, n, nb, ms);

            let ms = timeit(reps, || {
                let mut a = gen.clone();
                let mut tau = vec![0.0f64; n];
                tune::with(cfg, || {
                    assert_eq!(f77::geqrf(n, n, a.as_mut_slice(), n, &mut tau), 0);
                });
                a
            }) * 1e3;
            push(&mut rows, "geqrf", algo, n, nb, ms);
        }
    }

    // --- Graph shape at the largest measured size ----------------------
    // One probed dag run per routine; the span tree carries the task
    // count, inferred edge count, critical path and worker occupancy the
    // runtime recorded.
    let n = *sizes.last().unwrap();
    let gen: Mat<f64> = bench_matrix(n, 17);
    let spd: Mat<f64> = bench_spd(n, 19);
    let mut shapes: Vec<(&'static str, probe::DagShape)> = Vec::new();
    let mut shape_of = |routine: &'static str, f: &mut dyn FnMut()| {
        probe::reset();
        probe::with_policy(ProbePolicy::Spans, || tune::with(dag_cfg(), f));
        let report = probe::snapshot();
        if let Some(shape) = report
            .spans
            .iter()
            .find_map(|s| s.find(routine))
            .and_then(|s| s.dag)
        {
            println!(
                "{routine:10} n={n:5}  tasks={} edges={} critical_path={} occupancy={:.2}",
                shape.tasks, shape.edges, shape.critical_path, shape.occupancy
            );
            shapes.push((routine, shape));
        }
    };
    shape_of("getrf_dag", &mut || {
        let mut a = gen.clone();
        let mut ipiv = vec![0i32; n];
        assert_eq!(f77::getrf(n, n, a.as_mut_slice(), n, &mut ipiv), 0);
    });
    shape_of("potrf_dag", &mut || {
        let mut a = spd.clone();
        assert_eq!(f77::potrf(Uplo::Lower, n, a.as_mut_slice(), n), 0);
    });
    shape_of("geqrf_dag", &mut || {
        let mut a = gen.clone();
        let mut tau = vec![0.0f64; n];
        assert_eq!(f77::geqrf(n, n, a.as_mut_slice(), n, &mut tau), 0);
    });

    // --- Emit JSON ----------------------------------------------------
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("host");
    j.begin_obj();
    j.field_uint("cores", cores as u64);
    j.field_uint("threads", THREADS as u64);
    j.field_uint("tile_nb", TILE_NB as u64);
    j.end_obj();
    j.key("dag_sweep");
    j.begin_arr();
    for r in &rows {
        j.begin_obj();
        j.field_str("op", &r.op);
        j.field_uint("n", r.n as u64);
        j.field_uint("threads", THREADS as u64);
        j.field_uint("nb", r.nb as u64);
        j.field_num("ms", r.ms);
        j.field_num("gflops", r.gflops);
        j.end_obj();
    }
    j.end_arr();
    // Headline ratios: blocked wall-clock over dag wall-clock, per
    // routine and size. `bench_gate --min-dag-speedup` enforces a floor
    // on the getrf/potrf entries at n ≥ 2048.
    j.key("speedup_dag_vs_blocked");
    j.begin_obj();
    for family in ["getrf", "potrf", "geqrf"] {
        for &n in sizes {
            let find = |algo: &str| {
                rows.iter()
                    .find(|r| r.op == format!("{family}_{algo}") && r.n == n)
                    .map(|r| r.ms)
            };
            if let (Some(blocked), Some(dag)) = (find("blocked"), find("dag")) {
                j.field_num(&format!("{family}_{n}"), blocked / dag);
            }
        }
    }
    j.end_obj();
    j.key("dag_shape");
    j.begin_arr();
    for (routine, s) in &shapes {
        j.begin_obj();
        j.field_str("routine", routine);
        j.field_uint("n", n as u64);
        j.field_uint("tasks", s.tasks);
        j.field_uint("edges", s.edges);
        j.field_uint("critical_path", s.critical_path);
        j.field_uint("workers", s.workers);
        j.field_num("occupancy", s.occupancy);
        j.end_obj();
    }
    j.end_arr();
    j.end_obj();
    let path = if quick {
        "BENCH_dag.quick.json"
    } else {
        "BENCH_dag.json"
    };
    std::fs::write(path, j.into_string()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

fn push(rows: &mut Vec<Row>, family: &str, algo: &str, n: usize, nb: usize, ms: f64) {
    let gflops = flops(family, n) / (ms * 1e-3) / 1e9;
    println!("{family:6} {algo:8} n={n:5}  {ms:9.2} ms  {gflops:7.2} GF/s");
    rows.push(Row {
        op: format!("{family}_{algo}"),
        n,
        nb,
        ms,
        gflops,
    });
}
