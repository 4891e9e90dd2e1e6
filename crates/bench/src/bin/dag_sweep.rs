//! Same-run gate for the two-thread routes: times `getrf`, `potrf` and
//! `geqrf` (f64) at `max_threads = 1` — the serial blocked route — and at
//! `max_threads = 2`, where the thread budget sends orders past the
//! routine's threshold (at the default block width of 128: n ≥ 512 for
//! `getrf` and `potrf`, n ≥ 768 for `geqrf`) to the task graph; and
//! `dgemm` `C = A·A` the same way, which two threads run as column stripes
//! of `C`. The two budgets alternate call by call for at least
//! [`MIN_SECS`] per routine and order, so a slow stretch of a shared host
//! lands on both; the speed-up is the best one-thread time over the best
//! two-thread time. Prints per routine and order both best times, the
//! speed-up and the route the probe recorded: the graph's shape (tasks,
//! edges, critical path, occupancy), `serial blocked` below the threshold,
//! or gemm's stripe count.
//!
//! Usage: `dag_sweep [--quick] [--min-speedup R] [--min-gemm-speedup R]
//! [n ...]`. The orders are the ones given, else 768, 1024, 1536 and 2048;
//! `--quick` keeps 1024 only.
//! With `--min-speedup R` the run exits 1 when the smaller of the `getrf`
//! and `potrf` speed-ups at n = 1024 is below `R`, or when either
//! two-thread call there did not take the task graph; with
//! `--min-gemm-speedup R` when `gemm`'s speed-up at n = 1024 is below `R`,
//! or when its two-thread call did not run two stripes; a gate fails when
//! 1024 is not among the orders. Same-run ratios,
//! like `kernel_bench --min-trsm-over-gemm`: host speed cancels. On a
//! one-core host there is no second thread to measure; the run says
//! `skipped: 1 core` and exits 0.

use la_bench::{bench_matrix, bench_spd, gate, Args};
use la_core::probe::{self, flops, ProbePolicy};
use la_core::{tune, Mat, Trans, Uplo};
use la_lapack as f77;
use std::time::Instant;

/// The order the gates read.
const GATED_N: usize = 1024;

/// The wide budget, against one thread: the width the route's thresholds
/// were measured at.
const WIDE: usize = 2;

/// Least number of pairs per point.
const MIN_PAIRS: usize = 3;

/// Least wall time spent alternating per point. On a 2-vCPU guest the
/// second vCPU is sometimes slow for seconds on end: a two-thread time can
/// double while the one-thread time holds, so a best time needs a run long
/// enough to meet the core free.
const MIN_SECS: f64 = 6.0;

/// One call on `a`, a fresh copy of the input `a0`; returns `info`.
type Routine = fn(&Mat<f64>, &mut Mat<f64>) -> i32;

const ROUTINES: [(&str, Routine); 4] = [
    ("getrf", |_, a| {
        let n = a.nrows();
        f77::getrf(n, n, a.as_mut_slice(), n, &mut vec![0; n])
    }),
    ("potrf", |_, a| {
        let n = a.nrows();
        f77::potrf(Uplo::Lower, n, a.as_mut_slice(), n)
    }),
    ("geqrf", |_, a| {
        let n = a.nrows();
        f77::geqrf(n, n, a.as_mut_slice(), n, &mut vec![0.0; n])
    }),
    ("gemm", |a0, c| {
        let n = c.nrows();
        let a = a0.as_slice();
        la_blas::gemm(
            Trans::No,
            Trans::No,
            n,
            n,
            n,
            1.0,
            a,
            n,
            a,
            n,
            0.0,
            c.as_mut_slice(),
            n,
        );
        0
    }),
];

fn budget(threads: usize) -> tune::TuneConfig {
    tune::TuneConfig {
        max_threads: threads,
        ..tune::TuneConfig::defaults()
    }
}

/// Seconds of one call of `f` on a fresh copy of `a0` under `threads`.
fn time_once(f: Routine, a0: &Mat<f64>, a: &mut Mat<f64>, threads: usize) -> f64 {
    a.as_mut_slice().copy_from_slice(a0.as_slice());
    let t0 = Instant::now();
    let info = tune::with(budget(threads), || f(a0, a));
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(info, 0, "factorization failed at max_threads = {threads}");
    secs
}

fn main() {
    let mut args = Args::from_env();
    let quick = args.flag("--quick");
    let min_speedup = args.limit("--min-speedup");
    let min_gemm = args.limit("--min-gemm-speedup");
    let given: Vec<usize> = args.positional();
    args.finish();
    let cores = tune::host_parallelism();
    if cores < 2 {
        println!("dag_sweep: skipped: 1 core");
        return;
    }
    let tile = tune::TuneConfig::defaults().tile_size();
    let sizes: &[usize] = if quick {
        &[GATED_N]
    } else if given.is_empty() {
        &[768, GATED_N, 1536, 2048]
    } else {
        &given
    };
    println!(
        "== dag_sweep: {cores} cores, f64, max_threads 1 vs {WIDE}, tile {tile}, \
         best of each over {MIN_SECS} s =="
    );
    let (mut factor, mut gemm) = (f64::NAN, f64::NAN);
    for &n in sizes {
        let general: Mat<f64> = bench_matrix(n, 17);
        let spd: Mat<f64> = bench_spd(n, 19);
        for (name, f) in ROUTINES {
            let a0 = if name == "potrf" { &spd } else { &general };
            let mut a = a0.clone();
            let (mut one, mut two) = (f64::INFINITY, f64::INFINITY);
            let (start, mut pairs) = (Instant::now(), 0);
            while pairs < MIN_PAIRS || start.elapsed().as_secs_f64() < MIN_SECS {
                one = one.min(time_once(f, a0, &mut a, 1));
                two = two.min(time_once(f, a0, &mut a, WIDE));
                pairs += 1;
            }
            let speedup = one / two;
            // One more two-thread call, probed, for the route it took.
            a.as_mut_slice().copy_from_slice(a0.as_slice());
            probe::reset();
            probe::with_policy(ProbePolicy::Spans, || {
                tune::with(budget(WIDE), || f(a0, &mut a))
            });
            let report = probe::snapshot();
            let top = if name == "gemm" {
                name.to_string()
            } else {
                format!("{name}_dag")
            };
            let span = report.spans.iter().find_map(|s| s.find(&top));
            let fl = match name {
                "getrf" => flops::getrf(n, n),
                "potrf" => flops::potrf(n),
                "geqrf" => flops::geqrf(n, n),
                _ => flops::gemm(n, n, n),
            } as f64;
            let route = match span {
                Some(s) if name == "gemm" => format!("stripes {}", s.threads),
                Some(s) => s.dag.map_or(String::new(), |s| {
                    format!(
                        "dag: tasks {} edges {} critical path {} occupancy {:.2}",
                        s.tasks, s.edges, s.critical_path, s.occupancy
                    )
                }),
                None => "serial blocked".to_string(),
            };
            println!(
                "{name:<5} n={n:5}  best 1t {:9.2} ms {:6.2} GF/s  {WIDE}t {:9.2} ms {:6.2} GF/s  \
                 speed-up {speedup:5.2} ({} pairs)  {route}",
                one * 1e3,
                fl / one / 1e9,
                two * 1e3,
                fl / two / 1e9,
                pairs,
            );
            if n == GATED_N {
                // A call that did not take its two-thread route fails its
                // gate.
                let routed = span.is_some_and(|s| s.dag.is_some() || s.threads == WIDE);
                let reading = if routed { speedup } else { 0.0 };
                match name {
                    "getrf" | "potrf" => factor = factor.min(reading),
                    "gemm" => gemm = reading,
                    _ => {}
                }
            }
        }
    }
    let factor_gate = format!("min(getrf, potrf) speed-up at n = {GATED_N}");
    let gemm_gate = format!("gemm speed-up at n = {GATED_N}");
    let gates = [
        gate(&factor_gate, factor, min_speedup),
        gate(&gemm_gate, gemm, min_gemm),
    ];
    if gates.contains(&false) {
        std::process::exit(1);
    }
}
