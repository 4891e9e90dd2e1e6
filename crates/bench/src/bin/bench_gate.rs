//! CI performance gate: compares a fresh quick-mode sweep
//! (`BENCH_blas3.quick.json`, from `blas3_sweep --quick`) against the
//! checked-in baseline (`BENCH_blas3.json`) and exits non-zero if any
//! tracked operation regressed by more than the threshold.
//!
//! Runner speeds vary, so raw ratios are useless: the gate first
//! normalizes every per-row `fresh/baseline` ratio by the median ratio
//! across all rows (the machine-speed calibration), then applies the
//! tolerance to the normalized ratios. A uniformly slower runner shifts
//! the median, not the verdict; a single op that got slower *relative to
//! the others* trips the gate.
//!
//! Usage: `bench_gate [baseline.json] [fresh.json] [--threshold 1.25]
//! [--min-gemm-speedup 3.0] [--min-mixed-speedup 1.2]
//! [--max-dd-berr 8.9e-16]
//! [--max-abft-overhead 1.10] [--min-dag-speedup 1.15]
//! [--max-p99-ms 50] [--min-goodput 500]
//! [--max-overload-p99-ms 120] [--min-overload-goodput 300]`
//! (the last four select serve mode, see below)
//!
//! `--min-gemm-speedup` enforces an absolute floor on the baseline's
//! recorded `speedup_packed_vs_prepacked` ratios for `gemm` at n ≥ 512:
//! the packed register-blocked microkernel path must keep its headline
//! win over the pre-packed loop-nest substrate. As with the other
//! absolute checks, the floor reads the checked-in baseline so it guards
//! the committed measurement; the ratio rule guards fresh runs.
//!
//! The same gate covers the mixed-precision sweep (`BENCH_mixed.json` /
//! `BENCH_mixed.quick.json` from `mixed_sweep`): rows in its
//! `mixed_sweep` section join the normalized regression comparison, and
//! `--min-mixed-speedup` additionally enforces an absolute floor on the
//! baseline's recorded `speedup_mixed_vs_full` for `gesv` at n ≥ 1024 —
//! the end-to-end win the mixed drivers exist to deliver. The floor reads
//! the checked-in baseline (quick CI sweeps stop at n = 512), so it
//! guards the committed measurement, while the ratio rule guards fresh
//! runs against relative regressions.
//!
//! One accuracy check rides the same baseline: `--max-dd-berr` ceilings
//! the `dd_hilbert.berr` row — the componentwise backward error the
//! double-double-residual `gesvxx` achieves on the n = 12 Hilbert system,
//! committed at ≤ 4ε.
//!
//! Likewise for the ABFT sweep (`BENCH_abft.json` from `abft_sweep`):
//! its `abft_sweep` rows join the regression comparison, and
//! `--max-abft-overhead` enforces an absolute ceiling on the baseline's
//! recorded `abft_overhead` *verify* ratios at n ≥ 1024 — the O(n²)
//! checksums must stay cheap relative to the O(n³) compute.
//!
//! The tile-dag sweep (`BENCH_dag.json` / `BENCH_dag.quick.json` from
//! `dag_sweep`) follows the same pattern: rows in its `dag_sweep`
//! section join the normalized regression comparison, and
//! `--min-dag-speedup` enforces an absolute floor on the baseline's
//! recorded `speedup_dag_vs_blocked` at n ≥ 2048 — the task-graph
//! runtime must keep beating the fork-join blocked path on at least one
//! of `getrf`/`potrf` (the routines whose trailing updates the dag
//! overlaps across panel steps).
//!
//! Every check tolerates a missing *baseline* file uniformly: the first
//! run of a new sweep has nothing committed yet, so the gate prints a
//! clear "no baseline committed" message and passes instead of erroring,
//! letting the gate land before the baseline does. A present-but-
//! malformed baseline (missing section, no matching entries) still exits
//! non-zero — that is a config error, not a first run.
//!
//! The serving sweep (`serve_load`) is gated by `--max-p99-ms` (ceiling on
//! the clean-mode p99 latencies of the `serve_sweep` rows) and
//! `--min-goodput` (floor on the clean-mode jobs/s); every row must also
//! record `wrong == 0` and `pool_poisonings == 0` — the service never
//! serves a wrong answer and no panic ever escapes a job boundary. Any of
//! the four serve flags puts the gate in *serve mode*: the two positional
//! files are then the committed serve baseline and the fresh run (default
//! `BENCH_serve.json` / `BENCH_serve.quick.json`), both are held to the
//! same limits, and nothing else is compared — serve files carry no sweep
//! rows. A missing *baseline* file is tolerated with a clear message
//! (first run: nothing committed yet), so the gate can land before the
//! baseline does; a missing fresh file, or a present file without the
//! section a flag asks about, exits non-zero — pointed at the wrong file
//! the gate must fail, not pass vacuously.
//!
//! The overload comparison (`serve_load --overload`, the `overload`
//! section) is gated by `--max-overload-p99-ms` (ceiling on the
//! *adaptive* row's served-job p99 — the admission controller must keep
//! latency bounded where the fixed-depth row is allowed to blow past it)
//! and `--min-overload-goodput` (floor on the adaptive row's jobs/s under
//! 2× oversubscription). Every overload row — fixed and adaptive — must
//! also record `wrong == 0`, `pool_poisonings == 0` and `unresolved == 0`:
//! overload may shed, it may never corrupt, poison, or hang.

use la_core::json::Json;

/// One measured point, keyed for cross-file matching.
struct Point {
    op: String,
    n: u64,
    threads: u64,
    nb: u64,
    ms: f64,
}

/// Load every tracked sweep row from `path`. `None` means the file does
/// not exist (first run, nothing committed yet); parse errors on a
/// present file still panic — corrupt data should never pass silently.
fn load(path: &str) -> Option<Vec<Point>> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    let mut pts = Vec::new();
    for section in [
        "thread_sweep",
        "nb_sweep",
        "mixed_sweep",
        "abft_sweep",
        "dag_sweep",
    ] {
        let Some(arr) = doc.get(section).and_then(|v| v.as_arr()) else {
            continue;
        };
        for row in arr {
            let get_u = |k: &str| row.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
            let (Some(op), Some(ms)) = (
                row.get("op").and_then(|v| v.as_str()),
                row.get("ms").and_then(|v| v.as_f64()),
            ) else {
                continue;
            };
            pts.push(Point {
                op: op.to_string(),
                n: get_u("n"),
                threads: get_u("threads"),
                nb: get_u("nb"),
                ms,
            });
        }
    }
    Some(pts)
}

/// Parse the committed baseline for an absolute floor/ceiling check.
/// `None` means the file is absent — the caller prints the uniform
/// "first run" message and skips the check.
fn load_baseline_doc(path: &str) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(Json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}")))
}

/// The limits of serve mode; `None` leaves a check off.
struct ServeLimits {
    max_p99: Option<f64>,
    min_goodput: Option<f64>,
    max_ov_p99: Option<f64>,
    min_ov_goodput: Option<f64>,
}

impl ServeLimits {
    fn wants_sweep(&self) -> bool {
        self.max_p99.is_some() || self.min_goodput.is_some()
    }

    fn wants_overload(&self) -> bool {
        self.max_ov_p99.is_some() || self.min_ov_goodput.is_some()
    }
}

/// Holds one serve file (`serve_load` output) to `limits`; returns whether
/// a limit or an invariant was violated. A file without the section a
/// limit asks about is a wrong file, not a pass: exits 2.
fn serve_gate(path: &str, doc: &Json, limits: &ServeLimits) -> bool {
    let mut failed = false;
    println!("bench_gate: serve checks on {path}");
    if limits.wants_sweep() {
        let Some(rows) = doc.get("serve_sweep").and_then(|v| v.as_arr()) else {
            eprintln!("bench_gate: {path} has no serve_sweep section");
            std::process::exit(2);
        };
        let mut checked = 0usize;
        for row in rows {
            let get_s = |k: &str| row.get(k).and_then(|v| v.as_str()).unwrap_or("?");
            let get_f = |k: &str| row.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            let key = format!(
                "{} {} c={}",
                get_s("op"),
                get_s("mode"),
                get_f("concurrency") as u64
            );
            let wrong = get_f("wrong");
            let poisonings = get_f("pool_poisonings");
            if !(wrong == 0.0 && poisonings == 0.0) {
                failed = true;
                println!(
                    "  serve {key:<28} wrong {wrong} poisonings {poisonings}  \
                     << INVARIANT VIOLATED"
                );
            }
            if get_s("mode") != "clean" {
                continue;
            }
            checked += 1;
            let p99 = get_f("p99_ms");
            let goodput = get_f("goodput_jps");
            let mut flag = "";
            // NaN (absent field) fails the check rather than slipping past
            // a `<` comparison.
            if let Some(ceiling) = limits.max_p99 {
                if p99.is_nan() || p99 > ceiling {
                    failed = true;
                    flag = "  << P99 ABOVE CEILING";
                }
            }
            if let Some(floor) = limits.min_goodput {
                if flag.is_empty() && (goodput.is_nan() || goodput < floor) {
                    failed = true;
                    flag = "  << GOODPUT BELOW FLOOR";
                }
            }
            println!("  serve {key:<28} p99 {p99:8.3} ms  goodput {goodput:9.1} jobs/s{flag}");
        }
        if checked == 0 {
            eprintln!("bench_gate: no clean serve_sweep rows in {path}");
            std::process::exit(2);
        }
    }
    // Overload comparison: robustness invariants on every row; the latency
    // ceiling and goodput floor bind on the adaptive row, the one the
    // admission controller owns.
    if limits.wants_overload() {
        let Some(rows) = doc.get("overload").and_then(|v| v.as_arr()) else {
            eprintln!("bench_gate: {path} has no overload section");
            std::process::exit(2);
        };
        let mut checked = 0usize;
        for row in rows {
            let get_s = |k: &str| row.get(k).and_then(|v| v.as_str()).unwrap_or("?");
            let get_f = |k: &str| row.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            let mode = get_s("mode");
            let wrong = get_f("wrong");
            let poisonings = get_f("pool_poisonings");
            let unresolved = get_f("unresolved");
            if !(wrong == 0.0 && poisonings == 0.0 && unresolved == 0.0) {
                failed = true;
                println!(
                    "  overload {mode:<9} wrong {wrong} poisonings {poisonings} \
                     unresolved {unresolved}  << INVARIANT VIOLATED"
                );
            }
            let p99 = get_f("p99_ms");
            let goodput = get_f("goodput_jps");
            let mut flag = "";
            if mode == "adaptive" {
                checked += 1;
                if let Some(ceiling) = limits.max_ov_p99 {
                    if p99.is_nan() || p99 > ceiling {
                        failed = true;
                        flag = "  << P99 ABOVE CEILING";
                    }
                }
                if let Some(floor) = limits.min_ov_goodput {
                    if flag.is_empty() && (goodput.is_nan() || goodput < floor) {
                        failed = true;
                        flag = "  << GOODPUT BELOW FLOOR";
                    }
                }
            }
            println!(
                "  overload {mode:<9} p99 {p99:8.3} ms  goodput {goodput:9.1} jobs/s  \
                 shed {}{flag}",
                get_f("shed")
            );
        }
        if checked == 0 {
            eprintln!("bench_gate: overload section in {path} has no adaptive row");
            std::process::exit(2);
        }
    }
    failed
}

/// Serve mode: the committed baseline (tolerated when absent) and the
/// fresh run (required) under the same limits.
fn serve_mode(baseline_path: &str, fresh_path: &str, limits: &ServeLimits) -> bool {
    let mut failed = false;
    match load_baseline_doc(baseline_path) {
        None => println!(
            "bench_gate: no serve baseline committed at {baseline_path} (first run) — \
             skipping its serve checks"
        ),
        Some(doc) => failed |= serve_gate(baseline_path, &doc, limits),
    }
    let Some(fresh) = load_baseline_doc(fresh_path) else {
        eprintln!("bench_gate: missing fresh serve run {fresh_path} (run serve_load first)");
        std::process::exit(2);
    };
    failed | serve_gate(fresh_path, &fresh, limits)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = 1.25f64;
    let mut min_gemm: Option<f64> = None;
    let mut min_mixed: Option<f64> = None;
    let mut max_dd_berr: Option<f64> = None;
    let mut max_abft: Option<f64> = None;
    let mut min_dag: Option<f64> = None;
    let mut max_p99: Option<f64> = None;
    let mut min_goodput: Option<f64> = None;
    let mut max_ov_p99: Option<f64> = None;
    let mut min_ov_goodput: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold" {
            let v = it.next().expect("--threshold needs a value");
            threshold = v.parse().expect("bad threshold");
        } else if a == "--min-gemm-speedup" {
            let v = it.next().expect("--min-gemm-speedup needs a value");
            min_gemm = Some(v.parse().expect("bad min-gemm-speedup"));
        } else if a == "--min-mixed-speedup" {
            let v = it.next().expect("--min-mixed-speedup needs a value");
            min_mixed = Some(v.parse().expect("bad min-mixed-speedup"));
        } else if a == "--max-dd-berr" {
            let v = it.next().expect("--max-dd-berr needs a value");
            max_dd_berr = Some(v.parse().expect("bad max-dd-berr"));
        } else if a == "--min-dag-speedup" {
            let v = it.next().expect("--min-dag-speedup needs a value");
            min_dag = Some(v.parse().expect("bad min-dag-speedup"));
        } else if a == "--max-abft-overhead" {
            let v = it.next().expect("--max-abft-overhead needs a value");
            max_abft = Some(v.parse().expect("bad max-abft-overhead"));
        } else if a == "--max-p99-ms" {
            let v = it.next().expect("--max-p99-ms needs a value");
            max_p99 = Some(v.parse().expect("bad max-p99-ms"));
        } else if a == "--min-goodput" {
            let v = it.next().expect("--min-goodput needs a value");
            min_goodput = Some(v.parse().expect("bad min-goodput"));
        } else if a == "--max-overload-p99-ms" {
            let v = it.next().expect("--max-overload-p99-ms needs a value");
            max_ov_p99 = Some(v.parse().expect("bad max-overload-p99-ms"));
        } else if a == "--min-overload-goodput" {
            let v = it.next().expect("--min-overload-goodput needs a value");
            min_ov_goodput = Some(v.parse().expect("bad min-overload-goodput"));
        } else {
            paths.push(a);
        }
    }
    let limits = ServeLimits {
        max_p99,
        min_goodput,
        max_ov_p99,
        min_ov_goodput,
    };
    if limits.wants_sweep() || limits.wants_overload() {
        let baseline_path = paths.first().copied().unwrap_or("BENCH_serve.json");
        let fresh_path = paths.get(1).copied().unwrap_or("BENCH_serve.quick.json");
        if serve_mode(baseline_path, fresh_path, &limits) {
            eprintln!("bench_gate: serve gate failed");
            std::process::exit(1);
        }
        println!("bench_gate: OK");
        return;
    }
    let baseline_path = paths.first().copied().unwrap_or("BENCH_blas3.json");
    let fresh_path = paths.get(1).copied().unwrap_or("BENCH_blas3.quick.json");

    let baseline = load(baseline_path);
    let fresh = load(fresh_path).unwrap_or_else(|| {
        eprintln!("bench_gate: missing fresh sweep {fresh_path} (run the sweep first)");
        std::process::exit(2);
    });

    let mut failed = false;
    if let Some(baseline) = &baseline {
        // Match rows on (op, n, threads, nb); the quick sweep covers a
        // subset of the baseline grid, so the comparison runs on the
        // intersection.
        let mut ratios: Vec<(String, f64)> = Vec::new();
        for f in &fresh {
            let Some(b) = baseline
                .iter()
                .find(|b| b.op == f.op && b.n == f.n && b.threads == f.threads && b.nb == f.nb)
            else {
                continue;
            };
            if b.ms > 0.0 && f.ms > 0.0 {
                let key = format!("{} n={} threads={} nb={}", f.op, f.n, f.threads, f.nb);
                ratios.push((key, f.ms / b.ms));
            }
        }
        if ratios.is_empty() {
            eprintln!("bench_gate: no comparable rows between {baseline_path} and {fresh_path}");
            std::process::exit(2);
        }

        // Machine-speed calibration: divide out the median ratio.
        let mut sorted: Vec<f64> = ratios.iter().map(|(_, r)| *r).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        println!(
            "bench_gate: {} comparable rows, median fresh/baseline ratio {median:.3} \
             (normalizing), threshold {threshold:.2}",
            ratios.len()
        );

        for (key, r) in &ratios {
            let norm = r / median;
            let flag = if norm > threshold {
                failed = true;
                "  << REGRESSION"
            } else {
                ""
            };
            println!("  {key:<34} ratio {r:7.3}  normalized {norm:7.3}{flag}");
        }
    } else {
        println!(
            "bench_gate: no baseline committed at {baseline_path} (first run) — \
             skipping regression comparison"
        );
    }
    // The absolute floors/ceilings below all read the committed baseline;
    // parse it once. `None` (file absent) makes every check print the
    // uniform first-run message and pass.
    let base_doc = load_baseline_doc(baseline_path);
    let skip = |check: &str| {
        println!(
            "bench_gate: no baseline committed at {baseline_path} (first run) — skipping {check}"
        );
    };
    // Absolute floor on the baseline's packed-over-prepacked gemm
    // speedup: the packed microkernel path must keep its headline win
    // over the pre-packed loop-nest substrate at the sizes where the
    // cache blocking pays (n ≥ 512).
    if min_gemm.is_some() && base_doc.is_none() {
        skip("gemm-speedup floor");
    }
    if let (Some(floor), Some(doc)) = (min_gemm, &base_doc) {
        let Some(Json::Obj(speedups)) = doc.get("speedup_packed_vs_prepacked") else {
            eprintln!("bench_gate: {baseline_path} has no speedup_packed_vs_prepacked section");
            std::process::exit(2);
        };
        let mut checked = 0usize;
        for (key, val) in speedups {
            let Some((family, n)) = key.rsplit_once('_') else {
                continue;
            };
            let n: u64 = n.parse().unwrap_or(0);
            if family != "gemm" || n < 512 {
                continue;
            }
            let s = val.as_f64().unwrap_or(0.0);
            checked += 1;
            let flag = if s < floor {
                failed = true;
                "  << BELOW FLOOR"
            } else {
                ""
            };
            println!("  packed speedup {key:<22} {s:7.3}  (floor {floor:.2}){flag}");
        }
        if checked == 0 {
            eprintln!("bench_gate: no gemm packed-speedup entries at n >= 512 in {baseline_path}");
            std::process::exit(2);
        }
    }
    // Absolute floor on the baseline's mixed-over-full speedup: the
    // mixed drivers must keep paying for themselves end-to-end at the
    // sizes the paper's argument rests on (gesv, n ≥ 1024).
    if min_mixed.is_some() && base_doc.is_none() {
        skip("mixed-speedup floor");
    }
    if let (Some(floor), Some(doc)) = (min_mixed, &base_doc) {
        let Some(Json::Obj(speedups)) = doc.get("speedup_mixed_vs_full") else {
            eprintln!("bench_gate: {baseline_path} has no speedup_mixed_vs_full section");
            std::process::exit(2);
        };
        let mut checked = 0usize;
        for (key, val) in speedups {
            let Some((family, n)) = key.rsplit_once('_') else {
                continue;
            };
            let n: u64 = n.parse().unwrap_or(0);
            if family != "gesv" || n < 1024 {
                continue;
            }
            let s = val.as_f64().unwrap_or(0.0);
            checked += 1;
            let flag = if s < floor {
                failed = true;
                "  << BELOW FLOOR"
            } else {
                ""
            };
            println!("  mixed speedup {key:<23} {s:7.3}  (floor {floor:.2}){flag}");
        }
        if checked == 0 {
            eprintln!("bench_gate: no gesv speedup entries at n >= 1024 in {baseline_path}");
            std::process::exit(2);
        }
    }
    // Absolute ceiling on the baseline's extra-precise-refinement
    // accuracy row: the double-double-residual gesvxx must keep the
    // n = 12 Hilbert system's componentwise backward error at working
    // precision (the committed measurement is ~ε; the gate holds 4ε).
    if max_dd_berr.is_some() && base_doc.is_none() {
        skip("dd-berr ceiling");
    }
    if let (Some(ceiling), Some(doc)) = (max_dd_berr, &base_doc) {
        let Some(row) = doc.get("dd_hilbert") else {
            eprintln!("bench_gate: {baseline_path} has no dd_hilbert section");
            std::process::exit(2);
        };
        let Some(berr) = row.get("berr").and_then(|v| v.as_f64()) else {
            eprintln!("bench_gate: dd_hilbert section in {baseline_path} has no berr field");
            std::process::exit(2);
        };
        let flag = if berr > ceiling {
            failed = true;
            "  << ABOVE CEILING"
        } else {
            ""
        };
        println!("  dd_hilbert comp berr {berr:28.3e}  (ceiling {ceiling:.3e}){flag}");
    }
    // Absolute ceiling on the baseline's ABFT verify overhead: detection
    // must stay an O(n²) tax on O(n³) work at the sizes that matter.
    if max_abft.is_some() && base_doc.is_none() {
        skip("abft-overhead ceiling");
    }
    if let (Some(ceiling), Some(doc)) = (max_abft, &base_doc) {
        let Some(Json::Obj(overheads)) = doc.get("abft_overhead") else {
            eprintln!("bench_gate: {baseline_path} has no abft_overhead section");
            std::process::exit(2);
        };
        let mut checked = 0usize;
        for (key, val) in overheads {
            // Keys are `<op>_<policy>_<n>`; the ceiling applies to the
            // verify ratios at n ≥ 1024.
            let Some((head, n)) = key.rsplit_once('_') else {
                continue;
            };
            let n: u64 = n.parse().unwrap_or(0);
            if !head.ends_with("_verify") || n < 1024 {
                continue;
            }
            let r = val.as_f64().unwrap_or(f64::INFINITY);
            checked += 1;
            let flag = if r > ceiling {
                failed = true;
                "  << ABOVE CEILING"
            } else {
                ""
            };
            println!("  abft overhead {key:<23} {r:7.3}  (ceiling {ceiling:.2}){flag}");
        }
        if checked == 0 {
            eprintln!("bench_gate: no verify overhead entries at n >= 1024 in {baseline_path}");
            std::process::exit(2);
        }
    }
    // Absolute floor on the baseline's dag-over-blocked speedup: the
    // tile task-graph runtime must keep beating the fork-join blocked
    // path at the sizes where inter-step overlap pays (n ≥ 2048), on at
    // least one of getrf/potrf — the routines whose trailing updates
    // the dag pipelines across panel steps.
    if min_dag.is_some() && base_doc.is_none() {
        skip("dag-speedup floor");
    }
    if let (Some(floor), Some(doc)) = (min_dag, &base_doc) {
        let Some(Json::Obj(speedups)) = doc.get("speedup_dag_vs_blocked") else {
            eprintln!("bench_gate: {baseline_path} has no speedup_dag_vs_blocked section");
            std::process::exit(2);
        };
        let mut checked = 0usize;
        let mut best = 0.0f64;
        for (key, val) in speedups {
            let Some((family, n)) = key.rsplit_once('_') else {
                continue;
            };
            let n: u64 = n.parse().unwrap_or(0);
            if !(family == "getrf" || family == "potrf") || n < 2048 {
                continue;
            }
            let s = val.as_f64().unwrap_or(0.0);
            checked += 1;
            best = best.max(s);
            let flag = if s < floor { "  (below floor)" } else { "" };
            println!("  dag speedup {key:<25} {s:7.3}  (floor {floor:.2}){flag}");
        }
        if checked == 0 {
            eprintln!(
                "bench_gate: no getrf/potrf dag-speedup entries at n >= 2048 in {baseline_path}"
            );
            std::process::exit(2);
        }
        if best < floor {
            failed = true;
            println!("  dag speedup: best getrf/potrf ratio {best:.3} << BELOW FLOOR {floor:.2}");
        }
    }
    if failed {
        eprintln!("bench_gate: performance gate failed (threshold {threshold:.2}x)");
        std::process::exit(1);
    }
    println!("bench_gate: OK");
}
