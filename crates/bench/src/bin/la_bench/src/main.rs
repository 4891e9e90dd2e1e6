//! `la_bench` — the repo's benchmark. It drives the stack strictly from
//! outside, through the public items of `la-blas`, `la-lapack`, `la90`,
//! `la-serve`, `la-core` and `la-verify`, and gates on floor latencies.
//! See README.md in this directory for the metric and workload definitions.

mod aa;
mod alloc;
mod gen;
mod host;
mod layers;
mod run;
mod stats;
mod trace;
mod workload;

use la_core::json::JsonBuf;
use layers::Metric;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Bench, Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// A set-up probe goes on starting fresh processes until this long has
/// passed, so the workloads whose set-up takes milliseconds get the more
/// samples; `run::SETUP_SLOTS` probes make a run.
const SETUP_PROBE_SECONDS: f64 = 0.1;

const USAGE: &str = "usage:
  la_bench --workload W --seed N --seconds S --trace 0|1
  la_bench --aa K [--workload W] [--seed N] [--seconds S]
workloads: small_direct large_factor large_factor_mt wide_rhs serve_closed";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    aa: Option<usize>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        aa: None,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value).ok_or_else(bad)?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--aa" => args.aa = Some(value.parse().ok().filter(|&k| k >= 2).ok_or_else(bad)?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Where the trace goes: under the build directory, which git ignores.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("la_bench")
}

/// One probe for `setup_s`: the wall time, spawn to exit, of fresh
/// processes that do what a run does before its first timed request. A
/// fresh process each time, so that once-per-process work in the stack
/// (thread pools, tuning tables) is paid by every sample.
fn probe_setup(w: &Workload, seed: u64, times: &mut Vec<f64>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let begin = Instant::now();
    loop {
        let t0 = Instant::now();
        let status = Command::new(&exe)
            .args(["--setup-only", "--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot start the set-up probe: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("set-up probe failed: {status}"));
        }
        if begin.elapsed().as_secs_f64() >= SETUP_PROBE_SECONDS {
            return Ok(());
        }
    }
}

fn write_metrics(j: &mut JsonBuf, metrics: &[Metric]) {
    j.begin_obj();
    for m in metrics {
        j.key(m.name);
        j.begin_obj();
        j.field_num("value", m.value);
        j.field_str("unit", m.unit);
        j.end_obj();
    }
    j.end_obj();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("la_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = host::la_variables();
    if !set.is_empty() {
        eprintln!("la_bench: refusing to run with {set:?} set: both commits are measured under the library's defaults");
        return ExitCode::from(2);
    }
    if let Some(k) = args.aa {
        return aa::run(k, args.workload, args.seed, args.seconds);
    }
    let Some(w) = args.workload else {
        eprintln!("la_bench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    if w.threads > host::nproc() {
        eprintln!(
            "la_bench: refusing to run {} with {} threads on {} core(s): it would measure oversubscription",
            w.name,
            w.threads,
            host::nproc()
        );
        return ExitCode::from(2);
    }
    if args.setup_only {
        let bench = Bench::setup(w, args.seed, false);
        // Leave without tearing down: the probe times set-up, and joining
        // the service's worker is not part of it.
        std::process::exit(i32::from(bench.tally.failed > 0));
    }
    let Some(seconds) = args.seconds else {
        eprintln!("la_bench: --seconds is required\n{USAGE}");
        return ExitCode::from(2);
    };

    let report = if args.trace {
        run::traced(w, args.seed, seconds, Some(&out_dir()))
    } else {
        let mut probe = |times: &mut Vec<f64>| probe_setup(w, args.seed, times);
        run::untraced(w, args.seed, seconds, &mut probe)
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("la_bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("la_bench: a metric is not a number; the run is too short for its probes");
        return ExitCode::FAILURE;
    }

    // The full summary, for people and for later triage.
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.field_str("bench", "la_bench");
    j.field_str("workload", w.name);
    j.field_uint("seed", args.seed);
    j.field_num("seconds", seconds);
    j.key("trace");
    j.boolean(args.trace);
    j.key("host");
    host::write_fingerprint(&mut j);
    j.key("shape");
    j.begin_obj();
    j.field_uint("n", w.n as u64);
    j.field_uint("nrhs", w.nrhs as u64);
    j.field_uint("max_threads", w.threads as u64);
    j.field_str("route", &format!("{:?}", w.route));
    j.field_uint("pool", w.pool as u64);
    j.field_uint("warmup_pairs", w.warmup_pairs as u64);
    j.end_obj();
    j.field_uint("ops_attempted", report.attempted);
    j.field_uint("ops_failed", report.failed);
    j.key(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    write_metrics(&mut j, &report.metrics);
    if !report.run.is_empty() {
        j.key("run");
        write_metrics(&mut j, &report.run);
    }
    if let Some(path) = &report.trace_file {
        j.field_str("trace_file", &path.display().to_string());
    }
    j.key("claim");
    j.null();
    j.end_obj();
    println!("{}", j.into_string());

    // The line the driver reads.
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("correct");
    j.boolean(report.failed == 0);
    j.field_uint("attempted", report.attempted);
    j.field_uint("failed", report.failed);
    j.key("metrics");
    write_metrics(&mut j, &report.metrics);
    j.end_obj();
    println!("{}", j.into_string());
    ExitCode::from(u8::from(report.failed > 0))
}
