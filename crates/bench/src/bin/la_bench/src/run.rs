//! The two kinds of run. End-to-end metrics always come from the untraced
//! one; the traced one runs the same stream, records spans on every other
//! pair of requests and replays each of those pairs through the layers.

use crate::host;
use crate::layers::{self, Layers, Metric};
use crate::stats::{median, median_index, percentile_of, tail_index};
use crate::trace::Trace;
use crate::workload::{Bench, Stream, Workload};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` lists for this kind of run.
    pub metrics: Vec<Metric>,
    /// Ungated description of the untraced run (the traced run has the
    /// same group among its metrics).
    pub run: Vec<Metric>,
    pub trace_file: Option<PathBuf>,
}

/// Medians, tails and throughput of a run's untraced requests. `also` adds
/// the traced requests to the throughput.
pub fn run_metrics(plain: Stream, also: Option<&Stream>) -> Vec<Metric> {
    let floor = plain.gesv.floor() as f64;
    let samples = plain.gesv.total();
    let mut solves = samples + plain.posv.total();
    let mut busy_ns = plain.busy_ns;
    if let Some(s) = also {
        solves += s.gesv.total() + s.posv.total();
        busy_ns += s.busy_ns;
    }
    let busy_s = busy_ns as f64 / 1e9;
    let (gesv_mean, posv_mean) = (plain.gesv.mean() / 1e6, plain.posv.mean() / 1e6);
    let (gesv, posv) = (plain.gesv.into_sorted(), plain.posv.into_sorted());
    let ms = |v: &[u64], i: usize| v[i] as f64 / 1e6;
    let p50 = ms(&gesv, median_index(gesv.len()));
    let tail = tail_index(gesv.len());
    // p05 and mean are here to show, next to the floor and the median, why
    // the floor is the estimator that is gated (README, estimator spread).
    vec![
        Metric::new("run.gesv_ms_p05", "ms", ms(&gesv, gesv.len() / 20)),
        Metric::new("run.posv_ms_p05", "ms", ms(&posv, posv.len() / 20)),
        Metric::new("run.gesv_ms_p50", "ms", p50),
        Metric::new("run.posv_ms_p50", "ms", ms(&posv, median_index(posv.len()))),
        Metric::new("run.gesv_ms_mean", "ms", gesv_mean),
        Metric::new("run.posv_ms_mean", "ms", posv_mean),
        Metric::new("run.gesv_ms_p99", "ms", ms(&gesv, tail)),
        Metric::new("run.posv_ms_p99", "ms", ms(&posv, tail_index(posv.len()))),
        Metric::new("run.tail_pct", "pct", percentile_of(tail, gesv.len())),
        Metric::new("run.samples", "count", samples as f64),
        Metric::new("run.ops_per_s", "1/s", solves as f64 / busy_s),
        Metric::new("run.timed_s", "s", busy_s),
        Metric::new("run.contention", "ratio", p50 * 1e6 / floor),
    ]
}

/// Times the stream pauses for set-up probes, evenly spread over the run.
/// A stretch of a second or two on this class of host is uniformly fast or
/// slow, so probes taken together would all read alike and the run's
/// median would follow that stretch; spread out, they average over it.
const SETUP_SLOTS: u32 = 12;

/// `probe` sets up in fresh processes and appends the seconds each took.
pub fn untraced(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    probe: &mut dyn FnMut(&mut Vec<f64>) -> Result<(), String>,
) -> Result<Report, String> {
    let mut bench = Bench::setup(w, seed, false);
    let mut stream = Stream::new();
    let mut setup_times = Vec::new();
    let begin = Instant::now();
    let mut paused = Duration::ZERO;
    for slot in 0..SETUP_SLOTS {
        let until = seconds * (f64::from(slot) + 0.5) / f64::from(SETUP_SLOTS);
        while (begin.elapsed() - paused).as_secs_f64() < until {
            bench.pair(&mut stream, None);
        }
        let t = Instant::now();
        probe(&mut setup_times)?;
        paused += t.elapsed();
    }
    loop {
        bench.pair(&mut stream, None);
        if (begin.elapsed() - paused).as_secs_f64() >= seconds {
            break;
        }
    }
    if let Some(s) = &bench.service {
        s.shutdown();
    }
    let metrics = vec![
        Metric::new("gesv_floor_ms", "ms", stream.gesv.floor() as f64 / 1e6),
        Metric::new("posv_floor_ms", "ms", stream.posv.floor() as f64 / 1e6),
        Metric::new("setup_s", "s", median(&setup_times)),
        Metric::new(
            "peak_rss_mb",
            "MiB",
            host::peak_rss_mib().expect("/proc/self/status reports VmHWM"),
        ),
    ];
    Ok(Report {
        attempted: bench.tally.attempted,
        failed: bench.tally.failed,
        metrics,
        run: run_metrics(stream, None),
        trace_file: None,
    })
}

pub fn traced(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    out_dir: Option<&Path>,
) -> Result<Report, String> {
    let mut bench = Bench::setup(w, seed, true);
    let mut layers = Layers::new(w);
    let mut trace = Trace::new();
    let (mut plain, mut traced) = (Stream::new(), Stream::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    layers.static_probes(&bench.pool, &mut trace);
    for cycle in 0.. {
        // One untraced and one traced pair, in alternating order: a served
        // round trip is faster right after another one, and neither kind
        // of pair should always have that place.
        if cycle % 2 == 0 {
            bench.pair(&mut plain, None);
        }
        let idx = bench.next_index();
        bench.pair(&mut traced, Some(&mut trace));
        let gesv_request = bench.last_request() - 1;
        if cycle % 2 == 1 {
            bench.pair(&mut plain, None);
        }
        let service = bench.service.as_ref().expect("traced runs have a service");
        layers.replay(
            &bench.pool,
            idx,
            gesv_request,
            service,
            &mut trace,
            &mut bench.tally,
        );
        if Instant::now() >= deadline {
            break;
        }
    }
    let service = bench.service.as_ref().expect("traced runs have a service");
    service.shutdown();
    layers.shutdown();

    let trace_file = match out_dir {
        Some(dir) => {
            let path = dir.join(format!("trace-{}.json", w.name));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, trace.to_json(w.name, seed)))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Some(path)
        }
        None => None,
    };
    let mut metrics = layers::metrics(&layers, &trace, &bench.tally, service.stats());
    metrics.push(Metric::new(
        "run.trace_overhead_frac",
        "ratio",
        traced.gesv.floor() as f64 / plain.gesv.floor() as f64 - 1.0,
    ));
    metrics.extend(run_metrics(plain, Some(&traced)));
    Ok(Report {
        attempted: bench.tally.attempted,
        failed: bench.tally.failed,
        metrics,
        run: Vec::new(),
        trace_file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use la_core::json::Json;

    /// `(name, unit)` of every entry of one of BENCHMARK.json's lists.
    fn contract(doc: &Json, list: &str) -> Vec<(String, String)> {
        let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).map(str::to_owned);
        doc.get(list)
            .and_then(Json::as_arr)
            .expect("the list")
            .iter()
            .map(|m| {
                (
                    text(m, "name").unwrap(),
                    text(m, "unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    /// Every workload end to end at its real shape, both kinds of run, a
    /// few requests each; and what they print is what BENCHMARK.json lists.
    /// One test, because the runs set the process-wide thread budget.
    #[test]
    fn every_workload_runs_and_prints_the_contracted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<_> = contract(&doc, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));

        for w in WORKLOADS.iter().filter(|w| w.threads <= host::nproc()) {
            let r = untraced(w, 3, 0.05, &mut |times| {
                times.push(0.5);
                Ok(())
            })
            .unwrap();
            assert_eq!(r.failed, 0, "{}", w.name);
            assert!(
                r.attempted >= 4,
                "{}: warm-up pair and a timed pair",
                w.name
            );
            assert_eq!(emitted(&r.metrics), contract(&doc, "end_to_end"));
            assert!(r.metrics.iter().all(|m| m.value > 0.0));
            assert!(!r.run.is_empty());

            let r = traced(w, 3, 0.05, None).unwrap();
            assert_eq!(r.failed, 0, "{}", w.name);
            assert_eq!(emitted(&r.metrics), contract(&doc, "per_layer"));
            for m in &r.metrics {
                assert!(m.value.is_finite(), "{} {}", w.name, m.name);
            }
            let value = |name: &str| r.metrics.iter().find(|m| m.name == name).unwrap().value;
            assert!(value("run.replays") >= 1.0);
            assert!(
                value("la90.allocs_per_gesv") >= 1.0,
                "gesv allocates its pivots"
            );
            assert_eq!(value("serve.rejected") + value("serve.shed"), 0.0);
        }
    }
}
