//! Measures the overhead of the `la_core::probe` policies on a real
//! driver workload: `la90` `gesv` under `Off`, `Counters` and `Spans`, at
//! each order given on the command line (default `96 256 512` — the
//! serve-sized call, where a span's fixed cost is largest against the
//! work, up to one where it vanishes), then one two-thread row at
//! n = 768, where `getrf` runs the task graph and `Spans` grafts every
//! worker's spans back under the caller's. The policies take turns inside
//! every repetition, so a slow stretch of the host hits all three, and the
//! minimum per policy is reported. Results feed the EXPERIMENTS.md entry
//! that the `LA_PROFILE=off` cost is below timing noise.
//!
//! Usage: `probe_overhead [--max-counters-overhead R]
//! [--max-spans-overhead R] [n ...]`. Each gate exits 1 when its policy
//! over `Off` at n = 96 (measured whatever the orders given) is above `R`:
//! a same-run ratio, so host speed cancels.

use std::time::Instant;

use la_bench::{bench_matrix, gate, Args};
use la_core::probe::{self, ProbePolicy};
use la_core::{tune, Mat};

/// The order the gates read: the serve-sized solve.
const GATED_N: usize = 96;

/// The order of the two-thread row: past the task-graph threshold.
const GRAPH_N: usize = 768;

const POLICIES: [(&str, ProbePolicy); 3] = [
    ("off", ProbePolicy::Off),
    ("counters", ProbePolicy::Counters),
    ("spans", ProbePolicy::Spans),
];

/// The fastest `gesv` of order `n` per policy, in seconds, the policies
/// taking turns.
fn best_per_policy(n: usize) -> [f64; 3] {
    // About a second of solves per policy, and never fewer than 60.
    let reps = (1_500_000_000 / (n * n * n)).clamp(60, 5000);
    let a0: Mat<f64> = bench_matrix(n, 17);
    let b0: Mat<f64> = bench_matrix(n, 19);
    let (mut a, mut b) = (a0.clone(), b0.clone());
    let mut best = [f64::INFINITY; 3];
    probe::reset();
    for rep in 0..=reps {
        for (slot, (_, pol)) in best.iter_mut().zip(POLICIES) {
            a.as_mut_slice().copy_from_slice(a0.as_slice());
            b.as_mut_slice().copy_from_slice(b0.as_slice());
            let secs = probe::with_policy(pol, || {
                let t = Instant::now();
                la90::gesv(&mut a, &mut b).expect("gesv");
                t.elapsed().as_secs_f64()
            });
            // Repetition 0 warms allocators and code paths.
            if rep > 0 {
                *slot = slot.min(secs);
            }
        }
        // Keep the span store from growing with the repetition count.
        probe::reset();
    }
    println!("== probe_overhead: la90::gesv, n={n}, min of {reps} interleaved reps ==");
    for ((name, _), secs) in POLICIES.iter().zip(best) {
        let ms = secs * 1e3;
        if *name == "off" {
            println!("{name:<10} {ms:9.4} ms/solve");
        } else {
            let pct = (secs / best[0] - 1.0) * 100.0;
            println!("{name:<10} {ms:9.4} ms/solve  ({pct:+.1}% vs off)");
        }
    }
    best
}

fn main() {
    let mut args = Args::from_env();
    let max_counters = args.limit("--max-counters-overhead");
    let max_spans = args.limit("--max-spans-overhead");
    let mut sizes: Vec<usize> = args.positional();
    args.finish();
    if sizes.is_empty() {
        sizes = vec![96, 256, 512];
    }
    if (max_counters.is_some() || max_spans.is_some()) && !sizes.contains(&GATED_N) {
        sizes.insert(0, GATED_N);
    }
    let mut gated = [f64::NAN; 3];
    for n in sizes {
        let best = best_per_policy(n);
        if n == GATED_N {
            gated = best;
        }
    }
    println!("\ntwo threads (the task graph):");
    let two = tune::TuneConfig {
        max_threads: 2,
        oversubscribe: true,
        ..tune::current()
    };
    tune::with(two, || best_per_policy(GRAPH_N));
    // One traced solve, to show what the spans policy records.
    let n = 256usize;
    let (mut a, mut b): (Mat<f64>, Mat<f64>) = (bench_matrix(n, 17), bench_matrix(n, 19));
    probe::reset();
    probe::with_policy(ProbePolicy::Spans, || {
        la90::gesv(&mut a, &mut b).expect("gesv")
    });
    println!(
        "\nspans-policy report of one n={n} solve:\n{}",
        probe::snapshot().to_table()
    );
    let counters = gate(
        &format!("counters over off at n = {GATED_N}"),
        gated[1] / gated[0],
        max_counters,
    );
    let spans = gate(
        &format!("spans over off at n = {GATED_N}"),
        gated[2] / gated[0],
        max_spans,
    );
    if !(counters && spans) {
        std::process::exit(1);
    }
}
