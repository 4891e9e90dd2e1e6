//! Measures the overhead of the `la_core::probe` policies on a real
//! driver workload: `la90` `gesv` under `Off`, `Counters` and `Spans`, at
//! each order given on the command line (default `96 256 512` — the
//! serve-sized call, where a span's fixed cost is largest against the
//! work, up to one where it vanishes). The policies take turns inside
//! every repetition, so a slow stretch of the host hits all three, and the
//! minimum per policy is reported. Results feed the EXPERIMENTS.md entry
//! that the `LA_PROFILE=off` cost is below timing noise.

use std::time::Instant;

use la_bench::bench_matrix;
use la_core::probe::{self, ProbePolicy};
use la_core::Mat;

const POLICIES: [(&str, ProbePolicy); 3] = [
    ("off", ProbePolicy::Off),
    ("counters", ProbePolicy::Counters),
    ("spans", ProbePolicy::Spans),
];

fn main() {
    let mut sizes: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().unwrap_or_else(|_| panic!("bad order {a:?}")))
        .collect();
    if sizes.is_empty() {
        sizes = vec![96, 256, 512];
    }
    for n in sizes {
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
    }
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
}
