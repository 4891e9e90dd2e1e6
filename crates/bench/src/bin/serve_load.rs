//! Load generator for the `la-serve` solve service: p50/p99 latency and
//! goodput versus client concurrency, clean mode and (with `--chaos`,
//! `fault-inject` builds only) a chaos soak that injects silent
//! corruption, worker panics, NaN-poisoned inputs and expired deadlines
//! into live traffic. Every run writes what it measured to
//! `target/serve_load.json` (relative to the working directory).
//!
//! The chaos soak enforces the serving invariants and exits non-zero on
//! violation: **zero wrong answers served** (every served answer is
//! independently residual-checked here, outside the service), **zero
//! pool poisonings** (no panic ever escapes a job boundary), and every
//! job resolves — completed or a typed rejection, nothing hangs.
//!
//! `--overload` adds the open-loop overload comparison: the same
//! arrival schedule, paced at 2× measured capacity (wedged workers and
//! bursts injected on top with `--chaos`), runs against the fixed-depth
//! queue bound and against target-delay (adaptive) admission, and both
//! rows land in an `"overload"` JSON section, each with its shed count
//! and served p99 per [`la_serve::Priority`]. The same invariants apply,
//! plus: every *admitted* job must resolve. `--max-overload-p99-ratio R`
//! (which implies `--overload`) exits 1 when the adaptive row's p99 is
//! above `R` times the fixed row's: the same offered load in the same
//! run, so host speed cancels.
//!
//! `--quick` shrinks the sweep for CI.
//!
//! Every run also prices the answer check: served n = 96 `gesv` round
//! trips with `verify_residual` on and off, one worker each, interleaved
//! in the same process, and the ratio of their lower quartiles (a same-run
//! ratio, like `kernel_bench --min-trsm-over-gemm`: host speed cancels;
//! the quartile, not the median, because on a shared host the median of a
//! round trip moves by tens of percent with the thread wake-ups of the
//! moment while its lower quartile repeats within a few — the medians are
//! printed beside it). `--max-verify-ratio R` exits 1 when the ratio is
//! above `R`.

use std::time::Instant;

use la_bench::{bench_matrix, bench_spd, gate, rowsum_rhs, Args};
use la_core::json::JsonBuf;
use la_core::{Mat, RealScalar, Trans};
use la_lapack::max_abs1;
use la_serve::{JobSpec, Rejection, ServeConfig, Service, SolveOp};

/// Independent residual check (the soak's own notion of "wrong", applied
/// to the data actually submitted): `‖b − A·x‖∞ ≤ 64·n·ε·(n·max|A|·‖x‖∞
/// + ‖b‖∞)` per column, NaN answers always wrong. The norms are
/// [`la_lapack::max_abs1`], which keeps a NaN wherever it sits.
fn plausible(a: &Mat<f64>, b: &Mat<f64>, x: &Mat<f64>) -> bool {
    let n = a.nrows();
    let nrhs = b.ncols();
    let mut r = b.clone();
    let rld = r.lda();
    la_blas::gemm(
        Trans::No,
        Trans::No,
        n,
        nrhs,
        n,
        -1.0,
        a.as_slice(),
        a.lda(),
        x.as_slice(),
        x.lda(),
        1.0,
        r.as_mut_slice(),
        rld,
    );
    let amax = max_abs1(a.as_slice());
    let tol = f64::EPS * 64.0 * n as f64;
    for j in 0..nrhs {
        let (rn, xn, bn) = (max_abs1(r.col(j)), max_abs1(x.col(j)), max_abs1(b.col(j)));
        if !rn.is_finite() || !xn.is_finite() {
            return false;
        }
        let den = n as f64 * amax * xn + bn;
        if den > 0.0 && rn / den > tol {
            return false;
        }
    }
    true
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p) as usize).min(sorted.len() - 1);
    sorted[idx]
}

struct SweepRow {
    op: String,
    mode: &'static str,
    concurrency: usize,
    n: usize,
    jobs: u64,
    completed: u64,
    rejected: u64,
    p50_ms: f64,
    p99_ms: f64,
    goodput_jps: f64,
    wrong: u64,
    pool_poisonings: u64,
}

/// Submits with bounded retry on backpressure — a closed-loop client
/// never gives up on shed, it backs off and resubmits.
fn submit_with_retry(
    svc: &Service<f64>,
    mut make: impl FnMut() -> JobSpec<f64>,
) -> la_serve::JobHandle<f64> {
    loop {
        match svc.submit(make()) {
            Ok(h) => return h,
            Err(Rejection::Overloaded { .. }) => {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            Err(other) => panic!("serve_load: unexpected submit rejection: {other}"),
        }
    }
}

/// One clean-mode cell: `concurrency` closed-loop clients, each running
/// `jobs_per_client` solves of `op` at size `n` against a service with
/// `concurrency` workers.
fn run_clean(op: SolveOp, concurrency: usize, n: usize, jobs_per_client: u64) -> SweepRow {
    let svc: Service<f64> = Service::start(ServeConfig {
        workers: concurrency,
        queue_depth: 4 * concurrency.max(1),
        ..ServeConfig::default()
    });
    let gen: Mat<f64> = bench_matrix(n, 17);
    let spd: Mat<f64> = bench_spd(n, 23);
    let a = match op {
        SolveOp::Gesv => &gen,
        SolveOp::Posv(_) => &spd,
    };
    let b = rowsum_rhs(a, 2);
    let t0 = Instant::now();
    let (mut lats, mut wrong, mut rejected) = (Vec::new(), 0u64, 0u64);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| {
                let svc = &svc;
                let (a, b) = (a, &b);
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(jobs_per_client as usize);
                    let (mut wrong, mut rejected) = (0u64, 0u64);
                    for _ in 0..jobs_per_client {
                        let t = Instant::now();
                        let h = submit_with_retry(svc, || JobSpec::new(op, a.clone(), b.clone()));
                        match h.wait() {
                            Ok(out) => {
                                lats.push(t.elapsed().as_secs_f64() * 1e3);
                                if !plausible(a, b, &out.x) {
                                    wrong += 1;
                                }
                            }
                            Err(_) => rejected += 1,
                        }
                    }
                    (lats, wrong, rejected)
                })
            })
            .collect();
        for h in handles {
            let (l, w, r) = h.join().expect("client thread");
            lats.extend(l);
            wrong += w;
            rejected += r;
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let stats = svc.stats();
    svc.shutdown();
    lats.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let jobs = concurrency as u64 * jobs_per_client;
    SweepRow {
        op: op.as_str().to_string(),
        mode: "clean",
        concurrency,
        n,
        jobs,
        completed: stats.completed,
        rejected,
        p50_ms: percentile(&lats, 0.50),
        p99_ms: percentile(&lats, 0.99),
        goodput_jps: stats.completed as f64 / wall.max(1e-9),
        wrong,
        pool_poisonings: stats.pool_poisonings,
    }
}

/// What the residual gate adds to a served solve, measured in this run.
struct VerifyCost {
    n: usize,
    jobs: usize,
    /// `[p25, p50]` of the round trip in ms, residual check on.
    on_ms: [f64; 2],
    /// The same with the check off.
    off_ms: [f64; 2],
}

impl VerifyCost {
    /// Lower quartile verified over lower quartile unverified.
    fn ratio(&self) -> f64 {
        self.on_ms[0] / self.off_ms[0].max(1e-12)
    }
}

/// One closed-loop client against two one-worker services that differ only
/// in `verify_residual`, alternating between them in short blocks so both
/// see the same stretches of host speed. Answers are checked here too.
fn run_verify_cost(n: usize, jobs: usize) -> VerifyCost {
    const BLOCK: usize = 10;
    let start = |verify_residual| -> Service<f64> {
        Service::start(ServeConfig {
            workers: 1,
            verify_residual,
            ..ServeConfig::default()
        })
    };
    let services = [start(true), start(false)];
    let a: Mat<f64> = bench_matrix(n, 17);
    let b = rowsum_rhs(&a, 1);
    let mut lats = [Vec::with_capacity(jobs), Vec::with_capacity(jobs)];
    while lats[1].len() < jobs {
        for (svc, lats) in services.iter().zip(&mut lats) {
            for _ in 0..BLOCK {
                let (ja, jb) = (a.clone(), b.clone());
                let t = Instant::now();
                let out = svc
                    .submit(JobSpec::new(SolveOp::Gesv, ja, jb))
                    .and_then(|h| h.wait())
                    .expect("verify-cost probe: clean solve rejected");
                lats.push(t.elapsed().as_secs_f64() * 1e3);
                assert!(plausible(&a, &b, &out.x), "verify-cost probe: wrong answer");
            }
        }
    }
    for svc in &services {
        svc.shutdown();
    }
    let [mut on, mut off] = lats;
    on.sort_by(|x, y| x.partial_cmp(y).unwrap());
    off.sort_by(|x, y| x.partial_cmp(y).unwrap());
    VerifyCost {
        n,
        jobs,
        on_ms: [percentile(&on, 0.25), percentile(&on, 0.50)],
        off_ms: [percentile(&off, 0.25), percentile(&off, 0.50)],
    }
}

#[cfg(feature = "fault-inject")]
mod chaos_run {
    use super::*;
    use la_serve::chaos::{chaos_tune, quiet_chaos_panics, ChaosEvent, ChaosPlan};

    pub struct ChaosOutcome {
        pub row: SweepRow,
        pub events: [(&'static str, u64); 6],
        pub rejections: Vec<(&'static str, u64)>,
        pub degraded: u64,
        pub panics_isolated: u64,
        pub stuck: u64,
        pub respawned: u64,
        pub unresolved: u64,
        /// p50 of submit → typed `Panicked` rejection round trips: the
        /// measured end-to-end cost of panic isolation.
        pub panic_p50_ms: f64,
    }

    /// The chaos soak: `clients` closed-loop clients driving `jobs` total
    /// jobs (ops rotating over the three served drivers) while a deterministic
    /// chaos plan injects faults. Runs under [`chaos_tune`] so the
    /// ABFT-protected blocked paths engage at soak sizes.
    pub fn run(clients: usize, n: usize, jobs: u64, seed: u64) -> ChaosOutcome {
        quiet_chaos_panics();
        let svc: Service<f64> = la_core::tune::with(chaos_tune(), || {
            Service::start(ServeConfig {
                workers: clients,
                queue_depth: 4 * clients.max(1),
                max_attempts: 3,
                // The plan injects wedged workers: the watchdog is what
                // resolves them, so the soak runs with it armed.
                watchdog: Some(std::time::Duration::from_millis(150)),
                ..ServeConfig::default()
            })
        });
        let gen: Mat<f64> = bench_matrix(n, 31);
        let spd: Mat<f64> = bench_spd(n, 37);
        let bg = rowsum_rhs(&gen, 2);
        let bs = rowsum_rhs(&spd, 2);
        const OPS: [SolveOp; 2] = [SolveOp::Gesv, SolveOp::Posv(la_core::Uplo::Upper)];
        let t0 = Instant::now();
        let per_client = jobs / clients as u64;
        type ClientOut = (Vec<f64>, u64, [u64; 6], Vec<(&'static str, u64)>, Vec<f64>);
        let (mut lats, mut wrong) = (Vec::new(), 0u64);
        let mut panic_lats: Vec<f64> = Vec::new();
        let mut events = [0u64; 6];
        let mut rej_kinds: std::collections::BTreeMap<&'static str, u64> = Default::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|ci| {
                    let svc = &svc;
                    let (gen, spd, bg, bs) = (&gen, &spd, &bg, &bs);
                    s.spawn(move || -> ClientOut {
                        let mut plan = ChaosPlan::new(seed.wrapping_add(ci as u64));
                        let mut lats = Vec::new();
                        let mut wrong = 0u64;
                        let mut events = [0u64; 6];
                        let mut rejs: Vec<(&'static str, u64)> = Vec::new();
                        let mut panic_lats: Vec<f64> = Vec::new();
                        let bump = |rejs: &mut Vec<(&'static str, u64)>, k| match rejs
                            .iter_mut()
                            .find(|(name, _)| *name == k)
                        {
                            Some((_, c)) => *c += 1,
                            None => rejs.push((k, 1)),
                        };
                        for i in 0..per_client {
                            let op = OPS[((ci as u64 + i) % OPS.len() as u64) as usize];
                            let (a0, b0) = match op {
                                SolveOp::Gesv => (gen, bg),
                                _ => (spd, bs),
                            };
                            let ev = plan.next_event();
                            events[match ev {
                                ChaosEvent::Clean => 0,
                                ChaosEvent::SoftFault => 1,
                                ChaosEvent::WorkerPanic => 2,
                                ChaosEvent::Poison => 3,
                                ChaosEvent::PastDeadline => 4,
                                ChaosEvent::WedgedWorker => 5,
                            }] += 1;
                            let spec = plan.apply(
                                ev,
                                JobSpec::new(op, a0.clone(), b0.clone()).tenant(match ev {
                                    ChaosEvent::Clean => "steady",
                                    _ => "chaotic",
                                }),
                            );
                            // Keep what was actually submitted for the
                            // independent wrongness check (Poison mutates A).
                            let (a_sub, b_sub) = (spec_a(&spec), b0.clone());
                            let t = Instant::now();
                            let h = {
                                let mut spec = Some(spec);
                                submit_with_retry(svc, || spec.take().expect("one submit"))
                            };
                            match h.wait() {
                                Ok(out) => {
                                    lats.push(t.elapsed().as_secs_f64() * 1e3);
                                    if !plausible(&a_sub, &b_sub, &out.x) {
                                        wrong += 1;
                                    }
                                }
                                Err(r) => {
                                    if matches!(r, Rejection::Panicked { .. }) {
                                        panic_lats.push(t.elapsed().as_secs_f64() * 1e3);
                                    }
                                    bump(
                                        &mut rejs,
                                        match r {
                                            Rejection::Overloaded { .. } => "overloaded",
                                            Rejection::DeadlineExceeded => "deadline_exceeded",
                                            Rejection::Failed(_) => "failed",
                                            Rejection::Panicked { .. } => "panicked",
                                            Rejection::ResidualRejected { .. } => {
                                                "residual_rejected"
                                            }
                                            Rejection::Stuck { .. } => "stuck",
                                            Rejection::ShuttingDown => "shutting_down",
                                        },
                                    );
                                }
                            }
                        }
                        (lats, wrong, events, rejs, panic_lats)
                    })
                })
                .collect();
            for h in handles {
                let (l, w, ev, rj, pl) = h.join().expect("chaos client");
                lats.extend(l);
                wrong += w;
                for (i, c) in ev.iter().enumerate() {
                    events[i] += c;
                }
                for (k, c) in rj {
                    *rej_kinds.entry(k).or_insert(0) += c;
                }
                panic_lats.extend(pl);
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        // Disarm any corruption that never found a matching stripe so it
        // cannot leak into later runs in the same process.
        la_core::abft::inject::disarm();
        let stats = svc.stats();
        svc.shutdown();
        lats.sort_by(|x, y| x.partial_cmp(y).unwrap());
        panic_lats.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let total = per_client * clients as u64;
        let rejected: u64 = rej_kinds.values().sum();
        let unresolved = total - stats.completed - rejected;
        ChaosOutcome {
            row: SweepRow {
                op: "all".to_string(),
                mode: "chaos",
                concurrency: clients,
                n,
                jobs: total,
                completed: stats.completed,
                rejected,
                p50_ms: percentile(&lats, 0.50),
                p99_ms: percentile(&lats, 0.99),
                goodput_jps: stats.completed as f64 / wall.max(1e-9),
                wrong,
                pool_poisonings: stats.pool_poisonings,
            },
            events: [
                ("clean", events[0]),
                ("soft_fault", events[1]),
                ("worker_panic", events[2]),
                ("poison", events[3]),
                ("past_deadline", events[4]),
                ("wedged_worker", events[5]),
            ],
            rejections: rej_kinds.into_iter().collect(),
            degraded: stats.degraded,
            panics_isolated: stats.panics_isolated,
            stuck: stats.stuck,
            respawned: stats.respawned,
            unresolved,
            panic_p50_ms: percentile(&panic_lats, 0.50),
        }
    }

    /// The spec's matrix, cloned (fields are crate-private to la-serve, so
    /// the soak reconstructs the submitted A from the event semantics).
    fn spec_a(spec: &JobSpec<f64>) -> Mat<f64> {
        spec.matrix().clone()
    }
}

/// Open-loop overload mode (`--overload`): arrivals are paced at a fixed
/// multiple of the measured service capacity and shed arrivals are
/// *lost*, never retried — the regime a closed-loop client cannot
/// produce and the one admission control exists for. The same offered
/// schedule runs twice, against the fixed-depth bound and against
/// target-delay admission (the adaptive controller), so the two rows in
/// the JSON are directly comparable. With `--chaos`
/// (`fault-inject` builds), wedged workers and arrival bursts are
/// injected on top.
mod overload {
    use super::*;
    use la_serve::Priority;
    use std::time::Duration;

    pub struct OverloadRow {
        pub mode: &'static str,
        pub workers: usize,
        pub n: usize,
        /// Queueing-delay target handed to the adaptive controller
        /// (recorded on the fixed row too, for comparison).
        pub target_ms: f64,
        pub offered_jps: f64,
        pub jobs: u64,
        pub served: u64,
        pub shed: u64,
        pub rejected: u64,
        pub stuck: u64,
        pub respawned: u64,
        pub p50_ms: f64,
        pub p99_ms: f64,
        /// Arrivals shed and p99 of the served ones, per priority, in
        /// [`PRIOS`] order: what the priority weights exist to shape.
        pub by_priority: [(u64, f64); 3],
        pub goodput_jps: f64,
        pub wrong: u64,
        pub pool_poisonings: u64,
        pub unresolved: u64,
    }

    /// Arrival priorities, in turn; also the order of
    /// [`OverloadRow::by_priority`].
    pub const PRIOS: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    /// Median closed-loop solve latency on an idle one-worker service:
    /// the per-job service time the open-loop pacing is derived from.
    pub fn calibrate_service_ms(n: usize) -> f64 {
        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let a: Mat<f64> = bench_matrix(n, 17);
        let b = rowsum_rhs(&a, 2);
        let mut lats = Vec::new();
        for _ in 0..12 {
            let t = Instant::now();
            let h = submit_with_retry(&svc, || JobSpec::new(SolveOp::Gesv, a.clone(), b.clone()));
            h.wait().expect("calibration solve failed");
            lats.push(t.elapsed().as_secs_f64() * 1e3);
        }
        svc.shutdown();
        lats.sort_by(|x, y| x.partial_cmp(y).unwrap());
        lats[lats.len() / 2]
    }

    /// Pacing that survives coarse OS sleep granularity: sleep for the
    /// bulk of the gap, spin the last stretch.
    fn pace_until(next: Instant) {
        loop {
            let now = Instant::now();
            if now >= next {
                return;
            }
            let gap = next - now;
            if gap > Duration::from_millis(1) {
                std::thread::sleep(gap - Duration::from_millis(1));
            } else {
                // Yield, don't spin: on a small box a spinning generator
                // starves the very workers it is trying to overload.
                std::thread::yield_now();
            }
        }
    }

    /// One overload scenario: both admission modes run against the
    /// same copy of these parameters so the comparison is apples to
    /// apples.
    #[derive(Clone, Copy)]
    pub struct Scenario {
        pub workers: usize,
        pub n: usize,
        pub jobs: u64,
        pub service_ms: f64,
        pub stall: Duration,
        pub oversub: f64,
    }

    pub fn run(adaptive: bool, chaos: bool, sc: Scenario) -> OverloadRow {
        let Scenario {
            workers,
            n,
            jobs,
            service_ms,
            stall,
            oversub,
        } = sc;
        // Target queueing delay: a few service times, floored at an
        // absolute SLO so the target stays meaningful against OS
        // scheduling quanta when single solves are microseconds. The
        // fixed baseline gets no target — its only defence is the
        // depth bound.
        let target_ms = (4.0 * service_ms).max(5.0);
        let svc: Service<f64> = Service::start(ServeConfig {
            workers,
            queue_depth: 256,
            target_delay: if adaptive {
                Some(Duration::from_secs_f64(target_ms / 1e3))
            } else {
                None
            },
            watchdog: Some(stall),
            ..ServeConfig::default()
        });
        let gen: Mat<f64> = bench_matrix(n, 17);
        let b = rowsum_rhs(&gen, 2);
        // Seed the admission controller's service-time EWMA so the
        // adaptive bound is in force from the first paced arrival
        // (a cold controller admits up to the depth cap).
        for _ in 0..8 {
            submit_with_retry(&svc, || JobSpec::new(SolveOp::Gesv, gen.clone(), b.clone()))
                .wait()
                .expect("overload warmup solve failed");
        }
        let interval = Duration::from_secs_f64(service_ms / 1e3 / (workers as f64 * oversub));
        let offered_jps = 1.0 / interval.as_secs_f64();
        // Handles stream to a concurrent collector that waits them in
        // admission (≈ completion) order *while the generator keeps
        // submitting* — waiting after the fact would fold the rest of
        // the submission window into every early job's measured latency.
        // Residual checks are deferred so the collector never lags the
        // completion rate.
        let (tx, rx) = std::sync::mpsc::channel::<(Instant, usize, la_serve::JobHandle<f64>)>();
        let mut shed = [0u64; 3];
        let t0 = Instant::now();
        let (served_outs, rejected, unresolved) = std::thread::scope(|s| {
            let collector = s.spawn(move || {
                let mut outs: Vec<(f64, usize, la_serve::SolveOutput<f64>)> = Vec::new();
                let (mut rejected, mut unresolved) = (0u64, 0u64);
                for (t, prio, h) in rx {
                    match h.wait_for(Duration::from_secs(120)) {
                        Ok(Ok(out)) => outs.push((t.elapsed().as_secs_f64() * 1e3, prio, out)),
                        Ok(Err(_)) => rejected += 1,
                        Err(_) => unresolved += 1,
                    }
                }
                (outs, rejected, unresolved)
            });
            let mut next = Instant::now();
            for i in 0..jobs {
                // A burst compresses a handful of arrivals onto one
                // instant; every other arrival is paced at the offered
                // rate. The generator never waits for an answer (open
                // loop).
                let in_burst = chaos && i % 50 < 4;
                if !in_burst {
                    pace_until(next);
                }
                next += interval;
                let prio = (i % 3) as usize;
                #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
                let mut spec =
                    JobSpec::new(SolveOp::Gesv, gen.clone(), b.clone()).priority(PRIOS[prio]);
                #[cfg(feature = "fault-inject")]
                if chaos && i % 2000 == 7 {
                    spec = spec.chaos_wedge(if i % 4000 == 7 {
                        la_serve::chaos::WedgeKind::Hard
                    } else {
                        la_serve::chaos::WedgeKind::Cooperative
                    });
                }
                match svc.submit(spec) {
                    Ok(h) => tx.send((Instant::now(), prio, h)).expect("collector alive"),
                    Err(Rejection::Overloaded { retry_after, .. }) => {
                        shed[prio] += 1;
                        // The arrival is lost, but the hint must be sane.
                        assert!(
                            retry_after > Duration::ZERO,
                            "overload shed without a retry_after hint"
                        );
                    }
                    Err(other) => panic!("overload submit: unexpected rejection: {other}"),
                }
            }
            drop(tx);
            collector.join().expect("collector thread")
        });
        let wall = t0.elapsed().as_secs_f64();
        let served = served_outs.len() as u64;
        let mut wrong = 0u64;
        let mut lats: Vec<f64> = Vec::with_capacity(served_outs.len());
        let mut prio_lats: [Vec<f64>; 3] = Default::default();
        for (lat, prio, out) in &served_outs {
            lats.push(*lat);
            prio_lats[*prio].push(*lat);
            if !plausible(&gen, &b, &out.x) {
                wrong += 1;
            }
        }
        let stats = svc.stats();
        svc.shutdown();
        lats.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let by_priority = std::array::from_fn(|k| {
            prio_lats[k].sort_by(|x, y| x.partial_cmp(y).unwrap());
            (shed[k], percentile(&prio_lats[k], 0.99))
        });
        OverloadRow {
            mode: if adaptive { "adaptive" } else { "fixed" },
            workers,
            n,
            target_ms,
            offered_jps,
            jobs,
            served,
            shed: shed.iter().sum(),
            rejected,
            stuck: stats.stuck,
            respawned: stats.respawned,
            p50_ms: percentile(&lats, 0.50),
            p99_ms: percentile(&lats, 0.99),
            by_priority,
            goodput_jps: served as f64 / wall.max(1e-9),
            wrong,
            pool_poisonings: stats.pool_poisonings,
            unresolved,
        }
    }
}

fn main() {
    let mut args = Args::from_env();
    let quick = args.flag("--quick");
    let chaos = args.flag("--chaos");
    let max_verify_ratio = args.limit("--max-verify-ratio");
    let max_overload_p99 = args.limit("--max-overload-p99-ratio");
    let do_overload = args.flag("--overload") || max_overload_p99.is_some();
    args.finish();
    let cores = la_core::tune::host_parallelism();
    let mode = if quick { " (quick)" } else { "" };
    println!("== serve_load{mode}: {cores} core(s) ==");

    #[cfg(not(feature = "fault-inject"))]
    if chaos {
        eprintln!("serve_load: --chaos requires building with --features fault-inject");
        std::process::exit(2);
    }

    let n = if quick { 48 } else { 96 };
    let jobs_per_client = if quick { 12 } else { 25 };
    let concurrencies: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let ops = [SolveOp::Gesv, SolveOp::Posv(la_core::Uplo::Upper)];

    let mut rows: Vec<SweepRow> = Vec::new();
    for &c in concurrencies {
        for op in ops {
            let row = run_clean(op, c, n, jobs_per_client);
            println!(
                "  {:<11} c={:<2} n={:<4} jobs={:<4} p50 {:8.3} ms  p99 {:8.3} ms  {:8.1} jobs/s",
                row.op, row.concurrency, row.n, row.jobs, row.p50_ms, row.p99_ms, row.goodput_jps
            );
            assert_eq!(row.wrong, 0, "clean mode served a wrong answer");
            assert_eq!(row.pool_poisonings, 0, "clean mode poisoned the pool");
            rows.push(row);
        }
    }

    let mut failed = false;
    let vc = run_verify_cost(96, if quick { 2000 } else { 8000 });
    println!(
        "-- answer check: gesv n={} x{}: p25 {:.4} ms verified / {:.4} ms unverified = {:.3} \
         (p50 {:.4} / {:.4}) --",
        vc.n,
        vc.jobs,
        vc.on_ms[0],
        vc.off_ms[0],
        vc.ratio(),
        vc.on_ms[1],
        vc.off_ms[1]
    );
    failed |= !gate("verified over unverified p25", vc.ratio(), max_verify_ratio);

    #[cfg(feature = "fault-inject")]
    let chaos_outcome = if chaos {
        let (clients, cn, jobs) = if quick { (4, 24, 400) } else { (4, 32, 1500) };
        println!("-- chaos soak: {jobs} jobs, {clients} clients, n={cn} --");
        let out = chaos_run::run(clients, cn, jobs, 0xC0FFEE);
        let r = &out.row;
        println!(
            "  chaos       c={:<2} n={:<4} jobs={:<4} p50 {:8.3} ms  p99 {:8.3} ms  {:8.1} jobs/s",
            r.concurrency, r.n, r.jobs, r.p50_ms, r.p99_ms, r.goodput_jps
        );
        println!(
            "  served {} / rejected {} (degraded {}, panics isolated {}, \
             stuck {}, respawned {}, panic-isolation p50 {:.3} ms)",
            r.completed,
            r.rejected,
            out.degraded,
            out.panics_isolated,
            out.stuck,
            out.respawned,
            out.panic_p50_ms
        );
        for (k, v) in &out.events {
            println!("    event {k:<14} {v}");
        }
        for (k, v) in &out.rejections {
            println!("    rejection {k:<18} {v}");
        }
        if r.wrong > 0 {
            eprintln!("  CHAOS VIOLATION: {} wrong answer(s) served", r.wrong);
            failed = true;
        }
        if r.pool_poisonings > 0 {
            eprintln!(
                "  CHAOS VIOLATION: {} panic(s) escaped a job boundary",
                r.pool_poisonings
            );
            failed = true;
        }
        if out.unresolved > 0 {
            eprintln!(
                "  CHAOS VIOLATION: {} job(s) neither served nor rejected",
                out.unresolved
            );
            failed = true;
        }
        Some(out)
    } else {
        None
    };

    let overload_rows: Vec<overload::OverloadRow> = if do_overload {
        // Enough arrivals that the run is *sustained* overload — many
        // multiples of the controller's reaction window — not one
        // transient burst. `--quick` runs it too: 6000 arrivals at
        // n = 96 spread the gated p99 ratio over 0.40–0.92.
        let (oworkers, on, ojobs, stall_ms) = (2, 128, 16000, 20);
        let sc = overload::Scenario {
            workers: oworkers,
            n: on,
            jobs: ojobs,
            service_ms: overload::calibrate_service_ms(on),
            stall: std::time::Duration::from_millis(stall_ms),
            oversub: 2.0,
        };
        println!(
            "-- overload: open loop at {:.1}x capacity (service ~{:.3} ms, \
             {oworkers} workers, n={on}, {ojobs} arrivals{}) --",
            sc.oversub,
            sc.service_ms,
            if chaos { ", chaos wedges+bursts" } else { "" }
        );
        let mut rows = Vec::new();
        for adaptive in [false, true] {
            let r = overload::run(adaptive, chaos, sc);
            println!(
                "  {:<9} offered {:7.1}/s  goodput {:7.1}/s  p50 {:8.3} ms  p99 {:8.3} ms  \
                 shed {:<4} stuck {:<3} respawned {}",
                r.mode,
                r.offered_jps,
                r.goodput_jps,
                r.p50_ms,
                r.p99_ms,
                r.shed,
                r.stuck,
                r.respawned
            );
            for (prio, (shed, p99)) in overload::PRIOS.iter().zip(r.by_priority) {
                println!("    {:<7} shed {shed:<5} p99 {p99:8.3} ms", prio.as_str());
            }
            if r.wrong > 0 {
                eprintln!(
                    "  OVERLOAD VIOLATION ({}): {} wrong answer(s) served",
                    r.mode, r.wrong
                );
                failed = true;
            }
            if r.pool_poisonings > 0 {
                eprintln!(
                    "  OVERLOAD VIOLATION ({}): {} panic(s) escaped a job boundary",
                    r.mode, r.pool_poisonings
                );
                failed = true;
            }
            if r.unresolved > 0 {
                eprintln!(
                    "  OVERLOAD VIOLATION ({}): {} admitted job(s) never resolved",
                    r.mode, r.unresolved
                );
                failed = true;
            }
            rows.push(r);
        }
        let ratio = rows[1].p99_ms / rows[0].p99_ms;
        failed |= !gate("adaptive over fixed overload p99", ratio, max_overload_p99);
        rows
    } else {
        Vec::new()
    };

    // --- Emit JSON ----------------------------------------------------
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("host");
    j.begin_obj();
    j.field_uint("cores", cores as u64);
    j.end_obj();
    j.key("serve_sweep");
    j.begin_arr();
    #[cfg(feature = "fault-inject")]
    let rows_iter = rows.iter().chain(chaos_outcome.as_ref().map(|o| &o.row));
    #[cfg(not(feature = "fault-inject"))]
    let rows_iter = rows.iter();
    for r in rows_iter {
        j.begin_obj();
        j.field_str("op", &r.op);
        j.field_str("mode", r.mode);
        j.field_uint("concurrency", r.concurrency as u64);
        j.field_uint("n", r.n as u64);
        j.field_uint("jobs", r.jobs);
        j.field_uint("completed", r.completed);
        j.field_uint("rejected", r.rejected);
        j.field_num("p50_ms", r.p50_ms);
        j.field_num("p99_ms", r.p99_ms);
        j.field_num("goodput_jps", r.goodput_jps);
        j.field_uint("wrong", r.wrong);
        j.field_uint("pool_poisonings", r.pool_poisonings);
        j.end_obj();
    }
    j.end_arr();
    j.key("verify_cost");
    j.begin_obj();
    j.field_uint("n", vc.n as u64);
    j.field_uint("jobs", vc.jobs as u64);
    j.field_num("verified_p25_ms", vc.on_ms[0]);
    j.field_num("unverified_p25_ms", vc.off_ms[0]);
    j.field_num("verified_p50_ms", vc.on_ms[1]);
    j.field_num("unverified_p50_ms", vc.off_ms[1]);
    j.field_num("ratio", vc.ratio());
    j.end_obj();
    #[cfg(feature = "fault-inject")]
    if let Some(out) = &chaos_outcome {
        j.key("chaos_summary");
        j.begin_obj();
        j.field_uint("jobs", out.row.jobs);
        j.field_uint("completed", out.row.completed);
        j.field_uint("rejected", out.row.rejected);
        j.field_uint("wrong", out.row.wrong);
        j.field_uint("pool_poisonings", out.row.pool_poisonings);
        j.field_uint("unresolved", out.unresolved);
        j.field_uint("degraded", out.degraded);
        j.field_uint("panics_isolated", out.panics_isolated);
        j.field_uint("stuck", out.stuck);
        j.field_uint("respawned", out.respawned);
        j.field_num("panic_isolation_p50_ms", out.panic_p50_ms);
        j.key("events");
        j.begin_obj();
        for (k, v) in &out.events {
            j.field_uint(k, *v);
        }
        j.end_obj();
        j.key("rejections");
        j.begin_obj();
        for (k, v) in &out.rejections {
            j.field_uint(k, *v);
        }
        j.end_obj();
        j.end_obj();
    }
    if !overload_rows.is_empty() {
        j.key("overload");
        j.begin_arr();
        for r in &overload_rows {
            j.begin_obj();
            j.field_str("mode", r.mode);
            j.field_uint("workers", r.workers as u64);
            j.field_uint("n", r.n as u64);
            j.field_num("target_ms", r.target_ms);
            j.field_num("offered_jps", r.offered_jps);
            j.field_uint("jobs", r.jobs);
            j.field_uint("served", r.served);
            j.field_uint("shed", r.shed);
            j.field_uint("rejected", r.rejected);
            j.field_uint("stuck", r.stuck);
            j.field_uint("respawned", r.respawned);
            j.field_num("p50_ms", r.p50_ms);
            j.field_num("p99_ms", r.p99_ms);
            j.key("by_priority");
            j.begin_obj();
            for (prio, (shed, p99)) in overload::PRIOS.iter().zip(r.by_priority) {
                j.key(prio.as_str());
                j.begin_obj();
                j.field_uint("shed", shed);
                j.field_num("p99_ms", p99);
                j.end_obj();
            }
            j.end_obj();
            j.field_num("goodput_jps", r.goodput_jps);
            j.field_uint("wrong", r.wrong);
            j.field_uint("pool_poisonings", r.pool_poisonings);
            j.field_uint("unresolved", r.unresolved);
            j.end_obj();
        }
        j.end_arr();
    }
    j.end_obj();
    let path = "target/serve_load.json";
    std::fs::create_dir_all("target")
        .and_then(|()| std::fs::write(path, j.into_string()))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nan_in_a_alone_is_not_plausible() {
        // x solves the clean system exactly; A(0, 0) = NaN makes the
        // residual [NaN, 0, …], which a running `maxr` reduces to 0.
        let n = 8;
        let mut a = Mat::from_fn(n, n, |i, j| if i == j { 4.0 } else { 0.5 });
        let x = Mat::from_fn(n, 1, |_, _| 1.0);
        let b = Mat::from_fn(n, 1, |_, _| 4.0 + 0.5 * (n - 1) as f64);
        assert!(plausible(&a, &b, &x));
        a[(0, 0)] = f64::NAN;
        assert!(!plausible(&a, &b, &x));
    }
}
