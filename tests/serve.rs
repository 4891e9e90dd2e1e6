//! Robustness of the serving substrate end-to-end, exercised through the
//! test-only injection hooks:
//!
//! 1. **Fault attribution**: two jobs served side by side under
//!    `AbftPolicy::Verify` with one one-shot corruption armed — the fault
//!    is *attributed to exactly the job it struck* (that job climbs the
//!    ladder and comes back `degraded`), the sibling and the jobs that
//!    run next on the same worker threads are clean first tries
//!    (`abft::job_scope`: nothing a job parked can surface in another).
//! 2. **Service chaos soak**: a mini version of the `serve_load --chaos`
//!    invariants — a `Service` fed a deterministic mix of clean jobs,
//!    silent corruption, worker panics, NaN-poisoned inputs and expired
//!    deadlines must resolve every job (answer or typed rejection),
//!    serve zero wrong answers, and never let a panic poison the pool.
//!
//! Injection arming and the ABFT counters are process-global, so the
//! whole suite runs as one sequential `#[test]` (the same discipline as
//! `tests/degrade.rs`).

#![cfg(feature = "fault-inject")]

use la_core::abft::inject::{arm, is_armed, CorruptKind, Corruption};
use la_core::abft::{self, AbftPolicy};
use la_core::cancel::{INFO_CANCELLED, INFO_PANICKED};
use la_core::{tune, Mat, Uplo};
use la_serve::chaos::{answer_is_plausible, chaos_tune, quiet_chaos_panics, ChaosPlan};
use la_serve::{JobSpec, Rejection, ServeConfig, Service, SolveOp};

/// Forced-parallel with small factorization blocks so the protected
/// blocked paths engage at test sizes (mirrors `tests/degrade.rs`).
fn forced() -> tune::TuneConfig {
    tune::TuneConfig {
        max_threads: 4,
        oversubscribe: true,
        par_flops: 0,
        nb_getrf: 8,
        nb_potrf: 8,
        ..tune::TuneConfig::defaults()
    }
}

struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
    fn vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_f64()).collect()
    }
}

// One sequential test: the injection arming slot and the ABFT counters
// are process-global, so concurrent #[test] threads would consume each
// other's armed corruption.
#[test]
fn a_served_fault_stays_with_its_job_and_the_service_survives_chaos() {
    served_fault_is_attributed_to_the_job_it_struck();
    service_chaos_soak();
}

// ---------------------------------------------------------------------
// Fault attribution across served jobs
// ---------------------------------------------------------------------

fn served_fault_is_attributed_to_the_job_it_struck() {
    let n = 32usize;
    abft::clear_pending();
    let svc: Service<f64> = tune::with(forced(), || {
        abft::with_policy(AbftPolicy::Verify, || {
            Service::start(ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            })
        })
    });
    let job = |seed: u64| {
        let (a, b) = dd_system(n, seed);
        JobSpec::new(
            SolveOp::Gesv,
            Mat::from_col_major(n, n, a),
            Mat::from_col_major(n, 1, b),
        )
    };
    arm(Corruption {
        routine: "getrf",
        stripe: 1,
        kind: CorruptKind::Scale,
    });
    // Two jobs in flight on the two workers, then two more on the same
    // worker threads: a fault that outlived its job would surface there.
    let mut outs = Vec::new();
    for round in 0..2u64 {
        let pair: Vec<_> = (0..2)
            .map(|i| svc.submit(job(100 + 2 * round + i)).expect("admitted"))
            .collect();
        for h in pair {
            outs.push(h.wait().expect("Verify detects, the ladder recovers"));
        }
    }
    assert!(!is_armed(), "the corruption did not fire");
    let struck: Vec<usize> = (0..outs.len()).filter(|&j| outs[j].degraded).collect();
    assert_eq!(struck.len(), 1, "exactly one job was struck: {struck:?}");
    for (j, out) in outs.iter().enumerate() {
        if j == struck[0] {
            assert_eq!(
                out.attempts, 2,
                "detected under Verify, re-run under the job's own policy"
            );
        } else {
            assert_eq!(out.attempts, 1, "job {j} is a clean first try");
        }
    }
    let stats = svc.stats();
    svc.shutdown();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.completed, 4);
    assert!(
        abft::take_pending().is_none(),
        "a pending fault leaked out of the service"
    );
}

/// Diagonally dominant general system with solution fixed by `b = A·x`.
fn dd_system(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Rng(seed);
    let mut a = rng.vec(n * n);
    for i in 0..n {
        a[i + i * n] = 8.0;
    }
    let mut b = vec![0.0f64; n];
    for j in 0..n {
        for i in 0..n {
            b[i] += a[i + j * n] * (1.0 + j as f64 / n as f64);
        }
    }
    (a, b)
}

/// Symmetric positive definite (diagonally dominant) system.
fn spd_system(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Rng(seed);
    let mut a = vec![0.0f64; n * n];
    for j in 0..n {
        for i in 0..j {
            let v = rng.next_f64() / (1.0 + (j - i) as f64);
            a[i + j * n] = v;
            a[j + i * n] = v;
        }
        a[j + j * n] = 2.0 * n as f64;
    }
    let mut b = vec![0.0f64; n];
    for j in 0..n {
        for i in 0..n {
            b[i] += a[i + j * n];
        }
    }
    (a, b)
}

// ---------------------------------------------------------------------
// Service chaos soak (mini)
// ---------------------------------------------------------------------

fn service_chaos_soak() {
    quiet_chaos_panics();
    let svc: Service<f64> = tune::with(chaos_tune(), || {
        abft::with_policy(AbftPolicy::Recover, || {
            Service::start(ServeConfig {
                workers: 2,
                queue_depth: 16,
                max_attempts: 3,
                // The chaos mix includes wedged workers: the watchdog
                // must be on for them to resolve (typed Stuck + respawn)
                // instead of holding their workers forever.
                watchdog: Some(std::time::Duration::from_millis(150)),
                ..ServeConfig::default()
            })
        })
    });
    let n = 24usize;
    let (ga, gb) = dd_system(n, 400);
    let (sa, sb) = spd_system(n, 500);
    let gen = Mat::from_col_major(n, n, ga);
    let gb = Mat::from_col_major(n, 1, gb);
    let spd = Mat::from_col_major(n, n, sa);
    let sb = Mat::from_col_major(n, 1, sb);

    let mut plan = ChaosPlan::new(42);
    let total = 80usize;
    let mut pending = Vec::with_capacity(total);
    for i in 0..total {
        let op = if i % 2 == 0 {
            SolveOp::Gesv
        } else {
            SolveOp::Posv(Uplo::Lower)
        };
        let (a0, b0) = if i % 2 == 0 { (&gen, &gb) } else { (&spd, &sb) };
        let ev = plan.next_event();
        let spec = plan.apply(ev, JobSpec::new(op, a0.clone(), b0.clone()));
        let (a_sub, b_sub) = (spec.matrix().clone(), spec.rhs().clone());
        // Closed-loop: back off and resubmit on shed, never drop a job.
        let mut spec = Some(spec);
        let handle = loop {
            match svc.submit(spec.take().expect("one submit")) {
                Ok(h) => break h,
                Err(Rejection::Overloaded { .. }) => {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    let op2 = op;
                    let (a2, b2) = (a_sub.clone(), b_sub.clone());
                    spec = Some(JobSpec::new(op2, a2, b2));
                }
                Err(other) => panic!("unexpected submit rejection: {other}"),
            }
        };
        pending.push((a_sub, b_sub, handle));
    }
    let (mut served, mut rejected, mut wrong) = (0usize, 0usize, 0usize);
    for (a_sub, b_sub, handle) in pending {
        match handle.wait() {
            Ok(out) => {
                served += 1;
                if !answer_is_plausible(&a_sub, &b_sub, &out.x) {
                    wrong += 1;
                }
            }
            Err(
                Rejection::DeadlineExceeded
                | Rejection::Failed(_)
                | Rejection::Panicked { .. }
                | Rejection::ResidualRejected { .. }
                | Rejection::Stuck { .. },
            ) => rejected += 1,
            Err(other) => panic!("soak job resolved with {other}"),
        }
    }
    // Stray one-shot corruption must not leak into later suites.
    la_core::abft::inject::disarm();
    let stats = svc.stats();
    svc.shutdown();
    assert_eq!(served + rejected, total, "every job must resolve");
    assert_eq!(wrong, 0, "the service served {wrong} wrong answer(s)");
    assert_eq!(
        stats.pool_poisonings, 0,
        "a panic escaped a job boundary ({} poisonings)",
        stats.pool_poisonings
    );
    assert!(served > 0, "chaos mix starved every job");
    // The seed-42 mix injects wedges; the soak finishing at all proves
    // the watchdog resolved them (a wedged worker with no watchdog would
    // hold its job's handle forever and the wait above would hang).
    // The INFO codes the service maps rejections from stay reserved.
    assert_eq!(INFO_CANCELLED, -103);
    assert_eq!(INFO_PANICKED, -104);
}
