//! The service: bounded queue, worker pool, per-job robustness pipeline,
//! and the overload subsystem (adaptive admission, stuck-job watchdog).

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use la_core::cancel::{CancelToken, Heartbeat};
use la_core::probe::Layer;
use la_core::Scalar;
use la_core::{abft, ctx, probe, tune, Ctx};

use crate::admission::{Controller, Verdict};
use crate::handle::Shared;
use crate::ladder::Scratch;
use crate::tenant::TenantState;
use crate::watchdog::{self, patrol, WorkerSlot};
use crate::{handoff, ladder, JobHandle, JobSpec, Rejection, ServeConfig, TenantReport};

/// One admitted, not-yet-processed job.
struct Queued<T: Scalar> {
    spec: JobSpec<T>,
    shared: Arc<Shared<T>>,
    token: CancelToken,
    job_id: u64,
    enqueued_ns: u64,
}

/// What the queue lock guards: the admitted jobs and the admission
/// controller that decides who joins them (clock-free; the service feeds
/// it nanoseconds from `Inner::epoch`).
struct Queue<T: Scalar> {
    jobs: VecDeque<Queued<T>>,
    admission: Controller,
}

#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    deadline_missed: AtomicU64,
    degraded: AtomicU64,
    panics_isolated: AtomicU64,
    pool_poisonings: AtomicU64,
    stuck: AtomicU64,
    respawned: AtomicU64,
}

/// Counter snapshot from [`Service::stats`]. All counts are cumulative
/// since [`Service::start`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs admitted into the queue.
    pub submitted: u64,
    /// Jobs answered (subset [`ServeStats::degraded`] needed the ladder).
    pub completed: u64,
    /// Jobs rejected after admission (deadline, failure, panic budget,
    /// residual, stuck, shutdown drain). Excludes shed submissions.
    pub rejected: u64,
    /// Submissions shed at the door by backpressure
    /// ([`Rejection::Overloaded`]); never admitted, not in `submitted`.
    pub shed: u64,
    /// Jobs rejected because their deadline passed (queued or in flight).
    pub deadline_missed: u64,
    /// Answered jobs that consumed more than one ladder attempt.
    pub degraded: u64,
    /// Worker panics caught at the job boundary — each one poisoned only
    /// its job.
    pub panics_isolated: u64,
    /// Panics that escaped a job boundary and killed a worker thread.
    /// The design invariant is that this stays `0`; the chaos soak
    /// asserts it.
    pub pool_poisonings: u64,
    /// Jobs the watchdog resolved as [`Rejection::Stuck`] (wedged past
    /// the stall budget; cooperative cancel first, respawn if ignored).
    pub stuck: u64,
    /// Workers the watchdog wrote off and replaced (stage-2
    /// escalations). The pool size never shrinks below the configured
    /// worker count.
    pub respawned: u64,
    /// Jobs sitting in the queue right now.
    pub queued: usize,
}

struct Inner<T: Scalar> {
    cfg: ServeConfig,
    workers: usize,
    queue: Mutex<Queue<T>>,
    cv: Condvar,
    /// Jobs in `queue`, kept beside it (written under its lock) so an idle
    /// worker can poll for work, and `stats()` can report the depth,
    /// without taking the lock.
    pending: AtomicUsize,
    /// Workers inside `cv.wait` (written under the queue lock): `submit`
    /// pays the futex wake-up only when this is non-zero.
    parked: AtomicUsize,
    shutdown: AtomicBool,
    stats: Stats,
    tenants: Mutex<BTreeMap<String, TenantState>>,
    /// The `now_ns` epoch for the admission controller's timestamps.
    epoch: Instant,
    /// One watchdog mailbox per live worker, index-aligned with the pool.
    slots: Mutex<Vec<Arc<WorkerSlot<T>>>>,
    /// Worker + watchdog thread handles; the watchdog appends respawns.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Monotone job numbers for the watchdog registrations.
    job_seq: AtomicU64,
    /// The configuration in effect on the thread that called
    /// [`Service::start`], kept for watchdog respawns so a replacement
    /// worker is indistinguishable from the original.
    ctx: Ctx,
}

impl<T: Scalar> Inner<T> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// The solve service. See the crate docs for the robustness contract;
/// see [`ServeConfig`] for the knobs. Start one with [`Service::start`],
/// feed it with [`Service::submit`], stop it with [`Service::shutdown`]
/// (also run by `Drop`).
pub struct Service<T: Scalar> {
    inner: Arc<Inner<T>>,
}

/// Counts a panic escaping the worker loop itself — by construction that
/// should be impossible (every job runs under `catch_unwind`), and the
/// chaos soak asserts the count stays zero.
struct PoisonSentinel<T: Scalar> {
    inner: Arc<Inner<T>>,
}

impl<T: Scalar> Drop for PoisonSentinel<T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.inner
                .stats
                .pool_poisonings
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<T: Scalar> Service<T> {
    /// Starts the worker pool (and, when configured, the watchdog
    /// monitor) and returns the running service.
    ///
    /// The configuration in effect on the *calling* thread
    /// ([`la_core::ctx::current`]: tuning and the three policies) is
    /// captured here and installed in every worker, so
    /// `abft::with_policy(Recover, || Service::start(cfg))` serves every
    /// job under `Recover`. The caller's cancel token and heartbeat are
    /// not: every job runs under its own.
    pub fn start(cfg: ServeConfig) -> Self {
        let workers = if cfg.workers > 0 {
            cfg.workers
        } else {
            tune::current().threads()
        }
        .max(1);
        let cfg = ServeConfig {
            queue_depth: cfg.queue_depth.max(1),
            max_attempts: cfg.max_attempts.max(1),
            ..cfg
        };
        let target_ns = cfg
            .target_delay
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        let admission = Controller::new(workers, cfg.queue_depth, target_ns);
        let watchdog = cfg.watchdog;
        let inner = Arc::new(Inner {
            cfg,
            workers,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                admission,
            }),
            cv: Condvar::new(),
            pending: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
            tenants: Mutex::new(BTreeMap::new()),
            epoch: Instant::now(),
            slots: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            job_seq: AtomicU64::new(1),
            ctx: ctx::current(),
        });
        {
            let mut slots = inner.slots.lock().unwrap_or_else(|e| e.into_inner());
            let mut threads = inner.threads.lock().unwrap_or_else(|e| e.into_inner());
            for i in 0..workers {
                let slot = WorkerSlot::new();
                slots.push(Arc::clone(&slot));
                threads.push(spawn_worker(&inner, i, slot));
            }
            if let Some(stall) = watchdog {
                threads.push(spawn_watchdog(&inner, stall));
            }
        }
        Service { inner }
    }

    /// Admits a job, or sheds it immediately — this never blocks on a
    /// full queue. On admission the returned [`JobHandle`] resolves
    /// exactly once, whatever happens to the job.
    ///
    /// The bound a submit is checked against is the configured
    /// [`ServeConfig::queue_depth`], or, with
    /// [`ServeConfig::target_delay`] set, the smaller effective bound
    /// adaptive admission derives from observed service times. A shed
    /// carries a `retry_after` estimate — see the
    /// [`Rejection::Overloaded`] retry contract (jitter is mandatory).
    pub fn submit(&self, spec: JobSpec<T>) -> Result<JobHandle<T>, Rejection> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(Rejection::ShuttingDown);
        }
        let deadline = spec
            .deadline
            .or_else(|| self.inner.cfg.default_deadline.map(|d| Instant::now() + d));
        let token = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let shared = Shared::new();
        let wake = {
            let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            // Re-check under the queue lock: shutdown() flips the flag
            // *before* taking this lock to drain, so a submit that
            // passed the unlocked check above cannot slip a job in
            // after the drain — it either lands in the drained queue or
            // sees the flag here. Without this, a job admitted in that
            // instant would sit in a dead queue forever, never resolved.
            if self.inner.shutdown.load(Ordering::Acquire) {
                return Err(Rejection::ShuttingDown);
            }
            let now_ns = self.inner.now_ns();
            let len = q.jobs.len();
            match q
                .admission
                .admit(spec.op.class(), spec.priority, len, now_ns)
            {
                Verdict::Admit => {}
                Verdict::Shed {
                    bound,
                    retry_after_ns,
                } => {
                    drop(q);
                    self.inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                    self.tenant_mut(&spec.tenant, |t| t.record_rejected(false));
                    return Err(Rejection::Overloaded {
                        depth: bound,
                        retry_after: Duration::from_nanos(retry_after_ns),
                    });
                }
            }
            q.jobs.push_back(Queued {
                spec,
                shared: Arc::clone(&shared),
                token: token.clone(),
                job_id: self.inner.job_seq.fetch_add(1, Ordering::Relaxed),
                enqueued_ns: now_ns,
            });
            self.inner.pending.store(q.jobs.len(), Ordering::Relaxed);
            handoff::job_admitted();
            // A polling worker sees `pending`; only a parked one needs the
            // wake-up (both counts are exact under this lock).
            self.inner.parked.load(Ordering::Relaxed) > 0
        };
        self.inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        if wake {
            self.inner.cv.notify_one();
        }
        Ok(JobHandle { shared, token })
    }

    /// Stops accepting work, drains still-queued jobs with
    /// [`Rejection::ShuttingDown`], lets in-flight jobs finish, and joins
    /// the workers (and watchdog). Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        let drained: Vec<Queued<T>> = {
            let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.inner.pending.store(0, Ordering::Relaxed);
            q.jobs.drain(..).collect()
        };
        // After the lock, not before it: a worker that read the flag as
        // unset did so under the queue lock and has let go of it only by
        // entering `cv.wait`, so this wake-up cannot fall between its check
        // and its wait. Polling workers read the flag themselves.
        self.inner.cv.notify_all();
        for job in drained {
            // Only the drain can resolve a still-queued job (workers
            // never saw it), so stats-before-fulfill is safe here too.
            self.inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
            self.tenant_mut(&job.spec.tenant, |t| t.record_rejected(false));
            handoff::job_finished();
            job.shared.fulfill(Err(Rejection::ShuttingDown));
        }
        // Joining may race a watchdog respawn appending to the list;
        // keep draining until it is empty (the watchdog itself exits on
        // the shutdown flag and is in this list too).
        loop {
            let handles: Vec<_> = {
                let mut h = self.inner.threads.lock().unwrap_or_else(|e| e.into_inner());
                h.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServeStats {
        let s = &self.inner.stats;
        ServeStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            deadline_missed: s.deadline_missed.load(Ordering::Relaxed),
            degraded: s.degraded.load(Ordering::Relaxed),
            panics_isolated: s.panics_isolated.load(Ordering::Relaxed),
            pool_poisonings: s.pool_poisonings.load(Ordering::Relaxed),
            stuck: s.stuck.load(Ordering::Relaxed),
            respawned: s.respawned.load(Ordering::Relaxed),
            queued: self.inner.pending.load(Ordering::Relaxed),
        }
    }

    /// Number of worker threads the pool resolved to.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Snapshot of one tenant's history, if the service has seen it.
    pub fn tenant_report(&self, tenant: &str) -> Option<TenantReport> {
        self.inner
            .tenants
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(tenant)
            .map(|t| t.report(tenant))
    }

    /// Snapshots for every tenant the service has seen, sorted by name.
    pub fn tenant_reports(&self) -> Vec<TenantReport> {
        self.inner
            .tenants
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, t)| t.report(name))
            .collect()
    }

    fn tenant_mut<R>(&self, tenant: &str, f: impl FnOnce(&mut TenantState) -> R) -> R {
        tenant_mut(&self.inner, tenant, f)
    }
}

fn tenant_mut<T: Scalar, R>(
    inner: &Inner<T>,
    tenant: &str,
    f: impl FnOnce(&mut TenantState) -> R,
) -> R {
    let mut map = inner.tenants.lock().unwrap_or_else(|e| e.into_inner());
    // Looked up by `&str`; the name is copied once, when it is first seen.
    if let Some(state) = map.get_mut(tenant) {
        return f(state);
    }
    f(map
        .entry(tenant.to_string())
        .or_insert_with(TenantState::new))
}

impl<T: Scalar> Drop for Service<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns worker `i` with the service's captured configuration installed
/// — used both at start and for watchdog respawns.
fn spawn_worker<T: Scalar>(
    inner: &Arc<Inner<T>>,
    i: usize,
    slot: Arc<WorkerSlot<T>>,
) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("la-serve-{i}"))
        .spawn(move || ctx::with(inner.ctx, || worker_loop(inner, slot)))
        .expect("la-serve: failed to spawn worker thread")
}

/// Spawns the watchdog monitor: samples the worker slots at a fraction
/// of the stall budget, escalating silent jobs (cancel → respawn).
fn spawn_watchdog<T: Scalar>(inner: &Arc<Inner<T>>, stall: Duration) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    let sample = (stall / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
    std::thread::Builder::new()
        .name("la-serve-watchdog".into())
        .spawn(move || {
            while !inner.shutdown.load(Ordering::Acquire) {
                std::thread::sleep(sample);
                let slots: Vec<Arc<WorkerSlot<T>>> = inner
                    .slots
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone();
                let events = patrol(&slots, stall, Instant::now());
                for ev in events {
                    inner.stats.respawned.fetch_add(1, Ordering::Relaxed);
                    if ev.resolved {
                        inner.stats.stuck.fetch_add(1, Ordering::Relaxed);
                        inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        tenant_mut(&inner, &ev.tenant, |t| t.record_stuck());
                    }
                    // Replace the written-off worker so the pool never
                    // shrinks; the abandoned thread exits on its own if
                    // its wedge ever breaks.
                    let fresh = WorkerSlot::new();
                    {
                        let mut slots = inner.slots.lock().unwrap_or_else(|e| e.into_inner());
                        if ev.slot < slots.len() {
                            slots[ev.slot] = Arc::clone(&fresh);
                        }
                    }
                    let handle = spawn_worker(&inner, ev.slot, fresh);
                    inner
                        .threads
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(handle);
                }
            }
        })
        .expect("la-serve: failed to spawn watchdog thread")
}

/// The next job for an idle worker, or `None` once the service is shutting
/// down and the queue is empty. The worker's last `served` job — its class
/// and service time — and the queue sojourn of the job it takes reach the
/// admission controller under this one lock acquisition: a sample lands
/// just after its answer was handed back. An empty queue is polled once
/// per idle period (through the pending count, off the lock, while a core
/// is spare — see [`crate::handoff`]) and then waited on.
fn next_job<T: Scalar>(inner: &Inner<T>, served: Option<(usize, u64)>) -> Option<Queued<T>> {
    let mut polled = false;
    let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((class, service_ns)) = served {
        q.admission.note_service(class, service_ns);
    }
    loop {
        if let Some(job) = q.jobs.pop_front() {
            inner.pending.store(q.jobs.len(), Ordering::Relaxed);
            let now_ns = inner.now_ns();
            q.admission
                .note_sojourn(now_ns.saturating_sub(job.enqueued_ns), now_ns);
            return Some(job);
        }
        if inner.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if !polled {
            polled = true;
            drop(q);
            handoff::poll(handoff::Side::Worker, || {
                inner.pending.load(Ordering::Relaxed) > 0 || inner.shutdown.load(Ordering::Relaxed)
            });
            q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            continue;
        }
        inner.parked.fetch_add(1, Ordering::Relaxed);
        q = inner.cv.wait(q).unwrap_or_else(|e| e.into_inner());
        inner.parked.fetch_sub(1, Ordering::Relaxed);
    }
}

fn worker_loop<T: Scalar>(inner: Arc<Inner<T>>, slot: Arc<WorkerSlot<T>>) {
    let _sentinel = PoisonSentinel {
        inner: Arc::clone(&inner),
    };
    // The factor copy and the residual vector, reused across this worker's
    // jobs and their ladder attempts.
    let mut scratch = Scratch::new();
    let mut served = None;
    loop {
        // A stage-2 escalation wrote this worker off (a replacement is
        // already running): exit without touching the queue.
        if slot.abandoned.load(Ordering::Acquire) {
            return;
        }
        match next_job(&inner, served.take()) {
            Some(job) => {
                served = process(&inner, &slot, job, &mut scratch);
                scratch.trim();
            }
            None => return,
        }
    }
}

/// Runs one job through the full robustness pipeline and fulfills its
/// handle. Never lets a panic escape: the outer `catch_unwind` is the
/// job boundary the crate docs promise. Returns a served job's class and
/// service time, the sample the admission bound is sized from.
fn process<T: Scalar>(
    inner: &Arc<Inner<T>>,
    slot: &Arc<WorkerSlot<T>>,
    job: Queued<T>,
    scratch: &mut Scratch<T>,
) -> Option<(usize, u64)> {
    let Queued {
        spec,
        shared,
        token,
        job_id,
        ..
    } = job;
    // A deadline that expired while the job sat in the queue (or an
    // explicit JobHandle::cancel) rejects before any work starts. Stats
    // land before the fulfillment so a waiter that sees the outcome also
    // sees them counted.
    if token.is_cancelled() {
        inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
        inner.stats.deadline_missed.fetch_add(1, Ordering::Relaxed);
        tenant_mut(inner, &spec.tenant, |t| t.record_rejected(false));
        handoff::job_finished();
        shared.fulfill(Err(Rejection::DeadlineExceeded));
        return None;
    }
    let workers = inner.workers;
    let cfg = &inner.cfg;
    // Register with the watchdog: the heartbeat is stamped at every
    // cancellation checkpoint the solve was polling anyway.
    let heartbeat = Heartbeat::new();
    slot.begin(
        job_id,
        heartbeat.clone(),
        token.clone(),
        Arc::clone(&shared),
        Arc::clone(&spec.tenant),
    );
    let started = Instant::now();
    // The job's ambient state: the worker's configuration, the job's own
    // token and heartbeat, and the nested-pool clamp so banded BLAS-3
    // inside the job divides the host by the worker count. ABFT faults
    // and probe counters are scoped to this job alone.
    let ambient = ctx::capture()
        .token(token.clone())
        .heartbeat(heartbeat.clone())
        .shared_by(workers);
    let ran = catch_unwind(AssertUnwindSafe(|| {
        ambient.enter(|| {
            probe::job_scope(|| {
                abft::job_scope(|| {
                    let _span = probe::span(Layer::Driver, "serve", 0, 0);
                    #[cfg(feature = "fault-inject")]
                    if spec.chaos_panic {
                        panic!("chaos: injected worker panic");
                    }
                    #[cfg(feature = "fault-inject")]
                    if let Some(kind) = spec.chaos_wedge {
                        crate::chaos::wedge(kind, &token, &slot.abandoned, &inner.shutdown);
                    }
                    ladder::run(spec.op, &spec.a, &spec.b, cfg, scratch)
                })
            })
        })
    }));
    // The solve is over and its core is free, whatever becomes of the
    // answer: said before the fulfilment, so the client's next submit
    // never counts this job beside its own.
    handoff::job_finished();
    // Withdraw the watchdog registration. `patrol` fulfills stage-2 jobs
    // under the slot lock, so this is also the fulfillment license: if
    // the registration is gone, the handle is already resolved `Stuck`
    // and the monitor owns the stats — this worker must touch neither
    // and just exit (it is abandoned). Otherwise this worker's
    // fulfillment is guaranteed to win, so stats may land first and a
    // waiter that sees the outcome also sees them counted.
    let escalated = match slot.finish(job_id) {
        watchdog::Finished::TakenByStage2 => return None,
        watchdog::Finished::Escalated(stalled_for) => Some(stalled_for),
        watchdog::Finished::Normal => None,
    };
    match ran {
        Err(_) => {
            // Job-boundary catch: the ladder's own per-attempt catch did
            // not see this one (chaos hook or pipeline machinery), so it
            // costs the job its whole budget at once.
            inner.stats.panics_isolated.fetch_add(1, Ordering::Relaxed);
            inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
            tenant_mut(inner, &spec.tenant, |t| t.record_rejected(true));
            shared.fulfill(Err(Rejection::Panicked { attempts: 1 }));
        }
        Ok((outcome, rows)) => {
            // The job's probe rows and its outcome reach the tenant's books
            // under one lock.
            let book = |outcome: &dyn Fn(&mut TenantState)| {
                tenant_mut(inner, &spec.tenant, |t| {
                    t.account(&rows);
                    outcome(t)
                })
            };
            match outcome {
                Ok(out) => {
                    let service_ns = started.elapsed().as_nanos() as u64;
                    inner.stats.completed.fetch_add(1, Ordering::Relaxed);
                    if out.degraded {
                        inner.stats.degraded.fetch_add(1, Ordering::Relaxed);
                    }
                    book(&|t| t.record_completed(out.degraded));
                    shared.fulfill(Ok(out));
                    return Some((spec.op.class(), service_ns));
                }
                Err(rej) => {
                    // An escalated job that honoured the stage-1 cancel
                    // comes back −103-shaped; type it as what it was.
                    let rej = match (rej, escalated) {
                        (Rejection::DeadlineExceeded, Some(stalled_for)) => {
                            Rejection::Stuck { stalled_for }
                        }
                        (r, _) => r,
                    };
                    inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    match &rej {
                        Rejection::Panicked { attempts } => {
                            // Each exhausted attempt was one isolated panic.
                            inner
                                .stats
                                .panics_isolated
                                .fetch_add(u64::from(*attempts), Ordering::Relaxed);
                            book(&|t| t.record_rejected(true));
                        }
                        Rejection::DeadlineExceeded => {
                            inner.stats.deadline_missed.fetch_add(1, Ordering::Relaxed);
                            book(&|t| t.record_rejected(false));
                        }
                        Rejection::Stuck { .. } => {
                            // Cooperative stage-1 outcome: the worker
                            // survived, so this is stuck-not-respawned.
                            inner.stats.stuck.fetch_add(1, Ordering::Relaxed);
                            book(&|t| t.record_stuck());
                        }
                        r => {
                            let faulty = matches!(
                                r,
                                Rejection::ResidualRejected { .. }
                                    | Rejection::Failed(la_core::LaError::SoftFault { .. })
                            );
                            book(&|t| t.record_rejected(faulty));
                        }
                    }
                    shared.fulfill(Err(rej));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveOp;
    use la_core::abft::AbftPolicy;
    use la_core::{mat, Mat, RealScalar};
    use std::time::Duration;

    fn spd(n: usize) -> (Mat<f64>, Mat<f64>) {
        let mut a = Mat::<f64>::zeros(n, n);
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for j in 0..n {
            for i in 0..=j {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let mut b = Mat::<f64>::zeros(n, 1);
        for i in 0..n {
            b[(i, 0)] = next();
        }
        (a, b)
    }

    /// [`spd`] in the working type `T`: for a complex `T` each
    /// off-diagonal pair takes the imaginary part `±v/2`, which keeps it
    /// Hermitian and diagonally dominant.
    fn spd_in<T: Scalar>(n: usize) -> (Mat<T>, Mat<T>) {
        let (a, b) = spd(n);
        let half = |v: f64| if T::IS_COMPLEX { v / 2.0 } else { 0.0 };
        let re_im = |re: f64, im: f64| T::from_re_im(T::Real::from_f64(re), T::Real::from_f64(im));
        let a = Mat::from_fn(n, n, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Less => re_im(a[(i, j)], half(a[(i, j)])),
            std::cmp::Ordering::Equal => re_im(a[(i, j)], 0.0),
            std::cmp::Ordering::Greater => re_im(a[(i, j)], -half(a[(i, j)])),
        });
        (a, Mat::from_fn(n, 1, |i, _| re_im(b[(i, 0)], 0.0)))
    }

    #[test]
    fn serves_all_three_ops_and_reports_stats() {
        serves_all_three_ops::<f64>();
        // The service asks only `T: Scalar`: single precision is served too.
        serves_all_three_ops::<f32>();
        serves_all_three_ops::<la_core::C32>();
    }

    fn serves_all_three_ops<T: Scalar>() {
        let svc: Service<T> = Service::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let (a, b) = spd_in::<T>(16);
        let handles: Vec<_> = [
            SolveOp::Gesv,
            SolveOp::Posv(la_core::Uplo::Upper),
            SolveOp::Posv(la_core::Uplo::Lower),
        ]
        .into_iter()
        .map(|op| {
            svc.submit(JobSpec::new(op, a.clone(), b.clone()).tenant("t1"))
                .unwrap()
        })
        .collect();
        let mut xs = Vec::new();
        for h in handles {
            let out = h.wait().unwrap();
            // The residual check accepted the first answer.
            assert_eq!((out.attempts, out.degraded), (1, false), "{}", T::PREFIX);
            let ratio = la_verify::solve_ratio(&a, &out.x, &b).to_f64();
            assert!(ratio < 30.0, "{}: solve ratio {ratio}", T::PREFIX);
            xs.push(out.x);
        }
        // All three ops solve the same SPD system: answers must agree.
        let tol = T::Real::EPS.to_f64() * 1e3;
        for x in &xs[1..] {
            for i in 0..16 {
                assert!(
                    (x[(i, 0)] - xs[0][(i, 0)]).abs().to_f64() < tol,
                    "{}",
                    T::PREFIX
                );
            }
        }
        let s = svc.stats();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.completed, 3);
        assert_eq!(s.pool_poisonings, 0);
        assert_eq!(s.stuck, 0);
        assert_eq!(s.respawned, 0);
        let rep = svc.tenant_report("t1").unwrap();
        assert_eq!(rep.completed, 3);
        assert_eq!(rep.fault_streak, 0);
        svc.shutdown();
        // Post-shutdown submissions are typed, not panics.
        let r = svc.submit(JobSpec::new(SolveOp::Gesv, a, b));
        assert!(matches!(r, Err(Rejection::ShuttingDown)));
    }

    #[test]
    fn workers_and_jobs_run_under_the_starting_threads_ctx() {
        // The la-serve row of la-core's hop test
        // (`ctx::tests::every_hop_carries_the_ambient_and_nothing_else`):
        // workers install the `Ctx` of the thread that started the
        // service, and a job enters it with the worker count as pool
        // share. No test code runs inside a worker, so the job's own span
        // tree is the witness: it exists (probe policy), carries the
        // sentinel block size (tune), the clamped thread budget (share)
        // and ABFT-tagged verification spans (abft), and a NaN job is
        // screened before it factors (fp_check).
        use la_core::probe::Span;
        use la_core::{FpCheckPolicy, ProbePolicy, TuneConfig};
        // A direct read, to check the cached host count against.
        #[allow(clippy::disallowed_methods)]
        let host = std::thread::available_parallelism().map_or(1, |p| p.get());
        let sentinel = Ctx {
            tune: TuneConfig {
                nb_getrf: 17,
                par_flops: 0,
                ..TuneConfig::defaults()
            },
            fp_check: FpCheckPolicy::Full,
            abft: AbftPolicy::Verify,
            probe: ProbePolicy::Spans,
        };
        // The jobs of this test that factored, told apart from any other
        // test's by a `getrf` block size no other test uses (48 > 2·17:
        // the blocked loop).
        let mine = || -> Vec<Span> {
            probe::snapshot()
                .spans
                .into_iter()
                .filter(|s| s.routine == "serve" && s.find("getrf").is_some_and(|d| d.nb == 17))
                .collect()
        };
        fn any(s: &Span, pred: &dyn Fn(&Span) -> bool) -> bool {
            pred(s) || s.children.iter().any(|c| any(c, pred))
        }
        // The starting thread's call-tree state stays behind: a parked
        // fault, the probe's `abft` tag and its job sink. A service takes
        // its configuration, not the call tree it was started from.
        abft::clear_pending();
        abft::raise("hop-test", 7);
        let n = 48;
        let (svc, starter) = ctx::with(sentinel, || {
            probe::with_abft(|| {
                probe::job_scope(|| {
                    let svc: Service<f64> = Service::start(ServeConfig {
                        workers: 2,
                        ..ServeConfig::default()
                    });
                    let (a, b) = spd(n);
                    svc.submit(JobSpec::new(SolveOp::Gesv, a, b).tenant("hop"))
                        .unwrap()
                        .wait()
                        .expect("the starting thread's parked fault must not reach the job");
                    svc
                })
            })
        });
        assert!(starter.is_empty(), "a job counted in the starter's sink");
        let spans = mine();
        assert_eq!(
            spans.len(),
            1,
            "probe policy and tune sentinel reached the worker"
        );
        assert_eq!(
            spans[0].threads,
            (host / 2).clamp(1, 8),
            "the job divides the host by the two workers"
        );
        assert!(
            any(&spans[0], &|s| s.abft),
            "ABFT policy reached the worker"
        );
        // The job's ABFT spans are its own verification sweeps; the job
        // itself and its factorization are untagged.
        assert!(
            !spans[0].abft && spans[0].find("getrf").is_some_and(|s| !s.abft),
            "the starter's abft tag reached the job"
        );
        // The job's own sink took the job's work, and only once.
        assert_eq!(
            svc.tenant_report("hop").map(|t| t.flops),
            Some(probe::flops::getrf(n, n) + probe::flops::getrs(n, 1))
        );
        // A poisoned job is rejected at the input screen, before getrf: a
        // worker ran it under the probe policy (its `serve` row took time)
        // and it factored nothing.
        let (mut poisoned, b) = spd(n);
        poisoned[(3, 5)] = f64::NAN;
        let rej = svc
            .submit(JobSpec::new(SolveOp::Gesv, poisoned, b).tenant("poisoned"))
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(
            matches!(rej, Rejection::Failed(la_core::LaError::NonFinite { argument, .. }) if argument > 0),
            "{rej:?}"
        );
        let t = svc
            .tenant_report("poisoned")
            .expect("the poisoned job's books");
        assert_eq!((t.completed, t.rejected), (0, 1));
        assert!(t.nanos > 0, "the poisoned job never ran on a worker");
        assert_eq!(t.flops, 0, "fp_check policy reached the worker");
        assert_eq!(mine().len(), 1, "the poisoned job factored");
        svc.shutdown();
        assert_eq!(abft::take_pending().map(|f| f.block), Some(7));
    }

    #[test]
    fn a_tenant_is_billed_each_unit_of_work_once() {
        // Under `Counters` a clean served gesv bills the closed forms of
        // its factorization and solve, and no more wall time than the
        // client waited; every layer's rows nest, so summing them all
        // counted the same work several times over.
        use la_core::ProbePolicy;
        let svc: Service<f64> = probe::with_policy(ProbePolicy::Counters, || {
            Service::start(ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            })
        });
        let n = 200;
        let (a, b) = spd(n);
        let started = Instant::now();
        svc.submit(JobSpec::new(SolveOp::Gesv, a, b).tenant("billed"))
            .unwrap()
            .wait()
            .unwrap();
        let wall = started.elapsed().as_nanos() as u64;
        let t = svc.tenant_report("billed").unwrap();
        assert_eq!(
            t.flops,
            probe::flops::getrf(n, n) + probe::flops::getrs(n, 1)
        );
        assert!(
            t.nanos > 0 && t.nanos <= wall,
            "billed {} ns for a {wall} ns round trip",
            t.nanos
        );
        svc.shutdown();
    }

    #[test]
    fn concurrent_jobs_that_fan_out_record_disjoint_trees() {
        // Two workers, each job's factorization a two-thread task graph
        // (four 32-column blocks from n = 128). Every span a graph worker
        // records lands in its own job's tree: run concurrently, each
        // tree holds exactly what the same job records alone.
        use la_core::probe::Span;
        use la_core::{ProbePolicy, TuneConfig};
        type Tally = BTreeMap<&'static str, (usize, u64)>;
        fn tally(s: &Span, t: &mut Tally) {
            let e = t.entry(s.routine).or_default();
            e.0 += 1;
            e.1 += s.flops;
            s.children.iter().for_each(|c| tally(c, t));
        }
        let sentinel = Ctx {
            tune: TuneConfig {
                max_threads: 2,
                oversubscribe: true,
                tile_nb: 32,
                // The sentinel this test's `getrf` spans carry. Like the
                // default, it leaves a 32-column graph panel unblocked.
                nb_getrf: 23,
                ..TuneConfig::defaults()
            },
            probe: ProbePolicy::Spans,
            ..Ctx::defaults()
        };
        let svc: Service<f64> = ctx::with(sentinel, || {
            Service::start(ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            })
        });
        // This test's jobs, keyed by order, in the order they finished.
        let mine = || -> Vec<(usize, Tally)> {
            let spans = probe::snapshot().spans;
            let mut trees = Vec::new();
            let ours = spans
                .iter()
                .filter(|s| s.find("getrf").is_some_and(|d| d.nb == 23));
            for s in ours {
                let dag = s.find("getrf_dag").expect("the job takes the graph");
                assert_eq!(dag.dag.map(|d| d.workers), Some(2));
                let n = [128, 160]
                    .into_iter()
                    .find(|&n| dag.flops == probe::flops::getrf(n, n))
                    .unwrap();
                let mut t = Tally::new();
                tally(s, &mut t);
                assert!(t.contains_key("lu_step"), "the graph's updates detached");
                trees.push((n, t));
            }
            trees
        };
        let submit = |n| {
            let (a, b) = spd(n);
            svc.submit(JobSpec::new(SolveOp::Gesv, a, b).tenant("graph"))
                .unwrap()
        };
        submit(128).wait().unwrap();
        submit(160).wait().unwrap();
        let alone = mine();
        assert_eq!(alone.len(), 2);
        let both = [submit(128), submit(160)];
        for h in both {
            h.wait().unwrap();
        }
        let trees = mine();
        assert_eq!(trees.len(), 4, "one tree per job, no worker span detached");
        for (n, t) in &trees[2..] {
            let solo = &alone.iter().find(|(m, _)| m == n).unwrap().1;
            assert_eq!(t, solo, "n = {n}: the concurrent tree is not the job's own");
        }
        // Billed once per job: the `getrf_dag` row restates `getrf`'s flops.
        let bill = |n| probe::flops::getrf(n, n) + probe::flops::getrs(n, 1);
        assert_eq!(
            svc.tenant_report("graph").map(|t| t.flops),
            Some(2 * (bill(128) + bill(160)))
        );
        svc.shutdown();
    }

    #[test]
    fn backpressure_sheds_typed_and_never_blocks() {
        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 1,
            queue_depth: 2,
            ..ServeConfig::default()
        });
        let (a, b) = spd(96); // slow enough to pile the queue up
        let mut accepted = Vec::new();
        let mut shed = 0u32;
        for _ in 0..32 {
            match svc.submit(JobSpec::new(SolveOp::Gesv, a.clone(), b.clone())) {
                Ok(h) => accepted.push(h),
                Err(Rejection::Overloaded { depth, retry_after }) => {
                    assert_eq!(depth, 2, "no target delay: the fixed depth governs");
                    assert!(
                        retry_after > Duration::ZERO,
                        "every shed carries a drain-time hint"
                    );
                    shed += 1;
                }
                Err(other) => panic!("unexpected rejection {other}"),
            }
        }
        assert!(shed > 0, "32 instant submits must overflow depth 2");
        for h in accepted {
            h.wait().unwrap(); // every admitted job still completes
        }
        let s = svc.stats();
        assert_eq!(u64::from(shed), s.shed);
        assert_eq!(s.submitted, s.completed);
    }

    #[test]
    fn adaptive_admission_shrinks_the_bound_and_hints_retry() {
        // A tiny target delay with a known service history forces the
        // Little's-law bound down to the worker count, far below the
        // configured depth — the fixed-depth service would admit a queue
        // whose drain time dwarfs any deadline.
        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 1,
            queue_depth: 64,
            target_delay: Some(Duration::from_nanos(1)),
            ..ServeConfig::default()
        });
        let (a, b) = spd(48);
        // Seed the service-time EWMA with one completion. The worker
        // notes it when it next takes the queue lock: once it is parked,
        // it has.
        svc.submit(JobSpec::new(SolveOp::Gesv, a.clone(), b.clone()))
            .unwrap()
            .wait()
            .unwrap();
        await_parked(&svc, 1);
        // Occupy the worker so the queue cannot drain under us.
        let (ba, bb) = spd(384);
        let blocker = svc.submit(JobSpec::new(SolveOp::Gesv, ba, bb)).unwrap();
        let mut shed = 0u32;
        let mut last_retry = Duration::ZERO;
        let mut admitted = Vec::new();
        for _ in 0..8 {
            match svc.submit(JobSpec::new(SolveOp::Gesv, a.clone(), b.clone())) {
                Ok(h) => admitted.push(h),
                Err(Rejection::Overloaded { depth, retry_after }) => {
                    assert!(
                        depth < 64,
                        "adaptive bound must undercut the configured depth, got {depth}"
                    );
                    assert!(retry_after > Duration::ZERO);
                    assert!(
                        retry_after >= last_retry || shed == 0,
                        "retry hint must not shrink while the queue holds"
                    );
                    last_retry = retry_after;
                    shed += 1;
                }
                Err(other) => panic!("unexpected rejection {other}"),
            }
        }
        assert!(shed > 0, "the shrunken bound must shed the burst");
        blocker.wait().unwrap();
        for h in admitted {
            h.wait().unwrap();
        }
        svc.shutdown();
    }

    #[test]
    fn more_workers_than_queue_slots_admit_adaptively_without_panicking() {
        // The Little's-law floor (one job per worker) exceeds the cap here;
        // the cap must win, or `submit` panics with the queue and
        // admission locks held.
        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 4,
            queue_depth: 2,
            target_delay: Some(Duration::from_millis(5)),
            ..ServeConfig::default()
        });
        let (a, b) = spd(24);
        // One completion gives the controller a service time to size from,
        // noted by the time its worker parks.
        svc.submit(JobSpec::new(SolveOp::Gesv, a.clone(), b.clone()))
            .unwrap()
            .wait()
            .unwrap();
        await_parked(&svc, 4);
        let mut admitted = Vec::new();
        for _ in 0..8 {
            match svc.submit(JobSpec::new(SolveOp::Gesv, a.clone(), b.clone())) {
                Ok(h) => admitted.push(h),
                Err(Rejection::Overloaded { depth, .. }) => {
                    assert!(depth <= 2, "the cap bounds the adaptive bound, got {depth}")
                }
                Err(other) => panic!("unexpected rejection {other}"),
            }
        }
        assert!(!admitted.is_empty());
        for h in admitted {
            h.wait().unwrap();
        }
        assert_eq!(svc.stats().pool_poisonings, 0);
        svc.shutdown();
    }

    #[test]
    fn the_longest_target_delay_admits_like_the_cap() {
        // `Duration::MAX` is past `u64::MAX` ns: the conversion and the
        // controller's products saturate, where they used to wrap or, in a
        // debug build, panic inside `submit`.
        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 1,
            target_delay: Some(Duration::MAX),
            ..ServeConfig::default()
        });
        let (a, b) = spd(24);
        for _ in 0..3 {
            svc.submit(JobSpec::new(SolveOp::Gesv, a.clone(), b.clone()))
                .expect("a job is admitted")
                .wait()
                .unwrap();
        }
        let s = svc.stats();
        assert_eq!((s.completed, s.shed), (3, 0));
        svc.shutdown();
    }

    #[test]
    fn deadlines_reject_queued_and_cancelled_jobs() {
        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (a, b) = spd(96);
        // Occupy the worker, then queue a job whose deadline is already
        // gone — it must be rejected when it reaches the front.
        let busy = svc
            .submit(JobSpec::new(SolveOp::Gesv, a.clone(), b.clone()))
            .unwrap();
        let doomed = svc
            .submit(
                JobSpec::new(SolveOp::Gesv, a.clone(), b.clone())
                    .deadline_at(Instant::now() - Duration::from_millis(1)),
            )
            .unwrap();
        assert_eq!(doomed.wait().unwrap_err(), Rejection::DeadlineExceeded);
        busy.wait().unwrap();
        // Explicit cancellation takes the same path.
        let blocker = svc
            .submit(JobSpec::new(SolveOp::Gesv, a.clone(), b.clone()))
            .unwrap();
        let h = svc.submit(JobSpec::new(SolveOp::Gesv, a, b)).unwrap();
        h.cancel();
        assert_eq!(h.wait().unwrap_err(), Rejection::DeadlineExceeded);
        blocker.wait().unwrap();
        assert!(svc.stats().deadline_missed >= 2);
        svc.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_with_typed_rejection() {
        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 1,
            queue_depth: 16,
            ..ServeConfig::default()
        });
        let (a, b) = spd(96);
        let handles: Vec<_> = (0..6)
            .map(|_| {
                svc.submit(JobSpec::new(SolveOp::Gesv, a.clone(), b.clone()))
                    .unwrap()
            })
            .collect();
        // Wait until the worker has picked up the first job, so "the
        // in-flight job finishes" is deterministic below.
        let t0 = Instant::now();
        while svc.stats().queued >= 6 {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "worker never started"
            );
            std::thread::yield_now();
        }
        svc.shutdown();
        let mut served = 0;
        let mut drained = 0;
        for h in handles {
            match h.wait() {
                Ok(_) => served += 1,
                Err(Rejection::ShuttingDown) => drained += 1,
                Err(other) => panic!("unexpected rejection {other}"),
            }
        }
        assert_eq!(served + drained, 6, "every handle resolves exactly once");
        assert!(served >= 1, "the in-flight job finishes");
    }

    #[test]
    fn shutdown_racing_submits_resolves_every_admitted_job() {
        // Regression for the admit/drain race: a submit that passed the
        // pre-lock shutdown check used to be able to push its job after
        // the drain, leaving a handle that never resolves. Hammer
        // submits from several threads while shutting down; every Ok
        // handle must resolve (ShuttingDown or served) within a bounded
        // wait.
        for round in 0..8 {
            let svc: Arc<Service<f64>> = Arc::new(Service::start(ServeConfig {
                workers: 2,
                queue_depth: 1024,
                ..ServeConfig::default()
            }));
            let (a, b) = spd(12);
            let barrier = Arc::new(std::sync::Barrier::new(4));
            let submitters: Vec<_> = (0..3)
                .map(|_| {
                    let svc = Arc::clone(&svc);
                    let (a, b) = (a.clone(), b.clone());
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        let mut handles = Vec::new();
                        for _ in 0..64 {
                            match svc.submit(JobSpec::new(SolveOp::Gesv, a.clone(), b.clone())) {
                                Ok(h) => handles.push(h),
                                Err(Rejection::ShuttingDown)
                                | Err(Rejection::Overloaded { .. }) => {}
                                Err(other) => panic!("unexpected rejection {other}"),
                            }
                        }
                        handles
                    })
                })
                .collect();
            barrier.wait();
            // Vary the race window a little per round.
            if round % 2 == 1 {
                std::thread::yield_now();
            }
            svc.shutdown();
            for t in submitters {
                for h in t.join().unwrap() {
                    match h.wait_for(Duration::from_secs(60)) {
                        Ok(Ok(_)) | Ok(Err(Rejection::ShuttingDown)) => {}
                        Ok(Err(other)) => panic!("unexpected rejection {other}"),
                        Err(_) => panic!(
                            "admitted job never resolved after shutdown \
                             (admit/drain race)"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn definitive_failures_come_back_typed() {
        let svc: Service<f64> = Service::start(ServeConfig::default());
        let a: Mat<f64> = mat![[1.0, 2.0], [2.0, 4.0]]; // singular
        let b = Mat::from_col_major(2, 1, vec![1.0, 0.0]);
        let h = svc.submit(JobSpec::new(SolveOp::Gesv, a, b)).unwrap();
        match h.wait() {
            Err(Rejection::Failed(la_core::LaError::Singular { .. })) => {}
            other => panic!("expected Failed(Singular), got {other:?}"),
        }
        svc.shutdown();
    }

    #[test]
    fn handle_works_as_a_future() {
        use std::future::Future;
        use std::sync::mpsc;
        use std::task::{Context, Poll, Wake, Waker};

        struct Notify(mpsc::Sender<()>);
        impl Wake for Notify {
            fn wake(self: Arc<Self>) {
                let _ = self.0.send(());
            }
        }

        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (a, b) = spd(48);
        let mut h = svc.submit(JobSpec::new(SolveOp::Gesv, a, b)).unwrap();
        let (tx, rx) = mpsc::channel();
        let waker = Waker::from(Arc::new(Notify(tx)));
        let mut cx = Context::from_waker(&waker);
        // Mini executor: poll, park on the channel until woken, repeat.
        let out = loop {
            match std::pin::Pin::new(&mut h).poll(&mut cx) {
                Poll::Ready(r) => break r,
                Poll::Pending => {
                    rx.recv_timeout(Duration::from_secs(30))
                        .expect("worker must wake the future");
                }
            }
        };
        out.expect("solve must succeed");
        svc.shutdown();
    }

    /// Blocks (bounded) until `n` of the service's workers sit in `cv.wait`.
    fn await_parked(svc: &Service<f64>, n: usize) {
        let t0 = Instant::now();
        while svc.inner.parked.load(Ordering::Relaxed) != n {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "workers never parked: an idle service must stop polling"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn an_idle_service_parks_its_workers_and_a_submit_wakes_one() {
        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        // The poll budget runs out with nothing to do: both workers end up
        // in `cv.wait`, burning no CPU.
        await_parked(&svc, 2);
        let (a, b) = spd(24);
        svc.submit(JobSpec::new(SolveOp::Gesv, a, b))
            .unwrap()
            .wait()
            .expect("a parked worker is woken by the submit");
        await_parked(&svc, 2);
        assert_eq!(svc.stats().queued, 0);
        svc.shutdown();
    }

    #[test]
    fn back_to_back_jobs_are_served_while_the_worker_polls() {
        // One client, closed loop: each submit lands inside the worker's
        // poll window whenever the host has a core to spare (and on a
        // one-core host, where nothing polls, on a parked worker).
        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (a, b) = spd(16);
        for _ in 0..200 {
            let out = svc
                .submit(JobSpec::new(
                    SolveOp::Posv(la_core::Uplo::Upper),
                    a.clone(),
                    b.clone(),
                ))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(out.attempts, 1);
        }
        let s = svc.stats();
        assert_eq!((s.submitted, s.completed, s.queued), (200, 200, 0));
        // Shutting down right after a job, while the worker may be polling,
        // must not wait for anything but the join.
        let t0 = Instant::now();
        svc.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "a polling worker reads the shutdown flag"
        );
    }

    #[test]
    fn without_a_spare_core_every_wait_parks_and_every_job_completes() {
        // The rule forced to "no": the worker and the waiter take the
        // condvar paths alone, as on a one-core host. (The switch is
        // process-wide; tests running beside this one merely park too.)
        crate::handoff::NEVER_SPARE.store(true, Ordering::Relaxed);
        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        await_parked(&svc, 1);
        // A long job keeps the worker busy, so the wait on the short one
        // behind it finds nothing and must park.
        let (ba, bb) = spd(384);
        let blocker = svc.submit(JobSpec::new(SolveOp::Gesv, ba, bb)).unwrap();
        let (a, b) = spd(16);
        let h = svc.submit(JobSpec::new(SolveOp::Gesv, a, b)).unwrap();
        let shared = Arc::clone(&h.shared);
        h.wait().unwrap();
        assert!(shared.parks.load(Ordering::Relaxed) >= 1);
        blocker.wait().unwrap();
        await_parked(&svc, 1);
        svc.shutdown();
        crate::handoff::NEVER_SPARE.store(false, Ordering::Relaxed);
    }

    #[test]
    fn a_tenant_name_is_copied_once_and_its_books_match_the_jobs() {
        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (a, b) = spd(12);
        for _ in 0..3 {
            svc.submit(JobSpec::new(SolveOp::Gesv, a.clone(), b.clone()).tenant("acme"))
                .unwrap()
                .wait()
                .unwrap();
        }
        let singular: Mat<f64> = mat![[1.0, 2.0], [2.0, 4.0]];
        let rhs = Mat::from_col_major(2, 1, vec![1.0, 0.0]);
        svc.submit(JobSpec::new(SolveOp::Gesv, singular, rhs).tenant("acme"))
            .unwrap()
            .wait()
            .unwrap_err();
        svc.submit(JobSpec::new(SolveOp::Gesv, a, b))
            .unwrap()
            .wait()
            .unwrap();
        let names: Vec<_> = svc.tenant_reports().into_iter().map(|r| r.tenant).collect();
        assert_eq!(names, ["acme", "default"]);
        let acme = svc.tenant_report("acme").unwrap();
        assert_eq!(
            (acme.completed, acme.rejected, acme.fault_streak),
            (3, 1, 0)
        );
        assert_eq!(svc.tenant_report("default").unwrap().completed, 1);
        svc.shutdown();
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn hard_wedge_is_stage_two_respawned_and_typed_stuck() {
        let stall = Duration::from_millis(40);
        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 1,
            watchdog: Some(stall),
            ..ServeConfig::default()
        });
        let (a, b) = spd(16);
        let h = svc
            .submit(
                JobSpec::new(SolveOp::Gesv, a.clone(), b.clone())
                    .chaos_wedge(crate::chaos::WedgeKind::Hard),
            )
            .unwrap();
        match h.wait() {
            Err(Rejection::Stuck { stalled_for }) => {
                assert!(stalled_for >= stall, "stage 2 needs ≥ 2 stall budgets");
            }
            other => panic!("expected Stuck, got {other:?}"),
        }
        // The written-off worker was replaced: the pool still serves.
        let h2 = svc.submit(JobSpec::new(SolveOp::Gesv, a, b)).unwrap();
        h2.wait().expect("respawned worker must serve");
        let s = svc.stats();
        assert!(s.stuck >= 1);
        assert!(s.respawned >= 1, "hard wedge costs the worker");
        assert_eq!(s.pool_poisonings, 0);
        let rep = svc.tenant_report("default").unwrap();
        assert!(rep.stuck >= 1);
        svc.shutdown();
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn cooperative_wedge_is_stage_one_cancelled_and_typed_stuck() {
        let stall = Duration::from_millis(40);
        let svc: Service<f64> = Service::start(ServeConfig {
            workers: 1,
            watchdog: Some(stall),
            ..ServeConfig::default()
        });
        let (a, b) = spd(16);
        let h = svc
            .submit(
                JobSpec::new(SolveOp::Gesv, a.clone(), b.clone())
                    .chaos_wedge(crate::chaos::WedgeKind::Cooperative),
            )
            .unwrap();
        match h.wait() {
            Err(Rejection::Stuck { .. }) => {}
            other => panic!("expected Stuck, got {other:?}"),
        }
        let s = svc.stats();
        assert!(s.stuck >= 1);
        assert_eq!(
            s.respawned, 0,
            "a wedge that honours stage-1 cancel keeps its worker"
        );
        assert_eq!(s.pool_poisonings, 0);
        svc.shutdown();
    }
}
