//! # la-serve — a fault-isolated solve service over the `la90` drivers
//!
//! The ROADMAP's north star is linear-algebra traffic served to many
//! concurrent callers; what turns the library underneath into a *service*
//! is robustness, not speed. This crate is the serving layer: a bounded
//! job queue (request → admit → solve → respond) drained by a pool of
//! worker threads that call the `la90` drivers, converting the
//! substrate's typed failure taxonomy (Demmel et al., arXiv:2207.09281:
//! `INFO` −100…−104) into retries, fallbacks and graceful degradation.
//!
//! The robustness contract, per job:
//!
//! * **Admission control / backpressure** — the queue is bounded
//!   ([`ServeConfig::queue_depth`]); a submit against a full queue is shed
//!   immediately with a typed [`Rejection::Overloaded`], never blocked.
//!   With a [`ServeConfig::target_delay`] set the bound turns *adaptive*:
//!   per-class service-time EWMAs size the effective bound from Little's
//!   law, a CoDel-style minimum-sojourn window tells sustained overload
//!   from absorbable bursts and halves the sub-`High` bounds during the
//!   former, sheds carry a computed
//!   `retry_after` hint, and [`Priority`]-weighted shedding degrades
//!   paying traffic last. The controller shares the queue's lock: a job's
//!   admission, its sojourn and its service time take no lock of their
//!   own.
//! * **Stuck-job watchdog** — with [`ServeConfig::watchdog`] set, a
//!   monitor samples per-worker heartbeats (stamped for free at the
//!   cancellation checkpoints the factorizations already poll) and walks
//!   a wedged job through cooperative cancel (`−103`) and, if ignored,
//!   worker write-off + respawn, resolving the job as a typed
//!   [`Rejection::Stuck`] — siblings never notice.
//! * **Deadlines** — each job carries an optional absolute deadline; an
//!   expired job is rejected before it starts, and an in-flight
//!   factorization abandons at its next panel checkpoint via
//!   [`la_core::cancel`] (`INFO = -103` → [`Rejection::DeadlineExceeded`]).
//! * **Panic isolation** — a worker panic is caught at the job boundary:
//!   it fails (or retries) *that job* and never poisons the pool. A
//!   sentinel counts any panic that would escape a worker thread;
//!   the chaos soak asserts the count stays zero.
//! * **Retry with degradation** — one rule: a detected soft fault
//!   (`−102`), a panic or a wrong answer re-runs the solve under the job's
//!   own policy, up to [`ServeConfig::max_attempts`]. A non-finite answer
//!   is attributed by screening the job's own `A`, then `B`, and rejected
//!   as la90's [`la_core::except`] screen would reject it
//!   (`NonFinite`, `−101`, naming the argument) without a second
//!   factorization. Consecutive faulty jobs are counted per tenant
//!   ([`TenantReport::fault_streak`]).
//! * **Answer verification** — completed solves are residual-checked
//!   before they are returned: per column,
//!   `‖b_j − A·x_j‖∞ ≤ 64·n·ε·(n·max|A|·‖x_j‖∞ + ‖b_j‖∞)`. The residual is
//!   [`la_lapack::residual_working`]: Level-2 per column up to two
//!   right-hand sides,
//!   Level-3 above, the stored triangle only for the Cholesky op — written
//!   into the worker's scratch vector, and the norms are
//!   [`la_lapack::max_abs1`], whose NaN sticks wherever it sits. A failing
//!   answer is re-run under the job's own policy and, if still wrong,
//!   rejected rather than served.
//! * **Per-worker workspace** — the factor copy each ladder attempt
//!   overwrites and the residual vector live in a scratch owned by the
//!   worker loop and refilled from the job's pristine `A` per attempt; a
//!   job allocates the `x` it returns, its completion slot, token and
//!   heartbeat, and what the driver allocates (pivots, panel workspace).
//!   Capacity above 1 MiB is released after the job that needed it.
//! * **A hand-off that does not park when the peer is about to act** — an
//!   idle worker polls the pending-job count, and [`JobHandle::wait`] the
//!   job's completion flag, for up to 100 µs (one constant, about two
//!   thread wake-ups: ≈ 9 µs to send and 18–33 µs to take effect, each, on
//!   the 2-vCPU guest of EXPERIMENTS.md) before parking on a condvar, and the senders issue the futex wake-up
//!   only when a thread is actually parked. A thread polls only on a core
//!   nobody needs — jobs in flight + threads already polling + itself (+
//!   the client an idle worker waits for) ≤ host cores, and not within 64
//!   waits of the host having been full — yielding every microsecond or
//!   two; so one-core hosts and services with more clients than cores park
//!   exactly as before. [`JobHandle::wait_for`] and the `Future` impl
//!   never poll.
//! * **Per-job state scoping** — every job runs inside
//!   [`la_core::abft::job_scope`] and [`la_core::probe::job_scope`], so a
//!   fault or counter from an abandoned job can never leak into a
//!   sibling. The job's counters include the calls its task-graph and
//!   band workers make, and a tenant is billed each unit of work once:
//!   the closed-form flops of the job's LAPACK-layer calls and the wall
//!   time of its `serve` span (the rows of the other layers restate them).
//! * **One ambient context** — workers run under the configuration
//!   ([`la_core::ctx::Ctx`]) of the thread that started the service, and
//!   each job enters one [`la_core::ctx::Ambient`]: that configuration,
//!   the job's own cancel token and heartbeat, and the worker count as
//!   pool share, so banded BLAS-3 inside a job divides the host cores by
//!   the worker count — and carries all of it into its band workers.
//!
//! Completion is exposed as a [`JobHandle`] that is both a blocking
//! future ([`JobHandle::wait`]) and a [`std::future::Future`], so the
//! service drops into async executors without carrying one.
//!
//! ```
//! use la_core::{mat, Mat};
//! use la_serve::{JobSpec, ServeConfig, Service, SolveOp};
//!
//! let service: Service<f64> = Service::start(ServeConfig::default());
//! let a: Mat<f64> = mat![[4.0, 1.0], [1.0, 3.0]];
//! let b = Mat::from_col_major(2, 1, vec![9.0, 5.0]);
//! let handle = service.submit(JobSpec::new(SolveOp::Gesv, a, b)).unwrap();
//! let out = handle.wait().unwrap();
//! assert!((out.x[(0, 0)] - 2.0).abs() < 1e-10);
//! assert!((out.x[(1, 0)] - 1.0).abs() < 1e-10);
//! service.shutdown();
//! ```

#![warn(missing_docs)]

mod admission;
mod handle;
mod handoff;
mod ladder;
mod service;
mod tenant;
mod watchdog;

#[cfg(feature = "fault-inject")]
pub mod chaos;

pub use handle::JobHandle;
pub use service::{ServeStats, Service};
pub use tenant::TenantReport;

use la_core::{LaError, Mat, Scalar, Uplo};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Which driver a job runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SolveOp {
    /// General `A·X = B` by LU with partial pivoting (`LA_GESV`).
    Gesv,
    /// Symmetric/Hermitian positive-definite `A·X = B` by Cholesky
    /// (`LA_POSV`), reading the given triangle.
    Posv(Uplo),
}

impl SolveOp {
    /// Lowercase name used in stats and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SolveOp::Gesv => "gesv",
            SolveOp::Posv(_) => "posv",
        }
    }

    /// The admission-control service class (per-class EWMA index).
    pub(crate) fn class(self) -> usize {
        match self {
            SolveOp::Gesv => 0,
            SolveOp::Posv(_) => 1,
        }
    }
}

/// Scheduling priority of a job: who is shed first under load.
///
/// Under adaptive admission, `Low` jobs see half the effective queue
/// bound and `Normal` three quarters of it (halved again during a
/// sustained-overload window), so `High` traffic is the last to be shed.
/// Every admitted job is served at the same quality, whatever its
/// priority.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Best-effort traffic: shed first.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Paying/interactive traffic: shed last.
    High,
}

impl Priority {
    /// Lowercase name used in stats and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// One solve request: the operation, the owned problem data, and the
/// serving metadata (tenant, deadline). Build with [`JobSpec::new`] and
/// the chained setters.
#[derive(Debug)]
pub struct JobSpec<T: Scalar> {
    pub(crate) op: SolveOp,
    pub(crate) a: Mat<T>,
    pub(crate) b: Mat<T>,
    pub(crate) tenant: Arc<str>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) priority: Priority,
    /// Chaos hook: the job panics inside the worker (after admission,
    /// before the solve) — exercising panic isolation end-to-end.
    #[cfg(feature = "fault-inject")]
    pub(crate) chaos_panic: bool,
    /// Chaos hook: the job wedges inside the worker instead of solving,
    /// exercising the watchdog escalation end-to-end.
    #[cfg(feature = "fault-inject")]
    pub(crate) chaos_wedge: Option<chaos::WedgeKind>,
}

/// The name jobs run under until [`JobSpec::tenant`] says otherwise: one
/// shared allocation for the life of the process.
fn default_tenant() -> Arc<str> {
    static DEFAULT: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(DEFAULT.get_or_init(|| Arc::from("default")))
}

impl<T: Scalar> JobSpec<T> {
    /// A request to solve `a·X = b` with `op`, for the default tenant,
    /// with no deadline of its own (the service default applies).
    pub fn new(op: SolveOp, a: Mat<T>, b: Mat<T>) -> Self {
        JobSpec {
            op,
            a,
            b,
            tenant: default_tenant(),
            deadline: None,
            priority: Priority::Normal,
            #[cfg(feature = "fault-inject")]
            chaos_panic: false,
            #[cfg(feature = "fault-inject")]
            chaos_wedge: None,
        }
    }

    /// Sets the scheduling priority (default [`Priority::Normal`]):
    /// who is shed first under load.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Attributes the job to `tenant` (fault streak + probe counters).
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into().into();
        self
    }

    /// Sets an absolute deadline; the job is cancelled at its next panel
    /// checkpoint once it passes.
    pub fn deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `budget` from now.
    pub fn deadline_in(self, budget: Duration) -> Self {
        self.deadline_at(Instant::now() + budget)
    }

    /// The coefficient matrix as it will be submitted — load generators
    /// use this to keep an independent copy for answer verification
    /// (chaos events may mutate the data after [`JobSpec::new`]).
    pub fn matrix(&self) -> &Mat<T> {
        &self.a
    }

    /// The right-hand side as it will be submitted.
    pub fn rhs(&self) -> &Mat<T> {
        &self.b
    }

    /// Arms the chaos panic: the worker processing this job panics before
    /// the solve, exercising panic isolation. `fault-inject` builds only.
    #[cfg(feature = "fault-inject")]
    pub fn chaos_panic(mut self) -> Self {
        self.chaos_panic = true;
        self
    }

    /// Arms the chaos wedge: the worker processing this job stalls
    /// instead of solving, exercising the stuck-job watchdog.
    /// `fault-inject` builds only.
    #[cfg(feature = "fault-inject")]
    pub fn chaos_wedge(mut self, kind: chaos::WedgeKind) -> Self {
        self.chaos_wedge = Some(kind);
        self
    }
}

/// A completed solve.
#[derive(Debug)]
pub struct SolveOutput<T: Scalar> {
    /// The solution `X` (`n × nrhs`).
    pub x: Mat<T>,
    /// Ladder attempts consumed (1 = clean first try).
    pub attempts: u32,
    /// `true` when the answer needed the degradation ladder (a re-run
    /// after a soft fault, a panic or a wrong answer) — the serving analog
    /// of a corrected error.
    pub degraded: bool,
}

/// Why the service did not return an answer — every rejection is typed so
/// callers can distinguish load shedding from data problems from faults.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// The queue bound in force was met at submit time; the job was shed
    /// without blocking.
    ///
    /// **Retry contract:** `retry_after` is the service's estimate of
    /// when the backlog ahead of a resubmit will have drained (from the
    /// per-class service-time EWMA and the queue length). Callers MUST
    /// add their own jitter before resubmitting — a fleet of clients
    /// sleeping exactly `retry_after` arrives back as one synchronized
    /// thundering herd and re-creates the overload it measured. Treat it
    /// as a lower bound: `sleep(retry_after + rand(0..retry_after))` is
    /// the intended shape.
    Overloaded {
        /// The queue bound that was hit — the configured depth, or the
        /// smaller effective bound adaptive admission computed from
        /// observed service times.
        depth: usize,
        /// Estimated backlog drain time; see the retry contract above.
        retry_after: Duration,
    },
    /// The job's deadline passed — before it started, or observed by an
    /// in-flight factorization at a cancellation checkpoint.
    DeadlineExceeded,
    /// The solve failed with a definitive typed error (singular matrix,
    /// non-finite input, illegal dimensions, allocation failure …);
    /// retrying cannot help, the ladder has already done what it could.
    Failed(LaError),
    /// The job panicked on every attempt the ladder was willing to make;
    /// the panics were isolated to this job.
    Panicked {
        /// Attempts consumed before giving up.
        attempts: u32,
    },
    /// The computed answer failed the residual check on every attempt —
    /// the service refuses to serve a wrong answer.
    ResidualRejected {
        /// Attempts consumed before giving up.
        attempts: u32,
    },
    /// The worker running the job stopped making progress (no heartbeat
    /// across the watchdog interval) and did not respond to cooperative
    /// cancellation; the watchdog resolved the job and respawned the
    /// worker. Sibling jobs were unaffected.
    Stuck {
        /// How long the job's heartbeat had been silent when the
        /// watchdog gave up on it.
        stalled_for: Duration,
    },
    /// The service is shutting down; queued jobs are drained with this
    /// rejection instead of silently dropped.
    ShuttingDown,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Overloaded { depth, retry_after } => {
                write!(
                    f,
                    "queue full (bound {depth}); job shed, retry after {:.1}ms plus jitter",
                    retry_after.as_secs_f64() * 1e3
                )
            }
            Rejection::DeadlineExceeded => write!(f, "deadline exceeded"),
            Rejection::Failed(e) => write!(f, "solve failed: {e}"),
            Rejection::Panicked { attempts } => {
                write!(f, "job panicked on all {attempts} attempt(s); isolated")
            }
            Rejection::ResidualRejected { attempts } => write!(
                f,
                "answer failed residual verification on all {attempts} attempt(s)"
            ),
            Rejection::Stuck { stalled_for } => write!(
                f,
                "worker wedged for {:.0}ms with no heartbeat; job abandoned, worker respawned",
                stalled_for.as_secs_f64() * 1e3
            ),
            Rejection::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for Rejection {}

/// Service configuration: pool size, queue bound, deadline and ladder
/// knobs. Plain data; start with [`ServeConfig::default`] and edit
/// fields.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads. `0` resolves to the [`la_core::tune`] thread
    /// budget at start time.
    pub workers: usize,
    /// Queue bound; a submit when this many jobs are already queued is
    /// rejected [`Rejection::Overloaded`]. Must be ≥ 1.
    pub queue_depth: usize,
    /// Deadline applied to jobs that don't carry their own. `None`: no
    /// default deadline.
    pub default_deadline: Option<Duration>,
    /// Maximum solve attempts per job across the degradation ladder
    /// (≥ 1; the first attempt counts).
    pub max_attempts: u32,
    /// Verify every completed solve's residual before returning it.
    pub verify_residual: bool,
    /// Target queueing delay for adaptive admission control. When set,
    /// the effective queue bound is sized from per-class service-time
    /// EWMAs so an admitted job expects to start within this budget
    /// ([`queue_depth`](ServeConfig::queue_depth) stays the hard cap),
    /// and a sliding sojourn window tightens the bounds of sub-`High`
    /// [`Priority`] traffic while overload is sustained. `None`: classic
    /// fixed-depth admission (the default).
    pub target_delay: Option<Duration>,
    /// Stuck-job watchdog: a worker whose heartbeat stalls this long
    /// while holding one job is escalated — cooperative cancel first,
    /// then the job is resolved [`Rejection::Stuck`] and the worker
    /// respawned. `None`: watchdog off (the default).
    pub watchdog: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_depth: 64,
            default_deadline: None,
            max_attempts: 3,
            verify_residual: true,
            target_delay: None,
            watchdog: None,
        }
    }
}
