//! Observability subsystem — per-routine counters, flop accounting and
//! hierarchical span tracing for the whole substrate.
//!
//! The LAPACK90 interface hides everything below the driver call:
//! workspace, blocking, threading. That opacity is exactly what the
//! Linear Algebra Mapping Problem literature (arXiv:1911.09421) documents
//! as a usability hazard, and what tracing wrappers like LAW
//! (arXiv:0710.4896) bolt on from the outside. This module builds the
//! visibility in: every instrumented routine — the banded BLAS-3 leaves,
//! the blocked factorizations, the `la90` drivers — reports what it
//! actually executed, with the thread count it ran on and, for a blocked
//! factorization, the block size it resolved.
//!
//! Three policy levels, mirroring the `LA_FP_CHECK` pattern of
//! [`crate::except`]:
//!
//! * [`ProbePolicy::Off`] (default) — one ambient-context read per
//!   instrumented call; no clocks, no locks, no allocation.
//! * [`ProbePolicy::Counters`] — per-routine totals: calls, closed-form
//!   flops (see [`flops`]), bytes touched, wall nanoseconds (monotonic
//!   [`std::time::Instant`]), aggregated process-wide across threads.
//! * [`ProbePolicy::Spans`] — counters plus a hierarchical span tree:
//!   a `gesv` driver call records its `getrf` child and that child's
//!   `lu_step`/`gemm`/`trsm` leaves, each span carrying the thread count
//!   it used (and `getrf` its NB).
//!
//! The policy is one field of the ambient context
//! ([`crate::ctx::Ctx::probe`]): set it with the `LA_PROFILE` environment
//! variable (`off|counters|spans`), process-wide with
//! [`crate::ctx::update`], or per call tree with [`with_policy`]. The rest
//! of the probe's call-tree state rides the same ctx frame and crosses
//! [`crate::ctx::fan_out`] with it: the `abft` tag, the job's
//! counter sink ([`job_scope`]), and a graft point that moves a worker's
//! top-level spans under the span open at the fork, so a parallel call
//! still records one tree. Only the open spans stay with their thread.
//! Read results with [`snapshot`], which returns a [`Report`] convertible
//! to a plain-text table ([`Report::to_table`]) or JSON
//! ([`Report::to_json`], emitted through [`crate::json`]: flat counter
//! rows plus a recursive span forest).
//!
//! ```
//! use la_core::probe::{self, ProbePolicy};
//! probe::reset();
//! let r = probe::with_policy(ProbePolicy::Counters, || {
//!     let _g = probe::span(probe::Layer::Blas, "gemm", probe::flops::gemm(4, 4, 4), 0);
//!     42
//! });
//! assert_eq!(r, 42);
//! let report = probe::snapshot();
//! assert_eq!(report.counters[0].routine, "gemm");
//! assert_eq!(report.counters[0].flops, 128);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::ctx::{self, Ctx};
use crate::json::JsonBuf;

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// How much the probe layer records (see the module docs).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProbePolicy {
    /// No instrumentation (default): one ambient-context read per call.
    #[default]
    Off,
    /// Per-routine counters (calls, flops, bytes, wall time).
    Counters,
    /// Counters plus the hierarchical span tree.
    Spans,
}

impl ProbePolicy {
    /// Parses an `LA_PROFILE` value. Accepted (case-insensitive):
    /// `off`/`none`/`0` → `Off`; `counters`/`count`/`1` → `Counters`;
    /// `spans`/`span`/`trace`/`2` → `Spans`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(ProbePolicy::Off),
            "counters" | "count" | "1" => Some(ProbePolicy::Counters),
            "spans" | "span" | "trace" | "2" => Some(ProbePolicy::Spans),
            _ => None,
        }
    }
}

/// The policy in effect on this thread: the innermost scope's if one is
/// open, the process-global policy otherwise.
pub fn policy() -> ProbePolicy {
    ctx::peek(|f| f.ctx.probe)
}

/// Runs `f` with `p` in effect on the current thread and on every worker
/// the call tree fans out to, restoring the previous state afterwards
/// (also on panic). Nested calls stack.
pub fn with_policy<R>(p: ProbePolicy, f: impl FnOnce() -> R) -> R {
    ctx::scoped(|frame| frame.ctx.probe = p, f)
}

// ---------------------------------------------------------------------------
// Layers, counters, spans
// ---------------------------------------------------------------------------

/// Which layer of the stack an instrumented routine belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Level-3 BLAS leaves (`gemm`, `trsm`, …).
    Blas,
    /// Blocked factorizations and solvers (`getrf`, `potrf`, …).
    Lapack,
    /// `la90` drivers (`LA_GESV`, `LA_SYEV`, …).
    Driver,
}

impl Layer {
    /// Lowercase name used in tables and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Blas => "blas",
            Layer::Lapack => "lapack",
            Layer::Driver => "driver",
        }
    }
}

/// Aggregated totals for one routine (one row of [`Report::counters`]).
/// ABFT bookkeeping (inside [`with_abft`]) aggregates into its own row.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CounterRow {
    /// Stack layer of the routine.
    pub layer: Layer,
    /// Routine name (`"gemm"`, `"getrf"`, `"LA_GESV"`, …).
    pub routine: &'static str,
    /// Whether the calls ran inside ABFT bookkeeping (see [`with_abft`]):
    /// checksum verification or fault recovery, as opposed to the
    /// protected computation itself.
    pub abft: bool,
    /// Number of calls recorded.
    pub calls: u64,
    /// Closed-form flops (see [`flops`]), summed over calls.
    pub flops: u64,
    /// Estimated bytes touched (operands read + output read/written).
    pub bytes: u64,
    /// Wall time in nanoseconds, summed over calls (inclusive of
    /// instrumented children — this is a call tree, not exclusive time).
    pub nanos: u64,
}

/// One node of the span tree (policy [`ProbePolicy::Spans`]).
#[derive(Clone, Debug)]
pub struct Span {
    /// Stack layer of the routine.
    pub layer: Layer,
    /// Routine name.
    pub routine: &'static str,
    /// Whether the call ran inside ABFT bookkeeping (opened inside
    /// [`with_abft`]): checksum verification sweeps and fault-recovery
    /// reruns carry the tag, so span trees separate the fault-tolerance
    /// overhead from the protected computation.
    pub abft: bool,
    /// Block size the routine resolved and reported via [`note_nb`] (the
    /// blocked factorizations do); `0` for a routine that reports none.
    pub nb: usize,
    /// Thread count: the [`crate::tune`] budget at entry, overwritten with the
    /// *actual* worker count via [`note_parallelism`] by the parallel
    /// BLAS-3 decision points.
    pub threads: usize,
    /// Microkernel the packed BLAS-3 path actually ran for this call,
    /// recorded via [`note_kernel`] after the [`crate::tune`] kernel choice is
    /// resolved (`"simd"`, `"unrolled"`, `"scalar"`, or `"small"` for the
    /// unpacked small-product path). Empty for routines with no
    /// microkernel decision.
    pub kernel: &'static str,
    /// Closed-form flops for this call.
    pub flops: u64,
    /// Estimated bytes touched by this call.
    pub bytes: u64,
    /// Wall nanoseconds, inclusive of children.
    pub nanos: u64,
    /// Task-graph shape, when the call executed a [`crate::dag`] graph
    /// (recorded via [`note_dag`]); `None` for every other routine.
    pub dag: Option<DagShape>,
    /// Instrumented calls made by this call, in execution order.
    pub children: Vec<Span>,
}

/// Shape of a task graph executed under a span, recorded by the
/// [`crate::dag`] runtime via [`note_dag`]: how the tiled factorization
/// decomposed into tasks and how well the worker pool was kept busy.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct DagShape {
    /// Tasks in the graph.
    pub tasks: u64,
    /// Dependency edges the builder inferred.
    pub edges: u64,
    /// Longest dependency chain, in tasks.
    pub critical_path: u64,
    /// Workers the scheduler ran.
    pub workers: u64,
    /// Busy fraction of the pool: `Σ task time / (workers · wall)`.
    pub occupancy: f64,
}

impl Span {
    /// Depth-first search for the first descendant (or self) named
    /// `routine`.
    pub fn find(&self, routine: &str) -> Option<&Span> {
        if self.routine == routine {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(routine))
    }
}

/// A frame of the thread-local active-span stack. Frames are pushed by
/// [`span`] and popped by the returned guard's `Drop`, so the stack
/// discipline follows scopes exactly, panics included.
struct Frame {
    layer: Layer,
    routine: &'static str,
    abft: bool,
    nb: usize,
    threads: usize,
    kernel: &'static str,
    flops: u64,
    bytes: u64,
    start: Instant,
    dag: Option<DagShape>,
    /// Whether the span tree is being built (policy was `Spans` at entry).
    tree: bool,
    children: Vec<Span>,
}

thread_local! {
    /// The open spans of this thread. The only probe state that stays with
    /// one thread: everything else that follows a call tree rides the ctx
    /// frame ([`Scope`]).
    static ACTIVE: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Finished spans waiting for a parent: the process's roots, or a fork's
/// graft point.
type SpanList = Mutex<Vec<Span>>;

/// The probe's share of a ctx frame: what follows a call tree, across
/// [`ctx::fan_out`] too. Edited only through [`with_abft`],
/// [`job_scope`] and the fork's graft point.
#[derive(Clone, Debug)]
pub(crate) struct Scope {
    /// Spans opened here are ABFT bookkeeping ([`with_abft`]).
    abft: bool,
    /// The innermost job's counter table ([`job_scope`]).
    sink: Option<Arc<Sink>>,
    /// Set on a fork's workers under [`ProbePolicy::Spans`]: where they
    /// put the spans they close with no open parent of their own, for the
    /// forking thread to move under its open span.
    graft: Option<Arc<SpanList>>,
}

impl Scope {
    /// No tag, no job, no fork.
    pub(crate) const NONE: Scope = Scope {
        abft: false,
        sink: None,
        graft: None,
    };
}

/// Under [`ProbePolicy::Spans`], gives a fork's workers (`scope`, the frame
/// they enter) a graft point of their own and returns it for [`join`];
/// nothing is allocated under the other policies.
pub(crate) fn fork(scope: &mut Scope, policy: ProbePolicy) -> Option<Arc<SpanList>> {
    scope.graft = (policy == ProbePolicy::Spans).then(Arc::default);
    scope.graft.clone()
}

/// Once a fork's workers have joined: moves their top-level spans under
/// the span open on this thread, as if they had closed here.
pub(crate) fn join(graft: Option<Arc<SpanList>>) {
    for span in graft.map_or_else(Vec::new, |g| std::mem::take(&mut *lock(&g))) {
        attach(span);
    }
}

/// Runs `f` with every span opened in it tagged as *ABFT bookkeeping*
/// ([`Span::abft`] / [`CounterRow::abft`]), on this thread and on every
/// worker it fans out to. The checksum verifiers and the fault-recovery
/// reruns of [`crate::abft`] wrap themselves in this scope, so reports
/// separate the fault-tolerance overhead (and any recovery recomputation)
/// from the protected computation itself. Nests; restores on panic.
pub fn with_abft<R>(f: impl FnOnce() -> R) -> R {
    ctx::scoped(|frame| frame.probe.abft = true, f)
}

/// Counter rows keyed in report order.
type Table = BTreeMap<(Layer, &'static str, bool), CounterRow>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Adds one finished call to `table`.
fn record(table: &Mutex<Table>, call: &CounterRow) {
    lock(table)
        .entry((call.layer, call.routine, call.abft))
        .and_modify(|t| {
            t.calls += call.calls;
            t.flops += call.flops;
            t.bytes += call.bytes;
            t.nanos += call.nanos;
        })
        .or_insert(*call);
}

fn rows(table: &Mutex<Table>) -> Vec<CounterRow> {
    lock(table).values().copied().collect()
}

/// The process-wide counter table.
static COUNTERS: Mutex<Table> = Mutex::new(BTreeMap::new());

/// A job's counter table. An inner job's sink points at the enclosing
/// job's, so its calls count toward both.
#[derive(Debug)]
pub(crate) struct Sink {
    table: Mutex<Table>,
    parent: Option<Arc<Sink>>,
}

/// Runs `f` as a *job* and returns its result together with the counter
/// rows recorded **inside the scope only** — on this thread and on every
/// worker the job fans out to: the per-job slice of the process-global
/// table that [`snapshot`] can never separate once jobs from many tenants
/// interleave on shared workers.
///
/// The global counters still accumulate exactly as before (a job's work
/// is real work); nested scopes stack, and an inner job's rows also count
/// toward the enclosing job's. The `la-serve` workers wrap each job in
/// this scope to attribute flops and wall time to the tenant that
/// submitted it. Under [`ProbePolicy::Off`] the scope installs nothing
/// and the returned rows are empty — the probe layer records nothing to
/// slice.
pub fn job_scope<R>(f: impl FnOnce() -> R) -> (R, Vec<CounterRow>) {
    if policy() == ProbePolicy::Off {
        return (f(), Vec::new());
    }
    let sink = Arc::new(Sink {
        table: Mutex::default(),
        parent: ctx::peek(|frame| frame.probe.sink.clone()),
    });
    let r = ctx::scoped(|frame| frame.probe.sink = Some(Arc::clone(&sink)), f);
    (r, rows(&sink.table))
}

/// Finished spans with no parent: the top of each call tree.
static ROOTS: SpanList = Mutex::new(Vec::new());

/// Puts a finished span under the innermost open span of this thread; a
/// span with no open parent goes to the fork it runs in, or else is a
/// root.
fn attach(span: Span) {
    let orphan = ACTIVE.with(|a| match a.borrow_mut().last_mut() {
        Some(parent) if parent.tree => {
            parent.children.push(span);
            None
        }
        _ => Some(span),
    });
    if let Some(span) = orphan {
        let graft = ctx::peek(|f| f.probe.graft.clone());
        lock(graft.as_deref().unwrap_or(&ROOTS)).push(span);
    }
}

/// RAII guard returned by [`span`]; records the call when dropped.
#[must_use = "the probe span records on Drop; binding it to `_` drops immediately"]
pub struct ProbeGuard {
    active: bool,
}

impl Drop for ProbeGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let frame = ACTIVE.with(|a| a.borrow_mut().pop());
        let Some(frame) = frame else { return };
        let call = CounterRow {
            layer: frame.layer,
            routine: frame.routine,
            abft: frame.abft,
            calls: 1,
            flops: frame.flops,
            bytes: frame.bytes,
            nanos: frame.start.elapsed().as_nanos() as u64,
        };
        record(&COUNTERS, &call);
        ctx::peek(|f| {
            let mut sink = f.probe.sink.as_deref();
            while let Some(job) = sink {
                record(&job.table, &call);
                sink = job.parent.as_deref();
            }
        });
        if frame.tree {
            attach(Span {
                layer: frame.layer,
                routine: frame.routine,
                abft: frame.abft,
                nb: frame.nb,
                threads: frame.threads,
                kernel: frame.kernel,
                flops: frame.flops,
                bytes: frame.bytes,
                nanos: call.nanos,
                dag: frame.dag,
                children: frame.children,
            });
        }
    }
}

/// Opens an instrumented span for `routine`. Call at the top of the
/// routine and keep the guard alive for its whole body:
///
/// ```ignore
/// let _probe = probe::span(Layer::Blas, "gemm", flops::gemm(m, n, k), bytes);
/// ```
///
/// Under [`ProbePolicy::Off`] this is one ambient-context read and returns
/// an inert guard — no clock is read, nothing allocates. Otherwise the
/// guard's `Drop` adds the call to the per-routine counters and (under
/// [`ProbePolicy::Spans`]) to the span tree, nested under whatever
/// instrumented call is currently active on this thread.
pub fn span(layer: Layer, routine: &'static str, flops: u64, bytes: u64) -> ProbeGuard {
    span_in(&ctx::current(), layer, routine, flops, bytes)
}

/// [`span`] for an entry point that has already read the ambient context:
/// takes the policy and the recorded thread budget from `ctx` instead of
/// reading them again.
pub fn span_in(
    ctx: &Ctx,
    layer: Layer,
    routine: &'static str,
    flops: u64,
    bytes: u64,
) -> ProbeGuard {
    let p = ctx.probe;
    if p == ProbePolicy::Off {
        return ProbeGuard { active: false };
    }
    let abft = ctx::peek(|f| f.probe.abft);
    ACTIVE.with(|a| {
        a.borrow_mut().push(Frame {
            layer,
            routine,
            abft,
            nb: 0,
            threads: ctx.tune.threads(),
            kernel: "",
            flops,
            bytes,
            start: Instant::now(),
            dag: None,
            tree: p == ProbePolicy::Spans,
            children: Vec::new(),
        })
    });
    ProbeGuard { active: true }
}

/// Records the parallelism a routine *actually* chose (band worker
/// count after the [`crate::tune`] thresholds were applied) on the innermost
/// active span of this thread. No-op when no span is active.
pub fn note_parallelism(threads: usize) {
    ACTIVE.with(|a| {
        if let Some(f) = a.borrow_mut().last_mut() {
            f.threads = threads;
        }
    });
}

/// Records the block size a factorization resolved for its call on the
/// innermost active span of this thread. No-op when no span is active.
pub fn note_nb(nb: usize) {
    ACTIVE.with(|a| {
        if let Some(f) = a.borrow_mut().last_mut() {
            f.nb = nb;
        }
    });
}

/// Records the microkernel a packed BLAS-3 routine *actually* ran (after
/// the [`crate::tune::GemmKernel`] choice was resolved against compiled features
/// and host support) on the innermost active span of this thread. No-op
/// when no span is active.
pub fn note_kernel(kernel: &'static str) {
    ACTIVE.with(|a| {
        if let Some(f) = a.borrow_mut().last_mut() {
            f.kernel = kernel;
        }
    });
}

/// Records the shape of a task graph the routine executed (task count,
/// edges, critical-path length, worker occupancy) on the innermost
/// active span of this thread. Called by [`crate::dag::Builder::run`]
/// after every graph execution; no-op when no span is active.
pub fn note_dag(shape: DagShape) {
    ACTIVE.with(|a| {
        if let Some(f) = a.borrow_mut().last_mut() {
            f.dag = Some(shape);
        }
    });
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// A point-in-time view of everything the probe layer has recorded: the
/// per-routine counter table, the finished span trees, and the
/// process-lifetime ABFT counters from [`crate::abft`].
#[derive(Clone, Debug)]
pub struct Report {
    /// Per-routine totals, sorted by layer then routine name.
    pub counters: Vec<CounterRow>,
    /// Completed root spans (only populated under [`ProbePolicy::Spans`]).
    pub spans: Vec<Span>,
    /// Process-lifetime count of ABFT checksum verifications
    /// ([`crate::abft::checks`]); monotone, not cleared by [`reset`].
    pub abft_checks: u64,
    /// Process-lifetime count of detected soft faults
    /// ([`crate::abft::detections`]); monotone.
    pub abft_detections: u64,
    /// Process-lifetime count of successful ABFT recoveries
    /// ([`crate::abft::recoveries`]); monotone.
    pub abft_recoveries: u64,
}

/// Snapshots the counters and finished spans. Cheap; safe to call at any
/// time (active spans on other threads are simply not included yet).
pub fn snapshot() -> Report {
    Report {
        counters: rows(&COUNTERS),
        spans: lock(&ROOTS).clone(),
        abft_checks: crate::abft::checks(),
        abft_detections: crate::abft::detections(),
        abft_recoveries: crate::abft::recoveries(),
    }
}

/// Clears the counter table and the finished span trees. Call between
/// measurement windows, while no instrumented call is in flight.
pub fn reset() {
    lock(&COUNTERS).clear();
    lock(&ROOTS).clear();
}

impl Report {
    /// Renders the counter table (and the span trees, if any) as aligned
    /// plain text.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:<10} {:>8} {:>14} {:>12} {:>10}  {:>8}\n",
            "layer", "routine", "calls", "flops", "bytes", "ms", "gflop/s"
        ));
        for r in &self.counters {
            let ms = r.nanos as f64 / 1e6;
            let gfs = if r.nanos > 0 {
                r.flops as f64 / r.nanos as f64
            } else {
                0.0
            };
            let mut name = r.routine.to_string();
            if r.abft {
                name.push_str("[abft]");
            }
            out.push_str(&format!(
                "{:<8} {:<10} {:>8} {:>14} {:>12} {:>10.3}  {:>8.2}\n",
                r.layer.as_str(),
                name,
                r.calls,
                r.flops,
                r.bytes,
                ms,
                gfs
            ));
        }
        if self.abft_checks > 0 {
            out.push_str(&format!(
                "abft: {} checks, {} detections, {} recoveries\n",
                self.abft_checks, self.abft_detections, self.abft_recoveries
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("span tree:\n");
            for s in &self.spans {
                render_span(&mut out, s, 1);
            }
        }
        out
    }

    /// Serializes the report as JSON (via [`crate::json::JsonBuf`]): a
    /// `counters` array of flat rows plus a recursive `spans` forest.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_uint("abft_checks", self.abft_checks);
        j.field_uint("abft_detections", self.abft_detections);
        j.field_uint("abft_recoveries", self.abft_recoveries);
        j.key("counters");
        j.begin_arr();
        for r in &self.counters {
            j.begin_obj();
            j.field_str("layer", r.layer.as_str());
            j.field_str("routine", r.routine);
            j.field_uint("abft", u64::from(r.abft));
            j.field_uint("calls", r.calls);
            j.field_uint("flops", r.flops);
            j.field_uint("bytes", r.bytes);
            j.field_num("ms", r.nanos as f64 / 1e6);
            j.end_obj();
        }
        j.end_arr();
        j.key("spans");
        j.begin_arr();
        for s in &self.spans {
            span_json(&mut j, s);
        }
        j.end_arr();
        j.end_obj();
        j.into_string()
    }
}

fn render_span(out: &mut String, s: &Span, depth: usize) {
    out.push_str(&format!(
        "{:indent$}{}{} [{}] nb={} threads={}{}{} flops={} ms={:.3}\n",
        "",
        s.routine,
        if s.abft { "[abft]" } else { "" },
        s.layer.as_str(),
        s.nb,
        s.threads,
        if s.kernel.is_empty() {
            String::new()
        } else {
            format!(" kernel={}", s.kernel)
        },
        match &s.dag {
            None => String::new(),
            Some(d) => format!(
                " dag[tasks={} edges={} cp={} occupancy={:.0}%]",
                d.tasks,
                d.edges,
                d.critical_path,
                d.occupancy * 100.0
            ),
        },
        s.flops,
        s.nanos as f64 / 1e6,
        indent = depth * 2
    ));
    for c in &s.children {
        render_span(out, c, depth + 1);
    }
}

fn span_json(j: &mut JsonBuf, s: &Span) {
    j.begin_obj();
    j.field_str("routine", s.routine);
    j.field_str("layer", s.layer.as_str());
    j.field_uint("abft", u64::from(s.abft));
    j.field_uint("nb", s.nb as u64);
    j.field_uint("threads", s.threads as u64);
    if !s.kernel.is_empty() {
        j.field_str("kernel", s.kernel);
    }
    if let Some(d) = &s.dag {
        j.key("dag");
        j.begin_obj();
        j.field_uint("tasks", d.tasks);
        j.field_uint("edges", d.edges);
        j.field_uint("critical_path", d.critical_path);
        j.field_uint("workers", d.workers);
        j.field_num("occupancy", d.occupancy);
        j.end_obj();
    }
    j.field_uint("flops", s.flops);
    j.field_uint("bytes", s.bytes);
    j.field_num("ms", s.nanos as f64 / 1e6);
    j.key("children");
    j.begin_arr();
    for c in &s.children {
        span_json(j, c);
    }
    j.end_arr();
    j.end_obj();
}

// ---------------------------------------------------------------------------
// Closed-form flop counts
// ---------------------------------------------------------------------------

/// Closed-form operation counts (LAWN-41 style, leading and first-order
/// terms) used by every instrumented call site *and* by the accounting
/// tests — both sides evaluate the same formula, so the tests verify the
/// wiring (no double counting, right dimensions), not float arithmetic.
///
/// Counts are type-agnostic "algorithmic" flops: a multiply-add pair is 2
/// flops regardless of whether the scalars are real or complex.
///
/// Products are evaluated in `u128` and saturated to `u64::MAX` — at
/// extreme dimensions a wrapping product could otherwise land *below* a
/// threshold it should exceed (the serialization bug this guards
/// against: a wrapped estimate below `par_flops` ran a huge call on one
/// thread).
pub mod flops {
    use crate::enums::Side;

    /// Saturates a wide product into the `u64` counter domain.
    fn sat(v: u128) -> u64 {
        u64::try_from(v).unwrap_or(u64::MAX)
    }

    /// `C := alpha·op(A)·op(B) + beta·C` with `op(A)` m×k: `2mnk`.
    pub fn gemm(m: usize, n: usize, k: usize) -> u64 {
        sat(2 * (m as u128) * (n as u128) * (k as u128))
    }

    /// Symmetric/Hermitian product: `2m²n` (left) or `2mn²` (right).
    pub fn symm(side: Side, m: usize, n: usize) -> u64 {
        let (m, n) = (m as u128, n as u128);
        sat(match side {
            Side::Left => 2 * m * m * n,
            Side::Right => 2 * m * n * n,
        })
    }

    /// Rank-k update of one triangle: `k·n·(n+1)`.
    pub fn syrk(n: usize, k: usize) -> u64 {
        sat((k as u128) * (n as u128) * (n as u128 + 1))
    }

    /// Rank-2k update of one triangle: `2k·n·(n+1)`.
    pub fn syr2k(n: usize, k: usize) -> u64 {
        sat(2 * (k as u128) * (n as u128) * (n as u128 + 1))
    }

    /// Triangular multiply: `m²n` (left) or `mn²` (right).
    pub fn trmm(side: Side, m: usize, n: usize) -> u64 {
        let (m, n) = (m as u128, n as u128);
        sat(match side {
            Side::Left => m * m * n,
            Side::Right => m * n * n,
        })
    }

    /// Triangular solve with `n` (left) / `m` (right) right-hand sides:
    /// same count as [`trmm`].
    pub fn trsm(side: Side, m: usize, n: usize) -> u64 {
        trmm(side, m, n)
    }

    /// LU with partial pivoting of an m×n matrix:
    /// `2mnk − (m+n)k² + 2k³/3` with `k = min(m, n)`
    /// (`2n³/3` when square).
    pub fn getrf(m: usize, n: usize) -> u64 {
        let (mf, nf) = (m as f64, n as f64);
        let k = mf.min(nf);
        (2.0 * mf * nf * k - (mf + nf) * k * k + 2.0 * k * k * k / 3.0).round() as u64
    }

    /// Forward+back substitution against an LU factorization: `2n²·nrhs`.
    pub fn getrs(n: usize, nrhs: usize) -> u64 {
        sat(2 * (n as u128) * (n as u128) * (nrhs as u128))
    }

    /// Inverse from an LU factorization: `4n³/3`.
    pub fn getri(n: usize) -> u64 {
        let nf = n as f64;
        (4.0 * nf * nf * nf / 3.0).round() as u64
    }

    /// Cholesky factorization: `n³/3`.
    pub fn potrf(n: usize) -> u64 {
        let nf = n as f64;
        (nf * nf * nf / 3.0).round() as u64
    }

    /// Solve against a Cholesky factorization: `2n²·nrhs`.
    pub fn potrs(n: usize, nrhs: usize) -> u64 {
        getrs(n, nrhs)
    }

    /// QR (or LQ) factorization of an m×n matrix: twice the LU count,
    /// `2·getrf(m, n)` (`4n³/3` when square).
    pub fn geqrf(m: usize, n: usize) -> u64 {
        2 * getrf(m, n)
    }

    /// Applying the k-reflector Q of a QR factorization to an m×n
    /// matrix: `4mnk − 2k²·(cols of op side)`.
    pub fn ormqr(side: Side, m: usize, n: usize, k: usize) -> u64 {
        let (mf, nf, kf) = (m as f64, n as f64, k as f64);
        let v = match side {
            Side::Left => 4.0 * mf * nf * kf - 2.0 * nf * kf * kf,
            Side::Right => 4.0 * mf * nf * kf - 2.0 * mf * kf * kf,
        };
        v.max(0.0).round() as u64
    }

    /// Forming the explicit m×n Q from k reflectors:
    /// `4mnk − 2(m+n)k² + 4k³/3`.
    pub fn orgqr(m: usize, n: usize, k: usize) -> u64 {
        let (mf, nf, kf) = (m as f64, n as f64, k as f64);
        (4.0 * mf * nf * kf - 2.0 * (mf + nf) * kf * kf + 4.0 * kf * kf * kf / 3.0)
            .max(0.0)
            .round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_documented_spellings() {
        assert_eq!(ProbePolicy::parse("off"), Some(ProbePolicy::Off));
        assert_eq!(ProbePolicy::parse("0"), Some(ProbePolicy::Off));
        assert_eq!(ProbePolicy::parse("Counters"), Some(ProbePolicy::Counters));
        assert_eq!(ProbePolicy::parse("count"), Some(ProbePolicy::Counters));
        assert_eq!(ProbePolicy::parse("SPANS"), Some(ProbePolicy::Spans));
        assert_eq!(ProbePolicy::parse("trace"), Some(ProbePolicy::Spans));
        assert_eq!(ProbePolicy::parse("bogus"), None);
    }

    #[test]
    fn scoped_policy_stacks_and_restores() {
        let base = policy();
        with_policy(ProbePolicy::Counters, || {
            assert_eq!(policy(), ProbePolicy::Counters);
            with_policy(ProbePolicy::Spans, || {
                assert_eq!(policy(), ProbePolicy::Spans);
            });
            assert_eq!(policy(), ProbePolicy::Counters);
        });
        assert_eq!(policy(), base);
    }

    #[test]
    fn off_guard_is_inert() {
        with_policy(ProbePolicy::Off, || {
            let g = span(Layer::Blas, "unit-test-inert", 1000, 1000);
            assert!(!g.active);
            drop(g);
        });
        let rep = snapshot();
        assert!(rep.counters.iter().all(|r| r.routine != "unit-test-inert"));
    }

    #[test]
    fn spans_nest_on_one_thread() {
        // Serialized against other probe tests by using unique names and
        // checking only our own roots.
        with_policy(ProbePolicy::Spans, || {
            let _outer = span(Layer::Driver, "unit-test-outer", 0, 0);
            {
                let inner = span(Layer::Blas, "unit-test-inner", 10, 20);
                note_parallelism(7);
                drop(inner);
            }
        });
        let rep = snapshot();
        let root = rep
            .spans
            .iter()
            .find(|s| s.routine == "unit-test-outer")
            .expect("root span recorded");
        assert_eq!(root.children.len(), 1);
        let inner = &root.children[0];
        assert_eq!(inner.routine, "unit-test-inner");
        assert_eq!(inner.flops, 10);
        assert_eq!(inner.bytes, 20);
        assert_eq!(inner.threads, 7);
        assert!(root.find("unit-test-inner").is_some());
        // The table and JSON renderers cover these rows without panicking
        // and the JSON parses back.
        let table = rep.to_table();
        assert!(table.contains("unit-test-inner"));
        let parsed = crate::json::Json::parse(&rep.to_json()).unwrap();
        assert!(parsed.get("counters").is_some());
    }

    #[test]
    fn flop_formulas_saturate_at_extreme_dims() {
        // 2·(2²²)³ = 2⁶⁷ overflows u64; the closed forms must saturate,
        // not wrap (a wrapped value under-reports by orders of magnitude).
        let huge = 1usize << 22;
        assert_eq!(flops::gemm(huge, huge, huge), u64::MAX);
        assert_eq!(flops::symm(crate::Side::Left, huge, huge), u64::MAX);
        assert_eq!(flops::syrk(huge, huge << 23), u64::MAX);
        assert_eq!(flops::syr2k(huge, huge << 22), u64::MAX);
        assert_eq!(flops::trmm(crate::Side::Left, huge << 1, huge), u64::MAX);
        assert_eq!(flops::getrs(huge << 1, huge << 22), u64::MAX);
        // The f64-evaluated forms saturate through the float→int cast.
        assert_eq!(flops::getrf(usize::MAX, usize::MAX), u64::MAX);
        // And plausible-large sizes stay exact.
        assert_eq!(flops::gemm(1 << 20, 1 << 20, 4), 1u64 << 43);
    }

    #[test]
    fn abft_scope_tags_spans_and_counters() {
        with_policy(ProbePolicy::Spans, || {
            let _outer = span(Layer::Blas, "unit-test-prot", 128, 0);
            with_abft(|| {
                let _inner = span(Layer::Blas, "unit-test-verify", 16, 0);
            });
        });
        let rep = snapshot();
        let root = rep
            .spans
            .iter()
            .find(|s| s.routine == "unit-test-prot")
            .expect("protected root span");
        assert!(!root.abft, "outer span must not be tagged");
        let v = root.find("unit-test-verify").expect("verify child");
        assert!(v.abft, "span inside with_abft must be tagged");
        let row = rep
            .counters
            .iter()
            .find(|r| r.routine == "unit-test-verify")
            .expect("verify counter row");
        assert!(row.abft && row.flops == 16);
        assert!(rep.to_table().contains("unit-test-verify[abft]"));
        let json = crate::json::Json::parse(&rep.to_json()).unwrap();
        assert!(json.get("abft_checks").is_some());
    }

    #[test]
    fn job_scope_slices_counters_per_job() {
        with_policy(ProbePolicy::Counters, || {
            // Work *outside* any job must not be attributed to one.
            drop(span(Layer::Blas, "unit-test-outside", 5, 0));
            let ((), rows_a) = job_scope(|| {
                drop(span(Layer::Blas, "unit-test-joba", 100, 7));
                drop(span(Layer::Blas, "unit-test-joba", 100, 7));
            });
            let ((), rows_b) = job_scope(|| {
                drop(span(Layer::Lapack, "unit-test-jobb", 40, 0));
            });
            assert_eq!(rows_a.len(), 1);
            assert_eq!(rows_a[0].routine, "unit-test-joba");
            assert_eq!(rows_a[0].calls, 2);
            assert_eq!(rows_a[0].flops, 200);
            assert_eq!(rows_a[0].bytes, 14);
            // Job B sees neither the outside span nor job A's rows.
            assert_eq!(rows_b.len(), 1);
            assert_eq!(rows_b[0].routine, "unit-test-jobb");
            // Nested jobs fold into the enclosing job on exit.
            let ((), outer) = job_scope(|| {
                drop(span(Layer::Driver, "unit-test-outerjob", 1, 0));
                let ((), inner) = job_scope(|| {
                    drop(span(Layer::Blas, "unit-test-innerjob", 8, 0));
                });
                assert_eq!(inner.len(), 1);
                assert_eq!(inner[0].routine, "unit-test-innerjob");
            });
            let names: Vec<_> = outer.iter().map(|r| r.routine).collect();
            assert!(names.contains(&"unit-test-outerjob"));
            assert!(names.contains(&"unit-test-innerjob"));
            // The global table still has everything, including the
            // outside-any-job span.
            let rep = snapshot();
            assert!(rep
                .counters
                .iter()
                .any(|r| r.routine == "unit-test-outside"));
            assert!(rep.counters.iter().any(|r| r.routine == "unit-test-joba"));
        });
    }

    #[test]
    fn worker_spans_graft_under_the_span_open_at_the_fork() {
        let leaves = |_| drop(span(Layer::Blas, "unit-test-leaf", 1, 0));
        with_policy(ProbePolicy::Spans, || {
            let _fork = span(Layer::Lapack, "unit-test-fork", 0, 0);
            ctx::fan_out(2, 0..4, leaves);
            // A worker that forks again grafts its own workers' spans
            // under the span it has open.
            ctx::fan_out(2, 0..1, |_| {
                let _mid = span(Layer::Lapack, "unit-test-mid", 0, 0);
                ctx::fan_out(2, 0..3, leaves);
            });
        });
        // A fork with no span open on the caller: its spans are roots.
        with_policy(ProbePolicy::Spans, || {
            ctx::fan_out(2, 0..2, |_| {
                drop(span(Layer::Blas, "unit-test-rootleaf", 0, 0))
            })
        });
        let rep = snapshot();
        let named = |name| rep.spans.iter().filter(move |s| s.routine == name);
        assert_eq!(named("unit-test-leaf").count(), 0, "a worker span detached");
        assert_eq!(named("unit-test-mid").count(), 0, "a worker span detached");
        assert_eq!(named("unit-test-rootleaf").count(), 2);
        let fork = named("unit-test-fork").next().expect("fork span recorded");
        let kids: Vec<_> = fork.children.iter().map(|c| c.routine).collect();
        assert_eq!(
            kids,
            ["unit-test-leaf"; 4]
                .into_iter()
                .chain(["unit-test-mid"])
                .collect::<Vec<_>>()
        );
        assert_eq!(fork.children[4].children.len(), 3);
    }

    #[test]
    fn flop_formulas_match_square_leading_terms() {
        let n = 100u64;
        assert_eq!(flops::gemm(100, 100, 100), 2 * n * n * n);
        assert_eq!(flops::getrf(100, 100), 2 * n * n * n / 3 + 1); // rounding
        assert_eq!(flops::potrf(100), n * n * n / 3); // 333333.3 rounds down
        assert_eq!(flops::geqrf(100, 100), 2 * flops::getrf(100, 100));
        assert_eq!(flops::trsm(crate::Side::Left, 100, 50), n * n * 50);
        // Rectangular LU: mn² − n³/3 for m ≥ n.
        assert_eq!(
            flops::getrf(200, 100),
            (200.0 * 100.0f64.powi(2) - 100.0f64.powi(3) / 3.0).round() as u64
        );
    }
}
