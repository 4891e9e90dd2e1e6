//! Ambient context — the one owner of the run-time state that follows a
//! call tree, and the one way it crosses a thread hop.
//!
//! The paper resolves every optional argument in one place and reports
//! every failure through one `ERINFO`; Demmel et al. (arXiv:2207.09281)
//! ask the same of run-time behaviour: one consistent channel, not one per
//! routine family. This module is that channel:
//!
//! * [`Ctx`] — the `Copy` configuration: [`TuneConfig`] plus the three
//!   policies ([`FpCheckPolicy`], [`AbftPolicy`], [`ProbePolicy`]).
//! * One process global, filled on first use from the `LA_*` environment
//!   by the table-driven parser ([`VARS`], [`Ctx::from_source`]) and edited
//!   with [`update`]. A malformed value is **rejected, not silently
//!   dropped**: the default is kept and a warning naming the variable, the
//!   rejected value, the accepted spellings and the fallback goes to
//!   stderr. So does one line per `LA_*` name that is not in the table — a
//!   typo (`LA_THREDS`) or a retired variable changes nothing, and says so.
//! * One thread-local stack of frames. A frame is a `Ctx` plus the things
//!   that belong to a call tree rather than to the process: the cancel
//!   token, the watchdog heartbeat, the number of pool siblings the thread
//!   shares the host with, and the probe's state (its `abft` tag,
//!   the job's counter sink, a fork's span graft point). [`with`]
//!   (and the per-field projections `tune::with`, `abft::with_policy`,
//!   `cancel::with_token`, `probe::with_abft`, `probe::job_scope`, …) push a
//!   copy of the top frame with one field changed, so mixed nesting
//!   composes; the frame pops on scope exit, panic included.
//! * One thread hop: [`capture`] takes the top frame as an [`Ambient`],
//!   [`Ambient::enter`] installs it on another thread. [`fan_out`] is the
//!   scoped-thread pool every parallel path runs on (BLAS-3 column bands,
//!   dag workers), and [`isolated`] is the per-job robustness wrapper (cancel
//!   gate, panic boundary, ABFT fault scope) every dag task runs under.
//!
//! What deliberately does **not** cross a hop: the ABFT pending fault and
//! its epoch ([`crate::abft::take_pending`]). A fault is a per-job result,
//! not call-tree state: carrying it would be the cross-job leak the epochs
//! exist to prevent. The probe's open spans stay with their thread too,
//! but a worker's top-level spans are moved under the span open at the
//! fork when [`fan_out`] joins.
//!
//! ```
//! use la_core::{ctx, AbftPolicy};
//! let mut c = ctx::current();
//! c.tune.max_threads = 1;
//! c.abft = AbftPolicy::Verify;
//! let seen = ctx::with(c, || (la_core::tune::current().max_threads, la_core::abft::policy()));
//! assert_eq!(seen, (1, AbftPolicy::Verify));
//! ```

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::abft::{self, AbftPolicy};
use crate::cancel::{self, CancelToken, Heartbeat};
use crate::except::FpCheckPolicy;
use crate::probe::{self, ProbePolicy};
use crate::tune::{GemmKernel, TuneConfig};

/// The ambient configuration: everything a routine may consult that is
/// not an argument. Plain data — copy it, edit fields, hand it to [`with`]
/// or [`update`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ctx {
    /// Thread budget, block sizes, kernel and algorithm choices.
    pub tune: TuneConfig,
    /// NaN/Inf screening of the `la90` drivers (`LA_FP_CHECK`).
    pub fp_check: FpCheckPolicy,
    /// Checksum protection of BLAS-3 and the factorizations (`LA_ABFT`).
    pub abft: AbftPolicy,
    /// Counter and span recording (`LA_PROFILE`).
    pub probe: ProbePolicy,
}

impl Ctx {
    /// The compiled-in defaults: [`TuneConfig::defaults`] and every policy
    /// `Off`.
    pub const fn defaults() -> Self {
        Ctx {
            tune: TuneConfig::defaults(),
            fp_check: FpCheckPolicy::Off,
            abft: AbftPolicy::Off,
            probe: ProbePolicy::Off,
        }
    }

    /// Defaults overlaid with the `LA_*` variables among the `(name, value)`
    /// pairs of `env`, plus one diagnostic per rejected value and one per
    /// `LA_*` name that is not a row of [`VARS`]. The process global is
    /// built from the process environment; tests pass a list instead,
    /// because mutating the process environment races with parallel tests.
    pub fn from_source(env: impl IntoIterator<Item = (String, String)>) -> (Self, Vec<String>) {
        let mut ctx = Ctx::defaults();
        let mut warnings = Vec::new();
        for (name, raw) in env {
            if !name.starts_with("LA_") {
                continue;
            }
            match VARS.iter().find(|var| var.name == name) {
                Some(var) if var.apply(&mut ctx, &raw) => {}
                Some(var) => warnings.push(format!(
                    "{name}: rejected value {raw:?} (expected {}); using default {}",
                    var.accepts, var.default
                )),
                None => warnings.push(format!("{name}: not a library variable (ignored)")),
            }
        }
        (ctx, warnings)
    }
}

/// How one `LA_*` value is parsed and which field it lands in.
enum Kind {
    /// Non-negative integer; `0` is a meaningful "auto"/"off" spelling.
    Count(fn(&mut Ctx) -> &mut usize),
    /// One of a fixed set of spellings; `false` means unknown spelling.
    Choice(fn(&mut Ctx, &str) -> bool),
}

/// One row of the `LA_*` table: the only place a library variable's name,
/// accepted spellings and default are written down.
pub struct Var {
    /// The environment variable.
    pub name: &'static str,
    /// The accepted spellings, as shown in rejection warnings and README.
    pub accepts: &'static str,
    /// The value used when the variable is unset or rejected.
    pub default: &'static str,
    kind: Kind,
}

impl Var {
    const fn count(
        name: &'static str,
        default: &'static str,
        f: fn(&mut Ctx) -> &mut usize,
    ) -> Self {
        Var {
            name,
            accepts: "an integer >= 0",
            default,
            kind: Kind::Count(f),
        }
    }

    const fn choice(
        name: &'static str,
        accepts: &'static str,
        default: &'static str,
        f: fn(&mut Ctx, &str) -> bool,
    ) -> Self {
        Var {
            name,
            accepts,
            default,
            kind: Kind::Choice(f),
        }
    }

    /// Parses `raw` into this variable's field of `ctx`; `false` (field
    /// untouched) when the value is not an accepted spelling.
    fn apply(&self, ctx: &mut Ctx, raw: &str) -> bool {
        let raw = raw.trim();
        match self.kind {
            Kind::Count(field) => raw.parse().map(|v| *field(ctx) = v).is_ok(),
            Kind::Choice(set) => set(ctx, raw),
        }
    }
}

fn store<E>(field: &mut E, parsed: Option<E>) -> bool {
    parsed.map(|v| *field = v).is_some()
}

/// Every `LA_*` variable the library reads: the thread budget, the kernel
/// choice and the three policies. Every other
/// field of [`TuneConfig`] — the block sizes among them — is set in code
/// only. Each enum row defers to the type's own `parse`, which is
/// case-insensitive and also accepts the aliases listed here.
pub const VARS: [Var; 5] = [
    Var::count("LA_NUM_THREADS", "0", |c| &mut c.tune.max_threads),
    Var::choice(
        "LA_GEMM_KERNEL",
        "auto|scalar|unrolled|simd",
        "auto",
        |c, s| store(&mut c.tune.gemm_kernel, GemmKernel::parse(s)),
    ),
    Var::choice(
        "LA_FP_CHECK",
        "off|none|0, inputs|in, outputs|out, full|all|on|1",
        "off",
        |c, s| store(&mut c.fp_check, FpCheckPolicy::parse(s)),
    ),
    Var::choice(
        "LA_ABFT",
        "off|none|0, verify|check|detect, recover|on|1",
        "off",
        |c, s| store(&mut c.abft, AbftPolicy::parse(s)),
    ),
    Var::choice(
        "LA_PROFILE",
        "off|none|0, counters|count|1, spans|span|trace|2",
        "off",
        |c, s| store(&mut c.probe, ProbePolicy::parse(s)),
    ),
];

/// The process environment as [`Ctx::from_source`] takes it. A name or
/// value that is not Unicode cannot be a library setting and is skipped.
fn process_env() -> impl Iterator<Item = (String, String)> {
    std::env::vars_os().filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?)))
}

/// The process-global configuration, read from the environment on first
/// use; every rejected value and every unknown `LA_*` name is reported on
/// stderr exactly then.
fn global() -> &'static Mutex<Ctx> {
    static GLOBAL: OnceLock<Mutex<Ctx>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let (ctx, warnings) = Ctx::from_source(process_env());
        for w in &warnings {
            eprintln!("la-core: {w}");
        }
        Mutex::new(ctx)
    })
}

/// Bumped by every [`update`], inside its critical section. Threads keep a
/// copy of the global and re-read it under the lock only when this moved,
/// so a policy read with no scope open is one thread-local access and one
/// relaxed load. The lock publishes the data; a thread that sees the new
/// generation and then takes the lock cannot get the old value.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// One level of the thread-local stack: the configuration plus the state
/// that belongs to the call tree.
#[derive(Clone, Debug)]
pub(crate) struct Frame {
    pub(crate) ctx: Ctx,
    pub(crate) token: Option<CancelToken>,
    pub(crate) beat: Option<Heartbeat>,
    /// How many pool workers share the host with this thread (1 = not a
    /// pool worker); multiplies across nested pools.
    pub(crate) share: usize,
    /// The probe's tags, job counter sink and span graft point.
    pub(crate) probe: probe::Scope,
}

struct Local {
    /// Scoped frames, innermost last.
    stack: Vec<Frame>,
    /// What the thread runs on with no scope open: the process global as
    /// of generation `seen`, no token, no heartbeat, the whole host.
    base: Frame,
    seen: u64,
}

impl Local {
    fn top(&mut self) -> &Frame {
        if self.stack.is_empty() {
            let generation = GENERATION.load(Ordering::Relaxed);
            if self.seen != generation {
                self.base.ctx = *global().lock().unwrap_or_else(|e| e.into_inner());
                self.seen = generation;
            }
        }
        self.stack.last().unwrap_or(&self.base)
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            stack: Vec::new(),
            base: Frame {
                ctx: Ctx::defaults(),
                token: None,
                beat: None,
                share: 1,
                probe: probe::Scope::NONE,
            },
            seen: 0,
        })
    };
}

/// Reads the frame in effect on this thread. `f` must not re-enter this
/// module.
pub(crate) fn peek<R>(f: impl FnOnce(&Frame) -> R) -> R {
    LOCAL.with(|l| f(l.borrow_mut().top()))
}

/// Runs `f` under the frame `make` builds from the current top frame, and
/// pops it afterwards (also on panic).
fn enter<R>(make: impl FnOnce(&Frame) -> Frame, f: impl FnOnce() -> R) -> R {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            LOCAL.with(|l| l.borrow_mut().stack.pop());
        }
    }
    LOCAL.with(|l| {
        let mut local = l.borrow_mut();
        let frame = make(local.top());
        local.stack.push(frame);
    });
    let _pop = Pop;
    f()
}

/// Runs `f` under a copy of the top frame with `edit` applied — the
/// primitive behind every `with_*` projection, which is why they compose
/// when nested in any order.
pub(crate) fn scoped<R>(edit: impl FnOnce(&mut Frame), f: impl FnOnce() -> R) -> R {
    enter(
        |top| {
            let mut frame = top.clone();
            edit(&mut frame);
            frame
        },
        f,
    )
}

/// The configuration in effect on this thread: the innermost scope's if
/// one is open, the process global otherwise.
pub fn current() -> Ctx {
    peek(|f| f.ctx)
}

/// Runs `f` with `ctx` in effect on the current thread and on every worker
/// the call tree fans out to ([`fan_out`]), restoring the previous state
/// afterwards (also on panic). Nested calls stack. The cancel token,
/// heartbeat and pool share of the enclosing scope stay in effect.
pub fn with<R>(ctx: Ctx, f: impl FnOnce() -> R) -> R {
    scoped(|frame| frame.ctx = ctx, f)
}

/// Edits the process-global configuration in place:
/// `ctx::update(|c| c.tune.max_threads = 4)`. Seen by every thread that
/// has no scope open; a thread inside a [`with`] keeps its scope's copy.
pub fn update(f: impl FnOnce(&mut Ctx)) {
    let mut global = global().lock().unwrap_or_else(|e| e.into_inner());
    f(&mut global);
    GENERATION.fetch_add(1, Ordering::Relaxed);
}

/// Everything a thread hop must carry, taken from the current thread with
/// [`capture`] and installed on another with [`Ambient::enter`]: the
/// [`Ctx`], the cancel token, the heartbeat, the pool share and the probe's
/// tags and job sink.
#[derive(Clone, Debug)]
pub struct Ambient(Frame);

/// Captures the calling thread's ambient state.
pub fn capture() -> Ambient {
    Ambient(peek(Frame::clone))
}

impl Ambient {
    /// Replaces the cancel token (a served job runs under its own).
    pub fn token(mut self, token: CancelToken) -> Self {
        self.0.token = Some(token);
        self
    }

    /// Replaces the heartbeat (a served job stamps its own).
    pub fn heartbeat(mut self, beat: Heartbeat) -> Self {
        self.0.beat = Some(beat);
        self
    }

    /// Declares the entering threads to be `siblings` concurrently running
    /// workers of one pool, so [`TuneConfig::threads`] hands each
    /// `host / siblings` cores instead of all of them. Nested pools
    /// multiply.
    pub fn shared_by(mut self, siblings: usize) -> Self {
        self.0.share = self.0.share.saturating_mul(siblings.max(1));
        self
    }

    /// Runs `f` with this ambient state in effect on the current thread,
    /// restoring the previous state afterwards (also on panic).
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        enter(|_| self.0.clone(), f)
    }
}

/// Runs `f` once per item on `workers` scoped threads and joins them; a
/// worker panic is re-raised on the caller. Items are handed out in order
/// from a shared cursor, so a worker that drew a long item does not stall
/// the others. Every worker runs under the caller's [`Ambient`] and is
/// registered as one of `workers` pool siblings; under
/// [`ProbePolicy::Spans`] the spans the workers record land, after the
/// join, under the span open on the caller. With one worker the items
/// run inline on the calling thread. Returns the number of threads that
/// ran the items: the workers that started, or 1 when they ran inline.
///
/// A thread the OS refuses to start is not an error: the items run on the
/// workers that did start, or inline on the caller (under the same
/// ambient) when none did. An item is taken from the cursor only by a
/// running thread, so none is lost or run twice, and no call fails for
/// want of a thread.
///
/// This is the only place the library spawns compute threads: BLAS-3
/// column bands and dag workers are both `fan_out` calls that differ in
/// what an item is.
pub fn fan_out<I, F>(workers: usize, items: I, f: F) -> usize
where
    I: Iterator + Send,
    F: Fn(I::Item) + Sync,
{
    if workers <= 1 {
        items.for_each(f);
        return 1;
    }
    let mut ambient = capture().shared_by(workers);
    let graft = probe::fork(&mut ambient.0.probe, ambient.0.ctx.probe);
    let queue = Mutex::new(items);
    let work = || {
        ambient.enter(|| loop {
            let next = queue.lock().unwrap_or_else(|e| e.into_inner()).next();
            match next {
                Some(item) => f(item),
                None => return,
            }
        })
    };
    let ran = std::thread::scope(|s| {
        let started = (0..workers)
            .filter(|_| {
                !spawn_refused() && std::thread::Builder::new().spawn_scoped(s, work).is_ok()
            })
            .count();
        if started == 0 {
            work();
        }
        started.max(1)
    });
    probe::join(graft);
    ran
}

/// `true` when the injection hook refuses this spawn ([`inject`]); always
/// `false` in builds without the `fault-inject` feature.
fn spawn_refused() -> bool {
    #[cfg(feature = "fault-inject")]
    return inject::take_refusal();
    #[cfg(not(feature = "fault-inject"))]
    false
}

/// Refused-spawn injection, compiled in only with the `fault-inject` cargo
/// feature: makes [`fan_out`] on the calling thread see the OS refuse its
/// next threads, so the no-thread path is testable on any host.
#[cfg(feature = "fault-inject")]
pub mod inject {
    use std::cell::Cell;

    thread_local! {
        static REFUSALS: Cell<usize> = const { Cell::new(0) };
    }

    /// Arms `k` refusals on this thread: the next `k` threads [`super::fan_out`]
    /// tries to start from it fail as if the OS had refused them
    /// (`usize::MAX`: every one). One-shot: each refusal is spent as it
    /// fires. Returns the refusals left from the previous arming, so
    /// `refuse_spawns(0)` disarms and tells whether they all fired.
    pub fn refuse_spawns(k: usize) -> usize {
        REFUSALS.with(|r| r.replace(k))
    }

    /// Spends one armed refusal; `false` when none is left.
    pub(super) fn take_refusal() -> bool {
        REFUSALS.with(|r| {
            let k = r.get();
            r.set(k.saturating_sub(1));
            k > 0
        })
    }
}

/// Runs `body` as one isolated job and returns its raw `INFO`: the cancel
/// gate ([`cancel::INFO_CANCELLED`] without running when the token is
/// already tripped), the panic boundary ([`cancel::INFO_PANICKED`]), and
/// the ABFT fault scope — a clean return that left an unrepaired soft
/// fault parked becomes [`abft::INFO_SOFT_FAULT`], and nothing the job
/// parked can surface in a later job on the same thread.
pub fn isolated(body: impl FnOnce() -> i32) -> i32 {
    abft::job_scope(|| {
        if cancel::cancelled() {
            return cancel::INFO_CANCELLED;
        }
        match catch_unwind(AssertUnwindSafe(body)) {
            Ok(0) if abft::take_pending().is_some() => abft::INFO_SOFT_FAULT,
            Ok(info) => info,
            Err(_) => cancel::INFO_PANICKED,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dag, except, probe, tune};
    use std::sync::atomic::AtomicUsize;

    /// Serializes the tests that read or edit the unscoped process global.
    static GLOBAL_TESTS: Mutex<()> = Mutex::new(());

    fn source(vars: &[(&str, &str)]) -> Vec<(String, String)> {
        vars.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// One parser case: the variable, a raw value, and either the check
    /// that it landed in the right field (`Some`) or `None` when the value
    /// must be rejected.
    type Case = (&'static str, &'static str, Option<fn(&Ctx) -> bool>);

    const CASES: &[Case] = &[
        // Every variable round-trips a valid value into its own field...
        ("LA_NUM_THREADS", "3", Some(|c| c.tune.max_threads == 3)),
        (
            "LA_GEMM_KERNEL",
            "scalar",
            Some(|c| c.tune.gemm_kernel == GemmKernel::Scalar),
        ),
        (
            "LA_FP_CHECK",
            "full",
            Some(|c| c.fp_check == FpCheckPolicy::Full),
        ),
        (
            "LA_ABFT",
            "recover",
            Some(|c| c.abft == AbftPolicy::Recover),
        ),
        (
            "LA_PROFILE",
            "spans",
            Some(|c| c.probe == ProbePolicy::Spans),
        ),
        // ...and rejects a malformed one.
        ("LA_NUM_THREADS", "three", None),
        ("LA_NUM_THREADS", "-1", None),
        ("LA_NUM_THREADS", "3.5", None),
        ("LA_GEMM_KERNEL", "fancy", None),
        ("LA_NUM_THREADS", "", None),
        // The typos that used to run unprotected without a word:
        ("LA_FP_CHECK", "ful", None),
        ("LA_ABFT", "recovery", None),
        ("LA_PROFILE", "spam", None),
        // Zero stays a valid "auto"/"off" spelling where it means
        // something, and the documented aliases stay accepted.
        ("LA_NUM_THREADS", "0", Some(|c| c.tune.max_threads == 0)),
        ("LA_NUM_THREADS", " 4 ", Some(|c| c.tune.max_threads == 4)),
        (
            "LA_GEMM_KERNEL",
            "SIMD",
            Some(|c| c.tune.gemm_kernel == GemmKernel::Simd),
        ),
        (
            "LA_FP_CHECK",
            "in",
            Some(|c| c.fp_check == FpCheckPolicy::ScanInputs),
        ),
        ("LA_ABFT", "detect", Some(|c| c.abft == AbftPolicy::Verify)),
        (
            "LA_PROFILE",
            "1",
            Some(|c| c.probe == ProbePolicy::Counters),
        ),
    ];

    #[test]
    fn every_variable_round_trips_and_rejects_through_the_one_table() {
        for var in &VARS {
            for accepted in [true, false] {
                assert!(
                    CASES
                        .iter()
                        .any(|(n, _, check)| *n == var.name && check.is_some() == accepted),
                    "{} has no {} case",
                    var.name,
                    if accepted { "valid" } else { "malformed" }
                );
            }
        }
        for &(name, raw, check) in CASES {
            let (ctx, warnings) = Ctx::from_source(source(&[(name, raw)]));
            match check {
                Some(landed) => {
                    assert!(warnings.is_empty(), "{name}={raw:?}: {warnings:?}");
                    assert!(landed(&ctx), "{name}={raw:?} did not reach its field");
                    // ...and only its own field: undoing it gives defaults.
                    let var = VARS.iter().find(|v| v.name == name).unwrap();
                    let mut undone = ctx;
                    assert!(var.apply(&mut undone, var.default));
                    assert_eq!(undone, Ctx::defaults(), "{name}={raw:?}");
                }
                None => {
                    assert_eq!(ctx, Ctx::defaults(), "{name}={raw:?} must keep the default");
                    let var = VARS.iter().find(|v| v.name == name).unwrap();
                    assert_eq!(warnings.len(), 1, "{name}={raw:?}: {warnings:?}");
                    let w = &warnings[0];
                    assert!(w.starts_with(name), "{w:?} must name the variable");
                    assert!(
                        w.contains(&format!("{raw:?}")),
                        "{w:?} must quote the value"
                    );
                    assert!(w.contains(var.accepts), "{w:?} must list the spellings");
                    assert!(
                        w.ends_with(&format!("using default {}", var.default)),
                        "{w:?} must name the fallback"
                    );
                }
            }
        }
    }

    #[test]
    fn unset_environment_yields_the_four_defaults() {
        let (ctx, warnings) = Ctx::from_source(source(&[]));
        assert!(warnings.is_empty());
        assert_eq!(ctx.tune, TuneConfig::defaults());
        assert_eq!(ctx.fp_check, FpCheckPolicy::default());
        assert_eq!(ctx.abft, AbftPolicy::default());
        assert_eq!(ctx.probe, ProbePolicy::default());
        // The table's `default` column is the struct's default.
        for var in &VARS {
            let mut ctx = Ctx::defaults();
            assert!(var.apply(&mut ctx, var.default), "{}", var.name);
            assert_eq!(ctx, Ctx::defaults(), "{}", var.name);
        }
    }

    #[test]
    fn several_variables_combine_and_warn_independently() {
        let (ctx, warnings) = Ctx::from_source(source(&[
            ("LA_NUM_THREADS", "3"),
            ("LA_ABFT", "recovery"),
            ("LA_FP_CHECK", "full"),
            ("LA_NUM_THREADS", "-1"),
        ]));
        assert_eq!(ctx.tune.max_threads, 3);
        assert_eq!(ctx.fp_check, FpCheckPolicy::Full);
        assert_eq!(ctx.abft, AbftPolicy::Off);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
    }

    #[test]
    fn an_unknown_la_name_is_reported_once_and_changes_nothing() {
        // A typo, the retired variables (the factorization route is now
        // the thread budget's, and the tuning internals are set in code),
        // and two names that are not the library's business: no `LA_`
        // prefix, or a different case.
        const RETIRED: [&str; 13] = [
            "LA_GESV_MIXED",
            "LA_FACTOR",
            "LA_PAR_FLOPS",
            "LA_NB_GETRF",
            "LA_NB_GEQRF",
            "LA_NB_SYTRF",
            "LA_NB_DEFAULT",
            "LA_CROSSOVER",
            "LA_GEMM_MC",
            "LA_GEMM_KC",
            "LA_GEMM_NC",
            "LA_TILE_NB",
            "LA_OVERSUBSCRIBE",
        ];
        let mut env = vec![("LA_THREDS", "4")];
        env.extend(RETIRED.map(|name| (name, "1")));
        env.extend([("LANG", "C"), ("la_num_threads", "4")]);
        let (ctx, warnings) = Ctx::from_source(source(&env));
        assert_eq!(ctx, Ctx::defaults());
        let expected: Vec<String> = std::iter::once("LA_THREDS")
            .chain(RETIRED)
            .map(|name| format!("{name}: not a library variable (ignored)"))
            .collect();
        assert_eq!(warnings, expected);
        // Known names beside it still land, and are not reported.
        let (ctx, warnings) =
            Ctx::from_source(source(&[("LA_NUM_THREADS", "3"), ("LA_THREDS", "4")]));
        assert_eq!(ctx.tune.max_threads, 3);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
    }

    #[test]
    fn a_value_the_retired_rows_accepted_is_ignored_and_says_so() {
        // Block sizes are set in code now, and the serving settings are
        // fields of `la_serve::ServeConfig`.
        for (name, raw) in [
            ("LA_NB_POTRF", "48"),
            ("LA_SERVE_TARGET_DELAY", "25"),
            ("LA_SERVE_WATCHDOG", "500"),
        ] {
            let (ctx, warnings) = Ctx::from_source(source(&[(name, raw)]));
            assert_eq!(ctx, Ctx::defaults(), "{name}={raw}");
            assert_eq!(
                warnings,
                [format!("{name}: not a library variable (ignored)")]
            );
        }
    }

    #[test]
    fn readme_documents_every_variable() {
        let readme = include_str!("../../../README.md");
        for var in &VARS {
            assert!(
                readme.contains(&format!("| `{}` |", var.name)),
                "README.md's configuration table has no row for {}",
                var.name
            );
        }
        // ...and documents nothing else: every row of a table whose first
        // cell names one `LA_*` variable is a row of `VARS`.
        let names = VARS.map(|var| var.name);
        for row in readme.lines().filter_map(|l| l.strip_prefix("| `LA_")) {
            let name = format!("LA_{}", &row[..row.find('`').unwrap_or(row.len())]);
            assert!(
                names.contains(&name.as_str()),
                "README.md documents {name}, which is not a library variable"
            );
        }
    }

    #[test]
    fn process_environment_reaches_the_global() {
        // CI's `test-checked` / `test-abft` / `test-serve` jobs arm the
        // whole suite through LA_FP_CHECK / LA_ABFT; a parser that dropped
        // them would leave those jobs green and testing nothing.
        let _serial = GLOBAL_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let env = |name: &str| std::env::var(name).ok();
        let (want, _) = Ctx::from_source(process_env());
        let seen = std::thread::spawn(current).join().unwrap();
        assert_eq!(seen, want);
        if env("LA_FP_CHECK").as_deref() == Some("full") {
            assert_eq!(seen.fp_check, FpCheckPolicy::Full);
        }
        if env("LA_ABFT").as_deref() == Some("recover") {
            assert_eq!(seen.abft, AbftPolicy::Recover);
        }
    }

    /// What is in effect on this thread, in comparable form.
    fn in_effect() -> (Ctx, bool, bool, usize) {
        peek(|f| (f.ctx, f.token.is_some(), f.beat.is_some(), f.share))
    }

    /// Runs a stack-semantics test under a scope of its own, so that it
    /// does not observe the process global another test is editing.
    fn under_defaults(test: impl FnOnce()) {
        with(Ctx::defaults(), test)
    }

    #[test]
    fn mixed_nesting_composes_and_unwinds_field_by_field() {
        under_defaults(mixed_nesting);
    }

    fn mixed_nesting() {
        let outer = in_effect();
        let cfg = TuneConfig {
            nb_getrf: 17,
            ..outer.0.tune
        };
        abft::with_policy(AbftPolicy::Verify, || {
            tune::with(cfg, || {
                cancel::with_token(CancelToken::new(), || {
                    // The innermost scope changed one field each.
                    assert_eq!(abft::policy(), AbftPolicy::Verify);
                    assert_eq!(tune::current().nb_getrf, 17);
                    assert!(cancel::current().is_some());
                    assert_eq!(except::policy(), outer.0.fp_check);
                    tune::in_pool_worker(4, || {
                        assert_eq!(in_effect().3, outer.3 * 4);
                        assert!(cancel::current().is_some());
                    });
                });
                assert!(cancel::current().is_none());
                assert_eq!(tune::current().nb_getrf, 17);
            });
            assert_eq!(tune::current().nb_getrf, outer.0.tune.nb_getrf);
            assert_eq!(abft::policy(), AbftPolicy::Verify);
        });
        assert_eq!(in_effect(), outer);
    }

    #[test]
    fn a_panic_inside_any_scope_restores_the_frame() {
        under_defaults(panics_restore);
    }

    fn panics_restore() {
        type Scope = fn(fn());
        let scopes: [(&str, Scope); 9] = [
            ("ctx::with", |f| with(Ctx::defaults(), f)),
            ("tune::with", |f| tune::with(TuneConfig::defaults(), f)),
            ("except::with_policy", |f| {
                except::with_policy(FpCheckPolicy::Full, f)
            }),
            ("abft::with_policy", |f| {
                abft::with_policy(AbftPolicy::Recover, f)
            }),
            ("probe::with_policy", |f| {
                probe::with_policy(ProbePolicy::Counters, f)
            }),
            ("cancel::with_token", |f| {
                cancel::with_token(CancelToken::new(), f)
            }),
            ("cancel::with_heartbeat", |f| {
                cancel::with_heartbeat(Heartbeat::new(), f)
            }),
            ("tune::in_pool_worker", |f| tune::in_pool_worker(16, f)),
            ("Ambient::enter", |f| capture().shared_by(3).enter(f)),
        ];
        let outer = in_effect();
        for (name, scope) in scopes {
            // `resume_unwind` unwinds without running the panic hook, so
            // the expected panics stay out of the test output.
            let died = catch_unwind(|| scope(|| std::panic::resume_unwind(Box::new(()))));
            assert!(died.is_err(), "{name}");
            assert_eq!(in_effect(), outer, "{name} left its frame behind");
        }
    }

    #[test]
    fn update_reaches_unscoped_threads_only() {
        let _serial = GLOBAL_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        // A field nothing in this crate's tests depends on.
        let before = std::thread::spawn(|| current().tune.nb_geqrf)
            .join()
            .unwrap();
        let barrier = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let unscoped = s.spawn(|| {
                assert_eq!(current().tune.nb_geqrf, before);
                barrier.wait(); // the update happens here
                barrier.wait();
                current().tune.nb_geqrf
            });
            let scoped = s.spawn(|| {
                tune::with(tune::current(), || {
                    barrier.wait();
                    barrier.wait();
                    current().tune.nb_geqrf
                })
            });
            barrier.wait();
            update(|c| c.tune.nb_geqrf = before + 1);
            barrier.wait();
            assert_eq!(unscoped.join().unwrap(), before + 1);
            assert_eq!(scoped.join().unwrap(), before);
        });
        tune::update(|t| t.nb_geqrf = before);
        assert_eq!(
            std::thread::spawn(current).join().unwrap().tune.nb_geqrf,
            before
        );
    }

    /// A 2-worker hop: runs `probe` on its worker threads.
    type Hop = fn(&(dyn Fn() + Sync));

    const HOPS: [(&str, Hop); 2] = [
        ("ctx::fan_out", |probe| {
            fan_out(2, 0..4, |_| probe());
        }),
        ("dag::Builder::run", |probe| {
            let mut g = dag::Builder::new();
            for i in 0..4 {
                g.task("probe", &[], &[i], || {
                    probe();
                    0
                });
            }
            g.run();
        }),
    ];

    #[test]
    fn every_hop_carries_the_ambient_and_nothing_else() {
        // A direct read, to check the cached host count against.
        #[allow(clippy::disallowed_methods)]
        let host = std::thread::available_parallelism().map_or(1, |p| p.get());
        let sentinel = Ctx {
            tune: TuneConfig {
                nb_getrf: 17,
                max_threads: 2,
                oversubscribe: true,
                ..TuneConfig::defaults()
            },
            fp_check: FpCheckPolicy::Full,
            abft: AbftPolicy::Verify,
            probe: ProbePolicy::Counters,
        };
        for (hop, run) in HOPS {
            let token = CancelToken::new();
            let outside = token.clone();
            let beat = Heartbeat::new();
            let caller = std::thread::current().id();
            let probes = AtomicUsize::new(0);
            let failures = Mutex::new(Vec::new());
            let check = |ok: bool, what: &str| {
                if !ok {
                    failures.lock().unwrap().push(what.to_string());
                }
            };
            let probe = || {
                probes.fetch_add(1, Ordering::Relaxed);
                check(std::thread::current().id() != caller, "ran on the caller");
                check(
                    current() == sentinel,
                    "Ctx (tune sentinel + three policies)",
                );
                check(tune::current().nb_getrf == 17, "tune::current projection");
                check(except::policy() == FpCheckPolicy::Full, "except::policy");
                check(abft::policy() == AbftPolicy::Verify, "abft::policy");
                check(probe::policy() == ProbePolicy::Counters, "probe::policy");
                // The sibling clamp: a budget that asks for the whole host
                // gets the host divided by the two workers.
                check(
                    TuneConfig::defaults().threads() == (host / 2).clamp(1, 8),
                    "sibling clamp on threads()",
                );
                let beats = beat.beats();
                cancel::cancelled();
                check(beat.beats() > beats, "heartbeat");
                // The probe tags and the job sink: this span is tagged and
                // lands in the caller's job (read after the hop).
                drop(probe::span(probe::Layer::Blas, "hop-test", 0, 0));
                // The ABFT pending fault is a per-job result: it stays
                // behind on the caller's thread.
                check(abft::take_pending().is_none(), "ABFT pending fault crossed");
                // Cancelled from outside, seen inside. Later items of the
                // hop are gated out by `isolated`, hence "at least one".
                outside.cancel();
                check(cancel::cancelled(), "cancel token");
            };
            abft::clear_pending();
            abft::raise("hop-test", 7);
            let ((), job) = with(sentinel, || {
                probe::with_abft(|| {
                    probe::job_scope(|| {
                        cancel::with_token(token, || {
                            cancel::with_heartbeat(beat.clone(), || run(&probe))
                        })
                    })
                })
            });
            let probes = probes.load(Ordering::Relaxed);
            assert!(probes >= 1, "{hop}: no worker ran");
            let failures = failures.into_inner().unwrap();
            assert!(failures.is_empty(), "{hop} lost: {failures:?}");
            let rows: Vec<_> = job.iter().filter(|r| r.routine == "hop-test").collect();
            assert_eq!(rows.len(), 1, "{hop}: abft tag: {rows:?}");
            assert!(rows[0].abft, "{hop} lost the probe tag");
            assert_eq!(rows[0].calls, probes as u64, "{hop} lost the job sink");
            assert_eq!(
                abft::take_pending().map(|f| f.block),
                Some(7),
                "{hop}: the caller's own pending fault must stay with the caller"
            );
        }
    }

    #[test]
    fn fan_out_hands_every_item_out_once_and_reraises_panics() {
        let seen = Mutex::new(Vec::new());
        let ran = fan_out(3, 0..40, |i| seen.lock().unwrap().push(i));
        assert_eq!(ran, 3, "threads that ran");
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
        // One worker: inline, in order, on the caller.
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let ran = fan_out(1, 0..5, |i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(ran, 1, "inline");
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
        let died = catch_unwind(|| {
            fan_out(2, 0..4, |i| {
                if i == 1 {
                    std::panic::resume_unwind(Box::new(()));
                }
            })
        });
        assert!(died.is_err(), "a worker panic must reach the caller");
    }
}
