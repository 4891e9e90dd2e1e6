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
//!   by the table-driven parser ([`vars`], [`Ctx::from_source`]) and edited
//!   with [`update`]. A malformed value is **rejected, not silently
//!   dropped**: the default is kept and a warning naming the variable, the
//!   rejected value, the accepted spellings and the fallback goes to
//!   stderr. So does one line per `LA_*` name that is not in the table — a
//!   typo (`LA_THREDS`) or a retired variable changes nothing, and says so.
//! * One thread-local stack of frames. A frame is a `Ctx` plus the three
//!   things that belong to a call tree rather than to the process: the
//!   cancel token, the watchdog heartbeat, and the number of pool siblings
//!   the thread shares the host with. [`with`] (and the per-field
//!   projections `tune::with`, `abft::with_policy`, `cancel::with_token`,
//!   …) push a copy of the top frame with one field changed, so mixed
//!   nesting composes; the frame pops on scope exit, panic included.
//! * One thread hop: [`capture`] takes the top frame as an [`Ambient`],
//!   [`Ambient::enter`] installs it on another thread. [`fan_out`] is the
//!   scoped-thread pool every parallel path runs on (BLAS-3 stripes, dag
//!   workers), and [`isolated`] is the per-job robustness wrapper (cancel
//!   gate, panic boundary, ABFT fault scope) every dag task runs under.
//!
//! What deliberately does **not** cross a hop: the ABFT pending fault and
//! its epoch ([`crate::abft::take_pending`]) and the probe span/tag/job
//! stacks. They are per-job state; carrying them would be the cross-job
//! leak the epochs exist to prevent.
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
use crate::probe::ProbePolicy;
use crate::tune::{FactorAlgo, GemmKernel, RefineMode, TuneConfig};

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
    /// `LA_*` name that is not a row of [`vars`]. The process global is
    /// built from the process environment; tests pass a list instead,
    /// because mutating the process environment races with parallel tests.
    pub fn from_source(env: impl IntoIterator<Item = (String, String)>) -> (Self, Vec<String>) {
        let table = vars();
        let mut ctx = Ctx::defaults();
        let mut warnings = Vec::new();
        for (name, raw) in env {
            if !name.starts_with("LA_") {
                continue;
            }
            match table.iter().find(|var| var.name == name) {
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
    /// Positive integer: a block size, where `0` would be meaningless.
    Size(fn(&mut Ctx) -> &mut usize),
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
    fn count(name: &'static str, default: &'static str, f: fn(&mut Ctx) -> &mut usize) -> Self {
        Var {
            name,
            accepts: "an integer >= 0",
            default,
            kind: Kind::Count(f),
        }
    }

    fn size(name: &'static str, default: &'static str, f: fn(&mut Ctx) -> &mut usize) -> Self {
        Var {
            name,
            accepts: "an integer >= 1",
            default,
            kind: Kind::Size(f),
        }
    }

    fn choice(
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
            Kind::Count(field) | Kind::Size(field) => match raw.parse::<usize>() {
                Ok(0) if matches!(self.kind, Kind::Size(_)) => false,
                Ok(v) => {
                    *field(ctx) = v;
                    true
                }
                Err(_) => false,
            },
            Kind::Choice(set) => set(ctx, raw),
        }
    }
}

fn store<E>(field: &mut E, parsed: Option<E>) -> bool {
    parsed.map(|v| *field = v).is_some()
}

fn parse_flag(s: &str) -> Option<bool> {
    match s.to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Some(true),
        "0" | "false" | "no" | "off" | "" => Some(false),
        _ => None,
    }
}

/// Every `LA_*` variable the library reads. Each enum row defers to the
/// type's own `parse`, which is case-insensitive and also accepts the
/// aliases listed here.
pub fn vars() -> [Var; 21] {
    [
        Var::count("LA_NUM_THREADS", "0", |c| &mut c.tune.max_threads),
        Var::count("LA_PAR_FLOPS", "8000000", |c| &mut c.tune.par_flops),
        Var::size("LA_NB_GETRF", "32", |c| &mut c.tune.nb_getrf),
        Var::size("LA_NB_POTRF", "96", |c| &mut c.tune.nb_potrf),
        Var::size("LA_NB_GEQRF", "32", |c| &mut c.tune.nb_geqrf),
        Var::size("LA_NB_SYTRF", "32", |c| &mut c.tune.nb_sytrf),
        Var::size("LA_NB_DEFAULT", "32", |c| &mut c.tune.nb_default),
        Var::count("LA_CROSSOVER", "128", |c| &mut c.tune.crossover),
        Var::choice(
            "LA_GEMM_KERNEL",
            "auto|scalar|unrolled|simd",
            "auto",
            |c, s| store(&mut c.tune.gemm_kernel, GemmKernel::parse(s)),
        ),
        Var::count("LA_GEMM_MC", "0", |c| &mut c.tune.gemm_mc),
        Var::count("LA_GEMM_KC", "0", |c| &mut c.tune.gemm_kc),
        Var::count("LA_GEMM_NC", "0", |c| &mut c.tune.gemm_nc),
        Var::choice("LA_FACTOR", "blocked|dag", "blocked", |c, s| {
            store(&mut c.tune.factor, FactorAlgo::parse(s))
        }),
        Var::size("LA_TILE_NB", "192", |c| &mut c.tune.tile_nb),
        Var::choice(
            "LA_REFINE",
            "working|off, dd|double-double",
            "working",
            |c, s| store(&mut c.tune.refine, RefineMode::parse(s)),
        ),
        Var::count("LA_SERVE_TARGET_DELAY", "0", |c| {
            &mut c.tune.serve_target_delay_ms
        }),
        Var::count("LA_SERVE_WATCHDOG", "0", |c| &mut c.tune.serve_watchdog_ms),
        Var::choice(
            "LA_OVERSUBSCRIBE",
            "1|true|yes|on, 0|false|no|off",
            "off",
            |c, s| store(&mut c.tune.oversubscribe, parse_flag(s)),
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
    ]
}

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
/// [`Ctx`], the cancel token, the heartbeat and the pool share.
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
/// registered as one of `workers` pool siblings. With one worker the items
/// run inline on the calling thread.
///
/// This is the only place the library spawns compute threads: BLAS-3
/// stripes and dag workers are both `fan_out` calls that differ in what an
/// item is.
pub fn fan_out<I, F>(workers: usize, items: I, f: F)
where
    I: Iterator + Send,
    F: Fn(I::Item) + Sync,
{
    if workers <= 1 {
        items.for_each(f);
        return;
    }
    let ambient = capture().shared_by(workers);
    let queue = Mutex::new(items);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                ambient.enter(|| loop {
                    let next = queue.lock().unwrap_or_else(|e| e.into_inner()).next();
                    match next {
                        Some(item) => f(item),
                        None => return,
                    }
                })
            });
        }
    });
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

    /// `c` with the one "0 = compiled-in default" field the table spells by
    /// its resolved value (`LA_TILE_NB`) resolved, for comparisons.
    fn resolved(mut c: Ctx) -> Ctx {
        c.tune.tile_nb = c.tune.tile_size();
        c
    }

    /// One parser case: the variable, a raw value, and either the check
    /// that it landed in the right field (`Some`) or `None` when the value
    /// must be rejected.
    type Case = (&'static str, &'static str, Option<fn(&Ctx) -> bool>);

    const CASES: &[Case] = &[
        // Every variable round-trips a valid value into its own field...
        ("LA_NUM_THREADS", "3", Some(|c| c.tune.max_threads == 3)),
        ("LA_PAR_FLOPS", "1000", Some(|c| c.tune.par_flops == 1000)),
        ("LA_NB_GETRF", "64", Some(|c| c.tune.nb_getrf == 64)),
        ("LA_NB_POTRF", "48", Some(|c| c.tune.nb_potrf == 48)),
        ("LA_NB_GEQRF", "16", Some(|c| c.tune.nb_geqrf == 16)),
        ("LA_NB_SYTRF", "24", Some(|c| c.tune.nb_sytrf == 24)),
        ("LA_NB_DEFAULT", "8", Some(|c| c.tune.nb_default == 8)),
        ("LA_CROSSOVER", "256", Some(|c| c.tune.crossover == 256)),
        (
            "LA_GEMM_KERNEL",
            "scalar",
            Some(|c| c.tune.gemm_kernel == GemmKernel::Scalar),
        ),
        ("LA_GEMM_MC", "64", Some(|c| c.tune.gemm_mc == 64)),
        ("LA_GEMM_KC", "128", Some(|c| c.tune.gemm_kc == 128)),
        ("LA_GEMM_NC", "192", Some(|c| c.tune.gemm_nc == 192)),
        (
            "LA_FACTOR",
            "dag",
            Some(|c| c.tune.factor == FactorAlgo::Dag),
        ),
        ("LA_TILE_NB", "128", Some(|c| c.tune.tile_nb == 128)),
        ("LA_REFINE", "dd", Some(|c| c.tune.refine == RefineMode::Dd)),
        (
            "LA_SERVE_TARGET_DELAY",
            "25",
            Some(|c| c.tune.serve_target_delay_ms == 25),
        ),
        (
            "LA_SERVE_WATCHDOG",
            "500",
            Some(|c| c.tune.serve_watchdog_ms == 500),
        ),
        ("LA_OVERSUBSCRIBE", "1", Some(|c| c.tune.oversubscribe)),
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
        ("LA_PAR_FLOPS", "-1", None),
        ("LA_NB_GETRF", "wide", None),
        ("LA_NB_POTRF", "0", None),
        ("LA_NB_GEQRF", "0", None),
        ("LA_NB_SYTRF", "3.5", None),
        ("LA_NB_DEFAULT", "0", None),
        ("LA_CROSSOVER", "big", None),
        ("LA_GEMM_KERNEL", "fancy", None),
        ("LA_GEMM_MC", "x", None),
        ("LA_GEMM_KC", "1e3", None),
        ("LA_GEMM_NC", "", None),
        ("LA_FACTOR", "magic", None),
        ("LA_TILE_NB", "0", None),
        ("LA_REFINE", "quad", None),
        ("LA_SERVE_TARGET_DELAY", "soon", None),
        ("LA_SERVE_WATCHDOG", "garbage", None),
        ("LA_OVERSUBSCRIBE", "maybe", None),
        // The typos that used to run unprotected without a word:
        ("LA_FP_CHECK", "ful", None),
        ("LA_ABFT", "recovery", None),
        ("LA_PROFILE", "spam", None),
        // Zero stays a valid "auto"/"off" spelling where it means
        // something, and the documented aliases stay accepted.
        ("LA_NUM_THREADS", "0", Some(|c| c.tune.max_threads == 0)),
        ("LA_PAR_FLOPS", "0", Some(|c| c.tune.par_flops == 0)),
        ("LA_GEMM_MC", "0", Some(|c| c.tune.gemm_mc == 0)),
        ("LA_CROSSOVER", "0", Some(|c| c.tune.crossover == 0)),
        (
            "LA_SERVE_TARGET_DELAY",
            "0",
            Some(|c| c.tune.serve_target_delay_ms == 0),
        ),
        ("LA_NB_GETRF", " 64 ", Some(|c| c.tune.nb_getrf == 64)),
        (
            "LA_GEMM_KERNEL",
            "SIMD",
            Some(|c| c.tune.gemm_kernel == GemmKernel::Simd),
        ),
        (
            "LA_REFINE",
            "double-double",
            Some(|c| c.tune.refine == RefineMode::Dd),
        ),
        ("LA_OVERSUBSCRIBE", "Yes", Some(|c| c.tune.oversubscribe)),
        ("LA_OVERSUBSCRIBE", "", Some(|c| !c.tune.oversubscribe)),
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
        for var in &vars() {
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
                    let var = vars().into_iter().find(|v| v.name == name).unwrap();
                    let mut undone = ctx;
                    assert!(var.apply(&mut undone, var.default));
                    assert_eq!(
                        resolved(undone),
                        resolved(Ctx::defaults()),
                        "{name}={raw:?}"
                    );
                }
                None => {
                    assert_eq!(ctx, Ctx::defaults(), "{name}={raw:?} must keep the default");
                    let var = vars().into_iter().find(|v| v.name == name).unwrap();
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
        for var in &vars() {
            let mut ctx = Ctx::defaults();
            assert!(var.apply(&mut ctx, var.default), "{}", var.name);
            assert_eq!(resolved(ctx), resolved(Ctx::defaults()), "{}", var.name);
        }
    }

    #[test]
    fn several_variables_combine_and_warn_independently() {
        let (ctx, warnings) = Ctx::from_source(source(&[
            ("LA_NB_GETRF", "64"),
            ("LA_ABFT", "recovery"),
            ("LA_FP_CHECK", "full"),
            ("LA_TILE_NB", "0"),
        ]));
        assert_eq!(ctx.tune.nb_getrf, 64);
        assert_eq!(ctx.fp_check, FpCheckPolicy::Full);
        assert_eq!(ctx.abft, AbftPolicy::Off);
        assert_eq!(ctx.tune.tile_nb, 0);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
    }

    #[test]
    fn an_unknown_la_name_is_reported_once_and_changes_nothing() {
        // A typo, a variable retired in PR 22, and two names that are not
        // the library's business: no `LA_` prefix, or a different case.
        let (ctx, warnings) = Ctx::from_source(source(&[
            ("LA_THREDS", "4"),
            ("LA_GESV_MIXED", "f16"),
            ("LANG", "C"),
            ("la_num_threads", "4"),
        ]));
        assert_eq!(ctx, Ctx::defaults());
        assert_eq!(
            warnings,
            [
                "LA_THREDS: not a library variable (ignored)",
                "LA_GESV_MIXED: not a library variable (ignored)",
            ]
        );
        // Known names beside it still land, and are not reported.
        let (ctx, warnings) =
            Ctx::from_source(source(&[("LA_NB_GETRF", "64"), ("LA_THREDS", "4")]));
        assert_eq!(ctx.tune.nb_getrf, 64);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
    }

    #[test]
    fn readme_documents_every_variable() {
        let readme = include_str!("../../../README.md");
        for var in &vars() {
            assert!(
                readme.contains(&format!("| `{}` |", var.name)),
                "README.md's configuration table has no row for {}",
                var.name
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
        let before = std::thread::spawn(|| current().tune.serve_watchdog_ms)
            .join()
            .unwrap();
        let barrier = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let unscoped = s.spawn(|| {
                assert_eq!(current().tune.serve_watchdog_ms, before);
                barrier.wait(); // the update happens here
                barrier.wait();
                current().tune.serve_watchdog_ms
            });
            let scoped = s.spawn(|| {
                tune::with(tune::current(), || {
                    barrier.wait();
                    barrier.wait();
                    current().tune.serve_watchdog_ms
                })
            });
            barrier.wait();
            update(|c| c.tune.serve_watchdog_ms = before + 1);
            barrier.wait();
            assert_eq!(unscoped.join().unwrap(), before + 1);
            assert_eq!(scoped.join().unwrap(), before);
        });
        tune::update(|t| t.serve_watchdog_ms = before);
        assert_eq!(
            std::thread::spawn(current)
                .join()
                .unwrap()
                .tune
                .serve_watchdog_ms,
            before
        );
    }

    /// A 2-worker hop: runs `probe` on its worker threads.
    type Hop = fn(&(dyn Fn() + Sync));

    const HOPS: [(&str, Hop); 2] = [
        ("ctx::fan_out", |probe| fan_out(2, 0..4, |_| probe())),
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
                // Per-job state stays behind on the caller's thread.
                check(abft::take_pending().is_none(), "ABFT pending fault crossed");
                // Cancelled from outside, seen inside. Later items of the
                // hop are gated out by `isolated`, hence "at least one".
                outside.cancel();
                check(cancel::cancelled(), "cancel token");
            };
            abft::clear_pending();
            abft::raise("hop-test", 7);
            with(sentinel, || {
                cancel::with_token(token, || {
                    cancel::with_heartbeat(beat.clone(), || run(&probe))
                })
            });
            assert!(probes.load(Ordering::Relaxed) >= 1, "{hop}: no worker ran");
            let failures = failures.into_inner().unwrap();
            assert!(failures.is_empty(), "{hop} lost: {failures:?}");
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
        fan_out(3, 0..40, |i| seen.lock().unwrap().push(i));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
        // One worker: inline, in order, on the caller.
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        fan_out(1, 0..5, |i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
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
