//! Runtime tuning subsystem — the `ILAENV` of this substrate, made a
//! first-class, *runtime-settable* object instead of a compiled-in table.
//!
//! Every performance knob the BLAS-3 layer and the blocked factorizations
//! consult lives in one [`TuneConfig`]: the thread budget, the flop
//! threshold above which Level-3 operations go parallel, the per-routine
//! block sizes (`NB`) and the blocked/unblocked crossover order. The
//! paper's premise is that `LA_GESV(A, B)` should deliver the performance
//! of the tuned substrate underneath with zero caller changes; this module
//! is where that tuning happens.
//!
//! The configuration is one field of the ambient context
//! ([`crate::ctx::Ctx`]), so it is set the way everything ambient is, in
//! increasing precedence: the `LA_*` environment variables at first use
//! (one table, [`crate::ctx::vars`]; malformed values are rejected with a
//! warning, never silently dropped), [`update`] for the whole process, and
//! [`with`] for one call tree — worker threads the tree spawns included.
//!
//! ```
//! use la_core::tune::{self, TuneConfig};
//! // Force the serial path inside a closure, leaving the process config
//! // untouched:
//! let cfg = TuneConfig { max_threads: 1, ..tune::current() };
//! let r = tune::with(cfg, || tune::current().max_threads);
//! assert_eq!(r, 1);
//! ```

use std::sync::OnceLock;

use crate::ctx;

/// Which microkernel the packed BLAS-3 path drives. Selected through the
/// `gemm_kernel` field of [`TuneConfig`] (env var `LA_GEMM_KERNEL`); the
/// BLAS crate resolves `Auto` to the fastest kernel compiled in and
/// supported by the host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GemmKernel {
    /// Heuristic: the SIMD kernel when the `simd` cargo feature is
    /// compiled in and the host supports it, the unrolled kernel
    /// otherwise. Small products may skip the packed path entirely.
    #[default]
    Auto,
    /// Reference triple-loop microkernel — slow, used as the bitwise
    /// ground truth by the kernel-equivalence tests. Forces the packed
    /// path at every size.
    Scalar,
    /// Explicitly unrolled register-tiled microkernel (portable). Forces
    /// the packed path at every size.
    Unrolled,
    /// Vectorized microkernel (x86-64 AVX2+FMA, `simd` cargo feature).
    /// Falls back to [`GemmKernel::Unrolled`] when the feature is not
    /// compiled in, the host lacks AVX2/FMA, or the scalar type is
    /// complex. Forces the packed path at every size.
    Simd,
}

impl GemmKernel {
    /// Parses the `LA_GEMM_KERNEL` spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(GemmKernel::Auto),
            "scalar" => Some(GemmKernel::Scalar),
            "unrolled" => Some(GemmKernel::Unrolled),
            "simd" => Some(GemmKernel::Simd),
            _ => None,
        }
    }

    /// The canonical spelling, as accepted by [`GemmKernel::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            GemmKernel::Auto => "auto",
            GemmKernel::Scalar => "scalar",
            GemmKernel::Unrolled => "unrolled",
            GemmKernel::Simd => "simd",
        }
    }
}

/// Which algorithm family the dense factorizations (`getrf`, `potrf`,
/// `geqrf`) run. Selected through the `factor` field of [`TuneConfig`]
/// (env var `LA_FACTOR`); the blocked path stays the default until the
/// bench gate proves the DAG wins on the host at hand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FactorAlgo {
    /// Fork-join blocked factorization (panel + striped BLAS-3 trailing
    /// update), the classic LAPACK shape. Default.
    #[default]
    Blocked,
    /// Tile task-graph factorization (`la_core::dag` + `TileMat`):
    /// dependency-tracked tasks over `LA_TILE_NB`-order tiles, so panel
    /// factor, triangular solves and trailing updates of different steps
    /// overlap. Falls back to the blocked path below the crossover order.
    Dag,
}

impl FactorAlgo {
    /// Parses the `LA_FACTOR` spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "blocked" => Some(FactorAlgo::Blocked),
            "dag" => Some(FactorAlgo::Dag),
            _ => None,
        }
    }

    /// The canonical spelling, as accepted by [`FactorAlgo::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            FactorAlgo::Blocked => "blocked",
            FactorAlgo::Dag => "dag",
        }
    }
}

/// Residual precision of the refinement loops. Selected through the
/// `refine` field of [`TuneConfig`] (env var `LA_REFINE`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RefineMode {
    /// Residuals in the working precision — the classic DSGESV regime.
    /// Default.
    #[default]
    Working,
    /// Residuals accumulated in double-double (`la_core::dd`) — the
    /// three-precision GMRES-IR regime and the engine of the `*_x`
    /// extra-precise refinement drivers (xGERFSX semantics).
    Dd,
}

impl RefineMode {
    /// Parses the `LA_REFINE` spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "working" | "off" => Some(RefineMode::Working),
            "dd" | "double-double" => Some(RefineMode::Dd),
            _ => None,
        }
    }

    /// The canonical spelling, as accepted by [`RefineMode::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            RefineMode::Working => "working",
            RefineMode::Dd => "dd",
        }
    }
}

/// Process-wide tuning knobs for the BLAS-3 layer and the blocked
/// factorizations. Plain data — copy it, edit fields, hand it to [`with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneConfig {
    /// Thread budget for parallel BLAS-3. `0` means auto-detect
    /// ([`host_parallelism`], capped at 8). `1` forces every operation
    /// serial.
    pub max_threads: usize,
    /// Effective-flop product (`m·n·k` for `gemm`, the analogous triple
    /// product for the other Level-3 operations) at or above which an
    /// operation may go parallel. `0` parallelises everything the shape
    /// allows — useful for tests, ruinous for performance.
    pub par_flops: usize,
    /// Panel width for LU-family routines (`getrf`, `getri`).
    pub nb_getrf: usize,
    /// Panel width for the Cholesky family (`potrf`).
    pub nb_potrf: usize,
    /// Panel width for the orthogonal-factorization family
    /// (`geqrf`, `gelqf`, `ormqr`).
    pub nb_geqrf: usize,
    /// Panel width for the symmetric-indefinite / tridiagonalization
    /// family (`sytrf`, `sytrd`).
    pub nb_sytrf: usize,
    /// Panel width for any routine without a dedicated knob.
    pub nb_default: usize,
    /// Problem order at or below which blocked algorithms fall back to
    /// their unblocked forms.
    pub crossover: usize,
    /// Test-only fault-injection hook: when `true`, the parallel BLAS-3
    /// panics in one of its worker stripes, exercising the graceful
    /// serial-fallback path. Never read from the environment; exists so
    /// the degradation machinery can be tested without unsafe tricks.
    /// Only honoured in builds with the `fault-inject` cargo feature —
    /// default builds compile the read out of the BLAS-3 hot path
    /// entirely, so setting it there is a no-op.
    #[doc(hidden)]
    pub fault_inject_par: bool,
    /// Microkernel the packed BLAS-3 path runs (`LA_GEMM_KERNEL`).
    pub gemm_kernel: GemmKernel,
    /// Packed-gemm row block: rows of A packed per cache block
    /// (`LA_GEMM_MC`). `0` falls back to the compiled-in default.
    pub gemm_mc: usize,
    /// Packed-gemm depth block: the k-extent packed per panel
    /// (`LA_GEMM_KC`). `0` falls back to the compiled-in default.
    pub gemm_kc: usize,
    /// Packed-gemm column block: columns of B packed per cache block
    /// (`LA_GEMM_NC`). `0` falls back to the compiled-in default.
    pub gemm_nc: usize,
    /// Algorithm family for the dense factorizations (`LA_FACTOR`):
    /// fork-join blocked (default) or the tile task-graph runtime.
    pub factor: FactorAlgo,
    /// Tile order for the task-graph factorizations (`LA_TILE_NB`).
    /// `0` falls back to the compiled-in default (see
    /// [`TuneConfig::tile_size`]).
    pub tile_nb: usize,
    /// Residual precision for the refinement loops (`LA_REFINE`):
    /// working precision (classic) or double-double (three-precision
    /// GMRES-IR regime).
    pub refine: RefineMode,
    /// Target queueing delay for the `la-serve` adaptive admission
    /// controller, in milliseconds (`LA_SERVE_TARGET_DELAY`). When set,
    /// the serve queue bound is sized from observed service times so a
    /// job admitted at the back of the queue still expects to start
    /// within this budget; `0` (the default) keeps the fixed
    /// `queue_depth` behaviour. Lives here rather than in the serve
    /// crate so operators tune it the same way as every other `LA_*`
    /// knob.
    pub serve_target_delay_ms: usize,
    /// Stall tolerance for the `la-serve` stuck-job watchdog, in
    /// milliseconds (`LA_SERVE_WATCHDOG`): a worker whose heartbeat
    /// stands still this long while holding one job is escalated
    /// (cooperative cancel, then respawn). `0` (the default) disables
    /// the watchdog.
    pub serve_watchdog_ms: usize,
    /// Permit a thread budget above the detected core count. Off by
    /// default: oversubscribing a host measurably *slows* BLAS-3 (the
    /// committed thread sweep shows threads=2 slower than threads=1 on a
    /// 1-core host), so [`TuneConfig::threads`] clamps to the core count
    /// unless this is set. Equivalence tests and the bench sweeps set it
    /// to exercise the striped dispatch machinery regardless of host
    /// size.
    pub oversubscribe: bool,
}

impl TuneConfig {
    /// The compiled-in defaults (the values the seed hardcoded).
    pub const fn defaults() -> Self {
        TuneConfig {
            max_threads: 0,
            par_flops: 200 * 200 * 200,
            nb_getrf: 32,
            nb_potrf: 96,
            nb_geqrf: 32,
            nb_sytrf: 32,
            nb_default: 32,
            crossover: 128,
            fault_inject_par: false,
            gemm_kernel: GemmKernel::Auto,
            gemm_mc: 0,
            gemm_kc: 0,
            gemm_nc: 0,
            factor: FactorAlgo::Blocked,
            tile_nb: 0,
            refine: RefineMode::Working,
            serve_target_delay_ms: 0,
            serve_watchdog_ms: 0,
            oversubscribe: false,
        }
    }

    /// Resolved thread budget: `max_threads`, or the detected core count
    /// (capped at 8) when `max_threads == 0`. Never exceeds the detected
    /// core count unless [`TuneConfig::oversubscribe`] is set — running
    /// more BLAS-3 stripes than cores only adds scheduling overhead (the
    /// committed BENCH_blas3.json thread sweep shows threads=2 *slower*
    /// than threads=1 on a 1-core host).
    ///
    /// On a thread that is itself one of `W` siblings of an enclosing
    /// worker pool (see [`in_pool_worker`]), the clamp tightens to
    /// `host / W`: a pool running `W` jobs at once, each of which opens
    /// striped BLAS-3, would otherwise put `W × stripes` runnable threads
    /// on `host` cores. `oversubscribe` bypasses this clamp too —
    /// the equivalence tests and bench sweeps that force wide striping on
    /// small hosts keep working unchanged.
    ///
    /// Pure arithmetic over the fields, [`host_parallelism`] (resolved once
    /// per process) and the pool share: no system call, no allocation.
    pub fn threads(&self) -> usize {
        if self.max_threads > 0 && self.oversubscribe {
            return self.max_threads;
        }
        let host = host_parallelism();
        // One core or a budget of one is serial whatever the pool share,
        // so the common serial call never touches the thread-local.
        if host == 1 || self.max_threads == 1 {
            return 1;
        }
        // Each of the `share` pool siblings running on this host gets an
        // equal slice of the cores (at least one).
        let host_share = if self.oversubscribe {
            host
        } else {
            (host / ctx::peek(|f| f.share)).max(1)
        };
        if self.max_threads > 0 {
            return self.max_threads.min(host_share);
        }
        host_share.min(8)
    }

    /// Block size for `routine` at problem order `n` (an
    /// `ILAENV(1, NAME, OPTS, N1..)` analog; lowercase LAPACK routine
    /// names): the routine's `nb_*` knob, narrowed where the order is
    /// small. Only the Cholesky panel is — at most 32 wide up to order
    /// 256, where a 96-wide panel would leave one or two steps of mostly
    /// Level-2 work (sweep in EXPERIMENTS.md, "A BLAS-3 call costs what it
    /// computes"); the knob stays the upper bound, so a smaller
    /// `LA_NB_POTRF` is honoured at every order.
    pub fn nb(&self, routine: &str, n: usize) -> usize {
        match routine {
            "getrf" | "getri" => self.nb_getrf,
            "potrf" if n <= SMALL_ORDER => self.nb_potrf.min(NB_POTRF_SMALL),
            "potrf" => self.nb_potrf,
            "geqrf" | "gelqf" | "ormqr" => self.nb_geqrf,
            "sytrf" | "sytrd" => self.nb_sytrf,
            _ => self.nb_default,
        }
        .max(1)
    }

    /// Order at or below which `routine` runs unblocked on an order-`n`
    /// problem (an `ILAENV(3, ...)` analog): the `crossover` knob, and in
    /// any case two panels of the block size in effect at that order —
    /// blocking pays from the third panel on.
    pub fn crossover(&self, routine: &str, n: usize) -> usize {
        self.crossover.min(2 * self.nb(routine, n))
    }

    /// Resolved tile order for the task-graph factorizations:
    /// `tile_nb`, or the compiled-in default when `tile_nb == 0`. The
    /// default (192) gives each tile task a few million flops — large
    /// enough to amortize scheduling, small enough for lookahead overlap
    /// at n ≥ 2048.
    pub fn tile_size(&self) -> usize {
        if self.tile_nb > 0 {
            self.tile_nb
        } else {
            192
        }
    }
}

/// Order up to which [`TuneConfig::nb`] narrows the Cholesky panel.
const SMALL_ORDER: usize = 256;

/// The widest Cholesky panel at orders up to [`SMALL_ORDER`].
const NB_POTRF_SMALL: usize = 32;

impl Default for TuneConfig {
    fn default() -> Self {
        Self::defaults()
    }
}

/// The number of hardware threads the process may run on (the standard
/// library's parallelism query; 1 when it cannot tell), resolved **once
/// per process** at first use and fixed for the life of the process:
/// a later change to the affinity mask or the cgroup quota is not seen. On
/// Linux the query is a `sched_getaffinity` call, cgroup-file reads and
/// four heap allocations — about 11 µs — which is why nothing in the
/// library asks twice; [`TuneConfig::threads`] is arithmetic over this
/// value.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    #[allow(clippy::disallowed_methods)] // the one resolving call site
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Declares the current thread to be one of `siblings` concurrently
/// running workers of an enclosing pool for the duration of `f`, so that
/// [`TuneConfig::threads`] hands each worker `host / siblings` cores
/// instead of all of them. Nested pools multiply: a 2-worker pool inside
/// a 4-worker pool leaves each leaf `host / 8`. [`ctx::fan_out`] registers
/// its workers itself; [`TuneConfig::oversubscribe`] bypasses the clamp.
pub fn in_pool_worker<R>(siblings: usize, f: impl FnOnce() -> R) -> R {
    ctx::capture().shared_by(siblings).enter(f)
}

/// The configuration in effect on this thread: the innermost scope's if
/// one is open, the process-global configuration otherwise.
pub fn current() -> TuneConfig {
    ctx::peek(|f| f.ctx.tune)
}

/// Edits the process-global configuration in place:
/// `tune::update(|c| c.max_threads = 4)`.
pub fn update(f: impl FnOnce(&mut TuneConfig)) {
    ctx::update(|c| f(&mut c.tune));
}

/// Runs `f` with `cfg` in effect on the current thread and on every worker
/// the call tree fans out to, restoring the previous state afterwards
/// (also on panic). Nested calls stack.
pub fn with<R>(cfg: TuneConfig, f: impl FnOnce() -> R) -> R {
    ctx::scoped(|frame| frame.ctx.tune = cfg, f)
}

#[cfg(test)]
mod tests {
    // The tests compare `threads()` with a direct read of the host count.
    #![allow(clippy::disallowed_methods)]

    use super::*;

    #[test]
    fn defaults_match_seed_constants() {
        let d = TuneConfig::defaults();
        assert_eq!(d.par_flops, 200 * 200 * 200);
        assert_eq!(d.nb("getrf", 1000), 32);
        assert_eq!(d.nb("potrf", 1000), 96);
        assert_eq!(d.nb("ormqr", 1000), 32);
        assert_eq!(d.nb("unknown-routine", 1000), 32);
        assert_eq!(d.crossover, 128);
    }

    #[test]
    fn scoped_override_stacks_and_restores() {
        let outer = current();
        let a = TuneConfig {
            max_threads: 3,
            ..outer
        };
        let b = TuneConfig {
            max_threads: 7,
            ..outer
        };
        with(a, || {
            assert_eq!(current().max_threads, 3);
            with(b, || assert_eq!(current().max_threads, 7));
            assert_eq!(current().max_threads, 3);
        });
        assert_eq!(current().max_threads, outer.max_threads);
    }

    #[test]
    fn threads_resolution() {
        let host = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let mut cfg = TuneConfig::defaults();
        cfg.max_threads = 5;
        assert_eq!(cfg.threads(), 5.min(host));
        cfg.oversubscribe = true;
        assert_eq!(cfg.threads(), 5);
        cfg.max_threads = 0;
        cfg.oversubscribe = false;
        assert!(cfg.threads() >= 1 && cfg.threads() <= 8);
    }

    #[test]
    fn thread_budget_refuses_to_oversubscribe() {
        // Regression: the committed thread sweep showed threads=2 slower
        // than threads=1 on a 1-core host. A budget above the core count
        // must clamp to the core count unless explicitly overridden.
        let host = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let mut cfg = TuneConfig::defaults();
        cfg.max_threads = host * 4;
        assert_eq!(cfg.threads(), host);
        cfg.oversubscribe = true;
        assert_eq!(cfg.threads(), host * 4);
    }

    #[test]
    fn pool_workers_split_the_host_budget() {
        // Regression: a pool worker invoking striped BLAS-3 must not
        // oversubscribe — worker-count × stripe-count ≤ host cores unless
        // `oversubscribe` is set.
        let host = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let cfg = TuneConfig {
            max_threads: host * 2, // ask for plenty; the clamp decides
            ..TuneConfig::defaults()
        };
        assert_eq!(cfg.threads(), host);
        in_pool_worker(4, || {
            assert_eq!(cfg.threads(), (host / 4).max(1));
            // Nested pools multiply the share.
            in_pool_worker(2, || {
                assert_eq!(cfg.threads(), (host / 8).max(1));
            });
            assert_eq!(cfg.threads(), (host / 4).max(1));
            // Auto-detect (max_threads = 0) honours the share too.
            let auto = TuneConfig::defaults();
            assert_eq!(auto.threads(), (host / 4).clamp(1, 8));
            // Explicit oversubscribe bypasses the clamp entirely.
            let over = TuneConfig {
                oversubscribe: true,
                ..cfg
            };
            assert_eq!(over.threads(), host * 2);
        });
        assert_eq!(cfg.threads(), host, "share restored on scope exit");
        // Restored on panic as well.
        let _ = std::panic::catch_unwind(|| in_pool_worker(16, || panic!("boom")));
        assert_eq!(cfg.threads(), host);
    }

    #[test]
    fn gemm_kernel_parses_and_round_trips() {
        for k in [
            GemmKernel::Auto,
            GemmKernel::Scalar,
            GemmKernel::Unrolled,
            GemmKernel::Simd,
        ] {
            assert_eq!(GemmKernel::parse(k.as_str()), Some(k));
            assert_eq!(GemmKernel::parse(&k.as_str().to_uppercase()), Some(k));
        }
        assert_eq!(GemmKernel::parse("fancy"), None);
        assert_eq!(TuneConfig::defaults().gemm_kernel, GemmKernel::Auto);
    }

    #[test]
    fn nb_never_zero() {
        let mut cfg = TuneConfig::defaults();
        cfg.nb_getrf = 0;
        assert_eq!(cfg.nb("getrf", 100), 1);
    }

    #[test]
    fn small_orders_narrow_the_cholesky_panel_and_pull_in_its_crossover() {
        let d = TuneConfig::defaults();
        assert_eq!((d.nb("potrf", 256), d.nb("potrf", 257)), (32, 96));
        assert_eq!((d.nb("getrf", 96), d.nb("getrf", 768)), (32, 32));
        // Two panels of the width in effect bind below the knob.
        assert_eq!(
            (d.crossover("potrf", 96), d.crossover("getrf", 96)),
            (64, 64)
        );
        assert_eq!(d.crossover("potrf", 768), 128);
        // The knob stays the upper bound at every order.
        let narrow = TuneConfig { nb_potrf: 8, ..d };
        assert_eq!((narrow.nb("potrf", 96), narrow.nb("potrf", 768)), (8, 8));
        assert_eq!(narrow.crossover("potrf", 96), 16);
    }

    #[test]
    fn factor_algo_parses_and_round_trips() {
        for f in [FactorAlgo::Blocked, FactorAlgo::Dag] {
            assert_eq!(FactorAlgo::parse(f.as_str()), Some(f));
            assert_eq!(FactorAlgo::parse(&f.as_str().to_uppercase()), Some(f));
        }
        assert_eq!(FactorAlgo::parse("magic"), None);
        assert_eq!(
            TuneConfig::defaults().factor,
            FactorAlgo::Blocked,
            "blocked stays the default until the gate proves the DAG wins"
        );
    }

    #[test]
    fn tile_size_resolves_default_and_override() {
        let mut cfg = TuneConfig::defaults();
        assert_eq!(cfg.tile_size(), 192);
        cfg.tile_nb = 96;
        assert_eq!(cfg.tile_size(), 96);
    }

    #[test]
    fn refine_mode_parses_and_round_trips() {
        for r in [RefineMode::Working, RefineMode::Dd] {
            assert_eq!(RefineMode::parse(r.as_str()), Some(r));
        }
        assert_eq!(RefineMode::parse("quad"), None);
        assert_eq!(TuneConfig::defaults().refine, RefineMode::Working);
    }
}
