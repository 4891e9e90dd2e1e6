//! Runtime tuning subsystem — the `ILAENV` of this substrate, made a
//! first-class, *runtime-settable* object instead of a compiled-in table.
//!
//! Every performance knob the BLAS-3 layer and the blocked factorizations
//! consult lives in one [`TuneConfig`]: the thread budget, the flop
//! threshold above which Level-3 operations go parallel and the
//! per-routine block sizes (`NB`), from which the blocked/unblocked
//! crossover follows (two panels, [`TuneConfig::crossover`]). The
//! paper's premise is that `LA_GESV(A, B)` should deliver the performance
//! of the tuned substrate underneath with zero caller changes; this module
//! is where that tuning happens.
//!
//! The configuration is one field of the ambient context
//! ([`crate::ctx::Ctx`]), so it is set the way everything ambient is, in
//! increasing precedence: the `LA_*` environment variables at first use
//! (one table, [`crate::ctx::VARS`]; malformed values are rejected with a
//! warning, never silently dropped), [`update`] for the whole process, and
//! [`with`] for one call tree — worker threads the tree spawns included.
//! Only the fields a user has a reason to set have a variable (thread
//! budget, kernel); the block sizes and the other tuning
//! internals are set in code — by tests and benches through [`with`] —
//! and otherwise keep the defaults the library chose. The `la-serve`
//! settings are not here: they are fields of its own `ServeConfig`.
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
    /// Vectorized microkernel (x86-64, `simd` cargo feature): the widest
    /// tier the host runs, AVX-512F where the CPU has it, else AVX2+FMA.
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
    /// operation may go parallel, and ABFT engages. `0` parallelises
    /// everything the shape allows — useful for tests, ruinous for
    /// performance. Set in code only.
    pub par_flops: usize,
    /// Panel width for LU-family routines (`getrf`, `getri`). Set in code
    /// only.
    pub nb_getrf: usize,
    /// Panel width for the Cholesky family (`potrf`). Set in code only.
    pub nb_potrf: usize,
    /// Panel width for the orthogonal-factorization family
    /// (`geqrf`, `gelqf`, `ormqr`). Set in code only.
    pub nb_geqrf: usize,
    /// Microkernel the packed BLAS-3 path runs (`LA_GEMM_KERNEL`).
    pub gemm_kernel: GemmKernel,
    /// Packed-gemm row block: rows of A packed per cache block. `0` falls
    /// back to the compiled-in default. Set in code only.
    pub gemm_mc: usize,
    /// Packed-gemm depth block: the k-extent packed per panel. `0` falls
    /// back to the compiled-in default. Set in code only.
    pub gemm_kc: usize,
    /// Packed-gemm column block: columns of B packed per cache block. `0`
    /// falls back to the compiled-in default. Set in code only.
    pub gemm_nc: usize,
    /// Block width of the task-graph factorizations, in columns. `0` falls
    /// back to the compiled-in default (see [`TuneConfig::tile_size`]). With
    /// more than one thread, `getrf` and `potrf` take the graph from four
    /// blocks up, `geqrf` from six. Set in code only.
    pub tile_nb: usize,
    /// Permit a thread budget above the detected core count. Off by
    /// default: threads beyond the cores only time-share them, adding
    /// hand-offs and cold caches to the same work, so
    /// [`TuneConfig::threads`] clamps to the core count unless this is
    /// set. The equivalence tests set it to run the parallel machinery —
    /// BLAS-3 column bands, the tile task graph — on any host. Set in code only.
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
            gemm_kernel: GemmKernel::Auto,
            gemm_mc: 0,
            gemm_kc: 0,
            gemm_nc: 0,
            tile_nb: 0,
            oversubscribe: false,
        }
    }

    /// Resolved thread budget: `max_threads`, or the detected core count
    /// (capped at 8) when `max_threads == 0`. Never exceeds the detected
    /// core count unless [`TuneConfig::oversubscribe`] is set — more
    /// threads than cores only add scheduling overhead. Besides sizing
    /// BLAS-3 column bands, this budget picks the route of `getrf`, `potrf`
    /// and `geqrf`: above 1 they run the task graph from four blocks up
    /// (`geqrf` six) and serial blocked below — thresholds measured at two
    /// threads only.
    ///
    /// On a thread that is itself one of `W` siblings of an enclosing
    /// worker pool (see [`in_pool_worker`]), the clamp tightens to
    /// `host / W`: a pool running `W` jobs at once, each of which opens
    /// banded BLAS-3, would otherwise put `W × bands` runnable threads
    /// on `host` cores. `oversubscribe` bypasses this clamp too —
    /// the equivalence tests and bench sweeps that force wide banding on
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

    /// Block size for `routine` (an `ILAENV(1, NAME, OPTS, N1..)` analog;
    /// lowercase LAPACK routine names): the routine's `nb_*` knob, and 32
    /// for a routine without one. No width depends on the order: the
    /// recursive Cholesky panel cuts any width into 32-wide leaves
    /// (EXPERIMENTS.md, "Cholesky at Level-3 speed").
    pub fn nb(&self, routine: &str) -> usize {
        match routine {
            "getrf" | "getri" => self.nb_getrf,
            "potrf" => self.nb_potrf,
            "geqrf" | "gelqf" | "ormqr" => self.nb_geqrf,
            _ => 32,
        }
        .max(1)
    }

    /// Order at or below which `routine` runs unblocked (an
    /// `ILAENV(3, ...)` analog): two panels of its block size — blocking
    /// pays from the third panel on.
    pub fn crossover(&self, routine: &str) -> usize {
        self.nb(routine).saturating_mul(2)
    }

    /// Resolved block width of the task-graph factorizations, which work
    /// in place on blocks of this many whole columns: `tile_nb`, or the
    /// compiled-in default when `tile_nb == 0`. The default (128) is the
    /// narrowest width at which two-thread `getrf` holds its best time
    /// (96, 128, 160 and 192 measured): `potrf` and `geqrf` gain from
    /// narrower blocks, `getrf` loses below 128. It puts the route's
    /// four-block threshold at n = 512 and `geqrf`'s six blocks at 768
    /// (EXPERIMENTS.md, "The task graph factors the caller's matrix in
    /// place").
    pub fn tile_size(&self) -> usize {
        if self.tile_nb > 0 {
            self.tile_nb
        } else {
            128
        }
    }
}

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
        assert_eq!(d.nb("getrf"), 32);
        assert_eq!(d.nb("potrf"), 96);
        assert_eq!(d.nb("ormqr"), 32);
        assert_eq!(d.nb("sytrf"), 32);
        assert_eq!(d.nb("unknown-routine"), 32);
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
        // Regression: a pool worker invoking banded BLAS-3 must not
        // oversubscribe — worker-count × band-count ≤ host cores unless
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
        assert_eq!(cfg.nb("getrf"), 1);
    }

    #[test]
    fn the_crossover_is_two_panels() {
        // A Cholesky up to order 192 is one recursive panel, an LU up to
        // 64 one `getf2` call, and a narrower knob pulls its crossover in.
        let d = TuneConfig::defaults();
        assert_eq!((d.crossover("potrf"), d.crossover("getrf")), (192, 64));
        let narrow = TuneConfig { nb_potrf: 8, ..d };
        assert_eq!((narrow.nb("potrf"), narrow.crossover("potrf")), (8, 16));
    }

    #[test]
    fn tile_size_resolves_default_and_override() {
        let mut cfg = TuneConfig::defaults();
        assert_eq!(cfg.tile_size(), 128);
        cfg.tile_nb = 96;
        assert_eq!(cfg.tile_size(), 96);
    }
}
