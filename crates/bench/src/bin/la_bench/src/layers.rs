//! The traced run's probes: a request's input replayed through every layer
//! below the stream, each call recorded as a span, and the per-layer
//! metrics derived from the spans' floors.

use crate::alloc::{self, AllocCount};
use crate::gen::{self, Pool, SplitMix64};
use crate::host;
use crate::stats::{median_index, tail_index};
use crate::trace::{self_floor_ns, Floor, SpanId, Trace, LAYER_TREE, REPLAY, STATIC};
use crate::workload::{serve, serve_config, Op, Tally, Workload};
use la_core::{abft, except, probe, tune, Diag, Mat, Scalar, Side, Trans, TuneConfig, Uplo, C64};
use la_serve::Service;
use std::hint::black_box;
use std::time::Instant;

/// Policy reads per `core.policy_read` span; one read is too short to time.
const POLICY_READS: u32 = 256;
/// Replays on which allocations are counted. The counts are exact, so a
/// few suffice, and the rest of the replays time undisturbed code.
const COUNTED_REPLAYS: u64 = 3;

fn timed<R>(
    trace: &mut Trace,
    req: u32,
    parent: SpanId,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    trace.push(req, Some(parent), name, t0, t1);
    r
}

/// Runs `f`, counting its allocations into `fewest` when `on`. Another
/// thread can only add to a count, so the smallest one seen is exact.
fn counting<R>(on: bool, fewest: &mut AllocCount, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let (r, count) = alloc::count(f);
    *fewest = (*fewest).min(count);
    r
}

/// `C := alpha·A·B + beta·C` with an `m × m` result of depth `k`, all three
/// operands untransposed and of leading dimension `ld`: every gemm probed.
#[allow(clippy::too_many_arguments)] // a BLAS signature, as in the crates
fn gemm_nn<T: Scalar>(
    m: usize,
    k: usize,
    alpha: T,
    a: &[T],
    b: &[T],
    beta: T,
    c: &mut [T],
    ld: usize,
) {
    la_blas::gemm(
        Trans::No,
        Trans::No,
        m,
        m,
        k,
        alpha,
        a,
        ld,
        b,
        ld,
        beta,
        c,
        ld,
    )
}

fn stage(dst: &mut Mat<f64>, src: &Mat<f64>) {
    dst.as_mut_slice().copy_from_slice(src.as_slice());
}

/// Order of the f32 and c64 gemm probes: the workload's, capped so that the
/// unvectorised complex kernel does not eat the traced run.
fn type_probe_n(w: &Workload) -> usize {
    w.n.min(384)
}

/// Trailing-update extent of a blocked factorization's first step, or the
/// whole matrix when it fits in one panel.
fn update_extent(n: usize, nb: usize) -> usize {
    if n > nb {
        n - nb
    } else {
        n
    }
}

pub struct Layers {
    w: &'static Workload,
    /// The workload's thread budget swapped for the other one of {1, 2}.
    alt: TuneConfig,
    nb_getrf: usize,
    nb_potrf: usize,
    service_noverify: Service<f64>,
    a: Mat<f64>,
    b: Mat<f64>,
    c: Mat<f64>,
    ipiv: Vec<i32>,
    replays: u64,
    allocs_la90: [AllocCount; 2],
    allocs_job: AllocCount,
}

impl Layers {
    pub fn new(w: &'static Workload) -> Self {
        let cfg = tune::current();
        let never = AllocCount {
            calls: u64::MAX,
            bytes: u64::MAX,
        };
        Layers {
            w,
            alt: TuneConfig {
                max_threads: if w.threads == 1 {
                    host::nproc().min(2)
                } else {
                    1
                },
                ..cfg
            },
            nb_getrf: cfg.nb_getrf.min(w.n),
            nb_potrf: cfg.nb_potrf.min(w.n),
            service_noverify: Service::start(serve_config(false)),
            a: Mat::zeros(w.n, w.n),
            b: Mat::zeros(w.n, w.nrhs),
            c: Mat::zeros(w.n, w.n),
            ipiv: vec![0; w.n],
            replays: 0,
            allocs_la90: [never; 2],
            allocs_job: never,
        }
    }

    /// Probes that need no request: start and stop of a service, and the
    /// square gemm in the other scalar types (at `type_probe_n`) and at the
    /// ROADMAP's n = 1024. Informational, so three repetitions each.
    pub fn static_probes(&mut self, pool: &Pool, trace: &mut Trace) {
        let root = trace.open(0, STATIC, Instant::now());
        for _ in 0..10 {
            let service: Service<f64> = timed(trace, 0, root, "serve.start", || {
                Service::start(serve_config(true))
            });
            timed(trace, 0, root, "serve.shutdown", || service.shutdown());
        }
        let n = type_probe_n(self.w);
        let (g, s) = (&pool.general[0].a, &pool.spd[0].a);
        let gf: Mat<f32> = Mat::from_fn(n, n, |i, j| g[(i, j)] as f32);
        let sf: Mat<f32> = Mat::from_fn(n, n, |i, j| s[(i, j)] as f32);
        let gz: Mat<C64> = Mat::from_fn(n, n, |i, j| C64::new(g[(i, j)], s[(i, j)]));
        let mut rng = SplitMix64::new(1024);
        let (g1k, s1k) = (gen::general(&mut rng, 1024), gen::general(&mut rng, 1024));
        for _ in 0..3 {
            gemm_square(trace, root, "blas.gemm_sq_f32", &gf, &sf);
            gemm_square(trace, root, "blas.gemm_sq_c64", &gz, &gz);
            gemm_square(trace, root, "blas.gemm_sq_n1024", &g1k, &s1k);
        }
        trace.close(root, Instant::now());
    }

    /// Replays system `idx` of the pool through every layer, under request
    /// number `req`. Each solve is checked like a request's.
    pub fn replay(
        &mut self,
        pool: &Pool,
        idx: usize,
        req: u32,
        service: &Service<f64>,
        trace: &mut Trace,
        tally: &mut Tally,
    ) {
        let (n, nrhs) = (self.w.n, self.w.nrhs);
        let counted = self.replays < COUNTED_REPLAYS;
        self.replays += 1;
        let root = trace.open(req, REPLAY, Instant::now());

        let lda = n;
        for (k, op) in Op::BOTH.into_iter().enumerate() {
            let sys = op.system(pool, idx);
            let [factor_span, factor_alt_span, solve_span] = op.lapack_spans();

            // The driver, called directly.
            stage(&mut self.a, &sys.a);
            stage(&mut self.b, &sys.b);
            let (a, b) = (&mut self.a, &mut self.b);
            let ok = counting(counted, &mut self.allocs_la90[k], || {
                timed(trace, req, root, op.la90_span(), || op.solve_direct(a, b))
            });
            timed(trace, req, root, "verify.solve_ratio", || {
                tally.check(sys, ok.then_some(&self.b))
            });

            // The F77-level routines the driver calls, right after it so
            // that both see the same host state; then the factor once more
            // under the other thread budget.
            stage(&mut self.a, &sys.a);
            stage(&mut self.b, &sys.b);
            let mut info = timed(trace, req, root, factor_span, || {
                op.factor(n, self.a.as_mut_slice(), lda, &mut self.ipiv)
            });
            info |= timed(trace, req, root, solve_span, || {
                op.solve(
                    n,
                    nrhs,
                    self.a.as_slice(),
                    lda,
                    &self.ipiv,
                    self.b.as_mut_slice(),
                )
            });
            tally.check(sys, (info == 0).then_some(&self.b));
            if op == Op::Gesv {
                // getrs's first sweep: unit-lower L against the whole
                // right-hand side.
                stage(&mut self.b, &sys.b);
                timed(trace, req, root, "blas.trsm_solve", || {
                    la_blas::trsm(
                        Side::Left,
                        Uplo::Lower,
                        Trans::No,
                        Diag::Unit,
                        n,
                        nrhs,
                        1.0,
                        self.a.as_slice(),
                        lda,
                        self.b.as_mut_slice(),
                        n,
                    )
                });
            }
            stage(&mut self.a, &sys.a);
            let info = tune::with(self.alt, || {
                timed(trace, req, root, factor_alt_span, || {
                    op.factor(n, self.a.as_mut_slice(), lda, &mut self.ipiv)
                })
            });
            assert_eq!(info, 0, "{factor_alt_span} failed");

            // The same system through the service, residual check on and off.
            timed(trace, req, root, "core.clone", || {
                black_box((sys.a.clone(), sys.b.clone()))
            });
            for (svc, rt_span) in [
                (service, op.serve_span()),
                (&self.service_noverify, op.serve_noverify_span()),
            ] {
                let s = counting(counted, &mut self.allocs_job, || serve(svc, op, sys));
                s.record(trace, req, root, rt_span);
                tally.check(sys, s.x.as_ref());
            }
        }

        let (g, p) = (Op::Gesv.system(pool, idx), Op::Posv.system(pool, idx));
        // BLAS-3 in the shapes the factorizations' first step gives it.
        let (ga, pa) = (g.a.as_slice(), p.a.as_slice());
        let mut square = |name, trace: &mut Trace| {
            timed(trace, req, root, name, || {
                gemm_nn(n, n, 1.0, ga, pa, 0.0, self.c.as_mut_slice(), lda)
            })
        };
        square("blas.gemm_sq", trace);
        tune::with(self.alt, || square("blas.gemm_sq.alt", trace));
        let (m, k) = (update_extent(n, self.nb_getrf), self.nb_getrf);
        stage(&mut self.c, &g.a);
        timed(trace, req, root, "blas.gemm_update", || {
            gemm_nn(m, k, -1.0, ga, pa, 1.0, self.c.as_mut_slice(), lda)
        });
        let (m, k) = (update_extent(n, self.nb_potrf), self.nb_potrf);
        stage(&mut self.c, &p.a);
        timed(trace, req, root, "blas.syrk_update", || {
            la_blas::syrk(
                Uplo::Upper,
                Trans::Trans,
                m,
                k,
                -1.0,
                g.a.as_slice(),
                lda,
                1.0,
                self.c.as_mut_slice(),
                lda,
            )
        });

        // What every driver call pays before it computes.
        timed(trace, req, root, "core.screen", || {
            black_box(except::all_finite(g.a.as_slice()) && except::all_finite(g.b.as_slice()))
        });
        timed(trace, req, root, "core.policy_read", || {
            for _ in 0..POLICY_READS {
                black_box((
                    tune::current(),
                    except::policy(),
                    abft::policy(),
                    probe::policy(),
                ));
            }
        });
        trace.close(root, Instant::now());
    }

    pub fn shutdown(&self) {
        self.service_noverify.shutdown();
    }
}

impl Op {
    fn serve_noverify_span(self) -> &'static str {
        match self {
            Op::Gesv => "serve_noverify.gesv",
            Op::Posv => "serve_noverify.posv",
        }
    }

    /// Spans of the factorization, of the same under the other thread
    /// budget, and of the solve.
    fn lapack_spans(self) -> [&'static str; 3] {
        match self {
            Op::Gesv => ["lapack.getrf", "lapack.getrf.alt", "lapack.getrs"],
            Op::Posv => ["lapack.potrf", "lapack.potrf.alt", "lapack.potrs"],
        }
    }

    fn factor(self, n: usize, a: &mut [f64], lda: usize, ipiv: &mut [i32]) -> i32 {
        match self {
            Op::Gesv => la_lapack::getrf(n, n, a, lda, ipiv),
            Op::Posv => la_lapack::potrf(Uplo::Upper, n, a, lda),
        }
    }

    fn solve(
        self,
        n: usize,
        nrhs: usize,
        a: &[f64],
        lda: usize,
        ipiv: &[i32],
        b: &mut [f64],
    ) -> i32 {
        match self {
            Op::Gesv => la_lapack::getrs(Trans::No, n, nrhs, a, lda, ipiv, b, n),
            Op::Posv => la_lapack::potrs(Uplo::Upper, n, nrhs, a, lda, b, n),
        }
    }
}

fn gemm_square<T: Scalar>(
    trace: &mut Trace,
    root: SpanId,
    name: &'static str,
    a: &Mat<T>,
    b: &Mat<T>,
) {
    let n = a.nrows();
    let mut c: Mat<T> = Mat::zeros(n, n);
    timed(trace, 0, root, name, || {
        gemm_nn(
            n,
            n,
            T::one(),
            a.as_slice(),
            b.as_slice(),
            T::zero(),
            c.as_mut_slice(),
            n,
        )
    });
    black_box(c);
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// The per-layer metrics that come from the probe spans and counters; the
/// `run.*` group comes from the stream (see `run::run_metrics`).
pub fn metrics(
    layers: &Layers,
    trace: &Trace,
    tally: &Tally,
    stats: la_serve::ServeStats,
) -> Vec<Metric> {
    let w = layers.w;
    let floors = trace.floors();
    let ns = |name: &str| floors.get(name).map_or(f64::NAN, |f: &Floor| f.ns as f64);
    // The workload's own thread budget is `threads`; `.alt` spans ran under
    // the other one, so the pair gives one-thread time over two-thread time.
    let mt_speedup = |name: &str| {
        let (own, alt) = (ns(name), ns(&format!("{name}.alt")));
        if w.threads == 1 {
            own / alt
        } else {
            alt / own
        }
    };
    let (n, nrhs) = (w.n as f64, w.nrhs as f64);
    let cube = |n: f64| n * n * n;
    let n_typed = type_probe_n(w) as f64;
    let gemm_sq = 2.0 * cube(n) / ns("blas.gemm_sq");
    let getrf = 2.0 / 3.0 * cube(n) / ns("lapack.getrf");
    let potrf = cube(n) / 3.0 / ns("lapack.potrf");
    let m_lu = update_extent(w.n, layers.nb_getrf) as f64;
    let gemm_update = 2.0 * m_lu * m_lu * layers.nb_getrf as f64 / ns("blas.gemm_update");
    let m_ch = update_extent(w.n, layers.nb_potrf) as f64;
    let syrk_update = m_ch * (m_ch + 1.0) * layers.nb_potrf as f64 / ns("blas.syrk_update");
    let trsm_solve = n * n * nrhs / ns("blas.trsm_solve");
    let self_us = |parent: &str| {
        let (_, children) = LAYER_TREE
            .iter()
            .find(|(p, _)| *p == parent)
            .expect("a layer");
        self_floor_ns(&floors, parent, children).map_or(f64::NAN, |ns| ns as f64 / 1e3)
    };
    let both = |f: &dyn Fn(Op) -> f64| Op::BOTH.iter().map(|&op| f(op)).sum::<f64>() / 2.0;
    let rt = trace.sorted_durations(&["serve.gesv", "serve.posv"]);
    let rt_ms = |i: usize| rt[i] as f64 / 1e6;
    let kib = |c: AllocCount| c.bytes as f64 / 1024.0;

    let m = Metric::new;
    vec![
        m("blas.gemm_sq_gflops", "GF/s", gemm_sq),
        m("blas.gemm_update_gflops", "GF/s", gemm_update),
        m("blas.syrk_update_gflops", "GF/s", syrk_update),
        m("blas.trsm_solve_gflops", "GF/s", trsm_solve),
        m("blas.trsm_over_gemm", "ratio", trsm_solve / gemm_sq),
        m("blas.syrk_over_gemm", "ratio", syrk_update / gemm_sq),
        m("blas.gemm_mt_speedup", "ratio", mt_speedup("blas.gemm_sq")),
        m(
            "blas.gemm_sq_gflops_f32",
            "GF/s",
            2.0 * cube(n_typed) / ns("blas.gemm_sq_f32"),
        ),
        m(
            "blas.gemm_sq_gflops_c64",
            "GF/s",
            8.0 * cube(n_typed) / ns("blas.gemm_sq_c64"),
        ),
        m(
            "blas.gemm_sq_gflops_n1024",
            "GF/s",
            2.0 * cube(1024.0) / ns("blas.gemm_sq_n1024"),
        ),
        m("lapack.getrf_ms", "ms", ns("lapack.getrf") / 1e6),
        m("lapack.getrs_ms", "ms", ns("lapack.getrs") / 1e6),
        m("lapack.potrf_ms", "ms", ns("lapack.potrf") / 1e6),
        m("lapack.potrs_ms", "ms", ns("lapack.potrs") / 1e6),
        m("lapack.getrf_over_gemm", "ratio", getrf / gemm_sq),
        m("lapack.potrf_over_gemm", "ratio", potrf / gemm_sq),
        m(
            "lapack.getrf_mt_speedup",
            "ratio",
            mt_speedup("lapack.getrf"),
        ),
        m(
            "lapack.potrf_mt_speedup",
            "ratio",
            mt_speedup("lapack.potrf"),
        ),
        m("la90.gesv_overhead_us", "us", self_us("la90.gesv")),
        m("la90.posv_overhead_us", "us", self_us("la90.posv")),
        m(
            "la90.allocs_per_gesv",
            "count",
            layers.allocs_la90[0].calls as f64,
        ),
        m("la90.alloc_kib_per_gesv", "KiB", kib(layers.allocs_la90[0])),
        m(
            "la90.allocs_per_posv",
            "count",
            layers.allocs_la90[1].calls as f64,
        ),
        m("la90.alloc_kib_per_posv", "KiB", kib(layers.allocs_la90[1])),
        m(
            "core.policy_read_ns",
            "ns",
            ns("core.policy_read") / f64::from(POLICY_READS),
        ),
        m("core.screen_us", "us", ns("core.screen") / 1e3),
        m("core.clone_us", "us", ns("core.clone") / 1e3),
        m("serve.submit_us", "us", ns("serve.submit") / 1e3),
        m(
            "serve.overhead_us",
            "us",
            both(&|op| ns(op.serve_noverify_span()) - ns(op.la90_span())) / 1e3,
        ),
        m(
            "serve.verify_us",
            "us",
            both(&|op| ns(op.serve_span()) - ns(op.serve_noverify_span())) / 1e3,
        ),
        m("serve.start_ms", "ms", ns("serve.start") / 1e6),
        m("serve.shutdown_ms", "ms", ns("serve.shutdown") / 1e6),
        m(
            "serve.allocs_per_job",
            "count",
            layers.allocs_job.calls as f64,
        ),
        m("serve.rt_ms_p50", "ms", rt_ms(median_index(rt.len()))),
        m("serve.rt_ms_p99", "ms", rt_ms(tail_index(rt.len()))),
        m("serve.rejected", "count", stats.rejected as f64),
        m("serve.shed", "count", stats.shed as f64),
        m("serve.degraded", "count", stats.degraded as f64),
        m("verify.resid_eps_max", "eps", tally.resid_max),
        m(
            "verify.solve_ratio_us",
            "us",
            ns("verify.solve_ratio") / 1e3,
        ),
        m("run.replays", "count", layers.replays as f64),
    ]
}
