//! The workloads and the request stream: stage an input, time one
//! `LA_GESV` or `LA_POSV` solve as its caller sees it, check the answer.
//! Only the solve is inside the timed interval.

use crate::gen::{self, Pool, System};
use crate::stats::Samples;
use crate::trace::{SpanId, Trace, REQUEST};
use la_core::{tune, Mat, Uplo};
use la_serve::{JobSpec, ServeConfig, Service, SolveOp};
use std::time::Instant;

/// How a request reaches the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// A direct `la90::gesv` / `la90::posv` call.
    Direct,
    /// `Service::submit` → `JobHandle::wait`, one request in flight.
    Serve,
}

pub struct Workload {
    pub name: &'static str,
    pub n: usize,
    pub nrhs: usize,
    /// `TuneConfig::max_threads` for the whole run.
    pub threads: usize,
    pub route: Route,
    /// Distinct systems of each kind the stream cycles through.
    pub pool: usize,
    /// Verified gesv+posv pairs that end set-up: enough to run the stack's
    /// lazy initialisation, few enough that set-up time is mostly its own
    /// work and not FMA-bound solving, which this class of host does not
    /// time repeatably. Fixed, so set-up does the same work on every commit.
    pub warmup_pairs: usize,
}

/// All f64, one process. `BENCHMARK.json` carries the same names with the
/// reason each was chosen.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "small_direct",
        n: 96,
        nrhs: 1,
        threads: 1,
        route: Route::Direct,
        pool: 32,
        warmup_pairs: 16,
    },
    Workload {
        name: "large_factor",
        n: 768,
        nrhs: 1,
        threads: 1,
        route: Route::Direct,
        pool: 4,
        warmup_pairs: 2,
    },
    Workload {
        name: "large_factor_mt",
        n: 768,
        nrhs: 1,
        threads: 2,
        route: Route::Direct,
        pool: 4,
        warmup_pairs: 2,
    },
    Workload {
        name: "wide_rhs",
        n: 256,
        nrhs: 1024,
        threads: 1,
        route: Route::Direct,
        pool: 4,
        warmup_pairs: 2,
    },
    Workload {
        name: "serve_closed",
        n: 96,
        nrhs: 1,
        threads: 1,
        route: Route::Serve,
        pool: 32,
        // Each served round trip wakes a thread on the other core, which in
        // a fresh process costs either microseconds or a millisecond, for
        // the whole process: one pair keeps that out of `setup_s`.
        warmup_pairs: 1,
    },
];

/// LAPACK's `THRESH`: a solve whose `la_verify::solve_ratio` exceeds it
/// counts as failed.
pub const RATIO_LIMIT: f64 = 30.0;

/// Samples kept per operation for the medians and tails (1 MiB each);
/// about three times what the fastest workload produces in a run.
const SAMPLE_CAP: usize = 1 << 17;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Gesv,
    Posv,
}

impl Op {
    pub const BOTH: [Op; 2] = [Op::Gesv, Op::Posv];

    fn serve_op(self) -> SolveOp {
        match self {
            Op::Gesv => SolveOp::Gesv,
            Op::Posv => SolveOp::Posv(Uplo::Upper),
        }
    }

    pub fn system(self, pool: &Pool, idx: usize) -> &System {
        match self {
            Op::Gesv => &pool.general[idx],
            Op::Posv => &pool.spd[idx],
        }
    }

    /// The driver exactly as a caller of the library writes it.
    pub fn solve_direct(self, a: &mut Mat<f64>, b: &mut Mat<f64>) -> bool {
        match self {
            Op::Gesv => la90::gesv(a, b),
            Op::Posv => la90::posv(a, b),
        }
        .is_ok()
    }

    pub fn la90_span(self) -> &'static str {
        match self {
            Op::Gesv => "la90.gesv",
            Op::Posv => "la90.posv",
        }
    }

    pub fn serve_span(self) -> &'static str {
        match self {
            Op::Gesv => "serve.gesv",
            Op::Posv => "serve.posv",
        }
    }
}

/// Operations attempted and failed, and the worst residual accepted.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub resid_max: f64,
}

impl Tally {
    /// Checks one answer (`None`: the solve returned an error or was
    /// rejected). Runs outside every timed interval.
    pub fn check(&mut self, sys: &System, x: Option<&Mat<f64>>) {
        self.attempted += 1;
        match x.map(|x| la_verify::solve_ratio(&sys.a, x, &sys.b)) {
            Some(ratio) if ratio <= RATIO_LIMIT => self.resid_max = self.resid_max.max(ratio),
            _ => self.failed += 1,
        }
    }
}

/// One served round trip: the clones are staging, the timed interval runs
/// from building the `JobSpec` to `wait` returning.
pub struct Served {
    pub staged: Instant,
    pub submitted: Instant,
    pub done: Instant,
    pub x: Option<Mat<f64>>,
}

impl Served {
    /// The round trip as a span `name` with its two phases as children.
    pub fn record(&self, trace: &mut Trace, request: u32, parent: SpanId, name: &'static str) {
        let rt = trace.push(request, Some(parent), name, self.staged, self.done);
        trace.push(
            request,
            Some(rt),
            "serve.submit",
            self.staged,
            self.submitted,
        );
        trace.push(request, Some(rt), "serve.wait", self.submitted, self.done);
    }
}

pub fn serve(service: &Service<f64>, op: Op, sys: &System) -> Served {
    let (a, b) = (sys.a.clone(), sys.b.clone());
    let staged = Instant::now();
    let handle = service.submit(JobSpec::new(op.serve_op(), a, b));
    let submitted = Instant::now();
    let out = handle.and_then(|h| h.wait());
    let done = Instant::now();
    Served {
        staged,
        submitted,
        done,
        x: out.ok().map(|o| o.x),
    }
}

pub fn serve_config(verify_residual: bool) -> ServeConfig {
    ServeConfig {
        workers: 1,
        verify_residual,
        ..ServeConfig::default()
    }
}

pub struct Timing {
    /// The caller-visible solve.
    pub solve_ns: u64,
    /// Staging, solve and check together.
    pub total_ns: u64,
}

/// Latencies of the requests of one kind (traced or not) in a run.
pub struct Stream {
    pub gesv: Samples,
    pub posv: Samples,
    pub busy_ns: u64,
}

impl Stream {
    pub fn new() -> Self {
        Stream::with_capacity(SAMPLE_CAP)
    }

    fn with_capacity(cap: usize) -> Self {
        Stream {
            gesv: Samples::with_capacity(cap),
            posv: Samples::with_capacity(cap),
            busy_ns: 0,
        }
    }

    fn record(&mut self, op: Op, t: Timing) {
        match op {
            Op::Gesv => self.gesv.push(t.solve_ns),
            Op::Posv => self.posv.push(t.solve_ns),
        }
        self.busy_ns += t.total_ns;
    }
}

/// A set-up benchmark: inputs generated, service started, warm-up done.
pub struct Bench {
    w: &'static Workload,
    pub pool: Pool,
    pub service: Option<Service<f64>>,
    pub tally: Tally,
    cursor: usize,
    requests: u32,
    a: Mat<f64>,
    b: Mat<f64>,
}

impl Bench {
    /// Everything `setup_s` covers. `with_service` forces a service for
    /// the direct workloads too (the traced run replays through it).
    pub fn setup(w: &'static Workload, seed: u64, with_service: bool) -> Self {
        tune::update(|c| c.max_threads = w.threads);
        let pool = gen::pool(seed, w.n, w.nrhs, w.pool);
        let service =
            (with_service || w.route == Route::Serve).then(|| Service::start(serve_config(true)));
        let mut bench = Bench {
            w,
            pool,
            service,
            tally: Tally::default(),
            cursor: 0,
            requests: 0,
            a: Mat::zeros(w.n, w.n),
            b: Mat::zeros(w.n, w.nrhs),
        };
        let mut discarded = Stream::with_capacity(0);
        for _ in 0..w.warmup_pairs {
            bench.pair(&mut discarded, None);
        }
        bench
    }

    /// Index of the system the next pair solves.
    pub fn next_index(&self) -> usize {
        self.pool.order[self.cursor % self.pool.order.len()]
    }

    /// Number of the most recent request.
    pub fn last_request(&self) -> u32 {
        self.requests
    }

    /// One gesv and one posv request on the next system of the cycle;
    /// alternating them gives both the same host conditions.
    pub fn pair(&mut self, stream: &mut Stream, mut trace: Option<&mut Trace>) {
        let idx = self.next_index();
        self.cursor += 1;
        for op in Op::BOTH {
            let t = self.request(op, idx, trace.as_deref_mut());
            stream.record(op, t);
        }
    }

    fn request(&mut self, op: Op, idx: usize, trace: Option<&mut Trace>) -> Timing {
        self.requests += 1;
        let sys = op.system(&self.pool, idx);
        let begin = Instant::now();
        let (t0, t1);
        let mut served = None;
        let x = match self.w.route {
            Route::Direct => {
                self.a.as_mut_slice().copy_from_slice(sys.a.as_slice());
                self.b.as_mut_slice().copy_from_slice(sys.b.as_slice());
                t0 = Instant::now();
                let ok = op.solve_direct(&mut self.a, &mut self.b);
                t1 = Instant::now();
                ok.then_some(&self.b)
            }
            Route::Serve => {
                let service = self.service.as_ref().expect("serve route has a service");
                let s = served.insert(serve(service, op, sys));
                (t0, t1) = (s.staged, s.done);
                s.x.as_ref()
            }
        };
        self.tally.check(sys, x);
        let end = Instant::now();
        if let Some(tr) = trace {
            let req = self.requests;
            let root = tr.open(req, REQUEST, begin);
            tr.push(req, Some(root), "harness.stage", begin, t0);
            match &served {
                None => {
                    tr.push(req, Some(root), op.la90_span(), t0, t1);
                }
                Some(s) => s.record(tr, req, root, op.serve_span()),
            }
            tr.push(req, Some(root), "verify.solve_ratio", t1, end);
            tr.close(root, end);
        }
        Timing {
            solve_ns: (t1 - t0).as_nanos() as u64,
            total_ns: (end - begin).as_nanos() as u64,
        }
    }
}
