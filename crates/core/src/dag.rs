//! Dependency-tracked task-graph runtime — the engine under the
//! task-graph factorizations (PLASMA-style superscalar scheduling).
//!
//! A blocked factorization is a chain of steps: the trailing update of
//! step `k` finishes before the panel of step `k+1` starts, so a second
//! core could only help inside each BLAS-3 call — too little work per
//! fork to pay for it, which is why the blocked route runs serial. This
//! module removes that barrier: an algorithm *declares* its
//! tasks with the resources (column blocks, workspaces) each one reads and
//! writes, the [`Builder`] infers the RAW/WAR/WAW edges sequential-task-
//! flow style, and [`Builder::run`] executes the graph on a scoped worker
//! pool that starts any task the moment its predecessors finish.
//!
//! The robustness contract is per *task* — every body runs inside
//! [`crate::ctx::isolated`]:
//!
//! * **Panic isolation** — a task body that panics is caught at the task
//!   boundary and recorded as [`crate::cancel::INFO_PANICKED`] (`-104`);
//!   the graph aborts (dependents of a poisoned block must not run) but
//!   already-running siblings finish normally.
//! * **Cancellation checkpoints** — the inherited [`crate::cancel`] token
//!   is checked before every task body, so a deadline lands within one
//!   task's work; the cancelled task records
//!   [`crate::cancel::INFO_CANCELLED`] (`-103`) and the rest of the graph
//!   is skipped.
//! * **Per-task ABFT scoping** — a soft fault detected by a checksummed
//!   BLAS-3 call inside one task surfaces as *that task's*
//!   `INFO = -102`, never a sibling's.
//! * **Policy inheritance & no oversubscription** — workers run under the
//!   submitting thread's ambient state ([`crate::ctx::fan_out`]: scoped
//!   policies, cancel token, heartbeat) and are registered as pool
//!   siblings, so BLAS-3 opened inside a task divides the host instead of
//!   multiplying with the worker count.
//!
//! Among the tasks ready at one moment, [`Builder::run`] starts the one
//! with the longest chain of successors still ahead of it, so a
//! factorization's next panel overtakes the trailing updates that became
//! ready with it instead of queueing behind them.
//!
//! [`Builder::run`] also records the graph's shape — task count, edge
//!   count, critical-path length, worker occupancy — on the innermost
//! active probe span ([`crate::probe::note_dag`]), so `LA_PROFILE=spans`
//! shows what the scheduler actually did.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::{ctx, probe, tune};

/// Handle to a task inside one [`Builder`] (its submission index).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TaskId(pub usize);

type Body<'a> = Box<dyn FnOnce() -> i32 + Send + 'a>;

struct Node<'a> {
    label: &'static str,
    body: Mutex<Option<Body<'a>>>,
    succs: Vec<usize>,
    npred: usize,
}

#[derive(Default)]
struct ResState {
    last_writer: Option<usize>,
    /// Readers since the last write (cleared on every write).
    readers: Vec<usize>,
}

/// Shape and utilization of one executed graph.
#[derive(Copy, Clone, Debug, Default)]
pub struct GraphStats {
    /// Number of tasks executed (or skipped by an abort).
    pub tasks: usize,
    /// Number of dependency edges the builder inferred.
    pub edges: usize,
    /// Length of the longest dependency chain, in tasks (`1` for a graph
    /// of independent tasks, `0` for an empty graph).
    pub critical_path: usize,
    /// Workers the scheduler ran.
    pub workers: usize,
    /// Sum of task-body wall time across workers, nanoseconds.
    pub busy_nanos: u64,
    /// Wall time of the whole graph execution, nanoseconds.
    pub wall_nanos: u64,
}

impl GraphStats {
    /// Fraction of the pool's wall-clock capacity spent inside task
    /// bodies: `busy / (workers · wall)`, in `[0, 1]`-ish (timer noise
    /// can nudge it past 1 on trivial graphs).
    pub fn occupancy(&self) -> f64 {
        if self.workers == 0 || self.wall_nanos == 0 {
            return 0.0;
        }
        self.busy_nanos as f64 / (self.workers as f64 * self.wall_nanos as f64)
    }
}

/// Outcome of [`Builder::run`]: one raw `INFO` per task (submission
/// order) plus the graph shape.
#[derive(Debug)]
pub struct RunResult {
    /// Per-task `INFO` codes, indexed by [`TaskId`]. Tasks skipped by an
    /// abort keep `0`.
    pub infos: Vec<i32>,
    /// Shape and utilization of the executed graph.
    pub stats: GraphStats,
}

impl RunResult {
    /// The combined `INFO` under the factorization convention: the first
    /// (lowest submission index) negative code if any task failed,
    /// cancelled, or panicked; otherwise the first positive code
    /// (numerical singularity); otherwise `0`.
    pub fn info(&self) -> i32 {
        if let Some(&neg) = self.infos.iter().find(|&&i| i < 0) {
            return neg;
        }
        self.infos.iter().copied().find(|&i| i > 0).unwrap_or(0)
    }
}

/// Builds a task graph by sequential-task-flow declaration: submit tasks
/// in program order with the resource ids each reads and writes, and the
/// builder infers every RAW, WAR, and WAW dependency.
///
/// Resource ids are plain `usize`, numbered by the algorithm: blocks of
/// the matrix, pivot vectors, per-step workspaces.
#[derive(Default)]
pub struct Builder<'a> {
    tasks: Vec<Node<'a>>,
    resources: HashMap<usize, ResState>,
    edges: usize,
}

impl<'a> Builder<'a> {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks submitted so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Submits a task. `reads` and `writes` are the resource ids the body
    /// touches (a resource both read and written belongs in `writes`
    /// alone); `body` returns a raw `INFO` code. Dependencies on earlier
    /// tasks are inferred; submission order is a valid serial order.
    pub fn task(
        &mut self,
        label: &'static str,
        reads: &[usize],
        writes: &[usize],
        body: impl FnOnce() -> i32 + Send + 'a,
    ) -> TaskId {
        let id = self.tasks.len();
        let mut preds: Vec<usize> = Vec::new();
        for &r in reads {
            let st = self.resources.entry(r).or_default();
            if let Some(w) = st.last_writer {
                preds.push(w); // RAW
            }
        }
        for &w in writes {
            let st = self.resources.entry(w).or_default();
            if let Some(lw) = st.last_writer {
                preds.push(lw); // WAW
            }
            preds.extend(st.readers.iter().copied()); // WAR
        }
        preds.sort_unstable();
        preds.dedup();
        preds.retain(|&p| p != id);
        let npred = preds.len();
        self.edges += npred;
        for &p in &preds {
            self.tasks[p].succs.push(id);
        }
        self.tasks.push(Node {
            label,
            body: Mutex::new(Some(Box::new(body))),
            succs: Vec::new(),
            npred,
        });
        // Update resource state *after* computing dependencies.
        for &r in reads {
            self.resources.entry(r).or_default().readers.push(id);
        }
        for &w in writes {
            let st = self.resources.entry(w).or_default();
            st.last_writer = Some(id);
            st.readers.clear();
        }
        TaskId(id)
    }

    /// Executes the graph and returns the per-task `INFO` codes plus the
    /// graph shape. The worker count is the [`tune`] thread budget
    /// clamped to the task count; a budget of 1 runs every task inline on
    /// the calling thread **in submission order** (the deterministic
    /// serial schedule). More workers take the ready task with the longest
    /// remaining chain first, the lowest submission index among equals.
    /// Also records the shape on the innermost active probe span via
    /// [`probe::note_dag`].
    pub fn run(self) -> RunResult {
        let total = self.tasks.len();
        // Tasks on the longest chain from each task to a sink, itself
        // included: successors always have larger indices.
        let mut rank = vec![1usize; total];
        for i in (0..total).rev() {
            rank[i] += self.tasks[i]
                .succs
                .iter()
                .map(|&s| rank[s])
                .max()
                .unwrap_or(0);
        }
        let critical_path = rank.iter().copied().max().unwrap_or(0);
        let edges = self.edges;
        let planned = tune::current().threads().min(total).max(1);
        let started = Instant::now();
        let busy = AtomicU64::new(0);

        let mut infos = vec![0i32; total];
        let tasks = self.tasks;

        // One task under the per-task robustness contract (module docs).
        let run_one = |node: &Node<'a>| -> i32 {
            let t0 = Instant::now();
            let info = ctx::isolated(|| {
                let body = node
                    .body
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("task body taken twice");
                body()
            });
            busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let _ = node.label; // labels exist for debugging/inspection
            info
        };

        let workers = if planned <= 1 {
            // Inline path: submission order is a valid topological order
            // (dependencies only ever point backwards), and it is the
            // *deterministic* schedule the equivalence tests pin against.
            let mut abort = false;
            for (node, slot) in tasks.iter().zip(infos.iter_mut()) {
                if abort {
                    break;
                }
                *slot = run_one(node);
                if *slot < 0 {
                    abort = true;
                }
            }
            1
        } else {
            struct Sched {
                ready: BinaryHeap<(usize, Reverse<usize>)>,
                npred: Vec<usize>,
                infos: Vec<i32>,
                done: usize,
                abort: bool,
            }
            let state = Mutex::new(Sched {
                ready: tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.npred == 0)
                    .map(|(i, _)| (rank[i], Reverse(i)))
                    .collect(),
                npred: tasks.iter().map(|t| t.npred).collect(),
                infos: std::mem::take(&mut infos),
                done: 0,
                abort: false,
            });
            let ready_cv = Condvar::new();

            let ran = ctx::fan_out(planned, 0..planned, |_| loop {
                let (task, skip) = {
                    let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        if let Some((_, Reverse(t))) = st.ready.pop() {
                            break (t, st.abort);
                        }
                        if st.done == tasks.len() {
                            return;
                        }
                        st = ready_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                };
                // An aborted graph drains without running bodies:
                // dependents of a poisoned or cancelled block must not
                // execute.
                let info = if skip { 0 } else { run_one(&tasks[task]) };
                let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
                st.infos[task] = info;
                if info < 0 {
                    st.abort = true;
                }
                for &succ in &tasks[task].succs {
                    st.npred[succ] -= 1;
                    if st.npred[succ] == 0 {
                        st.ready.push((rank[succ], Reverse(succ)));
                    }
                }
                st.done += 1;
                // Wake siblings: new work, or completion.
                ready_cv.notify_all();
            });
            infos = state.into_inner().unwrap_or_else(|e| e.into_inner()).infos;
            ran
        };

        let stats = GraphStats {
            tasks: total,
            edges,
            critical_path,
            workers,
            busy_nanos: busy.into_inner(),
            wall_nanos: started.elapsed().as_nanos() as u64,
        };
        probe::note_dag(probe::DagShape {
            tasks: stats.tasks as u64,
            edges: stats.edges as u64,
            critical_path: stats.critical_path as u64,
            workers: stats.workers as u64,
            occupancy: stats.occupancy(),
        });
        RunResult { infos, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abft::{self, INFO_SOFT_FAULT};
    use crate::cancel;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn wide(threads: usize) -> tune::TuneConfig {
        tune::TuneConfig {
            max_threads: threads,
            oversubscribe: true,
            ..tune::TuneConfig::defaults()
        }
    }

    /// Keeps the deliberate panics of these tests out of the output.
    fn quiet_expected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info.payload().downcast_ref::<&str>().copied();
                if msg != Some("dag task dies") {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn raw_war_waw_edges_order_execution() {
        // write(0) → read(0)+write(1) → read(1), plus a WAR back onto 0.
        let log = Mutex::new(Vec::new());
        let mut g = Builder::new();
        g.task("w0", &[], &[0], || {
            log.lock().unwrap().push(0);
            0
        });
        g.task("r0w1", &[0], &[1], || {
            log.lock().unwrap().push(1);
            0
        });
        g.task("r1", &[1], &[], || {
            log.lock().unwrap().push(2);
            0
        });
        g.task("w0-again", &[], &[0], || {
            log.lock().unwrap().push(3);
            0
        });
        let res = tune::with(wide(4), || g.run());
        assert_eq!(res.info(), 0);
        let order = log.into_inner().unwrap();
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(0) < pos(1), "RAW: writer before reader");
        assert!(pos(1) < pos(2), "RAW chain");
        assert!(pos(1) < pos(3), "WAR: reader of 0 before its re-writer");
        assert_eq!(res.stats.tasks, 4);
        assert!(res.stats.critical_path >= 3);
    }

    #[test]
    fn independent_tasks_all_run_and_critical_path_is_one() {
        let hits = AtomicUsize::new(0);
        let mut g = Builder::new();
        for i in 0..32 {
            g.task("ind", &[], &[100 + i], || {
                hits.fetch_add(1, Ordering::Relaxed);
                0
            });
        }
        let res = tune::with(wide(4), || g.run());
        assert_eq!(hits.load(Ordering::Relaxed), 32);
        assert_eq!(res.stats.critical_path, 1);
        assert_eq!(res.stats.edges, 0);
        assert!(res.stats.occupancy() >= 0.0);
    }

    #[test]
    fn the_longest_remaining_chain_starts_first() {
        // After the root, six leaves and a two-task chain become ready at
        // once; the chain's head is submitted last. A leaf waits (up to a
        // bound) for the head to have started: first-in-first-out, both
        // workers would sit in leaves and the head would start late.
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;
        let head_started = AtomicBool::new(false);
        let late = AtomicUsize::new(0);
        let mut g = Builder::new();
        g.task("root", &[], &[0], || 0);
        for i in 0..6 {
            let (head_started, late) = (&head_started, &late);
            g.task("leaf", &[0], &[10 + i], move || {
                let t0 = Instant::now();
                while !head_started.load(Ordering::Acquire) {
                    if t0.elapsed() > Duration::from_secs(2) {
                        late.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    std::thread::yield_now();
                }
                0
            });
        }
        g.task("head", &[0], &[1], || {
            head_started.store(true, Ordering::Release);
            0
        });
        g.task("tail", &[1], &[2], || 0);
        let res = tune::with(wide(2), || g.run());
        assert_eq!(res.info(), 0);
        assert_eq!(res.stats.critical_path, 3);
        assert_eq!(late.into_inner(), 0, "a leaf ran before the chain's head");
    }

    #[test]
    fn serial_budget_runs_inline_in_submission_order() {
        let log = Mutex::new(Vec::new());
        let mut g = Builder::new();
        for i in 0..10usize {
            // All independent — a parallel scheduler could permute them;
            // the serial path must not.
            let log = &log;
            g.task("t", &[], &[i], move || {
                log.lock().unwrap().push(i);
                0
            });
        }
        tune::with(
            tune::TuneConfig {
                max_threads: 1,
                ..tune::TuneConfig::defaults()
            },
            || g.run(),
        );
        assert_eq!(log.into_inner().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn panic_is_isolated_and_aborts_dependents() {
        quiet_expected_panics();
        let ran_dependent = AtomicUsize::new(0);
        let mut g = Builder::new();
        g.task("boom", &[], &[0], || panic!("dag task dies"));
        g.task("dep", &[0], &[1], || {
            ran_dependent.fetch_add(1, Ordering::Relaxed);
            0
        });
        let res = tune::with(wide(2), || g.run());
        assert_eq!(res.infos[0], cancel::INFO_PANICKED);
        assert_eq!(res.info(), cancel::INFO_PANICKED);
        assert_eq!(
            ran_dependent.load(Ordering::Relaxed),
            0,
            "dependent of a poisoned resource must not run"
        );
    }

    #[test]
    fn cancelled_token_short_circuits() {
        let token = cancel::CancelToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        let mut g = Builder::new();
        for i in 0..8 {
            g.task("t", &[], &[i], || {
                ran.fetch_add(1, Ordering::Relaxed);
                0
            });
        }
        let res = cancel::with_token(token, || tune::with(wide(4), || g.run()));
        assert_eq!(res.info(), cancel::INFO_CANCELLED);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no body ran after cancel");
    }

    #[test]
    fn soft_fault_lands_on_the_owning_task() {
        let mut g = Builder::new();
        g.task("clean-a", &[], &[0], || 0);
        g.task("faulty", &[], &[1], || {
            abft::raise("gemm", 3); // detected, never repaired
            0
        });
        g.task("clean-b", &[1], &[2], || 0);
        let res = tune::with(wide(2), || g.run());
        assert_eq!(res.infos[1], INFO_SOFT_FAULT);
        assert_eq!((res.infos[0], res.infos[2]), (0, 0), "siblings stay clean");
        assert_eq!(res.info(), INFO_SOFT_FAULT);
        assert_eq!(abft::take_pending(), None, "nothing leaks to the caller");
    }

    #[test]
    fn positive_info_continues_and_reports_first() {
        let mut g = Builder::new();
        let after = AtomicUsize::new(0);
        g.task("sing-7", &[], &[0], || 7);
        g.task("after", &[0], &[1], || {
            after.fetch_add(1, Ordering::Relaxed);
            3
        });
        let res = tune::with(wide(2), || g.run());
        assert_eq!(
            after.load(Ordering::Relaxed),
            1,
            "positive info (numerical singularity) does not abort the graph"
        );
        assert_eq!(res.info(), 7, "first positive in submission order wins");
    }

    #[test]
    fn probe_records_graph_shape() {
        probe::with_policy(probe::ProbePolicy::Spans, || {
            let _span = probe::span(probe::Layer::Lapack, "unit-test-dagshape", 0, 0);
            let mut g = Builder::new();
            g.task("a", &[], &[0], || 0);
            g.task("b", &[0], &[1], || 0);
            g.task("c", &[0], &[2], || 0);
            tune::with(wide(2), || g.run());
        });
        let rep = probe::snapshot();
        let span = rep
            .spans
            .iter()
            .find(|s| s.routine == "unit-test-dagshape")
            .expect("span recorded");
        let dag = span.dag.expect("dag shape recorded on the span");
        assert_eq!(dag.tasks, 3);
        assert_eq!(dag.edges, 2);
        assert_eq!(dag.critical_path, 2);
    }

    #[test]
    fn workers_stamp_the_callers_heartbeat() {
        // Regression: the dag hop used to carry the token but not the
        // heartbeat, so a served job factoring through a graph looked
        // wedged to the watchdog while its submitter blocked in the pool.
        let hb = cancel::Heartbeat::new();
        let polls = AtomicUsize::new(0);
        let mut g = Builder::new();
        for i in 0..12 {
            g.task("t", &[], &[i], || {
                polls.fetch_add(usize::from(!cancel::cancelled()), Ordering::Relaxed);
                0
            });
        }
        let res = cancel::with_heartbeat(hb.clone(), || tune::with(wide(2), || g.run()));
        assert_eq!(res.info(), 0);
        assert_eq!(res.stats.workers, 2);
        assert_eq!(polls.load(Ordering::Relaxed), 12);
        assert!(
            hb.beats() >= 12,
            "every task's cancel checkpoint stamps the inherited heartbeat \
             (saw {} beats for 12 tasks)",
            hb.beats()
        );
    }
}
