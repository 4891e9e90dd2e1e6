//! Per-tenant bookkeeping: the fault streak and accounting snapshots.

use la_core::probe::{CounterRow, Layer};

/// Mutable per-tenant state the service keeps under its tenants lock.
#[derive(Debug)]
pub(crate) struct TenantState {
    /// Consecutive faulty jobs (panic / soft fault / residual failure).
    /// A clean completion resets it.
    streak: u32,
    completed: u64,
    rejected: u64,
    degraded: u64,
    stuck: u64,
    flops: u64,
    nanos: u64,
}

impl TenantState {
    pub(crate) fn new() -> Self {
        TenantState {
            streak: 0,
            completed: 0,
            rejected: 0,
            degraded: 0,
            stuck: 0,
            flops: 0,
            nanos: 0,
        }
    }

    /// Folds a job's probe counters into the tenant's totals, counting
    /// each unit of work once. The rows nest (a span's time includes its
    /// children's, a factorization's flops are its BLAS calls' too), so
    /// time is the job's own `serve` row and flops are the closed forms of
    /// the LAPACK-layer calls; a `*_dag` row restates the entry that took
    /// the task-graph route, and is skipped.
    pub(crate) fn account(&mut self, rows: &[CounterRow]) {
        for r in rows {
            if r.routine == "serve" {
                self.nanos += r.nanos;
            }
            if r.layer == Layer::Lapack && !r.routine.ends_with("_dag") {
                self.flops += r.flops;
            }
        }
    }

    /// Records a served answer. A faulty-but-recovered job (`degraded`)
    /// still counts toward the fault streak: the tenant's workload is
    /// provoking faults even when the ladder absorbs them.
    pub(crate) fn record_completed(&mut self, degraded: bool) {
        self.completed += 1;
        if degraded {
            self.degraded += 1;
            self.streak += 1;
        } else {
            self.streak = 0;
        }
    }

    /// Records a rejection; `faulty` marks the fault-streak kinds (panic,
    /// residual rejection, unrecovered soft fault) as opposed to load
    /// shedding or deadline misses, which say nothing about the tenant's
    /// numerics.
    pub(crate) fn record_rejected(&mut self, faulty: bool) {
        self.rejected += 1;
        if faulty {
            self.streak += 1;
        }
    }

    /// Records a watchdog-resolved wedged job. Counts as a rejection but
    /// never toward the fault streak — a wedge is a liveness problem and
    /// says nothing about the tenant's numerics.
    pub(crate) fn record_stuck(&mut self) {
        self.rejected += 1;
        self.stuck += 1;
    }

    pub(crate) fn report(&self, tenant: &str) -> TenantReport {
        TenantReport {
            tenant: tenant.to_string(),
            completed: self.completed,
            rejected: self.rejected,
            degraded: self.degraded,
            stuck: self.stuck,
            fault_streak: self.streak,
            flops: self.flops,
            nanos: self.nanos,
        }
    }
}

/// Snapshot of one tenant's serving history, from
/// [`crate::Service::tenant_report`] / [`crate::Service::tenant_reports`].
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant name (the [`crate::JobSpec::tenant`] key).
    pub tenant: String,
    /// Jobs answered (including degraded ones).
    pub completed: u64,
    /// Jobs rejected, for any [`crate::Rejection`] reason.
    pub rejected: u64,
    /// Answered jobs that needed the degradation ladder.
    pub degraded: u64,
    /// Jobs resolved [`crate::Rejection::Stuck`] by the watchdog (subset
    /// of `rejected`).
    pub stuck: u64,
    /// Consecutive faulty jobs (panic, soft fault, residual failure,
    /// re-screened NaN) up to now; a clean answer resets it.
    pub fault_streak: u32,
    /// Closed-form flops of the factorizations and solves this tenant's
    /// jobs ran, ladder re-runs included (0 unless a counting
    /// [`la_core::probe`] policy is active).
    pub flops: u64,
    /// Wall nanoseconds of this tenant's jobs on the workers, from the
    /// start of the solve to its answer check.
    pub nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_jobs_reset_the_streak_and_load_shedding_does_not_count() {
        let mut t = TenantState::new();
        t.record_rejected(true);
        t.record_rejected(true);
        t.record_completed(false); // clean answer resets the streak
        t.record_rejected(true);
        // A recovered fault still counts; overload and deadline rejections
        // are not faults.
        t.record_completed(true);
        for _ in 0..10 {
            t.record_rejected(false);
        }
        let r = t.report("acme");
        assert_eq!(r.completed, 2);
        assert_eq!(r.degraded, 1);
        assert_eq!(r.rejected, 13);
        assert_eq!(r.fault_streak, 2);
    }

    #[test]
    fn stuck_is_visible_but_never_counts_as_a_fault() {
        let mut t = TenantState::new();
        // A wedged job is a liveness event, not a numerics fault: it
        // counts as rejected + stuck but leaves the streak alone.
        for _ in 0..9 {
            t.record_stuck();
        }
        t.record_completed(false);
        let r = t.report("acme");
        assert_eq!(r.rejected, 9);
        assert_eq!(r.stuck, 9);
        assert_eq!(r.completed, 1);
        assert_eq!(r.fault_streak, 0);
    }
}
