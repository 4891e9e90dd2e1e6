//! Per-tenant bookkeeping: the fault streak and accounting snapshots.

/// Mutable per-tenant state the service keeps under its tenants lock.
#[derive(Debug)]
pub(crate) struct TenantState {
    /// Consecutive faulty jobs (panic / soft fault / residual failure /
    /// re-screened NaN). A clean completion resets it.
    streak: u32,
    completed: u64,
    rejected: u64,
    degraded: u64,
    stuck: u64,
    brownout_served: u64,
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
            brownout_served: 0,
            flops: 0,
            nanos: 0,
        }
    }

    /// Folds a job's probe counters into the tenant's totals.
    pub(crate) fn account(&mut self, rows: &[la_core::probe::CounterRow]) {
        for r in rows {
            self.flops += r.flops;
            self.nanos += r.nanos;
        }
    }

    /// Records a served answer. A faulty-but-recovered job (`degraded`)
    /// still counts toward the fault streak: the tenant's workload is
    /// provoking faults even when the ladder absorbs them. `brownout`
    /// marks answers served below full quality (overload brownout) —
    /// visible in the report, not a fault.
    pub(crate) fn record_completed(&mut self, degraded: bool, brownout: bool) {
        self.completed += 1;
        if brownout {
            self.brownout_served += 1;
        }
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
            brownout_served: self.brownout_served,
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
    /// Answered jobs served below full quality under overload brownout
    /// (subset of `completed`).
    pub brownout_served: u64,
    /// Consecutive faulty jobs (panic, soft fault, residual failure,
    /// re-screened NaN) up to now; a clean answer resets it.
    pub fault_streak: u32,
    /// Probe-counted flops attributed to this tenant's jobs (0 unless a
    /// counting [`la_core::probe`] policy is active).
    pub flops: u64,
    /// Probe-counted wall nanoseconds attributed to this tenant's jobs.
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
        t.record_completed(false, false); // clean answer resets the streak
        t.record_rejected(true);
        t.record_completed(true, false); // a recovered fault still counts
                                         // Overload/deadline rejections are not faults.
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
    fn stuck_and_brownout_are_visible_but_never_count_as_faults() {
        let mut t = TenantState::new();
        // A wedged job is a liveness event, not a numerics fault: it
        // counts as rejected + stuck but leaves the streak alone.
        for _ in 0..9 {
            t.record_stuck();
        }
        // Browned-out answers are completions, flagged for the report.
        t.record_completed(false, true);
        t.record_completed(false, false);
        let r = t.report("acme");
        assert_eq!(r.rejected, 9);
        assert_eq!(r.stuck, 9);
        assert_eq!(r.completed, 2);
        assert_eq!(r.brownout_served, 1);
        assert_eq!(r.fault_streak, 0);
    }
}
