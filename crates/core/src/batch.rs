//! Batched-job dispatch — the work-stealing engine under the batched
//! BLAS/LAPACK entry points (`gemm_batch`, `gesv_batch`, `posv_batch`)
//! and the `la-serve` queue workers.
//!
//! The batch workload (BLASFEO, arXiv:1902.08115: many independent
//! small-to-medium problems) wants one pool of workers pulling jobs off a
//! shared queue, not one thread per job. This module provides exactly
//! that, with the robustness contract a serving layer needs:
//!
//! * **Work stealing** — items are handed out one at a time from a shared
//!   queue, so a worker that drew a large system does not stall siblings
//!   holding small ones.
//! * **Policy inheritance** — workers run under the calling thread's
//!   ambient state ([`crate::ctx::fan_out`]): scoped [`crate::tune`] /
//!   [`crate::except`] / [`crate::abft`] / [`crate::probe`] overrides, the
//!   [`crate::cancel`] token and the heartbeat, so a batch behaves exactly
//!   like a loop of sequential calls under the same scopes.
//! * **Per-job isolation** — every job runs inside [`crate::ctx::isolated`]:
//!   a job that panics is recorded as [`crate::cancel::INFO_PANICKED`]
//!   (`-104`) and the worker moves on; a soft fault detected in one job
//!   surfaces as that job's `INFO = -102` and can never leak into a sibling
//!   that runs next on the same worker; a cancelled token (or passed
//!   deadline) makes not-yet-started jobs return
//!   [`crate::cancel::INFO_CANCELLED`] (`-103`) immediately, and in-flight
//!   factorizations abandon at their next panel checkpoint.
//! * **No oversubscription** — workers are registered as pool siblings, so
//!   striped BLAS-3 opened *inside* a job divides the host cores by the
//!   worker count instead of multiplying with it.

use crate::{ctx, tune};

/// Runs `job` once per item of `items` across a pool of work-stealing
/// workers and returns one raw `INFO` code per item, position-matched.
///
/// `job(index, item)` computes item `index` in place and returns its raw
/// `INFO` (the usual LAPACK convention plus the extension codes). The
/// dispatcher additionally yields, per item:
///
/// * [`crate::cancel::INFO_CANCELLED`] (`-103`) — the inherited cancel
///   token was already tripped when the item came up (the job never ran),
///   or the job observed it at a checkpoint and returned the code itself;
/// * [`crate::cancel::INFO_PANICKED`] (`-104`) — the job panicked; the
///   panic was swallowed at the job boundary and the item's output is
///   unspecified;
/// * [`crate::abft::INFO_SOFT_FAULT`] (`-102`) — the job returned `0` but
///   parked an unrepaired ABFT soft fault.
///
/// The worker count is the [`tune`] thread budget clamped to the item
/// count; with a budget of 1 (or a single item) everything runs inline on
/// the calling thread — same contract, no spawning.
pub fn run_batch<T, F>(items: &mut [T], job: F) -> Vec<i32>
where
    T: Send,
    F: Fn(usize, &mut T) -> i32 + Sync,
{
    let mut infos = vec![0i32; items.len()];
    let workers = tune::current().threads().min(items.len());
    ctx::fan_out(
        workers,
        items.iter_mut().zip(infos.iter_mut()).enumerate(),
        |(idx, (item, slot))| *slot = ctx::isolated(|| job(idx, item)),
    );
    infos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abft::{self, INFO_SOFT_FAULT};
    use crate::cancel;

    /// Keeps expected job panics from spraying the test output: the
    /// default hook prints every panic, and these tests panic on purpose.
    fn quiet_expected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info.payload().downcast_ref::<&str>().copied();
                if msg != Some("job 5 dies") {
                    prev(info);
                }
            }));
        });
    }

    fn wide() -> tune::TuneConfig {
        tune::TuneConfig {
            max_threads: 4,
            oversubscribe: true,
            ..tune::TuneConfig::defaults()
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let mut items: Vec<usize> = (0..37).collect();
        let infos = tune::with(wide(), || {
            run_batch(&mut items, |idx, item| {
                *item += idx; // item i becomes 2i
                0
            })
        });
        assert_eq!(infos, vec![0; 37]);
        for (i, v) in items.iter().enumerate() {
            assert_eq!(*v, 2 * i);
        }
    }

    #[test]
    fn panic_poisons_only_its_job() {
        quiet_expected_panics();
        let mut items: Vec<usize> = (0..16).collect();
        let infos = tune::with(wide(), || {
            run_batch(&mut items, |idx, item| {
                if idx == 5 {
                    panic!("job 5 dies");
                }
                *item = 100 + idx;
                0
            })
        });
        for (idx, info) in infos.iter().enumerate() {
            if idx == 5 {
                assert_eq!(*info, cancel::INFO_PANICKED);
            } else {
                assert_eq!(*info, 0, "sibling job {idx} must be unaffected");
                assert_eq!(items[idx], 100 + idx);
            }
        }
    }

    #[test]
    fn cancelled_token_short_circuits_remaining_jobs() {
        let token = cancel::CancelToken::new();
        token.cancel();
        let mut items = vec![0usize; 8];
        let infos = cancel::with_token(token, || {
            tune::with(wide(), || {
                run_batch(&mut items, |_, item| {
                    *item = 1;
                    0
                })
            })
        });
        assert_eq!(infos, vec![cancel::INFO_CANCELLED; 8]);
        assert_eq!(items, vec![0usize; 8], "cancelled jobs never ran");
    }

    #[test]
    fn workers_stamp_the_callers_heartbeat() {
        let hb = cancel::Heartbeat::new();
        let mut items = vec![(); 12];
        cancel::with_heartbeat(hb.clone(), || {
            tune::with(wide(), || run_batch(&mut items, |_, _| 0))
        });
        assert!(
            hb.beats() >= 12,
            "every item's cancel checkpoint stamps the inherited heartbeat \
             (saw {} beats for 12 items)",
            hb.beats()
        );
    }

    #[test]
    fn job_info_codes_come_back_position_matched() {
        let mut items: Vec<i32> = (0..10).collect();
        let infos = tune::with(wide(), || {
            run_batch(
                &mut items,
                |idx, _| if idx % 3 == 0 { idx as i32 + 1 } else { 0 },
            )
        });
        for (idx, info) in infos.iter().enumerate() {
            let want = if idx % 3 == 0 { idx as i32 + 1 } else { 0 };
            assert_eq!(*info, want);
        }
    }

    #[test]
    fn parked_soft_fault_becomes_minus_102_for_that_job_only() {
        let mut items = vec![(); 6];
        let infos = tune::with(wide(), || {
            run_batch(&mut items, |idx, _| {
                if idx == 2 {
                    abft::raise("gemm", 7); // detected, never repaired
                }
                0
            })
        });
        for (idx, info) in infos.iter().enumerate() {
            let want = if idx == 2 { INFO_SOFT_FAULT } else { 0 };
            assert_eq!(*info, want, "job {idx}");
        }
        assert_eq!(abft::take_pending(), None, "nothing leaks to the caller");
    }
}
