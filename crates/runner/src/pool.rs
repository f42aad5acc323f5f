//! A batch executor on `std::thread`: workers drain one shared job queue.
//!
//! The container has no crates.io access, so this is deliberately std-only
//! (matching the vendored `proptest` shim). The model is batch execution:
//! all jobs are known up front and queued in submission order, each worker
//! takes the next job off the queue until it is empty, and [`run_batch`]
//! returns once every job has finished. One worker, or a batch of one job,
//! runs the jobs in order on the calling thread.
//!
//! Determinism note: jobs may run in any order and on any thread, so callers
//! must only submit jobs whose *results* are order-independent. The engine
//! submits one job per reuse class of detailed cells (every cell a job
//! serves from a sibling run comes from a run of the same job) and one per
//! ideal or study cell, which are pure functions of their specs.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one [`run_batch`] call did: counters for the run-level metrics
/// report. Host-time measurements only — batch *results* are identical for
/// every worker count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads actually used (≤ the requested count; 1 in serial
    /// mode).
    pub threads: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Summed per-worker time spent inside jobs (≤ `threads × wall`).
    pub busy: Duration,
    /// Cells whose computation panicked under
    /// [`Engine::prefetch_isolated`](crate::Engine::prefetch_isolated),
    /// which counts them and goes on. [`run_batch`] re-raises a job's panic
    /// instead, so it leaves this `0`.
    pub panicked: u64,
}

impl PoolStats {
    /// Fraction of worker-seconds spent inside jobs (0.0 for an empty
    /// batch): `busy / (threads × wall)`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.threads as f64;
        if self.jobs == 0 || denom <= 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / denom).min(1.0)
        }
    }

    /// Fold another batch's stats into this accumulator (wall times add;
    /// `threads` takes the maximum).
    pub fn absorb(&mut self, other: &PoolStats) {
        self.threads = self.threads.max(other.threads);
        self.jobs += other.jobs;
        self.wall += other.wall;
        self.busy += other.busy;
        self.panicked += other.panicked;
    }
}

/// Run every job, using up to `workers` OS threads. Returns the batch's
/// statistics.
///
/// `workers <= 1` (or a batch of one job) runs the jobs in submission order
/// on the calling thread — the `--workers 1` reference mode.
///
/// # Panics
/// A panicking job does not stop the batch: every other job still runs,
/// and the first panic is then propagated to the caller.
pub fn run_batch<F: FnOnce() + Send>(workers: usize, jobs: Vec<F>) -> PoolStats {
    let started = Instant::now();
    let total = jobs.len();
    let threads = workers.clamp(1, total.max(1));
    let queue = Mutex::new(jobs.into_iter());
    let (busy, panic) = if threads == 1 {
        drain(&queue)
    } else {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads).map(|_| s.spawn(|| drain(&queue))).collect();
            workers
                .into_iter()
                .fold((Duration::ZERO, None), |(busy, panic), w| {
                    let (b, p) = w.join().expect("a worker catches its jobs' panics");
                    (busy + b, panic.or(p))
                })
        })
    };
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    PoolStats {
        threads,
        jobs: total,
        wall: started.elapsed(),
        busy,
        panicked: 0,
    }
}

/// Run jobs off `queue` until it is empty. Returns the time spent inside
/// them and the first panic one raised; the jobs after a panicking one
/// still run.
fn drain<F: FnOnce()>(
    queue: &Mutex<impl Iterator<Item = F>>,
) -> (Duration, Option<Box<dyn Any + Send>>) {
    let mut busy = Duration::ZERO;
    let mut panic = None;
    loop {
        let Some(job) = queue.lock().expect("no job runs under the lock").next() else {
            return (busy, panic);
        };
        let t = Instant::now();
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(job)) {
            panic.get_or_insert(payload);
        }
        busy += t.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn all_jobs_run_exactly_once() {
        for workers in [1, 2, 4, 8] {
            let hits = AtomicU64::new(0);
            let jobs: Vec<_> = (0..97u64)
                .map(|i| {
                    let hits = &hits;
                    move || {
                        hits.fetch_add(i + 1, Ordering::SeqCst);
                    }
                })
                .collect();
            run_batch(workers, jobs);
            assert_eq!(hits.load(Ordering::SeqCst), (1..=97).sum::<u64>());
        }
    }

    #[test]
    fn serial_mode_preserves_submission_order() {
        let order = Mutex::new(Vec::new());
        let jobs: Vec<_> = (0..10)
            .map(|i| {
                let order = &order;
                move || order.lock().unwrap().push(i)
            })
            .collect();
        run_batch(1, jobs);
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let hits = AtomicU64::new(0);
        let jobs: Vec<_> = (0..3)
            .map(|_| {
                let hits = &hits;
                move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        let ps = run_batch(64, jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        assert_eq!(ps.threads, 3, "one thread per job at most");
    }

    #[test]
    fn batch_stats_account_for_the_batch() {
        let jobs: Vec<_> = (0..10)
            .map(|_| || std::thread::sleep(std::time::Duration::from_millis(2)))
            .collect();
        let ps = run_batch(4, jobs);
        assert_eq!(ps.jobs, 10);
        assert_eq!(ps.threads, 4);
        assert!(ps.busy >= std::time::Duration::from_millis(15));
        assert!(ps.wall > std::time::Duration::ZERO);
        let u = ps.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");

        // Serial mode: one thread, fully busy.
        let ps1 = run_batch(1, vec![|| (), || ()]);
        assert_eq!((ps1.threads, ps1.jobs, ps1.panicked), (1, 2, 0));

        let mut acc = PoolStats::default();
        acc.absorb(&ps);
        acc.absorb(&ps1);
        assert_eq!(acc.jobs, 12);
        assert_eq!(acc.threads, 4);
    }

    /// Worker death mid-batch: a panicking job does not take the batch down
    /// with it. Every other job still runs (queued jobs are never dropped),
    /// inline and on a pool alike, and the panic then reaches the caller.
    #[test]
    fn worker_death_mid_batch_drains_and_propagates() {
        for workers in [1, 4] {
            let hits = AtomicU64::new(0);
            let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..40u64)
                .map(|i| {
                    let hits = &hits;
                    Box::new(move || {
                        if i == 3 {
                            panic!("worker down");
                        }
                        hits.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| run_batch(workers, jobs)));
            assert!(
                r.is_err(),
                "{workers} workers: the job panic must propagate"
            );
            assert_eq!(
                hits.load(Ordering::SeqCst),
                39,
                "{workers} workers: every non-panicking job must still run"
            );
        }
    }

    /// Zero-length batch submission: a no-op with internally consistent
    /// stats.
    #[test]
    fn zero_length_batch_stats_are_consistent() {
        let ps = run_batch(4, Vec::<fn()>::new());
        assert_eq!((ps.jobs, ps.panicked), (0, 0));
        assert_eq!(ps.threads, 1, "an empty batch runs inline");
        assert_eq!(ps.utilization(), 0.0);
        assert!(ps.busy <= ps.wall + Duration::from_millis(1));
    }
}
