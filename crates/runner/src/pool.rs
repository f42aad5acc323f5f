//! A hand-rolled work-stealing batch executor on `std::thread`.
//!
//! The container has no crates.io access, so this is deliberately std-only
//! (matching the vendored `proptest` shim). The model is batch
//! execution: all jobs are known up front, distributed round-robin across
//! per-worker deques, and each worker pops from the *front* of its own deque
//! (preserving locality and submission order) while stealing from the *back*
//! of the busiest other deque when it runs dry. Workers exit when every
//! deque is empty; [`run_batch`] returns once all jobs have finished.
//!
//! Determinism note: jobs may run in any order and on any thread, so callers
//! must only submit jobs whose *results* are order-independent (the memoized
//! simulation cells are — each cell is a pure function of its spec).

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one [`run_batch`] call did: scheduling counters for the run-level
/// metrics report. Host-time measurements only — batch *results* are
/// identical for every worker count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads actually used (≤ the requested count; 1 in serial
    /// mode).
    pub threads: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Jobs a worker stole from another worker's deque.
    pub steals: u64,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Summed per-worker time spent inside jobs (≤ `threads × wall`).
    pub busy: Duration,
    /// Deepest initial per-worker queue (round-robin distribution, so
    /// `ceil(jobs / threads)`).
    pub max_queue_depth: usize,
    /// Jobs that panicked. Always `0` under [`run_batch`], which propagates
    /// the panic; [`run_batch_catching`] isolates and counts them instead.
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
    /// `threads` and `max_queue_depth` take the maximum).
    pub fn absorb(&mut self, other: &PoolStats) {
        self.threads = self.threads.max(other.threads);
        self.jobs += other.jobs;
        self.steals += other.steals;
        self.wall += other.wall;
        self.busy += other.busy;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.panicked += other.panicked;
    }
}

/// Run every job, using up to `workers` OS threads. Returns scheduling
/// statistics for the batch.
///
/// `workers <= 1` (or a batch of one job) degenerates to serial in-order
/// execution on the calling thread — the `--workers 1` reference mode.
///
/// # Panics
/// A panicking job aborts the batch: the panic is propagated to the caller
/// once the surviving workers drain the remaining jobs.
pub fn run_batch<F: FnOnce() + Send>(workers: usize, jobs: Vec<F>) -> PoolStats {
    run_batch_inner(workers, jobs, false)
}

/// [`run_batch`] with per-job panic isolation: a panicking job is caught,
/// counted in [`PoolStats::panicked`], and the batch keeps running — no job
/// is dropped and the worker survives. This is how
/// [`Engine::prefetch_isolated`](crate::Engine::prefetch_isolated) runs.
pub fn run_batch_catching<F: FnOnce() + Send>(workers: usize, jobs: Vec<F>) -> PoolStats {
    run_batch_inner(workers, jobs, true)
}

/// Run one job, optionally isolating a panic. Returns `1` if it panicked.
fn execute<F: FnOnce()>(job: F, catching: bool) -> u64 {
    if catching {
        match std::panic::catch_unwind(AssertUnwindSafe(job)) {
            Ok(()) => 0,
            Err(_) => 1,
        }
    } else {
        job();
        0
    }
}

fn run_batch_inner<F: FnOnce() + Send>(workers: usize, jobs: Vec<F>, catching: bool) -> PoolStats {
    let started = Instant::now();
    if workers <= 1 || jobs.len() <= 1 {
        let n = jobs.len();
        let mut panicked = 0;
        for job in jobs {
            panicked += execute(job, catching);
        }
        let wall = started.elapsed();
        return PoolStats {
            threads: 1,
            jobs: n,
            steals: 0,
            wall,
            busy: wall,
            max_queue_depth: n,
            panicked,
        };
    }
    let n = workers.min(jobs.len());
    let total_jobs = jobs.len();
    let deques: Vec<Mutex<VecDeque<F>>> = (0..n).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        deques[i % n].lock().unwrap().push_back(job);
    }
    let max_queue_depth = total_jobs.div_ceil(n);
    let mut busy = Duration::ZERO;
    let mut steals = 0u64;
    let mut panicked = 0u64;
    std::thread::scope(|s| {
        let deques = &deques;
        let handles: Vec<_> = (0..n)
            .map(|me| s.spawn(move || worker(me, deques, catching)))
            .collect();
        for h in handles {
            match h.join() {
                Ok((b, st, p)) => {
                    busy += b;
                    steals += st;
                    panicked += p;
                }
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    });
    PoolStats {
        threads: n,
        jobs: total_jobs,
        steals,
        wall: started.elapsed(),
        busy,
        max_queue_depth,
        panicked,
    }
}

fn worker<F: FnOnce()>(
    me: usize,
    deques: &[Mutex<VecDeque<F>>],
    catching: bool,
) -> (Duration, u64, u64) {
    let mut busy = Duration::ZERO;
    let mut steals = 0u64;
    let mut panicked = 0u64;
    loop {
        // Own work first, oldest first.
        let own = deques[me].lock().unwrap().pop_front();
        if let Some(job) = own {
            let t = Instant::now();
            panicked += execute(job, catching);
            busy += t.elapsed();
            continue;
        }
        // Steal from the fullest victim, youngest first, so two thieves
        // spread across different victims instead of racing on one.
        let victim = (0..deques.len())
            .filter(|&v| v != me)
            .max_by_key(|&v| deques[v].lock().unwrap().len());
        let stolen = victim.and_then(|v| deques[v].lock().unwrap().pop_back());
        match stolen {
            Some(job) => {
                steals += 1;
                let t = Instant::now();
                panicked += execute(job, catching);
                busy += t.elapsed();
            }
            None => return (busy, steals, panicked), // every deque observed empty
        }
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
        run_batch(64, jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let ps = run_batch(4, Vec::<fn()>::new());
        assert_eq!(ps.jobs, 0);
        assert_eq!(ps.utilization(), 0.0);
    }

    #[test]
    fn batch_stats_account_for_the_batch() {
        let jobs: Vec<_> = (0..10)
            .map(|_| || std::thread::sleep(std::time::Duration::from_millis(2)))
            .collect();
        let ps = run_batch(4, jobs);
        assert_eq!(ps.jobs, 10);
        assert_eq!(ps.threads, 4);
        assert_eq!(ps.max_queue_depth, 3); // ceil(10/4)
        assert!(ps.busy >= std::time::Duration::from_millis(15));
        assert!(ps.wall > std::time::Duration::ZERO);
        let u = ps.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");

        // Serial mode: one thread, fully busy.
        let ps1 = run_batch(1, vec![|| (), || ()]);
        assert_eq!((ps1.threads, ps1.jobs, ps1.steals), (1, 2, 0));

        let mut acc = PoolStats::default();
        acc.absorb(&ps);
        acc.absorb(&ps1);
        assert_eq!(acc.jobs, 12);
        assert_eq!(acc.threads, 4);
    }

    /// Worker death mid-batch: a panicking job kills its worker thread in
    /// the propagating mode, but every other job still runs (survivors
    /// steal the dead worker's queue) and the panic reaches the caller.
    #[test]
    fn worker_death_mid_batch_drains_and_propagates() {
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
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| run_batch(4, jobs)));
        assert!(r.is_err(), "the job panic must propagate");
        assert_eq!(
            hits.load(Ordering::SeqCst),
            39,
            "every non-panicking job must still run (queued jobs are never dropped)"
        );
    }

    /// The catching mode isolates worker death: the batch completes, stats
    /// stay consistent, and the panic count is exact.
    #[test]
    fn catching_mode_isolates_worker_death() {
        for workers in [1, 2, 4] {
            let hits = AtomicU64::new(0);
            let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..30u64)
                .map(|i| {
                    let hits = &hits;
                    Box::new(move || {
                        if i % 10 == 0 {
                            panic!("injected");
                        }
                        hits.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            let ps = run_batch_catching(workers, jobs);
            assert_eq!(hits.load(Ordering::SeqCst), 27);
            assert_eq!(ps.jobs, 30, "stats count every submitted job");
            assert_eq!(ps.panicked, 3, "stats count every isolated panic");
            assert!(ps.threads <= workers.max(1));
            assert!(ps.busy <= ps.wall * ps.threads as u32 + Duration::from_millis(5));
            let u = ps.utilization();
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
    }

    /// Drop-while-queued: jobs whose worker dies while they are still
    /// queued are stolen and executed by the survivors — nothing is
    /// silently dropped, in either mode.
    #[test]
    fn queued_jobs_survive_worker_death() {
        let hits = AtomicU64::new(0);
        // Worker 0 gets jobs 0,2,4,... (round-robin over 2 workers); job 0
        // panics immediately while the rest of its deque is still queued.
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..20u64)
            .map(|i| {
                let hits = &hits;
                Box::new(move || {
                    if i == 0 {
                        panic!("die with a full queue");
                    }
                    std::thread::sleep(Duration::from_micros(200));
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let ps = run_batch_catching(2, jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 19);
        assert_eq!((ps.jobs, ps.panicked), (20, 1));
    }

    /// Zero-length batch submission: a no-op with internally consistent
    /// stats in both modes.
    #[test]
    fn zero_length_batch_stats_are_consistent() {
        for ps in [
            run_batch(4, Vec::<fn()>::new()),
            run_batch_catching(4, Vec::<fn()>::new()),
        ] {
            assert_eq!((ps.jobs, ps.steals, ps.panicked), (0, 0, 0));
            assert_eq!(ps.threads, 1, "an empty batch runs inline");
            assert_eq!(ps.max_queue_depth, 0);
            assert_eq!(ps.utilization(), 0.0);
            assert!(ps.busy <= ps.wall + Duration::from_millis(1));
        }
    }
}
