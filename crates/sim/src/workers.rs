//! The one worker loop behind both shot paths, the shot engine's shards
//! and the query service's lane runs, and the one core-count rule.
//!
//! [`run_jobs`] starts its threads on every call: the engine lends them
//! borrowed gates, an input and a sampler closure, and without unsafe
//! code only [`std::thread::scope`] can run borrowed work on another
//! thread, which a pool that outlives the call could not take.

use std::num::NonZeroUsize;
use std::sync::{Mutex, PoisonError};
use std::thread;

/// The worker count `workers` asks for: `workers` itself, or every
/// available core (at least 1) when it is `0`.
pub fn resolve_workers(workers: usize) -> usize {
    if workers > 0 {
        return workers;
    }
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Runs `work(scratch, job)` for every job on `workers` threads, the
/// calling thread included, and returns once all have run.
///
/// `workers` is clamped to `1..=jobs.len()`: one worker runs every job
/// inline, and more spawn `workers − 1` threads under
/// [`std::thread::scope`]. Workers claim jobs in list order from one
/// queue, and each keeps one `S::default()` across the jobs it claims.
/// Which jobs share a scratch depends on timing, so a job must clear
/// what it must not inherit. A job writes its results through the
/// output slot it carries, so nothing a caller reads depends on which
/// thread ran it.
///
/// # Panics
///
/// Re-raises a job's panic with its own payload once every worker has
/// stopped; the other workers finish the queue first. If several jobs
/// panic, the calling thread's payload wins, then the earliest spawned
/// worker's.
///
/// ```
/// let mut out = [0usize; 5];
/// let jobs: Vec<_> = out.iter_mut().enumerate().collect();
/// qram_sim::run_jobs(2, jobs, |_: &mut (), (i, slot)| *slot = i * i);
/// assert_eq!(out, [0, 1, 4, 9, 16]);
/// ```
pub fn run_jobs<J: Send, S: Default>(
    workers: usize,
    jobs: Vec<J>,
    work: impl Fn(&mut S, J) + Sync,
) {
    let workers = workers.clamp(1, jobs.len().max(1));
    let queue = Mutex::new(jobs.into_iter());
    let worker = || {
        let mut scratch = S::default();
        loop {
            // Locked only to take a job, which cannot panic, so a
            // poisoned lock still holds a valid queue.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some(job) = next else {
                return;
            };
            work(&mut scratch, job);
        }
    };
    if workers == 1 {
        return worker();
    }
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        // A panic here leaves the scope, which joins the helpers first.
        worker();
        for helper in helpers {
            if let Err(payload) = helper.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    #[test]
    fn zero_resolves_to_every_core() {
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(resolve_workers(0), cores);
        assert_eq!(resolve_workers(3), 3);
    }

    #[test]
    fn outputs_land_by_index_at_any_worker_count() {
        for jobs in [0usize, 1, 2, 5, 13] {
            for workers in [1, 2, 3, 8] {
                let mut out = vec![0; jobs];
                let list: Vec<_> = out.iter_mut().enumerate().collect();
                run_jobs(workers, list, |_: &mut (), (i, slot)| *slot = 3 * i + 1);
                let want: Vec<usize> = (0..jobs).map(|i| 3 * i + 1).collect();
                assert_eq!(out, want, "jobs={jobs} workers={workers}");
            }
        }
    }

    /// Each job records how many jobs its worker's scratch served before
    /// it, so every worker counts 0, 1, 2, …: there are at most as many
    /// 0s as workers, and never more `v`s than `v − 1`s.
    #[test]
    fn a_workers_scratch_persists_across_its_jobs() {
        for workers in [1, 2, 3] {
            let mut out = vec![usize::MAX; 12];
            let list: Vec<_> = out.iter_mut().collect();
            run_jobs(workers, list, |served: &mut usize, slot| {
                *slot = *served;
                *served += 1;
            });
            let count = |v| out.iter().filter(|&&s| s == v).count();
            assert!((1..=workers).contains(&count(0)), "{out:?}");
            assert!((1..12).all(|v| count(v) <= count(v - 1)), "{out:?}");
        }
    }

    /// With a barrier in every job and as many jobs as workers, each
    /// worker takes one job. The job on the calling thread, or every job
    /// on a spawned one, panics, and its own message comes back.
    #[test]
    fn a_jobs_panic_keeps_its_own_message() {
        let caller = thread::current().id();
        for (workers, on_caller) in [(1, true), (2, true), (2, false), (4, true), (4, false)] {
            let barrier = Barrier::new(workers);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                run_jobs(workers, (0..workers).collect(), |_: &mut (), job| {
                    barrier.wait();
                    let here = thread::current().id() == caller;
                    assert!(here != on_caller, "job {job} on the caller: {here}");
                })
            }))
            .expect_err("a job panics");
            let text = payload.downcast_ref::<String>().map_or("", String::as_str);
            let want = format!("on the caller: {on_caller}");
            assert!(text.ends_with(&want), "workers={workers}: {text}");
        }
    }
}
