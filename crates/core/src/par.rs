//! Work-stealing fan-out for the workbench's parallel grids.
//!
//! The paper's two bulk jobs are grids of independent work items: the
//! Exar migration of ~1200 schematic pages (`migrate::batch`) and the
//! Section 3.1 race check, which runs every simulator policy over every
//! stimulus (`sim::race::sweep_parallel`). Both fan out through
//! [`par_map`], or through [`par_map_with`] when each worker needs
//! state of its own (a trace span, a tally).
//!
//! * **Work stealing.** Job indices are dealt round-robin onto one
//!   deque per worker. A worker takes from the front of its own deque
//!   and, once that is empty, steals from the back of the others', so a
//!   slow job holds up only the worker running it.
//! * **Caller as worker 0.** Only `threads - 1` threads are spawned;
//!   the calling thread drains deque 0 instead of blocking in `join`.
//!   With one worker nothing is spawned.
//! * **Deterministic output.** Results land in index-addressed slots,
//!   so the returned vector is in input order whatever the thread count
//!   or steal interleaving.
//! * **Span handoff.** Every spawned worker attaches the caller's
//!   [`obs::current_span`] (see [`obs::attach_parent`]), so spans that
//!   jobs open nest under the span open at the call, on any thread.
//! * **Panics.** A panic in a job is re-raised in the caller with its
//!   original payload, once the other workers have run the jobs left.
//!
//! Threads are scoped and spawned per call, which lets jobs borrow the
//! caller's data without `unsafe`.
//!
//! ```
//! use interop_core::par::par_map;
//!
//! let squares = par_map(3, &[1u64, 2, 3, 4, 5], |x| x * x);
//! assert_eq!(squares, [1, 4, 9, 16, 25]);
//! ```

use std::collections::VecDeque;
use std::panic;
use std::sync::Mutex;
use std::thread;

/// One job, as the worker that runs it took it.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Input index of the job.
    pub index: usize,
    /// True when the job came from the back of another worker's deque.
    pub stolen: bool,
    /// Jobs left in the running worker's own deque after this one.
    pub queue_depth: usize,
}

/// What one worker did, handed to [`par_map_with`]'s `finish` hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Jobs the worker ran.
    pub jobs: usize,
    /// How many of those it stole.
    pub steals: usize,
}

const UNPOISONED: &str = "no job runs while a deque lock is held";

/// One deque of job indices per worker.
struct StealQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueues {
    /// Deals `jobs` indices round-robin over `workers` deques, so every
    /// worker starts with local work.
    fn new(workers: usize, jobs: usize) -> Self {
        let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for job in 0..jobs {
            queues[job % workers].push_back(job);
        }
        StealQueues {
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    /// The next job for `worker`: its own front, else another deque's
    /// back. Nothing is enqueued after the start, so `None` means every
    /// job has been taken.
    fn take(&self, worker: usize) -> Option<Job> {
        let mut own = self.queues[worker].lock().expect(UNPOISONED);
        if let Some(index) = own.pop_front() {
            return Some(Job {
                index,
                stolen: false,
                queue_depth: own.len(),
            });
        }
        drop(own);
        let n = self.queues.len();
        (1..n).find_map(|offset| {
            let victim = &self.queues[(worker + offset) % n];
            let index = victim.lock().expect(UNPOISONED).pop_back()?;
            // A thief's own deque is empty and stays so.
            Some(Job {
                index,
                stolen: true,
                queue_depth: 0,
            })
        })
    }
}

/// Applies `f` to every item on up to `threads` workers and returns the
/// results in input order. See the [module docs](self).
pub fn par_map<T, R>(threads: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    par_map_with(
        threads,
        items.len(),
        |_| (),
        |(), job| f(&items[job.index]),
        |(), _| (),
    )
}

/// Runs jobs `0..len` on up to `threads` workers (at least one, at most
/// `len`) and returns their results in index order.
///
/// Each worker calls `start(worker)` on its own thread before its first
/// job, `run` for every job it takes, and `finish` with its
/// [`WorkerStats`] after its last. Worker 0 is the calling thread. With
/// `len == 0` no hook runs.
pub fn par_map_with<S, R>(
    threads: usize,
    len: usize,
    start: impl Fn(usize) -> S + Sync,
    run: impl Fn(&mut S, Job) -> R + Sync,
    finish: impl Fn(S, WorkerStats) + Sync,
) -> Vec<R>
where
    R: Send,
{
    if len == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, len);
    let queues = StealQueues::new(workers, len);
    let work = |worker: usize| {
        let mut state = start(worker);
        let mut stats = WorkerStats::default();
        let mut done = Vec::new();
        while let Some(job) = queues.take(worker) {
            stats.jobs += 1;
            stats.steals += usize::from(job.stolen);
            done.push((job.index, run(&mut state, job)));
        }
        finish(state, stats);
        done
    };

    let parent = obs::current_span();
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    thread::scope(|scope| {
        let work = &work;
        let spawned: Vec<_> = (1..workers)
            .map(|worker| {
                scope.spawn(move || {
                    let _handoff = parent.map(obs::attach_parent);
                    work(worker)
                })
            })
            .collect();
        let mut done = work(0);
        for handle in spawned {
            done.extend(handle.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
        for (index, result) in done {
            slots[index] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every job index is taken exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{Span, TraceRecorder};
    use std::collections::BTreeSet;
    use std::sync::{Barrier, Condvar};

    #[test]
    fn results_come_back_in_input_order() {
        for len in [0usize, 1, 2, 5, 40] {
            let items: Vec<usize> = (0..len).collect();
            let expected: Vec<String> = items.iter().map(|i| format!("job{i}")).collect();
            for threads in [0, 1, 2, 3, 8] {
                let got = par_map(threads, &items, |i| format!("job{i}"));
                assert_eq!(got, expected, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn a_slow_job_is_worked_around_by_stealing() {
        let items: Vec<u64> = (0..8).collect();
        // Job 0 heads worker 0's deque and blocks until some job has
        // been stolen. Worker 1 can only run out of its own jobs and
        // steal, so the test forces a steal without timing.
        let stole = Mutex::new(false);
        let stolen_signal = Condvar::new();
        let steals = Mutex::new(0);
        let got = par_map_with(
            2,
            items.len(),
            |_| (),
            |(), job| {
                if job.stolen {
                    *stole.lock().unwrap() = true;
                    stolen_signal.notify_all();
                }
                if job.index == 0 {
                    let guard = stole.lock().unwrap();
                    drop(stolen_signal.wait_while(guard, |s| !*s).unwrap());
                }
                items[job.index] * 3
            },
            |(), stats| *steals.lock().unwrap() += stats.steals,
        );
        assert_eq!(got, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert!(*steals.lock().unwrap() >= 1);
    }

    #[test]
    fn a_panicking_job_panics_the_caller() {
        // The barrier holds each worker in its first job until the
        // other arrives, so job 0 runs on the caller and job 1 on the
        // spawned worker: both panic paths are exercised.
        for panicking in [0usize, 1] {
            let barrier = Barrier::new(2);
            let caught = panic::catch_unwind(|| {
                par_map_with(
                    2,
                    2,
                    |worker| worker,
                    |&mut worker, _| {
                        barrier.wait();
                        if worker == panicking {
                            panic!("job failed on worker {worker}");
                        }
                    },
                    |_, _| (),
                )
            });
            let payload = caught.expect_err("the job's panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("job failed on worker {panicking}").as_str())
            );
        }
    }

    #[test]
    fn job_spans_nest_under_the_callers_span_on_every_worker() {
        let rec = TraceRecorder::new();
        let caller = Span::enter(&rec, "caller");
        let caller_id = caller.id();
        let barrier = Barrier::new(2);
        par_map(2, &[0, 1], |_| {
            // Keeps one job on each thread (see above).
            barrier.wait();
            let _job = Span::enter(&rec, "job");
        });
        drop(caller);
        let jobs: Vec<_> = rec
            .finished_spans()
            .into_iter()
            .filter(|s| s.name == "job")
            .collect();
        assert_eq!(jobs.len(), 2);
        let threads: BTreeSet<u64> = jobs.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 2, "one job ran on a spawned worker");
        assert!(jobs.iter().all(|s| s.parent == Some(caller_id)));
    }
}
