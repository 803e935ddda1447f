//! Offline stand-in for `rayon`.
//!
//! Instead of a work-stealing pool, a parallel stage splits its input
//! into one contiguous chunk per worker and runs the chunks on a small
//! persistent pool. The expensive stage — the closure given to
//! `map`/`for_each` — runs in parallel; later combinators (`filter`,
//! `min_by`, `collect`, …) operate sequentially on the already-computed
//! results, which is where rayon itself spends negligible time for the
//! workloads in this repository.
//!
//! The pool:
//!
//! * **Persistent, parked workers.** Worker threads are spawned on
//!   first need and live for the process. Between jobs each one waits on
//!   its own `Condvar`; none spins. A stage costs a wake-up per worker,
//!   not a thread spawn.
//! * **Fixed chunk placement.** The calling thread runs chunk 0 and
//!   chunk `i` always runs on worker `i`, so a caller that splits the
//!   same data the same way every call (a fleet's shards, one call per
//!   segment of intervals) keeps each worker's data and thread-locals
//!   warm from one call to the next.
//! * **One caller at a time.** A stage started while the pool is busy —
//!   a nested `par_iter` inside a job, or a second OS thread calling
//!   concurrently — runs serially on its own thread, so nothing waits
//!   on a worker that is waiting on it.
//!
//! Ordering matches rayon's indexed iterators: results come back in input
//! order. A panic in any chunk propagates to the caller once every chunk
//! has finished.
//!
//! The worker count is `RAYON_NUM_THREADS` when set, else available
//! parallelism, read once per process at the first stage.
//! [`with_num_threads`] overrides it for the duration of a closure on
//! the calling thread, and every job a stage posts carries the count
//! along, so nested stages inside a chunk split their work the same way.
//! This lets one process run the same computation at several worker
//! counts and compare the results.

use std::any::Any;
use std::cell::Cell;
use std::env;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Everything callers need via `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

thread_local! {
    /// The count [`with_num_threads`] set on this thread, if any.
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads to fan out across: the innermost
/// [`with_num_threads`] count on this thread, else the process count.
pub fn current_num_threads() -> usize {
    static PROCESS: OnceLock<usize> = OnceLock::new();
    OVERRIDE.get().unwrap_or_else(|| {
        *PROCESS.get_or_init(|| {
            env::var("RAYON_NUM_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
        })
    })
}

/// Runs `f` with every parallel stage it starts on this thread, and every
/// stage nested inside their chunks, split across `n` workers. The
/// previous count is restored when `f` returns or unwinds.
///
/// # Panics
///
/// If `n` is zero.
pub fn with_num_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "a parallel stage needs at least one worker");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(OVERRIDE.replace(Some(n)));
    f()
}

fn chunk_len(total: usize, workers: usize) -> usize {
    total.div_ceil(workers.max(1)).max(1)
}

/// A chunk handed to a worker: the stage's closure, the chunk index and
/// the caller's worker count, which nested stages in the chunk use.
struct Job {
    run: *const (dyn Fn(usize) + Sync),
    chunk: usize,
    threads: usize,
}

// SAFETY: `run` points at a `Sync` closure, so calling it through a
// shared reference from another thread is sound, and `run_chunks` keeps
// the closure alive until every worker has finished with it.
unsafe impl Send for Job {}

/// One parked worker: its next job and the condition it waits on.
struct Worker {
    job: Mutex<Option<Job>>,
    wake: Condvar,
}

/// Completion state of the stage in flight.
struct Done {
    /// Worker chunks still running.
    pending: usize,
    /// The first panic a worker chunk raised.
    panic: Option<Box<dyn Any + Send>>,
}

struct Pool {
    /// Held by the one caller whose stage is on the workers. Taking it
    /// is an `Acquire` that pairs with the previous holder's `Release`
    /// store; the job slots and completion state it guards are mutexes
    /// of their own, so the flag only decides who may use the workers.
    busy: AtomicBool,
    /// `workers[i]` runs chunk `i + 1`; grows on demand, never shrinks.
    workers: Mutex<Vec<Arc<Worker>>>,
    done: Mutex<Done>,
    all_done: Condvar,
}

static POOL: Pool = Pool {
    busy: AtomicBool::new(false),
    workers: Mutex::new(Vec::new()),
    done: Mutex::new(Done {
        pending: 0,
        panic: None,
    }),
    all_done: Condvar::new(),
};

/// A worker's life: wait for a job, run it, report it, wait again. It is
/// never joined; parked, it costs nothing until the process exits.
fn worker_loop(worker: Arc<Worker>) {
    loop {
        let job = {
            let mut slot = worker.job.lock().expect("job slot is never poisoned");
            loop {
                if let Some(job) = slot.take() {
                    break job;
                }
                slot = worker.wake.wait(slot).expect("job slot is never poisoned");
            }
        };
        // SAFETY: `run_chunks` posted this job and blocks until `pending`
        // reaches zero, which happens only below, after the call returned
        // or unwound; so the closure is still alive here.
        let outcome = with_num_threads(job.threads, || {
            panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.run)(job.chunk) }))
        });
        let mut done = POOL
            .done
            .lock()
            .expect("completion state is never poisoned");
        if let Err(payload) = outcome {
            done.panic.get_or_insert(payload);
        }
        done.pending -= 1;
        if done.pending == 0 {
            POOL.all_done.notify_one();
        }
    }
}

/// Runs `job(i)` for every `i < chunks` and returns when all have
/// finished: chunk 0 on the calling thread, chunk `i` on pool worker
/// `i`. Runs serially when there is one chunk or the pool is busy. A
/// panic in any chunk is resumed here after every chunk has finished.
fn run_chunks(chunks: usize, job: &(dyn Fn(usize) + Sync)) {
    if chunks <= 1
        || POOL
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
    {
        (0..chunks).for_each(job);
        return;
    }
    // SAFETY: only the lifetime is erased (same fat-pointer layout). This
    // function does not return, normally or by unwinding, before every
    // worker holding the pointer has reported completion below, and a
    // worker catches its chunk's panic before reporting.
    let run: *const (dyn Fn(usize) + Sync + 'static) = unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
            job,
        )
    };
    POOL.done
        .lock()
        .expect("completion state is never poisoned")
        .pending = chunks - 1;
    let threads = current_num_threads();
    {
        let mut workers = POOL.workers.lock().expect("worker list is never poisoned");
        while workers.len() < chunks - 1 {
            let worker = Arc::new(Worker {
                job: Mutex::new(None),
                wake: Condvar::new(),
            });
            let handle = Arc::clone(&worker);
            thread::Builder::new()
                .name(format!("rayon-shim-{}", workers.len() + 1))
                .spawn(move || worker_loop(handle))
                .expect("spawn a rayon shim worker");
            workers.push(worker);
        }
        for (i, worker) in workers[..chunks - 1].iter().enumerate() {
            *worker.job.lock().expect("job slot is never poisoned") = Some(Job {
                run,
                chunk: i + 1,
                threads,
            });
            worker.wake.notify_one();
        }
    }
    let own = panic::catch_unwind(AssertUnwindSafe(|| job(0)));
    let worker_panic = {
        let mut done = POOL
            .done
            .lock()
            .expect("completion state is never poisoned");
        while done.pending > 0 {
            done = POOL
                .all_done
                .wait(done)
                .expect("completion state is never poisoned");
        }
        done.panic.take()
    };
    POOL.busy.store(false, Ordering::Release);
    if let Err(payload) = own {
        panic::resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        panic::resume_unwind(payload);
    }
}

/// Applies `f` to every element of an owned collection across the pool,
/// preserving input order in the output.
fn parallel_map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = current_num_threads().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let per_chunk = chunk_len(n, workers);
    let mut iter = items.into_iter();
    let inputs: Vec<Mutex<Vec<T>>> = (0..n.div_ceil(per_chunk))
        .map(|_| Mutex::new(iter.by_ref().take(per_chunk).collect()))
        .collect();
    let outputs: Vec<Mutex<Vec<R>>> = inputs.iter().map(|_| Mutex::new(Vec::new())).collect();
    run_chunks(inputs.len(), &|i| {
        let chunk = std::mem::take(&mut *inputs[i].lock().expect("chunk taken once"));
        let mapped: Vec<R> = chunk.into_iter().map(&f).collect();
        *outputs[i].lock().expect("chunk stored once") = mapped;
    });
    outputs
        .into_iter()
        .flat_map(|m| m.into_inner().expect("chunk stored once"))
        .collect()
}

/// Runs `f` on every element of a mutable slice across the pool.
fn parallel_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let n = items.len();
    let workers = current_num_threads().min(n);
    if workers <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let chunks: Vec<Mutex<&mut [T]>> = items
        .chunks_mut(chunk_len(n, workers))
        .map(Mutex::new)
        .collect();
    run_chunks(chunks.len(), &|i| {
        chunks[i]
            .lock()
            .expect("chunk locked once")
            .iter_mut()
            .for_each(&f);
    });
}

/// Converts a value into a parallel iterator over owned items.
pub trait IntoParallelIterator {
    /// Element type produced.
    type Item: Send;

    /// Starts the parallel pipeline.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

/// `.par_iter()` — parallel iteration over `&T`.
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed element type.
    type Item: Send + 'a;

    /// Starts the parallel pipeline over references.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

/// `.par_iter_mut()` — parallel iteration over `&mut T`.
pub trait IntoParallelRefMutIterator<'a> {
    /// Mutably borrowed element type.
    type Item: Send + 'a;

    /// Starts the parallel pipeline over mutable references.
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<T: Send + Sync> IntoParallelIterator for std::ops::Range<T>
where
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { items: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { items: self }
    }
}

/// A parallel iterator over owned (or shared-reference) items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// The parallel stage: applies `f` across worker threads.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParResults<R> {
        ParResults {
            items: parallel_map_vec(self.items, f),
        }
    }

    /// Runs `f` for every item across worker threads.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        parallel_map_vec(self.items, f);
    }

    /// Parallel map discarding `None` results.
    pub fn filter_map<R: Send, F: Fn(T) -> Option<R> + Sync>(self, f: F) -> ParResults<R> {
        ParResults {
            items: parallel_map_vec(self.items, f)
                .into_iter()
                .flatten()
                .collect(),
        }
    }

    /// Parallel map flattening per-item result collections.
    pub fn flat_map<C, F>(self, f: F) -> ParResults<C::Item>
    where
        C: IntoIterator,
        C::Item: Send,
        C: Send,
        F: Fn(T) -> C + Sync,
    {
        ParResults {
            items: parallel_map_vec(self.items, f)
                .into_iter()
                .flat_map(IntoIterator::into_iter)
                .collect(),
        }
    }
}

/// A parallel iterator over exclusive references.
pub struct ParIterMut<'a, T> {
    items: &'a mut [T],
}

impl<T: Send> ParIterMut<'_, T> {
    /// Runs `f` on every element across worker threads.
    pub fn for_each<F: Fn(&mut T) + Sync>(self, f: F) {
        parallel_for_each_mut(self.items, f);
    }
}

/// Results of a parallel stage, in input order. Combinators past this
/// point run sequentially over the computed values.
pub struct ParResults<T> {
    items: Vec<T>,
}

impl<T> ParResults<T> {
    /// Gathers results into any collection.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Keeps results matching the predicate.
    pub fn filter<F: Fn(&T) -> bool>(self, f: F) -> ParResults<T> {
        ParResults {
            items: self.items.into_iter().filter(|x| f(x)).collect(),
        }
    }

    /// Sequential post-map over computed results.
    pub fn map<R, F: Fn(T) -> R>(self, f: F) -> ParResults<R> {
        ParResults {
            items: self.items.into_iter().map(f).collect(),
        }
    }

    /// Minimum by comparator.
    pub fn min_by<F: Fn(&T, &T) -> std::cmp::Ordering>(self, f: F) -> Option<T> {
        self.items.into_iter().min_by(f)
    }

    /// Maximum by comparator.
    pub fn max_by<F: Fn(&T, &T) -> std::cmp::Ordering>(self, f: F) -> Option<T> {
        self.items.into_iter().max_by(f)
    }

    /// Pairwise reduction with an identity for the empty case.
    pub fn reduce<Id: Fn() -> T, F: Fn(T, T) -> T>(self, identity: Id, f: F) -> T {
        self.items.into_iter().fold(identity(), f)
    }

    /// Number of results.
    pub fn count(self) -> usize {
        self.items.len()
    }
}

impl<T> IntoIterator for ParResults<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, with_num_threads};
    use std::sync::{Barrier, RwLock, RwLockReadGuard, RwLockWriteGuard};
    use std::thread::{self, ThreadId};

    /// The pool is process-wide, and a stage started while another holds
    /// it runs serially. Tests that assert which threads ran their chunks
    /// take this lock exclusively; every other test takes it shared, so
    /// none of them holds the pool meanwhile.
    static POOL_USERS: RwLock<()> = RwLock::new(());

    fn exclusive() -> RwLockWriteGuard<'static, ()> {
        POOL_USERS.write().unwrap_or_else(|e| e.into_inner())
    }

    fn shared() -> RwLockReadGuard<'static, ()> {
        POOL_USERS.read().unwrap_or_else(|e| e.into_inner())
    }

    fn chunk_threads() -> Vec<ThreadId> {
        let ids: Vec<ThreadId> = (0..30)
            .into_par_iter()
            .map(|_| thread::current().id())
            .collect();
        let mut distinct = ids.clone();
        distinct.dedup();
        distinct
    }

    #[test]
    fn results_are_ordered_and_identical_on_one_and_three_threads() {
        let _g = shared();
        let run = || {
            let mapped: Vec<u64> = (0u64..1000).into_par_iter().map(|x| x * x + 1).collect();
            let mut data: Vec<u64> = (0..257).collect();
            data.par_iter_mut().for_each(|x| *x = *x * 3 + 1);
            (mapped, data)
        };
        let one = with_num_threads(1, run);
        assert_eq!(one.0, (0u64..1000).map(|x| x * x + 1).collect::<Vec<_>>());
        assert_eq!(one.1, (0u64..257).map(|x| x * 3 + 1).collect::<Vec<_>>());
        assert_eq!(one, with_num_threads(3, run));
    }

    #[test]
    fn the_count_is_scoped_and_travels_with_each_job() {
        let _g = shared();
        let outside = current_num_threads();
        // Each chunk reports the count a nested stage would split by, on
        // whichever thread runs it; a count set for an earlier job must
        // not linger on a worker.
        let counts = |n: usize| {
            with_num_threads(n, || {
                (0..n)
                    .into_par_iter()
                    .map(|_| current_num_threads())
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(counts(3), vec![3; 3]);
        assert_eq!(counts(2), vec![2; 2]);
        assert_eq!(
            with_num_threads(4, || with_num_threads(1, current_num_threads)),
            1
        );
        let unwound = std::panic::catch_unwind(|| with_num_threads(5, || panic!("inside")));
        assert!(unwound.is_err());
        assert_eq!(current_num_threads(), outside, "the count is restored");
    }

    #[test]
    fn workers_persist_across_calls() {
        let _g = exclusive();
        let (first, second) = with_num_threads(3, || (chunk_threads(), chunk_threads()));
        // Chunk 0 on the caller, chunks 1 and 2 on two pool workers: the
        // same threads both times, so nothing was spawned for the second
        // call.
        assert_eq!(first.len(), 3, "{first:?}");
        assert_eq!(first[0], thread::current().id());
        assert_ne!(first[1], first[2]);
        assert_eq!(first, second);
    }

    #[test]
    fn nested_par_iter_runs_inside_a_job() {
        let _g = shared();
        let sums: Vec<u64> = with_num_threads(3, || {
            (0u64..6)
                .into_par_iter()
                .map(|i| {
                    let inner: Vec<u64> = (0u64..100).into_par_iter().map(|j| i * j).collect();
                    inner.iter().sum()
                })
                .collect()
        });
        assert_eq!(sums, (0u64..6).map(|i| i * 4950).collect::<Vec<_>>());
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let _g = exclusive();
        with_num_threads(3, || {
            let caught = std::panic::catch_unwind(|| {
                // The last chunk runs on a worker.
                (0u32..30)
                    .into_par_iter()
                    .map(|x| {
                        assert!(x != 29, "chunk on a worker failed");
                        x
                    })
                    .collect::<Vec<_>>()
            });
            let payload = caught.expect_err("the worker's panic propagates");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains("chunk on a worker failed"), "{msg}");
            // The pool is usable again, on the same workers.
            let out: Vec<u32> = (0u32..30).into_par_iter().map(|x| x + 1).collect();
            assert_eq!(out, (1u32..31).collect::<Vec<_>>());
            assert_eq!(chunk_threads().len(), 3);
        });
    }

    #[test]
    fn concurrent_callers_both_finish() {
        let _g = exclusive();
        // Three chunks of the first caller's stage plus the second caller
        // meet at `started` (so the pool is busy) and again at `release`,
        // which the second caller reaches only after its own stage has
        // finished. The count is per thread, so each caller sets it.
        let started = Barrier::new(4);
        let release = Barrier::new(4);
        thread::scope(|scope| {
            let first = scope.spawn(|| {
                with_num_threads(3, || {
                    (0u64..3)
                        .into_par_iter()
                        .map(|x| {
                            started.wait();
                            release.wait();
                            x * 10
                        })
                        .collect::<Vec<_>>()
                })
            });
            let second = scope.spawn(|| {
                started.wait();
                let me = thread::current().id();
                let out: Vec<(u64, bool)> = with_num_threads(3, || {
                    (0u64..50)
                        .into_par_iter()
                        .map(|x| (x + 1, thread::current().id() == me))
                        .collect()
                });
                release.wait();
                out
            });
            assert_eq!(first.join().expect("first caller"), vec![0, 10, 20]);
            let out = second.join().expect("second caller");
            assert!(out.iter().all(|&(_, own_thread)| own_thread));
            assert_eq!(
                out.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
                (1u64..51).collect::<Vec<_>>()
            );
        });
    }

    #[test]
    fn map_preserves_input_order() {
        let _g = shared();
        let out: Vec<u64> = (0u64..1000).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0u64..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_borrows_and_reduces() {
        let _g = shared();
        let data: Vec<u32> = (1..=100).collect();
        let max = data.par_iter().map(|&x| x * x).max_by(|a, b| a.cmp(b));
        assert_eq!(max, Some(10_000));
    }

    #[test]
    fn par_iter_mut_updates_in_place() {
        let _g = shared();
        let mut data: Vec<u32> = vec![1; 257];
        data.par_iter_mut().for_each(|x| *x += 1);
        assert!(data.iter().all(|&x| x == 2));
    }

    #[test]
    fn empty_inputs_are_fine() {
        let _g = shared();
        let out: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        Vec::<u32>::new().par_iter_mut().for_each(|_| {});
    }

    #[test]
    fn filter_map_and_flat_map() {
        let _g = shared();
        let evens: Vec<u32> = (0u32..20)
            .into_par_iter()
            .filter_map(|x| (x % 2 == 0).then_some(x))
            .collect();
        assert_eq!(evens.len(), 10);
        let doubled: Vec<u32> = (0u32..5).into_par_iter().flat_map(|x| vec![x, x]).collect();
        assert_eq!(doubled, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
    }
}
