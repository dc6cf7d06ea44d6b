//! Executor pool: fixed worker threads over one run queue. The queue holds
//! one pinned deque per executor plus one shared deque, so a task can be
//! pinned to the executor that holds its data; an executor serves its own
//! deque first and takes shared work whenever it is idle.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A unit of work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    static WORKER_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The executor id of the current thread, when running inside the pool.
/// Data sources use this to detect whether they were scheduled locally.
pub fn current_worker() -> Option<usize> {
    WORKER_ID.with(|w| w.get())
}

/// Scheduling statistics for the locality experiments. Per-pool counts are
/// exact (tests create many pools concurrently); every increment is also
/// mirrored into the process-wide `sparklet.pool.*` counters of the global
/// [`telemetry`] registry so dispatch activity shows up in `metrics` output.
#[derive(Debug, Default)]
pub struct PoolStats {
    local_dispatches: AtomicU64,
    other_dispatches: AtomicU64,
}

impl PoolStats {
    fn record_local(&self) {
        self.local_dispatches.fetch_add(1, Ordering::Relaxed);
        telemetry::global()
            .counter("sparklet.pool.local_dispatches")
            .incr(1);
    }

    fn record_other(&self) {
        self.other_dispatches.fetch_add(1, Ordering::Relaxed);
        telemetry::global()
            .counter("sparklet.pool.other_dispatches")
            .incr(1);
    }

    /// Tasks dispatched to their preferred executor.
    pub fn local_dispatches(&self) -> u64 {
        self.local_dispatches.load(Ordering::Relaxed)
    }

    /// Tasks dispatched elsewhere (no preference, or locality disabled).
    pub fn other_dispatches(&self) -> u64 {
        self.other_dispatches.load(Ordering::Relaxed)
    }
}

/// The run queue every executor waits on: one lock over all deques, one
/// condition variable to wake executors when work arrives or the pool
/// closes.
struct RunQueue {
    state: Mutex<Queues>,
    ready: Condvar,
}

struct Queues {
    pinned: Vec<VecDeque<Task>>,
    shared: VecDeque<Task>,
    closed: bool,
}

impl RunQueue {
    /// Tasks run outside the lock, and every update under it is one push,
    /// pop or flag write, so even a poisoned guard holds valid queues.
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push_pinned(&self, worker: usize, task: Task) {
        self.lock().pinned[worker].push_back(task);
        // Only `worker` may take it, and the condvar cannot name one waiter.
        self.ready.notify_all();
    }

    fn push_shared(&self, task: Task) {
        self.lock().shared.push_back(task);
        // Any idle executor may take it.
        self.ready.notify_one();
    }
}

/// A fixed pool of executor threads.
pub struct ExecutorPool {
    queue: Arc<RunQueue>,
    handles: Vec<JoinHandle<()>>,
    stats: Arc<PoolStats>,
    next_rr: AtomicU64,
}

impl ExecutorPool {
    /// Spawns `workers` executor threads.
    pub fn new(workers: usize) -> ExecutorPool {
        let workers = workers.max(1);
        let queue = Arc::new(RunQueue {
            state: Mutex::new(Queues {
                pinned: (0..workers).map(|_| VecDeque::new()).collect(),
                shared: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|id| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("sparklet-exec-{id}"))
                    .spawn(move || worker_loop(id, &queue))
                    .expect("spawn executor")
            })
            .collect();
        ExecutorPool {
            queue,
            handles,
            stats: Arc::new(PoolStats::default()),
            next_rr: AtomicU64::new(0),
        }
    }

    /// Number of executors.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Submits a task. With `Some(worker)` the task is pinned to that
    /// executor's deque; otherwise it goes to the shared deque (any idle
    /// executor picks it up).
    pub fn submit(&self, preferred: Option<usize>, task: Task) {
        match preferred {
            Some(w) if w < self.workers() => {
                self.stats.record_local();
                self.queue.push_pinned(w, task);
            }
            _ => {
                self.stats.record_other();
                self.queue.push_shared(task);
            }
        }
    }

    /// Submits ignoring preference, spreading round-robin over the pinned
    /// deques (used when locality-aware scheduling is disabled, to keep
    /// queueing behaviour comparable).
    pub fn submit_round_robin(&self, task: Task) {
        let w = (self.next_rr.fetch_add(1, Ordering::Relaxed) as usize) % self.workers();
        self.stats.record_other();
        self.queue.push_pinned(w, task);
    }

    /// Dispatch counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        // Executors run everything already queued, then see the close.
        self.queue.lock().closed = true;
        self.queue.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(id: usize, queue: &RunQueue) {
    WORKER_ID.with(|w| w.set(Some(id)));
    let mut q = queue.lock();
    loop {
        // Pinned work first, then the shared deque.
        match q.pinned[id].pop_front().or_else(|| q.shared.pop_front()) {
            Some(task) => {
                drop(q);
                task();
                q = queue.lock();
            }
            None if q.closed => return,
            None => q = queue.ready.wait(q).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    const WAIT: Duration = Duration::from_secs(5);

    /// A task that reports it started on `started`, then blocks until its
    /// gate's sender is dropped.
    fn gated(started: Sender<()>, gate: Receiver<()>) -> Task {
        Box::new(move || {
            started.send(()).unwrap();
            let _ = gate.recv();
        })
    }

    #[test]
    fn executes_all_tasks() {
        let pool = ExecutorPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = channel();
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            let tx = done_tx.clone();
            pool.submit(
                None,
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    tx.send(()).unwrap();
                }),
            );
        }
        for _ in 0..100 {
            done_rx.recv_timeout(WAIT).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn pinned_tasks_run_on_their_executor() {
        let pool = ExecutorPool::new(4);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (done_tx, done_rx) = channel();
        for w in 0..4 {
            for _ in 0..10 {
                let seen = Arc::clone(&seen);
                let tx = done_tx.clone();
                pool.submit(
                    Some(w),
                    Box::new(move || {
                        seen.lock().unwrap().push((w, current_worker()));
                        tx.send(()).unwrap();
                    }),
                );
            }
        }
        for _ in 0..40 {
            done_rx.recv_timeout(WAIT).unwrap();
        }
        for (wanted, got) in seen.lock().unwrap().iter() {
            assert_eq!(Some(*wanted), *got);
        }
    }

    #[test]
    fn pinned_work_runs_before_earlier_shared_work() {
        let pool = ExecutorPool::new(1);
        let (gate_tx, gate_rx) = channel();
        let (started_tx, started_rx) = channel();
        pool.submit(Some(0), gated(started_tx, gate_rx));
        started_rx.recv_timeout(WAIT).unwrap();
        // The executor is busy: both tasks wait in the run queue, the
        // shared one submitted first.
        let (order_tx, order_rx) = channel();
        for (preferred, name) in [(None, "shared"), (Some(0), "pinned")] {
            let tx = order_tx.clone();
            pool.submit(preferred, Box::new(move || tx.send(name).unwrap()));
        }
        drop(gate_tx);
        let order: Vec<&str> = (0..2)
            .map(|_| order_rx.recv_timeout(WAIT).unwrap())
            .collect();
        assert_eq!(order, ["pinned", "shared"]);
    }

    #[test]
    fn shared_work_goes_to_the_idle_executor() {
        let pool = ExecutorPool::new(2);
        let (gate_tx, gate_rx) = channel();
        let (started_tx, started_rx) = channel();
        pool.submit(Some(0), gated(started_tx, gate_rx));
        started_rx.recv_timeout(WAIT).unwrap();
        let (done_tx, done_rx) = channel();
        for _ in 0..8 {
            let tx = done_tx.clone();
            pool.submit(None, Box::new(move || tx.send(current_worker()).unwrap()));
        }
        // All eight finish while executor 0 is still blocked.
        for _ in 0..8 {
            assert_eq!(done_rx.recv_timeout(WAIT), Ok(Some(1)));
        }
        drop(gate_tx);
    }

    #[test]
    fn out_of_range_preference_falls_back_to_shared() {
        let pool = ExecutorPool::new(2);
        let (done_tx, done_rx) = channel();
        pool.submit(
            Some(99),
            Box::new(move || {
                done_tx.send(current_worker()).unwrap();
            }),
        );
        let who = done_rx.recv_timeout(WAIT).unwrap();
        assert!(who.is_some());
        assert_eq!(pool.stats().other_dispatches(), 1);
    }

    #[test]
    fn current_worker_is_none_outside_pool() {
        assert_eq!(current_worker(), None);
    }

    #[test]
    fn drop_joins_cleanly_with_pending_pinned_tasks() {
        let pool = ExecutorPool::new(2);
        // Hold both executors so everything below is still queued when
        // the pool closes.
        let (started_tx, started_rx) = channel();
        let gates: Vec<_> = (0..2)
            .map(|w| {
                let (gate_tx, gate_rx) = channel();
                pool.submit(Some(w), gated(started_tx.clone(), gate_rx));
                gate_tx
            })
            .collect();
        let counter = Arc::new(AtomicUsize::new(0));
        let count = |counter: &Arc<AtomicUsize>| -> Task {
            let c = Arc::clone(counter);
            Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
        };
        for w in 0..2 {
            for _ in 0..50 {
                pool.submit(Some(w), count(&counter));
            }
        }
        for _ in 0..50 {
            pool.submit(None, count(&counter));
        }
        drop(gates);
        drop(pool);
        assert_eq!(started_rx.try_iter().count(), 2);
        assert_eq!(counter.load(Ordering::SeqCst), 150);
    }

    #[test]
    fn round_robin_spreads_over_workers() {
        let pool = ExecutorPool::new(4);
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let (done_tx, done_rx) = channel();
        for _ in 0..64 {
            let seen = Arc::clone(&seen);
            let tx = done_tx.clone();
            pool.submit_round_robin(Box::new(move || {
                seen.lock().unwrap().insert(current_worker());
                // Small pause so a single fast worker can't absorb all.
                std::thread::sleep(std::time::Duration::from_millis(1));
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..64 {
            done_rx.recv_timeout(WAIT).unwrap();
        }
        assert_eq!(seen.lock().unwrap().len(), 4);
    }
}
