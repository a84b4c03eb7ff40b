//! A fixed-size worker pool over std threads and an mpsc job queue.
//!
//! Workers pull boxed closures off a shared receiver and run each one
//! inside `catch_unwind`, so a panicking job takes down neither its
//! worker thread nor the queue: the pool keeps draining jobs after any
//! number of panics (the engine layer additionally converts panics into
//! error responses before they ever reach the pool's backstop). Dropping
//! the pool closes the queue and joins every worker — in-flight jobs
//! finish, queued jobs drain, then the threads exit.
//!
//! The queue, its workers and their backstop panic counter are created
//! with the first job, not with the pool: an engine that only ever
//! answers from its cache, or inline, never pays for them, and building
//! a pool allocates nothing. The queue matters as much as the threads: its block is
//! cache-padded (over-aligned), and right after a busy engine was
//! dropped that one allocation took ~1.5 µs on a 2-core host, against
//! ~0.15 µs for a plain small one: most of building the next engine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// A unit of work: a boxed closure the pool runs on some worker.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// the engine's shared state (cache, counters) stays usable after a
/// poisoned job.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The fixed-size worker pool.
pub struct WorkerPool {
    jobs: usize,
    workers: OnceLock<Workers>,
}

/// The queue and the threads draining it, created with the first job.
struct Workers {
    tx: Sender<Job>,
    handles: Vec<JoinHandle<()>>,
    /// Jobs that reached the backstop.
    panics: Arc<AtomicU64>,
}

impl WorkerPool {
    /// A pool of `jobs.max(1)` worker threads sharing one queue; the
    /// threads start with the first [`spawn`](WorkerPool::spawn).
    pub fn new(jobs: usize) -> WorkerPool {
        WorkerPool {
            jobs: jobs.max(1),
            workers: OnceLock::new(),
        }
    }

    fn start(&self) -> Workers {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let panics = Arc::new(AtomicU64::new(0));
        let handles = (0..self.jobs)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("nuspi-engine-worker-{i}"))
                    // Analyses recurse over the process term (digesting,
                    // lint passes, constraint generation), so give
                    // workers headroom well past the platform's 2 MiB
                    // spawned-thread default: a stack overflow is an
                    // abort that no catch_unwind can contain.
                    .stack_size(16 * 1024 * 1024)
                    .spawn(move || worker_loop(&rx, &panics))
                    .expect("spawn worker thread")
            })
            .collect();
        Workers {
            tx,
            handles,
            panics,
        }
    }

    /// Number of worker threads.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Jobs that reached the pool's panic backstop (the engine layer
    /// normally catches panics first, so this stays zero).
    pub fn backstop_panics(&self) -> u64 {
        self.workers
            .get()
            .map_or(0, |w| w.panics.load(Ordering::Relaxed))
    }

    /// Enqueues a job, starting the workers on first use. The queue is
    /// unbounded; submission never blocks.
    pub fn spawn(&self, job: Job) {
        self.workers
            .get_or_init(|| self.start())
            .tx
            .send(job)
            .expect("workers alive while pool is alive");
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, panics: &AtomicU64) {
    loop {
        // Take the next job while holding the lock, then release it
        // before running, so one long job never serialises the others.
        let job = match lock(rx).recv() {
            Ok(job) => job,
            Err(_) => return, // queue closed: graceful shutdown
        };
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(Workers { tx, handles, .. }) = self.workers.take() {
            drop(tx); // close the queue; workers drain and exit
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn runs_jobs_on_all_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.jobs(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.spawn(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(());
            }));
        }
        for _ in 0..64 {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn workers_start_with_the_first_job() {
        let pool = WorkerPool::new(2);
        assert!(pool.workers.get().is_none(), "no threads before a job");
        let (tx, rx) = mpsc::channel();
        pool.spawn(Box::new(move || {
            let _ = tx.send(());
        }));
        rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        assert_eq!(pool.workers.get().map(|w| w.handles.len()), Some(2));
    }

    #[test]
    fn zero_jobs_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.jobs(), 1);
    }

    #[test]
    fn panicking_jobs_do_not_wedge_the_pool() {
        let pool = WorkerPool::new(2);
        for _ in 0..8 {
            pool.spawn(Box::new(|| panic!("injected failure")));
        }
        // The pool must still process ordinary work afterwards.
        let (tx, rx) = mpsc::channel();
        for i in 0..4 {
            let tx = tx.clone();
            pool.spawn(Box::new(move || {
                let _ = tx.send(i);
            }));
        }
        let mut got: Vec<i32> = (0..4)
            .map(|_| rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        // A worker may still be unwinding its last injected panic when
        // the sentinel jobs finish on the other worker; wait for the
        // backstop counter rather than racing it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.backstop_panics() < 8 {
            assert!(
                std::time::Instant::now() < deadline,
                "backstop never reached 8"
            );
            std::thread::yield_now();
        }
        assert_eq!(pool.backstop_panics(), 8);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            for _ in 0..16 {
                let counter = Arc::clone(&counter);
                pool.spawn(Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }));
            }
        } // Drop joins after the queue drains.
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }
}
