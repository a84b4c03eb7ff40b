//! The [`AnalysisEngine`]: worker pool + content-addressed cache +
//! counters, behind a two-call API ([`AnalysisEngine::submit`] /
//! [`AnalysisEngine::submit_batch`]).
//!
//! Submission is dispatch-then-wait. Dispatch checks the cache under
//! the lock and, on a miss, enqueues the prepared job on the pool; the
//! worker runs the analysis inside `catch_unwind`, stores a cacheable
//! body, and hands the result back over a per-request channel. Waiting
//! honours the request's deadline with `recv_timeout`: an expired
//! request gets an error response, but the job still completes on its
//! worker and warms the cache for the retry.
//!
//! Batches dispatch every request before waiting on any, so a batch of
//! N runs N-wide (up to the pool size) and responses come back in
//! request order regardless of completion order.

use crate::cache::{ByteLru, CacheCounters};
use crate::exec::{prepare, Analysis};
use crate::pool::{lock, WorkerPool};
use crate::request::{error_body, Envelope, Request, Response};
use nuspi_equiv::EquivConfig;
use nuspi_security::IntruderConfig;
use nuspi_semantics::ExecConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Engine construction parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// Worker threads. `0` means one per available core.
    pub jobs: usize,
    /// Byte budget of the response cache. `0` means the 32 MiB default.
    pub cache_bytes: usize,
    /// Budgets of the carefulness monitor (part of the cache key, so
    /// changing them never serves stale bodies).
    pub exec: ExecConfig,
    /// Budgets of the bounded Dolev–Yao intruder (likewise keyed).
    pub intruder: IntruderConfig,
    /// Budgets of the hedged-bisimulation game behind the `equiv` op
    /// (keyed for that op only: `equiv` verdicts depend on them, the
    /// static ops do not).
    pub equiv: EquivConfig,
}

/// The default cache byte budget.
pub const DEFAULT_CACHE_BYTES: usize = 32 << 20;

/// Meters of a tier-two (persistent) response store, snapshotted into
/// [`EngineStats::store`] when one is attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreMeters {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing (or a record that failed its
    /// checksum).
    pub misses: u64,
    /// Bodies admitted and appended to the log.
    pub admits: u64,
    /// Bodies rejected by the admission policy (compute time below the
    /// minimum, or already present).
    pub rejects: u64,
    /// Entries evicted by log compaction.
    pub evicted: u64,
    /// Compaction passes run.
    pub compactions: u64,
    /// Corrupt or truncated records skipped during the startup scan.
    pub corrupt_skipped: u64,
    /// Live entries in the in-memory index.
    pub entries: u64,
    /// Bytes currently occupied by the on-disk log.
    pub log_bytes: u64,
}

/// A second cache tier behind the in-memory LRU: consulted on a memory
/// miss, written after a cacheable compute. Implementations must be
/// content-addressed on the same α-invariant key the memory tier uses,
/// so a loaded body is byte-identical to recomputing it.
pub trait TierTwoCache: Send + Sync {
    /// Looks `key` up, returning the stored body verbatim.
    fn load(&self, key: u128) -> Option<Arc<str>>;
    /// Offers a freshly computed body for persistence. `compute` is the
    /// wall-clock cost of producing it, for admission policies that
    /// only persist expensive bodies.
    fn store(&self, key: u128, body: &str, compute: Duration);
    /// A snapshot of the store's meters.
    fn meters(&self) -> StoreMeters;
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    completed: AtomicU64,
    job_panics: AtomicU64,
    deadline_expirations: AtomicU64,
    uncacheable: AtomicU64,
}

/// A point-in-time snapshot of the engine's meters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Worker threads in the pool.
    pub jobs: usize,
    /// Cache traffic counters.
    pub cache: CacheCounters,
    /// Bytes currently held by the cache.
    pub cache_bytes: usize,
    /// The cache's byte budget.
    pub cache_budget: usize,
    /// Live cache entries.
    pub cache_entries: usize,
    /// Requests submitted (single or batched).
    pub requests: u64,
    /// Responses produced (from cache or workers).
    pub completed: u64,
    /// Jobs that panicked and were converted to error responses.
    pub job_panics: u64,
    /// Requests whose deadline expired before their job finished.
    pub deadline_expirations: u64,
    /// Requests that could not be cached (parse errors, debug jobs).
    pub uncacheable: u64,
    /// Meters of the tier-two store, when one is attached.
    pub store: Option<StoreMeters>,
}

impl EngineStats {
    /// Cache hits over cacheable lookups, in `[0, 1]`; `0.0` before any
    /// lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }
}

/// The batch analysis service: a worker pool answering [`Request`]s,
/// with repeats served from a content-addressed cache.
pub struct AnalysisEngine {
    cfg: EngineConfig,
    pool: WorkerPool,
    shared: Arc<Shared>,
    store: Option<Arc<dyn TierTwoCache>>,
}

/// What the engine shares with its pooled jobs, in one allocation: a
/// job takes one reference to it.
struct Shared {
    cache: Mutex<ByteLru>,
    counters: Counters,
}

/// A dispatched request: either already answered (cache hit, or
/// rejected before analysis) or in flight on the pool.
enum Pending {
    Ready(Response),
    Waiting {
        id: Option<String>,
        op: &'static str,
        deadline: Option<Duration>,
        rx: Receiver<Arc<str>>,
    },
}

/// One worker per core: the default pool width, read once per process
/// (on Linux the query reads cgroup files, which costs more than the
/// rest of building an engine).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

impl AnalysisEngine {
    /// Builds an engine from `cfg`. The worker pool starts its threads
    /// with the first pooled job.
    pub fn new(cfg: EngineConfig) -> AnalysisEngine {
        let jobs = if cfg.jobs == 0 { cores() } else { cfg.jobs };
        let budget = if cfg.cache_bytes == 0 {
            DEFAULT_CACHE_BYTES
        } else {
            cfg.cache_bytes
        };
        AnalysisEngine {
            pool: WorkerPool::new(jobs),
            shared: Arc::new(Shared {
                cache: Mutex::new(ByteLru::new(budget)),
                counters: Counters::default(),
            }),
            cfg,
            store: None,
        }
    }

    /// Attaches a tier-two (persistent) store behind the memory cache.
    /// Memory misses consult it before computing; cacheable computes
    /// are offered to it. Attach before serving traffic — the store is
    /// part of the engine's lookup path, not hot-swappable.
    pub fn set_store(&mut self, store: Arc<dyn TierTwoCache>) {
        self.store = Some(store);
    }

    /// An engine with default budgets and `jobs` workers.
    pub fn with_jobs(jobs: usize) -> AnalysisEngine {
        AnalysisEngine::new(EngineConfig {
            jobs,
            ..EngineConfig::default()
        })
    }

    /// Number of worker threads.
    pub fn jobs(&self) -> usize {
        self.pool.jobs()
    }

    /// Runs one request to completion.
    pub fn submit(&self, envelope: impl Into<Envelope>) -> Response {
        self.wait(self.dispatch(envelope.into()))
    }

    /// Runs a batch, fanning the misses across the pool, and returns
    /// responses in request order.
    pub fn submit_batch(&self, envelopes: Vec<Envelope>) -> Vec<Response> {
        let pending: Vec<Pending> = envelopes.into_iter().map(|e| self.dispatch(e)).collect();
        pending.into_iter().map(|p| self.wait(p)).collect()
    }

    /// Convenience: submits bare requests with no ids or deadlines.
    pub fn submit_requests(&self, requests: Vec<Request>) -> Vec<Response> {
        self.submit_batch(requests.into_iter().map(Envelope::from).collect())
    }

    fn dispatch(&self, envelope: Envelope) -> Pending {
        let Shared { cache, counters } = &*self.shared;
        counters.requests.fetch_add(1, Ordering::Relaxed);
        let Envelope {
            id,
            request,
            deadline,
        } = envelope;
        let op = request.op();
        let (key, run) = match prepare(request, &self.cfg) {
            Ok(job) => job,
            // Rejected before analysis: uncacheable, and the error body
            // is the answer.
            Err(message) => {
                counters.uncacheable.fetch_add(1, Ordering::Relaxed);
                counters.completed.fetch_add(1, Ordering::Relaxed);
                return Pending::Ready(Response {
                    id,
                    body: Arc::from(error_body(op, &message).as_str()),
                    cached: false,
                });
            }
        };
        if let Some(key) = key {
            if let Some(body) = lock(cache).get(key) {
                counters.completed.fetch_add(1, Ordering::Relaxed);
                return Pending::Ready(Response {
                    id,
                    body,
                    cached: true,
                });
            }
            // Memory miss: consult the tier-two store. A hit is
            // promoted into the memory LRU so repeats stay in tier one.
            if let Some(store) = &self.store {
                if let Some(body) = store.load(key) {
                    lock(cache).insert(key, Arc::clone(&body));
                    counters.completed.fetch_add(1, Ordering::Relaxed);
                    return Pending::Ready(Response {
                        id,
                        body,
                        cached: true,
                    });
                }
            }
        } else {
            counters.uncacheable.fetch_add(1, Ordering::Relaxed);
        }
        let (tx, rx) = channel::<Arc<str>>();
        let shared = Arc::clone(&self.shared);
        let store = self.store.clone();
        // Clock reads only happen with the recorder on, so the disabled
        // path stays allocation- and syscall-free.
        let enqueued = nuspi_obs::enabled().then(std::time::Instant::now);
        self.pool.spawn(Box::new(move || {
            if let Some(t) = enqueued {
                nuspi_obs::record_duration("engine.queue_wait_us", t.elapsed());
            }
            let body = execute(run, op, key, &shared, store.as_deref());
            let _ = tx.send(body); // receiver may have timed out; fine
        }));
        Pending::Waiting {
            id,
            op,
            deadline,
            rx,
        }
    }

    fn wait(&self, pending: Pending) -> Response {
        let counters = &self.shared.counters;
        match pending {
            Pending::Ready(r) => r,
            Pending::Waiting {
                id,
                op,
                deadline,
                rx,
            } => {
                let received = match deadline {
                    Some(d) => rx.recv_timeout(d),
                    None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                };
                let response = match received {
                    Ok(body) => Response {
                        id,
                        body,
                        cached: false,
                    },
                    Err(RecvTimeoutError::Timeout) => {
                        counters
                            .deadline_expirations
                            .fetch_add(1, Ordering::Relaxed);
                        nuspi_obs::counter("engine.deadline_expirations", 1);
                        let ms = deadline.map_or(0, |d| d.as_millis());
                        Response {
                            id,
                            body: Arc::from(
                                error_body(op, &format!("deadline exceeded after {ms}ms")).as_str(),
                            ),
                            cached: false,
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => Response {
                        id,
                        body: Arc::from(error_body(op, "worker disconnected").as_str()),
                        cached: false,
                    },
                };
                counters.completed.fetch_add(1, Ordering::Relaxed);
                response
            }
        }
    }

    /// A snapshot of the engine's meters.
    pub fn stats(&self) -> EngineStats {
        let cache = lock(&self.shared.cache);
        let counters = &self.shared.counters;
        EngineStats {
            jobs: self.pool.jobs(),
            cache: cache.counters(),
            cache_bytes: cache.bytes(),
            cache_budget: cache.budget(),
            cache_entries: cache.entries(),
            requests: counters.requests.load(Ordering::Relaxed),
            completed: counters.completed.load(Ordering::Relaxed),
            job_panics: counters.job_panics.load(Ordering::Relaxed),
            deadline_expirations: counters.deadline_expirations.load(Ordering::Relaxed),
            uncacheable: counters.uncacheable.load(Ordering::Relaxed),
            store: self.store.as_ref().map(|s| s.meters()),
        }
    }
}

/// Runs a job's analysis on its worker, converting a panic into an
/// error body and storing cacheable successes.
fn execute(
    run: Analysis,
    op: &'static str,
    key: Option<u128>,
    shared: &Shared,
    store: Option<&dyn TierTwoCache>,
) -> Arc<str> {
    let Shared { cache, counters } = shared;
    let _sp = nuspi_obs::span!("engine.exec", op = op);
    // Compute time feeds the store's admission policy, so with a store
    // attached the clock is read even while tracing is off.
    let started =
        (nuspi_obs::enabled() || (store.is_some() && key.is_some())).then(std::time::Instant::now);
    let body = match catch_unwind(AssertUnwindSafe(run)) {
        Ok(body) => {
            let body: Arc<str> = Arc::from(body.as_str());
            if let Some(key) = key {
                lock(cache).insert(key, Arc::clone(&body));
                if let (Some(store), Some(t)) = (store, started) {
                    store.store(key, &body, t.elapsed());
                }
            }
            body
        }
        Err(payload) => {
            counters.job_panics.fetch_add(1, Ordering::Relaxed);
            nuspi_obs::counter("engine.exec.panics", 1);
            let msg = panic_message(payload.as_ref());
            Arc::from(error_body(op, &format!("analysis panicked: {msg}")).as_str())
        }
    };
    if let (Some(t), true) = (started, nuspi_obs::enabled()) {
        let busy = t.elapsed();
        nuspi_obs::record_duration("engine.exec_us", busy);
        let current = std::thread::current();
        let worker = current.name().unwrap_or("unnamed");
        nuspi_obs::counter(
            &format!("engine.worker.{worker}.busy_us"),
            busy.as_micros() as u64,
        );
    }
    body
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "unknown panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "(new k) (new m) c<{m, new r}:k>.0";

    #[test]
    fn submit_then_resubmit_hits_the_cache() {
        let engine = AnalysisEngine::with_jobs(2);
        let first = engine.submit(Request::audit(SRC, &["m", "k"]));
        assert!(first.is_ok(), "{}", first.body);
        assert!(!first.cached);
        let second = engine.submit(Request::audit(SRC, &["m", "k"]));
        assert!(second.cached);
        assert_eq!(first.body, second.body);
        let stats = engine.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn panicking_jobs_become_error_responses() {
        let engine = AnalysisEngine::with_jobs(1);
        let r = engine.submit(Request::DebugPanic);
        assert!(r.body.contains("analysis panicked"), "{}", r.body);
        assert!(r.body.contains("debug-panic requested"), "{}", r.body);
        // The pool survives: ordinary work still completes.
        let ok = engine.submit(Request::solve(SRC));
        assert!(ok.is_ok(), "{}", ok.body);
        let stats = engine.stats();
        assert_eq!(stats.job_panics, 1);
        assert_eq!(stats.uncacheable, 1);
    }

    #[test]
    fn expired_deadlines_report_errors_but_warm_the_cache() {
        let parsed = Request::Audit {
            process: nuspi_syntax::parse_process(SRC).unwrap().into(),
            secrets: vec!["m".into(), "k".into()],
        };
        // A pre-parsed request runs on the pool like source text, so its
        // deadline can expire too.
        for req in [Request::audit(SRC, &["m", "k"]), parsed] {
            // A job can finish before its 1 ns timeout is even armed; over
            // a few fresh engines, some deadline must expire.
            let expired = (0..8).find_map(|_| {
                let engine = AnalysisEngine::with_jobs(1);
                let r = engine
                    .submit(Envelope::from(req.clone()).with_deadline(Duration::from_nanos(1)));
                (!r.is_ok()).then_some((engine, r))
            });
            let (engine, expired) = expired.expect("no 1 ns deadline expired in 8 tries");
            assert!(
                expired.body.contains("deadline exceeded"),
                "{}",
                expired.body
            );
            assert_eq!(engine.stats().deadline_expirations, 1);
            // The job still completes on its worker; wait for it to land
            // in the cache, then retry.
            for _ in 0..5000 {
                if engine.stats().cache.insertions >= 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let retry = engine.submit(req);
            assert!(retry.cached, "retry should be served from the warm cache");
            assert!(retry.is_ok());
        }
    }

    #[test]
    fn stats_hit_rate_is_bounded() {
        let stats = EngineStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        let engine = AnalysisEngine::with_jobs(1);
        engine.submit(Request::solve(SRC));
        engine.submit(Request::solve(SRC));
        let rate = engine.stats().hit_rate();
        assert!((rate - 0.5).abs() < 1e-9, "{rate}");
    }
}
