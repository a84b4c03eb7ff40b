//! # nuspi-engine — the batch analysis service
//!
//! Everything below the `nuspi serve` subcommand: an [`AnalysisEngine`]
//! that owns a fixed-size worker pool (std threads over an mpsc job
//! queue) and answers [`Request`]s — the same `audit` / `lint` /
//! `solve` / `reveals` workloads the CLI runs one-shot — singly or in
//! batches, with repeats served from a content-addressed LRU cache.
//!
//! The cache key is a 128-bit stable digest of the process's
//! α-invariant [`canonical_digest`](nuspi_syntax::canonical_digest),
//! the policy, the request kind and parameters, and the analysis
//! budgets. α-renaming a bound name therefore *hits*; changing a
//! budget, a secret, or the process itself *misses*. Response bodies
//! contain no wall-clock readings and no cached/computed marker, so a
//! batch is byte-identical whether it ran on one worker or eight,
//! cold or warm — the invariant the round-trip suite pins down.
//!
//! [`serve`] wraps the engine in a newline-delimited JSON session
//! (stdin/stdout in the CLI), with per-request deadlines, a `batch`
//! op, a `stats` op exposing [`EngineStats`], and graceful shutdown on
//! end of input.
//!
//! ```
//! use nuspi_engine::{AnalysisEngine, Request};
//!
//! let engine = AnalysisEngine::with_jobs(2);
//! let req = Request::audit("(new k) (new m) c<{m, new r}:k>.0", &["m", "k"]);
//! let first = engine.submit(req.clone());
//! assert!(first.is_ok() && !first.cached);
//!
//! // Resubmission (here verbatim; α-renamed works too): cache hit.
//! let again = engine.submit(req);
//! assert!(again.cached);
//! assert_eq!(first.body, again.body);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod exec;
pub mod jsonio;
mod pool;
mod request;
mod serve;

pub use cache::{CacheCounters, ENTRY_OVERHEAD};
pub use engine::{
    AnalysisEngine, EngineConfig, EngineStats, StoreMeters, TierTwoCache, DEFAULT_CACHE_BYTES,
};
pub use pool::WorkerPool;
pub use request::{Envelope, ProcessInput, Request, Response};
pub use serve::{answer_line, serve};
