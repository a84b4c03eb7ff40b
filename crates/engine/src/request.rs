//! Request and response types of the analysis service.
//!
//! A [`Request`] names one analysis over one process — the same four
//! workloads the `nuspi` CLI exposes one-shot (`Audit`, `Lint`,
//! `Solve`, `Reveals`) — with the process given either as νSPI source
//! text or as an already-built [`Process`] (API callers holding a
//! process built in code, such as an instance `P[n/x]` that has no
//! source text of its own). Both kinds run the same way: parsed at most
//! once, analysed on the engine's pool. An [`Envelope`] wraps a request
//! with the protocol envelope fields: an optional correlation id echoed
//! back in the response, and an optional deadline.
//!
//! A [`Response`] carries the rendered JSON body *without* the id, so
//! the body is a pure function of the request and can be shared through
//! the content-addressed cache; [`Response::to_line`] splices the id
//! back in for the wire.

use crate::jsonio::escape;
use nuspi_syntax::Process;
use std::sync::Arc;
use std::time::Duration;

/// The process a request analyses.
#[derive(Clone, Debug)]
pub enum ProcessInput {
    /// νSPI source text, parsed by the engine.
    Source(String),
    /// An already-built process (API callers only; the wire protocol
    /// always sends source). It moves into its job on the pool.
    Parsed(Process),
}

impl From<&str> for ProcessInput {
    fn from(src: &str) -> ProcessInput {
        ProcessInput::Source(src.to_owned())
    }
}

impl From<Process> for ProcessInput {
    fn from(p: Process) -> ProcessInput {
        ProcessInput::Parsed(p)
    }
}

/// One analysis request.
#[derive(Clone, Debug)]
pub enum Request {
    /// The full secrecy audit: confinement + carefulness + bounded
    /// Dolev–Yao search per secret ([`nuspi_security::audit`]).
    Audit {
        /// The process to audit.
        process: ProcessInput,
        /// Canonical names declared secret.
        secrets: Vec<String>,
    },
    /// The multi-pass lint engine with witness traces.
    Lint {
        /// The process to lint.
        process: ProcessInput,
        /// Canonical names declared secret.
        secrets: Vec<String>,
    },
    /// The bare CFA least solution, optionally composed with the most
    /// powerful public attacker.
    Solve {
        /// The process to solve.
        process: ProcessInput,
        /// Canonical names declared secret (attacker mode only).
        secrets: Vec<String>,
        /// Solve together with the Lemma 1 attacker.
        attacker: bool,
        /// Tree-render depth of the reported estimate.
        depth: usize,
    },
    /// The bounded Dolev–Yao revelation search for one secret.
    Reveals {
        /// The process to attack.
        process: ProcessInput,
        /// Canonical names declared secret.
        secrets: Vec<String>,
        /// The secret whose revelation is searched for.
        secret: String,
        /// Names the intruder knows initially (empty = the process's
        /// public free names).
        known: Vec<String>,
    },
    /// The annotated-source frontend (`nuspi-lang`): compile a Go-ish
    /// `.nu` program down to νSPI and run the full lint pipeline,
    /// rendering source-anchored diagnostics. Cached on the α-invariant
    /// digest of the *lowered* process, so a formatting-only edit of
    /// the source is a cache hit.
    AnalyzeSource {
        /// The file name used in anchors (never read from disk).
        file: String,
        /// The annotated source text.
        source: String,
    },
    /// The dynamic backend: bounded hedged-bisimilarity of two closed
    /// processes ([`nuspi_equiv::check`]), with every free name of
    /// either side as the attacker's initial knowledge. The body is
    /// cached under an *order-independent* pair of α-invariant digests —
    /// `equiv(P, Q)` and `equiv(Q, P)` share one slot (`lhs`/`rhs` in
    /// the body name the digest-sorted orientation).
    Equiv {
        /// One side of the candidate equivalence.
        left: ProcessInput,
        /// The other side.
        right: ProcessInput,
    },
    /// Test-only: a job that panics inside the worker, exercising the
    /// pool's panic isolation. Not reachable from the wire protocol.
    #[doc(hidden)]
    DebugPanic,
}

impl Request {
    /// An audit request over source text.
    pub fn audit(src: &str, secrets: &[&str]) -> Request {
        Request::Audit {
            process: src.into(),
            secrets: secrets.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    /// A lint request over source text.
    pub fn lint(src: &str, secrets: &[&str]) -> Request {
        Request::Lint {
            process: src.into(),
            secrets: secrets.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    /// A plain solve request over source text.
    pub fn solve(src: &str) -> Request {
        Request::Solve {
            process: src.into(),
            secrets: Vec::new(),
            attacker: false,
            depth: 3,
        }
    }

    /// A revelation-search request over source text.
    pub fn reveals(src: &str, secrets: &[&str], secret: &str) -> Request {
        Request::Reveals {
            process: src.into(),
            secrets: secrets.iter().map(|s| (*s).to_owned()).collect(),
            secret: secret.to_owned(),
            known: Vec::new(),
        }
    }

    /// An equivalence-check request over two source texts.
    pub fn equiv(left: &str, right: &str) -> Request {
        Request::Equiv {
            left: left.into(),
            right: right.into(),
        }
    }

    /// An annotated-source analysis request.
    pub fn analyze_source(file: &str, source: &str) -> Request {
        Request::AnalyzeSource {
            file: file.to_owned(),
            source: source.to_owned(),
        }
    }

    /// The protocol op name.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Audit { .. } => "audit",
            Request::Lint { .. } => "lint",
            Request::Solve { .. } => "solve",
            Request::Reveals { .. } => "reveals",
            Request::AnalyzeSource { .. } => "analyze_source",
            Request::Equiv { .. } => "equiv",
            Request::DebugPanic => "debug-panic",
        }
    }
}

/// A request plus its protocol envelope: correlation id and deadline.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Echoed back verbatim in the response line.
    pub id: Option<String>,
    /// The analysis to run.
    pub request: Request,
    /// How long the submitter is willing to wait. On expiry the
    /// response is an error, but the job still completes in the pool
    /// and warms the cache.
    pub deadline: Option<Duration>,
}

impl From<Request> for Envelope {
    fn from(request: Request) -> Envelope {
        Envelope {
            id: None,
            request,
            deadline: None,
        }
    }
}

impl Envelope {
    /// Attaches a correlation id.
    pub fn with_id(mut self, id: impl Into<String>) -> Envelope {
        self.id = Some(id.into());
        self
    }

    /// Attaches a deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Envelope {
        self.deadline = Some(deadline);
        self
    }
}

/// One response: the request's id plus the rendered body.
#[derive(Clone, Debug)]
pub struct Response {
    /// The request's correlation id, echoed back.
    pub id: Option<String>,
    /// The response object's fields, rendered as JSON *without* the
    /// enclosing braces and without the id — exactly what the cache
    /// stores and shares between requests.
    pub body: Arc<str>,
    /// Whether the body came from the cache (observability only; never
    /// serialized, so cached and computed responses are byte-identical).
    pub cached: bool,
}

impl Response {
    /// The full JSON-lines wire form (single line, no trailing newline).
    pub fn to_line(&self) -> String {
        match &self.id {
            Some(id) => format!("{{\"id\":\"{}\",{}}}", escape(id), self.body),
            None => format!("{{{}}}", self.body),
        }
    }

    /// Whether the body reports `"status":"ok"`.
    pub fn is_ok(&self) -> bool {
        self.body.starts_with("\"op\":") && self.body.contains("\"status\":\"ok\"")
    }
}

/// Renders an error body for `op`.
pub(crate) fn error_body(op: &str, message: &str) -> String {
    format!(
        "\"op\":\"{}\",\"status\":\"error\",\"error\":\"{}\"",
        escape(op),
        escape(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_line_splices_id() {
        let r = Response {
            id: Some("r-1".into()),
            body: Arc::from("\"op\":\"audit\",\"status\":\"ok\""),
            cached: false,
        };
        assert_eq!(
            r.to_line(),
            "{\"id\":\"r-1\",\"op\":\"audit\",\"status\":\"ok\"}"
        );
        assert!(r.is_ok());
        let anon = Response { id: None, ..r };
        assert_eq!(anon.to_line(), "{\"op\":\"audit\",\"status\":\"ok\"}");
    }

    #[test]
    fn error_bodies_escape_messages() {
        let b = error_body("audit", "bad \"quote\"");
        assert!(b.contains("\\\"quote\\\""));
        let r = Response {
            id: None,
            body: b.into(),
            cached: false,
        };
        assert!(!r.is_ok());
    }

    #[test]
    fn envelope_builders_compose() {
        let env = Envelope::from(Request::solve("0"))
            .with_id("x")
            .with_deadline(Duration::from_millis(5));
        assert_eq!(env.id.as_deref(), Some("x"));
        assert_eq!(env.deadline, Some(Duration::from_millis(5)));
        assert_eq!(env.request.op(), "solve");
    }
}
