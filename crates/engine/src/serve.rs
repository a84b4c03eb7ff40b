//! The JSON-lines front end: one request object per input line, one
//! response object per output line, in request order.
//!
//! ```text
//! → {"id":"r1","op":"audit","process":"(new k) (new m) c<{m, new r}:k>.0","secrets":["m","k"]}
//! ← {"id":"r1","op":"audit","status":"ok","secure":true,...}
//! ```
//!
//! Ops mirror [`Request`]: `audit`, `lint`, `solve`, `reveals`,
//! `analyze_source` (the annotated-source `nuspi-lang` frontend: a
//! `source` program plus an optional `file`), `equiv` (bounded
//! hedged-bisimilarity of a `left` and a `right` process) — plus `batch`
//! (a `requests` array answered as one line per element, in order) and
//! `stats` (the engine's meters; the only op whose body is not a pure
//! function of the request, so it is never cached). Every request may
//! carry an `id` (echoed back) and a `deadline_ms`; fields an op does not
//! read are ignored. A malformed line or an unknown op is answered with
//! an error line rather than ending the session; end of input shuts the
//! engine down gracefully (in-flight jobs finish, workers join).

use crate::engine::{AnalysisEngine, EngineStats};
use crate::jsonio::Json;
use crate::request::{error_body, Envelope, Request, Response};
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

/// One decoded input line.
enum Decoded {
    One(Box<Envelope>),
    /// Elements that failed to decode keep their slot as an error,
    /// tagged with the element's `id` (when one parsed) so clients can
    /// correlate in-place.
    Batch(Vec<Result<Envelope, (Option<String>, String)>>),
    Stats {
        id: Option<String>,
    },
}

fn opt_str(v: &Json, key: &str) -> Option<String> {
    v.get(key).and_then(Json::as_str).map(str::to_owned)
}

fn str_list(v: &Json, key: &str) -> Result<Vec<String>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(field) => field
            .as_str_arr()
            .ok_or_else(|| format!("`{key}` must be an array of strings")),
    }
}

fn decode_envelope(v: &Json) -> Result<Envelope, String> {
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing `op` field".to_owned())?;
    let process =
        || opt_str(v, "process").ok_or_else(|| format!("op `{op}` requires a `process` string"));
    let request = match op {
        "audit" => Request::Audit {
            process: process()?.as_str().into(),
            secrets: str_list(v, "secrets")?,
        },
        "lint" => Request::Lint {
            process: process()?.as_str().into(),
            secrets: str_list(v, "secrets")?,
        },
        "solve" => Request::Solve {
            process: process()?.as_str().into(),
            secrets: str_list(v, "secrets")?,
            attacker: v.get("attacker").and_then(Json::as_bool).unwrap_or(false),
            depth: v
                .get("depth")
                .map(|d| {
                    d.as_u64()
                        .ok_or_else(|| "`depth` must be a non-negative integer".to_owned())
                })
                .transpose()?
                .unwrap_or(3) as usize,
        },
        "analyze_source" => Request::AnalyzeSource {
            file: opt_str(v, "file").unwrap_or_else(|| "<input>".to_owned()),
            source: opt_str(v, "source")
                .ok_or_else(|| "op `analyze_source` requires a `source` string".to_owned())?,
        },
        "equiv" => Request::Equiv {
            left: opt_str(v, "left")
                .ok_or_else(|| "op `equiv` requires a `left` string".to_owned())?
                .as_str()
                .into(),
            right: opt_str(v, "right")
                .ok_or_else(|| "op `equiv` requires a `right` string".to_owned())?
                .as_str()
                .into(),
        },
        "reveals" => Request::Reveals {
            process: process()?.as_str().into(),
            secrets: str_list(v, "secrets")?,
            secret: opt_str(v, "secret")
                .ok_or_else(|| "op `reveals` requires a `secret` string".to_owned())?,
            known: str_list(v, "known")?,
        },
        other => return Err(format!("unknown op `{other}`")),
    };
    let mut envelope = Envelope::from(request);
    envelope.id = opt_str(v, "id");
    if let Some(ms) = v.get("deadline_ms") {
        let ms = ms
            .as_u64()
            .ok_or_else(|| "`deadline_ms` must be a non-negative integer".to_owned())?;
        envelope.deadline = Some(Duration::from_millis(ms));
    }
    Ok(envelope)
}

/// Decode errors carry the request's `id` whenever the line (or batch
/// element) parsed far enough to have one, so the error line still
/// correlates.
fn decode_line(line: &str) -> Result<Decoded, (Option<String>, String)> {
    let v = Json::parse(line).map_err(|e| (None, e))?;
    let id = || opt_str(&v, "id");
    match v.get("op").and_then(Json::as_str) {
        Some("stats") => Ok(Decoded::Stats { id: id() }),
        Some("batch") => {
            let items = v
                .get("requests")
                .and_then(Json::as_arr)
                .ok_or_else(|| (id(), "op `batch` requires a `requests` array".to_owned()))?;
            Ok(Decoded::Batch(
                items
                    .iter()
                    .map(|item| decode_envelope(item).map_err(|e| (opt_str(item, "id"), e)))
                    .collect(),
            ))
        }
        _ => decode_envelope(&v)
            .map(|envelope| Decoded::One(Box::new(envelope)))
            .map_err(|e| (id(), e)),
    }
}

/// Renders the stats body (never cached; not byte-stable across worker
/// counts by design — it reports the actual pool and cache state).
fn stats_body(s: &EngineStats) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "\"op\":\"stats\",\"status\":\"ok\",\"jobs\":{},\"requests\":{},\"completed\":{},",
        s.jobs, s.requests, s.completed
    );
    let _ = write!(
        out,
        "\"cache\":{{\"hits\":{},\"misses\":{},\"insertions\":{},\"evictions\":{},\
         \"rejected_oversize\":{},\"bytes\":{},\"budget\":{},\"entries\":{}}},",
        s.cache.hits,
        s.cache.misses,
        s.cache.insertions,
        s.cache.evictions,
        s.cache.rejected_oversize,
        s.cache_bytes,
        s.cache_budget,
        s.cache_entries
    );
    let _ = write!(
        out,
        "\"hit_rate\":{:.3},\"job_panics\":{},\"deadline_expirations\":{},\"uncacheable\":{}",
        s.hit_rate(),
        s.job_panics,
        s.deadline_expirations,
        s.uncacheable
    );
    // The store section appears only with a tier-two store attached,
    // so plain-pipe transcripts stay byte-identical to earlier builds.
    if let Some(st) = &s.store {
        let _ = write!(
            out,
            ",\"store\":{{\"hits\":{},\"misses\":{},\"admits\":{},\"rejects\":{},\
             \"evicted\":{},\"compactions\":{},\"corrupt_skipped\":{},\"entries\":{},\
             \"log_bytes\":{}}}",
            st.hits,
            st.misses,
            st.admits,
            st.rejects,
            st.evicted,
            st.compactions,
            st.corrupt_skipped,
            st.entries,
            st.log_bytes
        );
    }
    // Tracing telemetry appears only while the recorder is on, so the
    // stats body stays byte-identical whenever tracing is off.
    if nuspi_obs::enabled() {
        let _ = write!(
            out,
            ",\"obs\":{{\"spans\":{},\"serve_requests\":{}}}",
            nuspi_obs::span_count(),
            nuspi_obs::counter_value("serve.requests")
        );
    }
    out
}

fn error_response(id: Option<String>, message: &str) -> Response {
    Response {
        id,
        body: Arc::from(error_body("serve", message).as_str()),
        cached: false,
    }
}

/// Answers one input line with the responses it produces (one for a
/// single request, N for a batch). This is the transport-independent
/// core of the protocol: the stdin/stdout pipe ([`serve`]) and the TCP
/// listener (`nuspi-net`) both feed lines through here, which is what
/// keeps their transcripts byte-identical for the same request stream.
pub fn answer_line(engine: &AnalysisEngine, line: &str) -> Vec<Response> {
    let decoded = decode_line(line);
    let _sp = if nuspi_obs::enabled() {
        let op = match &decoded {
            Err(_) => "malformed",
            Ok(Decoded::Stats { .. }) => "stats",
            Ok(Decoded::Batch(_)) => "batch",
            Ok(Decoded::One(envelope)) => envelope.request.op(),
        };
        nuspi_obs::counter("serve.requests", 1);
        nuspi_obs::span_with("serve.request", "op", nuspi_obs::FieldValue::from(op))
    } else {
        nuspi_obs::Span::disabled()
    };
    match decoded {
        Err((id, e)) => vec![error_response(id, &e)],
        Ok(Decoded::Stats { id }) => vec![Response {
            id,
            body: Arc::from(stats_body(&engine.stats()).as_str()),
            cached: false,
        }],
        Ok(Decoded::One(envelope)) => vec![engine.submit(*envelope)],
        Ok(Decoded::Batch(items)) => {
            // Submit the well-formed elements as one batch (so misses
            // fan out across the pool), then splice the decode errors
            // back into their original slots.
            let mut good = Vec::new();
            let mut slots = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Ok(envelope) => {
                        slots.push(None);
                        good.push(envelope);
                    }
                    Err((id, e)) => slots.push(Some(error_response(id, &e))),
                }
            }
            let mut answered = engine.submit_batch(good).into_iter();
            slots
                .into_iter()
                .map(|slot| slot.unwrap_or_else(|| answered.next().expect("one per envelope")))
                .collect()
        }
    }
}

/// Runs the JSON-lines session: reads `input` to end of stream, writes
/// one response line per request to `output`, flushing after every
/// line. Returns when input is exhausted; dropping the engine afterwards
/// joins the workers.
pub fn serve(
    engine: &AnalysisEngine,
    input: impl BufRead,
    mut output: impl Write,
) -> io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        for response in answer_line(engine, &line) {
            output.write_all(response.to_line().as_bytes())?;
            output.write_all(b"\n")?;
            output.flush()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn engine() -> AnalysisEngine {
        AnalysisEngine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        })
    }

    fn run(engine: &AnalysisEngine, input: &str) -> Vec<String> {
        let mut out = Vec::new();
        serve(engine, input.as_bytes(), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn round_trips_an_audit_line() {
        let lines = run(
            &engine(),
            "{\"id\":\"r1\",\"op\":\"audit\",\
             \"process\":\"(new k) (new m) c<{m, new r}:k>.0\",\"secrets\":[\"m\",\"k\"]}\n",
        );
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].starts_with("{\"id\":\"r1\",\"op\":\"audit\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"secure\":true"), "{}", lines[0]);
        // Every response line is itself valid JSON.
        Json::parse(&lines[0]).unwrap();
    }

    #[test]
    fn malformed_lines_get_error_lines_and_the_session_continues() {
        let lines = run(
            &engine(),
            "this is not json\n{\"op\":\"nonsense\"}\n\
             {\"id\":\"i1\",\"op\":\"solve_incremental\",\"process\":\"a<m>.0\"}\n\
             {\"op\":\"solve\",\"process\":\"0\"}\n",
        );
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"status\":\"error\""));
        assert!(lines[1].contains("unknown op"));
        // A retired op is just another unknown op.
        assert!(lines[2].starts_with("{\"id\":\"i1\""), "{}", lines[2]);
        assert!(lines[2].contains("unknown op"), "{}", lines[2]);
        assert!(lines[3].contains("\"status\":\"ok\""));
    }

    #[test]
    fn a_huge_shards_field_is_ignored_like_any_unknown_field() {
        // Each request carrying `shards` is followed by another request;
        // the session must answer every line exactly once, with bodies
        // byte-identical to the same requests without the field.
        let lint = "{\"id\":\"l\",\"op\":\"lint\",\"process\":\"(new m) c<m>.0\",\
                    \"secrets\":[\"m\"]";
        let source = "{\"id\":\"a\",\"op\":\"analyze_source\",\"file\":\"f.nu\",\
                      \"source\":\"func main() {\\n  ch := make(chan)\\n  ch <- 1\\n}\\n\"";
        let next = "{\"id\":\"n\",\"op\":\"solve\",\"process\":\"c<n>.0\"}\n";
        let session = |extra: &str| {
            run(
                &engine(),
                &format!("{lint}{extra}}}\n{next}{source}{extra}}}\n{next}"),
            )
        };
        let with = session(",\"shards\":1099511627776");
        let without = session("");
        assert_eq!(with.len(), 4, "{with:?}");
        assert_eq!(with, without);
        for line in &with {
            assert!(line.contains("\"status\":\"ok\""), "{line}");
        }
    }

    #[test]
    fn batch_answers_in_order_with_errors_in_place() {
        let lines = run(
            &engine(),
            "{\"op\":\"batch\",\"requests\":[\
             {\"id\":\"a\",\"op\":\"solve\",\"process\":\"0\"},\
             {\"op\":\"bogus\"},\
             {\"id\":\"c\",\"op\":\"solve\",\"process\":\"c<n>.0\"}]}\n",
        );
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"id\":\"a\""));
        assert!(lines[1].contains("unknown op"));
        assert!(lines[2].starts_with("{\"id\":\"c\""));
    }

    #[test]
    fn malformed_batch_elements_echo_their_id() {
        let lines = run(
            &engine(),
            "{\"op\":\"batch\",\"requests\":[\
             {\"id\":\"a\",\"op\":\"solve\",\"process\":\"0\"},\
             {\"id\":\"b\",\"op\":\"bogus\"},\
             {\"id\":\"c\",\"op\":\"lint\"}]}\n",
        );
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"id\":\"a\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"id\":\"b\""), "{}", lines[1]);
        assert!(lines[1].contains("unknown op"), "{}", lines[1]);
        assert!(lines[2].starts_with("{\"id\":\"c\""), "{}", lines[2]);
        assert!(lines[2].contains("requires a `process`"), "{}", lines[2]);
        for line in &lines {
            Json::parse(line).unwrap();
        }
    }

    #[test]
    fn malformed_single_requests_echo_their_id() {
        let lines = run(
            &engine(),
            "{\"id\":\"x\",\"op\":\"nonsense\"}\n{\"id\":7,\"op\":\"nonsense\"}\n",
        );
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":\"x\""), "{}", lines[0]);
        // Non-string ids are not echoed (the protocol's ids are strings).
        assert!(lines[1].starts_with("{\"op\":"), "{}", lines[1]);
    }

    #[test]
    fn stats_op_reports_cache_traffic() {
        let e = engine();
        let input = "{\"op\":\"solve\",\"process\":\"0\"}\n\
                     {\"op\":\"solve\",\"process\":\"0\"}\n\
                     {\"id\":\"s\",\"op\":\"stats\"}\n";
        let lines = run(&e, input);
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0], lines[1],
            "repeat served from cache, byte-identical"
        );
        let stats = &lines[2];
        assert!(
            stats.starts_with("{\"id\":\"s\",\"op\":\"stats\""),
            "{stats}"
        );
        assert!(stats.contains("\"hits\":1"), "{stats}");
        assert!(stats.contains("\"misses\":1"), "{stats}");
        Json::parse(stats).unwrap();
    }

    #[test]
    fn empty_lines_are_skipped_and_eof_ends_the_session() {
        let lines = run(&engine(), "\n  \n");
        assert!(lines.is_empty());
    }

    #[test]
    fn deadline_ms_is_honoured() {
        let lines = run(
            &engine(),
            "{\"op\":\"audit\",\"process\":\"(new k) (new m) c<{m, new r}:k>.0\",\
             \"secrets\":[\"m\"],\"deadline_ms\":0}\n",
        );
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].contains("deadline exceeded") || lines[0].contains("\"status\":\"ok\""),
            "{}",
            lines[0]
        );
    }
}
