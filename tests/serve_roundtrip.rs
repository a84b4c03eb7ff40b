//! Round-trips the protocol suite through the `nuspi serve` JSON-lines
//! session and pins the determinism contract: the response stream is
//! byte-identical whether the engine runs one worker or four, whether
//! a case arrives as a single line or inside a batch — and whether the
//! transport is the stdin/stdout pipe or a TCP connection (including
//! several interleaved connections sharing one engine). Only the
//! `stats` op is exempt — it reports the actual pool and cache state.

use nuspi::engine::jsonio::{escape, Json};
use nuspi::engine::{serve, AnalysisEngine, EngineConfig};
use nuspi_net::{spawn, NetConfig};
use nuspi_protocols::suite;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;

/// One `lint` request line per closed protocol, plus one `batch` line
/// repeating the whole suite (warm by then), plus a `stats` probe.
fn session_input() -> String {
    let mut lines = String::new();
    let mut batch_items = Vec::new();
    for spec in suite() {
        let mut secrets: Vec<String> = spec
            .policy
            .secrets()
            .map(|s| format!("\"{}\"", escape(s.as_str())))
            .collect();
        secrets.sort();
        let item = format!(
            "{{\"id\":\"{}\",\"op\":\"lint\",\"process\":\"{}\",\"secrets\":[{}]}}",
            escape(spec.name),
            escape(&spec.source),
            secrets.join(",")
        );
        lines.push_str(&item);
        lines.push('\n');
        batch_items.push(item);
    }
    lines.push_str(&format!(
        "{{\"op\":\"batch\",\"requests\":[{}]}}\n",
        batch_items.join(",")
    ));
    lines.push_str("{\"id\":\"meters\",\"op\":\"stats\"}\n");
    lines
}

fn run_session(jobs: usize, input: &str) -> Vec<String> {
    let engine = AnalysisEngine::new(EngineConfig {
        jobs,
        ..EngineConfig::default()
    });
    let mut out = Vec::new();
    serve(&engine, input.as_bytes(), &mut out).unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect()
}

/// Sends `input` over one TCP connection and collects the full
/// response transcript (the server closes the socket once every line
/// is answered, because the client shuts down its write half).
fn tcp_session(addr: std::net::SocketAddr, input: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(input.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    BufReader::new(stream)
        .lines()
        .map_while(Result::ok)
        .collect()
}

/// Non-stats lines of a transcript (the only op whose body depends on
/// pool and cache state).
fn payload(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| !l.contains("\"op\":\"stats\""))
        .cloned()
        .collect()
}

#[test]
fn serve_is_byte_identical_across_worker_counts() {
    let input = session_input();
    let one = run_session(1, &input);
    let four = run_session(4, &input);

    let n = suite().len();
    // One line per single request, one per batch element, one for stats.
    assert_eq!(one.len(), 2 * n + 1);
    assert_eq!(four.len(), one.len());

    assert_eq!(payload(&one), payload(&four));

    for line in &one {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        if v.get("op").and_then(Json::as_str) == Some("stats") {
            continue;
        }
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"), "{line}");
    }

    // The batched repeat of the suite is answered from the cache: the
    // stats probe at the end of either session must report it.
    for lines in [&one, &four] {
        let stats = Json::parse(lines.last().unwrap()).unwrap();
        let cache = stats.get("cache").expect("stats line has cache meters");
        let hits = cache.get("hits").and_then(Json::as_u64).unwrap();
        let misses = cache.get("misses").and_then(Json::as_u64).unwrap();
        assert_eq!(misses, n as u64);
        assert_eq!(hits, n as u64);
    }

    // Batch answers mirror the single-shot answers case by case: the
    // suite's verdicts are independent of how the requests were framed.
    assert_eq!(&one[..n], &one[n..2 * n]);
}

#[test]
fn serve_tcp_transcript_is_byte_identical_to_pipe() {
    let input = session_input();
    let pipe = run_session(2, &input);

    let engine = Arc::new(AnalysisEngine::new(EngineConfig {
        jobs: 2,
        ..EngineConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = spawn(engine, listener, NetConfig::default()).unwrap();
    let tcp = tcp_session(server.local_addr(), &input);
    server.drain();
    server.join();

    assert_eq!(tcp.len(), pipe.len());
    assert_eq!(payload(&tcp), payload(&pipe));
    // The stats line differs in meter values but not in shape.
    Json::parse(tcp.last().unwrap()).unwrap();
}

/// Each client's line stream, tagged with per-client ids and rotated so
/// concurrent sessions interleave distinct cases at any moment.
fn client_input(client: usize) -> String {
    let specs = suite();
    let n = specs.len();
    let mut lines = String::new();
    for i in 0..n {
        let spec = &specs[(i + client * 3) % n];
        let mut secrets: Vec<String> = spec
            .policy
            .secrets()
            .map(|s| format!("\"{}\"", escape(s.as_str())))
            .collect();
        secrets.sort();
        lines.push_str(&format!(
            "{{\"id\":\"{}@{client}\",\"op\":\"lint\",\"process\":\"{}\",\"secrets\":[{}]}}\n",
            escape(spec.name),
            escape(&spec.source),
            secrets.join(",")
        ));
    }
    lines
}

#[test]
fn serve_tcp_interleaves_concurrent_clients_without_crosstalk() {
    const CLIENTS: usize = 4;
    let engine = Arc::new(AnalysisEngine::new(EngineConfig {
        jobs: 4,
        ..EngineConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = spawn(engine, listener, NetConfig::default()).unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|k| std::thread::spawn(move || (k, tcp_session(addr, &client_input(k)))))
        .collect();
    for h in handles {
        let (k, got) = h.join().unwrap();
        // The reference transcript comes from a cold single-worker pipe
        // session; the shared TCP engine was warm and concurrent, so
        // equality here is the byte-identity invariant end to end —
        // and, because ids are client-tagged, proof the responses were
        // demultiplexed to the right socket in the right order.
        let expected = run_session(1, &client_input(k));
        assert_eq!(got, expected, "client {k} transcript diverged");
    }
    server.drain();
    server.join();
}

/// Terms nested far past the νSPI term-depth cap, in the shapes that
/// used to recurse once per level on the connection thread: a deep
/// prefix, deep grouping, deep pairs and the largest numeral.
fn over_cap_lines() -> Vec<String> {
    let n = 6_000;
    [
        format!("{}0", "c<a>.".repeat(n)),
        format!("{}0{}", "(".repeat(n), ")".repeat(n)),
        format!("c<{}a{}>.0", "(a, ".repeat(n), ")".repeat(n)),
        "c<4294967295>.0".to_owned(),
    ]
    .iter()
    .map(|p| format!("{{\"op\":\"solve\",\"process\":\"{}\"}}", escape(p)))
    .collect()
}

#[test]
fn serve_tcp_answers_over_cap_terms_with_errors_and_keeps_the_connection() {
    let engine = Arc::new(AnalysisEngine::new(EngineConfig {
        jobs: 2,
        ..EngineConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = spawn(engine, listener, NetConfig::default()).unwrap();
    let good = "{\"op\":\"solve\",\"process\":\"(new n) c<n>.0\"}";
    let mut input = String::new();
    for bad in over_cap_lines() {
        input.push_str(&bad);
        input.push('\n');
        input.push_str(good);
        input.push('\n');
    }
    let got = tcp_session(server.local_addr(), &input);
    server.drain();
    server.join();

    assert_eq!(
        got.len(),
        2 * over_cap_lines().len(),
        "one line per request"
    );
    for pair in got.chunks(2) {
        assert!(pair[0].contains("\"status\":\"error\""), "{}", pair[0]);
        assert!(pair[0].contains("deeper than 128 levels"), "{}", pair[0]);
        assert!(pair[1].contains("\"status\":\"ok\""), "{}", pair[1]);
    }
}
