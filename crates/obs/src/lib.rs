//! # nuspi-obs — structured tracing and metrics, std-only
//!
//! A zero-dependency observability layer for the nuspi workspace:
//!
//! * **spans** — named, timed regions with parent/child nesting tracked
//!   per thread (`span!("cfa.solve")`, `span!("cfa.solve.round", round)`);
//! * **counters** — monotonic `u64` totals (`counter("engine.cache.hits", 1)`);
//! * **histograms** — log₂-bucketed microsecond distributions
//!   (`record_us("engine.queue_wait_us", 42)`);
//! * **sinks** — [`summary`] renders a human-readable table,
//!   [`snapshot_jsonl`] emits a machine-readable JSON-lines trace.
//!
//! Everything funnels into one process-global [`Recorder`] guarded by an
//! atomic enabled-flag. The contract that keeps the rest of the workspace
//! honest:
//!
//! > **When the recorder is disabled (the default), instrumentation does
//! > nothing: no allocation, no lock, no clock read.** A single relaxed
//! > atomic load is the entire cost, so instrumented code paths produce
//! > byte-identical outputs whether or not the crate is linked hot.
//!
//! The `span!` macro evaluates its field expression *only* when the
//! recorder is enabled, so even argument construction is free when off.
//!
//! ## Trace schema (JSON lines)
//!
//! Each line of [`snapshot_jsonl`] is one object with a `type` tag:
//!
//! ```text
//! {"type":"span","id":3,"parent":2,"name":"cfa.solve","thread":"nuspi-engine-worker-0","start_us":120,"dur_us":843}
//! {"type":"span","id":3,...,"fields":{"shard":2}}            // with span!(_, key = v)
//! {"type":"counter","name":"engine.cache.hits","value":17}
//! {"type":"hist","name":"engine.queue_wait_us","count":4,"sum_us":90,"min_us":3,"max_us":51,"log2_buckets":[...]}
//! ```
//!
//! Spans appear in **completion order** (children before parents, since a
//! child guard drops first); `parent` is `null` for roots. `start_us` is
//! relative to the instant the recorder was first enabled. Counters and
//! histograms follow the spans, sorted by name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Number of log₂ buckets kept per histogram (values ≥ 2¹⁸ µs share the top).
pub const HIST_BUCKETS: usize = 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static RECORDER: Mutex<Recorder> = Mutex::new(Recorder::new());

thread_local! {
    /// Stack of currently-open span ids on this thread (for parent links).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A field attached to a span: one key/value pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned integer field (shard index, round number, …).
    U64(u64),
    /// A string field (operation name, …).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(u64::from(v))
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// One completed span, as stored by the recorder.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Process-unique span id (monotonic, starts at 1 per [`reset`]).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name, dot-separated `layer.verb[.phase]`.
    pub name: &'static str,
    /// Optional single field recorded at span entry.
    pub field: Option<(&'static str, FieldValue)>,
    /// Name of the thread the span ran on (`"?"` if unnamed).
    pub thread: String,
    /// Start, in microseconds since the recorder was first enabled.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
}

/// Summary statistics plus log₂ buckets for one histogram.
#[derive(Clone, Debug)]
pub struct HistRecord {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (µs).
    pub sum_us: u64,
    /// Smallest sample (µs).
    pub min_us: u64,
    /// Largest sample (µs).
    pub max_us: u64,
    /// `buckets[i]` counts samples `v` with `⌊log₂ v⌋ + 1 = i` (0 ⇒ v = 0);
    /// the top bucket absorbs everything larger.
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistRecord {
    const fn new() -> HistRecord {
        HistRecord {
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(v);
        self.min_us = self.min_us.min(v);
        self.max_us = self.max_us.max(v);
        let idx = (64 - u64::leading_zeros(v) as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx] += 1;
    }

    /// Mean sample in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

/// The process-global store behind all instrumentation. Not constructed
/// directly — use the free functions ([`enable`], [`span`], [`counter`],
/// [`record_us`], [`snapshot_jsonl`], [`summary`], [`reset`]).
#[derive(Debug)]
pub struct Recorder {
    epoch: Option<Instant>,
    spans: Vec<SpanRecord>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistRecord>,
}

impl Recorder {
    const fn new() -> Recorder {
        Recorder {
            epoch: None,
            spans: Vec::new(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }
}

fn lock() -> MutexGuard<'static, Recorder> {
    RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Turns recording on. Idempotent; the first call sets the trace epoch.
pub fn enable() {
    let mut g = lock();
    if g.epoch.is_none() {
        g.epoch = Some(Instant::now());
    }
    drop(g);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off without discarding collected data.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the recorder is currently on. One relaxed atomic load — this is
/// the only cost instrumentation pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Disables the recorder and discards all spans, counters, and histograms.
/// Span ids restart at 1 (tests rely on this for determinism).
pub fn reset() {
    ENABLED.store(false, Ordering::SeqCst);
    let mut g = lock();
    g.epoch = None;
    g.spans.clear();
    g.counters.clear();
    g.hists.clear();
    drop(g);
    NEXT_SPAN_ID.store(1, Ordering::SeqCst);
}

/// RAII guard for an open span: records a [`SpanRecord`] when dropped.
/// A guard created while the recorder was disabled is inert.
#[must_use = "a span measures the region until the guard is dropped"]
#[derive(Debug)]
pub struct Span(Option<ActiveSpan>);

#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    field: Option<(&'static str, FieldValue)>,
    start: Instant,
}

impl Span {
    /// An inert guard; used by the `span!` macro's disabled branch.
    pub const fn disabled() -> Span {
        Span(None)
    }

    /// The span's id, if it is live (recorder was enabled at entry).
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|a| a.id)
    }
}

fn begin(name: &'static str, field: Option<(&'static str, FieldValue)>) -> Span {
    if !enabled() {
        return Span(None);
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Span(Some(ActiveSpan {
        id,
        parent,
        name,
        field,
        start: Instant::now(),
    }))
}

/// Opens a span with no fields. Prefer the [`span!`] macro.
pub fn span(name: &'static str) -> Span {
    begin(name, None)
}

/// Opens a span carrying one key/value field. Prefer the [`span!`] macro,
/// which skips evaluating the value when the recorder is off.
pub fn span_with(name: &'static str, key: &'static str, value: FieldValue) -> Span {
    begin(name, Some((key, value)))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let dur_us = a.start.elapsed().as_micros() as u64;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&a.id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|&x| x == a.id) {
                // Out-of-order drop (guard moved across scopes): excise it so
                // later spans still find the right parent.
                s.remove(pos);
            }
        });
        let thread = std::thread::current().name().unwrap_or("?").to_string();
        let mut g = lock();
        let start_us = g
            .epoch
            .map(|e| a.start.duration_since(e).as_micros() as u64)
            .unwrap_or(0);
        g.spans.push(SpanRecord {
            id: a.id,
            parent: a.parent,
            name: a.name,
            field: a.field,
            thread,
            start_us,
            dur_us,
        });
    }
}

/// Opens a span; the preferred spelling for instrumentation sites.
///
/// * `span!("cfa.solve")` — no fields;
/// * `span!("cfa.solve.round", round = idx)` — one field;
/// * `span!("cfa.solve.round", round)` — shorthand for `round = round`.
///
/// With a field, the value expression is evaluated **only when the
/// recorder is enabled**, so disabled tracing allocates nothing.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $key:ident = $value:expr) => {
        if $crate::enabled() {
            $crate::span_with($name, stringify!($key), $crate::FieldValue::from($value))
        } else {
            $crate::Span::disabled()
        }
    };
    ($name:expr, $key:ident) => {
        $crate::span!($name, $key = $key)
    };
}

/// Adds `delta` to the named monotonic counter. No-op while disabled.
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut g = lock();
    match g.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            g.counters.insert(name.to_string(), delta);
        }
    }
}

/// Records one sample (in microseconds) into the named histogram.
/// No-op while disabled.
pub fn record_us(name: &str, us: u64) {
    if !enabled() {
        return;
    }
    let mut g = lock();
    match g.hists.get_mut(name) {
        Some(h) => h.record(us),
        None => {
            let mut h = HistRecord::new();
            h.record(us);
            g.hists.insert(name.to_string(), h);
        }
    }
}

/// Records a [`Duration`] sample into the named histogram.
pub fn record_duration(name: &str, d: Duration) {
    if !enabled() {
        return;
    }
    record_us(name, d.as_micros() as u64);
}

/// Number of completed spans currently held by the recorder.
pub fn span_count() -> usize {
    lock().spans.len()
}

/// A snapshot of all completed spans (completion order).
pub fn spans() -> Vec<SpanRecord> {
    lock().spans.clone()
}

/// Current value of a counter (0 if never touched).
pub fn counter_value(name: &str) -> u64 {
    lock().counters.get(name).copied().unwrap_or(0)
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders the machine-readable JSON-lines trace (see the module docs for
/// the schema). Does not clear the recorder; pair with [`reset`].
pub fn snapshot_jsonl() -> String {
    let g = lock();
    let mut out = String::new();
    for s in &g.spans {
        let _ = write!(out, "{{\"type\":\"span\",\"id\":{}", s.id);
        match s.parent {
            Some(p) => {
                let _ = write!(out, ",\"parent\":{p}");
            }
            None => out.push_str(",\"parent\":null"),
        }
        out.push_str(",\"name\":\"");
        escape_into(&mut out, s.name);
        out.push_str("\",\"thread\":\"");
        escape_into(&mut out, &s.thread);
        let _ = write!(
            out,
            "\",\"start_us\":{},\"dur_us\":{}",
            s.start_us, s.dur_us
        );
        if let Some((k, v)) = &s.field {
            out.push_str(",\"fields\":{\"");
            escape_into(&mut out, k);
            out.push_str("\":");
            match v {
                FieldValue::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                FieldValue::Str(t) => {
                    out.push('"');
                    escape_into(&mut out, t);
                    out.push('"');
                }
            }
            out.push('}');
        }
        out.push_str("}\n");
    }
    for (name, value) in &g.counters {
        out.push_str("{\"type\":\"counter\",\"name\":\"");
        escape_into(&mut out, name);
        let _ = writeln!(out, "\",\"value\":{value}}}");
    }
    for (name, h) in &g.hists {
        out.push_str("{\"type\":\"hist\",\"name\":\"");
        escape_into(&mut out, name);
        let _ = write!(
            out,
            "\",\"count\":{},\"sum_us\":{},\"min_us\":{},\"max_us\":{},\"log2_buckets\":[",
            h.count,
            h.sum_us,
            if h.count == 0 { 0 } else { h.min_us },
            h.max_us
        );
        for (i, b) in h.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]}\n");
    }
    out
}

/// Renders a human-readable summary: spans aggregated by name, then
/// counters, then histograms. Empty string when nothing was recorded.
pub fn summary() -> String {
    let g = lock();
    let mut out = String::new();
    if !g.spans.is_empty() {
        #[derive(Default)]
        struct Agg {
            count: u64,
            total_us: u64,
            max_us: u64,
        }
        let mut by_name: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for s in &g.spans {
            let a = by_name.entry(s.name).or_default();
            a.count += 1;
            a.total_us += s.dur_us;
            a.max_us = a.max_us.max(s.dur_us);
        }
        out.push_str("spans (aggregated by name)\n");
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>10} {:>10}",
            "name", "count", "total_ms", "mean_us", "max_us"
        );
        for (name, a) in &by_name {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12.3} {:>10} {:>10}",
                name,
                a.count,
                a.total_us as f64 / 1000.0,
                a.total_us / a.count,
                a.max_us
            );
        }
    }
    if !g.counters.is_empty() {
        out.push_str("counters\n");
        for (name, value) in &g.counters {
            let _ = writeln!(out, "  {name:<40} {value:>12}");
        }
    }
    if !g.hists.is_empty() {
        out.push_str("histograms (µs)\n");
        let _ = writeln!(
            out,
            "  {:<34} {:>8} {:>10} {:>10} {:>10}",
            "name", "count", "mean", "min", "max"
        );
        for (name, h) in &g.hists {
            let _ = writeln!(
                out,
                "  {:<34} {:>8} {:>10} {:>10} {:>10}",
                name,
                h.count,
                h.mean_us(),
                if h.count == 0 { 0 } else { h.min_us },
                h.max_us
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global; serialise every test through this.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        g
    }

    #[test]
    fn disabled_recorder_records_nothing_and_skips_field_eval() {
        let _g = guard();
        let mut evaluated = false;
        {
            let _s = span!(
                "test.disabled",
                v = {
                    evaluated = true;
                    1u64
                }
            );
            counter("test.counter", 5);
            record_us("test.hist", 10);
        }
        assert!(!evaluated, "field expression ran while disabled");
        assert_eq!(span_count(), 0);
        assert_eq!(counter_value("test.counter"), 0);
        assert_eq!(snapshot_jsonl(), "");
        assert_eq!(summary(), "");
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let _g = guard();
        enable();
        {
            let outer = span!("test.outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = span!("test.inner", shard = 3usize);
                assert_ne!(inner.id(), Some(outer_id));
            }
            let _sibling = span!("test.sibling");
        }
        let spans = spans();
        assert_eq!(spans.len(), 3);
        // Completion order: inner, sibling, outer.
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        let sibling = spans.iter().find(|s| s.name == "test.sibling").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(sibling.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(
            inner.field,
            Some(("shard", FieldValue::U64(3))),
            "field captured"
        );
        reset();
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let _g = guard();
        enable();
        counter("test.hits", 2);
        counter("test.hits", 3);
        record_us("test.wait", 0);
        record_us("test.wait", 7);
        record_us("test.wait", 1_000_000);
        assert_eq!(counter_value("test.hits"), 5);
        let jsonl = snapshot_jsonl();
        assert!(jsonl.contains("{\"type\":\"counter\",\"name\":\"test.hits\",\"value\":5}"));
        assert!(jsonl.contains("\"count\":3,\"sum_us\":1000007,\"min_us\":0,\"max_us\":1000000"));
        let text = summary();
        assert!(text.contains("test.hits"));
        assert!(text.contains("test.wait"));
        reset();
    }

    #[test]
    fn jsonl_escapes_strings() {
        let _g = guard();
        enable();
        {
            let _s = span!("test.field", op = "we\"ird\\\n");
        }
        let jsonl = snapshot_jsonl();
        assert!(jsonl.contains("\"fields\":{\"op\":\"we\\\"ird\\\\\\n\"}"));
        reset();
    }

    #[test]
    fn reset_clears_and_restarts_ids() {
        let _g = guard();
        enable();
        let first = {
            let s = span!("test.a");
            s.id().unwrap()
        };
        assert_eq!(first, 1);
        reset();
        assert_eq!(span_count(), 0);
        assert!(!enabled());
        enable();
        let again = {
            let s = span!("test.b");
            s.id().unwrap()
        };
        assert_eq!(again, 1, "span ids restart after reset");
        reset();
    }

    #[test]
    fn spans_from_other_threads_are_roots_with_thread_names() {
        let _g = guard();
        enable();
        let _outer = span!("test.main");
        std::thread::Builder::new()
            .name("obs-test-worker".to_string())
            .spawn(|| {
                let _s = span!("test.worker");
            })
            .unwrap()
            .join()
            .unwrap();
        let spans = spans();
        let w = spans.iter().find(|s| s.name == "test.worker").unwrap();
        assert_eq!(w.parent, None, "parent links never cross threads");
        assert_eq!(w.thread, "obs-test-worker");
        reset();
    }
}
