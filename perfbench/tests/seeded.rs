//! The generator's contract: the same seed gives byte-identical request
//! lines; another seed changes the order and the α-invariant digests but
//! no known answer; only ops the service keeps are emitted.

use nuspi_engine::jsonio::Json;
use nuspi_perfbench::corpus::{build, tag_identifiers, Corpus, Expect, Payload, Workload};
use nuspi_syntax::{canonical_digest, parse_process};

fn lines(c: &Corpus) -> Vec<&str> {
    c.warm
        .iter()
        .chain(c.passes.iter().flatten())
        .map(|l| l.text.as_str())
        .collect()
}

fn answers(c: &Corpus) -> Vec<(String, Expect)> {
    c.inputs
        .iter()
        .map(|i| (i.name.clone(), i.expect))
        .collect()
}

/// The α-invariant digests of every νSPI process a payload carries.
fn digests(p: &Payload) -> Vec<u128> {
    let sources = match p {
        Payload::Lint { process, .. } | Payload::Solve { process } => vec![process],
        Payload::Equiv { left, right } => vec![left, right],
        Payload::Source { .. } => vec![],
    };
    sources
        .into_iter()
        .map(|s| canonical_digest(&parse_process(s).expect("corpus parses")).0)
        .collect()
}

/// The cold workloads whose generation is cheap enough for a unit test.
const CHEAP: [Workload; 3] = [
    Workload::LintCold,
    Workload::ServeWarm,
    Workload::EquivOracle,
];

#[test]
fn same_seed_same_bytes() {
    for w in CHEAP {
        let (a, b) = (build(w, 42), build(w, 42));
        assert_eq!(lines(&a), lines(&b), "{}", w.name());
        assert_eq!(answers(&a), answers(&b), "{}", w.name());
    }
}

#[test]
fn another_seed_moves_order_and_digests_but_no_answer() {
    for w in CHEAP {
        let (a, b) = (build(w, 1), build(w, 2));
        assert_eq!(answers(&a), answers(&b), "{}: known answers", w.name());
        let order = |c: &Corpus| c.passes[0].iter().map(|l| l.input).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b), "{}: order", w.name());
        if w.cold() {
            let da: Vec<u128> = a.inputs.iter().flat_map(|i| digests(&i.payload)).collect();
            let db: Vec<u128> = b.inputs.iter().flat_map(|i| digests(&i.payload)).collect();
            assert!(!da.is_empty());
            assert!(
                da.iter().zip(&db).all(|(x, y)| x != y),
                "{}: every νSPI input's digest moves with the seed",
                w.name()
            );
        }
    }
}

#[test]
fn cold_passes_never_repeat_a_line() {
    for w in [Workload::LintCold, Workload::EquivOracle] {
        let c = build(w, 7);
        let mut all = lines(&c);
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "{}: a repeated line would hit", w.name());
    }
}

#[test]
fn only_kept_ops_are_emitted() {
    for w in CHEAP {
        for line in lines(&build(w, 3)) {
            let v = Json::parse(line).expect("request lines are JSON");
            let op = v.get("op").and_then(Json::as_str).expect("op");
            assert!(
                ["lint", "analyze_source", "equiv", "solve"].contains(&op),
                "{}: op {op}",
                w.name()
            );
            assert!(v.get("shards").is_none(), "{}: no shards", w.name());
        }
    }
}

#[test]
fn workloads_have_the_documented_input_counts() {
    let lint = build(Workload::LintCold, 5);
    assert_eq!(lint.inputs.len(), 33);
    let equiv = build(Workload::EquivOracle, 5);
    assert_eq!(equiv.inputs.len(), 25);
    let warm = build(Workload::ServeWarm, 5);
    assert_eq!(warm.warm.len(), 37);
}

#[test]
fn identifier_tagging_is_a_renaming() {
    let src = "(new k) (c<{m, new r}:k>.0 | c(x). case x of {y}:k in d<y>.0)";
    let tagged = tag_identifiers(src, "_t1", |_| true);
    assert_eq!(
        tagged,
        "(new k_t1) (c_t1<{m_t1, new r_t1}:k_t1>.0 | c_t1(x_t1). case x_t1 of {y_t1}:k_t1 in d_t1<y_t1>.0)"
    );
    let (p, q) = (parse_process(src).unwrap(), parse_process(&tagged).unwrap());
    let (sp, sq) = (
        nuspi_cfa::analyze(&p).stats().productions,
        nuspi_cfa::analyze(&q).stats().productions,
    );
    assert_eq!(sp, sq);
    assert_ne!(canonical_digest(&p), canonical_digest(&q));
    let one = tag_identifiers(src, "_t1", |w| w == "d");
    assert_eq!(
        one,
        "(new k) (c<{m, new r}:k>.0 | c(x). case x of {y}:k in d_t1<y>.0)"
    );
    assert_ne!(
        canonical_digest(&p),
        canonical_digest(&parse_process(&one).unwrap())
    );
}
