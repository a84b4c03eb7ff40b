//! The memo-key wall: the structural walk of `key.rs` against the key
//! it replaced, which printed the position and renumbered the fresh
//! indices in the text.
//!
//! The two keys must induce the same equality on game positions: two
//! positions share a walk key exactly when they share a string key.
//! The wall checks that on every position the game's own move
//! generation reaches within three attacker moves from the roots of
//! three corpora — the 21 zoo oracle pairs, the 4 equiv goldens and a
//! seeded random corpus — and on hand-built pairs, one for each
//! identification the walk must make (or must not make). Run it by
//! name:
//!
//! ```text
//! cargo test -q -p nuspi-equiv --lib key_wall
//! ```

use super::{first_reply, EquivConfig, Game, Hedge, Process};
use crate::key::state_key;
use nuspi_semantics::{Rng, SplitMix64};
use nuspi_syntax::{
    builder as b, canonical_digest, parse_process, Name, StableHasher128, Symbol, Value, Var,
};
use std::collections::{HashMap, HashSet};
use std::hash::Hasher as _;

/// Attacker moves enumerated below each root.
const DEPTH: usize = 3;

/// The reference key: the exact renderings of both processes and the
/// hedge, fresh-name indices jointly renumbered in the text.
fn string_key(left: &Process, right: &Process, hedge: &Hedge) -> u128 {
    let mut h = StableHasher128::new();
    h.write(normalise_indices(&render(left, right, hedge)).as_bytes());
    h.finish128().0
}

fn render(left: &Process, right: &Process, hedge: &Hedge) -> String {
    let mut s = format!("{left}\u{0}{right}\u{0}");
    for (l, r) in hedge.pairs() {
        s.push_str(&format!("{l}\u{1}{r}\u{2}"));
    }
    s.push('\u{3}');
    for (l, r) in hedge.replays() {
        s.push_str(&format!("{l}\u{1}{r}\u{2}"));
    }
    s
}

/// Rewrites every `#<digits>` fresh-name index to a small sequential id
/// in order of first occurrence.
fn normalise_indices(s: &str) -> String {
    let mut map: HashMap<&str, usize> = HashMap::new();
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('#') {
        out.push_str(&rest[..pos]);
        let after = &rest[pos + 1..];
        let digits = after.len() - after.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        if digits == 0 {
            out.push('#');
            rest = after;
            continue;
        }
        let next = map.len() + 1;
        let id = *map.entry(&after[..digits]).or_insert(next);
        out.push('#');
        out.push_str(&id.to_string());
        rest = &after[digits..];
    }
    out.push_str(rest);
    out
}

fn walk_key(left: &Process, right: &Process, hedge: &Hedge) -> u128 {
    state_key(left, right, hedge, &mut Vec::new())
}

#[test]
fn index_normalisation_is_first_occurrence_stable() {
    assert_eq!(normalise_indices("a#17 b#4 a#17"), "a#1 b#2 a#1");
    assert_eq!(normalise_indices("τ#9 — plain"), "τ#1 — plain");
    assert_eq!(normalise_indices("no indices"), "no indices");
}

/// The key classes seen so far, as two maps that must stay functions:
/// string key → walk key and walk key → string key. A rendering is kept
/// per class so a failure can show both positions.
#[derive(Default)]
struct Classes {
    walk_of: HashMap<u128, (u128, String)>,
    string_of: HashMap<u128, (u128, String)>,
    visits: usize,
}

impl Classes {
    /// Records one position; returns its string key.
    fn record(&mut self, root: &str, left: &Process, right: &Process, hedge: &Hedge) -> u128 {
        self.visits += 1;
        let s = string_key(left, right, hedge);
        let w = walk_key(left, right, hedge);
        let text = || normalise_indices(&render(left, right, hedge));
        let (w0, seen) = self.walk_of.entry(s).or_insert_with(|| (w, text()));
        assert_eq!(
            *w0,
            w,
            "{root}: equal renderings, different walks:\n  {seen}\n  {}",
            text()
        );
        let (s0, seen) = self.string_of.entry(w).or_insert_with(|| (s, text()));
        assert_eq!(
            *s0,
            s,
            "{root}: equal walks, different renderings:\n  {seen}\n  {}",
            text()
        );
        s
    }
}

/// Records every position the game's move generation reaches from the
/// root within [`DEPTH`] attacker moves, each successor built by the
/// game's own successor builder. Each position is expanded once
/// (by string key), but every reply is recorded, so positions reached
/// along different paths, with different fresh indices, meet in the
/// maps.
fn enumerate(classes: &mut Classes, root: &str, left: Process, right: Process, hedge: Hedge) {
    let mut game = Game::new(EquivConfig::default());
    let mut expanded = HashSet::new();
    expanded.insert(classes.record(root, &left, &right, &hedge));
    let mut frontier = vec![(left, right, hedge)];
    for _ in 0..DEPTH {
        let mut next = Vec::new();
        for (l, r, h) in frontier {
            let (lc, rc) = (game.closure(&l), game.closure(&r));
            for m in &game.moves(&lc, &rc, &h) {
                let (_, def) = m.side.orient(&*lc, &*rc);
                let Ok(first) = first_reply(m, def, &h) else {
                    continue;
                };
                game.successors(m, def, &h, first, |_, l2, r2, h2| {
                    if expanded.insert(classes.record(root, l2, r2, h2)) {
                        next.push((l2.clone(), r2.clone(), h2.clone()));
                    }
                    true
                });
            }
        }
        frontier = next;
    }
}

/// The attacker's initial knowledge the engine grants: every free name
/// of either side, each paired with itself.
fn public_hedge(left: &Process, right: &Process) -> Hedge {
    let mut public: Vec<Symbol> = left
        .free_names()
        .into_iter()
        .chain(right.free_names())
        .map(|n| n.canonical())
        .collect();
    public.sort_by_key(|s| s.as_str().to_owned());
    public.dedup();
    Hedge::with_public_names(&public)
}

/// A pair as the engine's `equiv` body plays it: oriented by digest,
/// from the public hedge.
pub(super) fn oriented(left: Process, right: Process) -> (Process, Process, Hedge) {
    let (left, right) = if canonical_digest(&left) <= canonical_digest(&right) {
        (left, right)
    } else {
        (right, left)
    };
    let hedge = public_hedge(&left, &right);
    (left, right, hedge)
}

fn enumerate_pair(classes: &mut Classes, root: &str, left: Process, right: Process) {
    let (left, right, hedge) = oriented(left, right);
    enumerate(classes, root, left, right, hedge);
}

/// `P[g1/x]` and `P[g2/x]`, the Theorem 5 oracle pair of `P(x)`.
pub(super) fn oracle_pair(open: &Process, x: Var) -> (Process, Process) {
    let probe = |base: &str| Value::name(Name::global(base));
    (open.subst(x, &probe("g1")), open.subst(x, &probe("g2")))
}

#[test]
fn walk_and_string_keys_agree_on_the_zoo_oracle_pairs() {
    let mut classes = Classes::default();
    let specs = nuspi_protocols::suite();
    assert_eq!(specs.len(), 21);
    for spec in specs {
        let (open, x) = spec
            .process
            .abstract_restriction(spec.secret)
            .expect("zoo specs restrict their secret");
        let (left, right) = oracle_pair(&open, x);
        enumerate_pair(&mut classes, spec.name, left, right);
    }
    eprintln!(
        "zoo: {} visits, {} classes",
        classes.visits,
        classes.walk_of.len()
    );
    assert!(classes.walk_of.len() > 1_000, "{}", classes.walk_of.len());
}

#[test]
fn walk_and_string_keys_agree_on_the_equiv_goldens() {
    let mut pairs = vec![
        (
            "new-vs-hide".to_owned(),
            "(new n) c<n>.0",
            "(hide n) c<n>.0",
        ),
        (
            "sealed-twins".to_owned(),
            "(new k) c<{a, new r}:k>.0",
            "(new k2) c<{b, new r2}:k2>.0",
        ),
    ];
    let twins = nuspi_protocols::broken_twins();
    for (honest, broken) in &twins {
        pairs.push((
            format!("{}-vs-{}", honest.name, broken.name),
            &honest.source,
            &broken.source,
        ));
    }
    let mut classes = Classes::default();
    for (root, left, right) in pairs {
        // Twice, in two games: the second parse and the second game's
        // τ-closures mint new fresh indices for the same positions.
        for _ in 0..2 {
            let (l, r) = (parse_process(left).unwrap(), parse_process(right).unwrap());
            enumerate_pair(&mut classes, &root, l, r);
        }
    }
    eprintln!(
        "goldens: {} visits, {} classes",
        classes.visits,
        classes.walk_of.len()
    );
    assert!(classes.walk_of.len() > 100, "{}", classes.walk_of.len());
}

/// The seed and size of the random corpus.
pub(super) const RANDOM_SEED: u64 = 0x6b65_7977;
pub(super) const RANDOM_PAIRS: usize = 120;

/// A seeded open process `P(x)` over public channels `c`, `d` and a
/// restricted key: leaks, seals, guards, inputs and forks, so the
/// corpus reaches every term shape the game substitutes into.
pub(super) fn random_open(rng: &mut SplitMix64) -> (Process, Var) {
    let x = Var::fresh("x");
    let depth = rng.gen_range_inclusive(1, 3);
    let body = random_body(rng, x, depth);
    (b::restrict(Name::global("kr"), body), x)
}

fn random_body(rng: &mut SplitMix64, x: Var, depth: usize) -> Process {
    let chan = if rng.gen_bool(0.5) { "c" } else { "d" };
    if depth == 0 {
        return b::nil();
    }
    let next = |rng: &mut SplitMix64| random_body(rng, x, depth - 1);
    match rng.gen_range(0..10) {
        0 => b::output(b::name(chan), b::var(x), next(rng)),
        1..=3 => b::output(
            b::name(chan),
            b::enc(vec![b::var(x)], Name::global("r"), b::name("kr")),
            next(rng),
        ),
        4 => b::output(
            b::name(chan),
            b::pair(b::name("a"), b::numeral(1)),
            next(rng),
        ),
        5 => b::restrict(
            Name::global("n"),
            b::output(b::name(chan), b::name("n"), next(rng)),
        ),
        6 => b::guard(b::var(x), b::name("a"), next(rng)),
        7 | 8 => {
            let y = Var::fresh("y");
            let then = if rng.gen_bool(0.5) {
                b::output(b::name(chan), b::pair(b::var(y), b::var(x)), next(rng))
            } else {
                next(rng)
            };
            b::input(b::name(chan), y, then)
        }
        _ => b::par(next(rng), next(rng)),
    }
}

#[test]
fn walk_and_string_keys_agree_on_a_seeded_random_corpus() {
    let mut rng = SplitMix64::seed_from_u64(RANDOM_SEED);
    let mut classes = Classes::default();
    for i in 0..RANDOM_PAIRS {
        let (open, x) = random_open(&mut rng);
        let (left, right) = oracle_pair(&open, x);
        // Twice, as the goldens are.
        for _ in 0..2 {
            enumerate_pair(
                &mut classes,
                &format!("random #{i}"),
                left.clone(),
                right.clone(),
            );
        }
    }
    eprintln!(
        "random: {} visits, {} classes",
        classes.visits,
        classes.walk_of.len()
    );
    assert!(classes.walk_of.len() > 300, "{}", classes.walk_of.len());
}

/// Both keys must call the two positions equal, or both unequal, and
/// agree with `equal`.
fn assert_pair(
    what: &str,
    equal: bool,
    a: (&Process, &Process, &Hedge),
    b: (&Process, &Process, &Hedge),
) {
    let strings = string_key(a.0, a.1, a.2) == string_key(b.0, b.1, b.2);
    let walks = walk_key(a.0, a.1, a.2) == walk_key(b.0, b.1, b.2);
    assert_eq!(strings, equal, "{what}: string key");
    assert_eq!(walks, equal, "{what}: walk key");
}

fn emit(msg: nuspi_syntax::Expr) -> Process {
    b::output(b::name("c"), msg, b::nil())
}

fn hedge() -> Hedge {
    Hedge::with_public_names(&[Symbol::intern("c"), Symbol::intern("k")])
}

#[test]
fn a_variable_keys_like_the_source_name_it_prints_as() {
    let x = Var::fresh("x");
    let h = hedge();
    let var = b::input(b::name("c"), x, emit(b::var(x)));
    let name = b::input(b::name("c"), x, emit(b::name("x")));
    let other = b::input(b::name("c"), x, emit(b::name("y")));
    assert_pair("x vs x", true, (&var, &var, &h), (&name, &var, &h));
    assert_pair("x vs y", false, (&var, &var, &h), (&other, &var, &h));
    // Binder ids never print: a re-minted binder keys the same.
    let x2 = Var::fresh("x");
    let again = b::input(b::name("c"), x2, emit(b::var(x2)));
    assert_pair("binder ids", true, (&var, &var, &h), (&again, &var, &h));
}

#[test]
fn a_value_keys_like_its_term_spelling() {
    let h = hedge();
    let a = || Value::name(Name::global("a"));
    let spelled = [
        ("name", b::val(a()), b::name("a")),
        ("zero", b::val(Value::zero()), b::zero()),
        ("suc", b::val(Value::numeral(2)), b::numeral(2)),
        (
            "mixed suc",
            b::suc(b::val(Value::numeral(1))),
            b::val(Value::numeral(2)),
        ),
        (
            "pair",
            b::val(Value::pair(a(), Value::numeral(1))),
            b::pair(b::name("a"), b::numeral(1)),
        ),
        (
            "mixed pair",
            b::pair(b::val(a()), b::zero()),
            b::val(Value::pair(a(), Value::zero())),
        ),
    ];
    for (what, value, term) in spelled {
        let (p, q) = (emit(value), emit(term));
        assert_pair(what, true, (&p, &p, &h), (&q, &p, &h));
    }
    let (p, q) = (emit(b::val(a())), emit(b::name("b")));
    assert_pair("a vs b", false, (&p, &p, &h), (&q, &p, &h));
}

#[test]
fn value_and_term_ciphertexts_key_apart() {
    let h = hedge();
    let r = Name::with_index("r", 4_000);
    let value = emit(b::val(Value::enc(
        vec![Value::name(Name::global("a"))],
        r,
        Value::name(Name::global("k")),
    )));
    let term = emit(b::enc(vec![b::name("a")], r, b::name("k")));
    assert_pair(
        "{a, r#1}:k vs {a, new r#1}:k",
        false,
        (&value, &value, &h),
        (&term, &value, &h),
    );
    let shifted = emit(b::val(Value::enc(
        vec![Value::name(Name::global("a"))],
        Name::with_index("r", 4_100),
        Value::name(Name::global("k")),
    )));
    assert_pair(
        "shifted confounder",
        true,
        (&value, &value, &h),
        (&shifted, &shifted, &h),
    );
}

/// A position with fresh names in both processes and in the hedge,
/// its fresh indices drawn from `ix`.
fn fresh_position(ix: [u32; 3]) -> (Process, Process, Hedge) {
    let n = Name::with_index("n", ix[0]);
    let r = Name::with_index("r", ix[1]);
    let left = b::restrict(n, emit(b::enc(vec![b::name_expr(n)], r, b::name("k"))));
    let right = b::restrict(n, emit(b::pair(b::name_expr(n), b::name_expr(r))));
    let cipher = |conf: u32| {
        Value::enc(
            vec![Value::name(Name::global("m"))],
            Name::with_index("s", conf),
            Value::name(Name::global("kab")),
        )
    };
    let h = hedge()
        .learn(cipher(ix[2]), cipher(ix[2] + 1))
        .expect("opaque ciphertexts are consistent");
    (left, right, h)
}

#[test]
fn shifted_fresh_indices_key_the_same() {
    let (l1, r1, h1) = fresh_position([4_000, 4_001, 4_002]);
    let (l2, r2, h2) = fresh_position([9_100, 7_000, 8_000]);
    assert_pair("shifted", true, (&l1, &r1, &h1), (&l2, &r2, &h2));
    // Two distinct fresh names never key like one name used twice, nor
    // like the source name they share a symbol with.
    let h = hedge();
    let two = emit(b::pair(
        b::name_expr(Name::with_index("r", 4_000)),
        b::name_expr(Name::with_index("r", 4_001)),
    ));
    let one = emit(b::pair(
        b::name_expr(Name::with_index("r", 4_000)),
        b::name_expr(Name::with_index("r", 4_000)),
    ));
    let source = emit(b::pair(
        b::name_expr(Name::with_index("r", 4_000)),
        b::name("r"),
    ));
    assert_pair(
        "r#1 r#2 vs r#1 r#1",
        false,
        (&two, &two, &h),
        (&one, &two, &h),
    );
    assert_pair(
        "r#1 r#2 vs r#1 r",
        false,
        (&two, &two, &h),
        (&source, &two, &h),
    );
}

#[test]
fn the_sides_and_the_hedge_key_apart() {
    let p = emit(b::name("a"));
    let q = emit(b::name("b"));
    let h = hedge();
    assert_pair("swapped sides", false, (&p, &q, &h), (&q, &p, &h));
    let learned = h
        .learn(
            Value::name(Name::global("a")),
            Value::name(Name::global("b")),
        )
        .unwrap();
    assert_pair("learned pair", false, (&p, &q, &h), (&p, &q, &learned));
}
