//! Parametric workload generators for the scaling experiments.
//!
//! The paper claims the least CFA solution is computable in polynomial
//! (cubic) time. These families grow a process along one dimension `n` so
//! the solver's asymptotics can be measured:
//!
//! * [`relay_chain`] — `n` relays forwarding a value hop by hop: linear
//!   flow structure, exercises subset-edge propagation.
//! * [`crypto_chain`] — `n` re-encryption hops, each decrypting with key
//!   `kᵢ` and re-encrypting under `kᵢ₊₁`: exercises the decryption
//!   conditionals and the language-intersection oracle.
//! * [`star_broadcast`] — one sender, `n` receivers on one channel: a
//!   dense κ fan-out.
//! * [`wmf_sessions`] — `n` independent Wide-Mouthed-Frog sessions with
//!   disjoint channel/key spaces: realistic protocol scaling.
//! * [`mixer`] — `n` processes all talking over one shared channel:
//!   worst-case κ mixing (quadratic flow relationships).
//! * [`interleaved`] — a SplitMix64-seeded corpus of thousands of relay
//!   and crypto sessions, component-shuffled so sessions interleave in
//!   text order.
//!
//! [`scenario`] resolves the *named* family instances the bench suite
//! and the regression gate refer to by string (`wmf-sessions-16`,
//! `mixer-32`, `interleaved-10000x4`, …).

use nuspi_semantics::rng::{Rng, SplitMix64};
use nuspi_syntax::{parse_process, Digest128, Process, StableHasher128};
use std::hash::Hasher;

fn parse(src: &str) -> Process {
    parse_process(src).unwrap_or_else(|e| panic!("workload does not parse: {e}\n{src}"))
}

/// `n` relays: `c0(x).c1<x>.0 | c1(x).c2<x>.0 | … | c0<seed>.0`.
pub fn relay_chain(n: usize) -> Process {
    let mut src = String::from("c0<seed>.0");
    for i in 0..n {
        src.push_str(&format!(" | c{i}(x). c{}<x>.0", i + 1));
    }
    parse(&src)
}

/// `n` re-encryption hops: hop `i` decrypts with `ki` and re-encrypts
/// under `ki+1`; a final consumer decrypts the last hop.
pub fn crypto_chain(n: usize) -> Process {
    let mut src = String::from("c0<{seed, new r0}:k0>.0");
    for i in 0..n {
        src.push_str(&format!(
            " | c{i}(x). case x of {{y}}:k{i} in c{}<{{y, new rr{i}}}:k{}>.0",
            i + 1,
            i + 1
        ));
    }
    src.push_str(&format!(" | c{n}(z). case z of {{w}}:k{n} in done<w>.0"));
    parse(&src)
}

/// One sender broadcasting on a single channel, `n` receivers forwarding
/// to their own sinks.
pub fn star_broadcast(n: usize) -> Process {
    let mut src = String::from("hub<payload>.0");
    for i in 0..n {
        src.push_str(&format!(" | hub(x). sink{i}<x>.0"));
    }
    parse(&src)
}

/// `n` independent WMF sessions with disjoint channels, keys and
/// payloads (session `i` uses `cASi`, `kASi`, …).
pub fn wmf_sessions(n: usize) -> Process {
    let mut parts = Vec::new();
    for i in 0..n {
        parts.push(format!(
            "(new m{i}) (new kAS{i}) (new kBS{i}) (
               ((new kAB{i}) cAS{i}<{{kAB{i}, new ra{i}}}:kAS{i}>. cAB{i}<{{m{i}, new rb{i}}}:kAB{i}>.0
                | cBS{i}(t{i}). case t{i} of {{y{i}}}:kBS{i} in cAB{i}(z{i}). case z{i} of {{q{i}}}:y{i} in 0)
               | cAS{i}(x{i}). case x{i} of {{s{i}}}:kAS{i} in cBS{i}<{{s{i}, new rc{i}}}:kBS{i}>.0
             )"
        ));
    }
    parse(&parts.join(" | "))
}

/// The secret/public partition for [`wmf_sessions`].
pub fn wmf_sessions_policy(n: usize) -> nuspi_security::Policy {
    let mut secrets = Vec::new();
    for i in 0..n {
        secrets.push(format!("m{i}"));
        secrets.push(format!("kAS{i}"));
        secrets.push(format!("kBS{i}"));
        secrets.push(format!("kAB{i}"));
    }
    nuspi_security::Policy::with_secrets(secrets.iter().map(String::as_str))
}

/// A replicated WMF server (`!cAS(x)…`) serving `n` initiator/responder
/// pairs that share the long-term keys — exercises replication in both
/// the analysis (the CFA treats `!P` transparently) and the executor
/// (bounded unfolding).
pub fn replicated_wmf(n: usize) -> Process {
    let mut parts = vec!["!(cAS(x). case x of {s}:kAS in cBS<{s, new rs}:kBS>.0)".to_owned()];
    for i in 0..n {
        parts.push(format!(
            "(new m{i}) (new kAB{i}) cAS<{{kAB{i}, new ra{i}}}:kAS>. cAB<{{m{i}, new rb{i}}}:kAB{i}>.0"
        ));
        parts.push(format!(
            "cBS(t{i}). case t{i} of {{y{i}}}:kBS in cAB(z{i}). case z{i} of {{q{i}}}:y{i} in 0"
        ));
    }
    parse(&format!("(new kAS) (new kBS) ({})", parts.join(" | ")))
}

/// The policy for [`replicated_wmf`].
pub fn replicated_wmf_policy(n: usize) -> nuspi_security::Policy {
    let mut secrets = vec!["kAS".to_owned(), "kBS".to_owned()];
    for i in 0..n {
        secrets.push(format!("m{i}"));
        secrets.push(format!("kAB{i}"));
    }
    nuspi_security::Policy::with_secrets(secrets.iter().map(String::as_str))
}

/// The seed behind every *named* `interleaved-{S}x{D}` instance: the
/// registry, the bench suite, and the golden-digest pin all use it, so
/// the corpus a gate measures is byte-identical to the one the tests
/// fingerprint.
pub const INTERLEAVED_SEED: u64 = 0x5eed_cafe_2026_0001;

/// The source text of an interleaved-session corpus: `sessions`
/// pipelines of `depth` hops each, three quarters plain relays and one
/// quarter ciphertext relays decrypted at the last hop under a key
/// drawn from a 16-key pool, with one session in eight draining into a
/// small set of shared hub channels. All components are then shuffled
/// by the same SplitMix64 stream, so neighbouring text is almost never
/// the same session.
///
/// The text is a pure function of `(sessions, depth, seed)`: same
/// arguments, same bytes, on any machine and under any thread count.
///
/// # Panics
///
/// Panics when `sessions` or `depth` is zero.
pub fn interleaved_source(sessions: usize, depth: usize, seed: u64) -> String {
    assert!(sessions > 0 && depth > 0, "interleaved: empty family");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let hubs = 8.min(sessions);
    let mut parts: Vec<String> = Vec::with_capacity(sessions * (depth + 1) + hubs);
    for g in 0..hubs {
        parts.push(format!("hub{g}(hg{g}). 0"));
    }
    for i in 0..sessions {
        let crypto = rng.gen_range(0..4) == 0;
        let key = rng.gen_range(0..16);
        let hubbed = rng.gen_range(0..8) == 0;
        let hub = rng.gen_range(0..hubs);
        if crypto {
            parts.push(format!("s{i}h0<{{v{i}, new r{i}}}:key{key}>.0"));
        } else {
            parts.push(format!("s{i}h0<v{i}>.0"));
        }
        for j in 0..depth - 1 {
            parts.push(format!("s{i}h{j}(x{i}n{j}). s{i}h{}<x{i}n{j}>.0", j + 1));
        }
        let last = depth - 1;
        let sink = if hubbed {
            format!("hub{hub}")
        } else {
            format!("s{i}sink")
        };
        if crypto {
            parts.push(format!(
                "s{i}h{last}(z{i}). case z{i} of {{w{i}}}:key{key} in {sink}<w{i}>.0"
            ));
        } else {
            parts.push(format!("s{i}h{last}(z{i}). {sink}<z{i}>.0"));
        }
    }
    // Fisher–Yates off the same stream: the interleaving is part of the
    // corpus, not an afterthought.
    for i in (1..parts.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        parts.swap(i, j);
    }
    join_balanced(&parts)
}

/// Parenthesises `parts` into a balanced `|`-tree so that a
/// 10 000-session corpus parses, digests, and drops without deep
/// recursion — a flat left fold would nest ~50 000 `Par`s.
fn join_balanced(parts: &[String]) -> String {
    match parts {
        [] => "0".to_owned(),
        [one] => one.clone(),
        _ => {
            let mid = parts.len() / 2;
            format!(
                "({} | {})",
                join_balanced(&parts[..mid]),
                join_balanced(&parts[mid..])
            )
        }
    }
}

/// [`interleaved_source`], parsed.
pub fn interleaved(sessions: usize, depth: usize, seed: u64) -> Process {
    parse(&interleaved_source(sessions, depth, seed))
}

/// The stable 128-bit fingerprint of a corpus's source bytes — what the
/// golden-digest test pins and what a distrustful CI job can recompute.
pub fn corpus_digest(src: &str) -> Digest128 {
    let mut h = StableHasher128::new();
    h.write(src.as_bytes());
    h.finish128()
}

/// Resolves a *named* scenario: `relay-chain-{N}`, `crypto-chain-{N}`,
/// `star-broadcast-{N}`, `wmf-sessions-{N}`, `replicated-wmf-{N}`,
/// `mixer-{N}`, or `interleaved-{S}x{D}` (the latter always under
/// [`INTERLEAVED_SEED`]). `None` for anything else.
pub fn scenario(name: &str) -> Option<Process> {
    if let Some(rest) = name.strip_prefix("interleaved-") {
        let (s, d) = rest.split_once('x')?;
        let (s, d): (usize, usize) = (s.parse().ok()?, d.parse().ok()?);
        if s == 0 || d == 0 {
            return None;
        }
        return Some(interleaved(s, d, INTERLEAVED_SEED));
    }
    let (family, n) = name.rsplit_once('-')?;
    let n: usize = n.parse().ok()?;
    match family {
        "relay-chain" => Some(relay_chain(n)),
        "crypto-chain" => Some(crypto_chain(n)),
        "star-broadcast" => Some(star_broadcast(n)),
        "wmf-sessions" => Some(wmf_sessions(n)),
        "replicated-wmf" => Some(replicated_wmf(n)),
        "mixer" => Some(mixer(n)),
        _ => None,
    }
}

/// `n` peers all exchanging their names over one shared channel — the
/// densest κ mixing the calculus allows.
pub fn mixer(n: usize) -> Process {
    let mut parts = Vec::new();
    for i in 0..n {
        parts.push(format!("shared<p{i}>.0 | shared(v{i}). shared<v{i}>.0"));
    }
    parse(&parts.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_cfa::{analyze, FlowVar};
    use nuspi_syntax::{Symbol, Value};

    #[test]
    fn relay_chain_sizes_grow_linearly() {
        let s4 = relay_chain(4).size();
        let s8 = relay_chain(8).size();
        let s16 = relay_chain(16).size();
        assert_eq!(s16 - s8, 2 * (s8 - s4));
    }

    #[test]
    fn relay_chain_flows_end_to_end() {
        let n = 6;
        let sol = analyze(&relay_chain(n));
        let last = Symbol::intern(&format!("c{n}"));
        assert!(sol.contains(FlowVar::Kappa(last), &Value::name("seed")));
    }

    #[test]
    fn crypto_chain_flows_end_to_end() {
        let sol = analyze(&crypto_chain(5));
        assert!(sol.contains(FlowVar::Kappa(Symbol::intern("done")), &Value::name("seed")));
    }

    #[test]
    fn star_broadcast_reaches_every_sink() {
        let n = 5;
        let sol = analyze(&star_broadcast(n));
        for i in 0..n {
            let sink = Symbol::intern(&format!("sink{i}"));
            assert!(sol.contains(FlowVar::Kappa(sink), &Value::name("payload")));
        }
    }

    #[test]
    fn wmf_sessions_stay_confined() {
        let n = 3;
        let p = wmf_sessions(n);
        let policy = wmf_sessions_policy(n);
        let report = nuspi_security::confinement(&p, &policy);
        assert!(report.is_confined(), "{:?}", report.violations);
    }

    #[test]
    fn wmf_sessions_do_not_cross_contaminate() {
        let p = wmf_sessions(2);
        let sol = analyze(&p);
        // Session 0's payload never reaches session 1's channel.
        assert!(!sol.contains(
            FlowVar::Kappa(Symbol::intern("cAB1")),
            &Value::enc(
                vec![Value::name("m0")],
                nuspi_syntax::Name::global("rb0"),
                Value::name("kAB0")
            )
        ));
    }

    #[test]
    fn replicated_wmf_is_confined() {
        // Sessions share the long-term keys through a replicated server;
        // the κ-mixing across sessions must not leak any payload.
        let n = 3;
        let p = replicated_wmf(n);
        let policy = replicated_wmf_policy(n);
        let report = nuspi_security::confinement(&p, &policy);
        assert!(report.is_confined(), "{:?}", report.violations);
    }

    #[test]
    fn replicated_wmf_sessions_complete_dynamically() {
        use nuspi_semantics::{explore_tau, ExecConfig};
        let p = replicated_wmf(1);
        let cfg = ExecConfig {
            max_depth: 10,
            max_states: 3000,
            ..ExecConfig::default()
        };
        let stats = explore_tau(&p, &cfg, |_, _| true);
        assert!(stats.states > 3, "server must serve the session");
    }

    #[test]
    fn replicated_wmf_mixes_sessions_in_kappa_but_not_keys() {
        // With one shared server, both sessions' tickets travel on cBS —
        // but session 0's payload ciphertext never decrypts under session
        // 1's key.
        let p = replicated_wmf(2);
        let sol = analyze(&p);
        let cbs = sol.kappa(Symbol::intern("cBS"));
        assert!(!cbs.is_empty(), "tickets flow via the replicated server");
        let policy = replicated_wmf_policy(2);
        let report = nuspi_security::confinement(&p, &policy);
        assert!(report.is_confined());
    }

    #[test]
    fn interleaved_corpus_is_byte_identical_across_runs_and_threads() {
        let here = interleaved_source(64, 3, INTERLEAVED_SEED);
        let again = interleaved_source(64, 3, INTERLEAVED_SEED);
        assert_eq!(here, again, "same seed must give the same bytes");
        // Generation must not depend on which thread runs it: four
        // concurrent generators, one reference.
        let elsewhere: Vec<String> = (0..4)
            .map(|_| std::thread::spawn(|| interleaved_source(64, 3, INTERLEAVED_SEED)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        for other in elsewhere {
            assert_eq!(here, other, "corpus bytes must be thread-independent");
        }
        assert_ne!(
            here,
            interleaved_source(64, 3, INTERLEAVED_SEED + 1),
            "a different seed must give a different corpus"
        );
    }

    #[test]
    fn interleaved_golden_corpus_digest_is_pinned() {
        // The fingerprint of the named `interleaved-64x3` corpus. If
        // this moves, every committed benchmark baseline over the
        // interleaved family silently measures a different workload —
        // re-pin only together with a re-bless.
        let src = interleaved_source(64, 3, INTERLEAVED_SEED);
        assert_eq!(
            corpus_digest(&src).to_hex(),
            "1ede7bedbff39a8ba08271fba253329f",
            "interleaved-64x3 corpus drifted"
        );
    }

    #[test]
    fn interleaved_corpus_is_closed_and_analyzable() {
        let p = interleaved(48, 3, INTERLEAVED_SEED);
        assert!(p.is_closed());
        let sol = analyze(&p);
        assert!(sol.stats().productions > 0);
        // Every plain relay session delivers its payload end to end.
        let src = interleaved_source(48, 3, INTERLEAVED_SEED);
        for i in 0..48 {
            if src.contains(&format!("s{i}sink<z{i}>")) {
                assert!(
                    sol.contains(
                        FlowVar::Kappa(Symbol::intern(&format!("s{i}sink"))),
                        &Value::name(format!("v{i}").as_str())
                    ),
                    "session {i} lost its payload"
                );
            }
        }
    }

    #[test]
    fn scenario_registry_resolves_names() {
        for (name, size) in [
            ("relay-chain-8", relay_chain(8).size()),
            ("crypto-chain-8", crypto_chain(8).size()),
            ("star-broadcast-8", star_broadcast(8).size()),
            ("wmf-sessions-4", wmf_sessions(4).size()),
            ("replicated-wmf-4", replicated_wmf(4).size()),
            ("mixer-8", mixer(8).size()),
            (
                "interleaved-16x3",
                interleaved(16, 3, INTERLEAVED_SEED).size(),
            ),
        ] {
            assert_eq!(scenario(name).unwrap().size(), size, "{name}");
        }
        for bad in [
            "interleaved-16",
            "interleaved-0x3",
            "interleaved-16x0",
            "nonesuch-8",
            "mixer-x",
            "mixer",
        ] {
            assert!(scenario(bad).is_none(), "{bad} must not resolve");
        }
    }

    /// Perf probe, not a correctness test: prints generate/parse/solve
    /// timings over the interleaved family. Run on demand with
    /// `cargo test --release -p nuspi-bench interleaved_perf -- --ignored --nocapture`.
    #[test]
    #[ignore = "perf probe; run explicitly with --ignored --nocapture"]
    fn interleaved_perf_probe() {
        use std::time::Instant;
        for (s, d) in [(10, 4), (25, 4), (50, 4), (100, 4), (1000, 4), (10000, 4)] {
            let t0 = Instant::now();
            let src = interleaved_source(s, d, INTERLEAVED_SEED);
            let gen = t0.elapsed();
            let t0 = Instant::now();
            let p = nuspi_syntax::parse_process(&src).unwrap();
            let parse = t0.elapsed();
            println!(
                "interleaved-{s}x{d}: gen {gen:?} parse {parse:?} ({} bytes)",
                src.len()
            );
            let t0 = Instant::now();
            let sol = nuspi_cfa::solve(nuspi_cfa::Constraints::generate(&p));
            println!(
                "  solve: {:?} ({} prods)",
                t0.elapsed(),
                sol.stats().productions
            );
        }
    }

    #[test]
    fn mixer_mixes_everything() {
        let n = 4;
        let sol = analyze(&mixer(n));
        let shared = Symbol::intern("shared");
        for i in 0..n {
            assert!(sol.contains(
                FlowVar::Kappa(shared),
                &Value::name(format!("p{i}").as_str())
            ));
        }
    }
}
