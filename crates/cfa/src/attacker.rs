//! The most powerful attacker, as constraints — Lemma 1's estimate.
//!
//! Definition 4 (confinement) demands `κ(n) = Val_P` on every public
//! channel: not only does nothing secret flow there (`⊆`), but the
//! channel carries *everything the environment can produce* (`⊇`). The
//! `⊇` direction matters: attacker-synthesizable values flow back into
//! the process' destructors, so reflection and type-flaw attacks surface
//! in the analysis. Lemma 1 shows a single estimate covers every attacker
//! `Q` with public names; this module encodes that estimate as ordinary
//! constraints over one distinguished nonterminal — the *ether* — holding
//! the attacker's knowledge:
//!
//! * initially: the process' public free names, a fresh attacker name,
//!   and `0`;
//! * synthesis: closed under `suc`, pairing, and encryption (with an
//!   attacker confounder, at every arity the process decrypts);
//! * analysis: pairs are projected, successors peeled, and ciphertexts
//!   opened when their key language meets the ether;
//! * channels: for every name in the ether, the attacker both taps and
//!   feeds the corresponding channel (`κ(n) ⊆ ether ⊆ κ(n)`) — extruded
//!   channels are covered automatically because their names reach the
//!   ether first.
//!
//! All of this reuses the solver's existing conditional-constraint forms:
//! the attacker is literally the generic process `!e(x).ē⟨x⟩ | …` over
//! every channel it knows.

use crate::constraints::{Constraint, Constraints};
use crate::domain::{FlowVar, Prod, VarId};
use crate::solver::{solve, solve_traced, Provenance, Solution};
use nuspi_syntax::{Expr, Part, Process, Symbol, Term};
use std::collections::HashSet;

/// The canonical name the attacker mints for itself (always public).
pub fn attacker_name() -> Symbol {
    Symbol::intern("adv!")
}

/// The canonical confounder of attacker-built ciphertexts.
pub fn attacker_confounder() -> Symbol {
    Symbol::intern("radv!")
}

/// Extends a constraint system with the most powerful public attacker.
/// `secret` is the set of secret canonical names (the `S` partition); the
/// attacker starts from the process' public free names.
///
/// Returns the ether nonterminal (the attacker's knowledge).
pub fn add_attacker(cs: &mut Constraints, p: &Process, secret: &HashSet<Symbol>) -> VarId {
    let ether = cs.vars.intern(FlowVar::Aux(u32::MAX));
    // Initial knowledge: public free names, the attacker's own name, 0.
    // Sorted so the constraint order — and with it the first-cause
    // provenance chains of traced solves — is independent of hashing.
    let mut free: Vec<_> = p.free_names().into_iter().collect();
    free.sort_by_key(|n| n.to_string());
    for n in free {
        if !secret.contains(&n.canonical()) {
            cs.list.push(Constraint::Prod {
                prod: Prod::Name(n.canonical()),
                into: ether,
            });
        }
    }
    cs.list.push(Constraint::Prod {
        prod: Prod::Name(attacker_name()),
        into: ether,
    });
    cs.list.push(Constraint::Prod {
        prod: Prod::Zero,
        into: ether,
    });
    // Synthesis closure.
    cs.list.push(Constraint::Prod {
        prod: Prod::Suc(ether),
        into: ether,
    });
    cs.list.push(Constraint::Prod {
        prod: Prod::Pair(ether, ether),
        into: ether,
    });
    let mut arities = HashSet::new();
    collect_arities(p, &mut arities);
    for &k in &arities {
        cs.list.push(Constraint::Prod {
            prod: Prod::Enc {
                args: vec![ether; k],
                confounder: attacker_confounder(),
                key: ether,
            },
            into: ether,
        });
        // Analysis: open any ciphertext of this arity whose key the
        // attacker can derive.
        cs.list.push(Constraint::Decrypt {
            scrutinee: ether,
            key: ether,
            vars: vec![ether; k],
        });
    }
    // Analysis: projection and peeling.
    cs.list.push(Constraint::Split {
        scrutinee: ether,
        fst: ether,
        snd: ether,
    });
    cs.list.push(Constraint::CaseSuc {
        scrutinee: ether,
        pred: ether,
    });
    // Channels: tap and feed every channel named in the ether.
    cs.list.push(Constraint::Input {
        chan: ether,
        var: ether,
    });
    cs.list.push(Constraint::Output {
        chan: ether,
        msg: ether,
    });
    ether
}

/// Every encryption/decryption arity occurring in the process: the
/// attacker needs to build and break ciphertexts of exactly these widths.
fn collect_arities(p: &Process, out: &mut HashSet<usize>) {
    fn expr(e: &Expr, out: &mut HashSet<usize>) {
        if let Term::Enc { payload, .. } = &e.term {
            out.insert(payload.len());
        }
        e.term.parts().for_each(|e| expr(e, out));
    }
    for (q, _) in p.preorder() {
        if let Process::CaseDec { vars, .. } = q {
            out.insert(vars.len());
        }
        q.parts().filter_map(Part::expr).for_each(|e| expr(e, out));
    }
}

/// A solution for `P` *in the presence of the most powerful attacker*,
/// together with the attacker's knowledge nonterminal.
#[derive(Debug)]
pub struct AttackedSolution {
    /// The least solution of the extended constraint system.
    pub solution: Solution,
    /// The ether (attacker knowledge) nonterminal.
    pub ether: VarId,
}

/// Analyses `P | S` for the most powerful attacker `S` over the public
/// names (the estimate of Lemma 1 / Proposition 1).
pub fn analyze_with_attacker(p: &Process, secret: &HashSet<Symbol>) -> AttackedSolution {
    let mut cs = Constraints::generate(p);
    let ether = add_attacker(&mut cs, p, secret);
    let solution = solve(cs);
    AttackedSolution { solution, ether }
}

/// Like [`analyze_with_attacker`], with flow [`Provenance`] recorded.
pub fn analyze_with_attacker_traced(
    p: &Process,
    secret: &HashSet<Symbol>,
) -> (AttackedSolution, Provenance) {
    let mut cs = Constraints::generate(p);
    let ether = add_attacker(&mut cs, p, secret);
    let (solution, provenance) = solve_traced(cs);
    (AttackedSolution { solution, ether }, provenance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::{parse_process, Value};

    fn secrets(names: &[&str]) -> HashSet<Symbol> {
        names.iter().map(|s| Symbol::intern(s)).collect()
    }

    fn ether_contains(att: &AttackedSolution, w: &Value) -> bool {
        let fv = att.solution.describe(att.ether);
        att.solution.contains(fv, w)
    }

    #[test]
    fn attacker_knows_public_free_names() {
        let p = parse_process("c<m>.0").unwrap();
        let att = analyze_with_attacker(&p, &secrets(&[]));
        assert!(ether_contains(&att, &Value::name("c")));
        assert!(ether_contains(&att, &Value::name("m")));
        assert!(ether_contains(&att, &Value::numeral(3)));
    }

    #[test]
    fn attacker_taps_public_channels() {
        let p = parse_process("(new s) c<s>.0").unwrap();
        let att = analyze_with_attacker(&p, &secrets(&[]));
        // The restricted (but public-kind) name is extruded to the ether.
        assert!(ether_contains(&att, &Value::name("s")));
    }

    #[test]
    fn attacker_cannot_open_secret_key_ciphertexts() {
        let p = parse_process("(new k) (new m) c<{m, new r}:k>.0").unwrap();
        let att = analyze_with_attacker(&p, &secrets(&["k", "m"]));
        assert!(!ether_contains(&att, &Value::name("m")));
        assert!(!ether_contains(&att, &Value::name("k")));
    }

    #[test]
    fn attacker_opens_public_key_ciphertexts() {
        let p = parse_process("(new m) c<{m, new r}:pub>.0").unwrap();
        let att = analyze_with_attacker(&p, &secrets(&["m"]));
        assert!(ether_contains(&att, &Value::name("m")));
    }

    #[test]
    fn attacker_projects_pairs() {
        let p = parse_process("(new m) c<(m, 0)>.0").unwrap();
        let att = analyze_with_attacker(&p, &secrets(&["m"]));
        assert!(ether_contains(&att, &Value::name("m")));
    }

    #[test]
    fn attacker_chains_extruded_channels() {
        let p = parse_process("(new d) (new m) c<d>.d<m>.0").unwrap();
        let att = analyze_with_attacker(&p, &secrets(&["m"]));
        assert!(ether_contains(&att, &Value::name("m")));
    }

    #[test]
    fn attacker_feeds_process_inputs() {
        // The process encrypts its secret under whatever key it receives:
        // the attacker supplies its own name and reads the result.
        let p = parse_process("(new m) c(k). c<{m, new r}:k>.0").unwrap();
        let att = analyze_with_attacker(&p, &secrets(&["m"]));
        assert!(ether_contains(&att, &Value::name("m")));
    }

    #[test]
    fn attacker_reflects_ciphertexts_between_decryptions() {
        // Type flaw: the same key protects two different message formats
        // of equal arity; reflecting message 1 into the position of
        // message 2 binds a public value as the payload key.
        let p = parse_process(
            "(new kas) (new m) (
               c1<{token, new r1}:kas>.0
             | c2(x). case x of {key}:kas in c3<{m, new r2}:key>.0
            )",
        )
        .unwrap();
        let att = analyze_with_attacker(&p, &secrets(&["kas", "m"]));
        assert!(
            ether_contains(&att, &Value::name("m")),
            "reflection must bind the public token as the key"
        );
    }

    #[test]
    fn wmf_resists_the_attacker() {
        let src = "
            (new m) (new kAS) (new kBS) (
              ((new kAB) cAS<{kAB, new r1}:kAS>. cAB<{m, new r2}:kAB>.0
               | cBS(t). case t of {y}:kBS in cAB(z). case z of {q}:y in 0)
              | cAS(x). case x of {s}:kAS in cBS<{s, new r3}:kBS>.0
            )";
        let p = parse_process(src).unwrap();
        let att = analyze_with_attacker(&p, &secrets(&["kAS", "kBS", "kAB", "m"]));
        assert!(!ether_contains(&att, &Value::name("m")));
        assert!(!ether_contains(&att, &Value::name("kAB")));
    }

    #[test]
    fn extended_solution_still_accepts_the_process() {
        let p = parse_process("c<{m, new r}:k>.0 | c(z). case z of {x}:k in d<x>.0").unwrap();
        let att = analyze_with_attacker(&p, &secrets(&[]));
        let violations = crate::accept::verify(&att.solution, &p);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
