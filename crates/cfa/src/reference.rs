//! A deliberately naive reference solver: Table 2 as straight round-robin
//! iteration to fixpoint.
//!
//! No worklist, no subset-edge graph, no intersection cache, no parked
//! retry queue — every pass re-applies *every* constraint against the
//! current production sets, and solving stops when a full pass changes
//! nothing. That is the textbook Kleene iteration of the clauses, slow
//! (each pass is linear in the constraint count times the current
//! solution size, and there can be many passes) but so simple that its
//! correctness is evident by inspection of Table 2. The worklist solver
//! ([`solve`](crate::solve)) is differentially tested against it: on
//! every input, both must produce the same estimate `(ρ, κ, ζ)`.

use crate::constraints::{Constraint, Constraints};
use crate::domain::{FlowVar, Prod, VarId, VarTable};
use crate::solver::{intersect_fixpoint, Solution, SolverStats};
use std::collections::HashSet;

/// Computes the least solution by round-robin iteration to fixpoint.
pub fn solve_reference(constraints: Constraints) -> Solution {
    let Constraints { mut vars, list } = constraints;
    // Pre-intern κ(n) for every name production of the program: Name
    // productions only originate from seed constraints, so no further κ
    // variable can arise during solving.
    for c in &list {
        if let Constraint::Prod {
            prod: Prod::Name(n),
            ..
        } = c
        {
            vars.intern(FlowVar::Kappa(*n));
        }
    }
    let kappa = |vars: &VarTable, n| {
        vars.get(FlowVar::Kappa(n))
            .expect("kappa pre-interned for every name production")
    };

    let mut prods: Vec<HashSet<Prod>> = vec![HashSet::new(); vars.len()];
    let mut stats = SolverStats {
        flow_vars: vars.len(),
        ..SolverStats::default()
    };

    loop {
        let round_start = std::time::Instant::now();
        stats.rounds += 1;
        let mut changed = false;
        for c in &list {
            match c {
                Constraint::Prod { prod, into } => {
                    changed |= prods[into.index()].insert(prod.clone());
                }
                Constraint::Sub { from, into } => {
                    changed |= copy_all(&mut prods, *from, *into);
                }
                Constraint::Output { chan, msg } => {
                    for n in names_in(&prods[chan.index()]) {
                        let k = kappa(&vars, n);
                        stats.conditional_firings += 1;
                        changed |= copy_all(&mut prods, *msg, k);
                    }
                }
                Constraint::Input { chan, var } => {
                    for n in names_in(&prods[chan.index()]) {
                        let k = kappa(&vars, n);
                        stats.conditional_firings += 1;
                        changed |= copy_all(&mut prods, k, *var);
                    }
                }
                Constraint::Split {
                    scrutinee,
                    fst,
                    snd,
                } => {
                    let pairs: Vec<(VarId, VarId)> = prods[scrutinee.index()]
                        .iter()
                        .filter_map(|p| match p {
                            Prod::Pair(a, b) => Some((*a, *b)),
                            _ => None,
                        })
                        .collect();
                    for (a, b) in pairs {
                        stats.conditional_firings += 1;
                        changed |= copy_all(&mut prods, a, *fst);
                        changed |= copy_all(&mut prods, b, *snd);
                    }
                }
                Constraint::CaseSuc { scrutinee, pred } => {
                    let sucs: Vec<VarId> = prods[scrutinee.index()]
                        .iter()
                        .filter_map(|p| match p {
                            Prod::Suc(a) => Some(*a),
                            _ => None,
                        })
                        .collect();
                    for a in sucs {
                        stats.conditional_firings += 1;
                        changed |= copy_all(&mut prods, a, *pred);
                    }
                }
                Constraint::Decrypt {
                    scrutinee,
                    key,
                    vars: xs,
                } => {
                    let encs: Vec<(Vec<VarId>, VarId)> = prods[scrutinee.index()]
                        .iter()
                        .filter_map(|p| match p {
                            Prod::Enc {
                                args, key: enc_key, ..
                            } if args.len() == xs.len() => Some((args.clone(), *enc_key)),
                            _ => None,
                        })
                        .collect();
                    for (args, enc_key) in encs {
                        // Deliberately uncached: a fresh saturation per
                        // query, discarded immediately.
                        stats.intersection_queries += 1;
                        stats.cache_misses += 1;
                        let mut known = HashSet::new();
                        if intersect_fixpoint(&prods, &mut known, enc_key, *key) {
                            stats.conditional_firings += 1;
                            for (a, x) in args.into_iter().zip(xs.iter()) {
                                changed |= copy_all(&mut prods, a, *x);
                            }
                        }
                    }
                }
            }
        }
        stats
            .round_millis
            .push(round_start.elapsed().as_secs_f64() * 1e3);
        if !changed {
            break;
        }
    }

    stats.productions = prods.iter().map(HashSet::len).sum();
    Solution::from_parts(vars, prods, stats)
}

/// `prods[into] ∪= prods[from]`; reports whether anything was new.
fn copy_all(prods: &mut [HashSet<Prod>], from: VarId, into: VarId) -> bool {
    if from == into {
        return false;
    }
    let source: Vec<Prod> = prods[from.index()].iter().cloned().collect();
    let target = &mut prods[into.index()];
    let mut changed = false;
    for p in source {
        changed |= target.insert(p);
    }
    changed
}

fn names_in(set: &HashSet<Prod>) -> Vec<nuspi_syntax::Symbol> {
    set.iter()
        .filter_map(|p| match p {
            Prod::Name(n) => Some(*n),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;
    use nuspi_syntax::{parse_process, Symbol};

    fn both(src: &str) -> (Solution, Solution) {
        let p = parse_process(src).unwrap();
        (
            solve(Constraints::generate(&p)),
            solve_reference(Constraints::generate(&p)),
        )
    }

    #[test]
    fn reference_matches_worklist_on_relay() {
        let (a, b) = both("a<m>.0 | a(x).b<x>.0 | b(y).0");
        a.estimate_eq(&b).unwrap();
    }

    #[test]
    fn reference_matches_worklist_on_decryption() {
        let (a, b) = both("c<{m, new r}:k>.0 | c(z). case z of {x}:k in d<x>.0");
        a.estimate_eq(&b).unwrap();
    }

    #[test]
    fn reference_matches_worklist_on_late_key() {
        let (a, b) =
            both("c<{m, new r}:k2>.0 | kchan<k2>.0 | kchan(kk). c(z). case z of {x}:kk in d<x>.0");
        a.estimate_eq(&b).unwrap();
    }

    #[test]
    fn reference_matches_worklist_on_recursion() {
        let (a, b) = both("c<0>.0 | !c(x).c<suc(x)>.0");
        a.estimate_eq(&b).unwrap();
    }

    #[test]
    fn reference_keeps_wrong_keys_locked() {
        let (_, b) = both("c<{m, new r}:k>.0 | c(z). case z of {x}:k2 in d<x>.0");
        assert!(b.kappa(Symbol::intern("d")).is_empty());
    }

    #[test]
    fn reference_stats_reflect_naivety() {
        let p = parse_process("c<{m, new r}:k>.0 | c(z). case z of {x}:k in d<x>.0").unwrap();
        let sol = solve_reference(Constraints::generate(&p));
        let st = sol.stats();
        assert!(st.rounds >= 2, "at least one productive + one barren pass");
        assert_eq!(st.cache_hits, 0, "the reference never caches");
        assert_eq!(st.cache_misses, st.intersection_queries);
        assert_eq!(st.round_millis.len(), st.rounds);
    }
}
