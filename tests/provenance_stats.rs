//! Coverage for flow provenance and solver instrumentation.
//!
//! * Every `(variable, production)` pair of a traced solution must have a
//!   finite [`Provenance::explain`] chain that terminates in a seed site
//!   ("introduced at …") — chains cannot cycle because each hop follows
//!   the first-insertion justification, which strictly decreases in
//!   insertion time.
//! * The solver's cache counters must be internally consistent
//!   (`hits + misses == queries`, one wall-time sample per round).

use nuspi::cfa::{solve, solve_traced, Constraints};
use nuspi_bench::genproc::{random_process, GenConfig};
use nuspi_protocols::suite;

#[test]
fn every_flow_in_the_protocol_suite_has_a_seed_rooted_explanation() {
    for spec in suite() {
        let (sol, prov) = solve_traced(Constraints::generate(&spec.process));
        let mut chains = 0;
        for (id, fv) in sol.flow_vars() {
            for prod in sol.prods_of_id(id) {
                let story = prov.explain(&sol, fv, prod);
                chains += 1;
                assert!(
                    !story.is_empty(),
                    "{}: {fv} has a production without provenance",
                    spec.name
                );
                assert!(
                    story[0].contains("introduced at"),
                    "{}: chain for {fv} does not start at a seed site: {story:?}",
                    spec.name
                );
                assert!(
                    story.iter().all(|hop| !hop.contains("cycle")),
                    "{}: cyclic provenance for {fv}: {story:?}",
                    spec.name
                );
            }
        }
        assert!(chains > 0, "{}: no flows at all", spec.name);
    }
}

#[test]
fn every_flow_in_random_processes_has_a_seed_rooted_explanation() {
    let cfg = GenConfig::default();
    for seed in 0..60u64 {
        let p = random_process(seed, &cfg);
        let (sol, prov) = solve_traced(Constraints::generate(&p));
        for (id, fv) in sol.flow_vars() {
            for prod in sol.prods_of_id(id) {
                let story = prov.explain(&sol, fv, prod);
                assert!(
                    story.first().is_some_and(|h| h.contains("introduced at")),
                    "seed {seed}: chain for {fv} not seed-rooted: {story:?}"
                );
            }
        }
    }
}

#[test]
fn sequential_cache_counters_are_consistent_across_the_suite() {
    for spec in suite() {
        let sol = nuspi::analyze(&spec.process);
        let st = sol.stats();
        assert_eq!(
            st.cache_hits + st.cache_misses,
            st.intersection_queries,
            "{}: every query is a hit or a miss",
            spec.name
        );
        assert_eq!(
            st.round_millis.len(),
            st.rounds,
            "{}: one wall-time sample per round",
            spec.name
        );
    }
}

#[test]
fn memo_cache_serves_cross_round_retries() {
    // A permanently locked decryption is retried at every round
    // boundary; once the grammar stops growing, those retries must be
    // answered by the persistent negative cache.
    let src = "k1a<k1>.0 \
               | k1a(t1). k1b<t1>.0 \
               | k1b(t2). k1c<t2>.0 \
               | k1c(t3). kc2(z1). case z1 of {x1}:t3 in kezchan<x1>.0 \
               | kezchan<kez>.0 \
               | kezchan(kk2). c(w). case w of {y}:kk2 in e<y>.0 \
               | deadchan(kdead). c(u). case u of {v}:kdead in f<v>.0 \
               | kc2<{k2, new r1}:k1>.0 \
               | c<{m, new rc}:kez>.0 \
               | c<{m, new rh}:k2>.0";
    let p = nuspi_syntax::parse_process(src).unwrap();
    let st = solve(Constraints::generate(&p)).stats().clone();
    assert!(
        st.rounds >= 3,
        "staged unlock needs multiple rounds: {st:?}"
    );
    assert!(st.cache_hits > 0, "retries never hit the memo: {st:?}");
    let (last_hits, last_misses) = st.round_memo[st.rounds - 1];
    assert!(last_hits >= 1 && last_misses == 0, "{:?}", st.round_memo);
}
