//! Differential wall for the estimate dumps.
//!
//! `Solution::render_estimate_for` (the `solve` body) and
//! `Solution::render_estimate` (the CLI's raw-id dump) render every set
//! into one buffer and sort lines through ranges into it. They replaced
//! an algorithm that rendered each set with `render_set` (one `String`
//! per production and per nested alternative, sorted, joined), wrote each
//! line with `format!`, and sorted each section as a tuple of owned
//! strings. This wall keeps that algorithm here, and only here, as the
//! reference, and requires byte-identical dumps on the 21 zoo specs, the
//! 12 lowered ladder rungs, seeded 200×4 interleaved networks and seeded
//! random processes, at depths 0 to 4, for the plain analysis and under
//! the attacker, and on the zoo rendered against a fresh parse, where
//! sort keys tie and only the set text orders the lines.

use nuspi_bench::genproc::{random_process, GenConfig};
use nuspi_bench::workloads::interleaved_source;
use nuspi_cfa::{analyze, analyze_with_attacker, FlowVar, Prod, Solution, VarId};
use nuspi_protocols::suite;
use nuspi_syntax::{parse_process, Process, Symbol, Var};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

// ---- the reference -------------------------------------------------------

fn old_render_var(sol: &Solution, id: VarId, depth: usize, seen: &mut HashSet<VarId>) -> String {
    if depth == 0 || !seen.insert(id) {
        return "…".to_owned();
    }
    let mut rendered: Vec<String> = sol
        .prods_of_id(id)
        .iter()
        .map(|p| old_render_prod(sol, p, depth - 1, seen))
        .collect();
    rendered.sort();
    let out = match rendered.len() {
        0 => "∅".to_owned(),
        1 => rendered.remove(0),
        _ => format!("{{{}}}", rendered.join(" | ")),
    };
    seen.remove(&id);
    out
}

fn old_render_prod(sol: &Solution, prod: &Prod, depth: usize, seen: &mut HashSet<VarId>) -> String {
    match prod {
        Prod::Name(n) => n.as_str().to_owned(),
        Prod::Zero => "0".to_owned(),
        Prod::Suc(a) => format!("suc({})", old_render_var(sol, *a, depth, seen)),
        Prod::Pair(a, b) => format!(
            "({}, {})",
            old_render_var(sol, *a, depth, seen),
            old_render_var(sol, *b, depth, seen)
        ),
        Prod::Enc {
            args,
            confounder,
            key,
        } => {
            let mut out = String::from("{");
            for a in args {
                out.push_str(&old_render_var(sol, *a, depth, seen));
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{confounder}}}:{}",
                old_render_var(sol, *key, depth, seen)
            );
            out
        }
    }
}

fn old_render_set(sol: &Solution, fv: FlowVar, depth: usize) -> String {
    let mut items: Vec<String> = sol
        .prods_of(fv)
        .iter()
        .map(|p| old_render_prod(sol, p, depth, &mut HashSet::new()))
        .collect();
    items.sort();
    if items.is_empty() {
        "∅".to_owned()
    } else {
        format!("{{ {} }}", items.join(", "))
    }
}

fn old_render_estimate(sol: &Solution, depth: usize) -> String {
    let mut kappas = Vec::new();
    let mut rhos = Vec::new();
    let mut zetas = Vec::new();
    for (_, fv) in sol.flow_vars() {
        match fv {
            FlowVar::Kappa(n) => {
                kappas.push((n.as_str().to_owned(), old_render_set(sol, fv, depth)))
            }
            FlowVar::Rho(x) => {
                rhos.push((format!("{x}#{}", x.id()), old_render_set(sol, fv, depth)))
            }
            FlowVar::Zeta(l) => zetas.push((l.index(), old_render_set(sol, fv, depth))),
            FlowVar::Aux(_) => {}
        }
    }
    kappas.sort();
    rhos.sort();
    zetas.sort_by_key(|(l, _)| *l);
    let mut out = String::new();
    for (n, set) in kappas {
        let _ = writeln!(out, "κ({n}) = {set}");
    }
    for (x, set) in rhos {
        let _ = writeln!(out, "ρ({x}) = {set}");
    }
    for (l, set) in zetas {
        let _ = writeln!(out, "ζ(ℓ{l}) = {set}");
    }
    out
}

fn bound_vars(p: &Process, out: &mut Vec<Var>) {
    match p {
        Process::Nil => {}
        Process::Output { then, .. }
        | Process::Match { then, .. }
        | Process::Restrict { body: then, .. }
        | Process::Hide { body: then, .. } => bound_vars(then, out),
        Process::Input { var, then, .. } => {
            out.push(*var);
            bound_vars(then, out);
        }
        Process::Par(a, b) => {
            bound_vars(a, out);
            bound_vars(b, out);
        }
        Process::Replicate(q) => bound_vars(q, out),
        Process::Let { fst, snd, then, .. } => {
            out.push(*fst);
            out.push(*snd);
            bound_vars(then, out);
        }
        Process::CaseNat {
            zero, pred, succ, ..
        } => {
            bound_vars(zero, out);
            out.push(*pred);
            bound_vars(succ, out);
        }
        Process::CaseDec { vars, then, .. } => {
            out.extend(vars.iter().copied());
            bound_vars(then, out);
        }
    }
}

fn old_render_estimate_for(sol: &Solution, p: &Process, depth: usize) -> String {
    let label_ordinals: HashMap<_, _> = p
        .labels()
        .into_iter()
        .enumerate()
        .map(|(i, l)| (l, i))
        .collect();
    let mut vars = Vec::new();
    bound_vars(p, &mut vars);
    let var_ordinals: HashMap<_, _> = vars.into_iter().enumerate().map(|(i, v)| (v, i)).collect();
    let mut kappas = Vec::new();
    let mut rhos = Vec::new();
    let mut zetas = Vec::new();
    for (_, fv) in sol.flow_vars() {
        match fv {
            FlowVar::Kappa(n) => {
                kappas.push((n.as_str().to_owned(), old_render_set(sol, fv, depth)))
            }
            FlowVar::Rho(x) => rhos.push((
                var_ordinals.get(&x).copied(),
                x.symbol().as_str().to_owned(),
                old_render_set(sol, fv, depth),
            )),
            FlowVar::Zeta(l) => zetas.push((
                label_ordinals.get(&l).copied(),
                old_render_set(sol, fv, depth),
            )),
            FlowVar::Aux(_) => {}
        }
    }
    kappas.sort();
    rhos.sort();
    zetas.sort();
    let mut out = String::new();
    for (n, set) in kappas {
        let _ = writeln!(out, "κ({n}) = {set}");
    }
    for (ordinal, x, set) in rhos {
        match ordinal {
            Some(i) => {
                let _ = writeln!(out, "ρ({x}#{i}) = {set}");
            }
            None => {
                let _ = writeln!(out, "ρ({x}#?) = {set}");
            }
        }
    }
    for (ordinal, set) in zetas {
        match ordinal {
            Some(i) => {
                let _ = writeln!(out, "ζ(ℓ#{i}) = {set}");
            }
            None => {
                let _ = writeln!(out, "ζ(ℓ#?) = {set}");
            }
        }
    }
    out
}

// ---- the wall ------------------------------------------------------------

/// The deepest rendering depth compared.
const MAX_DEPTH: usize = 4;

/// Dumps grow geometrically with depth under the attacker (a Yahalom
/// variant's reaches 285 MB at depth 4, since `solve` bodies have no
/// size bound yet), so a solution is compared at increasing depths only
/// until one dump exceeds this many bytes.
const DUMP_CAP: usize = 1 << 18;

/// Compares both dumps of `sol` with the reference at depths 0, 1, …
/// up to [`MAX_DEPTH`], stopping after the first dump longer than
/// [`DUMP_CAP`]. Returns the number of depths compared.
fn check_solution(name: &str, sol: &Solution, p: &Process) -> usize {
    for depth in 0..=MAX_DEPTH {
        let dump = sol.render_estimate_for(p, depth);
        assert_eq!(
            dump,
            old_render_estimate_for(sol, p, depth),
            "{name}: render_estimate_for at depth {depth}"
        );
        let raw = sol.render_estimate(depth);
        assert_eq!(
            raw,
            old_render_estimate(sol, depth),
            "{name}: render_estimate at depth {depth}"
        );
        if dump.len().max(raw.len()) > DUMP_CAP {
            return depth + 1;
        }
    }
    MAX_DEPTH + 1
}

/// `p` analysed plain and under the attacker with `secrets`; returns
/// the number of depths compared over both.
fn check_process(name: &str, p: &Process, secrets: &HashSet<Symbol>) -> usize {
    let attacked = analyze_with_attacker(p, secrets).solution;
    check_solution(name, &analyze(p), p)
        + check_solution(&format!("{name} (attacker)"), &attacked, p)
}

#[test]
fn dumps_match_the_reference_on_the_zoo_and_the_ladder() {
    let mut compared = 0;
    let mut cases = 0;
    for spec in suite() {
        let secrets = spec.policy.secrets().collect();
        compared += check_process(spec.name, &spec.process, &secrets);
        cases += 1;
    }
    assert_eq!(cases, 21);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/lang");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("nu") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let name = path.display().to_string();
        let compiled = nuspi_lang::compile(&name, &src).unwrap();
        let secrets = compiled.policy.secrets().collect();
        compared += check_process(&name, &compiled.process, &secrets);
        cases += 1;
    }
    assert_eq!(cases, 21 + 12);
    // 299 of the 330 (case, analysis, depth) dumps; the rest are the
    // deeper attacker dumps of the larger protocols.
    assert!(compared >= 290, "only {compared} dumps compared");
}

#[test]
fn dumps_match_the_reference_when_ordinals_tie() {
    // Rendered against a fresh parse of the same source, no label or
    // variable of the solution has an ordinal: every ζ line keys as
    // `ℓ#?`, and same-named variables key alike, so the set text alone
    // orders them, as it did in the old tuple sort.
    for spec in suite() {
        let sol = analyze(&spec.process);
        let other = parse_process(&spec.source).unwrap();
        let dump = sol.render_estimate_for(&other, 3);
        assert!(dump.contains("ζ(ℓ#?)"), "{}", spec.name);
        assert_eq!(
            dump,
            old_render_estimate_for(&sol, &other, 3),
            "{}",
            spec.name
        );
    }
}

#[test]
fn dumps_match_the_reference_on_interleaved_networks() {
    // The `solve-large` shape: 200 sessions of 4 hops, about 4,900 lines
    // per dump. Under the attacker every public channel carries all the
    // attacker knows, and a 200x4 dump is 28 MB already at depth 0, so
    // the attacked networks here have 16 sessions.
    let secrets = ["key0", "key1", "v0"].map(Symbol::intern).into();
    for seed in 1..=4 {
        let p = parse_process(&interleaved_source(200, 4, seed)).unwrap();
        let name = format!("interleaved 200x4 seed {seed}");
        assert_eq!(check_solution(&name, &analyze(&p), &p), MAX_DEPTH + 1);
        let p = parse_process(&interleaved_source(16, 4, seed)).unwrap();
        let attacked = analyze_with_attacker(&p, &secrets).solution;
        check_solution(
            &format!("interleaved 16x4 seed {seed} (attacker)"),
            &attacked,
            &p,
        );
    }
}

#[test]
fn dumps_match_the_reference_on_random_processes() {
    let cfg = GenConfig::default();
    let names = ["datum0", "key0", "key1"];
    let mut compared = 0;
    for seed in 0..240u64 {
        let p = random_process(seed, &cfg);
        let secrets = names
            .iter()
            .enumerate()
            .filter(|(i, _)| seed % 3 != *i as u64)
            .map(|(_, n)| Symbol::intern(n))
            .collect();
        compared += check_process(&format!("random seed {seed}"), &p, &secrets);
    }
    assert_eq!(compared, 240 * 2 * (MAX_DEPTH + 1));
}
