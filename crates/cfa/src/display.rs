//! Human-readable rendering of solutions.
//!
//! A [`Solution`] is a grammar; reading raw productions requires chasing
//! nonterminal ids. [`Solution::render_production`] prints one production
//! with its children *inlined* up to a depth budget (cycles and deep
//! nests render as `…`), and [`Solution::render_estimate`] dumps the
//! whole `(ρ, κ, ζ)` triple the way the paper's Example 1 presents it.
//!
//! [`Solution::least_rendered`] picks the production with the least
//! rendering while rendering only the ones that can win, and [`elide`]
//! bounds a rendering a report prints to [`RENDER_CAP`] bytes.

use crate::domain::{FlowVar, Prod, VarId};
use crate::solver::Solution;
use nuspi_syntax::{Label, Process, Var};
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};

/// Collects binding occurrences of variables in pre-order — the same
/// traversal order as [`Process::labels`], so ordinals derived from it
/// are a function of the process's shape, not of when it was parsed.
fn bound_vars_into(p: &Process, out: &mut Vec<Var>) {
    match p {
        Process::Nil => {}
        Process::Output { then, .. }
        | Process::Match { then, .. }
        | Process::Restrict { body: then, .. }
        | Process::Hide { body: then, .. } => bound_vars_into(then, out),
        Process::Input { var, then, .. } => {
            out.push(*var);
            bound_vars_into(then, out);
        }
        Process::Par(a, b) => {
            bound_vars_into(a, out);
            bound_vars_into(b, out);
        }
        Process::Replicate(q) => bound_vars_into(q, out),
        Process::Let { fst, snd, then, .. } => {
            out.push(*fst);
            out.push(*snd);
            bound_vars_into(then, out);
        }
        Process::CaseNat {
            zero, pred, succ, ..
        } => {
            bound_vars_into(zero, out);
            out.push(*pred);
            bound_vars_into(succ, out);
        }
        Process::CaseDec { vars, then, .. } => {
            out.extend(vars.iter().copied());
            bound_vars_into(then, out);
        }
    }
}

/// What [`Solution::render_production`] prints for a production, as far
/// as it is known without inlining any child nonterminal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RenderHead {
    /// An atom (`Name`, `Zero`): the rendering is exactly this string.
    Whole(&'static str),
    /// A constructor (`Suc`, `Pair`, `Enc`): every rendering starts with
    /// this opening and is strictly longer than it. No opening is a
    /// prefix of another, so two different openings order every
    /// rendering of one before every rendering of the other.
    Opening(&'static str),
}

impl Prod {
    /// The head of this production's rendering at any depth.
    pub(crate) fn render_head(&self) -> RenderHead {
        match self {
            Prod::Name(n) => RenderHead::Whole(n.as_str()),
            Prod::Zero => RenderHead::Whole("0"),
            Prod::Suc(_) => RenderHead::Opening("suc("),
            Prod::Pair(..) => RenderHead::Opening("("),
            Prod::Enc { .. } => RenderHead::Opening("{"),
        }
    }
}

/// The most bytes a rendering printed inside a report may take; see
/// [`elide`].
pub const RENDER_CAP: usize = 1024;

/// Cuts `rendered` to at most [`RENDER_CAP`] bytes, on a character
/// boundary and ending in `…`, counting each cut as `cfa.render.elided`.
/// Renderings within the cap come back unchanged.
pub fn elide(mut rendered: String) -> String {
    if rendered.len() <= RENDER_CAP {
        return rendered;
    }
    let mut cut = RENDER_CAP - '…'.len_utf8();
    while !rendered.is_char_boundary(cut) {
        cut -= 1;
    }
    rendered.truncate(cut);
    rendered.push('…');
    nuspi_obs::counter("cfa.render.elided", 1);
    rendered
}

impl Solution {
    /// Renders one production, inlining child nonterminals up to `depth`.
    pub fn render_production(&self, prod: &Prod, depth: usize) -> String {
        let mut out = String::new();
        self.render_prod_into(prod, depth, &mut HashSet::new(), &mut out);
        out
    }

    /// The candidate with the least `(class, render_production(p, depth))`,
    /// ties going to the earliest, paired with that rendering: what
    /// sorting every candidate on the key and taking the first returns.
    ///
    /// Only candidates still in contention are rendered. Within the least
    /// class an atom (a name, `0`) renders as its own string; a
    /// constructor whose opening (`(`, `suc(`, `{`) sorts at or after the
    /// best atom renders after it, and so does one whose opening sorts
    /// after another constructor's (openings are never prefixes of one
    /// another).
    pub fn least_rendered<'p, C: Ord + Copy>(
        &self,
        candidates: impl IntoIterator<Item = (C, &'p Prod)>,
        depth: usize,
    ) -> Option<(&'p Prod, String)> {
        let candidates: Vec<(C, &Prod)> = candidates.into_iter().collect();
        let class = candidates.iter().map(|(c, _)| *c).min()?;
        let contenders: Vec<(&Prod, RenderHead)> = candidates
            .into_iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, p)| (p, p.render_head()))
            .collect();
        let best_atom = contenders
            .iter()
            .enumerate()
            .filter_map(|(i, (_, head))| match head {
                RenderHead::Whole(s) => Some((*s, i)),
                RenderHead::Opening(_) => None,
            })
            .min();
        let opening = contenders
            .iter()
            .filter_map(|(_, head)| match head {
                RenderHead::Opening(o) if best_atom.is_none_or(|(s, _)| s > *o) => Some(*o),
                _ => None,
            })
            .min();
        let mut best = best_atom.map(|(s, i)| (s.to_owned(), i));
        if let Some(opening) = opening {
            for (i, (p, head)) in contenders.iter().enumerate() {
                if *head != RenderHead::Opening(opening) {
                    continue;
                }
                let shown = self.render_production(p, depth);
                if best
                    .as_ref()
                    .is_none_or(|(b, j)| (shown.as_str(), i) < (b.as_str(), *j))
                {
                    best = Some((shown, i));
                }
            }
        }
        best.map(|(shown, i)| (contenders[i].0, shown))
    }

    fn render_var_into(
        &self,
        id: VarId,
        depth: usize,
        seen: &mut HashSet<VarId>,
        out: &mut String,
    ) {
        let prods = self.prods_of_id(id);
        if depth == 0 || !seen.insert(id) {
            out.push('…');
            return;
        }
        match prods.len() {
            0 => out.push('∅'),
            1 => self.render_sorted_into(prods, depth - 1, seen, " | ", out),
            _ => {
                out.push('{');
                self.render_sorted_into(prods, depth - 1, seen, " | ", out);
                out.push('}');
            }
        }
        seen.remove(&id);
    }

    /// Appends the renderings of `prods` at `depth` to `out`, sorted and
    /// joined by `sep`. Each production is rendered once, in place; when
    /// there are several, the sorted copy is appended after them and the
    /// unsorted renderings are then cut out, so nothing is allocated per
    /// item.
    fn render_sorted_into(
        &self,
        prods: &HashSet<Prod>,
        depth: usize,
        seen: &mut HashSet<VarId>,
        sep: &str,
        out: &mut String,
    ) {
        if prods.len() < 2 {
            for p in prods {
                self.render_prod_into(p, depth, seen, out);
            }
            return;
        }
        let start = out.len();
        let mut items = Vec::with_capacity(prods.len());
        for p in prods {
            let from = out.len();
            self.render_prod_into(p, depth, seen, out);
            items.push(from..out.len());
        }
        items.sort_unstable_by(|a, b| out[a.clone()].cmp(&out[b.clone()]));
        let end = out.len();
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            out.extend_from_within(item);
        }
        out.drain(start..end);
    }

    fn render_prod_into(
        &self,
        prod: &Prod,
        depth: usize,
        seen: &mut HashSet<VarId>,
        out: &mut String,
    ) {
        match prod {
            Prod::Name(n) => out.push_str(n.as_str()),
            Prod::Zero => out.push('0'),
            Prod::Suc(a) => {
                out.push_str("suc(");
                self.render_var_into(*a, depth, seen, out);
                out.push(')');
            }
            Prod::Pair(a, b) => {
                out.push('(');
                self.render_var_into(*a, depth, seen, out);
                out.push_str(", ");
                self.render_var_into(*b, depth, seen, out);
                out.push(')');
            }
            Prod::Enc {
                args,
                confounder,
                key,
            } => {
                out.push('{');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.render_var_into(*a, depth, seen, out);
                }
                if !args.is_empty() {
                    out.push_str(", ");
                }
                let _ = write!(out, "{confounder}}}:");
                self.render_var_into(*key, depth, seen, out);
            }
        }
    }

    /// Renders the set of productions of a flow variable.
    pub fn render_set(&self, fv: FlowVar, depth: usize) -> String {
        let mut out = String::new();
        self.render_set_into(self.prods_of(fv), depth, &mut HashSet::new(), &mut out);
        out
    }

    /// Appends `∅`, or `{ p1, p2, … }` with the renderings sorted.
    /// `seen` must be empty, and is empty again on return.
    fn render_set_into(
        &self,
        prods: &HashSet<Prod>,
        depth: usize,
        seen: &mut HashSet<VarId>,
        out: &mut String,
    ) {
        if prods.is_empty() {
            out.push('∅');
            return;
        }
        out.push_str("{ ");
        self.render_sorted_into(prods, depth, seen, ", ", out);
        out.push_str(" }");
    }

    /// Dumps the whole estimate `(ρ, κ, ζ)` in the presentation order of
    /// the paper's Example 1: `κ` (channels) first, then `ρ` (variables),
    /// then `ζ` (labels). Auxiliary nonterminals are skipped. Variables
    /// print as `x#id` and labels as `ℓi`, with their raw run-minted
    /// indices.
    pub fn render_estimate(&self, depth: usize) -> String {
        self.render_estimate_with(depth, |x| format!("{x}#{}", x.id()), Label::index)
    }

    /// Like [`render_estimate`](Solution::render_estimate), but prints
    /// label and variable identities as their *pre-order ordinals* in
    /// `p` (`ℓ#i`, `x#i`) instead of the raw run-minted indices. The
    /// output is then a pure function of the process's α-equivalence
    /// class — two parses of the same source render identically — which
    /// is what lets the `nuspi-engine` cache serve it content-addressed.
    ///
    /// `p` must be the process this solution was computed from (labels
    /// or variables not bound in `p` would render as `?`).
    pub fn render_estimate_for(&self, p: &Process, depth: usize) -> String {
        let label_ordinals: HashMap<_, _> = p
            .labels()
            .into_iter()
            .enumerate()
            .map(|(i, l)| (l, i))
            .collect();
        let mut vars = Vec::new();
        bound_vars_into(p, &mut vars);
        let var_ordinals: HashMap<_, _> =
            vars.into_iter().enumerate().map(|(i, v)| (v, i)).collect();
        self.render_estimate_with(
            depth,
            |x| OrdinalVar {
                ordinal: Ordinal(var_ordinals.get(&x).copied()),
                name: x.symbol().as_str(),
            },
            |l| Ordinal(label_ordinals.get(&l).copied()),
        )
    }

    /// The one estimate dump behind both public forms: `rho` and `zeta`
    /// give each ρ and ζ entry its sort key, which also prints inside
    /// `ρ(…)` and after the `ℓ` of `ζ(ℓ…)`.
    ///
    /// Every set renders into one buffer (sharing one `seen` set, which
    /// [`render_var_into`](Solution::render_var_into) leaves empty), and
    /// the lines sort on (section, key, set text) through ranges into
    /// it. That is the order of the historical per-section tuple sort,
    /// ties included: two lines equal on all three print identically.
    fn render_estimate_with<R: Ord + fmt::Display, Z: Ord + fmt::Display>(
        &self,
        depth: usize,
        rho: impl Fn(Var) -> R,
        zeta: impl Fn(Label) -> Z,
    ) -> String {
        let mut sets = String::new();
        let mut seen = HashSet::new();
        let mut lines = Vec::new();
        for (id, fv) in self.flow_vars() {
            let head = match fv {
                FlowVar::Kappa(n) => Head::Kappa(n.as_str()),
                FlowVar::Rho(x) => Head::Rho(rho(x)),
                FlowVar::Zeta(l) => Head::Zeta(zeta(l)),
                FlowVar::Aux(_) => continue,
            };
            let from = sets.len();
            self.render_set_into(self.prods_of_id(id), depth, &mut seen, &mut sets);
            lines.push((head, from..sets.len()));
        }
        lines.sort_unstable_by(|(a, x), (b, y)| {
            a.cmp(b).then_with(|| sets[x.clone()].cmp(&sets[y.clone()]))
        });
        let mut out = String::with_capacity(sets.len() + 16 * lines.len());
        for (head, set) in lines {
            let _ = match head {
                Head::Kappa(n) => write!(out, "κ({n}) = "),
                Head::Rho(x) => write!(out, "ρ({x}) = "),
                Head::Zeta(l) => write!(out, "ζ(ℓ{l}) = "),
            };
            out.push_str(&sets[set]);
            out.push('\n');
        }
        out
    }
}

/// An estimate line's section and sort key, in presentation order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Head<R, Z> {
    Kappa(&'static str),
    Rho(R),
    Zeta(Z),
}

/// A pre-order ordinal, printed `#i`; `#?` for a binder not in the
/// process, which sorts first.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Ordinal(Option<usize>);

impl fmt::Display for Ordinal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(i) => write!(f, "#{i}"),
            None => f.write_str("#?"),
        }
    }
}

/// A variable by ordinal, then name; printed `x#i`.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct OrdinalVar {
    ordinal: Ordinal,
    name: &'static str,
}

impl fmt::Display for OrdinalVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.name, self.ordinal)
    }
}

#[cfg(test)]
mod tests {
    use super::{elide, RenderHead, RENDER_CAP};
    use crate::analyze;
    use crate::domain::FlowVar;
    use nuspi_syntax::{parse_process, Symbol};

    #[test]
    fn renders_atomic_sets() {
        let p = parse_process("c<m>.c<0>.0").unwrap();
        let sol = analyze(&p);
        let shown = sol.render_set(FlowVar::Kappa(Symbol::intern("c")), 3);
        assert_eq!(shown, "{ 0, m }");
    }

    #[test]
    fn renders_structured_productions() {
        let p = parse_process("c<{m, new r}:k>.0").unwrap();
        let sol = analyze(&p);
        let shown = sol.render_set(FlowVar::Kappa(Symbol::intern("c")), 3);
        assert_eq!(shown, "{ {m, r}:k }");
    }

    #[test]
    fn renders_pairs_and_sucs() {
        let p = parse_process("c<(a, suc(0))>.0").unwrap();
        let sol = analyze(&p);
        let shown = sol.render_set(FlowVar::Kappa(Symbol::intern("c")), 4);
        assert_eq!(shown, "{ (a, suc(0)) }");
    }

    #[test]
    fn cycles_render_as_ellipsis_not_loops() {
        let p = parse_process("c<0>.0 | !c(x).c<suc(x)>.0").unwrap();
        let sol = analyze(&p);
        let shown = sol.render_set(FlowVar::Kappa(Symbol::intern("c")), 6);
        assert!(shown.contains("suc("), "{shown}");
        assert!(shown.contains('…'), "recursive grammar must cut: {shown}");
    }

    #[test]
    fn cycle_guard_terminates_without_the_depth_cap() {
        // The grammar of κ(c) is cyclic: κ(c) → pair → ζ(x) → ρ(x) →
        // κ(c). A depth budget far larger than the grammar's variable
        // count means only the visited-set keeps rendering finite.
        let p = parse_process("c<m>.0 | !c(x).c<(x, 0)>.0").unwrap();
        let sol = analyze(&p);
        let shown = sol.render_set(FlowVar::Kappa(Symbol::intern("c")), 10_000);
        assert!(shown.contains('…'), "cycle must truncate: {shown}");
        assert!(shown.contains("(") && shown.contains("m"), "{shown}");
    }

    #[test]
    fn mutual_recursion_between_channels_truncates() {
        // Two channels feed each other through suc/pair wrappers —
        // the cycle spans several nonterminals, not a self-loop.
        let p = parse_process("a<0>.0 | !a(x).b<suc(x)>.0 | !b(y).a<(y, y)>.0").unwrap();
        let sol = analyze(&p);
        for chan in ["a", "b"] {
            let shown = sol.render_set(FlowVar::Kappa(Symbol::intern(chan)), 500);
            assert!(shown.contains('…'), "κ({chan}) must truncate: {shown}");
        }
    }

    #[test]
    fn sibling_occurrences_are_not_mistaken_for_cycles() {
        // The same nonterminal appears twice as a *sibling* (both pair
        // components); backtracking must clear the visited mark so the
        // second occurrence still renders.
        let p = parse_process("c<m>.0 | c(x).d<(x, x)>.0").unwrap();
        let sol = analyze(&p);
        let shown = sol.render_set(FlowVar::Kappa(Symbol::intern("d")), 10);
        assert_eq!(shown, "{ (m, m) }");
    }

    #[test]
    fn empty_sets_render_as_empty_symbol() {
        let p = parse_process("c(x). x<0>.0").unwrap();
        let sol = analyze(&p);
        // x never receives anything: ρ(x) = ∅.
        let rho = sol
            .flow_vars()
            .find_map(|(_, fv)| match fv {
                FlowVar::Rho(_) => Some(fv),
                _ => None,
            })
            .unwrap();
        assert_eq!(sol.render_set(rho, 3), "∅");
    }

    #[test]
    fn render_heads_match_renderings() {
        let p = parse_process("c<(a, suc(0))>.c<{b, new r}:k>.c<suc(0)>.c<0>.c<a>.0").unwrap();
        let sol = analyze(&p);
        let kappa = sol.prods_of(FlowVar::Kappa(Symbol::intern("c")));
        assert_eq!(kappa.len(), 5);
        for prod in kappa {
            for depth in [0, 1, 4] {
                let shown = sol.render_production(prod, depth);
                match prod.render_head() {
                    RenderHead::Whole(s) => assert_eq!(shown, s),
                    RenderHead::Opening(o) => {
                        assert!(shown.starts_with(o) && shown.len() > o.len(), "{shown}")
                    }
                }
            }
        }
    }

    #[test]
    fn no_opening_is_a_prefix_of_another() {
        let openings = ["suc(", "(", "{"];
        for a in openings {
            for b in openings {
                assert!(a == b || !b.starts_with(a), "{a} opens {b}");
            }
        }
    }

    #[test]
    fn elide_caps_long_renderings_on_a_char_boundary() {
        let short = "κ".repeat(10);
        assert_eq!(elide(short.clone()), short);
        let long = "κ".repeat(RENDER_CAP);
        let cut = elide(long);
        assert!(cut.len() <= RENDER_CAP, "{}", cut.len());
        assert!(cut.ends_with('…'));
        assert!(cut.trim_end_matches('…').chars().all(|c| c == 'κ'));
    }

    #[test]
    fn estimate_dump_has_all_components() {
        let p = parse_process("c<m>.0 | c(x).0").unwrap();
        let sol = analyze(&p);
        let dump = sol.render_estimate(3);
        assert!(dump.contains("κ(c)"));
        assert!(dump.contains("ρ(x"));
        assert!(dump.contains("ζ(ℓ"));
    }
}
