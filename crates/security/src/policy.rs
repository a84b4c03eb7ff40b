//! Security policies: the assignment of lattice levels to names.
//!
//! §4 of the paper partitions the names `N′` into public names `P` and
//! secret names `S`, closed under indexing (`n ∈ S iff Nₙ ⊆ S`) — which is
//! automatic here because the partition is declared on *canonical* base
//! symbols. Free names of analysed processes are required to be public;
//! secrets must be restricted.
//!
//! The partition generalises to a grading: a policy carries a
//! [`SecLattice`] (defaulting to the classical two-point instance), an
//! optional level per name, and an attacker *clearance*. A name is
//! "secret" exactly when its level is not below the clearance — so a
//! policy that never mentions a level behaves byte-for-byte like the old
//! binary partition, and `is_secret`/`is_public` keep their meaning.

use crate::lattice::{Level, SecLattice};
use nuspi_syntax::{Name, Process, Symbol};
use std::collections::{BTreeMap, HashSet};

/// A grading of canonical names by security level.
///
/// Any name without a declared level or `secret` flag sits at lattice
/// bottom (public, trusted). Declared secrets without a finer grading sit
/// at [`SecLattice::secret`] (confidentiality top).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Policy {
    secret: HashSet<Symbol>,
    lattice: SecLattice,
    /// Graded entries; a `BTreeMap` for deterministic structural
    /// equality. Renderings sort by *string* (via [`Policy::graded`]),
    /// since `Symbol`'s `Ord` is interning order.
    levels: BTreeMap<Symbol, Level>,
    clearance: Level,
}

impl Default for Policy {
    fn default() -> Policy {
        let lattice = SecLattice::two_point();
        let clearance = lattice.bottom();
        Policy {
            secret: HashSet::new(),
            lattice,
            levels: BTreeMap::new(),
            clearance,
        }
    }
}

impl Policy {
    /// The all-public policy over the two-point lattice.
    pub fn new() -> Policy {
        Policy::default()
    }

    /// A policy declaring the given canonical names secret.
    pub fn with_secrets<I, S>(secrets: I) -> Policy
    where
        I: IntoIterator<Item = S>,
        S: Into<Symbol>,
    {
        Policy {
            secret: secrets.into_iter().map(Into::into).collect(),
            ..Policy::default()
        }
    }

    /// An all-public policy over a custom lattice; the attacker clearance
    /// starts at lattice bottom.
    pub fn with_lattice(lattice: SecLattice) -> Policy {
        let clearance = lattice.bottom();
        Policy {
            secret: HashSet::new(),
            lattice,
            levels: BTreeMap::new(),
            clearance,
        }
    }

    /// Declares another canonical name secret.
    pub fn add_secret(&mut self, s: impl Into<Symbol>) -> &mut Self {
        self.secret.insert(s.into());
        self
    }

    /// Grades a canonical name at an explicit lattice level.
    pub fn grade(&mut self, s: impl Into<Symbol>, level: Level) -> &mut Self {
        self.levels.insert(s.into(), level);
        self
    }

    /// Sets the attacker clearance: the attacker observes exactly the
    /// down-set of this level.
    pub fn set_clearance(&mut self, clearance: Level) -> &mut Self {
        self.clearance = clearance;
        self
    }

    /// The policy's lattice.
    pub fn lattice(&self) -> &SecLattice {
        &self.lattice
    }

    /// The attacker clearance.
    pub fn clearance(&self) -> Level {
        self.clearance
    }

    /// Whether the policy uses anything beyond the classical binary
    /// partition — a graded lattice, explicit levels, or a raised
    /// clearance. Ungraded policies take the historical code paths
    /// unchanged, which is what keeps their output byte-identical.
    pub fn is_graded(&self) -> bool {
        !self.levels.is_empty()
            || self.clearance != self.lattice.bottom()
            || self.lattice != SecLattice::two_point()
    }

    /// The level of a canonical name: its graded entry if present, the
    /// confidentiality top for bare `secret` declarations, bottom
    /// otherwise.
    pub fn level_of(&self, n: Symbol) -> Level {
        if let Some(l) = self.levels.get(&n) {
            *l
        } else if self.secret.contains(&n) {
            self.lattice.secret()
        } else {
            self.lattice.bottom()
        }
    }

    /// Whether the attacker observes a level: `l ⊑ clearance`.
    pub fn observes(&self, l: Level) -> bool {
        self.lattice.leq(l, self.clearance)
    }

    /// Whether the canonical name is secret (`n ∈ S`): it is declared
    /// secret, or its level is not observable at the attacker clearance.
    pub fn is_secret(&self, n: Symbol) -> bool {
        self.secret.contains(&n) || self.levels.get(&n).is_some_and(|l| !self.observes(*l))
    }

    /// Whether the canonical name is public (`n ∈ P`).
    pub fn is_public(&self, n: Symbol) -> bool {
        !self.is_secret(n)
    }

    /// Whether a (possibly indexed) name is secret; the partition is closed
    /// under indexing by construction.
    pub fn name_is_secret(&self, n: Name) -> bool {
        self.is_secret(n.canonical())
    }

    /// The declared secret symbols (bare `secret` declarations only; use
    /// [`Policy::opaque_names`] for the full attacker-opaque set).
    pub fn secrets(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.secret.iter().copied()
    }

    /// The graded entries, sorted by name.
    pub fn graded(&self) -> impl Iterator<Item = (Symbol, Level)> + '_ {
        let mut v: Vec<(Symbol, Level)> = self.levels.iter().map(|(s, l)| (*s, *l)).collect();
        v.sort_by_key(|(s, _)| s.as_str());
        v.into_iter()
    }

    /// A copy of the policy with every `hide`-bound name of `p` declared
    /// secret. Hidden names are secret *by construction* — they need no
    /// policy entry, and on a graded lattice they sit at the
    /// confidentiality top like any bare secret. The security checks
    /// apply this augmentation at their entry points, so a process with
    /// no `hide` binder sees the policy unchanged.
    pub fn with_hidden_of(&self, p: &Process) -> Policy {
        let mut out = self.clone();
        for h in p.hidden_names() {
            out.secret.insert(h);
        }
        out
    }

    /// Every name the attacker must not resolve: bare secrets plus graded
    /// names whose level exceeds the clearance. This is the set handed to
    /// the most-powerful-attacker construction.
    pub fn opaque_names(&self) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = self.secret.iter().copied().collect();
        for (s, l) in &self.levels {
            if !self.observes(*l) && !self.secret.contains(s) {
                out.push(*s);
            }
        }
        out.sort_by_key(|s| s.as_str());
        out
    }

    /// The paper's secret/public partition as a policy of its own: the
    /// two-point lattice, clearance at bottom, and [`Policy::opaque_names`]
    /// as the secrets. Under it `level` takes only the values bottom and
    /// [`SecLattice::secret`], and `level(w) ⋢ ⊥` is exactly
    /// `kind(w) = S` of Definition 2 — which is how the binary checks
    /// (confinement, carefulness) read this policy. An ungraded policy is
    /// its own projection.
    pub fn binary(&self) -> Policy {
        Policy::with_secrets(self.opaque_names())
    }

    /// The paper's well-formedness demand on analysed processes: all free
    /// names are public (secrets either do not occur or are restricted).
    /// Returns the offending free secret names, in printed order.
    pub fn free_secret_names(&self, p: &Process) -> Vec<Name> {
        let mut out: Vec<Name> = p
            .free_names()
            .into_iter()
            .filter(|n| self.name_is_secret(*n))
            .collect();
        out.sort_by_key(|n| n.to_string());
        out
    }

    /// Canonical JSON rendering. Names sort lexicographically; level
    /// labels render in pinned axis index order via [`SecLattice::show`],
    /// so two structurally equal policies always serialise to the same
    /// bytes regardless of declaration or hash order.
    pub fn to_json(&self) -> String {
        let mut secrets: Vec<&str> = self.secret.iter().map(|s| s.as_str()).collect();
        secrets.sort_unstable();
        let mut out = String::from("{\"secret\":[");
        for (i, s) in secrets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(s);
            out.push('"');
        }
        out.push_str("],\"levels\":{");
        for (i, (s, l)) in self.graded().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(s.as_str());
            out.push_str("\":\"");
            out.push_str(&self.lattice.show(l));
            out.push('"');
        }
        out.push_str("},\"clearance\":\"");
        out.push_str(&self.lattice.show(self.clearance));
        out.push_str("\"}");
        out
    }
}

impl std::fmt::Display for Policy {
    /// Same pinned ordering as [`Policy::to_json`], in prose form.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut secrets: Vec<&str> = self.secret.iter().map(|s| s.as_str()).collect();
        secrets.sort_unstable();
        write!(f, "secret {{{}}}", secrets.join(", "))?;
        if !self.levels.is_empty() {
            write!(f, "; levels {{")?;
            for (i, (s, l)) in self.graded().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{s}: {}", self.lattice.show(l))?;
            }
            write!(f, "}}")?;
        }
        write!(f, "; clearance {}", self.lattice.show(self.clearance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::parse_process;

    #[test]
    fn default_policy_is_all_public() {
        let p = Policy::new();
        assert!(p.is_public(Symbol::intern("anything")));
        assert!(!p.is_graded());
    }

    #[test]
    fn declared_secrets_are_secret() {
        let p = Policy::with_secrets(["k", "m"]);
        assert!(p.is_secret(Symbol::intern("k")));
        assert!(p.is_secret(Symbol::intern("m")));
        assert!(p.is_public(Symbol::intern("c")));
        assert!(!p.is_graded(), "bare secrets stay on the binary path");
    }

    #[test]
    fn partition_is_closed_under_indexing() {
        let p = Policy::with_secrets(["k"]);
        let fresh = Name::global("k").freshen();
        assert!(p.name_is_secret(fresh));
        assert!(!p.name_is_secret(Name::global("c").freshen()));
    }

    #[test]
    fn free_secret_names_flags_violations() {
        let policy = Policy::with_secrets(["m"]);
        let leaky = parse_process("c<m>.0").unwrap();
        assert_eq!(policy.free_secret_names(&leaky).len(), 1);
        let ok = parse_process("(new m) c<{m, new r}:k>.0").unwrap();
        assert!(policy.free_secret_names(&ok).is_empty());
    }

    #[test]
    fn add_secret_chains() {
        let mut p = Policy::new();
        p.add_secret("a").add_secret("b");
        assert_eq!(p.secrets().count(), 2);
    }

    #[test]
    fn graded_entry_above_clearance_is_secret() {
        let mut p = Policy::with_lattice(SecLattice::diamond4());
        let lat = p.lattice().clone();
        let conf = lat.level("confidential", "trusted").unwrap();
        p.grade("db", conf);
        assert!(p.is_secret(Symbol::intern("db")));
        assert!(p.is_graded());
        // Raise the clearance past the entry: it becomes observable.
        p.set_clearance(conf);
        assert!(p.is_public(Symbol::intern("db")));
    }

    #[test]
    fn bare_secret_sits_at_conf_top() {
        let mut p = Policy::with_lattice(SecLattice::diamond4());
        p.add_secret("k");
        let lat = p.lattice().clone();
        assert_eq!(p.level_of(Symbol::intern("k")), lat.secret());
        assert_eq!(p.level_of(Symbol::intern("c")), lat.bottom());
    }

    #[test]
    fn opaque_names_unions_secrets_and_high_grades() {
        let mut p = Policy::with_lattice(SecLattice::diamond4());
        let lat = p.lattice().clone();
        p.add_secret("k");
        p.grade("db", lat.level("restricted", "trusted").unwrap());
        p.grade("pub", lat.bottom());
        let opaque = p.opaque_names();
        let names: Vec<&str> = opaque.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["db", "k"]);
    }

    #[test]
    fn json_is_byte_stable_across_declaration_order() {
        // Satellite: lattice labels render in the pinned order and names
        // sort, so structurally equal policies serialise identically.
        let lat = SecLattice::diamond4();
        let mk = |order: &[&str]| {
            let mut p = Policy::with_lattice(lat.clone());
            for n in order {
                p.add_secret(*n);
            }
            p.grade("db", lat.level("restricted", "internal").unwrap());
            p.grade("audit", lat.level("confidential", "external").unwrap());
            p.set_clearance(lat.level("confidential", "trusted").unwrap());
            p.to_json()
        };
        let a = mk(&["k", "m", "s"]);
        let b = mk(&["s", "k", "m"]);
        assert_eq!(a, b);
        assert_eq!(
            a,
            "{\"secret\":[\"k\",\"m\",\"s\"],\"levels\":{\
             \"audit\":\"conf:confidential,integ:external\",\
             \"db\":\"conf:restricted,integ:internal\"},\
             \"clearance\":\"conf:confidential,integ:trusted\"}"
        );
    }

    #[test]
    fn display_matches_pinned_order() {
        let mut p = Policy::with_secrets(["m", "k"]);
        let lat = p.lattice().clone();
        p.grade("d", lat.secret());
        let shown = p.to_string();
        assert_eq!(
            shown,
            "secret {k, m}; levels {d: conf:secret,integ:trusted}; clearance conf:public,integ:trusted"
        );
    }
}
