//! Abstract syntax of the νSPI-calculus (Definition 1).
//!
//! * [`Expr`] is a labelled expression `E = M^l`.
//! * [`Term`] is an unlabelled term `M` — names, variables, pairs, numerals,
//!   encryptions `{E₁,…,Eₖ,(νr)r}_{E₀}`, and (already evaluated) values.
//! * [`Process`] is a process `P` with the full π/spi repertoire plus the
//!   structured-data destructors `let`, integer `case`, and decryption
//!   `case … of {x₁,…,xₖ}_V in P`.
//!
//! Every term occurrence carries a [`Label`]; the Control Flow Analysis
//! attaches its abstract cache `ζ` to these labels.

use crate::traverse::{Binder, Part, Rewrite};
use crate::{Label, Name, Symbol, Value, Var};
use std::collections::HashSet;
use std::sync::Arc;

/// A labelled expression `M^l`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Expr {
    /// The underlying term `M`.
    pub term: Term,
    /// The program point `l`.
    pub label: Label,
}

impl Expr {
    /// Wraps a term with a fresh label.
    pub fn new(term: Term) -> Expr {
        Expr {
            term,
            label: Label::fresh(),
        }
    }

    /// Wraps a term with an explicit label (used by substitution, which
    /// must preserve the label of the replaced occurrence:
    /// `x^lx [M^l / x] = M^lx`).
    pub fn with_label(term: Term, label: Label) -> Expr {
        Expr { term, label }
    }
}

/// An unlabelled term `M`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A name `n`.
    Name(Name),
    /// A variable `x`.
    Var(Var),
    /// A pair `(E, E′)`.
    Pair(Box<Expr>, Box<Expr>),
    /// The numeral `0`.
    Zero,
    /// A successor `suc(E)`.
    Suc(Box<Expr>),
    /// An unevaluated encryption `{E₁,…,Eₖ,(νr)r}_{E₀}`. The confounder
    /// binder `(νr)r` is part of the syntax: evaluating this term generates
    /// a fresh α-variant of `confounder` (Table 1, rule 5).
    Enc {
        /// The payload expressions `E₁,…,Eₖ`.
        payload: Vec<Expr>,
        /// The confounder binder `r` (a *binding* occurrence).
        confounder: Name,
        /// The key expression `E₀`.
        key: Box<Expr>,
    },
    /// An already evaluated value `w` (appears through substitution).
    Val(Arc<Value>),
}

/// A νSPI process `P`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Process {
    /// The inert process `0`.
    Nil,
    /// Output `E⟨V⟩.P`.
    Output {
        /// The channel expression.
        chan: Expr,
        /// The message expression.
        msg: Expr,
        /// The continuation.
        then: Box<Process>,
    },
    /// Input `E(x).P`; binds `x` in `then`.
    Input {
        /// The channel expression.
        chan: Expr,
        /// The bound variable.
        var: Var,
        /// The continuation.
        then: Box<Process>,
    },
    /// Parallel composition `P | Q`.
    Par(Box<Process>, Box<Process>),
    /// Restriction `(νn)P`; binds `name` in `body`.
    Restrict {
        /// The bound name.
        name: Name,
        /// The scope of the restriction.
        body: Box<Process>,
    },
    /// Hiding `(hide n)P`; binds `name` in `body`.
    ///
    /// Like restriction, `hide` generates a fresh name, but it declares
    /// *confidentiality* rather than mere freshness: the scope of a hidden
    /// name never extrudes (the commitment semantics drops any output whose
    /// value mentions it) and the analysis treats the name as secret at the
    /// top of the confidentiality lattice without a policy entry.
    Hide {
        /// The bound name.
        name: Name,
        /// The scope of the hiding.
        body: Box<Process>,
    },
    /// Match `[E is V]P`.
    Match {
        /// Left-hand expression.
        lhs: Expr,
        /// Right-hand expression.
        rhs: Expr,
        /// The guarded continuation.
        then: Box<Process>,
    },
    /// Replication `!P`.
    Replicate(Box<Process>),
    /// Pair splitting `let (x, y) = E in P`; binds `fst` and `snd`.
    Let {
        /// Variable bound to the first component.
        fst: Var,
        /// Variable bound to the second component.
        snd: Var,
        /// The pair expression.
        expr: Expr,
        /// The continuation.
        then: Box<Process>,
    },
    /// Integer case `case E of 0 : P suc(x) : Q`; binds `pred` in `succ`.
    CaseNat {
        /// The scrutinee.
        expr: Expr,
        /// Branch taken when the scrutinee is `0`.
        zero: Box<Process>,
        /// Variable bound to the predecessor in the `suc` branch.
        pred: Var,
        /// Branch taken when the scrutinee is a successor.
        succ: Box<Process>,
    },
    /// Decryption `case E of {x₁,…,xₖ}_V in P`; binds `vars` in `then`.
    CaseDec {
        /// The ciphertext expression.
        expr: Expr,
        /// Variables bound to the decrypted payload.
        vars: Vec<Var>,
        /// The key expression `V`.
        key: Expr,
        /// The continuation.
        then: Box<Process>,
    },
}

impl Expr {
    /// Free variables of the expression, accumulated into `out`.
    pub fn free_vars_into(&self, out: &mut HashSet<Var>) {
        if let Term::Var(x) = &self.term {
            out.insert(*x);
        }
        self.term.parts().for_each(|e| e.free_vars_into(out));
    }

    /// Free names of the expression, accumulated into `out`. The confounder
    /// binder of an encryption is *not* free.
    pub fn free_names_into(&self, out: &mut HashSet<Name>) {
        match &self.term {
            Term::Name(n) => {
                out.insert(*n);
            }
            Term::Val(w) => out.extend(w.names()),
            t => t.parts().for_each(|e| e.free_names_into(out)),
        }
    }

    /// Every label occurring in the expression (this one included).
    pub fn labels_into(&self, out: &mut Vec<Label>) {
        out.push(self.label);
        self.term.parts().for_each(|e| e.labels_into(out));
    }

    /// Substitutes the value `w` for the variable `x`, preserving labels:
    /// `x^lx [w/x] = w^lx`.
    pub fn subst(&self, x: Var, w: &Arc<Value>) -> Expr {
        self.rewrite(&mut Subst { x, w })
    }

    /// Renames free occurrences of the name `from` to `to`.
    pub fn rename_name(&self, from: Name, to: Name) -> Expr {
        self.rewrite(&mut Rename { from, to })
    }

    /// Number of AST nodes in the expression.
    pub fn size(&self) -> usize {
        1 + self.term.parts().map(Expr::size).sum::<usize>()
    }
}

/// `[w/x]`: stops at a binder of `x`.
struct Subst<'w> {
    x: Var,
    w: &'w Arc<Value>,
}

impl Rewrite for Subst<'_> {
    fn leaf(&mut self, t: &Term) -> Option<Term> {
        matches!(t, Term::Var(y) if *y == self.x).then(|| Term::Val(Arc::clone(self.w)))
    }
    fn enters(&mut self, b: Binder<'_>) -> bool {
        !b.binds_var(self.x)
    }
}

/// `from ↦ to` on names, values included: stops at a `new` or `hide` of
/// `from`.
struct Rename {
    from: Name,
    to: Name,
}

impl Rewrite for Rename {
    fn leaf(&mut self, t: &Term) -> Option<Term> {
        match t {
            Term::Name(n) if *n == self.from => Some(Term::Name(self.to)),
            Term::Val(w) => Some(Term::Val(rename_in_value(w, self.from, self.to))),
            _ => None,
        }
    }
    fn enters(&mut self, b: Binder<'_>) -> bool {
        b.name() != Some(self.from)
    }
}

/// Every name `target` picks becomes the variable `x`: stops at a `new`
/// or `hide` of such a name. Values are left alone.
struct Abstract<F> {
    target: F,
    x: Var,
}

impl<F: Fn(Name) -> bool> Rewrite for Abstract<F> {
    fn leaf(&mut self, t: &Term) -> Option<Term> {
        matches!(t, Term::Name(n) if (self.target)(*n)).then_some(Term::Var(self.x))
    }
    fn enters(&mut self, b: Binder<'_>) -> bool {
        !b.name().is_some_and(&self.target)
    }
}

/// Opens the first `(νn)` with `⌊n⌋ = name` in pre-order: the binder goes
/// and its bound occurrences become `x`. `hide` is never opened, but the
/// search descends into its scope.
struct Open {
    name: Symbol,
    x: Var,
    opened: bool,
}

impl Rewrite for Open {
    fn node(&mut self, p: &Process) -> Option<Process> {
        match p {
            Process::Restrict { name, body } if !self.opened && name.canonical() == self.name => {
                self.opened = true;
                let bound = *name;
                Some(body.rewrite(&mut Abstract {
                    target: |n: Name| n == bound,
                    x: self.x,
                }))
            }
            _ => None,
        }
    }
}

fn rename_in_value(w: &Arc<Value>, from: Name, to: Name) -> Arc<Value> {
    if !w.contains_name(from) {
        return Arc::clone(w);
    }
    match &**w {
        Value::Name(n) => Value::name(if *n == from { to } else { *n }),
        Value::Zero => Value::zero(),
        Value::Suc(v) => Value::suc(rename_in_value(v, from, to)),
        Value::Pair(a, b) => {
            Value::pair(rename_in_value(a, from, to), rename_in_value(b, from, to))
        }
        Value::Enc {
            payload,
            confounder,
            key,
        } => Value::enc(
            payload
                .iter()
                .map(|v| rename_in_value(v, from, to))
                .collect(),
            if *confounder == from { to } else { *confounder },
            rename_in_value(key, from, to),
        ),
    }
}

impl Process {
    /// Free variables of the process.
    pub fn free_vars(&self) -> HashSet<Var> {
        let mut out = HashSet::new();
        self.free_vars_into(&mut out);
        out
    }

    fn free_vars_into(&self, out: &mut HashSet<Var>) {
        for part in self.parts() {
            match part {
                Part::Expr(e) => e.free_vars_into(out),
                Part::Child(c, Some(b)) if b.name().is_none() => {
                    let mut inner = HashSet::new();
                    c.free_vars_into(&mut inner);
                    for v in b.vars() {
                        inner.remove(&v);
                    }
                    out.extend(inner);
                }
                Part::Child(c, _) => c.free_vars_into(out),
            }
        }
    }

    /// Whether the process is closed (no free variables). The semantics
    /// only operates on closed processes.
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// Free names of the process.
    pub fn free_names(&self) -> HashSet<Name> {
        let mut out = HashSet::new();
        self.free_names_into(&mut out);
        out
    }

    fn free_names_into(&self, out: &mut HashSet<Name>) {
        for part in self.parts() {
            match part {
                Part::Expr(e) => e.free_names_into(out),
                Part::Child(c, b) => match b.and_then(Binder::name) {
                    Some(n) => {
                        let mut inner = HashSet::new();
                        c.free_names_into(&mut inner);
                        inner.remove(&n);
                        out.extend(inner);
                    }
                    None => c.free_names_into(out),
                },
            }
        }
    }

    /// Canonical bases of every `hide`-bound name, sorted and deduped.
    ///
    /// A hidden name is secret *by construction* — the security analyses
    /// fold this set into the attacker-opaque names without requiring a
    /// policy entry, and the `W106` lint reports hidden names that the
    /// estimate nevertheless lets escape.
    pub fn hidden_names(&self) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = self
            .preorder()
            .filter_map(|(p, _)| match p {
                Process::Hide { name, .. } => Some(name.canonical()),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Every variable binding occurrence, in traversal order: the
    /// variables a node binds over a child come right before that child.
    pub fn bound_vars(&self) -> Vec<Var> {
        self.preorder()
            .flat_map(|(_, b)| b.into_iter().flat_map(Binder::vars))
            .collect()
    }

    /// Every label occurring in the process, in traversal order.
    pub fn labels(&self) -> Vec<Label> {
        fn walk(p: &Process, out: &mut Vec<Label>) {
            for part in p.parts() {
                match part {
                    Part::Expr(e) => e.labels_into(out),
                    Part::Child(c, _) => walk(c, out),
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Substitutes the value `w` for the free variable `x` throughout.
    ///
    /// Values contain no variables, so no variable capture is possible;
    /// name capture is avoided because the executor freshens restriction
    /// binders before opening their scope.
    pub fn subst(&self, x: Var, w: &Arc<Value>) -> Process {
        self.rewrite(&mut Subst { x, w })
    }

    /// Renames free occurrences of the name `from` to `to`, stopping at
    /// `new` and `hide` binders for `from`.
    pub fn rename_name(&self, from: Name, to: Name) -> Process {
        self.rewrite(&mut Rename { from, to })
    }

    /// Abstracts a free name into a variable: returns `P(x)` with every
    /// source-written occurrence of `name` replaced by the fresh variable
    /// `x`. The inverse of substitution — used to parameterise a closed
    /// protocol over a payload for message-independence checks
    /// (`p.abstract_name(n).0.subst(x, &Value::name(n))` is α-equal to
    /// `p`).
    pub fn abstract_name(&self, name: Symbol) -> (Process, Var) {
        let x = Var::fresh(name.as_str());
        let source = |n: Name| n.canonical() == name && n.is_source();
        (self.rewrite(&mut Abstract { target: source, x }), x)
    }

    /// Opens the first restriction whose canonical base is `name`:
    /// removes the binder and replaces its bound occurrences with a fresh
    /// variable, yielding `P(x)`. Returns `None` if no such restriction
    /// exists. This is how a closed protocol is parameterised over a
    /// restricted payload for message-independence checks.
    pub fn abstract_restriction(&self, name: Symbol) -> Option<(Process, Var)> {
        let x = Var::fresh(name.as_str());
        let mut open = Open {
            name,
            x,
            opened: false,
        };
        let p = self.rewrite(&mut open);
        open.opened.then_some((p, x))
    }

    /// Number of AST nodes in the process (expressions included).
    pub fn size(&self) -> usize {
        self.preorder()
            .map(|(p, _)| {
                1 + p
                    .parts()
                    .filter_map(Part::expr)
                    .map(Expr::size)
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder as b;

    #[test]
    fn free_vars_of_input_are_bound() {
        let x = Var::fresh("x");
        let p = b::input(
            b::name("c"),
            x,
            b::output(b::name("c"), b::var(x), b::nil()),
        );
        assert!(p.is_closed());
    }

    #[test]
    fn unbound_var_is_free() {
        let x = Var::fresh("x");
        let p = b::output(b::name("c"), b::var(x), b::nil());
        assert!(!p.is_closed());
        assert!(p.free_vars().contains(&x));
    }

    #[test]
    fn restriction_binds_names() {
        let n = Name::global("secret");
        let p = b::restrict(n, b::output(b::name("c"), b::name_expr(n), b::nil()));
        let free = p.free_names();
        assert!(!free.contains(&n));
        assert!(free.contains(&Name::global("c")));
    }

    #[test]
    fn confounder_is_not_free() {
        let e = b::enc(vec![b::zero()], Name::global("r"), b::name("k"));
        let mut names = HashSet::new();
        e.free_names_into(&mut names);
        assert!(!names.contains(&Name::global("r")));
        assert!(names.contains(&Name::global("k")));
    }

    #[test]
    fn subst_preserves_label() {
        let x = Var::fresh("x");
        let e = b::var(x);
        let l = e.label;
        let w = Value::numeral(2);
        let e2 = e.subst(x, &w);
        assert_eq!(e2.label, l);
        assert_eq!(e2.term, Term::Val(w));
    }

    #[test]
    fn subst_respects_shadowing() {
        let x = Var::fresh("x");
        // c(x). c<x>.0 — inner x is re-bound, substitution must not cross.
        let p = b::input(
            b::name("c"),
            x,
            b::output(b::name("c"), b::var(x), b::nil()),
        );
        let q = p.subst(x, &Value::zero());
        assert_eq!(p, q, "binder for x shields the body");
    }

    #[test]
    fn subst_replaces_everywhere_when_free() {
        let x = Var::fresh("x");
        let p = b::par(
            b::output(b::name("c"), b::var(x), b::nil()),
            b::output(b::var(x), b::zero(), b::nil()),
        );
        let q = p.subst(x, &Value::name("a"));
        assert!(q.is_closed());
        assert!(q.free_names().contains(&Name::global("a")));
    }

    #[test]
    fn rename_name_stops_at_binder() {
        let n = Name::global("n");
        let m = Name::global("m");
        let p = b::par(
            b::output(b::name_expr(n), b::zero(), b::nil()),
            b::restrict(n, b::output(b::name_expr(n), b::zero(), b::nil())),
        );
        let q = p.rename_name(n, m);
        let free = q.free_names();
        assert!(free.contains(&m));
        assert!(!free.contains(&n));
    }

    #[test]
    fn labels_are_collected_in_order_and_unique() {
        let p = b::output(b::name("c"), b::pair(b::zero(), b::zero()), b::nil());
        let labels = p.labels();
        assert_eq!(labels.len(), 4); // chan, pair, two components
        let set: HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Process::Nil.size(), 1);
        let p = b::output(b::name("c"), b::zero(), b::nil());
        assert_eq!(p.size(), 4); // output + chan + msg + nil
    }

    #[test]
    fn let_shadowing_blocks_subst() {
        let x = Var::fresh("x");
        let y = Var::fresh("y");
        let p = Process::Let {
            fst: x,
            snd: y,
            expr: b::pair(b::zero(), b::zero()),
            then: Box::new(b::output(b::name("c"), b::var(x), b::nil())),
        };
        let q = p.subst(x, &Value::name("leak"));
        assert!(!q.free_names().contains(&Name::global("leak")));
    }

    #[test]
    fn abstract_name_inverts_substitution() {
        let p = crate::parse_process("(new k) c<{m, new r}:k>.0 | d<m>.0").unwrap();
        let (open, x) = p.abstract_name(Symbol::intern("m"));
        assert!(open.free_vars().contains(&x));
        let closed = open.subst(x, &Value::name("m"));
        assert!(crate::alpha_equivalent(&p, &closed));
    }

    #[test]
    fn abstract_name_respects_rebinding() {
        // The inner (new m) re-binds m: only the outer occurrence is
        // abstracted.
        let p = crate::parse_process("c<m>.0 | (new m) d<m>.0").unwrap();
        let (open, x) = p.abstract_name(Symbol::intern("m"));
        let fv = open.free_vars();
        assert!(fv.contains(&x));
        // The restricted side is untouched: substituting something else
        // leaves a process whose d-message is still the bound m.
        let closed = open.subst(x, &Value::zero());
        assert!(closed.is_closed());
        assert!(!closed
            .free_names()
            .iter()
            .any(|n| n.canonical().as_str() == "m"));
    }

    #[test]
    fn abstract_restriction_opens_the_binder() {
        let p = crate::parse_process("(new m) (new k) c<{m, new r}:k>.0").unwrap();
        let (open, x) = p.abstract_restriction(Symbol::intern("m")).unwrap();
        assert!(open.free_vars().contains(&x));
        // Closing it back with the same name restores an α-equal process.
        let closed = Process::Restrict {
            name: Name::global("m"),
            body: Box::new(open.subst(x, &Value::name("m"))),
        };
        assert!(crate::alpha_equivalent(&p, &closed));
    }

    #[test]
    fn abstract_restriction_of_missing_name_is_none() {
        let p = crate::parse_process("c<0>.0").unwrap();
        assert!(p.abstract_restriction(Symbol::intern("ghost")).is_none());
    }

    #[test]
    fn abstract_restriction_finds_nested_binders() {
        let p = crate::parse_process("c(y). (new m) d<m>.0").unwrap();
        let (open, x) = p.abstract_restriction(Symbol::intern("m")).unwrap();
        assert!(open.free_vars().contains(&x));
    }

    #[test]
    fn abstract_absent_name_is_identity_up_to_alpha() {
        let p = crate::parse_process("c<0>.0").unwrap();
        let (open, _) = p.abstract_name(Symbol::intern("ghost"));
        assert!(crate::alpha_equivalent(&p, &open));
    }

    #[test]
    fn casedec_shadowing_blocks_subst() {
        let x = Var::fresh("x");
        let p = Process::CaseDec {
            expr: b::enc(vec![b::zero()], Name::global("r"), b::name("k")),
            vars: vec![x],
            key: b::name("k"),
            then: Box::new(b::output(b::name("c"), b::var(x), b::nil())),
        };
        let q = p.subst(x, &Value::name("leak"));
        assert!(!q.free_names().contains(&Name::global("leak")));
    }
}
