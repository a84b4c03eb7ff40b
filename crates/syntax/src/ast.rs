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
        match &self.term {
            Term::Name(_) | Term::Zero | Term::Val(_) => {}
            Term::Var(x) => {
                out.insert(*x);
            }
            Term::Pair(a, b) => {
                a.free_vars_into(out);
                b.free_vars_into(out);
            }
            Term::Suc(e) => e.free_vars_into(out),
            Term::Enc { payload, key, .. } => {
                for e in payload {
                    e.free_vars_into(out);
                }
                key.free_vars_into(out);
            }
        }
    }

    /// Free names of the expression, accumulated into `out`. The confounder
    /// binder of an encryption is *not* free.
    pub fn free_names_into(&self, out: &mut HashSet<Name>) {
        match &self.term {
            Term::Name(n) => {
                out.insert(*n);
            }
            Term::Var(_) | Term::Zero => {}
            Term::Val(w) => {
                for n in w.names() {
                    out.insert(n);
                }
            }
            Term::Pair(a, b) => {
                a.free_names_into(out);
                b.free_names_into(out);
            }
            Term::Suc(e) => e.free_names_into(out),
            Term::Enc { payload, key, .. } => {
                for e in payload {
                    e.free_names_into(out);
                }
                key.free_names_into(out);
            }
        }
    }

    /// Every label occurring in the expression (this one included).
    pub fn labels_into(&self, out: &mut Vec<Label>) {
        out.push(self.label);
        match &self.term {
            Term::Name(_) | Term::Var(_) | Term::Zero | Term::Val(_) => {}
            Term::Pair(a, b) => {
                a.labels_into(out);
                b.labels_into(out);
            }
            Term::Suc(e) => e.labels_into(out),
            Term::Enc { payload, key, .. } => {
                for e in payload {
                    e.labels_into(out);
                }
                key.labels_into(out);
            }
        }
    }

    /// Substitutes the value `w` for the variable `x`, preserving labels:
    /// `x^lx [w/x] = w^lx`.
    pub fn subst(&self, x: Var, w: &Arc<Value>) -> Expr {
        let term = match &self.term {
            Term::Var(y) if *y == x => Term::Val(Arc::clone(w)),
            Term::Name(_) | Term::Var(_) | Term::Zero | Term::Val(_) => self.term.clone(),
            Term::Pair(a, b) => Term::Pair(Box::new(a.subst(x, w)), Box::new(b.subst(x, w))),
            Term::Suc(e) => Term::Suc(Box::new(e.subst(x, w))),
            Term::Enc {
                payload,
                confounder,
                key,
            } => Term::Enc {
                payload: payload.iter().map(|e| e.subst(x, w)).collect(),
                confounder: *confounder,
                key: Box::new(key.subst(x, w)),
            },
        };
        Expr::with_label(term, self.label)
    }

    /// Renames free occurrences of the name `from` to `to`.
    pub fn rename_name(&self, from: Name, to: Name) -> Expr {
        let term = match &self.term {
            Term::Name(n) if *n == from => Term::Name(to),
            Term::Name(_) | Term::Var(_) | Term::Zero => self.term.clone(),
            Term::Val(w) => Term::Val(rename_in_value(w, from, to)),
            Term::Pair(a, b) => Term::Pair(
                Box::new(a.rename_name(from, to)),
                Box::new(b.rename_name(from, to)),
            ),
            Term::Suc(e) => Term::Suc(Box::new(e.rename_name(from, to))),
            Term::Enc {
                payload,
                confounder,
                key,
            } => Term::Enc {
                payload: payload.iter().map(|e| e.rename_name(from, to)).collect(),
                confounder: *confounder,
                key: Box::new(key.rename_name(from, to)),
            },
        };
        Expr::with_label(term, self.label)
    }

    /// Number of AST nodes in the expression.
    pub fn size(&self) -> usize {
        match &self.term {
            Term::Name(_) | Term::Var(_) | Term::Zero | Term::Val(_) => 1,
            Term::Pair(a, b) => 1 + a.size() + b.size(),
            Term::Suc(e) => 1 + e.size(),
            Term::Enc { payload, key, .. } => {
                1 + key.size() + payload.iter().map(Expr::size).sum::<usize>()
            }
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
        match self {
            Process::Nil => {}
            Process::Output { chan, msg, then } => {
                chan.free_vars_into(out);
                msg.free_vars_into(out);
                then.free_vars_into(out);
            }
            Process::Input { chan, var, then } => {
                chan.free_vars_into(out);
                let mut inner = HashSet::new();
                then.free_vars_into(&mut inner);
                inner.remove(var);
                out.extend(inner);
            }
            Process::Par(p, q) => {
                p.free_vars_into(out);
                q.free_vars_into(out);
            }
            Process::Restrict { body, .. } | Process::Hide { body, .. } => body.free_vars_into(out),
            Process::Match { lhs, rhs, then } => {
                lhs.free_vars_into(out);
                rhs.free_vars_into(out);
                then.free_vars_into(out);
            }
            Process::Replicate(p) => p.free_vars_into(out),
            Process::Let {
                fst,
                snd,
                expr,
                then,
            } => {
                expr.free_vars_into(out);
                let mut inner = HashSet::new();
                then.free_vars_into(&mut inner);
                inner.remove(fst);
                inner.remove(snd);
                out.extend(inner);
            }
            Process::CaseNat {
                expr,
                zero,
                pred,
                succ,
            } => {
                expr.free_vars_into(out);
                zero.free_vars_into(out);
                let mut inner = HashSet::new();
                succ.free_vars_into(&mut inner);
                inner.remove(pred);
                out.extend(inner);
            }
            Process::CaseDec {
                expr,
                vars,
                key,
                then,
            } => {
                expr.free_vars_into(out);
                key.free_vars_into(out);
                let mut inner = HashSet::new();
                then.free_vars_into(&mut inner);
                for v in vars {
                    inner.remove(v);
                }
                out.extend(inner);
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
        match self {
            Process::Nil => {}
            Process::Output { chan, msg, then } => {
                chan.free_names_into(out);
                msg.free_names_into(out);
                then.free_names_into(out);
            }
            Process::Input { chan, then, .. } => {
                chan.free_names_into(out);
                then.free_names_into(out);
            }
            Process::Par(p, q) => {
                p.free_names_into(out);
                q.free_names_into(out);
            }
            Process::Restrict { name, body } | Process::Hide { name, body } => {
                let mut inner = HashSet::new();
                body.free_names_into(&mut inner);
                inner.remove(name);
                out.extend(inner);
            }
            Process::Match { lhs, rhs, then } => {
                lhs.free_names_into(out);
                rhs.free_names_into(out);
                then.free_names_into(out);
            }
            Process::Replicate(p) => p.free_names_into(out),
            Process::Let { expr, then, .. } => {
                expr.free_names_into(out);
                then.free_names_into(out);
            }
            Process::CaseNat {
                expr, zero, succ, ..
            } => {
                expr.free_names_into(out);
                zero.free_names_into(out);
                succ.free_names_into(out);
            }
            Process::CaseDec {
                expr, key, then, ..
            } => {
                expr.free_names_into(out);
                key.free_names_into(out);
                then.free_names_into(out);
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
        fn walk(p: &Process, out: &mut Vec<Symbol>) {
            match p {
                Process::Nil => {}
                Process::Output { then, .. }
                | Process::Input { then, .. }
                | Process::Match { then, .. }
                | Process::Let { then, .. }
                | Process::CaseDec { then, .. } => walk(then, out),
                Process::Par(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Process::Hide { name, body } => {
                    out.push(name.canonical());
                    walk(body, out);
                }
                Process::Restrict { body, .. } => walk(body, out),
                Process::Replicate(q) => walk(q, out),
                Process::CaseNat { zero, succ, .. } => {
                    walk(zero, out);
                    walk(succ, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Every label occurring in the process, in traversal order.
    pub fn labels(&self) -> Vec<Label> {
        let mut out = Vec::new();
        self.labels_into(&mut out);
        out
    }

    fn labels_into(&self, out: &mut Vec<Label>) {
        match self {
            Process::Nil => {}
            Process::Output { chan, msg, then } => {
                chan.labels_into(out);
                msg.labels_into(out);
                then.labels_into(out);
            }
            Process::Input { chan, then, .. } => {
                chan.labels_into(out);
                then.labels_into(out);
            }
            Process::Par(p, q) => {
                p.labels_into(out);
                q.labels_into(out);
            }
            Process::Restrict { body, .. } | Process::Hide { body, .. } => body.labels_into(out),
            Process::Match { lhs, rhs, then } => {
                lhs.labels_into(out);
                rhs.labels_into(out);
                then.labels_into(out);
            }
            Process::Replicate(p) => p.labels_into(out),
            Process::Let { expr, then, .. } => {
                expr.labels_into(out);
                then.labels_into(out);
            }
            Process::CaseNat {
                expr, zero, succ, ..
            } => {
                expr.labels_into(out);
                zero.labels_into(out);
                succ.labels_into(out);
            }
            Process::CaseDec {
                expr, key, then, ..
            } => {
                expr.labels_into(out);
                key.labels_into(out);
                then.labels_into(out);
            }
        }
    }

    /// Substitutes the value `w` for the free variable `x` throughout.
    ///
    /// Values contain no variables, so no variable capture is possible;
    /// name capture is avoided because the executor freshens restriction
    /// binders before opening their scope.
    pub fn subst(&self, x: Var, w: &Arc<Value>) -> Process {
        match self {
            Process::Nil => Process::Nil,
            Process::Output { chan, msg, then } => Process::Output {
                chan: chan.subst(x, w),
                msg: msg.subst(x, w),
                then: Box::new(then.subst(x, w)),
            },
            Process::Input { chan, var, then } => Process::Input {
                chan: chan.subst(x, w),
                var: *var,
                then: if *var == x {
                    then.clone()
                } else {
                    Box::new(then.subst(x, w))
                },
            },
            Process::Par(p, q) => Process::Par(Box::new(p.subst(x, w)), Box::new(q.subst(x, w))),
            Process::Restrict { name, body } => Process::Restrict {
                name: *name,
                body: Box::new(body.subst(x, w)),
            },
            Process::Hide { name, body } => Process::Hide {
                name: *name,
                body: Box::new(body.subst(x, w)),
            },
            Process::Match { lhs, rhs, then } => Process::Match {
                lhs: lhs.subst(x, w),
                rhs: rhs.subst(x, w),
                then: Box::new(then.subst(x, w)),
            },
            Process::Replicate(p) => Process::Replicate(Box::new(p.subst(x, w))),
            Process::Let {
                fst,
                snd,
                expr,
                then,
            } => Process::Let {
                fst: *fst,
                snd: *snd,
                expr: expr.subst(x, w),
                then: if *fst == x || *snd == x {
                    then.clone()
                } else {
                    Box::new(then.subst(x, w))
                },
            },
            Process::CaseNat {
                expr,
                zero,
                pred,
                succ,
            } => Process::CaseNat {
                expr: expr.subst(x, w),
                zero: Box::new(zero.subst(x, w)),
                pred: *pred,
                succ: if *pred == x {
                    succ.clone()
                } else {
                    Box::new(succ.subst(x, w))
                },
            },
            Process::CaseDec {
                expr,
                vars,
                key,
                then,
            } => Process::CaseDec {
                expr: expr.subst(x, w),
                vars: vars.clone(),
                key: key.subst(x, w),
                then: if vars.contains(&x) {
                    then.clone()
                } else {
                    Box::new(then.subst(x, w))
                },
            },
        }
    }

    /// Renames free occurrences of the name `from` to `to`, stopping at
    /// restriction binders for `from`.
    pub fn rename_name(&self, from: Name, to: Name) -> Process {
        match self {
            Process::Nil => Process::Nil,
            Process::Output { chan, msg, then } => Process::Output {
                chan: chan.rename_name(from, to),
                msg: msg.rename_name(from, to),
                then: Box::new(then.rename_name(from, to)),
            },
            Process::Input { chan, var, then } => Process::Input {
                chan: chan.rename_name(from, to),
                var: *var,
                then: Box::new(then.rename_name(from, to)),
            },
            Process::Par(p, q) => Process::Par(
                Box::new(p.rename_name(from, to)),
                Box::new(q.rename_name(from, to)),
            ),
            Process::Restrict { name, body } => {
                if *name == from {
                    // `from` is re-bound here; occurrences below refer to
                    // the inner binder.
                    self.clone()
                } else {
                    Process::Restrict {
                        name: *name,
                        body: Box::new(body.rename_name(from, to)),
                    }
                }
            }
            Process::Hide { name, body } => {
                if *name == from {
                    self.clone()
                } else {
                    Process::Hide {
                        name: *name,
                        body: Box::new(body.rename_name(from, to)),
                    }
                }
            }
            Process::Match { lhs, rhs, then } => Process::Match {
                lhs: lhs.rename_name(from, to),
                rhs: rhs.rename_name(from, to),
                then: Box::new(then.rename_name(from, to)),
            },
            Process::Replicate(p) => Process::Replicate(Box::new(p.rename_name(from, to))),
            Process::Let {
                fst,
                snd,
                expr,
                then,
            } => Process::Let {
                fst: *fst,
                snd: *snd,
                expr: expr.rename_name(from, to),
                then: Box::new(then.rename_name(from, to)),
            },
            Process::CaseNat {
                expr,
                zero,
                pred,
                succ,
            } => Process::CaseNat {
                expr: expr.rename_name(from, to),
                zero: Box::new(zero.rename_name(from, to)),
                pred: *pred,
                succ: Box::new(succ.rename_name(from, to)),
            },
            Process::CaseDec {
                expr,
                vars,
                key,
                then,
            } => Process::CaseDec {
                expr: expr.rename_name(from, to),
                vars: vars.clone(),
                key: key.rename_name(from, to),
                then: Box::new(then.rename_name(from, to)),
            },
        }
    }

    /// Abstracts a free name into a variable: returns `P(x)` with every
    /// source-written occurrence of `name` replaced by the fresh variable
    /// `x`. The inverse of substitution — used to parameterise a closed
    /// protocol over a payload for message-independence checks
    /// (`p.abstract_name(n).0.subst(x, &Value::name(n))` is α-equal to
    /// `p`).
    pub fn abstract_name(&self, name: Symbol) -> (Process, Var) {
        let x = Var::fresh(name.as_str());
        (abstract_in_process(self, name, x), x)
    }

    /// Opens the first restriction whose canonical base is `name`:
    /// removes the binder and replaces its bound occurrences with a fresh
    /// variable, yielding `P(x)`. Returns `None` if no such restriction
    /// exists. This is how a closed protocol is parameterised over a
    /// restricted payload for message-independence checks.
    pub fn abstract_restriction(&self, name: Symbol) -> Option<(Process, Var)> {
        let x = Var::fresh(name.as_str());
        open_restriction(self, name, x).map(|p| (p, x))
    }

    /// Number of AST nodes in the process (expressions included).
    pub fn size(&self) -> usize {
        match self {
            Process::Nil => 1,
            Process::Output { chan, msg, then } => 1 + chan.size() + msg.size() + then.size(),
            Process::Input { chan, then, .. } => 1 + chan.size() + then.size(),
            Process::Par(p, q) => 1 + p.size() + q.size(),
            Process::Restrict { body, .. } | Process::Hide { body, .. } => 1 + body.size(),
            Process::Match { lhs, rhs, then } => 1 + lhs.size() + rhs.size() + then.size(),
            Process::Replicate(p) => 1 + p.size(),
            Process::Let { expr, then, .. } => 1 + expr.size() + then.size(),
            Process::CaseNat {
                expr, zero, succ, ..
            } => 1 + expr.size() + zero.size() + succ.size(),
            Process::CaseDec {
                expr, key, then, ..
            } => 1 + expr.size() + key.size() + then.size(),
        }
    }
}

/// Finds the first `(νn)` with `⌊n⌋ = name` (leftmost-outermost) and opens
/// it: the body has the bound name's occurrences replaced by `x`.
fn open_restriction(p: &Process, name: Symbol, x: Var) -> Option<Process> {
    match p {
        Process::Restrict { name: n, body } if n.canonical() == name => {
            // Substitute the *exact* bound name (which may be indexed) by
            // rebinding through rename to a unique marker first: simplest
            // is to rename occurrences of `n` directly via abstraction on
            // the (now free) identity.
            Some(abstract_bound(body, *n, x))
        }
        Process::Restrict { name: n, body } => {
            open_restriction(body, name, x).map(|b| Process::Restrict {
                name: *n,
                body: Box::new(b),
            })
        }
        // `hide` is never opened — only `(νn)` restrictions are candidates —
        // but the search descends into its scope looking for inner binders.
        Process::Hide { name: n, body } => open_restriction(body, name, x).map(|b| Process::Hide {
            name: *n,
            body: Box::new(b),
        }),
        Process::Par(a, b) => {
            if let Some(a2) = open_restriction(a, name, x) {
                Some(Process::Par(Box::new(a2), b.clone()))
            } else {
                open_restriction(b, name, x).map(|b2| Process::Par(a.clone(), Box::new(b2)))
            }
        }
        Process::Output { chan, msg, then } => {
            open_restriction(then, name, x).map(|t| Process::Output {
                chan: chan.clone(),
                msg: msg.clone(),
                then: Box::new(t),
            })
        }
        Process::Input { chan, var, then } => {
            open_restriction(then, name, x).map(|t| Process::Input {
                chan: chan.clone(),
                var: *var,
                then: Box::new(t),
            })
        }
        Process::Match { lhs, rhs, then } => {
            open_restriction(then, name, x).map(|t| Process::Match {
                lhs: lhs.clone(),
                rhs: rhs.clone(),
                then: Box::new(t),
            })
        }
        Process::Replicate(q) => {
            open_restriction(q, name, x).map(|q2| Process::Replicate(Box::new(q2)))
        }
        Process::Let {
            fst,
            snd,
            expr,
            then,
        } => open_restriction(then, name, x).map(|t| Process::Let {
            fst: *fst,
            snd: *snd,
            expr: expr.clone(),
            then: Box::new(t),
        }),
        Process::CaseNat {
            expr,
            zero,
            pred,
            succ,
        } => {
            if let Some(z) = open_restriction(zero, name, x) {
                Some(Process::CaseNat {
                    expr: expr.clone(),
                    zero: Box::new(z),
                    pred: *pred,
                    succ: succ.clone(),
                })
            } else {
                open_restriction(succ, name, x).map(|sv| Process::CaseNat {
                    expr: expr.clone(),
                    zero: zero.clone(),
                    pred: *pred,
                    succ: Box::new(sv),
                })
            }
        }
        Process::CaseDec {
            expr,
            vars,
            key,
            then,
        } => open_restriction(then, name, x).map(|t| Process::CaseDec {
            expr: expr.clone(),
            vars: vars.clone(),
            key: key.clone(),
            then: Box::new(t),
        }),
        Process::Nil => None,
    }
}

/// Replaces occurrences of the exact bound name `n` with `x`, stopping at
/// re-binders of the same name identity.
fn abstract_bound(p: &Process, n: Name, x: Var) -> Process {
    fn in_expr(e: &Expr, n: Name, x: Var) -> Expr {
        let term = match &e.term {
            Term::Name(m) if *m == n => Term::Var(x),
            Term::Name(_) | Term::Var(_) | Term::Zero | Term::Val(_) => e.term.clone(),
            Term::Suc(i) => Term::Suc(Box::new(in_expr(i, n, x))),
            Term::Pair(a, b) => Term::Pair(Box::new(in_expr(a, n, x)), Box::new(in_expr(b, n, x))),
            Term::Enc {
                payload,
                confounder,
                key,
            } => Term::Enc {
                payload: payload.iter().map(|p| in_expr(p, n, x)).collect(),
                confounder: *confounder,
                key: Box::new(in_expr(key, n, x)),
            },
        };
        Expr::with_label(term, e.label)
    }
    match p {
        Process::Nil => Process::Nil,
        Process::Output { chan, msg, then } => Process::Output {
            chan: in_expr(chan, n, x),
            msg: in_expr(msg, n, x),
            then: Box::new(abstract_bound(then, n, x)),
        },
        Process::Input { chan, var, then } => Process::Input {
            chan: in_expr(chan, n, x),
            var: *var,
            then: Box::new(abstract_bound(then, n, x)),
        },
        Process::Par(a, b) => Process::Par(
            Box::new(abstract_bound(a, n, x)),
            Box::new(abstract_bound(b, n, x)),
        ),
        Process::Restrict { name, body } => {
            if *name == n {
                p.clone()
            } else {
                Process::Restrict {
                    name: *name,
                    body: Box::new(abstract_bound(body, n, x)),
                }
            }
        }
        Process::Hide { name, body } => {
            if *name == n {
                p.clone()
            } else {
                Process::Hide {
                    name: *name,
                    body: Box::new(abstract_bound(body, n, x)),
                }
            }
        }
        Process::Match { lhs, rhs, then } => Process::Match {
            lhs: in_expr(lhs, n, x),
            rhs: in_expr(rhs, n, x),
            then: Box::new(abstract_bound(then, n, x)),
        },
        Process::Replicate(q) => Process::Replicate(Box::new(abstract_bound(q, n, x))),
        Process::Let {
            fst,
            snd,
            expr,
            then,
        } => Process::Let {
            fst: *fst,
            snd: *snd,
            expr: in_expr(expr, n, x),
            then: Box::new(abstract_bound(then, n, x)),
        },
        Process::CaseNat {
            expr,
            zero,
            pred,
            succ,
        } => Process::CaseNat {
            expr: in_expr(expr, n, x),
            zero: Box::new(abstract_bound(zero, n, x)),
            pred: *pred,
            succ: Box::new(abstract_bound(succ, n, x)),
        },
        Process::CaseDec {
            expr,
            vars,
            key,
            then,
        } => Process::CaseDec {
            expr: in_expr(expr, n, x),
            vars: vars.clone(),
            key: in_expr(key, n, x),
            then: Box::new(abstract_bound(then, n, x)),
        },
    }
}

fn abstract_in_expr(e: &Expr, name: Symbol, x: Var) -> Expr {
    let term = match &e.term {
        Term::Name(n) if n.canonical() == name && n.is_source() => Term::Var(x),
        Term::Name(_) | Term::Var(_) | Term::Zero | Term::Val(_) => e.term.clone(),
        Term::Suc(i) => Term::Suc(Box::new(abstract_in_expr(i, name, x))),
        Term::Pair(a, b) => Term::Pair(
            Box::new(abstract_in_expr(a, name, x)),
            Box::new(abstract_in_expr(b, name, x)),
        ),
        Term::Enc {
            payload,
            confounder,
            key,
        } => Term::Enc {
            payload: payload
                .iter()
                .map(|p| abstract_in_expr(p, name, x))
                .collect(),
            confounder: *confounder,
            key: Box::new(abstract_in_expr(key, name, x)),
        },
    };
    Expr::with_label(term, e.label)
}

fn abstract_in_process(p: &Process, name: Symbol, x: Var) -> Process {
    match p {
        Process::Nil => Process::Nil,
        Process::Output { chan, msg, then } => Process::Output {
            chan: abstract_in_expr(chan, name, x),
            msg: abstract_in_expr(msg, name, x),
            then: Box::new(abstract_in_process(then, name, x)),
        },
        Process::Input { chan, var, then } => Process::Input {
            chan: abstract_in_expr(chan, name, x),
            var: *var,
            then: Box::new(abstract_in_process(then, name, x)),
        },
        Process::Par(a, b) => Process::Par(
            Box::new(abstract_in_process(a, name, x)),
            Box::new(abstract_in_process(b, name, x)),
        ),
        Process::Restrict { name: n, body } => {
            if n.canonical() == name && n.is_source() {
                // The name is re-bound below: occurrences there refer to
                // the binder, not the abstracted free name.
                Process::Restrict {
                    name: *n,
                    body: body.clone(),
                }
            } else {
                Process::Restrict {
                    name: *n,
                    body: Box::new(abstract_in_process(body, name, x)),
                }
            }
        }
        Process::Hide { name: n, body } => {
            if n.canonical() == name && n.is_source() {
                Process::Hide {
                    name: *n,
                    body: body.clone(),
                }
            } else {
                Process::Hide {
                    name: *n,
                    body: Box::new(abstract_in_process(body, name, x)),
                }
            }
        }
        Process::Match { lhs, rhs, then } => Process::Match {
            lhs: abstract_in_expr(lhs, name, x),
            rhs: abstract_in_expr(rhs, name, x),
            then: Box::new(abstract_in_process(then, name, x)),
        },
        Process::Replicate(q) => Process::Replicate(Box::new(abstract_in_process(q, name, x))),
        Process::Let {
            fst,
            snd,
            expr,
            then,
        } => Process::Let {
            fst: *fst,
            snd: *snd,
            expr: abstract_in_expr(expr, name, x),
            then: Box::new(abstract_in_process(then, name, x)),
        },
        Process::CaseNat {
            expr,
            zero,
            pred,
            succ,
        } => Process::CaseNat {
            expr: abstract_in_expr(expr, name, x),
            zero: Box::new(abstract_in_process(zero, name, x)),
            pred: *pred,
            succ: Box::new(abstract_in_process(succ, name, x)),
        },
        Process::CaseDec {
            expr,
            vars,
            key,
            then,
        } => Process::CaseDec {
            expr: abstract_in_expr(expr, name, x),
            vars: vars.clone(),
            key: abstract_in_expr(key, name, x),
            then: Box::new(abstract_in_process(then, name, x)),
        },
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
