//! Differential wall for the one AST traversal.
//!
//! `nuspi-syntax` walks a process through one shallow accessor
//! (`Process::parts`, `Term::parts`) and one binder-aware rewrite
//! (`Process::rewrite`). This wall keeps the walks they replaced, each
//! listing every variant by hand as it did, as the reference, and
//! compares every rebuilt walk against it with `==`, labels included:
//!
//! * free variables and names, hidden names, labels, bound variables and
//!   sizes of every input, and the expression walks on every expression
//!   in it;
//! * substituting each variable, renaming each name, and abstracting each
//!   name's symbol (as a free name and as a restriction) that the input
//!   binds or mentions;
//! * the walks other crates rebuilt on it, through their public effect:
//!   the attacker's cipher arities, the syntactic lint passes, and the
//!   mutation miner.
//!
//! The inputs: the 21 zoo specs and the 4 open examples, the 12 lowered
//! ladder rungs, the 200×4 interleaved networks of seeds 1–4, 240
//! `genproc` seeds (every other one under a `hide`), and the states
//! `tau_successors` reaches from the zoo, which carry `Term::Val`s and
//! freshened binders that parsed inputs lack. Every input but the
//! networks also runs in a leaky variant, which puts each bound variable
//! where its binder does not reach (the binder node's own expressions,
//! `case`'s zero branch) and each name free beside its binder and
//! freshened, so a binder that shields too much or too little shows.
//! The networks skip the variant and the mutation miner, whose cost per
//! output prefix is a rebuild of the whole network.

use nuspi::diagnostics::{sort_diagnostics, Diagnostic, LintContext, PassRegistry, Severity, Span};
use nuspi::Policy;
use nuspi_bench::genproc::{random_process, GenConfig};
use nuspi_bench::workloads::interleaved;
use nuspi_cfa::attacker::add_attacker;
use nuspi_cfa::{Constraint, Constraints};
use nuspi_equiv::mutations;
use nuspi_protocols::{open_examples, suite};
use nuspi_semantics::{tau_successors, ExecConfig};
use nuspi_syntax::{alpha_equivalent, alpha_hash, builder as b, Expr, Name, Process, Symbol, Term};
use nuspi_syntax::{Value, Var};
use std::collections::{BTreeSet, HashSet};
use std::fmt::Debug;
use std::sync::Arc;

// ---- The reference: the hand-written walks, as they were --------------

mod reference {
    use nuspi_syntax::{Expr, Label, Name, Process, Symbol, Term, Value, Var};
    use std::collections::HashSet;
    use std::sync::Arc;

    pub fn expr_free_vars_into(e: &Expr, out: &mut HashSet<Var>) {
        match &e.term {
            Term::Name(_) | Term::Zero | Term::Val(_) => {}
            Term::Var(x) => {
                out.insert(*x);
            }
            Term::Pair(a, b) => {
                expr_free_vars_into(a, out);
                expr_free_vars_into(b, out);
            }
            Term::Suc(e) => expr_free_vars_into(e, out),
            Term::Enc { payload, key, .. } => {
                for e in payload {
                    expr_free_vars_into(e, out);
                }
                expr_free_vars_into(key, out);
            }
        }
    }

    pub fn expr_free_names_into(e: &Expr, out: &mut HashSet<Name>) {
        match &e.term {
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
                expr_free_names_into(a, out);
                expr_free_names_into(b, out);
            }
            Term::Suc(e) => expr_free_names_into(e, out),
            Term::Enc { payload, key, .. } => {
                for e in payload {
                    expr_free_names_into(e, out);
                }
                expr_free_names_into(key, out);
            }
        }
    }

    pub fn expr_labels_into(e: &Expr, out: &mut Vec<Label>) {
        out.push(e.label);
        match &e.term {
            Term::Name(_) | Term::Var(_) | Term::Zero | Term::Val(_) => {}
            Term::Pair(a, b) => {
                expr_labels_into(a, out);
                expr_labels_into(b, out);
            }
            Term::Suc(e) => expr_labels_into(e, out),
            Term::Enc { payload, key, .. } => {
                for e in payload {
                    expr_labels_into(e, out);
                }
                expr_labels_into(key, out);
            }
        }
    }

    pub fn expr_subst(e: &Expr, x: Var, w: &Arc<Value>) -> Expr {
        let term = match &e.term {
            Term::Var(y) if *y == x => Term::Val(Arc::clone(w)),
            Term::Name(_) | Term::Var(_) | Term::Zero | Term::Val(_) => e.term.clone(),
            Term::Pair(a, b) => {
                Term::Pair(Box::new(expr_subst(a, x, w)), Box::new(expr_subst(b, x, w)))
            }
            Term::Suc(e) => Term::Suc(Box::new(expr_subst(e, x, w))),
            Term::Enc {
                payload,
                confounder,
                key,
            } => Term::Enc {
                payload: payload.iter().map(|e| expr_subst(e, x, w)).collect(),
                confounder: *confounder,
                key: Box::new(expr_subst(key, x, w)),
            },
        };
        Expr::with_label(term, e.label)
    }

    pub fn expr_rename_name(e: &Expr, from: Name, to: Name) -> Expr {
        let term = match &e.term {
            Term::Name(n) if *n == from => Term::Name(to),
            Term::Name(_) | Term::Var(_) | Term::Zero => e.term.clone(),
            Term::Val(w) => Term::Val(rename_in_value(w, from, to)),
            Term::Pair(a, b) => Term::Pair(
                Box::new(expr_rename_name(a, from, to)),
                Box::new(expr_rename_name(b, from, to)),
            ),
            Term::Suc(e) => Term::Suc(Box::new(expr_rename_name(e, from, to))),
            Term::Enc {
                payload,
                confounder,
                key,
            } => Term::Enc {
                payload: payload
                    .iter()
                    .map(|e| expr_rename_name(e, from, to))
                    .collect(),
                confounder: *confounder,
                key: Box::new(expr_rename_name(key, from, to)),
            },
        };
        Expr::with_label(term, e.label)
    }

    pub fn expr_size(e: &Expr) -> usize {
        match &e.term {
            Term::Name(_) | Term::Var(_) | Term::Zero | Term::Val(_) => 1,
            Term::Pair(a, b) => 1 + expr_size(a) + expr_size(b),
            Term::Suc(e) => 1 + expr_size(e),
            Term::Enc { payload, key, .. } => {
                1 + expr_size(key) + payload.iter().map(expr_size).sum::<usize>()
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

    pub fn free_vars(p: &Process) -> HashSet<Var> {
        let mut out = HashSet::new();
        free_vars_into(p, &mut out);
        out
    }

    fn free_vars_into(p: &Process, out: &mut HashSet<Var>) {
        match p {
            Process::Nil => {}
            Process::Output { chan, msg, then } => {
                expr_free_vars_into(chan, out);
                expr_free_vars_into(msg, out);
                free_vars_into(then, out);
            }
            Process::Input { chan, var, then } => {
                expr_free_vars_into(chan, out);
                let mut inner = HashSet::new();
                free_vars_into(then, &mut inner);
                inner.remove(var);
                out.extend(inner);
            }
            Process::Par(p, q) => {
                free_vars_into(p, out);
                free_vars_into(q, out);
            }
            Process::Restrict { body, .. } | Process::Hide { body, .. } => {
                free_vars_into(body, out)
            }
            Process::Match { lhs, rhs, then } => {
                expr_free_vars_into(lhs, out);
                expr_free_vars_into(rhs, out);
                free_vars_into(then, out);
            }
            Process::Replicate(p) => free_vars_into(p, out),
            Process::Let {
                fst,
                snd,
                expr,
                then,
            } => {
                expr_free_vars_into(expr, out);
                let mut inner = HashSet::new();
                free_vars_into(then, &mut inner);
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
                expr_free_vars_into(expr, out);
                free_vars_into(zero, out);
                let mut inner = HashSet::new();
                free_vars_into(succ, &mut inner);
                inner.remove(pred);
                out.extend(inner);
            }
            Process::CaseDec {
                expr,
                vars,
                key,
                then,
            } => {
                expr_free_vars_into(expr, out);
                expr_free_vars_into(key, out);
                let mut inner = HashSet::new();
                free_vars_into(then, &mut inner);
                for v in vars {
                    inner.remove(v);
                }
                out.extend(inner);
            }
        }
    }

    pub fn free_names(p: &Process) -> HashSet<Name> {
        let mut out = HashSet::new();
        free_names_into(p, &mut out);
        out
    }

    fn free_names_into(p: &Process, out: &mut HashSet<Name>) {
        match p {
            Process::Nil => {}
            Process::Output { chan, msg, then } => {
                expr_free_names_into(chan, out);
                expr_free_names_into(msg, out);
                free_names_into(then, out);
            }
            Process::Input { chan, then, .. } => {
                expr_free_names_into(chan, out);
                free_names_into(then, out);
            }
            Process::Par(p, q) => {
                free_names_into(p, out);
                free_names_into(q, out);
            }
            Process::Restrict { name, body } | Process::Hide { name, body } => {
                let mut inner = HashSet::new();
                free_names_into(body, &mut inner);
                inner.remove(name);
                out.extend(inner);
            }
            Process::Match { lhs, rhs, then } => {
                expr_free_names_into(lhs, out);
                expr_free_names_into(rhs, out);
                free_names_into(then, out);
            }
            Process::Replicate(p) => free_names_into(p, out),
            Process::Let { expr, then, .. } => {
                expr_free_names_into(expr, out);
                free_names_into(then, out);
            }
            Process::CaseNat {
                expr, zero, succ, ..
            } => {
                expr_free_names_into(expr, out);
                free_names_into(zero, out);
                free_names_into(succ, out);
            }
            Process::CaseDec {
                expr, key, then, ..
            } => {
                expr_free_names_into(expr, out);
                expr_free_names_into(key, out);
                free_names_into(then, out);
            }
        }
    }

    pub fn hidden_names(p: &Process) -> Vec<Symbol> {
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
        walk(p, &mut out);
        out.sort();
        out.dedup();
        out
    }

    pub fn labels(p: &Process) -> Vec<Label> {
        let mut out = Vec::new();
        labels_into(p, &mut out);
        out
    }

    fn labels_into(p: &Process, out: &mut Vec<Label>) {
        match p {
            Process::Nil => {}
            Process::Output { chan, msg, then } => {
                expr_labels_into(chan, out);
                expr_labels_into(msg, out);
                labels_into(then, out);
            }
            Process::Input { chan, then, .. } => {
                expr_labels_into(chan, out);
                labels_into(then, out);
            }
            Process::Par(p, q) => {
                labels_into(p, out);
                labels_into(q, out);
            }
            Process::Restrict { body, .. } | Process::Hide { body, .. } => labels_into(body, out),
            Process::Match { lhs, rhs, then } => {
                expr_labels_into(lhs, out);
                expr_labels_into(rhs, out);
                labels_into(then, out);
            }
            Process::Replicate(p) => labels_into(p, out),
            Process::Let { expr, then, .. } => {
                expr_labels_into(expr, out);
                labels_into(then, out);
            }
            Process::CaseNat {
                expr, zero, succ, ..
            } => {
                expr_labels_into(expr, out);
                labels_into(zero, out);
                labels_into(succ, out);
            }
            Process::CaseDec {
                expr, key, then, ..
            } => {
                expr_labels_into(expr, out);
                expr_labels_into(key, out);
                labels_into(then, out);
            }
        }
    }

    pub fn subst(p: &Process, x: Var, w: &Arc<Value>) -> Process {
        match p {
            Process::Nil => Process::Nil,
            Process::Output { chan, msg, then } => Process::Output {
                chan: expr_subst(chan, x, w),
                msg: expr_subst(msg, x, w),
                then: Box::new(subst(then, x, w)),
            },
            Process::Input { chan, var, then } => Process::Input {
                chan: expr_subst(chan, x, w),
                var: *var,
                then: if *var == x {
                    then.clone()
                } else {
                    Box::new(subst(then, x, w))
                },
            },
            Process::Par(p, q) => Process::Par(Box::new(subst(p, x, w)), Box::new(subst(q, x, w))),
            Process::Restrict { name, body } => Process::Restrict {
                name: *name,
                body: Box::new(subst(body, x, w)),
            },
            Process::Hide { name, body } => Process::Hide {
                name: *name,
                body: Box::new(subst(body, x, w)),
            },
            Process::Match { lhs, rhs, then } => Process::Match {
                lhs: expr_subst(lhs, x, w),
                rhs: expr_subst(rhs, x, w),
                then: Box::new(subst(then, x, w)),
            },
            Process::Replicate(p) => Process::Replicate(Box::new(subst(p, x, w))),
            Process::Let {
                fst,
                snd,
                expr,
                then,
            } => Process::Let {
                fst: *fst,
                snd: *snd,
                expr: expr_subst(expr, x, w),
                then: if *fst == x || *snd == x {
                    then.clone()
                } else {
                    Box::new(subst(then, x, w))
                },
            },
            Process::CaseNat {
                expr,
                zero,
                pred,
                succ,
            } => Process::CaseNat {
                expr: expr_subst(expr, x, w),
                zero: Box::new(subst(zero, x, w)),
                pred: *pred,
                succ: if *pred == x {
                    succ.clone()
                } else {
                    Box::new(subst(succ, x, w))
                },
            },
            Process::CaseDec {
                expr,
                vars,
                key,
                then,
            } => Process::CaseDec {
                expr: expr_subst(expr, x, w),
                vars: vars.clone(),
                key: expr_subst(key, x, w),
                then: if vars.contains(&x) {
                    then.clone()
                } else {
                    Box::new(subst(then, x, w))
                },
            },
        }
    }

    pub fn rename_name(p: &Process, from: Name, to: Name) -> Process {
        match p {
            Process::Nil => Process::Nil,
            Process::Output { chan, msg, then } => Process::Output {
                chan: expr_rename_name(chan, from, to),
                msg: expr_rename_name(msg, from, to),
                then: Box::new(rename_name(then, from, to)),
            },
            Process::Input { chan, var, then } => Process::Input {
                chan: expr_rename_name(chan, from, to),
                var: *var,
                then: Box::new(rename_name(then, from, to)),
            },
            Process::Par(p, q) => Process::Par(
                Box::new(rename_name(p, from, to)),
                Box::new(rename_name(q, from, to)),
            ),
            Process::Restrict { name, body } => {
                if *name == from {
                    p.clone()
                } else {
                    Process::Restrict {
                        name: *name,
                        body: Box::new(rename_name(body, from, to)),
                    }
                }
            }
            Process::Hide { name, body } => {
                if *name == from {
                    p.clone()
                } else {
                    Process::Hide {
                        name: *name,
                        body: Box::new(rename_name(body, from, to)),
                    }
                }
            }
            Process::Match { lhs, rhs, then } => Process::Match {
                lhs: expr_rename_name(lhs, from, to),
                rhs: expr_rename_name(rhs, from, to),
                then: Box::new(rename_name(then, from, to)),
            },
            Process::Replicate(p) => Process::Replicate(Box::new(rename_name(p, from, to))),
            Process::Let {
                fst,
                snd,
                expr,
                then,
            } => Process::Let {
                fst: *fst,
                snd: *snd,
                expr: expr_rename_name(expr, from, to),
                then: Box::new(rename_name(then, from, to)),
            },
            Process::CaseNat {
                expr,
                zero,
                pred,
                succ,
            } => Process::CaseNat {
                expr: expr_rename_name(expr, from, to),
                zero: Box::new(rename_name(zero, from, to)),
                pred: *pred,
                succ: Box::new(rename_name(succ, from, to)),
            },
            Process::CaseDec {
                expr,
                vars,
                key,
                then,
            } => Process::CaseDec {
                expr: expr_rename_name(expr, from, to),
                vars: vars.clone(),
                key: expr_rename_name(key, from, to),
                then: Box::new(rename_name(then, from, to)),
            },
        }
    }

    pub fn size(p: &Process) -> usize {
        match p {
            Process::Nil => 1,
            Process::Output { chan, msg, then } => {
                1 + expr_size(chan) + expr_size(msg) + size(then)
            }
            Process::Input { chan, then, .. } => 1 + expr_size(chan) + size(then),
            Process::Par(p, q) => 1 + size(p) + size(q),
            Process::Restrict { body, .. } | Process::Hide { body, .. } => 1 + size(body),
            Process::Match { lhs, rhs, then } => 1 + expr_size(lhs) + expr_size(rhs) + size(then),
            Process::Replicate(p) => 1 + size(p),
            Process::Let { expr, then, .. } => 1 + expr_size(expr) + size(then),
            Process::CaseNat {
                expr, zero, succ, ..
            } => 1 + expr_size(expr) + size(zero) + size(succ),
            Process::CaseDec {
                expr, key, then, ..
            } => 1 + expr_size(expr) + expr_size(key) + size(then),
        }
    }

    /// `Process::abstract_restriction`'s search.
    pub fn open_restriction(p: &Process, name: Symbol, x: Var) -> Option<Process> {
        match p {
            Process::Restrict { name: n, body } if n.canonical() == name => {
                Some(abstract_bound(body, *n, x))
            }
            Process::Restrict { name: n, body } => {
                open_restriction(body, name, x).map(|b| Process::Restrict {
                    name: *n,
                    body: Box::new(b),
                })
            }
            Process::Hide { name: n, body } => {
                open_restriction(body, name, x).map(|b| Process::Hide {
                    name: *n,
                    body: Box::new(b),
                })
            }
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

    fn abstract_bound(p: &Process, n: Name, x: Var) -> Process {
        fn in_expr(e: &Expr, n: Name, x: Var) -> Expr {
            let term = match &e.term {
                Term::Name(m) if *m == n => Term::Var(x),
                Term::Name(_) | Term::Var(_) | Term::Zero | Term::Val(_) => e.term.clone(),
                Term::Suc(i) => Term::Suc(Box::new(in_expr(i, n, x))),
                Term::Pair(a, b) => {
                    Term::Pair(Box::new(in_expr(a, n, x)), Box::new(in_expr(b, n, x)))
                }
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

    /// `Process::abstract_name`'s rewrite.
    pub fn abstract_in_process(p: &Process, name: Symbol, x: Var) -> Process {
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

    /// `nuspi-cfa`'s `display::bound_vars_into`.
    pub fn bound_vars_into(p: &Process, out: &mut Vec<Var>) {
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

    /// `nuspi-cfa`'s `attacker::collect_arities`.
    pub fn collect_arities(p: &Process, out: &mut HashSet<usize>) {
        fn expr(e: &Expr, out: &mut HashSet<usize>) {
            match &e.term {
                Term::Name(_) | Term::Var(_) | Term::Zero | Term::Val(_) => {}
                Term::Suc(i) => expr(i, out),
                Term::Pair(a, b) => {
                    expr(a, out);
                    expr(b, out);
                }
                Term::Enc { payload, key, .. } => {
                    out.insert(payload.len());
                    for p in payload {
                        expr(p, out);
                    }
                    expr(key, out);
                }
            }
        }
        match p {
            Process::Nil => {}
            Process::Output { chan, msg, then } => {
                expr(chan, out);
                expr(msg, out);
                collect_arities(then, out);
            }
            Process::Input { chan, then, .. } => {
                expr(chan, out);
                collect_arities(then, out);
            }
            Process::Par(a, b) => {
                collect_arities(a, out);
                collect_arities(b, out);
            }
            Process::Restrict { body, .. } | Process::Hide { body, .. } => {
                collect_arities(body, out)
            }
            Process::Replicate(q) => collect_arities(q, out),
            Process::Match { lhs, rhs, then } => {
                expr(lhs, out);
                expr(rhs, out);
                collect_arities(then, out);
            }
            Process::Let { expr: e, then, .. } => {
                expr(e, out);
                collect_arities(then, out);
            }
            Process::CaseNat {
                expr: e,
                zero,
                succ,
                ..
            } => {
                expr(e, out);
                collect_arities(zero, out);
                collect_arities(succ, out);
            }
            Process::CaseDec {
                expr: e,
                vars,
                key,
                then,
            } => {
                out.insert(vars.len());
                expr(e, out);
                expr(key, out);
                collect_arities(then, out);
            }
        }
    }

    /// `nuspi-diagnostics`' pre-order `visit`.
    pub fn visit(p: &Process, f: &mut impl FnMut(&Process)) {
        f(p);
        match p {
            Process::Nil => {}
            Process::Output { then, .. }
            | Process::Input { then, .. }
            | Process::Match { then, .. }
            | Process::Let { then, .. }
            | Process::CaseDec { then, .. } => visit(then, f),
            Process::Par(a, b) => {
                visit(a, f);
                visit(b, f);
            }
            Process::Restrict { body, .. } | Process::Hide { body, .. } => visit(body, f),
            Process::Replicate(q) => visit(q, f),
            Process::CaseNat { zero, succ, .. } => {
                visit(zero, f);
                visit(succ, f);
            }
        }
    }

    /// `nuspi-diagnostics`' `collect_symbols`.
    pub fn collect_symbols(p: &Process, out: &mut HashSet<Symbol>) {
        fn value(w: &Value, out: &mut HashSet<Symbol>) {
            match w {
                Value::Name(n) => {
                    out.insert(n.canonical());
                }
                Value::Zero => {}
                Value::Suc(inner) => value(inner, out),
                Value::Pair(a, b) => {
                    value(a, out);
                    value(b, out);
                }
                Value::Enc {
                    payload,
                    confounder,
                    key,
                } => {
                    out.insert(confounder.canonical());
                    for w in payload {
                        value(w, out);
                    }
                    value(key, out);
                }
            }
        }
        fn expr(e: &Expr, out: &mut HashSet<Symbol>) {
            match &e.term {
                Term::Name(n) => {
                    out.insert(n.canonical());
                }
                Term::Var(_) | Term::Zero => {}
                Term::Suc(inner) => expr(inner, out),
                Term::Pair(a, b) => {
                    expr(a, out);
                    expr(b, out);
                }
                Term::Enc {
                    payload,
                    confounder,
                    key,
                } => {
                    out.insert(confounder.canonical());
                    for p in payload {
                        expr(p, out);
                    }
                    expr(key, out);
                }
                Term::Val(w) => value(w, out),
            }
        }
        visit(p, &mut |p| match p {
            Process::Output { chan, msg, .. } => {
                expr(chan, out);
                expr(msg, out);
            }
            Process::Input { chan, .. } => expr(chan, out),
            Process::Restrict { name, .. } | Process::Hide { name, .. } => {
                out.insert(name.canonical());
            }
            Process::Match { lhs, rhs, .. } => {
                expr(lhs, out);
                expr(rhs, out);
            }
            Process::Let { expr: e, .. } => expr(e, out),
            Process::CaseNat { expr: e, .. } => expr(e, out),
            Process::CaseDec { expr: e, key, .. } => {
                expr(e, out);
                expr(key, out);
            }
            Process::Nil | Process::Par(..) | Process::Replicate(_) => {}
        });
    }

    /// `nuspi-diagnostics`' `shadow_walk`, reporting `(symbol, what)`.
    pub fn shadow_walk(
        p: &Process,
        scope: &mut Vec<Symbol>,
        out: &mut Vec<(Symbol, &'static str)>,
    ) {
        let check = |sym: Symbol, what: &'static str, scope: &[Symbol], out: &mut Vec<_>| {
            if scope.contains(&sym) {
                out.push((sym, what));
            }
        };
        match p {
            Process::Nil => {}
            Process::Output { then, .. } | Process::Match { then, .. } => {
                shadow_walk(then, scope, out)
            }
            Process::Input { var, then, .. } => {
                check(var.symbol(), "input-bound variable", scope, out);
                shadow_walk(then, scope, out);
            }
            Process::Par(a, b) => {
                shadow_walk(a, scope, out);
                shadow_walk(b, scope, out);
            }
            Process::Restrict { name, body } | Process::Hide { name, body } => {
                scope.push(name.canonical());
                shadow_walk(body, scope, out);
                scope.pop();
            }
            Process::Replicate(q) => shadow_walk(q, scope, out),
            Process::Let { fst, snd, then, .. } => {
                check(fst.symbol(), "let-bound variable", scope, out);
                check(snd.symbol(), "let-bound variable", scope, out);
                shadow_walk(then, scope, out);
            }
            Process::CaseNat {
                zero, pred, succ, ..
            } => {
                check(pred.symbol(), "case-bound variable", scope, out);
                shadow_walk(zero, scope, out);
                shadow_walk(succ, scope, out);
            }
            Process::CaseDec { vars, then, .. } => {
                for v in vars {
                    check(v.symbol(), "decryption-bound variable", scope, out);
                }
                shadow_walk(then, scope, out);
            }
        }
    }

    /// `nuspi-equiv`'s `count_outputs`.
    pub fn count_outputs(p: &Process) -> usize {
        match p {
            Process::Nil => 0,
            Process::Output { then, .. } => 1 + count_outputs(then),
            Process::Input { then, .. } => count_outputs(then),
            Process::Par(a, b) => count_outputs(a) + count_outputs(b),
            Process::Restrict { body, .. } | Process::Hide { body, .. } => count_outputs(body),
            Process::Match { then, .. } | Process::Let { then, .. } => count_outputs(then),
            Process::Replicate(q) => count_outputs(q),
            Process::CaseNat { zero, succ, .. } => count_outputs(zero) + count_outputs(succ),
            Process::CaseDec { then, .. } => count_outputs(then),
        }
    }

    /// `nuspi-equiv`'s `rewrite_output`.
    pub fn rewrite_output(
        p: &Process,
        target: usize,
        idx: &mut usize,
        f: &mut impl FnMut(&Expr, &Expr, &Process) -> Option<Process>,
    ) -> Process {
        match p {
            Process::Nil => Process::Nil,
            Process::Output { chan, msg, then } => {
                let here = *idx;
                *idx += 1;
                if here == target {
                    if let Some(q) = f(chan, msg, then) {
                        return q;
                    }
                }
                Process::Output {
                    chan: chan.clone(),
                    msg: msg.clone(),
                    then: Box::new(rewrite_output(then, target, idx, f)),
                }
            }
            Process::Input { chan, var, then } => Process::Input {
                chan: chan.clone(),
                var: *var,
                then: Box::new(rewrite_output(then, target, idx, f)),
            },
            Process::Par(a, b) => Process::Par(
                Box::new(rewrite_output(a, target, idx, f)),
                Box::new(rewrite_output(b, target, idx, f)),
            ),
            Process::Restrict { name, body } => Process::Restrict {
                name: *name,
                body: Box::new(rewrite_output(body, target, idx, f)),
            },
            Process::Hide { name, body } => Process::Hide {
                name: *name,
                body: Box::new(rewrite_output(body, target, idx, f)),
            },
            Process::Match { lhs, rhs, then } => Process::Match {
                lhs: lhs.clone(),
                rhs: rhs.clone(),
                then: Box::new(rewrite_output(then, target, idx, f)),
            },
            Process::Replicate(q) => {
                Process::Replicate(Box::new(rewrite_output(q, target, idx, f)))
            }
            Process::Let {
                fst,
                snd,
                expr,
                then,
            } => Process::Let {
                fst: *fst,
                snd: *snd,
                expr: expr.clone(),
                then: Box::new(rewrite_output(then, target, idx, f)),
            },
            Process::CaseNat {
                expr,
                zero,
                pred,
                succ,
            } => Process::CaseNat {
                expr: expr.clone(),
                zero: Box::new(rewrite_output(zero, target, idx, f)),
                pred: *pred,
                succ: Box::new(rewrite_output(succ, target, idx, f)),
            },
            Process::CaseDec {
                expr,
                vars,
                key,
                then,
            } => Process::CaseDec {
                expr: expr.clone(),
                vars: vars.clone(),
                key: key.clone(),
                then: Box::new(rewrite_output(then, target, idx, f)),
            },
        }
    }
}

// ---- The miner's edits (unchanged; private to nuspi-equiv) -------------

type Edit = fn(&Expr, &Expr, &Process) -> Option<(String, Process)>;

fn edits() -> [(&'static str, Edit); 4] {
    [
        ("swap", swap_fields),
        ("drop", drop_field),
        ("replay", replay_send),
        ("expose", expose_payload),
    ]
}

fn swap_fields(chan: &Expr, msg: &Expr, then: &Process) -> Option<(String, Process)> {
    let swapped = match &msg.term {
        Term::Pair(x, y) => b::pair((**y).clone(), (**x).clone()),
        Term::Enc {
            payload,
            confounder,
            key,
        } if payload.len() >= 2 => {
            let mut fields = payload.clone();
            fields.swap(0, 1);
            b::enc(fields, *confounder, (**key).clone())
        }
        _ => return None,
    };
    let desc = format!("swap fields of {msg} on {chan}");
    Some((desc, b::output(chan.clone(), swapped, then.clone())))
}

fn drop_field(chan: &Expr, msg: &Expr, then: &Process) -> Option<(String, Process)> {
    let dropped = match &msg.term {
        Term::Pair(_, y) => (**y).clone(),
        Term::Enc {
            payload,
            confounder,
            key,
        } if payload.len() >= 2 => b::enc(payload[1..].to_vec(), *confounder, (**key).clone()),
        _ => return None,
    };
    let desc = format!("drop first field of {msg} on {chan}");
    Some((desc, b::output(chan.clone(), dropped, then.clone())))
}

fn replay_send(chan: &Expr, msg: &Expr, then: &Process) -> Option<(String, Process)> {
    let twice = b::output(chan.clone(), msg.clone(), then.clone());
    let desc = format!("replay {msg} on {chan}");
    Some((desc, b::output(chan.clone(), msg.clone(), twice)))
}

fn expose_payload(chan: &Expr, msg: &Expr, then: &Process) -> Option<(String, Process)> {
    let Term::Enc { payload, .. } = &msg.term else {
        return None;
    };
    let mut fields = payload.iter().rev().cloned();
    let mut clear = fields.next()?;
    for f in fields {
        clear = b::pair(f, clear);
    }
    let desc = format!("send payload of {msg} in the clear on {chan}");
    Some((desc, b::output(chan.clone(), clear, then.clone())))
}

/// `(label, kind, printed mutant)` per mutant, as the old miner built them.
fn reference_mutations(p: &Process) -> Vec<(String, &'static str, Process)> {
    let mut out = Vec::new();
    for site in 0..reference::count_outputs(p) {
        for (kind, edit) in edits() {
            let mut idx = 0;
            let mut applied = None;
            let q = reference::rewrite_output(p, site, &mut idx, &mut |chan, msg, then| {
                let (desc, replacement) = edit(chan, msg, then)?;
                applied = Some(desc);
                Some(replacement)
            });
            if let Some(desc) = applied {
                out.push((format!("{desc} at output #{site}"), kind, q));
            }
        }
    }
    out
}

/// The syntactic lint passes W101–W105 over the reference walks.
fn reference_syntactic(ctx: &LintContext) -> Vec<Diagnostic> {
    let warn = |code, pass, span, message| Diagnostic {
        code,
        pass,
        severity: Severity::Warning,
        span,
        message,
        witness: vec![],
    };
    let mut out = Vec::new();
    reference::visit(ctx.process(), &mut |p| {
        let (name, body, kind) = match p {
            Process::Restrict { name, body } => (name, body, "restricted"),
            Process::Hide { name, body } => (name, body, "hidden"),
            _ => return,
        };
        if !reference::free_names(body).contains(name) {
            let message = format!("{kind} name `{name}` is never used in its scope");
            out.push(warn(
                "W101",
                "unused-restriction",
                Span::Name(name.canonical()),
                message,
            ));
        }
    });
    let mut shadows = Vec::new();
    reference::shadow_walk(ctx.process(), &mut Vec::new(), &mut shadows);
    for (sym, what) in shadows {
        let message = format!("{what} `{sym}` shadows a restricted name of the same symbol");
        out.push(warn(
            "W102",
            "shadowed-restriction",
            Span::Name(sym),
            message,
        ));
    }
    reference::visit(ctx.process(), &mut |p| {
        if let Process::Replicate(body) = p {
            let message = match body.as_ref() {
                Process::Nil => "replication of the inert process `!0` is dead code",
                Process::Replicate(_) => {
                    "nested replication `!!P` is redundant (`!P` already \
                     provides unboundedly many copies)"
                }
                _ => return,
            };
            out.push(warn(
                "W103",
                "replicated-dead",
                Span::Process,
                message.to_owned(),
            ));
        }
    });
    reference::visit(ctx.process(), &mut |p| {
        let chan = match p {
            Process::Output { chan, .. } | Process::Input { chan, .. } => chan,
            _ => return,
        };
        if let Term::Name(n) = &chan.term {
            if ctx.policy().is_secret(n.canonical()) {
                let message = format!(
                    "secret name `{n}` is used as a channel subject; \
                     its κ component is unconstrained by confinement"
                );
                out.push(warn(
                    "W104",
                    "secret-channel-subject",
                    ctx.span_of(chan.label),
                    message,
                ));
            }
        }
    });
    let mut mentioned = HashSet::new();
    reference::collect_symbols(ctx.process(), &mut mentioned);
    let mut orphans: Vec<Symbol> = ctx
        .policy()
        .secrets()
        .filter(|s| !mentioned.contains(s))
        .collect();
    orphans.sort_by_key(|s| s.as_str());
    for s in orphans {
        let message =
            format!("policy declares `{s}` secret, but no such symbol occurs in the process");
        out.push(warn("W105", "policy-orphan", Span::Name(s), message));
    }
    sort_diagnostics(&mut out);
    out
}

// ---- The checks ---------------------------------------------------------

fn same<T: PartialEq + Debug>(case: &str, what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{case}: {what}\n  rebuilt:   {got:?}\n  reference: {want:?}"
        ))
    }
}

/// Every expression node of `p`, sub-expressions included, in the
/// reference label order.
fn expressions(p: &Process) -> Vec<&Expr> {
    fn sub<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        out.push(e);
        match &e.term {
            Term::Pair(x, y) => {
                sub(x, out);
                sub(y, out);
            }
            Term::Suc(x) => sub(x, out),
            Term::Enc { payload, key, .. } => {
                payload.iter().for_each(|x| sub(x, out));
                sub(key, out);
            }
            Term::Name(_) | Term::Var(_) | Term::Zero | Term::Val(_) => {}
        }
    }
    fn walk<'a>(p: &'a Process, out: &mut Vec<&'a Expr>) {
        match p {
            Process::Nil => {}
            Process::Output { chan, msg, then } => {
                sub(chan, out);
                sub(msg, out);
                walk(then, out);
            }
            Process::Input { chan, then, .. } => {
                sub(chan, out);
                walk(then, out);
            }
            Process::Par(x, y) => {
                walk(x, out);
                walk(y, out);
            }
            Process::Restrict { body, .. } | Process::Hide { body, .. } => walk(body, out),
            Process::Match { lhs, rhs, then } => {
                sub(lhs, out);
                sub(rhs, out);
                walk(then, out);
            }
            Process::Replicate(q) => walk(q, out),
            Process::Let { expr, then, .. } => {
                sub(expr, out);
                walk(then, out);
            }
            Process::CaseNat {
                expr, zero, succ, ..
            } => {
                sub(expr, out);
                walk(zero, out);
                walk(succ, out);
            }
            Process::CaseDec {
                expr, key, then, ..
            } => {
                sub(expr, out);
                sub(key, out);
                walk(then, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(p, &mut out);
    out
}

/// Every name occurrence of `p`: in terms, in values, as a confounder or
/// as a binder, sorted.
fn names_of(p: &Process) -> Vec<Name> {
    let mut out = BTreeSet::new();
    for e in expressions(p) {
        match &e.term {
            Term::Name(n) => {
                out.insert(*n);
            }
            Term::Enc { confounder, .. } => {
                out.insert(*confounder);
            }
            Term::Val(w) => out.extend(w.names()),
            _ => {}
        }
    }
    reference::visit(p, &mut |q| {
        if let Process::Restrict { name, .. } | Process::Hide { name, .. } = q {
            out.insert(*name);
        }
    });
    out.into_iter().collect()
}

/// Every variable `p` binds or mentions, sorted.
fn vars_of(p: &Process) -> Vec<Var> {
    let mut vars = Vec::new();
    reference::bound_vars_into(p, &mut vars);
    for e in expressions(p) {
        if let Term::Var(x) = e.term {
            vars.push(x);
        }
    }
    let set: BTreeSet<Var> = vars.into_iter().collect();
    set.into_iter().collect()
}

fn payload_value() -> Arc<Value> {
    Value::pair(
        Value::name("w"),
        Value::enc(
            vec![Value::numeral(2)],
            Name::global("rw").freshen(),
            Value::name("k"),
        ),
    )
}

fn check_expressions(case: &str, p: &Process, w: &Arc<Value>) -> Result<(), String> {
    let absent_var = Var::fresh("absent");
    let absent_name = Name::global("absent");
    for e in expressions(p) {
        let what = |walk: &str| format!("{walk} of expression {e}");
        let (mut got, mut want) = (HashSet::new(), HashSet::new());
        e.free_vars_into(&mut got);
        reference::expr_free_vars_into(e, &mut want);
        same(case, &what("free_vars_into"), &got, &want)?;
        let (mut got, mut want) = (HashSet::new(), HashSet::new());
        e.free_names_into(&mut got);
        reference::expr_free_names_into(e, &mut want);
        same(case, &what("free_names_into"), &got, &want)?;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        e.labels_into(&mut got);
        reference::expr_labels_into(e, &mut want);
        same(case, &what("labels_into"), got, want)?;
        same(case, &what("size"), e.size(), reference::expr_size(e))?;
        let mut vars: Vec<Var> = want_vars(e);
        vars.push(absent_var);
        for x in vars {
            let walk = format!("subst {x:?}");
            same(
                case,
                &what(&walk),
                e.subst(x, w),
                reference::expr_subst(e, x, w),
            )?;
        }
        let mut names: Vec<Name> = want_names(e);
        names.push(absent_name);
        for n in names {
            let to = n.freshen();
            let walk = format!("rename_name {n}");
            let (got, want) = (e.rename_name(n, to), reference::expr_rename_name(e, n, to));
            same(case, &what(&walk), got, want)?;
        }
    }
    Ok(())
}

fn want_vars(e: &Expr) -> Vec<Var> {
    let mut vars = HashSet::new();
    reference::expr_free_vars_into(e, &mut vars);
    let set: BTreeSet<Var> = vars.into_iter().collect();
    set.into_iter().collect()
}

fn want_names(e: &Expr) -> Vec<Name> {
    let mut names = HashSet::new();
    reference::expr_free_names_into(e, &mut names);
    if let Term::Enc { confounder, .. } = &e.term {
        names.insert(*confounder);
    }
    let set: BTreeSet<Name> = names.into_iter().collect();
    set.into_iter().collect()
}

/// Every walk on `p` against the reference.
fn check_process(case: &str, p: &Process, miner: bool) -> Result<(), String> {
    same(case, "free_vars", p.free_vars(), reference::free_vars(p))?;
    same(case, "free_names", p.free_names(), reference::free_names(p))?;
    same(
        case,
        "hidden_names",
        p.hidden_names(),
        reference::hidden_names(p),
    )?;
    same(case, "labels", p.labels(), reference::labels(p))?;
    same(case, "size", p.size(), reference::size(p))?;
    let mut bound = Vec::new();
    reference::bound_vars_into(p, &mut bound);
    same(case, "bound_vars", p.bound_vars(), bound)?;
    let w = payload_value();
    check_expressions(case, p, &w)?;

    for x in vars_of(p) {
        let what = format!("subst {x:?}");
        same(case, &what, p.subst(x, &w), reference::subst(p, x, &w))?;
    }
    let names = names_of(p);
    for &n in &names {
        let to = n.freshen();
        let what = format!("rename_name {n}");
        same(
            case,
            &what,
            p.rename_name(n, to),
            reference::rename_name(p, n, to),
        )?;
    }
    let symbols: BTreeSet<Symbol> = names.iter().map(|n| n.canonical()).collect();
    for s in symbols.iter().copied().chain([Symbol::intern("absent")]) {
        let (open, x) = p.abstract_name(s);
        let what = format!("abstract_name {s}");
        same(case, &what, open, reference::abstract_in_process(p, s, x))?;
        let what = format!("abstract_restriction {s}");
        match p.abstract_restriction(s) {
            Some((open, x)) => same(
                case,
                &what,
                Some(open),
                reference::open_restriction(p, s, x),
            )?,
            None => same(
                case,
                &what,
                None,
                reference::open_restriction(p, s, Var::fresh("x")),
            )?,
        }
    }

    // The attacker's cipher arities: one `Decrypt` per arity.
    let mut cs = Constraints::default();
    add_attacker(&mut cs, p, &HashSet::new());
    let got: BTreeSet<usize> = cs
        .list
        .iter()
        .filter_map(|c| match c {
            Constraint::Decrypt { vars, .. } => Some(vars.len()),
            _ => None,
        })
        .collect();
    let mut want = HashSet::new();
    reference::collect_arities(p, &mut want);
    same(case, "attacker arities", got, want.into_iter().collect())?;

    // The syntactic passes, under a policy declaring secret every symbol
    // the process mentions, every variable symbol (which no name walk may
    // count) and one absent symbol.
    let mut mentioned = HashSet::new();
    reference::collect_symbols(p, &mut mentioned);
    let mut secrets: BTreeSet<Symbol> = mentioned.into_iter().collect();
    secrets.extend(vars_of(p).iter().map(|x| x.symbol()));
    secrets.insert(Symbol::intern("absent"));
    let policy = Policy::with_secrets(secrets.iter().map(|s| s.as_str()));
    let ctx = LintContext::new(p, &policy);
    let got = PassRegistry::syntactic_only().run(&ctx);
    same(case, "syntactic lint", got, reference_syntactic(&ctx))?;

    if miner {
        let got = mutations(p);
        let want = reference_mutations(p);
        same(case, "mutant count", got.len(), want.len())?;
        for (m, (label, kind, q)) in got.iter().zip(&want) {
            same(
                case,
                "mutant",
                (m.label.as_str(), m.kind),
                (label.as_str(), *kind),
            )?;
            let what = format!("mutant {label}");
            same(case, &what, m.process.to_string(), q.to_string())?;
            if !alpha_equivalent(&m.process, q) {
                return Err(format!(
                    "{case}: {what} is not α-equivalent to the reference"
                ));
            }
        }
    }
    Ok(())
}

// ---- The inputs -----------------------------------------------------------

/// `p` with each bound variable also where its binder does not reach
/// (the binder node's own expressions, `case`'s zero branch), beside each
/// binder name free and, for each name symbol, a freshened name free and
/// a freshened binder over the source name.
fn leaky(p: &Process) -> Process {
    fn leak(p: &Process) -> Process {
        let go = |q: &Process| Box::new(leak(q));
        let with =
            |e: &Expr, xs: &[Var]| xs.iter().fold(e.clone(), |acc, x| b::pair(acc, b::var(*x)));
        match p {
            Process::Nil => Process::Nil,
            Process::Output { chan, msg, then } => Process::Output {
                chan: chan.clone(),
                msg: msg.clone(),
                then: go(then),
            },
            Process::Input { chan, var, then } => Process::Input {
                chan: with(chan, &[*var]),
                var: *var,
                then: go(then),
            },
            Process::Par(x, y) => Process::Par(go(x), go(y)),
            Process::Restrict { name, body } => Process::Restrict {
                name: *name,
                body: go(body),
            },
            Process::Hide { name, body } => Process::Hide {
                name: *name,
                body: go(body),
            },
            Process::Match { lhs, rhs, then } => Process::Match {
                lhs: lhs.clone(),
                rhs: rhs.clone(),
                then: go(then),
            },
            Process::Replicate(q) => Process::Replicate(go(q)),
            Process::Let {
                fst,
                snd,
                expr,
                then,
            } => Process::Let {
                fst: *fst,
                snd: *snd,
                expr: with(expr, &[*fst, *snd]),
                then: go(then),
            },
            Process::CaseNat {
                expr,
                zero,
                pred,
                succ,
            } => Process::CaseNat {
                expr: with(expr, &[*pred]),
                zero: Box::new(b::output(b::var(*pred), b::var(*pred), leak(zero))),
                pred: *pred,
                succ: go(succ),
            },
            Process::CaseDec {
                expr,
                vars,
                key,
                then,
            } => Process::CaseDec {
                expr: with(expr, vars),
                vars: vars.clone(),
                key: with(key, vars),
                then: go(then),
            },
        }
    }
    let out = || b::name("leak");
    let mut parts = vec![leak(p)];
    reference::visit(p, &mut |q| {
        if let Process::Restrict { name, .. } | Process::Hide { name, .. } = q {
            parts.push(b::output(out(), b::name_expr(*name), b::nil()));
        }
    });
    let symbols: BTreeSet<Symbol> = names_of(p).iter().map(|n| n.canonical()).collect();
    for s in symbols {
        let source = b::name_expr(Name::global(s));
        let (free, bound) = (Name::global(s).freshen(), Name::global(s).freshen());
        parts.push(b::output(out(), b::name_expr(free), b::nil()));
        let both = b::pair(source, b::name_expr(bound));
        parts.push(b::restrict(bound, b::output(out(), both, b::nil())));
    }
    b::par_all(parts)
}

fn check_input(case: &str, p: &Process) {
    check_process(case, p, true).unwrap_or_else(|e| panic!("{e}"));
    let leaky = leaky(p);
    check_process(&format!("{case} (leaky)"), &leaky, true).unwrap_or_else(|e| panic!("{e}"));
}

/// The states `tau_successors` reaches from `p`, breadth first, up to
/// `cap` of them (`p` itself excluded), α-duplicates dropped.
fn tau_states(p: &Process, cap: usize) -> Vec<Process> {
    let cfg = ExecConfig::default();
    let mut seen = HashSet::from([alpha_hash(p)]);
    let mut frontier = vec![p.clone()];
    let mut out = Vec::new();
    while let Some(q) = frontier.pop() {
        for r in tau_successors(&q, &cfg) {
            if out.len() == cap {
                return out;
            }
            if seen.insert(alpha_hash(&r)) {
                frontier.insert(0, r.clone());
                out.push(r);
            }
        }
    }
    out
}

#[test]
fn walks_match_the_reference_on_the_zoo_and_open_examples() {
    let zoo = suite();
    assert_eq!(zoo.len(), 21);
    for spec in &zoo {
        check_input(spec.name, &spec.process);
    }
    let open = open_examples();
    assert_eq!(open.len(), 4);
    for ex in &open {
        check_input(ex.name, &ex.process);
    }
}

#[test]
fn walks_match_the_reference_on_the_states_the_zoo_reaches() {
    let mut states = 0;
    let mut values = 0;
    let mut freshened = 0;
    for spec in suite() {
        for (i, q) in tau_states(&spec.process, 40).iter().enumerate() {
            states += 1;
            values += usize::from(
                expressions(q)
                    .iter()
                    .any(|e| matches!(e.term, Term::Val(_))),
            );
            freshened += usize::from(names_of(q).iter().any(|n| !n.is_source()));
            check_input(&format!("{} state {i}", spec.name), q);
        }
    }
    // The corpus reaches what parsed inputs lack.
    assert!(states >= 90, "{states} states");
    assert!(values >= 90, "{values} states carry values");
    assert!(freshened >= 90, "{freshened} states carry freshened names");
}

#[test]
fn walks_match_the_reference_on_the_ladder() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/lang");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("nu"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 12);
    for path in &paths {
        let src = std::fs::read_to_string(path).unwrap();
        let name = path.display().to_string();
        let compiled = nuspi_lang::compile(&name, &src).unwrap();
        check_input(&name, &compiled.process);
    }
}

#[test]
fn walks_match_the_reference_on_random_processes() {
    for seed in 0..240u64 {
        let p = random_process(seed, &GenConfig::default());
        let p = if seed % 2 == 0 {
            b::hide(Name::global("datum0"), p)
        } else {
            p
        };
        check_input(&format!("genproc seed {seed}"), &p);
    }
}

#[test]
fn walks_match_the_reference_on_interleaved_networks() {
    for seed in 1..=4 {
        let p = interleaved(200, 4, seed);
        let case = format!("interleaved 200x4 seed {seed}");
        check_process(&case, &p, false).unwrap_or_else(|e| panic!("{e}"));
    }
}
