//! The one traversal of the AST.
//!
//! Every walk whose per-node work is "look at leaves or binders, then
//! recurse" is written over two parts:
//!
//! * a shallow accessor, [`Process::parts`] (and [`Term::parts`] for
//!   expressions), which yields a node's expressions in field order and
//!   then its children in field order, each child paired with the
//!   [`Binder`] the node puts over it;
//! * one binder-aware rewrite, [`Process::rewrite`] (and
//!   [`Expr::rewrite`]), which rebuilds a process leaf by leaf under a
//!   [`Rewrite`]: a leaf term may be replaced, a binder may stop the
//!   rewrite (the child is kept as it is), and a whole node may be
//!   replaced before its parts are visited.
//!
//! The order is the contract the analyses number things by: labels and
//! bound-variable ordinals come from it (DESIGN §17). A binder covers only
//! the child it is paired with, so `case E of 0 : P suc(x) : Q` binds `x`
//! in `Q` and not in `P`.

use crate::{Expr, Name, Process, Term, Var};
use std::iter;

/// What a process node binds over one of its children.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Binder<'a> {
    /// `E(x).P` binds `x` in `P`.
    Input(Var),
    /// `let (x, y) = E in P` binds `x` and `y` in `P`.
    Let(Var, Var),
    /// `case E of 0 : P suc(x) : Q` binds `x` in `Q` only.
    Pred(Var),
    /// `case E of {x₁,…,xₖ}_V in P` binds `x₁,…,xₖ` in `P`.
    Dec(&'a [Var]),
    /// `(νn)P` binds `n` in `P`.
    New(Name),
    /// `(hide n)P` binds `n` in `P`.
    Hide(Name),
}

impl<'a> Binder<'a> {
    /// The variables bound, in binding order.
    #[inline]
    pub fn vars(self) -> impl Iterator<Item = Var> + 'a {
        let (pair, many): ([Option<Var>; 2], &'a [Var]) = match self {
            Binder::Input(x) | Binder::Pred(x) => ([Some(x), None], &[]),
            Binder::Let(x, y) => ([Some(x), Some(y)], &[]),
            Binder::Dec(xs) => ([None, None], xs),
            Binder::New(_) | Binder::Hide(_) => ([None, None], &[]),
        };
        pair.into_iter().flatten().chain(many.iter().copied())
    }

    /// Whether the variable `x` is bound.
    #[inline]
    pub fn binds_var(self, x: Var) -> bool {
        match self {
            Binder::Input(y) | Binder::Pred(y) => y == x,
            Binder::Let(y, z) => y == x || z == x,
            Binder::Dec(ys) => ys.contains(&x),
            Binder::New(_) | Binder::Hide(_) => false,
        }
    }

    /// The name bound by `new` or `hide`.
    #[inline]
    pub fn name(self) -> Option<Name> {
        match self {
            Binder::New(n) | Binder::Hide(n) => Some(n),
            _ => None,
        }
    }
}

/// One immediate part of a process node.
#[derive(Clone, Copy, Debug)]
pub enum Part<'a> {
    /// An expression of the node: a channel, message, match side,
    /// scrutinee or decryption key.
    Expr(&'a Expr),
    /// A child process, with what the node binds over it.
    Child(&'a Process, Option<Binder<'a>>),
}

impl<'a> Part<'a> {
    /// The expression, if this part is one.
    #[inline]
    pub fn expr(self) -> Option<&'a Expr> {
        match self {
            Part::Expr(e) => Some(e),
            Part::Child(..) => None,
        }
    }
}

impl Process {
    /// The node's expressions in field order, then its children in field
    /// order, each paired with the binder the node puts over it.
    #[inline]
    pub fn parts(&self) -> impl Iterator<Item = Part<'_>> {
        // Two words of state, so a recursive walk holding the iterator
        // across its recursive call keeps a small frame.
        let mut i = 0;
        iter::from_fn(move || {
            i += 1;
            self.part(i - 1)
        })
    }

    /// The `i`-th of [`parts`](Process::parts).
    ///
    /// This and the other small accessors here are `#[inline]` because
    /// walks in other crates call them once per part; a call that is not
    /// inlined costs more than the part's own work.
    #[inline]
    fn part(&self, i: usize) -> Option<Part<'_>> {
        use Part::{Child, Expr as E};
        use Process::*;
        Some(match (self, i) {
            (Output { chan: e, .. } | Input { chan: e, .. } | Match { lhs: e, .. }, 0) => E(e),
            (Let { expr: e, .. } | CaseNat { expr: e, .. } | CaseDec { expr: e, .. }, 0) => E(e),
            (Output { msg: e, .. } | Match { rhs: e, .. } | CaseDec { key: e, .. }, 1) => E(e),
            (Output { then, .. } | Match { then, .. }, 2) => Child(then, None),
            (Input { var, then, .. }, 1) => Child(then, Some(Binder::Input(*var))),
            (Par(p, _) | Replicate(p), 0) | (Par(_, p), 1) => Child(p, None),
            (Restrict { name, body }, 0) => Child(body, Some(Binder::New(*name))),
            (Hide { name, body }, 0) => Child(body, Some(Binder::Hide(*name))),
            (Let { fst, snd, then, .. }, 1) => Child(then, Some(Binder::Let(*fst, *snd))),
            (CaseNat { zero, .. }, 1) => Child(zero, None),
            (CaseNat { pred, succ, .. }, 2) => Child(succ, Some(Binder::Pred(*pred))),
            (CaseDec { vars, then, .. }, 2) => Child(then, Some(Binder::Dec(vars))),
            _ => return None,
        })
    }

    /// Every process node in pre-order (this one first), each with the
    /// binder its parent puts over it, walked with an explicit stack.
    pub fn preorder(&self) -> impl Iterator<Item = (&Process, Option<Binder<'_>>)> {
        let mut stack = vec![(self, None)];
        iter::from_fn(move || {
            let (p, b) = stack.pop()?;
            let mut children = p.parts().filter_map(|part| match part {
                Part::Child(c, b) => Some((c, b)),
                Part::Expr(_) => None,
            });
            // No node has more than two children: the second goes below
            // the first.
            let first = children.next();
            stack.extend(children);
            stack.extend(first);
            Some((p, b))
        })
    }

    /// Rebuilds the process under `r`, node by node in pre-order and each
    /// node's parts in the order of [`parts`](Process::parts).
    pub fn rewrite(&self, r: &mut impl Rewrite) -> Process {
        if let Some(p) = r.node(self) {
            return p;
        }
        match self {
            Process::Nil => Process::Nil,
            Process::Output { chan, msg, then } => Process::Output {
                chan: chan.rewrite(r),
                msg: msg.rewrite(r),
                then: Box::new(then.rewrite(r)),
            },
            Process::Input { chan, var, then } => Process::Input {
                chan: chan.rewrite(r),
                var: *var,
                then: under(then, Binder::Input(*var), r),
            },
            Process::Par(p, q) => Process::Par(Box::new(p.rewrite(r)), Box::new(q.rewrite(r))),
            Process::Restrict { name, body } => Process::Restrict {
                name: *name,
                body: under(body, Binder::New(*name), r),
            },
            Process::Hide { name, body } => Process::Hide {
                name: *name,
                body: under(body, Binder::Hide(*name), r),
            },
            Process::Match { lhs, rhs, then } => Process::Match {
                lhs: lhs.rewrite(r),
                rhs: rhs.rewrite(r),
                then: Box::new(then.rewrite(r)),
            },
            Process::Replicate(p) => Process::Replicate(Box::new(p.rewrite(r))),
            Process::Let {
                fst,
                snd,
                expr,
                then,
            } => Process::Let {
                fst: *fst,
                snd: *snd,
                expr: expr.rewrite(r),
                then: under(then, Binder::Let(*fst, *snd), r),
            },
            Process::CaseNat {
                expr,
                zero,
                pred,
                succ,
            } => Process::CaseNat {
                expr: expr.rewrite(r),
                zero: Box::new(zero.rewrite(r)),
                pred: *pred,
                succ: under(succ, Binder::Pred(*pred), r),
            },
            Process::CaseDec {
                expr,
                vars,
                key,
                then,
            } => Process::CaseDec {
                expr: expr.rewrite(r),
                vars: vars.clone(),
                key: key.rewrite(r),
                then: under(then, Binder::Dec(vars), r),
            },
        }
    }
}

/// A child rewritten under `r`, or kept as it is if `r` stops at `b`.
fn under(p: &Process, b: Binder<'_>, r: &mut impl Rewrite) -> Box<Process> {
    Box::new(if r.enters(b) { p.rewrite(r) } else { p.clone() })
}

impl Term {
    /// The sub-expressions in field order: both halves of a pair, the
    /// argument of `suc`, an encryption's payload and then its key. A
    /// leaf (name, variable, `0`, value) has none.
    #[inline]
    pub fn parts(&self) -> impl Iterator<Item = &Expr> {
        let (many, pair): (&[Expr], [Option<&Expr>; 2]) = match self {
            Term::Pair(a, b) => (&[], [Some(&**a), Some(&**b)]),
            Term::Suc(e) => (&[], [Some(&**e), None]),
            Term::Enc { payload, key, .. } => (payload, [Some(&**key), None]),
            Term::Name(_) | Term::Var(_) | Term::Zero | Term::Val(_) => (&[], [None, None]),
        };
        many.iter().chain(pair.into_iter().flatten())
    }
}

impl Expr {
    /// Rebuilds the expression under `r`, keeping every label; only its
    /// leaves are offered to [`Rewrite::leaf`].
    pub fn rewrite(&self, r: &mut impl Rewrite) -> Expr {
        let term = match &self.term {
            Term::Pair(a, b) => Term::Pair(Box::new(a.rewrite(r)), Box::new(b.rewrite(r))),
            Term::Suc(e) => Term::Suc(Box::new(e.rewrite(r))),
            Term::Enc {
                payload,
                confounder,
                key,
            } => Term::Enc {
                payload: payload.iter().map(|e| e.rewrite(r)).collect(),
                confounder: *confounder,
                key: Box::new(key.rewrite(r)),
            },
            leaf => r.leaf(leaf).unwrap_or_else(|| leaf.clone()),
        };
        Expr::with_label(term, self.label)
    }
}

/// A leaf-by-leaf, binder-aware rewrite: what [`Process::rewrite`] asks
/// at each node, binder and leaf.
pub trait Rewrite {
    /// The replacement for a leaf term (a name, variable, `0` or value),
    /// or `None` to keep it. An encryption's confounder binder is not a
    /// leaf.
    fn leaf(&mut self, t: &Term) -> Option<Term> {
        let _ = t;
        None
    }

    /// Whether the rewrite goes on below `b`; a child it stops at is kept
    /// as it is.
    fn enters(&mut self, b: Binder<'_>) -> bool {
        let _ = b;
        true
    }

    /// A replacement for the whole node `p`, asked before its parts.
    fn node(&mut self, p: &Process) -> Option<Process> {
        let _ = p;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_process;

    /// What a rewrite is asked, in order: nodes by address, binders.
    #[derive(Default)]
    struct Record(Vec<(Option<usize>, Option<String>)>);

    impl Rewrite for Record {
        fn enters(&mut self, b: Binder<'_>) -> bool {
            self.0.push((None, Some(format!("{b:?}"))));
            true
        }
        fn node(&mut self, p: &Process) -> Option<Process> {
            self.0.push((Some(p as *const Process as usize), None));
            None
        }
    }

    #[test]
    fn the_rewrite_asks_the_binders_the_accessor_lists_in_its_order() {
        let p = parse_process(
            "(new k) (hide h) (c(x). let (y, z) = x in case y of 0: [y is z] !d<k>.0, \
             suc(w): case z of {u, v}:h in e<(u, w)>.0 | 0)",
        )
        .unwrap();
        let mut want = Vec::new();
        for (q, b) in p.preorder() {
            if let Some(b) = b {
                want.push((None, Some(format!("{b:?}"))));
            }
            want.push((Some(q as *const Process as usize), None));
        }
        let mut got = Record::default();
        assert_eq!(p.rewrite(&mut got), p);
        assert_eq!(got.0, want);
        assert_eq!(p.preorder().count(), 14, "every variant, Nil thrice");
    }
}
