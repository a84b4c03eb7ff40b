//! A small construction DSL for νSPI programs.
//!
//! Each expression builder mints a fresh [`Label`](crate::Label), so a
//! process assembled with these functions is correctly labelled for the
//! Control Flow Analysis without further bookkeeping.
//!
//! # Examples
//!
//! A server that forwards whatever it hears on `a` to `b`:
//!
//! ```
//! use nuspi_syntax::{builder as b, Var};
//!
//! let x = Var::fresh("x");
//! let relay = b::input(b::name("a"), x, b::output(b::name("b"), b::var(x), b::nil()));
//! assert!(relay.is_closed());
//! ```

use crate::{Expr, Name, Process, Term, Value, Var};
use std::sync::Arc;

/// The expression `n^l` for a (source-written) name `n`.
pub fn name(n: &str) -> Expr {
    Expr::new(Term::Name(Name::global(n)))
}

/// The expression `n^l` for an already constructed name.
pub fn name_expr(n: Name) -> Expr {
    Expr::new(Term::Name(n))
}

/// The expression `x^l` for a variable.
pub fn var(x: Var) -> Expr {
    Expr::new(Term::Var(x))
}

/// The expression `0^l`.
pub fn zero() -> Expr {
    Expr::new(Term::Zero)
}

/// The expression `suc(E)^l`.
pub fn suc(e: Expr) -> Expr {
    Expr::new(Term::Suc(Box::new(e)))
}

/// The numeral `sucⁿ(0)` as an expression.
pub fn numeral(n: u32) -> Expr {
    let mut e = zero();
    for _ in 0..n {
        e = suc(e);
    }
    e
}

/// The expression `(E, E′)^l`.
pub fn pair(a: Expr, b: Expr) -> Expr {
    Expr::new(Term::Pair(Box::new(a), Box::new(b)))
}

/// The encryption `{E₁,…,Eₖ,(νr)r}_{E₀}^l` with confounder binder `r`.
pub fn enc(payload: Vec<Expr>, confounder: Name, key: Expr) -> Expr {
    Expr::new(Term::Enc {
        payload,
        confounder,
        key: Box::new(key),
    })
}

/// An encryption whose confounder binder is minted automatically with a
/// base name unique to this call site occurrence.
pub fn enc_auto(payload: Vec<Expr>, key: Expr) -> Expr {
    let conf = Name::global("r").freshen();
    // Use a source-level representative unique per site: the freshened
    // index becomes part of the *base* so canonical identity is unique.
    let base = format!("r'{}", conf.index());
    enc(payload, Name::global(base.as_str()), key)
}

/// An already evaluated value as an expression.
pub fn val(w: Arc<Value>) -> Expr {
    Expr::new(Term::Val(w))
}

/// The inert process `0`.
pub fn nil() -> Process {
    Process::Nil
}

/// Output `E⟨V⟩.P`.
pub fn output(chan: Expr, msg: Expr, then: Process) -> Process {
    Process::Output {
        chan,
        msg,
        then: Box::new(then),
    }
}

/// Input `E(x).P`.
pub fn input(chan: Expr, var: Var, then: Process) -> Process {
    Process::Input {
        chan,
        var,
        then: Box::new(then),
    }
}

/// Parallel composition `P | Q`.
pub fn par(p: Process, q: Process) -> Process {
    Process::Par(Box::new(p), Box::new(q))
}

/// n-ary parallel composition, right-associated; empty input gives `0`.
pub fn par_all(ps: impl IntoIterator<Item = Process>) -> Process {
    let mut it = ps.into_iter().collect::<Vec<_>>().into_iter().rev();
    let last = match it.next() {
        Some(p) => p,
        None => return Process::Nil,
    };
    it.fold(last, |acc, p| par(p, acc))
}

/// Restriction `(νn)P`.
pub fn restrict(name: Name, body: Process) -> Process {
    Process::Restrict {
        name,
        body: Box::new(body),
    }
}

/// Nested restrictions `(νn₁)…(νnₖ)P`.
pub fn restrict_all(names: impl IntoIterator<Item = Name>, body: Process) -> Process {
    let names: Vec<Name> = names.into_iter().collect();
    names
        .into_iter()
        .rev()
        .fold(body, |acc, n| restrict(n, acc))
}

/// Hiding `(hide n)P`.
pub fn hide(name: Name, body: Process) -> Process {
    Process::Hide {
        name,
        body: Box::new(body),
    }
}

/// Nested hidings `(hide n₁)…(hide nₖ)P`.
pub fn hide_all(names: impl IntoIterator<Item = Name>, body: Process) -> Process {
    let names: Vec<Name> = names.into_iter().collect();
    names.into_iter().rev().fold(body, |acc, n| hide(n, acc))
}

/// Match `[E is V]P`.
pub fn guard(lhs: Expr, rhs: Expr, then: Process) -> Process {
    Process::Match {
        lhs,
        rhs,
        then: Box::new(then),
    }
}

/// Replication `!P`.
pub fn replicate(p: Process) -> Process {
    Process::Replicate(Box::new(p))
}

/// Pair splitting `let (x, y) = E in P`.
pub fn split(fst: Var, snd: Var, expr: Expr, then: Process) -> Process {
    Process::Let {
        fst,
        snd,
        expr,
        then: Box::new(then),
    }
}

/// Integer case `case E of 0 : P suc(x) : Q`.
pub fn case_nat(expr: Expr, zero: Process, pred: Var, succ: Process) -> Process {
    Process::CaseNat {
        expr,
        zero: Box::new(zero),
        pred,
        succ: Box::new(succ),
    }
}

/// Decryption `case E of {x₁,…,xₖ}_V in P`.
pub fn decrypt(expr: Expr, vars: Vec<Var>, key: Expr, then: Process) -> Process {
    Process::CaseDec {
        expr,
        vars,
        key,
        then: Box::new(then),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_all_of_empty_is_nil() {
        assert_eq!(par_all(Vec::new()), Process::Nil);
    }

    #[test]
    fn par_all_of_one_is_itself() {
        let p = output(name("c"), zero(), nil());
        assert_eq!(par_all(vec![p.clone()]), p);
    }

    #[test]
    fn par_all_of_three_nests_right() {
        let p = par_all(vec![nil(), nil(), nil()]);
        match p {
            Process::Par(_, q) => match *q {
                Process::Par(_, _) => {}
                other => panic!("expected right nesting, got {other:?}"),
            },
            other => panic!("expected Par, got {other:?}"),
        }
    }

    #[test]
    fn restrict_all_nests_in_order() {
        let a = Name::global("a");
        let b = Name::global("b");
        let p = restrict_all([a, b], nil());
        match p {
            Process::Restrict { name, body } => {
                assert_eq!(name, a);
                match *body {
                    Process::Restrict { name, .. } => assert_eq!(name, b),
                    other => panic!("expected inner restrict, got {other:?}"),
                }
            }
            other => panic!("expected Restrict, got {other:?}"),
        }
    }

    #[test]
    fn numeral_builder_counts() {
        let e = numeral(3);
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn enc_auto_sites_have_distinct_confounders() {
        let e1 = enc_auto(vec![zero()], name("k"));
        let e2 = enc_auto(vec![zero()], name("k"));
        let (c1, c2) = match (&e1.term, &e2.term) {
            (Term::Enc { confounder: a, .. }, Term::Enc { confounder: b, .. }) => (*a, *b),
            _ => unreachable!(),
        };
        assert_ne!(c1.canonical(), c2.canonical());
    }

    #[test]
    fn builders_mint_fresh_labels() {
        let a = zero();
        let b = zero();
        assert_ne!(a.label, b.label);
    }
}
