//! The memo key of a game position, as one structural walk.
//!
//! A position is `(left, right, hedge)`. Its key must be α-invariant
//! across runs and worker counts, so it cannot hash the fresh-name
//! indices the global counter hands out: two plays that reach the same
//! position by different paths carry different indices. The key is
//! therefore the hash of what the position *prints as* — the processes
//! and the hedge pairs in print order — with every fresh index
//! renumbered in order of first occurrence.
//!
//! The walk hashes those tokens directly instead of printing them:
//!
//! * a name is its interned symbol id plus its renumbered index (`0`
//!   for a source name); interning is injective, so ids are as good as
//!   text, and no name is looked up in the interner;
//! * a variable prints as its bare symbol, so it hashes like the source
//!   name with that symbol; binder ids and labels never print and are
//!   never hashed;
//! * an evaluated value inside a term (`Term::Val`) hashes like its term
//!   spelling — names, `0`, `suc` and pairs alike — except that a value
//!   ciphertext prints `{…, r#5}:k` and a term ciphertext `{…, new r}:k`,
//!   so the two get tokens of their own;
//! * every constructor writes its own tag and every list its length, so
//!   equal walks mean equal renderings.
//!
//! DESIGN.md §14 gives the argument that the walk identifies exactly the
//! positions the rendering identifies.

use crate::hedge::Hedge;
use nuspi_syntax::{Name, Process, StableHasher128, Term, Value, Var};
use std::hash::Hasher as _;
use std::rc::Rc;

/// The tokens of the walk, one per constructor and separator.
#[derive(Clone, Copy)]
enum Tok {
    Nil,
    Output,
    Input,
    Par,
    Restrict,
    Hide,
    Match,
    Replicate,
    Let,
    CaseNat,
    CaseDec,
    Name,
    Zero,
    Suc,
    Pair,
    TermEnc,
    ValueEnc,
    /// Between the two processes, and between them and the hedge.
    Side,
    /// Between the two values of a hedge pair.
    PairMid,
    /// After each hedge pair.
    PairEnd,
    /// Between the irreducible pairs and the replay log.
    Log,
}

/// Hashes the position `(left, right, hedge)`. `fresh` is scratch space
/// for the index renumbering, reused across calls.
pub(crate) fn state_key(
    left: &Process,
    right: &Process,
    hedge: &Hedge,
    fresh: &mut Vec<u32>,
) -> u128 {
    fresh.clear();
    let mut w = Walk {
        h: StableHasher128::new(),
        fresh,
    };
    w.process(left);
    w.tok(Tok::Side);
    w.process(right);
    w.tok(Tok::Side);
    w.pairs(hedge.pairs());
    w.tok(Tok::Log);
    w.pairs(hedge.replays());
    w.h.finish128().0
}

struct Walk<'a> {
    h: StableHasher128,
    /// Raw fresh indices in order of first occurrence: index `fresh[i]`
    /// is renumbered `i + 1`.
    fresh: &'a mut Vec<u32>,
}

impl Walk<'_> {
    fn tok(&mut self, t: Tok) {
        self.h.write_u8(t as u8);
    }

    fn name(&mut self, n: Name) {
        self.tok(Tok::Name);
        self.h.write_u32(n.canonical().index());
        let index = match n.index() {
            0 => 0,
            raw => match self.fresh.iter().position(|&i| i == raw) {
                Some(i) => i + 1,
                None => {
                    self.fresh.push(raw);
                    self.fresh.len()
                }
            },
        };
        self.h.write_u32(index as u32);
    }

    fn binder(&mut self, x: Var) {
        self.h.write_u32(x.symbol().index());
    }

    fn pairs(&mut self, pairs: &[(Rc<Value>, Rc<Value>)]) {
        for (l, r) in pairs {
            self.value(l);
            self.tok(Tok::PairMid);
            self.value(r);
            self.tok(Tok::PairEnd);
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Name(n) => self.name(*n),
            Value::Zero => self.tok(Tok::Zero),
            Value::Suc(w) => {
                self.tok(Tok::Suc);
                self.value(w);
            }
            Value::Pair(a, b) => {
                self.tok(Tok::Pair);
                self.value(a);
                self.value(b);
            }
            Value::Enc {
                payload,
                confounder,
                key,
            } => {
                self.tok(Tok::ValueEnc);
                self.h.write_usize(payload.len());
                for w in payload {
                    self.value(w);
                }
                self.name(*confounder);
                self.value(key);
            }
        }
    }

    fn term(&mut self, t: &Term) {
        match t {
            Term::Name(n) => self.name(*n),
            Term::Var(x) => self.name(Name::global(x.symbol())),
            Term::Zero => self.tok(Tok::Zero),
            Term::Suc(e) => {
                self.tok(Tok::Suc);
                self.term(&e.term);
            }
            Term::Pair(a, b) => {
                self.tok(Tok::Pair);
                self.term(&a.term);
                self.term(&b.term);
            }
            Term::Enc {
                payload,
                confounder,
                key,
            } => {
                self.tok(Tok::TermEnc);
                self.h.write_usize(payload.len());
                for e in payload {
                    self.term(&e.term);
                }
                self.name(*confounder);
                self.term(&key.term);
            }
            Term::Val(v) => self.value(v),
        }
    }

    fn process(&mut self, p: &Process) {
        match p {
            Process::Nil => self.tok(Tok::Nil),
            Process::Output { chan, msg, then } => {
                self.tok(Tok::Output);
                self.term(&chan.term);
                self.term(&msg.term);
                self.process(then);
            }
            Process::Input { chan, var, then } => {
                self.tok(Tok::Input);
                self.term(&chan.term);
                self.binder(*var);
                self.process(then);
            }
            Process::Par(p, q) => {
                self.tok(Tok::Par);
                self.process(p);
                self.process(q);
            }
            Process::Restrict { name, body } => {
                self.tok(Tok::Restrict);
                self.name(*name);
                self.process(body);
            }
            Process::Hide { name, body } => {
                self.tok(Tok::Hide);
                self.name(*name);
                self.process(body);
            }
            Process::Match { lhs, rhs, then } => {
                self.tok(Tok::Match);
                self.term(&lhs.term);
                self.term(&rhs.term);
                self.process(then);
            }
            Process::Replicate(p) => {
                self.tok(Tok::Replicate);
                self.process(p);
            }
            Process::Let {
                fst,
                snd,
                expr,
                then,
            } => {
                self.tok(Tok::Let);
                self.binder(*fst);
                self.binder(*snd);
                self.term(&expr.term);
                self.process(then);
            }
            Process::CaseNat {
                expr,
                zero,
                pred,
                succ,
            } => {
                self.tok(Tok::CaseNat);
                self.term(&expr.term);
                self.process(zero);
                self.binder(*pred);
                self.process(succ);
            }
            Process::CaseDec {
                expr,
                vars,
                key,
                then,
            } => {
                self.tok(Tok::CaseDec);
                self.term(&expr.term);
                self.h.write_usize(vars.len());
                for v in vars {
                    self.binder(*v);
                }
                self.term(&key.term);
                self.process(then);
            }
        }
    }
}
