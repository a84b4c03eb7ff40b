//! Concrete values.
//!
//! Values `w, v ::= n | pair(w,w′) | 0 | suc(w) | enc{w₁,…,wₖ,r}_{w₀}`
//! (Definition 1) are the results of the call-by-value evaluation relation
//! `⇓`. They are immutable trees shared through [`Arc`], so substitution and
//! knowledge-set bookkeeping never copy subtrees, and a process holding
//! them is `Send`: the analysis engine parses a request once and moves the
//! tree to a worker thread.
//!
//! [`Value::canonicalize`] implements the extension of `⌊·⌋` to values: it
//! replaces every indexed name with its canonical representative. The CFA
//! and the Dolev–Yao machinery reason over canonical values only.

use crate::{Name, Symbol};
use std::fmt;
use std::sync::Arc;

/// A fully evaluated νSPI value.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Value {
    /// A name `n`.
    Name(Name),
    /// The number `0`.
    Zero,
    /// A successor `suc(w)`.
    Suc(Arc<Value>),
    /// A pair `pair(w, w′)`.
    Pair(Arc<Value>, Arc<Value>),
    /// A ciphertext `enc{w₁,…,wₖ,r}_{w₀}`: payload `w₁…wₖ`, confounder `r`,
    /// key `w₀`. The confounder is the freshly generated initialisation
    /// vector that makes every encryption distinct.
    Enc {
        /// The encrypted payload `w₁,…,wₖ`.
        payload: Vec<Arc<Value>>,
        /// The confounder (initialisation vector) `r`.
        confounder: Name,
        /// The symmetric key `w₀`.
        key: Arc<Value>,
    },
}

impl Value {
    /// The value `n` for a name.
    pub fn name(n: impl Into<Name>) -> Arc<Value> {
        Arc::new(Value::Name(n.into()))
    }

    /// The value `0`.
    pub fn zero() -> Arc<Value> {
        Arc::new(Value::Zero)
    }

    /// The value `suc(w)`.
    pub fn suc(w: Arc<Value>) -> Arc<Value> {
        Arc::new(Value::Suc(w))
    }

    /// The numeral `sucⁿ(0)`.
    pub fn numeral(n: u32) -> Arc<Value> {
        let mut v = Value::zero();
        for _ in 0..n {
            v = Value::suc(v);
        }
        v
    }

    /// The value `pair(a, b)`.
    pub fn pair(a: Arc<Value>, b: Arc<Value>) -> Arc<Value> {
        Arc::new(Value::Pair(a, b))
    }

    /// The ciphertext `enc{payload…, confounder}_key`.
    pub fn enc(payload: Vec<Arc<Value>>, confounder: Name, key: Arc<Value>) -> Arc<Value> {
        Arc::new(Value::Enc {
            payload,
            confounder,
            key,
        })
    }

    /// `⌊w⌋`: replaces every name by its canonical representative,
    /// structurally. Returns a canonical value (`canonicalize` is
    /// idempotent).
    pub fn canonicalize(&self) -> Arc<Value> {
        match self {
            Value::Name(n) => Value::name(Name::global(n.canonical())),
            Value::Zero => Value::zero(),
            Value::Suc(w) => Value::suc(w.canonicalize()),
            Value::Pair(a, b) => Value::pair(a.canonicalize(), b.canonicalize()),
            Value::Enc {
                payload,
                confounder,
                key,
            } => Value::enc(
                payload.iter().map(|w| w.canonicalize()).collect(),
                Name::global(confounder.canonical()),
                key.canonicalize(),
            ),
        }
    }

    /// Whether `⌊w⌋ = w`, i.e. every name in the value is source-written.
    pub fn is_canonical(&self) -> bool {
        match self {
            Value::Name(n) => n.is_source(),
            Value::Zero => true,
            Value::Suc(w) => w.is_canonical(),
            Value::Pair(a, b) => a.is_canonical() && b.is_canonical(),
            Value::Enc {
                payload,
                confounder,
                key,
            } => {
                confounder.is_source()
                    && key.is_canonical()
                    && payload.iter().all(|w| w.is_canonical())
            }
        }
    }

    /// Collects every name occurring in the value (confounders included)
    /// into `out`.
    pub fn names_into(&self, out: &mut Vec<Name>) {
        match self {
            Value::Name(n) => out.push(*n),
            Value::Zero => {}
            Value::Suc(w) => w.names_into(out),
            Value::Pair(a, b) => {
                a.names_into(out);
                b.names_into(out);
            }
            Value::Enc {
                payload,
                confounder,
                key,
            } => {
                out.push(*confounder);
                key.names_into(out);
                for w in payload {
                    w.names_into(out);
                }
            }
        }
    }

    /// Every name occurring in the value.
    pub fn names(&self) -> Vec<Name> {
        let mut out = Vec::new();
        self.names_into(&mut out);
        out
    }

    /// Every canonical name occurring in the value.
    pub fn canonical_names(&self) -> Vec<Symbol> {
        self.names().into_iter().map(Name::canonical).collect()
    }

    /// Whether `name` occurs anywhere in the value.
    pub fn contains_name(&self, name: Name) -> bool {
        match self {
            Value::Name(n) => *n == name,
            Value::Zero => false,
            Value::Suc(w) => w.contains_name(name),
            Value::Pair(a, b) => a.contains_name(name) || b.contains_name(name),
            Value::Enc {
                payload,
                confounder,
                key,
            } => {
                *confounder == name
                    || key.contains_name(name)
                    || payload.iter().any(|w| w.contains_name(name))
            }
        }
    }

    /// The height of the value tree (a name or `0` has height 1).
    pub fn height(&self) -> usize {
        match self {
            Value::Name(_) | Value::Zero => 1,
            Value::Suc(w) => 1 + w.height(),
            Value::Pair(a, b) => 1 + a.height().max(b.height()),
            Value::Enc { payload, key, .. } => {
                1 + payload
                    .iter()
                    .map(|w| w.height())
                    .chain(std::iter::once(key.height()))
                    .max()
                    .unwrap_or(0)
            }
        }
    }

    /// Reads the value back as a natural number, if it is a numeral.
    pub fn as_numeral(&self) -> Option<u32> {
        match self {
            Value::Zero => Some(0),
            Value::Suc(w) => w.as_numeral().map(|n| n + 1),
            _ => None,
        }
    }

    /// The name, if the value is one. Channels must be names, so the
    /// commitment relation uses this to decide whether a channel position
    /// is runnable.
    pub fn as_name(&self) -> Option<Name> {
        match self {
            Value::Name(n) => Some(*n),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Name(n) => write!(f, "{n}"),
            Value::Zero => write!(f, "0"),
            Value::Suc(w) => write!(f, "suc({w})"),
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
            Value::Enc {
                payload,
                confounder,
                key,
            } => {
                write!(f, "{{")?;
                for (i, w) in payload.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{w}")?;
                }
                if !payload.is_empty() {
                    write!(f, ", ")?;
                }
                write!(f, "{confounder}}}:{key}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeral_round_trips() {
        for n in 0..6 {
            assert_eq!(Value::numeral(n).as_numeral(), Some(n));
        }
    }

    #[test]
    fn non_numeral_is_none() {
        assert_eq!(Value::name("a").as_numeral(), None);
        assert_eq!(Value::pair(Value::zero(), Value::zero()).as_numeral(), None);
    }

    #[test]
    fn canonicalize_strips_indices() {
        let fresh = Name::global("r").freshen();
        let v = Value::enc(vec![Value::zero()], fresh, Value::name("k"));
        let c = v.canonicalize();
        assert!(c.is_canonical());
        match &*c {
            Value::Enc { confounder, .. } => assert!(confounder.is_source()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let v = Value::pair(
            Value::name(Name::global("a").freshen()),
            Value::suc(Value::zero()),
        );
        let once = v.canonicalize();
        let twice = once.canonicalize();
        assert_eq!(once, twice);
    }

    #[test]
    fn equality_distinguishes_confounders() {
        let k = Value::name("k");
        let e1 = Value::enc(vec![Value::zero()], Name::global("r").freshen(), k.clone());
        let e2 = Value::enc(vec![Value::zero()], Name::global("r").freshen(), k);
        assert_ne!(e1, e2, "fresh confounders must distinguish ciphertexts");
        assert_eq!(
            e1.canonicalize(),
            e2.canonicalize(),
            "canonical values from the same site coincide"
        );
    }

    #[test]
    fn contains_name_finds_nested() {
        let m = Name::global("m");
        let v = Value::enc(
            vec![Value::pair(Value::name(m), Value::zero())],
            Name::global("r"),
            Value::name("k"),
        );
        assert!(v.contains_name(m));
        assert!(!v.contains_name(Name::global("absent")));
    }

    #[test]
    fn names_collects_confounders_and_keys() {
        let v = Value::enc(vec![Value::name("a")], Name::global("r"), Value::name("k"));
        let names = v.names();
        assert!(names.contains(&Name::global("a")));
        assert!(names.contains(&Name::global("r")));
        assert!(names.contains(&Name::global("k")));
    }

    #[test]
    fn height_of_nested() {
        assert_eq!(Value::zero().height(), 1);
        assert_eq!(Value::numeral(3).height(), 4);
        let v = Value::pair(Value::numeral(2), Value::zero());
        assert_eq!(v.height(), 4);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::numeral(2).to_string(), "suc(suc(0))");
        assert_eq!(
            Value::pair(Value::name("a"), Value::name("b")).to_string(),
            "(a, b)"
        );
        let e = Value::enc(vec![Value::zero()], Name::global("r"), Value::name("k"));
        assert_eq!(e.to_string(), "{0, r}:k");
    }

    #[test]
    fn empty_payload_enc_displays() {
        let e = Value::enc(vec![], Name::global("r"), Value::name("k"));
        assert_eq!(e.to_string(), "{r}:k");
    }
}
