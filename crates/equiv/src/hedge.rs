//! Hedges: the knowledge-pair state of the hedged bisimulation game.
//!
//! A *hedge* (Borgström–Nestmann, as used by Mansutti–Miculan's decision
//! procedure) is a finite set of value pairs `(v, w)`: "the attacker
//! obtained `v` from the left process exactly where it obtained `w` from
//! the right one". The hedge is kept *irreducible* under the analysis
//! rewriting — pairs are split, successors peeled, and ciphertexts opened
//! as soon as their keys become correspondingly derivable — so the stored
//! pairs are exactly the leaves an attacker recipe can mention.
//!
//! [`Hedge::learn`] extends a hedge with one observed pair and re-closes
//! it, reporting an [`Inconsistency`] when the attacker could tell the
//! two sides apart: a shape-class mismatch, an injectivity violation
//! (equality tests differ), a one-sided decryption, or a decryption whose
//! corresponding key comes out wrong. Every inconsistency is a concrete
//! experiment, so `Distinguished` verdicts built on them are sound.
//!
//! Derivability of keys reuses the Dolev–Yao analysis closure
//! ([`Knowledge`]): each hedge carries the saturated left and right
//! projections of everything learned, and a ciphertext opens exactly when
//! *both* projections derive their key (a one-sided derivation is itself
//! an experiment). Recipe *correspondence* — "the recipe producing the
//! left key produces what on the right?" — is computed structurally over
//! the irreducible pairs by [`Hedge::correspond_left`].

use nuspi_security::Knowledge;
use nuspi_syntax::{Name, Symbol, Value};
use std::fmt;
use std::sync::Arc;

/// An experiment the attacker can run to tell the two sides apart.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Inconsistency {
    /// The two values have different outermost shapes (name vs pair vs
    /// numeral vs ciphertext) — splitting, `case`, or use as a channel
    /// behaves differently.
    ShapeMismatch(Arc<Value>, Arc<Value>),
    /// Two corresponding pairs violate injectivity: an equality test
    /// (`[v is w]`) succeeds on one side and fails on the other.
    Injectivity {
        /// The clashing pairs, rendered canonically.
        first: (String, String),
        /// The second pair of the clash.
        second: (String, String),
    },
    /// Exactly one side can derive its decryption key.
    OneSidedDecryption {
        /// Which side decrypts (`"lhs"` or `"rhs"`).
        side: &'static str,
        /// The ciphertext pair, rendered canonically.
        pair: (String, String),
    },
    /// Both sides derive their key, but the recipe that produces the left
    /// key produces something other than the right key.
    KeyMismatch {
        /// The left key, rendered canonically.
        left_key: String,
        /// What the same recipe yields on the right, rendered canonically.
        corresponding: String,
        /// The actual right key, rendered canonically.
        right_key: String,
    },
    /// Corresponding ciphertexts decrypt to payloads of different arity.
    ArityMismatch(usize, usize),
}

fn canon(v: &Value) -> String {
    v.canonicalize().to_string()
}

impl fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inconsistency::ShapeMismatch(l, r) => {
                write!(f, "shape mismatch: {} vs {}", canon(l), canon(r))
            }
            Inconsistency::Injectivity { first, second } => write!(
                f,
                "injectivity violated: ({}, {}) clashes with ({}, {})",
                first.0, first.1, second.0, second.1
            ),
            Inconsistency::OneSidedDecryption { side, pair } => write!(
                f,
                "only {side} can decrypt the corresponding pair ({}, {})",
                pair.0, pair.1
            ),
            Inconsistency::KeyMismatch {
                left_key,
                corresponding,
                right_key,
            } => write!(
                f,
                "key recipe mismatch: {left_key} corresponds to {corresponding}, \
                 but the right key is {right_key}"
            ),
            Inconsistency::ArityMismatch(l, r) => {
                write!(f, "decrypted arity mismatch: {l} vs {r} fields")
            }
        }
    }
}

/// The attacker's paired knowledge: an irreducible set of corresponding
/// value pairs plus the saturated Dolev–Yao projections of each side.
#[derive(Clone, Debug)]
pub struct Hedge {
    /// Irreducible pairs in first-learned order (deterministic: learning
    /// order is a function of the game's move enumeration).
    pairs: Vec<(Arc<Value>, Arc<Value>)>,
    /// Exact observed values *before* decomposition, in learning order —
    /// the replay candidates. Saturation splits a composite message into
    /// its irreducible leaves, but a protocol attacker's bread-and-butter
    /// move is re-injecting a whole observed message (reflection, ticket
    /// replay); keeping the pre-decomposition pair makes that a first-
    /// class injection candidate.
    learned: Vec<(Arc<Value>, Arc<Value>)>,
    /// Saturated left projection (for key derivability).
    left: Knowledge,
    /// Saturated right projection.
    right: Knowledge,
}

impl Default for Hedge {
    fn default() -> Hedge {
        Hedge::new()
    }
}

impl Hedge {
    /// The empty hedge (the attacker knows only `0`).
    pub fn new() -> Hedge {
        Hedge {
            pairs: Vec::new(),
            learned: Vec::new(),
            left: Knowledge::from_names(Vec::<Symbol>::new()),
            right: Knowledge::from_names(Vec::<Symbol>::new()),
        }
    }

    /// A hedge seeding each public name as corresponding to itself —
    /// the standard initial state: free names are common knowledge.
    pub fn with_public_names(names: &[Symbol]) -> Hedge {
        let mut h = Hedge::new();
        for n in names {
            let v = Value::name(Name::global(n.as_str()));
            h.pairs.push((v.clone(), v.clone()));
            h.left.learn(v.clone());
            h.right.learn(v);
        }
        h
    }

    /// The irreducible pairs, in learning order.
    pub fn pairs(&self) -> &[(Arc<Value>, Arc<Value>)] {
        &self.pairs
    }

    /// The exact observed values before decomposition, in learning order
    /// — the replay candidates for message injection.
    pub fn replays(&self) -> &[(Arc<Value>, Arc<Value>)] {
        &self.learned
    }

    /// Extends the hedge with one observed pair and re-closes it under
    /// the analysis rewriting. Returns the extended hedge, or the
    /// experiment that distinguishes the two sides.
    pub fn learn(&self, l: Arc<Value>, r: Arc<Value>) -> Result<Hedge, Inconsistency> {
        let mut h = self.clone();
        h.left.learn(l.clone());
        h.right.learn(r.clone());
        if !matches!(l.as_ref(), Value::Name(_))
            && !h.learned.iter().any(|(a, b)| *a == l && *b == r)
        {
            h.learned.push((l.clone(), r.clone()));
        }
        h.saturate(vec![(l, r)])?;
        h.check_injectivity()?;
        Ok(h)
    }

    /// Decomposes `work` into irreducible pairs, opening ciphertexts
    /// whose keys both projections derive.
    fn saturate(&mut self, mut work: Vec<(Arc<Value>, Arc<Value>)>) -> Result<(), Inconsistency> {
        loop {
            while let Some((l, r)) = work.pop() {
                match (l.as_ref(), r.as_ref()) {
                    (Value::Zero, Value::Zero) => {}
                    (Value::Suc(a), Value::Suc(b)) => work.push((a.clone(), b.clone())),
                    (Value::Pair(a1, b1), Value::Pair(a2, b2)) => {
                        work.push((a1.clone(), a2.clone()));
                        work.push((b1.clone(), b2.clone()));
                    }
                    (Value::Name(_), Value::Name(_)) | (Value::Enc { .. }, Value::Enc { .. }) => {
                        if !self.pairs.iter().any(|(a, b)| *a == l && *b == r) {
                            self.pairs.push((l, r));
                        }
                    }
                    _ => return Err(Inconsistency::ShapeMismatch(l, r)),
                }
            }
            // Ciphertext pass: open every pair whose keys are now
            // correspondingly derivable. Restart the decomposition with
            // the payload pairs; reaching a fixpoint terminates the loop
            // (each opening strictly shrinks the total ciphertext size).
            let mut opened = None;
            for (i, (l, r)) in self.pairs.iter().enumerate() {
                let (
                    Value::Enc {
                        payload: pl,
                        key: kl,
                        ..
                    },
                    Value::Enc {
                        payload: pr,
                        key: kr,
                        ..
                    },
                ) = (l.as_ref(), r.as_ref())
                else {
                    continue;
                };
                let ldec = self.left.can_derive(kl);
                let rdec = self.right.can_derive(kr);
                match (ldec, rdec) {
                    (false, false) => {} // opaque on both sides
                    (true, false) | (false, true) => {
                        return Err(Inconsistency::OneSidedDecryption {
                            side: if ldec { "lhs" } else { "rhs" },
                            pair: (canon(l), canon(r)),
                        });
                    }
                    (true, true) => {
                        if let Some(corr) = self.correspond_left(kl) {
                            if corr != *kr {
                                return Err(Inconsistency::KeyMismatch {
                                    left_key: canon(kl),
                                    corresponding: canon(&corr),
                                    right_key: canon(kr),
                                });
                            }
                        }
                        if pl.len() != pr.len() {
                            return Err(Inconsistency::ArityMismatch(pl.len(), pr.len()));
                        }
                        opened = Some((i, pl.clone(), pr.clone()));
                        break;
                    }
                }
            }
            match opened {
                None => return Ok(()),
                Some((i, pl, pr)) => {
                    self.pairs.remove(i);
                    work.extend(pl.into_iter().zip(pr));
                }
            }
        }
    }

    /// Bidirectional injectivity over the irreducible pairs: equal lefts
    /// must pair with equal rights and vice versa, or `[v is w]` tests
    /// give different answers on the two sides.
    fn check_injectivity(&self) -> Result<(), Inconsistency> {
        for (i, (l1, r1)) in self.pairs.iter().enumerate() {
            for (l2, r2) in &self.pairs[i + 1..] {
                if (l1 == l2) != (r1 == r2) {
                    return Err(Inconsistency::Injectivity {
                        first: (canon(l1), canon(r1)),
                        second: (canon(l2), canon(r2)),
                    });
                }
            }
        }
        Ok(())
    }

    /// The right-side value produced by applying, to the right knowledge,
    /// the recipe that derives `target` from the left knowledge (`None`
    /// when no recipe exists over the irreducible leaves).
    pub fn correspond_left(&self, target: &Arc<Value>) -> Option<Arc<Value>> {
        self.correspond(target, true)
    }

    /// Mirror of [`Hedge::correspond_left`].
    pub fn correspond_right(&self, target: &Arc<Value>) -> Option<Arc<Value>> {
        self.correspond(target, false)
    }

    fn correspond(&self, target: &Arc<Value>, from_left: bool) -> Option<Arc<Value>> {
        let pick = |(l, r): &(Arc<Value>, Arc<Value>)| {
            if from_left {
                (l.clone(), r.clone())
            } else {
                (r.clone(), l.clone())
            }
        };
        if let Some(p) = self.pairs.iter().map(pick).find(|(own, _)| own == target) {
            return Some(p.1);
        }
        match target.as_ref() {
            Value::Zero => Some(Value::zero()),
            Value::Suc(a) => self.correspond(a, from_left).map(Value::suc),
            Value::Pair(a, b) => Some(Value::pair(
                self.correspond(a, from_left)?,
                self.correspond(b, from_left)?,
            )),
            // Synthesising a ciphertext needs the exact confounder, which
            // is a name: only derivable when extruded as a leaf.
            Value::Enc {
                payload,
                confounder,
                key,
            } => {
                let conf = self
                    .correspond(&Value::name(*confounder), from_left)?
                    .as_name()?;
                let key = self.correspond(key, from_left)?;
                let payload = payload
                    .iter()
                    .map(|w| self.correspond(w, from_left))
                    .collect::<Option<Vec<_>>>()?;
                Some(Value::enc(payload, conf, key))
            }
            Value::Name(_) => None, // names are never synthesised
        }
    }

    /// The right channel corresponding to a left channel name (the
    /// attacker can observe/inject on a channel only if it knows it).
    pub fn co_channel_left(&self, n: Name) -> Option<Name> {
        self.correspond_left(&Value::name(n))?.as_name()
    }

    /// Mirror of [`Hedge::co_channel_left`].
    pub fn co_channel_right(&self, n: Name) -> Option<Name> {
        self.correspond_right(&Value::name(n))?.as_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn n(s: &str) -> Arc<Value> {
        Value::name(Name::global(s))
    }

    #[test]
    fn public_names_correspond_to_themselves() {
        let h = Hedge::with_public_names(&[sym("c"), sym("d")]);
        assert_eq!(
            h.co_channel_left(Name::global("c")),
            Some(Name::global("c"))
        );
        assert_eq!(h.co_channel_left(Name::global("x")), None);
    }

    #[test]
    fn pairs_decompose_and_numerals_match_by_shape() {
        let h = Hedge::new();
        let h = h
            .learn(
                Value::pair(n("a"), Value::numeral(2)),
                Value::pair(n("b"), Value::numeral(2)),
            )
            .unwrap();
        assert_eq!(h.pairs().len(), 1, "only the name pair is irreducible");
        assert!(h
            .learn(Value::numeral(1), Value::zero())
            .is_err_and(|e| matches!(e, Inconsistency::ShapeMismatch(..))));
    }

    #[test]
    fn injectivity_catches_equality_experiments() {
        let h = Hedge::new().learn(n("a"), n("x")).unwrap();
        // Same left, different right: `[v is w]` distinguishes.
        let err = h.learn(n("a"), n("y")).unwrap_err();
        assert!(matches!(err, Inconsistency::Injectivity { .. }), "{err}");
        // Different left, same right: ditto.
        let err = h.learn(n("b"), n("x")).unwrap_err();
        assert!(matches!(err, Inconsistency::Injectivity { .. }), "{err}");
        // A genuinely fresh pair is fine.
        assert!(h.learn(n("b"), n("y")).is_ok());
    }

    #[test]
    fn ciphertexts_stay_opaque_without_the_key() {
        let r = Name::global("r").freshen();
        let e1 = Value::enc(vec![n("m")], r, n("k"));
        let e2 = Value::enc(vec![n("m2")], r.freshen(), n("k"));
        let h = Hedge::new().learn(e1, e2).unwrap();
        assert_eq!(h.pairs().len(), 1);
    }

    #[test]
    fn known_keys_open_ciphertexts_and_compare_payloads() {
        let h = Hedge::with_public_names(&[sym("k")]);
        let r = Name::global("r").freshen();
        let e1 = Value::enc(vec![n("a")], r, n("k"));
        let e2 = Value::enc(vec![n("a")], r.freshen(), n("k"));
        let h2 = h.learn(e1, e2).unwrap();
        // Opened: the payload pair (a, a) joins the leaves.
        assert!(h2.pairs().iter().any(|(l, _)| **l == *n("a")));
        // Divergent payloads under a known key are an experiment.
        let e3 = Value::enc(vec![n("a")], Name::global("r").freshen(), n("k"));
        let e4 = Value::enc(vec![n("b")], Name::global("r").freshen(), n("k"));
        // (a,a) already known, so (a,b) violates injectivity.
        assert!(h2.learn(e3, e4).is_err());
    }

    #[test]
    fn one_sided_decryption_is_an_experiment() {
        // kc is known; the left ciphertext uses a secret key instead.
        let h = Hedge::with_public_names(&[sym("kc")]);
        let e1 = Value::enc(vec![n("m")], Name::global("r").freshen(), n("kab"));
        let e2 = Value::enc(vec![n("m")], Name::global("r").freshen(), n("kc"));
        let err = h.learn(e1, e2).unwrap_err();
        assert!(
            matches!(err, Inconsistency::OneSidedDecryption { side: "rhs", .. }),
            "{err}"
        );
    }

    #[test]
    fn key_recipes_must_correspond() {
        // Attacker knows (g1, g1) and (g2, g2); left encrypts under g1,
        // right under g2: the g1-recipe decrypts only the left.
        let h = Hedge::with_public_names(&[sym("g1"), sym("g2")]);
        let e1 = Value::enc(vec![n("m")], Name::global("r").freshen(), n("g1"));
        let e2 = Value::enc(vec![n("m")], Name::global("r").freshen(), n("g2"));
        let err = h.learn(e1, e2).unwrap_err();
        assert!(matches!(err, Inconsistency::KeyMismatch { .. }), "{err}");
    }

    #[test]
    fn correspondence_synthesises_composites_but_never_names() {
        let h = Hedge::new().learn(n("a"), n("x")).unwrap();
        let got = h
            .correspond_left(&Value::pair(n("a"), Value::numeral(1)))
            .unwrap();
        assert_eq!(got, Value::pair(n("x"), Value::numeral(1)));
        assert_eq!(h.correspond_left(&n("unknown")), None);
        assert_eq!(h.correspond_right(&n("x")), Some(n("a")));
    }
}
