//! The evaluation relation `E ⇓ (νr̃) w` (Table 1, rules 1–5).
//!
//! νSPI is call-by-value: a term must be fully evaluated before it is
//! matched, decrypted, or sent. The crucial rule is encryption: evaluating
//! `{E₁,…,Eₖ,(νr)r}_{E₀}` mints a *fresh* confounder `rᵢ` and pushes its
//! restriction outermost, so every pass over an encryption site yields a
//! ciphertext different from every other value in the system — this is the
//! paper's "history dependent cryptography".
//!
//! [`EvalMode::ClassicSpi`] disables confounder freshening, recovering the
//! observable behaviour of ordinary spi-calculus perfect encryption (two
//! encryptions of the same plaintext under the same key are *equal*). The
//! §1 motivation experiment uses this mode to demonstrate the
//! ciphertext-comparison attack νSPI defeats.

use nuspi_syntax::{Expr, Label, Name, Term, Value, Var};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// How encryption confounders are generated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EvalMode {
    /// νSPI semantics: every encryption mints a fresh confounder.
    #[default]
    NuSpi,
    /// Classic spi-calculus semantics: the confounder is the site's
    /// canonical name, so repeated encryptions of equal plaintext under an
    /// equal key produce *equal* ciphertexts (enabling the
    /// ciphertext-comparison attack of the paper's §1).
    ClassicSpi,
}

/// The result of evaluating an expression: `(νr̃) w` together with the
/// label of the evaluated occurrence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Evaluated {
    /// The fresh restricted names `r̃` (confounders) minted during
    /// evaluation, outermost first, without duplicates.
    pub restricted: Vec<Name>,
    /// The value `w`.
    pub value: Arc<Value>,
    /// The label of the evaluated expression occurrence.
    pub label: Label,
}

/// Evaluation failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// The expression contains a free variable — it is open, and the
    /// semantics only operates on closed entities.
    UnboundVariable(Var),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
        }
    }
}

impl Error for EvalError {}

/// Evaluates `E ⇓ (νr̃) w`.
///
/// # Errors
///
/// Returns [`EvalError::UnboundVariable`] if the expression is open.
pub fn eval(expr: &Expr, mode: EvalMode) -> Result<Evaluated, EvalError> {
    let mut restricted = Vec::new();
    let value = eval_term(&expr.term, mode, &mut restricted)?;
    Ok(Evaluated {
        restricted,
        value,
        label: expr.label,
    })
}

fn eval_term(
    term: &Term,
    mode: EvalMode,
    restricted: &mut Vec<Name>,
) -> Result<Arc<Value>, EvalError> {
    match term {
        Term::Name(n) => Ok(Value::name(*n)),
        Term::Var(x) => Err(EvalError::UnboundVariable(*x)),
        Term::Zero => Ok(Value::zero()),
        Term::Val(w) => Ok(Arc::clone(w)),
        Term::Suc(e) => {
            let w = eval_term(&e.term, mode, restricted)?;
            Ok(Value::suc(w))
        }
        Term::Pair(a, b) => {
            let wa = eval_term(&a.term, mode, restricted)?;
            let wb = eval_term(&b.term, mode, restricted)?;
            Ok(Value::pair(wa, wb))
        }
        Term::Enc {
            payload,
            confounder,
            key,
        } => {
            let ws = payload
                .iter()
                .map(|e| eval_term(&e.term, mode, restricted))
                .collect::<Result<Vec<_>, _>>()?;
            let wk = eval_term(&key.term, mode, restricted)?;
            let r = match mode {
                EvalMode::NuSpi => {
                    let fresh = confounder.freshen();
                    restricted.push(fresh);
                    fresh
                }
                EvalMode::ClassicSpi => *confounder,
            };
            Ok(Value::enc(ws, r, wk))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::builder as b;

    #[test]
    fn names_evaluate_to_themselves() {
        let e = b::name("a");
        let r = eval(&e, EvalMode::NuSpi).unwrap();
        assert!(r.restricted.is_empty());
        assert_eq!(r.value, Value::name("a"));
        assert_eq!(r.label, e.label);
    }

    #[test]
    fn numerals_evaluate() {
        let e = b::numeral(3);
        let r = eval(&e, EvalMode::NuSpi).unwrap();
        assert_eq!(r.value.as_numeral(), Some(3));
        assert!(r.restricted.is_empty());
    }

    #[test]
    fn pairs_evaluate_componentwise() {
        let e = b::pair(b::name("a"), b::numeral(1));
        let r = eval(&e, EvalMode::NuSpi).unwrap();
        assert_eq!(r.value, Value::pair(Value::name("a"), Value::numeral(1)));
    }

    #[test]
    fn encryption_mints_a_fresh_confounder() {
        let e = b::enc(vec![b::zero()], Name::global("r"), b::name("k"));
        let r = eval(&e, EvalMode::NuSpi).unwrap();
        assert_eq!(r.restricted.len(), 1);
        let conf = r.restricted[0];
        assert_eq!(conf.canonical().as_str(), "r");
        assert!(!conf.is_source());
        assert!(r.value.contains_name(conf));
    }

    #[test]
    fn two_evaluations_of_one_site_differ_in_nuspi() {
        let e = b::enc(vec![b::zero()], Name::global("r"), b::name("k"));
        let r1 = eval(&e, EvalMode::NuSpi).unwrap();
        let r2 = eval(&e, EvalMode::NuSpi).unwrap();
        assert_ne!(r1.value, r2.value, "history dependence");
        assert_eq!(
            r1.value.canonicalize(),
            r2.value.canonicalize(),
            "canonical values coincide"
        );
    }

    #[test]
    fn two_evaluations_of_one_site_coincide_in_classic_mode() {
        let e = b::enc(vec![b::zero()], Name::global("r"), b::name("k"));
        let r1 = eval(&e, EvalMode::ClassicSpi).unwrap();
        let r2 = eval(&e, EvalMode::ClassicSpi).unwrap();
        assert_eq!(r1.value, r2.value, "classic spi compares ciphertexts");
        assert!(r1.restricted.is_empty());
    }

    #[test]
    fn nested_encryptions_restrict_all_confounders() {
        let inner = b::enc(vec![b::zero()], Name::global("r1"), b::name("k1"));
        let outer = b::enc(vec![inner], Name::global("r2"), b::name("k2"));
        let r = eval(&outer, EvalMode::NuSpi).unwrap();
        assert_eq!(r.restricted.len(), 2);
        let mut uniq = r.restricted.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), 2, "r̃ without duplicates");
    }

    #[test]
    fn open_expression_errors() {
        let x = Var::fresh("x");
        let e = b::var(x);
        assert_eq!(
            eval(&e, EvalMode::NuSpi),
            Err(EvalError::UnboundVariable(x))
        );
    }

    #[test]
    fn value_terms_pass_through() {
        let w = Value::pair(Value::name("a"), Value::zero());
        let e = b::val(Arc::clone(&w));
        let r = eval(&e, EvalMode::NuSpi).unwrap();
        assert_eq!(r.value, w);
        assert!(r.restricted.is_empty());
    }

    #[test]
    fn key_position_confounders_are_restricted_too() {
        let keyenc = b::enc(vec![b::zero()], Name::global("rk"), b::name("k"));
        let e = b::enc(vec![b::name("m")], Name::global("r"), keyenc);
        let r = eval(&e, EvalMode::NuSpi).unwrap();
        assert_eq!(r.restricted.len(), 2);
    }
}
