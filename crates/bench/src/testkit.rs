//! A miniature property-testing harness: seeded generation plus greedy
//! shrinking, in ~150 lines of std-only code.
//!
//! The offline build cannot depend on `proptest`, and the repository's
//! properties do not need its full machinery — every generator here is a
//! plain function `Fn(&mut SplitMix64) -> T`, every shrinker a function
//! `Fn(&T) -> Vec<T>` proposing strictly simpler candidates, and
//! [`check`] glues them together: run the property over `iters` seeded
//! inputs, and on the first failure greedily walk the shrink lattice
//! downhill (keep any candidate that still fails) before reporting the
//! minimal counterexample with its seed.
//!
//! Determinism: the i-th case of a named check is produced by
//! `SplitMix64::seed_from_u64(base + i)`, so failures reproduce exactly;
//! set `NUSPI_TESTKIT_SEED` to shift the whole run onto a fresh stream.

use nuspi_semantics::rng::{Rng, SplitMix64};
use nuspi_syntax::{builder as b, Expr, Name, Term, Value};
use std::sync::Arc;

/// Upper bound on accepted shrink steps — a safety valve against shrink
/// cycles; greedy descent normally terminates far earlier.
const MAX_SHRINK_STEPS: usize = 2000;

/// Runs `prop` on `iters` generated inputs; on failure, greedily shrinks
/// and panics with the minimal counterexample.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) when the property fails,
/// after shrinking, with the case number, seed, input and error message.
pub fn check<T, G, S, P>(name: &str, iters: u64, gen: G, shrink: S, prop: P)
where
    T: std::fmt::Debug,
    G: Fn(&mut SplitMix64) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> Result<(), String>,
{
    let base: u64 = std::env::var("NUSPI_TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5eed);
    for case in 0..iters {
        let seed = base.wrapping_add(case);
        let mut rng = SplitMix64::seed_from_u64(seed);
        let input = gen(&mut rng);
        let Err(first_error) = prop(&input) else {
            continue;
        };
        // Greedy descent: replace the counterexample with any shrink
        // candidate that still fails, until none does.
        let mut minimal = input;
        let mut error = first_error;
        let mut steps = 0;
        'descend: while steps < MAX_SHRINK_STEPS {
            for candidate in shrink(&minimal) {
                if let Err(e) = prop(&candidate) {
                    minimal = candidate;
                    error = e;
                    steps += 1;
                    continue 'descend;
                }
            }
            break;
        }
        panic!(
            "property `{name}` failed (case {case}, seed {seed}, \
             shrunk {steps} steps)\n  input: {minimal:?}\n  error: {error}"
        );
    }
}

/// The trivial shrinker: propose nothing.
pub fn no_shrink<T>(_: &T) -> Vec<T> {
    Vec::new()
}

/// Shrinks an unsigned integer toward zero (zero, halving, decrement).
pub fn shrink_u64(v: &u64) -> Vec<u64> {
    let v = *v;
    let mut out = Vec::new();
    if v > 0 {
        out.push(0);
        if v / 2 != 0 {
            out.push(v / 2);
        }
        out.push(v - 1);
    }
    out.dedup();
    out
}

/// Shrinks a vector: drop one element at a time, then shrink one element
/// at a time with `elem`.
pub fn shrink_vec<T: Clone>(xs: &[T], elem: impl Fn(&T) -> Vec<T>) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    for i in 0..xs.len() {
        let mut shorter = xs.to_vec();
        shorter.remove(i);
        out.push(shorter);
    }
    for (i, x) in xs.iter().enumerate() {
        for repl in elem(x) {
            let mut ys = xs.to_vec();
            ys[i] = repl;
            out.push(ys);
        }
    }
    out
}

/// A random canonical-ish value over a small alphabet (names `n0..n3`,
/// numerals, pairs, successors, encryptions with confounders `r0..r2`),
/// with structural depth at most `depth`.
pub fn random_value(rng: &mut SplitMix64, depth: usize) -> Arc<Value> {
    if depth == 0 || rng.gen_range(0..4) == 0 {
        return match rng.gen_range(0..5) {
            0 => Value::zero(),
            i => Value::name(format!("n{}", i - 1).as_str()),
        };
    }
    match rng.gen_range(0..3) {
        0 => Value::suc(random_value(rng, depth - 1)),
        1 => Value::pair(random_value(rng, depth - 1), random_value(rng, depth - 1)),
        _ => {
            let payload: Vec<Arc<Value>> = (0..rng.gen_range(0..3))
                .map(|_| random_value(rng, depth - 1))
                .collect();
            let key = random_value(rng, depth - 1);
            let r = rng.gen_range(0..3);
            Value::enc(payload, Name::global(format!("r{r}").as_str()), key)
        }
    }
}

/// Structural shrinker for values: every immediate child, then the
/// simplest leaf. Greedy descent over these candidates finds a minimal
/// failing subterm.
pub fn shrink_value(w: &Arc<Value>) -> Vec<Arc<Value>> {
    let mut out: Vec<Arc<Value>> = Vec::new();
    match &**w {
        Value::Zero => return out,
        Value::Name(_) => {
            out.push(Value::zero());
            return out;
        }
        Value::Suc(inner) => out.push(Arc::clone(inner)),
        Value::Pair(a, b2) => {
            out.push(Arc::clone(a));
            out.push(Arc::clone(b2));
        }
        Value::Enc { payload, key, .. } => {
            out.extend(payload.iter().cloned());
            out.push(Arc::clone(key));
        }
    }
    out.push(Value::zero());
    out
}

/// A random *closed* expression (no variables) mirroring
/// [`random_value`], for evaluation properties.
pub fn random_expr(rng: &mut SplitMix64, depth: usize) -> Expr {
    if depth == 0 || rng.gen_range(0..4) == 0 {
        return match rng.gen_range(0..5) {
            0 => b::numeral(rng.gen_range(0..4) as u32),
            i => b::name(&format!("n{}", i - 1)),
        };
    }
    match rng.gen_range(0..3) {
        0 => b::suc(random_expr(rng, depth - 1)),
        1 => b::pair(random_expr(rng, depth - 1), random_expr(rng, depth - 1)),
        _ => {
            let payload = random_expr(rng, depth - 1);
            let key = random_expr(rng, depth - 1);
            b::enc_auto(vec![payload], key)
        }
    }
}

/// Structural shrinker for closed expressions: immediate children, then
/// the literal `0`.
pub fn shrink_expr(e: &Expr) -> Vec<Expr> {
    if e.term == Term::Zero {
        return Vec::new();
    }
    let mut out: Vec<Expr> = e.term.parts().cloned().collect();
    out.push(b::zero());
    out
}

/// `Ok(())` when `cond` holds, `Err(msg())` otherwise — the ergonomic
/// core of property bodies.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// `Ok(())` when both sides are equal, `Err` describing both otherwise.
pub fn ensure_eq<T: PartialEq + std::fmt::Debug>(a: T, b2: T) -> Result<(), String> {
    ensure(a == b2, || {
        format!("expected equal:\n  left:  {a:?}\n  right: {b2:?}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        check(
            "always-true-counted",
            64,
            |rng| rng.gen_range(0..1000) as u64,
            shrink_u64,
            |_| {
                counter.set(counter.get() + 1);
                Ok(())
            },
        );
        assert_eq!(counter.get(), 64);
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        // Property "v < 10" fails for any v >= 10; greedy shrinking over
        // shrink_u64 must land exactly on 10.
        let result = std::panic::catch_unwind(|| {
            check(
                "v-below-ten",
                200,
                |rng| rng.next_u64() % 1000,
                shrink_u64,
                |v| ensure(*v < 10, || format!("{v} is not < 10")),
            );
        });
        let msg = match result {
            Err(payload) => *payload.downcast::<String>().expect("panic message"),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("input: 10"), "minimal counterexample: {msg}");
        assert!(msg.contains("v-below-ten"), "{msg}");
    }

    #[test]
    fn value_generator_is_seed_deterministic() {
        let mut a = SplitMix64::seed_from_u64(9);
        let mut b2 = SplitMix64::seed_from_u64(9);
        for _ in 0..50 {
            assert_eq!(random_value(&mut a, 3), random_value(&mut b2, 3));
        }
    }

    #[test]
    fn value_shrinker_strictly_simplifies() {
        let mut rng = SplitMix64::seed_from_u64(1);
        for _ in 0..100 {
            let w = random_value(&mut rng, 3);
            for s in shrink_value(&w) {
                assert!(
                    s.height() < w.height() || matches!(&*s, Value::Zero),
                    "{w} -> {s}"
                );
            }
        }
    }

    #[test]
    fn expr_generator_yields_closed_expressions() {
        let mut rng = SplitMix64::seed_from_u64(2);
        for _ in 0..100 {
            let e = random_expr(&mut rng, 3);
            let mut fv = std::collections::HashSet::new();
            e.free_vars_into(&mut fv);
            assert!(fv.is_empty(), "{e:?}");
        }
    }
}
