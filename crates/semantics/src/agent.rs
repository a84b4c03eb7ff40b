//! Agents: abstractions, concretions, and commitments.
//!
//! A commitment `P —α→ A` relates a process to an *agent* `A`: a plain
//! process for `τ`, an abstraction `(νñ)(x)P` for input, a concretion
//! `(νñ)⟨w^l⟩P` for output. The interaction `F@C` (and symmetrically
//! `C@F`) composes an abstraction with a concretion into the process
//! `(νñ)(P[w^l/x] | Q)`, extruding the concretion's restricted names.

use crate::eval::EvalMode;
use nuspi_syntax::{builder, Label, Name, Process, Value, Var};
use std::fmt;
use std::sync::Arc;

/// The action `α` of a commitment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Action {
    /// An internal step `τ`.
    Tau,
    /// An input on channel `m` (the paper's `m`).
    In(Name),
    /// An output on channel `m` (the paper's `m̄`).
    Out(Name),
}

impl Action {
    /// The channel of a visible action, if any.
    pub fn channel(self) -> Option<Name> {
        match self {
            Action::Tau => None,
            Action::In(m) | Action::Out(m) => Some(m),
        }
    }

    /// Whether this is the co-action of `other` on the same channel
    /// (input vs output).
    pub fn complements(self, other: Action) -> bool {
        matches!(
            (self, other),
            (Action::In(a), Action::Out(b)) | (Action::Out(a), Action::In(b)) if a == b
        )
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Tau => write!(f, "τ"),
            Action::In(m) => write!(f, "{m}"),
            Action::Out(m) => write!(f, "{m}̄"),
        }
    }
}

/// An abstraction `(νñ)(x)P`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Abstraction {
    /// Restricted names pushed outside the abstraction by the `Res` rule.
    pub restricted: Vec<Name>,
    /// The bound variable `x`.
    pub var: Var,
    /// The body `P`.
    pub body: Process,
}

/// A concretion `(νñ)⟨w^l⟩P`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Concretion {
    /// Restricted names whose scope is being extruded with the message.
    pub restricted: Vec<Name>,
    /// The message value `w`.
    pub value: Arc<Value>,
    /// The label `l` of the (evaluated) message occurrence — the CFA's
    /// subject-reduction clause (3) checks `⌊w⌋ ∈ ζ(l)`.
    pub label: Label,
    /// The continuation `P`.
    pub body: Process,
}

/// The agent `A` a process commits to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Agent {
    /// The residual process of a `τ` step.
    Proc(Process),
    /// The abstraction of an input commitment.
    Abs(Abstraction),
    /// The concretion of an output commitment.
    Conc(Concretion),
}

/// An output premise `R —m̄→ (νr̃)⟨w^l⟩R′` used in the derivation of a
/// commitment. Carefulness (Definition 3) constrains every such premise,
/// including those consumed inside a `τ` interaction, so commitments carry
/// them explicitly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OutputEvent {
    /// The channel the value is sent on.
    pub channel: Name,
    /// The value sent.
    pub value: Arc<Value>,
    /// The label of the message occurrence.
    pub label: Label,
}

/// A commitment `P —α→ A`, together with the output premises of its
/// derivation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Commitment {
    /// The action `α`.
    pub action: Action,
    /// The resulting agent.
    pub agent: Agent,
    /// Output premises used to derive this commitment (one for an output
    /// action; one per internal communication for `τ`).
    pub outputs: Vec<OutputEvent>,
    /// The evaluation mode the deriving semantics ran under (threaded so
    /// interactions re-derive commitments consistently).
    pub mode: EvalMode,
}

impl Abstraction {
    /// `F@C = (νñ)(P[w^l/x] | Q)`: receives the concretion's message,
    /// extruding its restricted names around the composition.
    ///
    /// The side condition `{ñ} ∩ fn(P) = ∅` holds by construction: the
    /// commitment machinery freshens every restriction binder it opens, so
    /// extruded names are globally unique.
    pub fn interact(&self, conc: &Concretion) -> Process {
        let received = self.body.subst(self.var, &conc.value);
        let inner = builder::par(received, conc.body.clone());
        let wrapped = builder::restrict_all(conc.restricted.iter().copied(), inner);
        builder::restrict_all(self.restricted.iter().copied(), wrapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::builder as b;

    #[test]
    fn action_channels() {
        let m = Name::global("m");
        assert_eq!(Action::Tau.channel(), None);
        assert_eq!(Action::In(m).channel(), Some(m));
        assert_eq!(Action::Out(m).channel(), Some(m));
    }

    #[test]
    fn complements_requires_same_channel_and_opposite_polarity() {
        let m = Name::global("m");
        let n = Name::global("n");
        assert!(Action::In(m).complements(Action::Out(m)));
        assert!(Action::Out(m).complements(Action::In(m)));
        assert!(!Action::In(m).complements(Action::In(m)));
        assert!(!Action::In(m).complements(Action::Out(n)));
        assert!(!Action::Tau.complements(Action::Tau));
    }

    #[test]
    fn interact_substitutes_message() {
        let x = Var::fresh("x");
        let abs = Abstraction {
            restricted: vec![],
            var: x,
            body: b::output(b::name("d"), b::var(x), b::nil()),
        };
        let conc = Concretion {
            restricted: vec![],
            value: Value::name("payload"),
            label: b::zero().label,
            body: Process::Nil,
        };
        let p = abs.interact(&conc);
        assert!(p.is_closed());
        assert!(p.free_names().contains(&Name::global("payload")));
    }

    #[test]
    fn interact_extrudes_restrictions() {
        let x = Var::fresh("x");
        let fresh = Name::global("r").freshen();
        let abs = Abstraction {
            restricted: vec![],
            var: x,
            body: b::output(b::name("d"), b::var(x), b::nil()),
        };
        let conc = Concretion {
            restricted: vec![fresh],
            value: Value::name(fresh),
            label: b::zero().label,
            body: Process::Nil,
        };
        let p = abs.interact(&conc);
        // The extruded name is bound at the top, not free.
        assert!(!p.free_names().contains(&fresh));
        match p {
            Process::Restrict { name, .. } => assert_eq!(name, fresh),
            other => panic!("expected extruded restriction, got {other:?}"),
        }
    }

    use nuspi_syntax::Process;
}
