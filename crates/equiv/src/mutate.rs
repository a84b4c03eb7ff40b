//! The attack-variant miner: syntactic perturbations of protocol specs.
//!
//! [`mutations`] enumerates small, protocol-shaped edits of a process —
//! the classic implementation mistakes: swapping two message fields,
//! dropping a field, replaying a send, or shipping an encrypted payload
//! in the clear. Running the [`independence_oracle`] over each mutant
//! and comparing with the unmutated process reports which edits break
//! observational equivalence — rediscovering, for the protocol zoo's
//! honest specs, exactly the committed broken variants.
//!
//! Mutants are plain [`Process`] values built with fresh labels, so they
//! flow through every existing backend: the static pipeline, the engine
//! (render with `Display` and resubmit as source), and the game.
//!
//! [`independence_oracle`]: crate::oracle::independence_oracle

use nuspi_syntax::{builder, Expr, Process, Rewrite, Term};

/// One mutant: the edit's description and the mutated process.
#[derive(Clone, Debug)]
pub struct Mutation {
    /// What was edited, e.g. `"swap fields of {…}:k at output #2 on cAB"`.
    pub label: String,
    /// The kind tag: `"swap"`, `"drop"`, `"replay"`, or `"expose"`.
    pub kind: &'static str,
    /// The mutated process.
    pub process: Process,
}

/// Enumerates every single-edit mutant of `p`, in deterministic
/// pre-order: for each output prefix, a replay plus every applicable
/// swap/drop/expose of its message.
pub fn mutations(p: &Process) -> Vec<Mutation> {
    let sites = p
        .preorder()
        .filter(|(q, _)| matches!(q, Process::Output { .. }))
        .count();
    let mut out = Vec::new();
    for site in 0..sites {
        for (kind, edit) in edits() {
            let mut at = EditOutput {
                site,
                seen: 0,
                edit,
                applied: None,
            };
            let q = p.rewrite(&mut at);
            if let Some(desc) = at.applied {
                out.push(Mutation {
                    label: format!("{desc} at output #{site}"),
                    kind,
                    process: q,
                });
            }
        }
    }
    out
}

/// Rewrites the `site`-th output prefix (pre-order) with `edit`; every
/// other node is rebuilt as it is.
struct EditOutput {
    site: usize,
    seen: usize,
    edit: Edit,
    applied: Option<String>,
}

impl Rewrite for EditOutput {
    fn node(&mut self, p: &Process) -> Option<Process> {
        let Process::Output { chan, msg, then } = p else {
            return None;
        };
        self.seen += 1;
        if self.seen != self.site + 1 {
            return None;
        }
        let (desc, replacement) = (self.edit)(chan, msg, then)?;
        self.applied = Some(desc);
        Some(replacement)
    }
}

type Edit = fn(&Expr, &Expr, &Process) -> Option<(String, Process)>;

fn edits() -> [(&'static str, Edit); 4] {
    [
        ("swap", swap_fields),
        ("drop", drop_field),
        ("replay", replay_send),
        ("expose", expose_payload),
    ]
}

fn output(chan: &Expr, msg: Expr, then: Process) -> Process {
    builder::output(chan.clone(), msg, then)
}

/// Swap the first two fields of a pair or encrypted message.
fn swap_fields(chan: &Expr, msg: &Expr, then: &Process) -> Option<(String, Process)> {
    let swapped = match &msg.term {
        Term::Pair(a, b) => builder::pair((**b).clone(), (**a).clone()),
        Term::Enc {
            payload,
            confounder,
            key,
        } if payload.len() >= 2 => {
            let mut fields = payload.clone();
            fields.swap(0, 1);
            builder::enc(fields, *confounder, (**key).clone())
        }
        _ => return None,
    };
    Some((
        format!("swap fields of {msg} on {chan}"),
        output(chan, swapped, then.clone()),
    ))
}

/// Drop the first field of a pair or encrypted message.
fn drop_field(chan: &Expr, msg: &Expr, then: &Process) -> Option<(String, Process)> {
    let dropped = match &msg.term {
        Term::Pair(_, b) => (**b).clone(),
        Term::Enc {
            payload,
            confounder,
            key,
        } if payload.len() >= 2 => {
            builder::enc(payload[1..].to_vec(), *confounder, (**key).clone())
        }
        _ => return None,
    };
    Some((
        format!("drop first field of {msg} on {chan}"),
        output(chan, dropped, then.clone()),
    ))
}

/// Send the message twice (a replay; under νSPI the confounder is
/// re-randomised, as a replaying implementation would re-encrypt).
fn replay_send(chan: &Expr, msg: &Expr, then: &Process) -> Option<(String, Process)> {
    Some((
        format!("replay {msg} on {chan}"),
        output(chan, msg.clone(), output(chan, msg.clone(), then.clone())),
    ))
}

/// Ship an encrypted payload in the clear (tuple of the fields).
fn expose_payload(chan: &Expr, msg: &Expr, then: &Process) -> Option<(String, Process)> {
    let Term::Enc { payload, .. } = &msg.term else {
        return None;
    };
    let mut fields = payload.iter().rev().cloned();
    let mut clear = fields.next()?;
    for f in fields {
        clear = builder::pair(f, clear);
    }
    Some((
        format!("send payload of {msg} in the clear on {chan}"),
        output(chan, clear, then.clone()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::{alpha_equivalent, parse_process};

    #[test]
    fn enumerates_expected_kinds() {
        let p = parse_process("c<(a, b)>.0 | d<{m, n, new r}:k>.0").unwrap();
        let ms = mutations(&p);
        let kinds: Vec<&str> = ms.iter().map(|m| m.kind).collect();
        // Pair: swap, drop, replay, (no expose). Enc: all four.
        assert_eq!(
            kinds,
            ["swap", "drop", "replay", "swap", "drop", "replay", "expose"],
            "{ms:#?}"
        );
    }

    #[test]
    fn mutants_differ_and_print_as_source() {
        let p = parse_process("(new k) c<{m, new r}:k>.0").unwrap();
        for m in mutations(&p) {
            assert!(
                !alpha_equivalent(&p, &m.process),
                "mutant identical: {}",
                m.label
            );
            // Round-trip through the printer: mutants can be resubmitted
            // to the engine as source.
            let reparsed = parse_process(&m.process.to_string()).unwrap();
            assert!(alpha_equivalent(&m.process, &reparsed), "{}", m.label);
        }
    }

    #[test]
    fn expose_sends_fields_in_the_clear() {
        let p = parse_process("c<{m, n, new r}:k>.0").unwrap();
        let ms = mutations(&p);
        let exposed = ms.iter().find(|m| m.kind == "expose").unwrap();
        assert_eq!(exposed.process.to_string(), "c<(m, n)>.0");
    }

    #[test]
    fn replay_duplicates_the_send() {
        let p = parse_process("c<m>.d<n>.0").unwrap();
        let ms = mutations(&p);
        let replays: Vec<&Mutation> = ms.iter().filter(|m| m.kind == "replay").collect();
        assert_eq!(replays.len(), 2);
        assert_eq!(replays[0].process.to_string(), "c<m>.c<m>.d<n>.0");
    }
}
