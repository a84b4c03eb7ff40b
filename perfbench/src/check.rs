//! Checks a response line against its known answer.
//!
//! Only the head of a body is read (status, verdict, counts), so the
//! check costs microseconds even on a megabyte estimate.

use crate::corpus::{EquivExpect, Expect};

/// A response that carries a correct answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verified {
    /// Whether the answer is a definite verdict (`unknown` is not).
    pub decided: bool,
}

/// The value of the first `"key":` in `line`, up to the next `,` or `}`
/// (a string value keeps its quotes).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = if let Some(s) = rest.strip_prefix('"') {
        s.find('"').map(|i| i + 2)?
    } else {
        rest.find([',', '}'])?
    };
    Some(&rest[..end])
}

fn number(line: &str, key: &str) -> Result<usize, String> {
    field(line, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no numeric `{key}` field"))
}

/// Checks `line` (the wire form of one response) against `expect`.
pub fn verify(expect: &Expect, id: &str, line: &str) -> Result<Verified, String> {
    let head = format!("{{\"id\":\"{id}\",");
    if !line.starts_with(&head) {
        return Err(format!("response does not echo id `{id}`"));
    }
    match field(line, "status") {
        Some("\"ok\"") => {}
        _ => {
            let message = field(line, "error").unwrap_or("no status");
            return Err(format!("error line: {message}"));
        }
    }
    match *expect {
        Expect::Lint { confined } => {
            let errors = number(line, "errors")?;
            if (errors == 0) != confined {
                return Err(format!(
                    "lint reported {errors} error(s); spec expects confined = {confined}"
                ));
            }
            Ok(Verified { decided: true })
        }
        Expect::Source { secure } => {
            let want = if secure { "\"secure\"" } else { "\"insecure\"" };
            match field(line, "verdict") {
                Some(v) if v == want => Ok(Verified { decided: true }),
                other => Err(format!("verdict {other:?}, rung expects {want}")),
            }
        }
        Expect::Equiv(want) => {
            let verdict = field(line, "verdict").unwrap_or("");
            let ok = matches!(
                (want, verdict),
                (EquivExpect::Distinguished, "\"distinguished\"")
                    | (EquivExpect::Bisimilar, "\"bisimilar\"")
                    | (
                        EquivExpect::NotDistinguished,
                        "\"bisimilar\"" | "\"unknown\""
                    )
            );
            if !ok {
                return Err(format!("equiv verdict {verdict}, expected {want:?}"));
            }
            Ok(Verified {
                decided: verdict != "\"unknown\"",
            })
        }
        Expect::Solve { productions } => {
            let got = number(line, "productions")?;
            if got != productions {
                return Err(format!(
                    "solve reported {got} productions; reference solver gives {productions}"
                ));
            }
            Ok(Verified { decided: true })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_head_fields() {
        let line = "{\"id\":\"a\",\"op\":\"lint\",\"status\":\"ok\",\"diagnostics\":2,\
                    \"report\":{\"version\":1,\"tool\":\"nuspi-lint\",\
                    \"summary\":{\"errors\":1,\"warnings\":1,\"notes\":0}}}";
        assert_eq!(
            verify(&Expect::Lint { confined: false }, "a", line),
            Ok(Verified { decided: true })
        );
        assert!(verify(&Expect::Lint { confined: true }, "a", line).is_err());
        assert!(verify(&Expect::Lint { confined: false }, "b", line).is_err());
    }

    #[test]
    fn error_lines_and_unknowns() {
        let err = "{\"id\":\"a\",\"op\":\"serve\",\"status\":\"error\",\"error\":\"bad\"}";
        assert!(verify(&Expect::Solve { productions: 1 }, "a", err).is_err());
        let unknown = "{\"id\":\"a\",\"op\":\"equiv\",\"status\":\"ok\",\"verdict\":\"unknown\"}";
        assert_eq!(
            verify(&Expect::Equiv(EquivExpect::NotDistinguished), "a", unknown),
            Ok(Verified { decided: false })
        );
        assert!(verify(&Expect::Equiv(EquivExpect::Bisimilar), "a", unknown).is_err());
    }
}
