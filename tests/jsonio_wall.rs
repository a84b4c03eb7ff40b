//! Differential wall for the request decoder's string reader and for
//! `escape`.
//!
//! `jsonio` reads a string literal by copying each run of bytes between
//! `"` and `\` as one slice, and `escape` copies the runs between the
//! characters it escapes. Both replaced per-character loops, which this
//! wall keeps here, and only here, as the reference.
//!
//! The corpus is seeded (`testkit` over `SplitMix64`): string literals
//! built from ASCII, raw control characters, 2-, 3- and 4-byte UTF-8,
//! every two-character escape, `\u` escapes of BMP characters, valid
//! surrogate pairs and lone surrogates of both halves; a quarter of them
//! are then broken (truncated, or given a bad, short, signed or
//! non-ASCII escape, or a stray quote). Required:
//!
//! * the decoder returns the reference's value or its exact error text,
//!   wherever the reference does not hit its surrogate bug (it combined
//!   a high surrogate with *any* following `\u` escape);
//! * on every unbroken literal the decoder returns the text the pieces
//!   spell, decoding each run of adjacent `\u` escapes the way
//!   `String::from_utf16_lossy` decodes its code units — which covers
//!   exactly the inputs the reference got wrong;
//! * `escape` is byte-identical to the reference, and escape → parse is
//!   the identity.

use nuspi::engine::jsonio::{escape, Json};
use nuspi_bench::testkit::{check, ensure, ensure_eq, shrink_vec};
use nuspi_semantics::rng::{Rng, SplitMix64};
use std::fmt::Write as _;

// ---- the reference: the per-character reader and escaper ----------------

/// What the reference reports where it combined a high surrogate with a
/// `\u` escape outside `DC00..=DFFF`. That subtraction underflowed below
/// `DC00` (a panic in debug builds) and built a wrong scalar above
/// `DFFF`; flagging both is the reference's only edit.
const SURROGATE_BUG: &str = "surrogate bug";

struct OldReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl OldReader<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "non-ascii \\u escape".to_owned())?;
        let v = u16::from_str_radix(text, 16).map_err(|e| format!("bad \\u escape: {e}"))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..=0xdfff).contains(&lo) {
                                        return Err(SURROGATE_BUG.into());
                                    }
                                    let combined = 0x10000
                                        + ((u32::from(hi) - 0xd800) << 10)
                                        + (u32::from(lo) - 0xdc00);
                                    char::from_u32(combined).unwrap_or('\u{fffd}')
                                } else {
                                    '\u{fffd}'
                                }
                            } else {
                                char::from_u32(u32::from(hi)).unwrap_or('\u{fffd}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).expect("utf8");
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

/// The reference's reading of a document that is one string literal:
/// `Json::parse` minus the non-string values.
fn old_decode(doc: &str) -> Result<String, String> {
    let mut r = OldReader {
        bytes: doc.as_bytes(),
        pos: 0,
    };
    let s = r.string()?;
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = r.peek() {
        r.pos += 1;
    }
    if r.pos != r.bytes.len() {
        return Err(format!("trailing data at byte {}", r.pos));
    }
    Ok(s)
}

fn old_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---- the corpus ----------------------------------------------------------

/// One piece of a string literal's body.
#[derive(Clone, Debug)]
enum Piece {
    /// Text copied verbatim (never `"` or `\`).
    Raw(String),
    /// A two-character escape and the character it stands for.
    Esc(&'static str, char),
    /// A `\uXXXX` escape of one UTF-16 code unit, upper-case hex when
    /// the flag is set.
    Unit(u16, bool),
}

const ESCAPES: [(&str, char); 8] = [
    ("\\\"", '"'),
    ("\\\\", '\\'),
    ("\\/", '/'),
    ("\\n", '\n'),
    ("\\t", '\t'),
    ("\\r", '\r'),
    ("\\b", '\u{8}'),
    ("\\f", '\u{c}'),
];

/// Ways to break a literal: inserted before a piece, or a cut.
const BREAKS: [&str; 9] = [
    "\\q",
    "\\u12",
    "\\uZZZZ",
    "\\u+041",
    "\\u-041",
    "\\u\u{e9}12",
    "\\",
    "\"",
    "\" ",
];

#[derive(Clone, Debug)]
enum Breakage {
    /// Insert `BREAKS[k]` before piece `at` (clamped).
    Insert { at: usize, k: usize },
    /// Keep the first `keep` chars of the document (at least its
    /// opening quote).
    Cut { keep: usize },
}

#[derive(Clone, Debug)]
struct Case {
    pieces: Vec<Piece>,
    breakage: Option<Breakage>,
}

fn random_char(rng: &mut SplitMix64) -> char {
    let scalar = match rng.gen_range(0..6) {
        // Printable ASCII other than the two delimiters.
        0 | 1 => loop {
            let c = rng.gen_range(0x20..0x7f) as u32;
            if c != u32::from(b'"') && c != u32::from(b'\\') {
                break c;
            }
        },
        // Raw control characters and DEL: accepted inside strings.
        2 => [0x00, 0x01, 0x08, 0x09, 0x0a, 0x0d, 0x1b, 0x1f, 0x7f][rng.gen_range(0..9)],
        3 => rng.gen_range(0x80..0x800) as u32,
        4 => loop {
            let c = rng.gen_range(0x800..0x10000) as u32;
            if !(0xd800..0xe000).contains(&c) {
                break c;
            }
        },
        _ => rng.gen_range(0x10000..0x110000) as u32,
    };
    char::from_u32(scalar).expect("a scalar value")
}

fn random_unit(rng: &mut SplitMix64) -> u16 {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(0..0x80) as u16,
        1 => rng.gen_range(0xd800..0xdc00) as u16,
        2 => rng.gen_range(0xdc00..0xe000) as u16,
        _ => rng.gen_range(0..0x10000) as u16,
    }
}

fn random_piece(rng: &mut SplitMix64, out: &mut Vec<Piece>) {
    let upper = rng.gen_bool(0.5);
    match rng.gen_range(0..10) {
        0..=3 => {
            let len = rng.gen_range(1..12);
            out.push(Piece::Raw((0..len).map(|_| random_char(rng)).collect()));
        }
        4 | 5 => {
            let (text, c) = ESCAPES[rng.gen_range(0..ESCAPES.len())];
            out.push(Piece::Esc(text, c));
        }
        // A valid surrogate pair.
        6 => {
            let astral = rng.gen_range(0x10000..0x110000) as u32 - 0x10000;
            out.push(Piece::Unit(0xd800 + (astral >> 10) as u16, upper));
            out.push(Piece::Unit(0xdc00 + (astral & 0x3ff) as u16, upper));
        }
        // A high surrogate and whatever unit follows: the input class
        // the reference got wrong, whenever the second is no low half.
        7 => {
            out.push(Piece::Unit(rng.gen_range(0xd800..0xdc00) as u16, upper));
            out.push(Piece::Unit(random_unit(rng), !upper));
        }
        _ => out.push(Piece::Unit(random_unit(rng), upper)),
    }
}

fn random_case(rng: &mut SplitMix64) -> Case {
    let mut pieces = Vec::new();
    for _ in 0..rng.gen_range(0..24) {
        random_piece(rng, &mut pieces);
    }
    let breakage = match rng.gen_range(0..8) {
        0 => Some(Breakage::Insert {
            at: rng.gen_range(0..pieces.len() + 1),
            k: rng.gen_range(0..BREAKS.len()),
        }),
        1 => Some(Breakage::Cut {
            keep: rng.gen_range(1..64),
        }),
        _ => None,
    };
    Case { pieces, breakage }
}

impl Case {
    /// The JSON document: the pieces between quotes, then broken.
    fn doc(&self) -> String {
        let mut doc = String::from("\"");
        for (i, piece) in self.pieces.iter().enumerate() {
            if let Some(Breakage::Insert { at, k }) = self.breakage {
                if at == i {
                    doc.push_str(BREAKS[k]);
                }
            }
            match piece {
                Piece::Raw(s) => doc.push_str(s),
                Piece::Esc(text, _) => doc.push_str(text),
                Piece::Unit(u, true) => {
                    let _ = write!(doc, "\\u{u:04X}");
                }
                Piece::Unit(u, false) => {
                    let _ = write!(doc, "\\u{u:04x}");
                }
            }
        }
        match self.breakage {
            Some(Breakage::Insert { at, k }) if at >= self.pieces.len() => {
                doc.push_str(BREAKS[k]);
                doc.push('"');
            }
            Some(Breakage::Cut { keep }) => doc = doc.chars().take(keep).collect(),
            _ => doc.push('"'),
        }
        doc
    }

    /// What an unbroken literal spells: runs of adjacent `\u` escapes
    /// decode as `String::from_utf16_lossy` decodes their code units.
    fn spelled(&self) -> String {
        let mut out = String::new();
        let mut units = Vec::new();
        for piece in &self.pieces {
            if let Piece::Unit(u, _) = piece {
                units.push(*u);
                continue;
            }
            out.push_str(&String::from_utf16_lossy(&units));
            units.clear();
            match piece {
                Piece::Raw(s) => out.push_str(s),
                Piece::Esc(_, c) => out.push(*c),
                Piece::Unit(..) => unreachable!(),
            }
        }
        out.push_str(&String::from_utf16_lossy(&units));
        out
    }
}

fn shrink_case(case: &Case) -> Vec<Case> {
    let mut out: Vec<Case> = shrink_vec(&case.pieces, |_| Vec::new())
        .into_iter()
        .map(|pieces| Case {
            pieces,
            breakage: case.breakage.clone(),
        })
        .collect();
    if case.breakage.is_some() {
        out.push(Case {
            pieces: case.pieces.clone(),
            breakage: None,
        });
    }
    out
}

fn decode(doc: &str) -> Result<String, String> {
    match Json::parse(doc)? {
        Json::Str(s) => Ok(s),
        other => Err(format!("not a string: {other:?}")),
    }
}

// ---- the walls -----------------------------------------------------------

#[test]
fn decoder_matches_the_per_character_reference() {
    check(
        "jsonio-string-reader",
        4000,
        random_case,
        shrink_case,
        |case| {
            let doc = case.doc();
            let new = decode(&doc);
            match old_decode(&doc) {
                Err(e) if e == SURROGATE_BUG => {}
                old => ensure_eq(&new, &old).map_err(|e| format!("{doc:?}: {e}"))?,
            }
            if case.breakage.is_none() {
                ensure_eq(new, Ok(case.spelled())).map_err(|e| format!("{doc:?}: {e}"))?;
            }
            Ok(())
        },
    );
}

#[test]
fn the_corpus_reaches_every_class() {
    // The wall above only means something if its corpus holds literals
    // the reference decodes, literals it gets wrong, and broken ones.
    let (mut agreed, mut bug, mut errors) = (0, 0, 0);
    for seed in 0..4000 {
        let case = random_case(&mut SplitMix64::seed_from_u64(0x5eed + seed));
        match old_decode(&case.doc()) {
            Ok(_) => agreed += 1,
            Err(e) if e == SURROGATE_BUG => bug += 1,
            Err(_) => errors += 1,
        }
    }
    assert!(
        agreed >= 600 && bug >= 1000 && errors >= 300,
        "{agreed} decoded, {bug} surrogate-bug, {errors} errors"
    );
}

#[test]
fn escape_matches_the_per_character_reference() {
    let strings = |rng: &mut SplitMix64| -> String {
        let mut s = String::new();
        for _ in 0..rng.gen_range(0..40) {
            match rng.gen_range(0..5) {
                0 => s.push(['"', '\\', '\n', '\r', '\t'][rng.gen_range(0..5)]),
                1 => s.push(char::from(rng.gen_range(0..0x20) as u8)),
                _ => s.push(random_char(rng)),
            }
        }
        s
    };
    check(
        "jsonio-escape",
        4000,
        strings,
        |s: &String| {
            let chars: Vec<char> = s.chars().collect();
            shrink_vec(&chars, |_| Vec::new())
                .into_iter()
                .map(|cs| cs.into_iter().collect())
                .collect()
        },
        |s| {
            let escaped = escape(s);
            ensure_eq(&escaped, &old_escape(s))?;
            ensure(!escaped.bytes().any(|b| b < 0x20), || {
                format!("raw control byte in {escaped:?}")
            })?;
            ensure_eq(decode(&format!("\"{escaped}\"")), Ok(s.clone()))
        },
    );
}

#[test]
fn escape_round_trips_every_piece_of_the_corpus() {
    for seed in 0..500 {
        let case = random_case(&mut SplitMix64::seed_from_u64(seed));
        let text = case.spelled();
        let escaped = escape(&text);
        assert_eq!(escaped, old_escape(&text), "{text:?}");
        assert_eq!(decode(&format!("\"{escaped}\"")), Ok(text));
    }
}
