//! Concrete syntax for νSPI and its parser.
//!
//! ```text
//! P ::= 0                                   inert
//!     | E<E'>.P                             output
//!     | E(x).P                              input
//!     | P | P                               parallel ('|' binds loosest)
//!     | (new n) P                           restriction (also 'nu')
//!     | (hide n) P                          hiding (no extrusion)
//!     | [E is E'] P                         match
//!     | !P                                  replication
//!     | let (x, y) = E in P                 pair splitting
//!     | case E of 0: P, suc(x): P           integer case
//!     | case E of {x1,...,xk}:E' in P       decryption
//!     | (P)                                 grouping
//!
//! E ::= ident | 0 | 17                      names/variables, numerals
//!     | suc(E) | (E, E')                    successor, pair
//!     | {E1,...,Ek}:E0                      encryption (implicit confounder)
//!     | {E1,...,Ek, new r}:E0               encryption (explicit confounder)
//! ```
//!
//! Identifiers bound by `(new n)` or a confounder binder resolve to names;
//! identifiers bound by input, `let` or `case` resolve to variables; free
//! identifiers resolve to (public) names. Every binding occurrence gets its
//! own identity, so shadowing is handled without textual α-renaming. Labels
//! are minted fresh on every expression occurrence.
//!
//! Comments run from `--` or `//` to end of line.
//!
//! # Examples
//!
//! ```
//! use nuspi_syntax::parse_process;
//!
//! let p = parse_process("(new k) (c<{m, new r}:k>.0 | c(x). case x of {y}:k in d<y>.0)")?;
//! assert!(p.is_closed());
//! # Ok::<(), nuspi_syntax::ParseError>(())
//! ```

use crate::{builder, Expr, Name, Process, Term, Var};
use std::error::Error;
use std::fmt;

/// A parse failure: position and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending token in the source text.
    pub offset: usize,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column (in bytes) of the offending token.
    pub column: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl ParseError {
    fn new(offset: usize, message: String) -> ParseError {
        ParseError {
            offset,
            line: 0,
            column: 0,
            message,
        }
    }

    fn locate(mut self, src: &str) -> ParseError {
        let (line, column) = line_col(src, self.offset);
        self.line = line;
        self.column = column;
        self
    }
}

/// 1-based (line, column) of a byte offset.
fn line_col(src: &str, offset: usize) -> (usize, usize) {
    let prefix = &src.as_bytes()[..offset.min(src.len())];
    let line = 1 + prefix.iter().filter(|&&b| b == b'\n').count();
    let col = 1 + prefix.iter().rev().take_while(|&&b| b != b'\n').count();
    (line, col)
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl Error for ParseError {}

/// A token. Identifiers borrow their text from the source, so a token
/// is `Copy` and lexing allocates only the token vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Num(u32),
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Lt,
    Gt,
    Dot,
    Bang,
    Pipe,
    Comma,
    Colon,
    Eq,
    KwNew,
    KwHide,
    KwIs,
    KwLet,
    KwIn,
    KwCase,
    KwOf,
    KwSuc,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Num(n) => write!(f, "numeral `{n}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Pipe => write!(f, "`|`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::KwNew => write!(f, "`new`"),
            Tok::KwHide => write!(f, "`hide`"),
            Tok::KwIs => write!(f, "`is`"),
            Tok::KwLet => write!(f, "`let`"),
            Tok::KwIn => write!(f, "`in`"),
            Tok::KwCase => write!(f, "`case`"),
            Tok::KwOf => write!(f, "`of`"),
            Tok::KwSuc => write!(f, "`suc`"),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(Tok<'_>, usize)>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' | '/' if i + 1 < bytes.len() && bytes[i + 1] as char == c => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => push(&mut toks, Tok::LParen, &mut i),
            ')' => push(&mut toks, Tok::RParen, &mut i),
            '[' => push(&mut toks, Tok::LBracket, &mut i),
            ']' => push(&mut toks, Tok::RBracket, &mut i),
            '{' => push(&mut toks, Tok::LBrace, &mut i),
            '}' => push(&mut toks, Tok::RBrace, &mut i),
            '<' => push(&mut toks, Tok::Lt, &mut i),
            '>' => push(&mut toks, Tok::Gt, &mut i),
            '.' => push(&mut toks, Tok::Dot, &mut i),
            '!' => push(&mut toks, Tok::Bang, &mut i),
            '|' => push(&mut toks, Tok::Pipe, &mut i),
            ',' => push(&mut toks, Tok::Comma, &mut i),
            ':' => push(&mut toks, Tok::Colon, &mut i),
            '=' => push(&mut toks, Tok::Eq, &mut i),
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: u32 = src[start..i]
                    .parse()
                    .map_err(|_| ParseError::new(start, "numeral too large".into()))?;
                toks.push((Tok::Num(n), start));
            }
            _ if c.is_ascii_alphabetic() || c == '_' || c == '\'' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || matches!(c, '_' | '\'' | '#' | '$' | '*') {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let word = &src[start..i];
                let tok = match word {
                    "new" | "nu" => Tok::KwNew,
                    "hide" => Tok::KwHide,
                    "is" => Tok::KwIs,
                    "let" => Tok::KwLet,
                    "in" => Tok::KwIn,
                    "case" => Tok::KwCase,
                    "of" => Tok::KwOf,
                    "suc" => Tok::KwSuc,
                    _ => Tok::Ident(word),
                };
                toks.push((tok, start));
            }
            _ => return Err(ParseError::new(i, format!("unexpected character `{c}`"))),
        }
    }
    Ok(toks)
}

fn push<'a>(toks: &mut Vec<(Tok<'a>, usize)>, t: Tok<'a>, i: &mut usize) {
    toks.push((t, *i));
    *i += 1;
}

#[derive(Clone, Copy)]
enum Binding {
    Variable(Var),
    Restricted(Name),
}

struct Parser<'a> {
    toks: Vec<(Tok<'a>, usize)>,
    pos: usize,
    scope: Vec<(&'a str, Binding)>,
    src_len: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|&(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|&(_, o)| o)
            .unwrap_or(self.src_len)
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::new(self.offset(), message.into()))
    }

    fn expect(&mut self, want: Tok<'a>) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => self.err(format!("expected {want}, found {got}")),
            None => self.err(format!("expected {want}, found end of input")),
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => {
                self.pos -= 1;
                self.err(format!("expected identifier, found {t}"))
            }
            None => self.err("expected identifier, found end of input"),
        }
    }

    /// Resolves an identifier occurrence: innermost binding wins; unbound
    /// identifiers are free names (with an optional `#index` suffix as
    /// produced by the pretty-printer).
    fn resolve(&self, ident: &str) -> Term {
        for (bound, binding) in self.scope.iter().rev() {
            if *bound == ident {
                return match binding {
                    Binding::Variable(v) => Term::Var(*v),
                    Binding::Restricted(n) => Term::Name(*n),
                };
            }
        }
        Term::Name(parse_name_literal(ident))
    }

    /// Binds `ident` as a restricted name for the duration of `f`.
    /// Shadowed binders are freshened so distinct binding occurrences keep
    /// distinct identities while sharing the canonical base.
    fn with_name<T>(
        &mut self,
        ident: &'a str,
        f: impl FnOnce(&mut Parser<'a>, Name) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let base = parse_name_literal(ident);
        let shadowed = self.scope.iter().any(|(s, _)| *s == ident);
        let name = if shadowed { base.freshen() } else { base };
        self.scope.push((ident, Binding::Restricted(name)));
        let r = f(self, name);
        self.scope.pop();
        r
    }

    /// Binds `ident` as a variable for the duration of `f`.
    fn with_var<T>(
        &mut self,
        ident: &'a str,
        f: impl FnOnce(&mut Parser<'a>, Var) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let v = Var::fresh(ident);
        self.scope.push((ident, Binding::Variable(v)));
        let r = f(self, v);
        self.scope.pop();
        r
    }

    fn with_vars<T>(
        &mut self,
        idents: Vec<&'a str>,
        f: impl FnOnce(&mut Parser<'a>, Vec<Var>) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let vars: Vec<Var> = idents.iter().map(|&s| Var::fresh(s)).collect();
        for (&s, &v) in idents.iter().zip(&vars) {
            self.scope.push((s, Binding::Variable(v)));
        }
        let r = f(self, vars);
        for _ in &idents {
            self.scope.pop();
        }
        r
    }

    // ---- processes -------------------------------------------------------

    fn parse_par(&mut self) -> Result<Process, ParseError> {
        let mut p = self.parse_prefix()?;
        while self.peek() == Some(Tok::Pipe) {
            self.pos += 1;
            let q = self.parse_prefix()?;
            p = Process::Par(Box::new(p), Box::new(q));
        }
        Ok(p)
    }

    fn parse_prefix(&mut self) -> Result<Process, ParseError> {
        match self.peek() {
            Some(Tok::Bang) => {
                self.pos += 1;
                let p = self.parse_prefix()?;
                Ok(Process::Replicate(Box::new(p)))
            }
            Some(Tok::LBracket) => {
                self.pos += 1;
                let lhs = self.parse_expr()?;
                self.expect(Tok::KwIs)?;
                let rhs = self.parse_expr()?;
                self.expect(Tok::RBracket)?;
                let then = self.parse_prefix()?;
                Ok(Process::Match {
                    lhs,
                    rhs,
                    then: Box::new(then),
                })
            }
            Some(Tok::KwLet) => {
                self.pos += 1;
                self.expect(Tok::LParen)?;
                let a = self.expect_ident()?;
                self.expect(Tok::Comma)?;
                let b = self.expect_ident()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Eq)?;
                let expr = self.parse_expr()?;
                self.expect(Tok::KwIn)?;
                self.with_vars(vec![a, b], |p, vars| {
                    let then = p.parse_prefix()?;
                    Ok(Process::Let {
                        fst: vars[0],
                        snd: vars[1],
                        expr,
                        then: Box::new(then),
                    })
                })
            }
            Some(Tok::KwCase) => {
                self.pos += 1;
                let expr = self.parse_expr()?;
                self.expect(Tok::KwOf)?;
                match self.peek() {
                    Some(Tok::Num(0)) => {
                        self.pos += 1;
                        self.expect(Tok::Colon)?;
                        let zero = self.parse_prefix()?;
                        self.expect(Tok::Comma)?;
                        self.expect(Tok::KwSuc)?;
                        self.expect(Tok::LParen)?;
                        let x = self.expect_ident()?;
                        self.expect(Tok::RParen)?;
                        self.expect(Tok::Colon)?;
                        self.with_var(x, |p, pred| {
                            let succ = p.parse_prefix()?;
                            Ok(Process::CaseNat {
                                expr,
                                zero: Box::new(zero),
                                pred,
                                succ: Box::new(succ),
                            })
                        })
                    }
                    Some(Tok::LBrace) => {
                        self.pos += 1;
                        let mut idents = vec![self.expect_ident()?];
                        while self.peek() == Some(Tok::Comma) {
                            self.pos += 1;
                            idents.push(self.expect_ident()?);
                        }
                        self.expect(Tok::RBrace)?;
                        self.expect(Tok::Colon)?;
                        let key = self.parse_expr_atom()?;
                        self.expect(Tok::KwIn)?;
                        self.with_vars(idents, |p, vars| {
                            let then = p.parse_prefix()?;
                            Ok(Process::CaseDec {
                                expr,
                                vars,
                                key,
                                then: Box::new(then),
                            })
                        })
                    }
                    _ => self.err("expected `0:` or `{x,...}:` after `of`"),
                }
            }
            Some(Tok::LParen) => {
                // Restriction, parenthesized process, or a pair expression
                // opening an output/input prefix.
                if self.toks.get(self.pos + 1).map(|&(t, _)| t) == Some(Tok::KwNew) {
                    self.pos += 2;
                    let ident = self.expect_ident()?;
                    self.expect(Tok::RParen)?;
                    return self.with_name(ident, |p, name| {
                        let body = p.parse_prefix()?;
                        Ok(Process::Restrict {
                            name,
                            body: Box::new(body),
                        })
                    });
                }
                if self.toks.get(self.pos + 1).map(|&(t, _)| t) == Some(Tok::KwHide) {
                    self.pos += 2;
                    let ident = self.expect_ident()?;
                    self.expect(Tok::RParen)?;
                    return self.with_name(ident, |p, name| {
                        let body = p.parse_prefix()?;
                        Ok(Process::Hide {
                            name,
                            body: Box::new(body),
                        })
                    });
                }
                let save = self.pos;
                // Try an expression-headed prefix first: `(a,b)<m>.P`.
                if let Ok(chan) = self.parse_expr() {
                    if matches!(self.peek(), Some(Tok::Lt) | Some(Tok::LParen)) {
                        return self.parse_prefix_after_chan(chan);
                    }
                }
                self.pos = save;
                self.pos += 1; // consume '('
                let p = self.parse_par()?;
                self.expect(Tok::RParen)?;
                Ok(p)
            }
            Some(Tok::Num(0)) => {
                // Either the inert process or an output/input on channel 0.
                let save = self.pos;
                self.pos += 1;
                match self.peek() {
                    Some(Tok::Lt) | Some(Tok::LParen) => {
                        self.pos = save;
                        let chan = self.parse_expr()?;
                        self.parse_prefix_after_chan(chan)
                    }
                    _ => Ok(Process::Nil),
                }
            }
            Some(_) => {
                let chan = self.parse_expr()?;
                self.parse_prefix_after_chan(chan)
            }
            None => self.err("expected a process, found end of input"),
        }
    }

    fn parse_prefix_after_chan(&mut self, chan: Expr) -> Result<Process, ParseError> {
        match self.peek() {
            Some(Tok::Lt) => {
                self.pos += 1;
                let msg = self.parse_expr()?;
                self.expect(Tok::Gt)?;
                self.expect(Tok::Dot)?;
                let then = self.parse_prefix()?;
                Ok(Process::Output {
                    chan,
                    msg,
                    then: Box::new(then),
                })
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let x = self.expect_ident()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Dot)?;
                self.with_var(x, |p, var| {
                    let then = p.parse_prefix()?;
                    Ok(Process::Input {
                        chan,
                        var,
                        then: Box::new(then),
                    })
                })
            }
            _ => self.err("expected `<` (output) or `(` (input) after channel expression"),
        }
    }

    // ---- expressions -----------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_expr_atom()
    }

    fn parse_expr_atom(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(Expr::new(self.resolve(s))),
            Some(Tok::Num(n)) => Ok(builder::numeral(n)),
            Some(Tok::KwSuc) => {
                self.expect(Tok::LParen)?;
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(builder::suc(e))
            }
            Some(Tok::LParen) => {
                let a = self.parse_expr()?;
                self.expect(Tok::Comma)?;
                let b = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(builder::pair(a, b))
            }
            Some(Tok::LBrace) => {
                let mut payload = Vec::new();
                let mut confounder = None;
                loop {
                    if self.peek() == Some(Tok::KwNew) {
                        self.pos += 1;
                        confounder = Some(self.expect_ident()?);
                        break;
                    }
                    payload.push(self.parse_expr()?);
                    match self.peek() {
                        Some(Tok::Comma) => {
                            self.pos += 1;
                        }
                        _ => break,
                    }
                }
                self.expect(Tok::RBrace)?;
                self.expect(Tok::Colon)?;
                let key = self.parse_expr_atom()?;
                match confounder {
                    Some(ident) => Ok(builder::enc(payload, parse_name_literal(ident), key)),
                    None => Ok(builder::enc_auto(payload, key)),
                }
            }
            Some(t) => {
                self.pos -= 1;
                self.err(format!("expected an expression, found {t}"))
            }
            None => self.err("expected an expression, found end of input"),
        }
    }
}

/// Parses a name literal, honouring a `#index` suffix produced by the
/// pretty-printer for freshened names.
fn parse_name_literal(ident: &str) -> Name {
    if let Some((base, idx)) = ident.rsplit_once('#') {
        if let Ok(i) = idx.parse::<u32>() {
            return Name::with_index(base, i);
        }
    }
    Name::global(ident)
}

/// Parses a complete process from `src`.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the first offending token if the
/// input is not a well-formed process, or if trailing input remains.
pub fn parse_process(src: &str) -> Result<Process, ParseError> {
    parse_process_inner(src).map_err(|e| e.locate(src))
}

fn parse_process_inner(src: &str) -> Result<Process, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        scope: Vec::new(),
        src_len: src.len(),
    };
    let proc = p.parse_par()?;
    if p.pos != p.toks.len() {
        return p.err("trailing input after process");
    }
    Ok(proc)
}

/// Parses a single closed expression from `src` (free identifiers become
/// names).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed or trailing input.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    parse_expr_inner(src).map_err(|e| e.locate(src))
}

fn parse_expr_inner(src: &str) -> Result<Expr, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        scope: Vec::new(),
        src_len: src.len(),
    };
    let e = p.parse_expr()?;
    if p.pos != p.toks.len() {
        return p.err("trailing input after expression");
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Process, Term};

    fn ok(src: &str) -> Process {
        parse_process(src).unwrap_or_else(|e| panic!("{src}: {e}"))
    }

    #[test]
    fn parses_nil() {
        assert_eq!(ok("0"), Process::Nil);
    }

    #[test]
    fn parses_output_and_input() {
        let p = ok("c<0>.0");
        assert!(matches!(p, Process::Output { .. }));
        let q = ok("c(x).0");
        assert!(matches!(q, Process::Input { .. }));
    }

    #[test]
    fn parses_par_left_assoc() {
        let p = ok("0 | 0 | 0");
        match p {
            Process::Par(l, _) => assert!(matches!(*l, Process::Par(_, _))),
            other => panic!("expected Par, got {other:?}"),
        }
    }

    #[test]
    fn parses_restriction() {
        let p = ok("(new k) c<k>.0");
        match p {
            Process::Restrict { name, .. } => assert_eq!(name.canonical().as_str(), "k"),
            other => panic!("expected Restrict, got {other:?}"),
        }
    }

    #[test]
    fn restriction_scopes_tighter_than_par() {
        let p = ok("(new k) c<k>.0 | d<0>.0");
        assert!(matches!(p, Process::Par(_, _)));
    }

    #[test]
    fn input_binds_variable() {
        let p = ok("c(x).d<x>.0");
        assert!(p.is_closed());
        match p {
            Process::Input { then, .. } => match *then {
                Process::Output { msg, .. } => assert!(matches!(msg.term, Term::Var(_))),
                other => panic!("expected Output, got {other:?}"),
            },
            other => panic!("expected Input, got {other:?}"),
        }
    }

    #[test]
    fn free_identifier_is_a_name() {
        let p = ok("c<m>.0");
        match p {
            Process::Output { msg, .. } => assert!(matches!(msg.term, Term::Name(_))),
            other => panic!("expected Output, got {other:?}"),
        }
    }

    #[test]
    fn parses_match() {
        let p = ok("[0 is 0] c<0>.0");
        assert!(matches!(p, Process::Match { .. }));
    }

    #[test]
    fn parses_replication() {
        assert!(matches!(ok("!c<0>.0"), Process::Replicate(_)));
    }

    #[test]
    fn parses_let() {
        let p = ok("let (x, y) = (0, 0) in c<x>.d<y>.0");
        assert!(p.is_closed());
        assert!(matches!(p, Process::Let { .. }));
    }

    #[test]
    fn parses_case_nat() {
        let p = ok("case suc(0) of 0: 0, suc(x): c<x>.0");
        assert!(p.is_closed());
        assert!(matches!(p, Process::CaseNat { .. }));
    }

    #[test]
    fn parses_decryption() {
        let p = ok("case x0 of {y, z}:k in c<y>.0");
        assert!(matches!(p, Process::CaseDec { ref vars, .. } if vars.len() == 2));
    }

    #[test]
    fn parses_encryption_with_explicit_confounder() {
        let p = ok("c<{m, new r}:k>.0");
        match p {
            Process::Output { msg, .. } => match msg.term {
                Term::Enc {
                    payload,
                    confounder,
                    ..
                } => {
                    assert_eq!(payload.len(), 1);
                    assert_eq!(confounder.canonical().as_str(), "r");
                }
                other => panic!("expected Enc, got {other:?}"),
            },
            other => panic!("expected Output, got {other:?}"),
        }
    }

    #[test]
    fn parses_encryption_with_implicit_confounder() {
        let p = ok("c<{m}:k>.0");
        match p {
            Process::Output { msg, .. } => assert!(matches!(msg.term, Term::Enc { .. })),
            other => panic!("expected Output, got {other:?}"),
        }
    }

    #[test]
    fn numerals_desugar_to_suc() {
        let p = ok("c<2>.0");
        match p {
            Process::Output { msg, .. } => assert!(matches!(msg.term, Term::Suc(_))),
            other => panic!("expected Output, got {other:?}"),
        }
    }

    #[test]
    fn pair_channel_prefix() {
        let p = ok("(a, b)<0>.0");
        match p {
            Process::Output { chan, .. } => assert!(matches!(chan.term, Term::Pair(_, _))),
            other => panic!("expected Output, got {other:?}"),
        }
    }

    #[test]
    fn shadowed_restriction_freshens() {
        let p = ok("(new n) ((new n) c<n>.0 | d<n>.0)");
        // The two binders must have distinct identities.
        fn collect(p: &Process, out: &mut Vec<Name>) {
            if let Process::Restrict { name, body } = p {
                out.push(*name);
                collect(body, out);
            } else if let Process::Par(a, b) = p {
                collect(a, out);
                collect(b, out);
            }
        }
        let mut binders = Vec::new();
        collect(&p, &mut binders);
        assert_eq!(binders.len(), 2);
        assert_ne!(binders[0], binders[1]);
        assert_eq!(binders[0].canonical(), binders[1].canonical());
    }

    #[test]
    fn nested_shadowing_variables() {
        let p = ok("c(x).c(x).d<x>.0");
        assert!(p.is_closed());
    }

    #[test]
    fn comments_are_skipped() {
        let p = ok("-- a comment\nc<0>.0 // trailing");
        assert!(matches!(p, Process::Output { .. }));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_process("c<0>.").is_err());
        assert!(parse_process("@").is_err());
        assert!(parse_process("c<0>.0 extra").is_err());
    }

    #[test]
    fn error_positions_point_into_source() {
        let e = parse_process("c<0>?").unwrap_err();
        assert_eq!(e.offset, 4);
        assert_eq!((e.line, e.column), (1, 5));
    }

    #[test]
    fn error_positions_track_lines() {
        let e = parse_process(
            "c<0>.
0 |
  ?",
        )
        .unwrap_err();
        assert_eq!((e.line, e.column), (3, 3));
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn wmf_shape_parses() {
        let src = "
            (new kAS) (new kBS) (
              ((new kAB) cAS<{kAB, new r1}:kAS>. cAB<{m, new r2}:kAB>.0
               | cBS(t). case t of {y}:kBS in cAB(z). case z of {q}:y in 0)
              | cAS(x). case x of {s}:kAS in cBS<{s, new r3}:kBS>.0
            )";
        let p = ok(src);
        assert!(p.is_closed());
    }

    #[test]
    fn print_parse_round_trip() {
        for src in [
            "c<0>.0",
            "(new k) (c<{m, new r}:k>.0 | c(x).0)",
            "let (x, y) = (a, b) in c<x>.c<y>.0",
            "case 3 of 0: 0, suc(x): c<x>.0",
            "case e of {x}:k in c<x>.0",
            "!c(x).d<x>.0",
            "[a is b] c<0>.0",
        ] {
            let p = ok(src);
            let printed = p.to_string();
            let q = ok(&printed);
            // Structural shape survives (labels/var-ids differ).
            assert_eq!(p.size(), q.size(), "{src} -> {printed}");
            assert_eq!(
                p.free_names().len(),
                q.free_names().len(),
                "{src} -> {printed}"
            );
        }
    }

    #[test]
    fn parse_expr_works() {
        let e = parse_expr("(suc(0), {m}:k)").unwrap();
        assert!(matches!(e.term, Term::Pair(_, _)));
        assert!(parse_expr("(a,)").is_err());
    }
}
