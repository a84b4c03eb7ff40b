//! # nuspi-syntax — syntax of the νSPI-calculus
//!
//! The νSPI-calculus (Bodei, Degano, Nielson & Riis Nielson, *Static
//! Analysis for Secrecy and Non-interference in Networks of Processes*,
//! PACT 2001) is a call-by-value spi-calculus in which every encryption
//! generates a fresh *confounder*, modelling symmetric cryptosystems that
//! randomise each ciphertext (e.g. DES in a chained mode with a random IV).
//!
//! This crate provides:
//!
//! * interned [`Symbol`]s, stable [`Name`]s (`⌊aᵢ⌋`-style canonical
//!   representatives), binder-unique [`Var`]iables and program-point
//!   [`Label`]s;
//! * the full labelled AST of Definition 1: [`Expr`], [`Term`],
//!   [`Process`], and concrete [`Value`]s;
//! * one traversal of that AST: the shallow accessor
//!   [`Process::parts`], which pairs each child with its [`Binder`], and
//!   the binder-aware [`Rewrite`];
//! * a [`builder`] DSL, a concrete-syntax [parser](parse_process) and a
//!   pretty-printer ([`std::fmt::Display`] on every node).
//!
//! # Examples
//!
//! ```
//! use nuspi_syntax::parse_process;
//!
//! // A sends m under k; B decrypts and forwards on d.
//! let p = parse_process(
//!     "(new k) (c<{m, new r}:k>.0 | c(x). case x of {y}:k in d<y>.0)",
//! )?;
//! assert!(p.is_closed());
//! assert_eq!(p.free_names().len(), 3); // c, m, d
//! # Ok::<(), nuspi_syntax::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alpha;
mod ast;
pub mod builder;
mod intern;
mod label;
mod name;
mod parser;
mod print;
mod stable_hash;
mod traverse;
mod value;
mod var;

pub use alpha::{alpha_equivalent, alpha_hash, canonical_digest};
pub use ast::{Expr, Process, Term};
pub use intern::Symbol;
pub use label::Label;
pub use name::Name;
pub use parser::{parse_expr, parse_process, ParseError, MAX_DEPTH};
pub use stable_hash::{Digest128, StableHasher, StableHasher128};
pub use traverse::{Binder, Part, Rewrite};
pub use value::Value;
pub use var::Var;
