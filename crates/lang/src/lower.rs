//! Static lowering from the surface AST into a νSPI process.
//!
//! The translation walks each statement sequence *iteratively*, pushing
//! one process wrapper per statement and folding the wrappers over the
//! lowered tail — so a flat million-statement program costs no call
//! stack. Recursion happens only for *nesting* (branch bodies, loop
//! bodies, inlined callees), which the parser bounds at `MAX_DEPTH`
//! levels and the lowering bounds at [`MAX_INLINE_DEPTH`] inlined calls.
//!
//! - `x := make(chan)` mints a νSPI name for the channel. Ordinary
//!   channels are `new`-restricted and declared policy-secret (an
//!   internal channel is not an observable); `//nuspi::sink::{}`
//!   channels stay *free* under the bare surface identifier — a free
//!   public name is exactly what the analysis treats as
//!   attacker-observable.
//! - `//nuspi::label::{high}` / `//nuspi::secret` declarations mint a
//!   restricted, policy-secret name and bind the identifier to it; the
//!   initializer (if any) is checked for undeclared variables but the
//!   annotation overrides its value. Graded labels
//!   (`//nuspi::label::{conf:secret,integ:tainted}`) mint a restricted
//!   name carrying a diamond-lattice level instead of a bare secret
//!   entry, and `//nuspi::hide` declarations are bound by `hide` —
//!   secret by construction, with no policy entry at all.
//! - `ch <- e` / `x := <-ch` become `Output` / `Input`.
//! - `if` becomes `CaseNat`. The statement-level continuation is
//!   lowered exactly *once* and sequenced behind a fresh restricted
//!   **join channel**: each branch ends by signalling the join, and the
//!   continuation runs guarded by one input on it
//!   (`case … then.j⟨0⟩ else.j⟨0⟩ | j(_).rest`). Duplicating the
//!   continuation into both branches instead would make N sequential
//!   `if`s lower to a 2^N-size process.
//! - `for { … }` becomes a replicated body in parallel with the
//!   continuation, `go f(…)` runs the callee in parallel.
//! - Calls are inlined (the callee body is lowered at each call site
//!   with parameters bound to the lowered arguments) behind the same
//!   join discipline, so the statements after a call are also lowered
//!   once. Recursion is a structured error, so inlining terminates —
//!   but a DAG of functions that each call the next twice still doubles
//!   per level, so the total lowered size is capped at
//!   [`MAX_LOWERED_STMTS`] statements and overruns are structured
//!   [`LangError`]s, matching the parser's totality guarantee.
//!
//! Minted names are mangled by **declaration order** (`main.x`,
//! `main.x.2`, …), never by line/column — so a formatting-only edit
//! lowers to an α-digest-identical process, which is what the engine's
//! cache keys on. Every surface-declared name is recorded in the
//! [`SourceMap`]; join channels (`main.#seq`, …) are internal plumbing:
//! restricted but neither policy-secret nor mapped, so they can never
//! surface in a verdict or weaken a policy.

use crate::ast::{Call, Expr, ExprKind, FuncDecl, Program, Stmt, StmtKind};
use crate::error::LangError;
use crate::srcmap::{Role, Site, SourceMap};
use crate::token::{AnnKind, Pos};
use nuspi_syntax::{builder as b, Expr as SpiExpr, Name, Process, Var};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Numerals larger than this lower to the capped numeral: magnitude is
/// irrelevant to information flow, and unbounded `suc` chains would let
/// a literal blow up the process size.
const NUMERAL_CAP: u64 = 8;

/// Deepest chain of inlined calls. Recursion is already rejected, but a
/// long `f1 → f2 → … → fN` chain would otherwise recurse one lowering
/// frame per hop; past this depth the call is a structured error.
const MAX_INLINE_DEPTH: usize = 64;

/// Total statements the lowering will expand (inlined callee bodies
/// count once per call site). This bounds both the lowered process's
/// size and its depth, keeping every downstream consumer — digesting,
/// linting, solving, all recursive over the term — safely within stack
/// budgets no matter what source arrives over the wire (the check
/// driver moves large programs onto a dedicated wide-stack thread, and
/// this cap is what makes "large" finite).
const MAX_LOWERED_STMTS: usize = 5_000;

/// The result of lowering a program.
#[derive(Debug)]
pub struct Lowered {
    /// The νSPI process.
    pub process: Process,
    /// Canonical base names that are policy-secret, sorted.
    pub secrets: Vec<String>,
    /// Graded declarations `(base, conf, integ)` on the 4-point diamond
    /// lattice, sorted by base. Empty for binary-lattice programs.
    pub graded: Vec<(String, String, String)>,
    /// Declaration sites for every minted name.
    pub sites: BTreeMap<String, Site>,
    /// Statements expanded during lowering — an upper bound on the
    /// process's size *and* depth (≤ [`MAX_LOWERED_STMTS`]), which the
    /// check driver uses to decide whether analysis needs a wide stack.
    pub stmts: usize,
}

impl Lowered {
    /// Packages the sites as a [`SourceMap`] for `file`.
    pub fn source_map(&self, file: &str) -> SourceMap {
        SourceMap {
            file: file.to_owned(),
            sites: self.sites.clone(),
        }
    }
}

/// What a surface identifier is bound to during lowering.
#[derive(Clone)]
enum Binding {
    /// A channel: a νSPI name usable as a subject of send/receive.
    Chan(Name),
    /// A value: substituted (cloned) at each use site.
    Val(SpiExpr),
    /// A process-level variable bound by an `Input`.
    BoundVar(Var),
}

/// One lexical frame: the visible bindings plus the call stack used for
/// recursion detection. Cheap to clone (the stack is shared).
#[derive(Clone)]
struct Scope {
    vars: HashMap<String, Binding>,
    func: Arc<str>,
    stack: Arc<Vec<Arc<str>>>,
}

/// What runs after the current statement sequence finishes: nothing, or
/// a completion signal on a join channel (see [`signal`]).
#[derive(Clone, Copy)]
enum Cont {
    /// Nothing left: the inert process.
    Done,
    /// Signal the join channel that sequences this body before its
    /// continuation.
    Join(Name),
}

/// The process a finished sequence ends in.
fn signal(cont: Cont) -> Process {
    match cont {
        Cont::Done => b::nil(),
        Cont::Join(j) => b::output(b::name_expr(j), b::zero(), b::nil()),
    }
}

struct Ctx<'a> {
    funcs: HashMap<&'a str, &'a FuncDecl>,
    /// Declaration counters keyed by `func.ident`, for stable mangling.
    counters: HashMap<String, u32>,
    /// Minted names to hoist as `new`-restrictions, in mint order.
    restricted: Vec<Name>,
    /// Minted names to hoist as `hide` binders, in mint order.
    hidden: Vec<Name>,
    secrets: Vec<String>,
    /// Graded declarations: `(base, conf label, integ label)`.
    graded: Vec<(String, String, String)>,
    sites: BTreeMap<String, Site>,
    /// Statements expanded so far, against [`MAX_LOWERED_STMTS`].
    lowered_stmts: usize,
}

/// Lowers a parsed program. `main` is the entry point; every failure
/// (no `main`, undeclared identifiers, channel misuse, recursion,
/// arity mismatches, over-budget expansion) is a structured
/// [`LangError`].
pub fn lower(program: &Program) -> Result<Lowered, LangError> {
    let mut funcs: HashMap<&str, &FuncDecl> = HashMap::new();
    for f in &program.funcs {
        if funcs.insert(f.name.as_str(), f).is_some() {
            return Err(LangError::new(
                f.pos,
                format!("function `{}` is declared twice", f.name),
            ));
        }
    }
    let main = *funcs
        .get("main")
        .ok_or_else(|| LangError::new(Pos::new(1, 1), "no `func main()` found".to_owned()))?;
    if !main.params.is_empty() {
        return Err(LangError::new(
            main.pos,
            "`main` takes no parameters".to_owned(),
        ));
    }
    let mut ctx = Ctx {
        funcs,
        counters: HashMap::new(),
        restricted: Vec::new(),
        hidden: Vec::new(),
        secrets: Vec::new(),
        graded: Vec::new(),
        sites: BTreeMap::new(),
        lowered_stmts: 0,
    };
    let name: Arc<str> = Arc::from("main");
    let scope = Scope {
        vars: HashMap::new(),
        func: name.clone(),
        stack: Arc::new(vec![name]),
    };
    let body = lower_seq(&mut ctx, &main.body.stmts, scope, Cont::Done)?;
    // `hide` binders sit inside the `new` prefix; for hide-free programs
    // `hide_all` is the identity, so their lowering is byte-unchanged.
    let process = b::restrict_all(ctx.restricted, b::hide_all(ctx.hidden, body));
    let mut secrets = ctx.secrets;
    secrets.sort();
    secrets.dedup();
    let mut graded = ctx.graded;
    graded.sort();
    Ok(Lowered {
        process,
        secrets,
        graded,
        sites: ctx.sites,
        stmts: ctx.lowered_stmts,
    })
}

impl<'a> Ctx<'a> {
    /// Mints a bound name for a declaration of `ident` in `func`,
    /// mangled by declaration order. Ordinary declarations are
    /// `new`-restricted and policy-secret; graded declarations are
    /// restricted but carry a lattice level instead of a bare secret
    /// entry; `hide` declarations are hide-bound and need *no* policy
    /// entry — the binder itself makes them secret.
    fn mint(&mut self, func: &str, ident: &str, ann: &Classified, pos: Pos) -> Name {
        let key = format!("{func}.{ident}");
        let n = self.counters.entry(key.clone()).or_insert(0);
        *n += 1;
        let base = if *n == 1 { key } else { format!("{key}.{n}") };
        let name = Name::global(base.as_str());
        if ann.role() == Role::Hidden {
            self.hidden.push(name);
        } else {
            self.restricted.push(name);
            match &ann.graded {
                Some((conf, integ)) => {
                    self.graded
                        .push((base.clone(), conf.clone(), integ.clone()))
                }
                None => self.secrets.push(base.clone()),
            }
        }
        self.sites.insert(
            base,
            Site {
                ident: ident.to_owned(),
                role: ann.role(),
                label: ann.label.clone(),
                line: pos.line,
                col: pos.col,
            },
        );
        name
    }

    /// Mints a restricted join channel for sequencing in `func`. The
    /// `#seq` segment cannot be written in the surface language, so
    /// joins never collide with user declarations; they carry only the
    /// public completion signal `0`, so they are *not* policy secrets
    /// and get no source-map site.
    fn mint_join(&mut self, func: &str) -> Name {
        let key = format!("{func}.#seq");
        let n = self.counters.entry(key.clone()).or_insert(0);
        *n += 1;
        let base = if *n == 1 { key } else { format!("{key}.{n}") };
        let name = Name::global(base.as_str());
        self.restricted.push(name);
        name
    }

    /// A sink channel: the bare surface identifier as a *free* νSPI
    /// name. Re-declaring the same sink reuses the name (sinks are
    /// global observables); the first declaration site wins.
    fn sink(&mut self, ident: &str, pos: Pos) -> Name {
        self.sites.entry(ident.to_owned()).or_insert(Site {
            ident: ident.to_owned(),
            role: Role::Sink,
            label: None,
            line: pos.line,
            col: pos.col,
        });
        Name::global(ident)
    }

    /// Accounts one expanded statement against [`MAX_LOWERED_STMTS`].
    fn spend(&mut self, pos: Pos) -> Result<(), LangError> {
        self.lowered_stmts += 1;
        if self.lowered_stmts > MAX_LOWERED_STMTS {
            return Err(LangError::new(
                pos,
                format!(
                    "program expands to more than {MAX_LOWERED_STMTS} lowered statements \
                     (inlined calls repeat callee bodies); split the program up"
                ),
            ));
        }
        Ok(())
    }
}

/// The declaration classification a statement's annotations give it.
struct Classified {
    /// `//nuspi::sink::{}` was present.
    sink: bool,
    /// The origin role an annotation declares, if any.
    origin: Option<Role>,
    /// The label as written (for anchors and messages).
    label: Option<String>,
    /// The diamond-lattice grading, when the label was graded.
    graded: Option<(String, String)>,
}

impl Classified {
    /// The role a minted declaration gets: the annotated origin role,
    /// or `Channel` plumbing.
    fn role(&self) -> Role {
        self.origin.unwrap_or(Role::Channel)
    }
}

fn classify(s: &Stmt) -> Classified {
    let mut c = Classified {
        sink: false,
        origin: None,
        label: None,
        graded: None,
    };
    for a in &s.annotations {
        match &a.kind {
            AnnKind::Sink => c.sink = true,
            AnnKind::Secret => c.origin = Some(Role::Secret),
            AnnKind::Hide => c.origin = Some(Role::Hidden),
            AnnKind::Label(l) => {
                c.origin = Some(Role::High);
                c.label = Some(l.clone());
            }
            AnnKind::Graded { conf, integ } => {
                c.origin = Some(Role::High);
                c.label = Some(format!("conf:{conf},integ:{integ}"));
                c.graded = Some((conf.clone(), integ.clone()));
            }
        }
    }
    c
}

/// One process layer contributed by a single statement; collected
/// front-to-back, folded back-to-front over the lowered tail.
enum Wrap {
    /// `chan(var). ⟨tail⟩`
    Recv { chan: Name, var: Var },
    /// `chan⟨msg⟩. ⟨tail⟩`
    Send { chan: Name, msg: SpiExpr },
    /// `spawned | ⟨tail⟩` — a `for` replication or a `go` call.
    Spawn(Process),
    /// `body | join(_). ⟨tail⟩` — an `if` or an inlined call whose
    /// every path signals `join` exactly once, so the tail is lowered
    /// (and sized) once no matter how many paths reach it.
    Join { join: Name, body: Process },
}

fn lower_seq<'a>(
    ctx: &mut Ctx<'a>,
    stmts: &'a [Stmt],
    mut scope: Scope,
    cont: Cont,
) -> Result<Process, LangError> {
    let mut wraps: Vec<Wrap> = Vec::new();
    let mut stmts = stmts;
    // Iterative over the flat sequence: the loop recurses only into
    // nested bodies, never into the statements that follow.
    while let Some((s, rest)) = stmts.split_first() {
        stmts = rest;
        ctx.spend(s.pos)?;
        let ann = classify(s);
        match &s.kind {
            StmtKind::MakeChan { name } => {
                let chan = if ann.sink {
                    ctx.sink(name, s.pos)
                } else {
                    ctx.mint(&scope.func.clone(), name, &ann, s.pos)
                };
                scope.vars.insert(name.clone(), Binding::Chan(chan));
            }
            StmtKind::Let { name, value } => {
                let binding = match ann.origin {
                    Some(_) => {
                        // Check the initializer for undeclared identifiers,
                        // then let the annotation override its value.
                        check_expr(&scope, value)?;
                        let n = ctx.mint(&scope.func.clone(), name, &ann, s.pos);
                        Binding::Val(b::name_expr(n))
                    }
                    None => Binding::Val(lower_expr(&scope, value)?),
                };
                scope.vars.insert(name.clone(), binding);
            }
            StmtKind::Recv {
                name,
                chan,
                chan_pos,
            } => {
                let ch = channel(&scope, chan, *chan_pos)?;
                let v = Var::fresh(name.as_str());
                let binding = match ann.origin {
                    Some(_) => {
                        let n = ctx.mint(&scope.func.clone(), name, &ann, s.pos);
                        Binding::Val(b::name_expr(n))
                    }
                    None => Binding::BoundVar(v),
                };
                scope.vars.insert(name.clone(), binding);
                wraps.push(Wrap::Recv { chan: ch, var: v });
            }
            StmtKind::Send {
                chan,
                chan_pos,
                value,
            } => {
                let ch = channel(&scope, chan, *chan_pos)?;
                let msg = lower_expr(&scope, value)?;
                wraps.push(Wrap::Send { chan: ch, msg });
            }
            StmtKind::If { cond, then, els } => {
                let c = lower_expr(&scope, cond)?;
                let join = ctx.mint_join(&scope.func.clone());
                let then_p = lower_seq(ctx, &then.stmts, scope.clone(), Cont::Join(join))?;
                let else_p = match els {
                    Some(e) => lower_seq(ctx, &e.stmts, scope.clone(), Cont::Join(join))?,
                    None => signal(Cont::Join(join)),
                };
                wraps.push(Wrap::Join {
                    join,
                    body: b::case_nat(c, else_p, Var::fresh("_pred"), then_p),
                });
            }
            StmtKind::Loop { body } => {
                let body_p = lower_seq(ctx, &body.stmts, scope.clone(), Cont::Done)?;
                wraps.push(Wrap::Spawn(b::replicate(body_p)));
            }
            StmtKind::Go { call } => {
                let spawned = lower_call(ctx, call, &scope, Cont::Done)?;
                wraps.push(Wrap::Spawn(spawned));
            }
            StmtKind::Call(call) => {
                let join = ctx.mint_join(&scope.func.clone());
                let body = lower_call(ctx, call, &scope, Cont::Join(join))?;
                wraps.push(Wrap::Join { join, body });
            }
        }
    }
    let mut p = signal(cont);
    for w in wraps.into_iter().rev() {
        p = match w {
            Wrap::Recv { chan, var } => b::input(b::name_expr(chan), var, p),
            Wrap::Send { chan, msg } => b::output(b::name_expr(chan), msg, p),
            Wrap::Spawn(q) => b::par(q, p),
            Wrap::Join { join, body } => {
                b::par(body, b::input(b::name_expr(join), Var::fresh("_join"), p))
            }
        };
    }
    Ok(p)
}

fn lower_call<'a>(
    ctx: &mut Ctx<'a>,
    call: &'a Call,
    caller: &Scope,
    cont: Cont,
) -> Result<Process, LangError> {
    let callee = *ctx.funcs.get(call.func.as_str()).ok_or_else(|| {
        LangError::new(
            call.pos,
            format!("call to undefined function `{}`", call.func),
        )
    })?;
    if caller.stack.iter().any(|f| f.as_ref() == call.func) {
        return Err(LangError::new(
            call.pos,
            format!(
                "recursive call to `{}` (calls are inlined; recursion is not supported)",
                call.func
            ),
        ));
    }
    if caller.stack.len() >= MAX_INLINE_DEPTH {
        return Err(LangError::new(
            call.pos,
            format!("calls inlined deeper than {MAX_INLINE_DEPTH} levels"),
        ));
    }
    if call.args.len() != callee.params.len() {
        return Err(LangError::new(
            call.pos,
            format!(
                "`{}` takes {} argument(s), {} given",
                call.func,
                callee.params.len(),
                call.args.len()
            ),
        ));
    }
    let mut vars = HashMap::new();
    for ((param, _), arg) in callee.params.iter().zip(&call.args) {
        // A bare identifier argument passes its binding through, so a
        // channel stays a channel in the callee.
        let binding = match &arg.kind {
            ExprKind::Var(x) => match caller.vars.get(x) {
                Some(binding) => binding.clone(),
                None => {
                    return Err(LangError::new(
                        arg.pos,
                        format!("undeclared identifier `{x}`"),
                    ))
                }
            },
            _ => Binding::Val(lower_expr(caller, arg)?),
        };
        vars.insert(param.clone(), binding);
    }
    let fname: Arc<str> = Arc::from(call.func.as_str());
    let mut stack = caller.stack.as_ref().clone();
    stack.push(fname.clone());
    let callee_scope = Scope {
        vars,
        func: fname,
        stack: Arc::new(stack),
    };
    lower_seq(ctx, &callee.body.stmts, callee_scope, cont)
}

/// Resolves `ident` to a channel name, or errors.
fn channel(scope: &Scope, ident: &str, pos: Pos) -> Result<Name, LangError> {
    match scope.vars.get(ident) {
        Some(Binding::Chan(n)) => Ok(*n),
        Some(_) => Err(LangError::new(
            pos,
            format!("`{ident}` is not a channel (declared without `make(chan)`)"),
        )),
        None => Err(LangError::new(pos, format!("undeclared channel `{ident}`"))),
    }
}

fn lower_expr(scope: &Scope, e: &Expr) -> Result<SpiExpr, LangError> {
    match &e.kind {
        ExprKind::Var(x) => match scope.vars.get(x) {
            Some(Binding::Chan(n)) => Ok(b::name_expr(*n)),
            Some(Binding::Val(v)) => Ok(v.clone()),
            Some(Binding::BoundVar(v)) => Ok(b::var(*v)),
            None => Err(LangError::new(
                e.pos,
                format!("undeclared identifier `{x}`"),
            )),
        },
        ExprKind::Int(n) => Ok(b::numeral(n.min(&NUMERAL_CAP).to_owned() as u32)),
        // Strings are opaque public data: magnitude-free, label-free.
        ExprKind::Str(_) => Ok(b::numeral(0)),
        // `+` joins taint conservatively: a pair carries both operands.
        ExprKind::Add(a, c) => Ok(b::pair(lower_expr(scope, a)?, lower_expr(scope, c)?)),
    }
}

/// Validates identifiers in an expression without lowering it (used for
/// the ignored initializer of an annotated declaration).
fn check_expr(scope: &Scope, e: &Expr) -> Result<(), LangError> {
    match &e.kind {
        ExprKind::Var(x) => {
            if scope.vars.contains_key(x) {
                Ok(())
            } else {
                Err(LangError::new(
                    e.pos,
                    format!("undeclared identifier `{x}`"),
                ))
            }
        }
        ExprKind::Int(_) | ExprKind::Str(_) => Ok(()),
        ExprKind::Add(a, c) => {
            check_expr(scope, a)?;
            check_expr(scope, c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use nuspi_syntax::canonical_digest;

    fn lower_src(src: &str) -> Result<Lowered, LangError> {
        lower(&parse(src).expect("parse"))
    }

    #[test]
    fn channels_are_restricted_and_secret_sinks_are_free() {
        let l = lower_src(
            "func main() {\n\
             //nuspi::sink::{}\n\
             out := make(chan)\n\
             ch := make(chan)\n\
             ch <- 1\n\
             out <- 2\n\
             }",
        )
        .unwrap();
        assert_eq!(l.secrets, vec!["main.ch".to_owned()]);
        assert!(l.sites.contains_key("out"));
        assert_eq!(l.sites["out"].role, Role::Sink);
        assert_eq!(l.sites["main.ch"].role, Role::Channel);
        // `out` is free, `main.ch` is not.
        let free: Vec<String> = l
            .process
            .free_names()
            .iter()
            .map(|n| n.to_string())
            .collect();
        assert!(free.contains(&"out".to_owned()), "{free:?}");
        assert!(!free.iter().any(|n| n.contains("main.ch")), "{free:?}");
    }

    #[test]
    fn redeclaration_mangles_by_declaration_order() {
        let l = lower_src(
            "func main() {\nch := make(chan)\nif 1 { ch := make(chan)\nch <- 1 } else {}\nch <- 0\n}",
        )
        .unwrap();
        assert_eq!(
            l.secrets,
            vec!["main.ch".to_owned(), "main.ch.2".to_owned()]
        );
    }

    #[test]
    fn reformatting_preserves_the_canonical_digest() {
        let a = lower_src("func main() {\nch := make(chan)\nch <- 1 + 2\n}").unwrap();
        let b_ = lower_src(
            "// a comment\nfunc main()   {\n\n\n    ch := make(chan)\n    ch <- 1 + 2\n\n}\n",
        )
        .unwrap();
        assert_eq!(
            canonical_digest(&a.process).0,
            canonical_digest(&b_.process).0
        );
    }

    #[test]
    fn recursion_and_unknown_calls_are_errors() {
        let e = lower_src("func f() { f() }\nfunc main() { f() }").unwrap_err();
        assert!(e.message.contains("recursive"), "{e:?}");
        let e = lower_src("func main() { g() }").unwrap_err();
        assert!(e.message.contains("undefined function"), "{e:?}");
        let e = lower_src("func f(a) {}\nfunc main() { f() }").unwrap_err();
        assert!(e.message.contains("argument"), "{e:?}");
    }

    #[test]
    fn sequential_calls_are_not_recursion() {
        let l =
            lower_src("func f(ch) { ch <- 1 }\nfunc main() {\nch := make(chan)\nf(ch)\nf(ch)\n}");
        assert!(l.is_ok(), "{:?}", l.err());
    }

    #[test]
    fn channel_misuse_is_an_error() {
        let e = lower_src("func main() {\nx := 1\nx <- 2\n}").unwrap_err();
        assert!(e.message.contains("not a channel"), "{e:?}");
        let e = lower_src("func main() {\ny := <-nope\n}").unwrap_err();
        assert!(e.message.contains("undeclared channel"), "{e:?}");
    }

    #[test]
    fn annotated_declarations_mint_secret_names() {
        let l = lower_src(
            "func main() {\n\
             //nuspi::label::{high}\n\
             pin := 1234\n\
             //nuspi::secret\n\
             key := 0\n\
             ch := make(chan)\n\
             ch <- pin + key\n\
             }",
        )
        .unwrap();
        assert_eq!(l.sites["main.pin"].role, Role::High);
        assert_eq!(l.sites["main.pin"].label.as_deref(), Some("high"));
        assert_eq!(l.sites["main.key"].role, Role::Secret);
        assert!(l.secrets.contains(&"main.pin".to_owned()));
        assert!(l.secrets.contains(&"main.key".to_owned()));
    }

    #[test]
    fn hide_declarations_are_hide_bound_with_no_policy_entry() {
        let l = lower_src(
            "func main() {\n\
             //nuspi::hide\n\
             h := make(chan)\n\
             h <- 0\n\
             }",
        )
        .unwrap();
        // The binder itself makes `h` secret: no policy entry needed.
        assert!(l.secrets.is_empty(), "{:?}", l.secrets);
        assert_eq!(l.sites["main.h"].role, Role::Hidden);
        let hidden: Vec<String> = l
            .process
            .hidden_names()
            .into_iter()
            .map(|s| s.as_str().to_owned())
            .collect();
        assert_eq!(hidden, ["main.h"]);
        assert!(!l
            .process
            .free_names()
            .iter()
            .any(|n| n.to_string().contains("main.h")));
    }

    #[test]
    fn graded_declarations_carry_levels_not_secret_entries() {
        let l = lower_src(
            "func main() {\n\
             //nuspi::label::{conf:secret,integ:tainted}\n\
             key := 1\n\
             ch := make(chan)\n\
             ch <- key\n\
             }",
        )
        .unwrap();
        assert_eq!(
            l.graded,
            vec![(
                "main.key".to_owned(),
                "secret".to_owned(),
                "tainted".to_owned()
            )]
        );
        // The channel is an ordinary secret; the graded datum is not.
        assert_eq!(l.secrets, vec!["main.ch".to_owned()]);
        assert_eq!(
            l.sites["main.key"].label.as_deref(),
            Some("conf:secret,integ:tainted")
        );
        assert_eq!(l.sites["main.key"].role, Role::High);
    }

    #[test]
    fn no_main_is_an_error() {
        let e = lower_src("func helper() {}").unwrap_err();
        assert!(e.message.contains("main"), "{e:?}");
    }

    /// A program of `n` sequential `if`s over a sink channel.
    fn seq_ifs(n: usize) -> String {
        let mut src = String::from("func main() {\n//nuspi::sink::{}\nout := make(chan)\n");
        for _ in 0..n {
            src.push_str("if 1 { out <- 1 } else { out <- 0 }\n");
        }
        src.push_str("out <- 2\n}\n");
        src
    }

    #[test]
    fn sequential_ifs_lower_linearly_not_exponentially() {
        // Each `if` lowers its continuation once behind a join channel,
        // so doubling the number of `if`s roughly doubles the process
        // (duplicating the tail into both branches would square it).
        let small = lower_src(&seq_ifs(9)).unwrap().process.to_string().len();
        let large = lower_src(&seq_ifs(18)).unwrap().process.to_string().len();
        assert!(
            large < small * 3,
            "18 ifs render to {large} bytes vs {small} for 9: not linear"
        );
    }

    #[test]
    fn joins_are_internal_only() {
        let l = lower_src(&seq_ifs(2)).unwrap();
        // Join channels are restricted (not free) …
        assert!(
            !l.process
                .free_names()
                .iter()
                .any(|n| n.to_string().contains("#seq")),
            "join leaked as a free name"
        );
        // … but never policy secrets and never source-mapped.
        assert!(
            l.secrets.iter().all(|s| !s.contains("#seq")),
            "{:?}",
            l.secrets
        );
        assert!(l.sites.keys().all(|k| !k.contains("#seq")));
    }

    #[test]
    fn flat_sequences_lower_without_recursion() {
        // One statement per lowering stack frame would abort on a long
        // flat program; the sequence walk is iterative, so this is just
        // a big (under-budget) process.
        let n = MAX_LOWERED_STMTS - 10;
        let mut src = String::from("func main() {\n//nuspi::sink::{}\nout := make(chan)\n");
        for _ in 0..n - 2 {
            src.push_str("out <- 0\n");
        }
        src.push_str("}\n");
        assert!(lower_src(&src).is_ok());
    }

    #[test]
    fn oversized_flat_programs_are_structured_errors() {
        let n = MAX_LOWERED_STMTS + 10;
        let mut src = String::from("func main() {\n");
        for _ in 0..n {
            src.push_str("x := 1\n");
        }
        src.push_str("}\n");
        let e = lower_src(&src).unwrap_err();
        assert!(e.message.contains("lowered statements"), "{e:?}");
    }

    #[test]
    fn doubling_call_dags_hit_the_expansion_budget() {
        // f15 calls f14 twice, … — 2^15 leaf expansions. The budget
        // turns the blow-up into a structured error instead of an
        // exponential process.
        let mut src = String::from("func f0(ch) { ch <- 0\nch <- 0 }\n");
        for i in 1..=15 {
            src.push_str(&format!(
                "func f{i}(ch) {{ f{}(ch)\nf{}(ch) }}\n",
                i - 1,
                i - 1
            ));
        }
        src.push_str("func main() { ch := make(chan)\nf15(ch) }\n");
        let e = lower_src(&src).unwrap_err();
        assert!(e.message.contains("lowered statements"), "{e:?}");
    }

    #[test]
    fn deep_inline_chains_are_structured_errors() {
        // A 100-hop call chain: no recursion, but each hop is one more
        // nested lowering frame — rejected at MAX_INLINE_DEPTH.
        let mut src = String::from("func f0(ch) { ch <- 0 }\n");
        for i in 1..=100 {
            src.push_str(&format!("func f{i}(ch) {{ f{}(ch) }}\n", i - 1));
        }
        src.push_str("func main() { ch := make(chan)\nf100(ch) }\n");
        let e = lower_src(&src).unwrap_err();
        assert!(e.message.contains("inlined deeper"), "{e:?}");
    }
}
