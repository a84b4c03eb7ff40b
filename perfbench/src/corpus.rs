//! The workloads' inputs, their known answers, and the seeded request
//! lines sent at the front door.
//!
//! Every line is a pure function of `(workload, seed)`: the same seed
//! gives byte-identical lines, another seed changes the request order
//! and the free names (so the α-invariant digests move) but never a
//! known answer. Known answers come from outside the code under test:
//! the protocol specs' `expect_confined`, the ladder's `// expect:`
//! lines, the verdict table of the equivalence goldens, and the naive
//! reference solver for `solve`.

use nuspi_engine::jsonio::escape;
use nuspi_semantics::{Rng, SplitMix64};
use nuspi_syntax::{parse_process, Name, Process, Value};

/// The annotated-source ladder, embedded at compile time so every run
/// sends exactly the committed programs.
pub const LANG_LADDER: [(&str, &str); 12] = [
    ("01_hello", include_str!("../../examples/lang/01_hello.nu")),
    (
        "02_channels",
        include_str!("../../examples/lang/02_channels.nu"),
    ),
    (
        "03_channels_leak",
        include_str!("../../examples/lang/03_channels_leak.nu"),
    ),
    (
        "04_functions",
        include_str!("../../examples/lang/04_functions.nu"),
    ),
    (
        "05_functions_leak",
        include_str!("../../examples/lang/05_functions_leak.nu"),
    ),
    ("06_cycle", include_str!("../../examples/lang/06_cycle.nu")),
    (
        "07_cycle_leak",
        include_str!("../../examples/lang/07_cycle_leak.nu"),
    ),
    (
        "08_secret",
        include_str!("../../examples/lang/08_secret.nu"),
    ),
    (
        "09_secret_leak",
        include_str!("../../examples/lang/09_secret_leak.nu"),
    ),
    (
        "10_graded",
        include_str!("../../examples/lang/10_graded.nu"),
    ),
    (
        "11_graded_leak",
        include_str!("../../examples/lang/11_graded_leak.nu"),
    ),
    (
        "12_hidden_leak",
        include_str!("../../examples/lang/12_hidden_leak.nu"),
    ),
];

/// Sessions and hops of every `solve-large` network.
pub const SOLVE_SHAPE: (usize, usize) = (200, 4);
/// Distinct networks per `solve-large` pass.
pub const SOLVE_NETWORKS: usize = 32;
/// The free name (a hub channel every network has) each `solve-large`
/// pass renames.
const SOLVE_TAGGED: &str = "hub0";

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Lint and `.nu` analysis, every request a cache miss.
    LintCold,
    /// Cache-neutral rewrites of a warm set, every request a hit.
    ServeWarm,
    /// Theorem-5 oracle pairs and equivalence goldens as `equiv` ops.
    EquivOracle,
    /// Large generated networks as `solve` ops.
    SolveLarge,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::LintCold,
        Workload::ServeWarm,
        Workload::EquivOracle,
        Workload::SolveLarge,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LintCold => "lint-cold",
            Workload::ServeWarm => "serve-warm",
            Workload::EquivOracle => "equiv-oracle",
            Workload::SolveLarge => "solve-large",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads.
    pub fn clients(self) -> usize {
        match self {
            Workload::LintCold | Workload::SolveLarge => 2,
            Workload::ServeWarm | Workload::EquivOracle => 1,
        }
    }

    /// The percentile `latency_tail_ms` reports: the highest one that
    /// keeps at least ten samples beyond it at the workload's length at
    /// the benchmark's run time, capped at p99. The two 2-client
    /// workloads answer 890–1730 requests in 25 s, where p99 would keep
    /// only 8–17 beyond it, so they use p98. It is estimated by
    /// [`harrell_davis`](crate::report::harrell_davis), not nearest rank.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::LintCold | Workload::SolveLarge => 98.0,
            Workload::ServeWarm => 99.0,
            Workload::EquivOracle => 90.0,
        }
    }

    /// Whole passes a measured run sends at least, however short
    /// `--seconds` is. `equiv-oracle` takes three: one of its passes
    /// runs 13–18 s, so at 25 s the time alone stopped it after two. The
    /// host's speed moves in phases shorter than a pass (the two passes
    /// of one run were uncorrelated), so each further pass narrows the
    /// run-to-run spread, and at 150 samples p90 keeps 15 beyond it.
    pub fn min_passes(self) -> usize {
        match self {
            Workload::EquivOracle => 3,
            Workload::LintCold | Workload::ServeWarm | Workload::SolveLarge => 1,
        }
    }

    /// Whether every request must miss the cache (all but `serve-warm`).
    pub fn cold(self) -> bool {
        self != Workload::ServeWarm
    }
}

/// The verdict an `equiv` response must carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EquivExpect {
    /// Must be `distinguished`.
    Distinguished,
    /// Must be `bisimilar`.
    Bisimilar,
    /// `bisimilar` or `unknown`, never `distinguished`.
    NotDistinguished,
}

/// What a response must say.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `lint`: error diagnostics exactly when the spec is not confined.
    Lint {
        /// The spec's `expect_confined`.
        confined: bool,
    },
    /// `analyze_source`: the rung's `// expect:` verdict.
    Source {
        /// `true` for `secure`, `false` for `insecure`.
        secure: bool,
    },
    /// `equiv`: the verdict table.
    Equiv(EquivExpect),
    /// `solve`: the reference solver's production count.
    Solve {
        /// Productions of the least solution.
        productions: usize,
    },
}

/// What a distinct input asks the engine.
#[derive(Clone, Debug)]
pub enum Payload {
    /// A `lint` of νSPI source under a secret set.
    Lint {
        /// νSPI source.
        process: String,
        /// Secret names.
        secrets: Vec<String>,
    },
    /// An `analyze_source` of a `.nu` program.
    Source {
        /// File name used in anchors.
        file: String,
        /// Program text.
        source: String,
    },
    /// An `equiv` of two νSPI processes.
    Equiv {
        /// Left side.
        left: String,
        /// Right side.
        right: String,
    },
    /// A `solve` of νSPI source.
    Solve {
        /// νSPI source.
        process: String,
    },
}

impl Payload {
    /// The JSON request line carrying `id`.
    pub fn line(&self, id: &str) -> String {
        match self {
            Payload::Lint { process, secrets } => {
                let secrets: Vec<String> = secrets
                    .iter()
                    .map(|s| format!("\"{}\"", escape(s)))
                    .collect();
                format!(
                    "{{\"id\":\"{id}\",\"op\":\"lint\",\"process\":\"{}\",\"secrets\":[{}]}}",
                    escape(process),
                    secrets.join(",")
                )
            }
            Payload::Source { file, source } => format!(
                "{{\"id\":\"{id}\",\"op\":\"analyze_source\",\"file\":\"{}\",\"source\":\"{}\"}}",
                escape(file),
                escape(source)
            ),
            Payload::Equiv { left, right } => format!(
                "{{\"id\":\"{id}\",\"op\":\"equiv\",\"left\":\"{}\",\"right\":\"{}\"}}",
                escape(left),
                escape(right)
            ),
            Payload::Solve { process } => format!(
                "{{\"id\":\"{id}\",\"op\":\"solve\",\"process\":\"{}\"}}",
                escape(process)
            ),
        }
    }
}

/// One distinct input: a stable name, its known answer, and its payload
/// as sent in the first pass.
#[derive(Clone, Debug)]
pub struct Input {
    /// Stable name (spec, rung, or pair).
    pub name: String,
    /// The known answer.
    pub expect: Expect,
    /// The payload as sent in pass 0.
    pub payload: Payload,
}

/// One request line and the distinct input it instantiates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Line {
    /// Index into [`Corpus::inputs`].
    pub input: usize,
    /// The correlation id the response must echo.
    pub id: String,
    /// The JSON request line.
    pub text: String,
}

/// Everything a run sends, built from the seed before any timing.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// The workload.
    pub workload: Workload,
    /// Distinct inputs with their known answers.
    pub inputs: Vec<Input>,
    /// `serve-warm` only: the warm set, sent once per setup.
    pub warm: Vec<Line>,
    /// Pass schedules: each sends every input equally often, in seeded
    /// order. Cold workloads' passes carry distinct fresh names.
    pub passes: Vec<Vec<Line>>,
}

/// Pre-built pass schedules per workload.
fn pass_variants(w: Workload) -> usize {
    match w {
        Workload::LintCold => 32,
        Workload::ServeWarm => 64,
        Workload::EquivOracle => 4,
        Workload::SolveLarge => 16,
    }
}

/// A seeded stream per workload, so workloads never share draws.
fn rng_for(w: Workload, seed: u64) -> SplitMix64 {
    let salt = match w {
        Workload::LintCold => 0x6c69_6e74,
        Workload::ServeWarm => 0x7761_726d,
        Workload::EquivOracle => 0x6571_7576,
        Workload::SolveLarge => 0x736f_6c76,
    };
    SplitMix64::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
}

fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

/// A fresh identifier suffix: a name nothing in the corpora uses.
fn fresh_tag(rng: &mut SplitMix64) -> String {
    format!("_q{:06x}", rng.next_u64() & 0xff_ffff)
}

/// Renames every free name of `p` outside `keep` by appending `tag`.
/// A bijective renaming of free names: every analysis answer is
/// unchanged, but the α-invariant digest (which sees free names) moves.
fn tag_free_names(p: &Process, keep: &[String], tag: &str) -> Process {
    let mut free: Vec<String> = p
        .free_names()
        .into_iter()
        .map(|n| n.canonical().as_str().to_owned())
        .filter(|n| !keep.contains(n))
        .collect();
    free.sort();
    free.dedup();
    free.iter().fold(p.clone(), |acc, n| {
        acc.rename_name(
            Name::global(n.as_str()),
            Name::global(format!("{n}{tag}").as_str()),
        )
    })
}

/// Renames the free names of a pair consistently (the same map on both
/// sides, so the pair's relation is unchanged).
fn tag_pair(left: &str, right: &str, tag: &str) -> (String, String) {
    let l = parse_process(left).expect("golden left parses");
    let r = parse_process(right).expect("golden right parses");
    (
        tag_free_names(&l, &[], tag).to_string(),
        tag_free_names(&r, &[], tag).to_string(),
    )
}

/// The νSPI keywords, which are never identifiers.
const KEYWORDS: [&str; 9] = ["new", "nu", "hide", "is", "let", "in", "case", "of", "suc"];

/// Appends `tag` to every identifier of νSPI text that `pick` selects:
/// one linear scan, token-exact. Tagging a free name is a bijective
/// renaming of it (the digest moves, every analysis answer stays);
/// tagging a bound one is an α-renaming.
pub fn tag_identifiers(src: &str, tag: &str, pick: impl Fn(&str) -> bool) -> String {
    let mut out = String::with_capacity(src.len() + 64);
    let mut chars = src.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if !(c.is_ascii_alphabetic() || c == '_') {
            out.push(c);
            continue;
        }
        let mut end = start + c.len_utf8();
        while let Some(&(i, d)) = chars.peek() {
            if !(d.is_ascii_alphanumeric() || matches!(d, '_' | '\'' | '#' | '$' | '*')) {
                break;
            }
            end = i + d.len_utf8();
            chars.next();
        }
        let word = &src[start..end];
        out.push_str(word);
        if !KEYWORDS.contains(&word) && pick(word) {
            out.push_str(tag);
        }
    }
    out
}

fn sorted_secrets(spec: &nuspi_protocols::ProtocolSpec) -> Vec<String> {
    let mut s: Vec<String> = spec
        .policy
        .secrets()
        .map(|s| s.as_str().to_owned())
        .collect();
    s.sort();
    s
}

/// The rung's `// expect:` verdict, read from its first line.
fn ladder_expect(name: &str, source: &str) -> bool {
    match source
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("// expect: "))
    {
        Some("secure") => true,
        Some("insecure") => false,
        other => panic!("ladder rung {name} has no `// expect:` line ({other:?})"),
    }
}

/// The `lint-cold` inputs under free-name tag `tag` (empty = as
/// committed): 21 zoo lints then the 12 ladder rungs.
fn lint_inputs(tag: &str) -> Vec<Input> {
    let mut out = Vec::new();
    for spec in nuspi_protocols::suite() {
        let secrets = sorted_secrets(&spec);
        let process = if tag.is_empty() {
            spec.source.clone()
        } else {
            tag_free_names(&spec.process, &secrets, tag).to_string()
        };
        out.push(Input {
            name: spec.name.to_owned(),
            expect: Expect::Lint {
                confined: spec.expect_confined,
            },
            payload: Payload::Lint { process, secrets },
        });
    }
    for (name, source) in LANG_LADDER {
        // The file name is part of the `analyze_source` cache key, so a
        // tagged directory makes the rung miss.
        let file = if tag.is_empty() {
            format!("examples/lang/{name}.nu")
        } else {
            format!("bench{tag}/{name}.nu")
        };
        out.push(Input {
            name: name.to_owned(),
            expect: Expect::Source {
                secure: ladder_expect(name, source),
            },
            payload: Payload::Source {
                file,
                source: source.to_owned(),
            },
        });
    }
    out
}

/// The four equivalence goldens under free-name tag `tag`.
fn golden_inputs(tag: &str) -> Vec<Input> {
    let mut pairs: Vec<(String, String, String, EquivExpect)> = vec![
        (
            "new-vs-hide".to_owned(),
            "(new n) c<n>.0".to_owned(),
            "(hide n) c<n>.0".to_owned(),
            EquivExpect::Distinguished,
        ),
        (
            "sealed-twins".to_owned(),
            "(new k) c<{a, new r}:k>.0".to_owned(),
            "(new k2) c<{b, new r2}:k2>.0".to_owned(),
            EquivExpect::Bisimilar,
        ),
    ];
    for (honest, broken) in nuspi_protocols::broken_twins() {
        pairs.push((
            format!("{}-vs-{}", honest.name, broken.name),
            honest.source.clone(),
            broken.source.clone(),
            EquivExpect::Distinguished,
        ));
    }
    pairs
        .into_iter()
        .map(|(name, l, r, expect)| {
            let (left, right) = if tag.is_empty() {
                (l, r)
            } else {
                tag_pair(&l, &r, tag)
            };
            Input {
                name,
                expect: Expect::Equiv(expect),
                payload: Payload::Equiv { left, right },
            }
        })
        .collect()
}

/// The Theorem-5 oracle pair `P[g1/x]`, `P[g2/x]` of every zoo spec,
/// with the secret's restriction opened and probes `g1{tag}`/`g2{tag}`,
/// followed by the four goldens.
fn equiv_inputs(tag: &str) -> Vec<Input> {
    let mut out = Vec::new();
    for spec in nuspi_protocols::suite() {
        let (open, x) = spec
            .process
            .abstract_restriction(spec.secret)
            .unwrap_or_else(|| panic!("spec {} restricts its secret", spec.name));
        let probe = |base: &str| Value::name(Name::global(format!("{base}{tag}").as_str()));
        out.push(Input {
            name: format!("oracle/{}", spec.name),
            expect: Expect::Equiv(if spec.expect_confined {
                EquivExpect::NotDistinguished
            } else {
                EquivExpect::Distinguished
            }),
            payload: Payload::Equiv {
                left: open.subst(x, &probe("g1")).to_string(),
                right: open.subst(x, &probe("g2")).to_string(),
            },
        });
    }
    out.extend(golden_inputs(tag));
    out
}

/// Productions of the least solution by the naive reference solver.
pub fn reference_productions(src: &str) -> usize {
    let p = parse_process(src).expect("generated network parses");
    let sol = nuspi_cfa::solve_reference(nuspi_cfa::Constraints::generate(&p));
    sol.stats().productions
}

/// Whitespace-only rewrite of νSPI text: doubles a seeded subset of
/// the separators and pads both ends. Tokens never change, so the parse
/// (and the cache key) is identical.
fn respace_nuspi(rng: &mut SplitMix64, src: &str) -> String {
    let mut out = String::with_capacity(src.len() + src.len() / 4 + 8);
    out.push_str(&" ".repeat(rng.gen_range(0..3)));
    for c in src.chars() {
        out.push(c);
        if c == ' ' && rng.gen_range(0..4) == 0 {
            out.push(' ');
        }
    }
    out.push_str(&" ".repeat(rng.gen_range(0..3)));
    out
}

/// Trailing-whitespace-only rewrite of a `.nu` program: code lines may
/// gain trailing spaces and the file may gain trailing newlines. No
/// declaration moves, so every anchor (and the cache key) is unchanged.
fn respace_nu(rng: &mut SplitMix64, src: &str) -> String {
    let mut out = String::with_capacity(src.len() + 64);
    for line in src.lines() {
        out.push_str(line);
        if !line.contains("//") && rng.gen_range(0..3) == 0 {
            out.push_str(&" ".repeat(rng.gen_range(1..4)));
        }
        out.push('\n');
    }
    out.push_str(&"\n".repeat(rng.gen_range(0..3)));
    out
}

fn rewrite(rng: &mut SplitMix64, p: &Payload) -> Payload {
    match p {
        Payload::Lint { process, secrets } => Payload::Lint {
            process: respace_nuspi(rng, process),
            secrets: secrets.clone(),
        },
        Payload::Source { file, source } => Payload::Source {
            file: file.clone(),
            source: respace_nu(rng, source),
        },
        Payload::Equiv { left, right } => Payload::Equiv {
            left: respace_nuspi(rng, left),
            right: respace_nuspi(rng, right),
        },
        Payload::Solve { process } => Payload::Solve {
            process: respace_nuspi(rng, process),
        },
    }
}

/// Builds the corpus of `w` for `seed`. Deterministic in both.
pub fn build(w: Workload, seed: u64) -> Corpus {
    let mut rng = rng_for(w, seed);
    let variants = pass_variants(w);
    match w {
        Workload::LintCold | Workload::EquivOracle => {
            // `equiv-oracle` sends every pair twice in a row, under two
            // tags: consecutive long jobs from one client alternate
            // between the two workers, so every game runs on both and
            // `peak_rss_mb` does not hinge on which worker a heavy game
            // happened to land on.
            let (make, copies): (fn(&str) -> Vec<Input>, usize) = if w == Workload::LintCold {
                (lint_inputs, 1)
            } else {
                (equiv_inputs, 2)
            };
            let mut inputs = Vec::new();
            let mut passes = Vec::new();
            for v in 0..variants {
                let tagged: Vec<Vec<Input>> =
                    (0..copies).map(|_| make(&fresh_tag(&mut rng))).collect();
                let mut order: Vec<usize> = (0..tagged[0].len()).collect();
                shuffle(&mut rng, &mut order);
                let lines = order
                    .into_iter()
                    .flat_map(|i| {
                        tagged.iter().enumerate().map(move |(k, copy)| {
                            let id = format!("{}-{v}-{k}-{i}", w.name());
                            Line {
                                input: i,
                                text: copy[i].payload.line(&id),
                                id,
                            }
                        })
                    })
                    .collect();
                passes.push(lines);
                if v == 0 {
                    inputs = tagged.into_iter().next().expect("one copy at least");
                }
            }
            Corpus {
                workload: w,
                inputs,
                warm: Vec::new(),
                passes,
            }
        }
        Workload::ServeWarm => {
            let mut inputs = lint_inputs("");
            inputs.extend(golden_inputs(""));
            let id = |i: usize| format!("serve-warm-{i}");
            let warm = inputs
                .iter()
                .enumerate()
                .map(|(i, input)| Line {
                    input: i,
                    id: id(i),
                    text: input.payload.line(&id(i)),
                })
                .collect();
            let passes = (0..variants)
                .map(|_| {
                    let mut lines: Vec<Line> = inputs
                        .iter()
                        .enumerate()
                        .map(|(i, input)| Line {
                            input: i,
                            id: id(i),
                            text: rewrite(&mut rng, &input.payload).line(&id(i)),
                        })
                        .collect();
                    shuffle(&mut rng, &mut lines);
                    lines
                })
                .collect();
            Corpus {
                workload: w,
                inputs,
                warm,
                passes,
            }
        }
        Workload::SolveLarge => {
            let (sessions, depth) = SOLVE_SHAPE;
            let inputs: Vec<Input> = (0..SOLVE_NETWORKS)
                .map(|i| {
                    let net_seed = rng.next_u64();
                    let process =
                        nuspi_bench::workloads::interleaved_source(sessions, depth, net_seed);
                    Input {
                        name: format!("interleaved-{sessions}x{depth}/{i}"),
                        expect: Expect::Solve {
                            productions: reference_productions(&process),
                        },
                        payload: Payload::Solve { process },
                    }
                })
                .collect();
            let passes = (0..variants)
                .map(|v| {
                    let tag = fresh_tag(&mut rng);
                    let mut lines: Vec<Line> = inputs
                        .iter()
                        .enumerate()
                        .map(|(i, input)| {
                            let Payload::Solve { process } = &input.payload else {
                                unreachable!("solve-large inputs are solves")
                            };
                            let id = format!("solve-large-{v}-{i}");
                            // One free name per pass: the line stays
                            // the stated size while its digest moves.
                            let tagged = Payload::Solve {
                                process: tag_identifiers(process, &tag, |w| w == SOLVE_TAGGED),
                            };
                            Line {
                                input: i,
                                text: tagged.line(&id),
                                id,
                            }
                        })
                        .collect();
                    shuffle(&mut rng, &mut lines);
                    lines
                })
                .collect();
            Corpus {
                workload: w,
                inputs,
                warm: Vec::new(),
                passes,
            }
        }
    }
}
