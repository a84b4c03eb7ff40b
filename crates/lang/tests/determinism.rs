//! Lowering determinism: the same source always lowers to an
//! α-digest-identical process — across repeated runs, across spawned
//! threads, and across formatting-only edits. The digest is what the
//! engine keys its cache on, so this property IS the cache contract.

use nuspi_lang::{compile, lower, parse};
use nuspi_syntax::canonical_digest;

const PROGRAM: &str = "\
func relay(c, v) {
	c <- v
}

func main() {
	//nuspi::sink::{}
	out := make(chan)
	a := make(chan)
	b := make(chan)
	//nuspi::label::{high}
	token := 7
	go relay(a, token)
	x := <-a
	b <- x
	//nuspi::secret
	key := 3
	b <- key
	out <- 0
}
";

fn digest_of(src: &str) -> u128 {
    let lowered = lower(&parse(src).unwrap()).unwrap();
    canonical_digest(&lowered.process).0
}

#[test]
fn repeated_lowering_is_digest_identical() {
    let first = digest_of(PROGRAM);
    for _ in 0..16 {
        assert_eq!(digest_of(PROGRAM), first);
    }
}

#[test]
fn lowering_is_digest_identical_across_threads() {
    // Each thread compiles on its own and only the digest crosses
    // back, so the lowering itself runs on every thread.
    let first = digest_of(PROGRAM);
    let handles: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(|| digest_of(PROGRAM)))
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), first);
    }
}

#[test]
fn formatting_only_edits_preserve_the_digest() {
    let first = digest_of(PROGRAM);

    // Tabs to spaces, trailing blanks: columns move, lines do not.
    let spaced: String = PROGRAM
        .lines()
        .map(|l| format!("{}  \n", l.replace('\t', "        ")))
        .collect();
    assert_eq!(digest_of(&spaced), first, "indentation change");

    // Blank lines between statements: lines move, but annotations still
    // attach to the statement directly below / on the same line.
    let aired: String = PROGRAM
        .lines()
        .map(|l| {
            if l.trim().is_empty() || l.trim_start().starts_with("//") {
                format!("{l}\n")
            } else {
                format!("{l}\n\n")
            }
        })
        .collect();
    assert_eq!(digest_of(&aired), first, "blank-line change");

    // Semicolons are skipped by the lexer.
    let semis = PROGRAM.replace("\tc <- v", "\tc <- v;");
    assert_eq!(digest_of(&semis), first, "semicolon change");
}

#[test]
fn renames_and_reorderings_change_the_digest() {
    // Sanity: the digest is not so coarse that distinct programs
    // collide. The canonical form is invariant over freshening indices,
    // not over base symbols, so renaming an identifier — free sink or
    // restricted local — is observable (and correctly misses the cache:
    // a rename changes every source anchor in the report).
    let renamed = PROGRAM.replace("out", "disp");
    assert_ne!(digest_of(&renamed), digest_of(PROGRAM));
    let local = PROGRAM.replace("token", "badge");
    assert_ne!(digest_of(&local), digest_of(PROGRAM));

    // Dropping the secret annotation changes the lowered policy inputs
    // (one fewer restricted secret).
    let unsecret = PROGRAM.replace("\t//nuspi::secret\n", "");
    assert_ne!(digest_of(&unsecret), digest_of(PROGRAM));
}

#[test]
fn compile_collects_identical_secrets_and_sites_each_run() {
    let a = compile("p.nu", PROGRAM).unwrap();
    let b = compile("p.nu", PROGRAM).unwrap();
    assert_eq!(a.secrets, b.secrets);
    assert_eq!(
        canonical_digest(&a.process).0,
        canonical_digest(&b.process).0
    );
    let sites_a: Vec<_> = a.map.sites.keys().collect();
    let sites_b: Vec<_> = b.map.sites.keys().collect();
    assert_eq!(sites_a, sites_b);
}
