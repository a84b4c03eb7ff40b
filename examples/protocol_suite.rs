//! Audit the whole protocol suite and print a verdict table — the
//! "who wins" overview of the reproduction: honest protocols are
//! certified on all three secrecy checks; every flawed variant fails the
//! static check.
//!
//! Run with: `cargo run --release --example protocol_suite`

use nuspi::protocols::suite;
use nuspi::Analyzer;

fn main() {
    println!(
        "{:<26} {:>9} {:>9} {:>8} {:>8}",
        "protocol", "confined", "careful", "attacks", "secure"
    );
    println!("{}", "-".repeat(66));
    let mut mismatches = 0;
    for spec in suite() {
        let analyzer = Analyzer::new().policy(spec.policy.clone());
        let audit = analyzer.audit(&spec.process).expect("closed process");
        let ok = audit.is_secure() == spec.expect_confined;
        if !ok {
            mismatches += 1;
        }
        println!(
            "{:<26} {:>9} {:>9} {:>8} {:>8}{}",
            spec.name,
            audit.confinement.is_confined(),
            audit.carefulness.is_careful(),
            audit.attacks.len(),
            audit.is_secure(),
            if ok { "" } else { "   <-- UNEXPECTED" }
        );
        assert_eq!(
            audit.confinement.is_confined(),
            spec.expect_confined,
            "{}: static verdict drifted",
            spec.name
        );
    }
    assert_eq!(mismatches, 0);
    println!("\nprotocol_suite done: every verdict matches the expected column.");
}
