//! Experiment F1/F2 — the polynomial-time (cubic) complexity claim.
//!
//! Sweeps the parametric workload families over `n`, measuring (F2)
//! constraint-generation size and time and (F1) solver time, then fits a
//! log–log slope per family. The paper claims the least solution is
//! computable in polynomial time, O(n³) after Nielson–Seidl; the fitted
//! exponents must stay at or below ~3.

use nuspi_bench::report::{loglog_slope, timed, timed_stable, Table};
use nuspi_bench::workloads;
use nuspi_cfa::{solve, Constraints};
use nuspi_syntax::Process;
use std::time::Duration;

fn sweep(name: &str, make: impl Fn(usize) -> Process, sizes: &[usize], table: &mut Table) -> f64 {
    let mut points = Vec::new();
    for &n in sizes {
        let p = make(n);
        let ast = p.size();
        let (constraints, gen_time) = timed(|| Constraints::generate(&p));
        let n_constraints = constraints.list.len();
        let solve_time = timed_stable(Duration::from_millis(60), || {
            let c = Constraints::generate(&p);
            let _ = solve(c);
        });
        let sol = solve(Constraints::generate(&p));
        let stats = sol.stats();
        table.row([
            name.to_owned(),
            n.to_string(),
            ast.to_string(),
            n_constraints.to_string(),
            format!("{:?}", gen_time),
            stats.productions.to_string(),
            stats.edges.to_string(),
            format!("{:.3}ms", solve_time.as_secs_f64() * 1e3),
        ]);
        points.push((ast as f64, solve_time.as_secs_f64()));
    }
    loglog_slope(&points)
}

fn main() {
    println!("F1/F2: solver scaling — the O(n³) claim\n");
    let mut table = Table::new([
        "family",
        "n",
        "ast nodes",
        "constraints",
        "gen time",
        "productions",
        "edges",
        "solve time",
    ]);
    let sizes = [8, 16, 32, 64, 128];
    let mixer_sizes = [4, 8, 16, 32, 64];
    let slopes = [
        (
            "relay-chain",
            sweep("relay-chain", workloads::relay_chain, &sizes, &mut table),
        ),
        (
            "crypto-chain",
            sweep("crypto-chain", workloads::crypto_chain, &sizes, &mut table),
        ),
        (
            "star-broadcast",
            sweep(
                "star-broadcast",
                workloads::star_broadcast,
                &sizes,
                &mut table,
            ),
        ),
        (
            "wmf-sessions",
            sweep(
                "wmf-sessions",
                workloads::wmf_sessions,
                &[2, 4, 8, 16, 32],
                &mut table,
            ),
        ),
        (
            "mixer",
            sweep("mixer", workloads::mixer, &mixer_sizes, &mut table),
        ),
    ];
    println!("{}", table.render());

    let mut slope_table = Table::new(["family", "fitted exponent (solve time vs ast size)"]);
    let mut worst: f64 = 0.0;
    for (name, s) in slopes {
        slope_table.row([name.to_owned(), format!("{s:.2}")]);
        worst = worst.max(s);
    }
    println!("{}", slope_table.render());
    println!("paper claim: least solution computable in polynomial time (cubic).");
    println!("worst fitted exponent: {worst:.2}");
    assert!(
        worst <= 3.4,
        "scaling exponent {worst:.2} exceeds the cubic claim (with 0.4 measurement slack)"
    );
    println!("F1 PASS: all families scale with exponent ≤ 3 (within measurement slack).");
}
