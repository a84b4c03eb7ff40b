//! Metric values, order statistics, process meters, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values become 0 so the result stays JSON.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// The median of `v` (sorts it in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile of an ascending series; 0 when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The Harrell–Davis estimate of the `p`-th percentile of an ascending
/// series; 0 when empty.
///
/// Every order statistic is weighted by the mass a Beta((n+1)q,
/// (n+1)(1−q)) distribution puts on its rank interval. On a mix of a few
/// slow inputs whose clusters overlap, the estimate moves with all the
/// samples near the rank instead of jumping to whichever single sample
/// the nearest rank lands on. The weights are integrated by Simpson's
/// rule; ranks more than twelve standard deviations away get none. With
/// too few samples for a smooth weight (under two beyond the rank on
/// either side) it is the nearest rank.
pub fn harrell_davis(sorted: &[f64], p: f64) -> f64 {
    const STEPS: usize = 8;
    let n = sorted.len();
    let q = (p / 100.0).clamp(0.0, 1.0);
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    if a < 2.0 || b < 2.0 {
        return percentile(sorted, p);
    }
    // The Beta density relative to its peak, in log space so that large
    // exponents neither overflow nor underflow.
    let ln_density = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    let ln_peak = ln_density((a - 1.0) / (a + b - 2.0));
    let density = |x: f64| {
        if x <= 0.0 || x >= 1.0 {
            0.0
        } else {
            (ln_density(x) - ln_peak).exp()
        }
    };
    let nf = n as f64;
    let sd = (q * (1.0 - q) / (nf + 2.0)).sqrt();
    let lo = ((q - 12.0 * sd) * nf).floor().max(0.0) as usize;
    let hi = (((q + 12.0 * sd) * nf).ceil() as usize).min(n);
    let h = 1.0 / (nf * STEPS as f64);
    let (mut total, mut weighted) = (0.0, 0.0);
    for (i, x) in sorted.iter().enumerate().take(hi).skip(lo) {
        let start = i as f64 / nf;
        let mass: f64 = (0..=STEPS)
            .map(|k| {
                let coef = match k {
                    0 | STEPS => 1.0,
                    k if k % 2 == 1 => 4.0,
                    _ => 2.0,
                };
                coef * density(start + k as f64 * h)
            })
            .sum();
        total += mass;
        weighted += mass * x;
    }
    weighted / total
}

/// Clock ticks per second of `/proc` CPU times (Linux `USER_HZ`).
const TICKS_PER_S: u64 = 100;

/// The process's user + system CPU time so far, from `/proc/self/stat`
/// (zero where that is unavailable).
pub fn cpu_time() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return Duration::ZERO;
    };
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    let ticks: u64 = fields.iter().sum();
    Duration::from_millis(ticks * 1000 / TICKS_PER_S)
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A human-readable table of `metrics`.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(out, "  {:width$}  {:>14.6} {}", m.name, m.value, m.unit);
    }
    out
}

/// The result object: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let mut v = vec![3.0, 1.0, 2.0, 4.0];
        assert_eq!(median(&mut v), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
    }

    /// Against the exact estimator (regularized incomplete Beta by
    /// continued fraction) on the same series.
    #[test]
    fn harrell_davis_matches_the_exact_weights() {
        let close = |got: f64, want: f64| {
            assert!((got - want).abs() <= 1e-7 * want, "{got} vs {want}");
        };
        let squares: Vec<f64> = (1..=100).map(|i| f64::from(i * i)).collect();
        close(harrell_davis(&squares, 90.0), 8199.156862441776);
        let ranks: Vec<f64> = (1..=1000).map(f64::from).collect();
        close(harrell_davis(&ranks, 98.0), 980.4999999999992);
        let clusters: Vec<f64> = [(1.0, 60), (10.0, 30), (100.0, 10)]
            .iter()
            .flat_map(|&(v, k)| std::iter::repeat_n(v, k))
            .collect();
        close(harrell_davis(&clusters, 90.0), 58.18118048130831);
        assert_eq!(harrell_davis(&[], 90.0), 0.0);
        assert_eq!(harrell_davis(&[7.0, 8.0], 90.0), 8.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
