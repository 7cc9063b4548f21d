//! A/A judgement: two interleaved sets of runs of the same code must agree
//! within the benchmark's own bounds, or the benchmark cannot tell a
//! regression from its noise.

use crate::estimators::{quartiles, spread};
use crate::metrics::{Better, Metric};

/// One `(workload, metric)` pair across the two sets.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Workload name.
    pub workload: String,
    /// The metric and its bound.
    pub metric: Metric,
    /// Quartiles of the first set.
    pub a: [f64; 3],
    /// Quartiles of the second set.
    pub b: [f64; 3],
    /// Distance between the quartiles over the median, the wider set's.
    pub spread: f64,
    /// How much worse the second median is than the first, as a share of
    /// the first (negative when it is better).
    pub worse_by: f64,
    /// `worse_by` and `spread` are both within the bound.
    pub within: bool,
}

/// How much worse `second` is than `first` in the metric's direction.
pub fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return if second == first { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// Judge one pair from the two sets' values.
pub fn judge(workload: &str, metric: &Metric, a: &[f64], b: &[f64]) -> Pair {
    let (qa, qb) = (quartiles(a), quartiles(b));
    // Either set could have come first, so the pair is judged both ways.
    let worse = worse_by(metric.better, qa[1], qb[1]).max(worse_by(metric.better, qb[1], qa[1]));
    let wide = spread(a).max(spread(b));
    // The set-up's spread is reported but, as in the acceptance driver,
    // only its medians are held to the bound.
    let spread_ok = metric.name == "setup_s" || wide <= metric.bound;
    Pair {
        workload: workload.to_string(),
        metric: metric.clone(),
        a: qa,
        b: qb,
        spread: wide,
        worse_by: worse,
        within: worse <= metric.bound && spread_ok,
    }
}

/// The pairs as a markdown table.
pub fn markdown(pairs: &[Pair]) -> String {
    let mut out = String::from(
        "| workload | metric | unit | set A q1 / median / q3 | set B q1 / median / q3 | spread | medians differ | bound | ok |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for p in pairs {
        let q = |v: [f64; 3]| format!("{:.6} / {:.6} / {:.6}", v[0], v[1], v[2]);
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.2} % | {:.2} % | {:.0} % | {} |\n",
            p.workload,
            p.metric.name,
            p.metric.unit,
            q(p.a),
            q(p.b),
            p.spread * 100.0,
            p.worse_by * 100.0,
            p.metric.bound * 100.0,
            if p.within { "yes" } else { "NO" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, better: Better, bound: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: "s",
            better,
            bound,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Lower, 10.0, 9.0) < 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
    }

    #[test]
    fn agreeing_sets_pass_and_shifted_sets_fail() {
        let m = metric("campaign_s", Better::Lower, 0.10);
        let a = [10.0, 10.1, 10.2, 10.1, 10.0];
        let ok = judge("w", &m, &a, &[10.1, 10.2, 10.0, 10.1, 10.3]);
        assert!(ok.within, "{ok:?}");
        let shifted = judge("w", &m, &a, &[11.5, 11.6, 11.4, 11.5, 11.7]);
        assert!(!shifted.within);
        // Judged both ways round: a faster second set fails too.
        let faster = judge("w", &m, &[11.5, 11.6, 11.4, 11.5, 11.7], &a);
        assert!(!faster.within);
    }

    #[test]
    fn exact_counts_pass_any_bound_and_wide_sets_fail() {
        let count = metric("trials_total", Better::Higher, 0.05);
        assert!(judge("w", &count, &[288000.0; 3], &[288000.0; 3]).within);
        let timing = metric("campaign_s", Better::Lower, 0.10);
        let wide = judge("w", &timing, &[8.0, 10.0, 12.0], &[8.0, 10.0, 12.0]);
        assert!(!wide.within, "same medians but a 40 % spread");
        let setup = metric("setup_s", Better::Lower, 0.25);
        assert!(judge("w", &setup, &[8.0, 10.0, 12.0], &[8.0, 10.0, 12.0]).within);
    }
}
