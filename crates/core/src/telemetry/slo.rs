//! In-process SLO engine: parse health rules, evaluate them against the
//! retained time-series, and render the `/healthz` verdict document.
//!
//! # Rule grammar
//!
//! ```text
//! <metric> <op> <threshold> [@<window_s>]
//! ```
//!
//! * `metric` — any name [`TimeSeries::resolve`] understands:
//!   `<counter>_rate` (per-second over the window), a bare counter name
//!   (cumulative), `<latency>_p50|_p90|_p99` (windowed percentile in
//!   seconds), or a registered gauge (`store_unsynced`, `open_spans`,
//!   ...).
//! * `op` — `<`, `<=`, `>`, `>=`. The rule *holds* (is healthy) when
//!   `value op threshold` is true.
//! * `window_s` — evaluation window in (possibly fractional) seconds;
//!   defaults to `DEFAULT_WINDOW`.
//!
//! Examples: `report_batch_rtt_p99<0.5@30`, `store_unsynced<10000`,
//! `quota_refusals_rate<100@60`, `open_spans<100000`.
//!
//! # Insufficient data is healthy
//!
//! A rule whose metric resolves to `None` — no samples yet, or a
//! percentile over a window with zero observations — **passes** with
//! reason `insufficient_data`. A freshly booted server must not report 503
//! before its first sampling tick, and a latency rule must recover once
//! the offending observations age out of its window. Breaches therefore
//! only come from observed data.

use super::timeseries::TimeSeries;
use std::time::Duration;

/// Default evaluation window when a rule omits `@window_s`.
pub(crate) const DEFAULT_WINDOW: Duration = Duration::from_secs(60);

/// Comparison operator of an SLO rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloOp {
    /// Healthy while `value < threshold`.
    Lt,
    /// Healthy while `value <= threshold`.
    Le,
    /// Healthy while `value > threshold`.
    Gt,
    /// Healthy while `value >= threshold`.
    Ge,
}

impl SloOp {
    /// The operator's source token.
    pub(crate) fn symbol(&self) -> &'static str {
        match self {
            SloOp::Lt => "<",
            SloOp::Le => "<=",
            SloOp::Gt => ">",
            SloOp::Ge => ">=",
        }
    }

    /// Whether `value op threshold` holds.
    pub fn holds(&self, value: f64, threshold: f64) -> bool {
        match self {
            SloOp::Lt => value < threshold,
            SloOp::Le => value <= threshold,
            SloOp::Gt => value > threshold,
            SloOp::Ge => value >= threshold,
        }
    }
}

/// One parsed health rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// The metric name, resolved via [`TimeSeries::resolve`].
    pub metric: String,
    /// The comparison that must hold for the rule to be healthy.
    pub op: SloOp,
    /// The threshold compared against.
    pub threshold: f64,
    /// The trailing evaluation window.
    pub window: Duration,
}

impl SloRule {
    /// Render back to the grammar (canonical spacing-free form).
    pub fn spec(&self) -> String {
        format!(
            "{}{}{}@{}",
            self.metric,
            self.op.symbol(),
            self.threshold,
            self.window.as_secs_f64()
        )
    }
}

/// Parse one rule from the grammar in the [module docs](self).
pub(crate) fn parse_rule(spec: &str) -> Result<SloRule, String> {
    let spec = spec.trim();
    let (op_at, op, op_len) = ["<=", ">=", "<", ">"]
        .iter()
        .filter_map(|tok| spec.find(tok).map(|i| (i, *tok)))
        .min_by_key(|(i, tok)| (*i, 2 - tok.len()))
        .map(|(i, tok)| {
            let op = match tok {
                "<=" => SloOp::Le,
                ">=" => SloOp::Ge,
                "<" => SloOp::Lt,
                _ => SloOp::Gt,
            };
            (i, op, tok.len())
        })
        .ok_or_else(|| format!("rule `{spec}` lacks an operator (<, <=, >, >=)"))?;
    let metric = spec[..op_at].trim();
    if metric.is_empty() {
        return Err(format!("rule `{spec}` lacks a metric name"));
    }
    let rest = spec[op_at + op_len..].trim();
    let (threshold_text, window) = match rest.split_once('@') {
        Some((t, w)) => {
            let secs: f64 = w
                .trim()
                .parse()
                .map_err(|_| format!("rule `{spec}`: bad window `{w}`"))?;
            if secs.is_nan() || !secs.is_finite() || secs <= 0.0 {
                return Err(format!("rule `{spec}`: window must be positive"));
            }
            (t.trim(), Duration::from_secs_f64(secs))
        }
        None => (rest, DEFAULT_WINDOW),
    };
    let threshold: f64 = threshold_text
        .parse()
        .map_err(|_| format!("rule `{spec}`: bad threshold `{threshold_text}`"))?;
    Ok(SloRule {
        metric: metric.to_string(),
        op,
        threshold,
        window,
    })
}

/// Parse a batch of rule specs, failing on the first bad one.
pub fn parse_rules<S: AsRef<str>>(specs: &[S]) -> Result<Vec<SloRule>, String> {
    specs.iter().map(|s| parse_rule(s.as_ref())).collect()
}

/// The stock rule set `repro serve` applies when no `--slo` flag is given:
/// report-RTT tail, quota-refusal rate, span leaks, and store flush lag.
pub fn default_rules() -> Vec<SloRule> {
    parse_rules(&[
        "report_batch_rtt_p99<1.0@60",
        "quota_refusals_rate<100@60",
        "open_spans<100000@10",
        "store_unsynced<100000@10",
    ])
    .expect("stock rules parse")
}

/// One rule's evaluation outcome.
#[derive(Debug, Clone)]
pub struct RuleVerdict {
    /// The rule evaluated.
    pub rule: SloRule,
    /// The resolved metric value (`None` = insufficient data).
    pub value: Option<f64>,
    /// Whether the rule is healthy.
    pub ok: bool,
    /// Why: `ok`, `breach`, or `insufficient_data`.
    pub reason: &'static str,
}

impl RuleVerdict {
    /// The verdict as one JSON object.
    pub fn json(&self) -> serde_json::Value {
        serde_json::json!({
            "rule": self.rule.spec(),
            "metric": self.rule.metric.clone(),
            "op": self.rule.op.symbol(),
            "threshold": self.rule.threshold,
            "window_s": self.rule.window.as_secs_f64(),
            "value": self.value,
            "ok": self.ok,
            "reason": self.reason,
        })
    }
}

/// The `/healthz` document: overall health plus per-rule verdicts.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// True when every rule is healthy (the endpoint returns 200 vs 503).
    pub healthy: bool,
    /// One verdict per configured rule, in rule order.
    pub verdicts: Vec<RuleVerdict>,
}

impl HealthReport {
    /// Render the verdict document served by `GET /healthz`.
    pub fn json(&self) -> serde_json::Value {
        serde_json::json!({
            "healthy": self.healthy,
            "status": if self.healthy { "ok" } else { "breached" },
            "rules": self.verdicts.iter().map(RuleVerdict::json).collect::<Vec<_>>(),
        })
    }
}

/// Evaluate every rule against the series' current state.
pub fn evaluate(rules: &[SloRule], series: &TimeSeries) -> HealthReport {
    let verdicts: Vec<RuleVerdict> = rules
        .iter()
        .map(|rule| match series.resolve(&rule.metric, rule.window) {
            Some(value) => {
                let ok = rule.op.holds(value, rule.threshold);
                RuleVerdict {
                    rule: rule.clone(),
                    value: Some(value),
                    ok,
                    reason: if ok { "ok" } else { "breach" },
                }
            }
            None => RuleVerdict {
                rule: rule.clone(),
                value: None,
                ok: true,
                reason: "insufficient_data",
            },
        })
        .collect();
    HealthReport {
        healthy: verdicts.iter().all(|v| v.ok),
        verdicts,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Counter, Latency, Telemetry};
    use super::*;

    #[test]
    fn rules_parse_the_documented_grammar() {
        let r = parse_rule("report_batch_rtt_p99<0.5@30").unwrap();
        assert_eq!(r.metric, "report_batch_rtt_p99");
        assert_eq!(r.op, SloOp::Lt);
        assert_eq!(r.threshold, 0.5);
        assert_eq!(r.window, Duration::from_secs(30));

        let r = parse_rule(" shard_queue_depth <= 10000 ").unwrap();
        assert_eq!(r.op, SloOp::Le);
        assert_eq!(r.window, DEFAULT_WINDOW);

        let r = parse_rule("trials_reported_rate>=0.1@2.5").unwrap();
        assert_eq!(r.op, SloOp::Ge);
        assert_eq!(r.window, Duration::from_secs_f64(2.5));

        assert!(parse_rule("no_operator_here").is_err());
        assert!(parse_rule("<5").is_err());
        assert!(parse_rule("x<notanumber").is_err());
        assert!(parse_rule("x<5@0").is_err());
        assert!(parse_rule("x<5@-2").is_err());
        assert!(default_rules().len() == 4);
    }

    #[test]
    fn rule_spec_roundtrips() {
        for spec in ["a<1@60", "b>=2.5@0.5", "c>100@10"] {
            let rule = parse_rule(spec).unwrap();
            assert_eq!(parse_rule(&rule.spec()).unwrap(), rule);
        }
    }

    #[test]
    fn empty_series_is_healthy_by_insufficient_data() {
        let series = TimeSeries::new(Telemetry::enabled());
        let report = evaluate(&default_rules(), &series);
        assert!(report.healthy);
        assert!(report
            .verdicts
            .iter()
            .all(|v| v.reason == "insufficient_data"));
    }

    #[test]
    fn breach_flips_unhealthy_and_recovers_when_window_drains() {
        let t = Telemetry::enabled();
        let series = TimeSeries::new(t.clone());
        let rules = parse_rules(&["report_batch_rtt_p99<0.01@3600"]).unwrap();
        series.sample_now();
        assert!(evaluate(&rules, &series).healthy, "no data yet");

        // A 200ms tail breaches the 10ms p99 budget.
        for _ in 0..10 {
            t.observe(Latency::ReportBatchRtt, Duration::from_millis(200));
        }
        series.sample_now();
        let report = evaluate(&rules, &series);
        assert!(!report.healthy);
        assert_eq!(report.verdicts[0].reason, "breach");
        assert!(report.verdicts[0].value.unwrap() > 0.01);

        // Recovery: a narrow window that excludes the burst sees zero
        // observations → insufficient data → healthy again.
        series.sample_now();
        let narrow = parse_rules(&["report_batch_rtt_p99<0.01@0.000001"]).unwrap();
        assert!(evaluate(&narrow, &series).healthy);
    }

    #[test]
    fn gauge_and_rate_rules_evaluate() {
        let t = Telemetry::enabled();
        let series = TimeSeries::new(t.clone());
        series.register_gauge("shard_queue_depth", || 42.0);
        series.sample_now();
        t.add(Counter::QuotaRefusals, 1000);
        std::thread::sleep(Duration::from_millis(5));
        series.sample_now();

        let depth_ok = parse_rules(&["shard_queue_depth<100@60"]).unwrap();
        assert!(evaluate(&depth_ok, &series).healthy);
        let depth_bad = parse_rules(&["shard_queue_depth<10@60"]).unwrap();
        let report = evaluate(&depth_bad, &series);
        assert!(!report.healthy);
        assert_eq!(report.verdicts[0].value, Some(42.0));

        // 1000 refusals in a few ms is an enormous rate.
        let rate_bad = parse_rules(&["quota_refusals_rate<100@60"]).unwrap();
        assert!(!evaluate(&rate_bad, &series).healthy);
    }

    #[test]
    fn report_json_shape() {
        let series = TimeSeries::new(Telemetry::enabled());
        series.sample_now();
        let rules = parse_rules(&["open_spans<10@60"]).unwrap();
        let doc = evaluate(&rules, &series).json();
        assert_eq!(doc["healthy"].as_bool(), Some(true));
        assert_eq!(doc["status"].as_str(), Some("ok"));
        let rules_doc = doc["rules"].as_array().unwrap();
        assert_eq!(rules_doc.len(), 1);
        assert_eq!(rules_doc[0]["metric"].as_str(), Some("open_spans"));
        assert_eq!(rules_doc[0]["reason"].as_str(), Some("ok"));
        assert_eq!(rules_doc[0]["value"].as_f64(), Some(0.0));
        // Serializes cleanly.
        serde_json::parse(&serde_json::to_string(&doc).unwrap()).unwrap();
    }
}
