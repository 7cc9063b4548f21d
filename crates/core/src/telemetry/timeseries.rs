//! Retained time-series over a [`Telemetry`] handle.
//!
//! `/metrics` is a point-in-time scrape: it can tell you *how many*
//! evaluations have ever happened, but not whether the server is doing
//! 40k/s right now or has stalled. This module adds the missing axis —
//! time — without any new dependency:
//!
//! * [`TimeSeries`] owns a bounded ring of [`Sample`]s. Each sample is a
//!   full snapshot of every counter, every registered gauge, and the **raw
//!   buckets** of every latency histogram. Retaining raw buckets (not
//!   precomputed quantiles) is the load-bearing choice: the delta of two
//!   cumulative histograms is itself a histogram, so any window's p50/p99
//!   is exact over exactly the observations made inside that window.
//! * A server given the series calls [`TimeSeries::sample_now`] on its
//!   chores thread every `ServerConfig::sample_interval`.
//! * [`TimeSeries::window`] answers delta/rate/percentile queries over an
//!   arbitrary trailing window; [`TimeSeries::resolve`] maps a metric name
//!   (`<counter>`, `<counter>_rate`, `<latency>_p50|_p90|_p99`, or a gauge)
//!   to a value — the lookup language the SLO engine ([`super::slo`]) and
//!   the `/metrics/history` endpoint share.
//!
//! Memory is bounded by construction: `capacity` samples × (32 counters +
//! 11×26 histogram buckets + a handful of gauges) ≈ a few hundred KiB at
//! the default 512-sample ring, independent of traffic.

use super::{Counter, HistoSnapshot, Latency, Telemetry};
use crate::lock;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default number of retained samples (at the default 1s interval: ~8.5
/// minutes of history).
pub const DEFAULT_RING_CAPACITY: usize = 512;

/// A server's sampling interval when `ServerConfig::sample_interval` is zero.
pub(crate) const DEFAULT_SAMPLE_INTERVAL: Duration = Duration::from_secs(1);

/// A gauge read on every sampling tick: any `Fn() -> f64` closure (queue
/// depths, unsynced store records, open spans, ...).
pub type GaugeFn = Box<dyn Fn() -> f64 + Send + Sync>;

/// One snapshot of the whole telemetry surface at a point in time.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Microseconds since the series was created.
    pub at_us: u64,
    /// Every counter's cumulative value, in [`Counter::ALL`] order.
    pub counters: Vec<u64>,
    /// Every registered gauge's instantaneous value, `(name, value)`.
    pub gauges: Vec<(String, f64)>,
    /// Every latency histogram's raw cumulative state, in
    /// [`Latency::ALL`] order.
    pub histos: Vec<HistoSnapshot>,
}

impl Sample {
    /// Cumulative value of one counter in this sample.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.idx()]
    }
}

/// Delta/rate/percentile aggregation between the first and last sample of
/// a trailing window. Produced by [`TimeSeries::window`].
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Timestamp of the first sample in the window (µs since series start).
    pub first_at_us: u64,
    /// Timestamp of the last sample in the window.
    pub last_at_us: u64,
    /// Wall-clock span between them, in seconds (0 with one sample).
    pub seconds: f64,
    /// Number of samples inside the window.
    pub samples: usize,
    /// Per-counter increase across the window, in [`Counter::ALL`] order.
    pub counter_deltas: Vec<(&'static str, u64)>,
    /// Per-counter rate (delta / seconds; 0 when the window has no span).
    pub counter_rates: Vec<(&'static str, f64)>,
    /// Per-histogram delta snapshot — the observations made *inside* the
    /// window, in [`Latency::ALL`] order.
    pub histo_deltas: Vec<(&'static str, HistoSnapshot)>,
    /// Last observed value of each gauge, `(name, value)`.
    pub gauge_last: Vec<(String, f64)>,
}

struct SeriesInner {
    telemetry: Telemetry,
    start: Instant,
    capacity: usize,
    gauges: Mutex<Vec<(String, GaugeFn)>>,
    ring: Mutex<VecDeque<Sample>>,
}

/// A cheap, cloneable handle on the retained ring. See the
/// [module docs](self).
#[derive(Clone)]
pub struct TimeSeries {
    inner: Arc<SeriesInner>,
}

impl std::fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeSeries")
            .field("samples", &lock(&self.inner.ring).len())
            .field("capacity", &self.inner.capacity)
            .finish_non_exhaustive()
    }
}

impl TimeSeries {
    /// A series over `telemetry` with the [`DEFAULT_RING_CAPACITY`] ring.
    pub fn new(telemetry: Telemetry) -> Self {
        Self::with_capacity(telemetry, DEFAULT_RING_CAPACITY)
    }

    /// A series retaining at most `capacity` samples (older samples are
    /// evicted). The `open_spans` gauge is pre-registered — span leaks are
    /// one of the SLO engine's stock signals.
    pub fn with_capacity(telemetry: Telemetry, capacity: usize) -> Self {
        let t = telemetry.clone();
        let series = TimeSeries {
            inner: Arc::new(SeriesInner {
                telemetry,
                start: Instant::now(),
                capacity: capacity.max(2),
                gauges: Mutex::new(Vec::new()),
                ring: Mutex::new(VecDeque::new()),
            }),
        };
        series.register_gauge("open_spans", move || t.open_spans() as f64);
        series
    }

    /// Register (or replace) a gauge read on every sampling tick.
    pub(crate) fn register_gauge(&self, name: &str, f: impl Fn() -> f64 + Send + Sync + 'static) {
        let mut gauges = lock(&self.inner.gauges);
        match gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = Box::new(f),
            None => gauges.push((name.to_string(), Box::new(f))),
        }
    }

    /// Take one snapshot now and append it to the ring. Returns the
    /// sample's timestamp (µs since series creation).
    pub fn sample_now(&self) -> u64 {
        let at_us = u64::try_from(self.inner.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let counters = Counter::ALL
            .iter()
            .map(|c| self.inner.telemetry.counter(*c))
            .collect();
        let histos = Latency::ALL
            .iter()
            .map(|l| self.inner.telemetry.histogram(*l))
            .collect();
        let gauges = {
            let gauges = lock(&self.inner.gauges);
            gauges.iter().map(|(n, f)| (n.clone(), f())).collect()
        };
        let sample = Sample {
            at_us,
            counters,
            gauges,
            histos,
        };
        let mut ring = lock(&self.inner.ring);
        if ring.len() >= self.inner.capacity {
            ring.pop_front();
        }
        ring.push_back(sample);
        at_us
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        lock(&self.inner.ring).len()
    }

    /// True when no sample has been taken yet.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner.ring).is_empty()
    }

    /// The newest sample, if any.
    pub(crate) fn latest(&self) -> Option<Sample> {
        lock(&self.inner.ring).back().cloned()
    }

    /// The retained samples whose age (relative to the newest sample) is
    /// within `window`, oldest first.
    pub(crate) fn samples_within(&self, window: Duration) -> Vec<Sample> {
        let ring = lock(&self.inner.ring);
        let Some(last) = ring.back() else {
            return Vec::new();
        };
        let window_us = u64::try_from(window.as_micros()).unwrap_or(u64::MAX);
        let cutoff = last.at_us.saturating_sub(window_us);
        ring.iter().filter(|s| s.at_us >= cutoff).cloned().collect()
    }

    /// Aggregate the trailing `window` into deltas, rates, and windowed
    /// histogram snapshots. `None` before the first sample; with a single
    /// sample the deltas are zero over a zero-second span.
    pub fn window(&self, window: Duration) -> Option<WindowStats> {
        let samples = self.samples_within(window);
        let (first, last) = (samples.first()?, samples.last()?);
        let seconds = last.at_us.saturating_sub(first.at_us) as f64 / 1e6;
        let counter_deltas: Vec<(&'static str, u64)> = Counter::ALL
            .iter()
            .map(|c| (c.name(), last.counter(*c).saturating_sub(first.counter(*c))))
            .collect();
        let counter_rates = counter_deltas
            .iter()
            .map(|(name, delta)| {
                let rate = if seconds > 0.0 {
                    *delta as f64 / seconds
                } else {
                    0.0
                };
                (*name, rate)
            })
            .collect();
        let histo_deltas = Latency::ALL
            .iter()
            .enumerate()
            .map(|(i, l)| (l.name(), last.histos[i].delta(&first.histos[i])))
            .collect();
        Some(WindowStats {
            first_at_us: first.at_us,
            last_at_us: last.at_us,
            seconds,
            samples: samples.len(),
            counter_deltas,
            counter_rates,
            histo_deltas,
            gauge_last: last.gauges.clone(),
        })
    }

    /// Resolve a metric name to its current value over `window` — the
    /// lookup language shared by SLO rules and dashboards:
    ///
    /// * `<counter>_rate` → that counter's per-second rate over the window;
    /// * `<counter>` → its latest cumulative value;
    /// * `<latency>_p50` / `_p90` / `_p99` → that windowed percentile, in
    ///   **seconds**;
    /// * anything else → the latest value of the gauge of that name.
    ///
    /// `None` means insufficient data: no samples yet, an unknown name, or
    /// a percentile over a window with zero observations.
    pub fn resolve(&self, metric: &str, window: Duration) -> Option<f64> {
        let stats = self.window(window)?;
        if let Some(base) = metric.strip_suffix("_rate") {
            if let Some((_, rate)) = stats.counter_rates.iter().find(|(n, _)| *n == base) {
                return Some(*rate);
            }
        }
        for (suffix, q) in [("_p50", 0.50), ("_p90", 0.90), ("_p99", 0.99)] {
            if let Some(base) = metric.strip_suffix(suffix) {
                if let Some((_, h)) = stats.histo_deltas.iter().find(|(n, _)| *n == base) {
                    return h.percentile_us(q).map(|us| us / 1e6);
                }
            }
        }
        if Counter::ALL.iter().any(|c| c.name() == metric) {
            let last = self.latest()?;
            let c = Counter::ALL.iter().find(|c| c.name() == metric)?;
            return Some(last.counter(*c) as f64);
        }
        stats
            .gauge_last
            .iter()
            .find(|(n, _)| n == metric)
            .map(|(_, v)| *v)
    }

    /// The `/metrics/history` document: windowed rates, deltas, latency
    /// summaries, gauge values, and the raw sample series (counters +
    /// gauges per tick; histogram buckets stay internal).
    pub(crate) fn history_json(&self, window: Duration) -> serde_json::Value {
        use serde_json::Value;
        let samples = self.samples_within(window);
        let stats = self.window(window);
        let obj_u64 = |pairs: &[(&'static str, u64)]| {
            Value::Object(
                pairs
                    .iter()
                    .map(|(n, v)| (n.to_string(), Value::UInt(*v)))
                    .collect(),
            )
        };
        let obj_f64 = |pairs: &[(&'static str, f64)]| {
            Value::Object(
                pairs
                    .iter()
                    .map(|(n, v)| (n.to_string(), Value::Float(*v)))
                    .collect(),
            )
        };
        let series: Vec<Value> = samples
            .iter()
            .map(|s| {
                let counters = Value::Object(
                    Counter::ALL
                        .iter()
                        .map(|c| (c.name().to_string(), Value::UInt(s.counter(*c))))
                        .collect(),
                );
                let gauges = Value::Object(
                    s.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::Float(*v)))
                        .collect(),
                );
                serde_json::json!({
                    "at_us": s.at_us,
                    "counters": counters,
                    "gauges": gauges,
                })
            })
            .collect();
        let window_doc = match &stats {
            Some(w) => {
                let latency = Value::Object(
                    w.histo_deltas
                        .iter()
                        .map(|(n, h)| (n.to_string(), h.summary_json()))
                        .collect(),
                );
                let gauges = Value::Object(
                    w.gauge_last
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::Float(*v)))
                        .collect(),
                );
                serde_json::json!({
                    "seconds": w.seconds,
                    "samples": w.samples,
                    "deltas": obj_u64(&w.counter_deltas),
                    "rates": obj_f64(&w.counter_rates),
                    "latency": latency,
                    "gauges": gauges,
                })
            }
            None => Value::Null,
        };
        serde_json::json!({
            "window_s": window.as_secs_f64(),
            "retained": self.len(),
            "capacity": self.inner.capacity,
            "window": window_doc,
            "series": Value::Array(series),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{HarmonyServer, ServerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn window_deltas_equal_counter_deltas() {
        let t = Telemetry::enabled();
        let series = TimeSeries::new(t.clone());
        t.add(Counter::TrialsReported, 10);
        series.sample_now();
        t.add(Counter::TrialsReported, 32);
        t.inc(Counter::QuotaRefusals);
        series.sample_now();
        let w = series.window(Duration::from_secs(3600)).unwrap();
        assert_eq!(w.samples, 2);
        let delta = |name: &str| {
            w.counter_deltas
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, d)| *d)
                .unwrap()
        };
        assert_eq!(delta("trials_reported"), 32);
        assert_eq!(delta("quota_refusals"), 1);
        assert_eq!(delta("trials_proposed"), 0);
        // Cumulative resolve sees the full total, not the delta.
        assert_eq!(
            series.resolve("trials_reported", Duration::from_secs(3600)),
            Some(42.0)
        );
    }

    #[test]
    fn ring_is_bounded() {
        let series = TimeSeries::with_capacity(Telemetry::enabled(), 4);
        for _ in 0..10 {
            series.sample_now();
        }
        assert_eq!(series.len(), 4);
    }

    #[test]
    fn windowed_percentile_sees_only_window_observations() {
        let t = Telemetry::enabled();
        let series = TimeSeries::new(t.clone());
        series.sample_now();
        for _ in 0..100 {
            t.observe(Latency::ReportBatchRtt, Duration::from_micros(10));
        }
        std::thread::sleep(Duration::from_millis(2));
        series.sample_now();
        // A quiet window after the burst: no new observations.
        std::thread::sleep(Duration::from_millis(2));
        series.sample_now();
        let w = series.window(Duration::from_micros(1)).unwrap();
        let (_, h) = w
            .histo_deltas
            .iter()
            .find(|(n, _)| *n == "report_batch_rtt")
            .unwrap();
        // Only the last sample is inside the 1µs window → zero-delta
        // histogram → no percentile (insufficient data, not a breach).
        assert_eq!(h.count, 0);
        assert_eq!(
            series.resolve("report_batch_rtt_p99", Duration::from_micros(1)),
            None
        );
        // The full window sees the burst.
        let p99 = series
            .resolve("report_batch_rtt_p99", Duration::from_secs(3600))
            .unwrap();
        assert!(p99 > 0.0 && p99 < 0.001, "p99 {p99} should be ~16µs");
    }

    #[test]
    fn gauges_are_sampled_and_resolvable() {
        let series = TimeSeries::new(Telemetry::enabled());
        let depth = Arc::new(AtomicBool::new(false));
        let d = depth.clone();
        series.register_gauge("shard_queue_depth", move || {
            if d.load(Ordering::Relaxed) {
                50.0
            } else {
                3.0
            }
        });
        series.sample_now();
        assert_eq!(
            series.resolve("shard_queue_depth", Duration::from_secs(60)),
            Some(3.0)
        );
        depth.store(true, Ordering::Relaxed);
        series.sample_now();
        assert_eq!(
            series.resolve("shard_queue_depth", Duration::from_secs(60)),
            Some(50.0)
        );
        // The stock open_spans gauge exists from construction.
        assert_eq!(
            series.resolve("open_spans", Duration::from_secs(60)),
            Some(0.0)
        );
        // Unknown names resolve to nothing.
        assert_eq!(
            series.resolve("no_such_metric", Duration::from_secs(60)),
            None
        );
    }

    #[test]
    fn a_server_samples_its_series_until_it_shuts_down() {
        let series = TimeSeries::new(Telemetry::enabled());
        let server = HarmonyServer::start_with_config(ServerConfig {
            timeseries: Some(series.clone()),
            sample_interval: Duration::from_millis(5),
            ..Default::default()
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while series.len() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
        let n = series.len();
        assert!(n >= 3, "the server took {n} samples");
        // No more samples after shutdown.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(series.len(), n);
    }

    #[test]
    fn history_json_has_rates_and_series() {
        let t = Telemetry::enabled();
        let series = TimeSeries::new(t.clone());
        t.add(Counter::TrialsReported, 5);
        series.sample_now();
        std::thread::sleep(Duration::from_millis(5));
        t.add(Counter::TrialsReported, 5);
        series.sample_now();
        let doc = series.history_json(Duration::from_secs(60));
        assert_eq!(doc["retained"].as_u64(), Some(2));
        assert_eq!(doc["series"].as_array().unwrap().len(), 2);
        assert_eq!(doc["window"]["deltas"]["trials_reported"].as_u64(), Some(5));
        let rate = doc["window"]["rates"]["trials_reported"].as_f64().unwrap();
        assert!(rate > 0.0, "rate {rate}");
        // Round-trips through the serializer.
        let text = serde_json::to_string(&doc).unwrap();
        serde_json::parse(&text).unwrap();
    }

    #[test]
    fn empty_series_resolves_nothing() {
        let series = TimeSeries::new(Telemetry::enabled());
        assert!(series.is_empty());
        assert!(series.window(Duration::from_secs(60)).is_none());
        assert_eq!(
            series.resolve("trials_reported", Duration::from_secs(60)),
            None
        );
        let doc = series.history_json(Duration::from_secs(60));
        assert!(doc["window"].is_null());
    }
}
