//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! On the machines the paper targets, clients lose connections mid-iteration
//! and servers refuse connects while under load. [`RetryPolicy`] is the one
//! knob set shared by every transport: how many attempts, how the delay
//! grows, and how much seeded jitter decorrelates a fleet of clients that
//! all saw the same failure at the same instant.

use crate::error::{HarmonyError, Result};
use crate::seeded::{splitmix64, unit_f64};
use crate::telemetry::{Counter, Latency, Telemetry};
use std::time::Duration;

/// Backoff schedule for retryable transport errors.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retrying.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// Growth factor per retry (2.0 = classic doubling).
    pub multiplier: f64,
    /// Fraction of the delay randomised away, in `[0, 1]`: the actual sleep
    /// is drawn from `[delay * (1 - jitter), delay]`.
    pub jitter: f64,
    /// Seed for the jitter sequence, so two clients with different seeds
    /// never thundering-herd in lockstep while a given client stays
    /// reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(2),
            multiplier: 2.0,
            jitter: 0.5,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// The sleep before retry number `retry` (0-based: the delay after the
    /// first failed attempt is `delay(0)`). Exponential growth capped at
    /// `max_delay`, with the jitter fraction carved off deterministically
    /// from `(seed, retry)`.
    pub fn delay(&self, retry: u32) -> Duration {
        let exp = self.multiplier.max(1.0).powi(retry.min(63) as i32);
        let raw = self.base_delay.as_secs_f64() * exp;
        let capped = raw.min(self.max_delay.as_secs_f64());
        let jitter = self.jitter.clamp(0.0, 1.0);
        let u = unit_f64(splitmix64(self.seed ^ ((retry as u64) << 32 | 0xA5A5)));
        let scale = 1.0 - jitter * u;
        Duration::from_secs_f64((capped * scale).max(0.0))
    }

    /// Run `op` until it succeeds, exhausts `max_attempts`, or fails with a
    /// fatal error. Sleeps `delay(i)` between attempts. Returns the last
    /// error on exhaustion.
    pub fn run<T, F>(&self, op: F) -> Result<T>
    where
        F: FnMut() -> Result<T>,
    {
        self.run_observed(&Telemetry::disabled(), op)
    }

    /// [`run`](Self::run), with each backoff sleep recorded on `telemetry`
    /// (a [`Counter::RetryBackoffs`] tick and a
    /// [`Latency::RetryBackoffSleep`] observation per sleep).
    pub(crate) fn run_observed<T, F>(&self, telemetry: &Telemetry, mut op: F) -> Result<T>
    where
        F: FnMut() -> Result<T>,
    {
        let attempts = self.max_attempts.max(1);
        let mut last = HarmonyError::Disconnected;
        for attempt in 0..attempts {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt + 1 < attempts => {
                    let sleep = self.delay(attempt);
                    telemetry.inc(Counter::RetryBackoffs);
                    telemetry.observe(Latency::RetryBackoffSleep, sleep);
                    std::thread::sleep(sleep);
                    last = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            multiplier: 2.0,
            jitter: 0.0,
            seed: 0,
        };
        assert_eq!(p.delay(0), Duration::from_millis(10));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(2), Duration::from_millis(40));
        assert_eq!(p.delay(5), Duration::from_millis(100)); // capped
        assert_eq!(p.delay(20), Duration::from_millis(100));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            jitter: 0.5,
            ..Default::default()
        };
        let q = p.clone();
        for retry in 0..6 {
            let a = p.delay(retry);
            let b = q.delay(retry);
            assert_eq!(a, b, "same seed must give same jitter");
            let nominal = p.base_delay.as_secs_f64()
                * p.multiplier
                    .powi(retry as i32)
                    .min(p.max_delay.as_secs_f64() / p.base_delay.as_secs_f64());
            assert!(a.as_secs_f64() <= nominal + 1e-12);
            assert!(a.as_secs_f64() >= nominal * 0.5 - 1e-12);
        }
        let other = RetryPolicy {
            seed: 99,
            ..p.clone()
        };
        assert_ne!(other.delay(0), p.delay(0), "different seeds should differ");
    }

    #[test]
    fn run_retries_retryable_then_succeeds() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            ..Default::default()
        };
        let mut calls = 0;
        let out: Result<u32> = p.run(|| {
            calls += 1;
            if calls < 3 {
                Err(HarmonyError::Disconnected)
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls, 3);
    }

    #[test]
    fn quota_exceeded_is_retried_like_server_busy() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
            ..Default::default()
        };
        let mut calls = 0;
        let out: Result<u32> = p.run(|| {
            calls += 1;
            if calls < 3 {
                Err(HarmonyError::QuotaExceeded { tenant: "t".into() })
            } else {
                Ok(1)
            }
        });
        assert_eq!(out.unwrap(), 1);
        assert_eq!(calls, 3, "quota refusals back off and retry");
    }

    #[test]
    fn run_stops_on_fatal_error() {
        let p = RetryPolicy::default();
        let mut calls = 0;
        let out: Result<()> = p.run(|| {
            calls += 1;
            Err(HarmonyError::Protocol("nope".into()))
        });
        assert!(matches!(out, Err(HarmonyError::Protocol(_))));
        assert_eq!(calls, 1);
    }

    #[test]
    fn run_exhausts_attempts() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
            ..Default::default()
        };
        let mut calls = 0;
        let out: Result<()> = p.run(|| {
            calls += 1;
            Err(HarmonyError::Timeout("read".into()))
        });
        assert!(matches!(out, Err(HarmonyError::Timeout(_))));
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_observed_records_each_backoff() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
            ..Default::default()
        };
        let t = Telemetry::enabled();
        let _: Result<()> = p.run_observed(&t, || Err(HarmonyError::Disconnected));
        // Three attempts means two inter-attempt sleeps.
        assert_eq!(t.counter(Counter::RetryBackoffs), 2);
    }

    #[test]
    fn none_never_retries() {
        let p = RetryPolicy::none();
        let mut calls = 0;
        let _: Result<()> = p.run(|| {
            calls += 1;
            Err(HarmonyError::Disconnected)
        });
        assert_eq!(calls, 1);
    }
}
