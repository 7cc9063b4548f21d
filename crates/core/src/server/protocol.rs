//! Wire protocol between Harmony clients and the server.
//!
//! Every message is serde-serializable, so the protocol can cross a process
//! boundary; in process, a request is a plain function argument and its
//! reply the return value.

use crate::param::Param;
use crate::session::SessionOptions;
use crate::space::Configuration;
use serde::{Deserialize, Serialize};

/// Which tuning algorithm the server should run for a client.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Discrete Nelder–Mead simplex (the default adaptation controller).
    NelderMead,
    /// Uniform random sampling baseline.
    Random,
    /// Systematic sampling with a sample budget.
    Grid {
        /// Approximate number of evenly spaced samples.
        target: usize,
    },
    /// Parallel Rank Ordering (batch simplex; candidates of one round are
    /// independent and may be measured concurrently).
    Pro,
    /// Coupled simulated annealing (adaptive temperature, lattice-aware
    /// neighbors, reheating on stagnation).
    Annealing,
    /// Genetic algorithm with synergy-pair seeding; generations are
    /// batched like PRO rounds.
    Genetic,
    /// Surrogate-assisted search (quadratic model over the evaluation
    /// history, Nelder–Mead fallback).
    Surrogate,
}

impl StrategyKind {
    /// Instantiate the strategy this kind names. Shared by the server's
    /// `Seal` handler and by write-ahead-log replay, so both construct the
    /// exact same strategy state for a given kind.
    pub fn build(&self) -> Box<dyn crate::strategy::SearchStrategy> {
        use crate::strategy::{
            Annealing, Genetic, GridSearch, NelderMead, ParallelRankOrder, RandomSearch, Surrogate,
        };
        match self {
            StrategyKind::NelderMead => Box::new(NelderMead::default()),
            StrategyKind::Random => Box::new(RandomSearch::new()),
            StrategyKind::Grid { target } => Box::new(GridSearch::new(*target)),
            StrategyKind::Pro => Box::new(ParallelRankOrder::default()),
            StrategyKind::Annealing => Box::new(Annealing::default()),
            StrategyKind::Genetic => Box::new(Genetic::default()),
            StrategyKind::Surrogate => Box::new(Surrogate::default()),
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Introduce a new client application.
    Register {
        /// Application label (for logs and prior-run keys).
        app: String,
        /// Tenant the founded session is accounted to (quotas and
        /// fair dispatch). Empty means the `"default"` tenant, so frames
        /// from older clients stay wire-compatible.
        #[serde(default)]
        tenant: String,
    },
    /// Join an existing tuning session as an additional worker (or rejoin
    /// it after a crash). The session id is the one returned by
    /// [`Reply::Registered`]; the joining connection gets its own client id
    /// and may fetch/report trials of the shared session.
    Attach {
        /// Session to join.
        session: u64,
        /// Tenant this worker acts for. Informational: the session keeps
        /// its founder's tenant for quota/dispatch accounting. Empty means
        /// `"default"` (wire-compatible with older clients).
        #[serde(default)]
        tenant: String,
    },
    /// Liveness signal: refreshes this client's `last_seen` so deadline
    /// eviction does not requeue its outstanding trials while a long
    /// measurement is still running.
    Heartbeat,
    /// Depart from the session. Outstanding trials held by this client are
    /// requeued for other workers. The last member's `Leave` ends the
    /// session, unless a member that departed without one (its connection
    /// dropped, or it missed its TTL) has not rejoined yet.
    Leave,
    /// Declare one tunable parameter (pre-seal only).
    AddParam {
        /// The parameter declaration.
        param: Param,
    },
    /// Declare a monotone-chain dependency between parameters (pre-seal).
    AddMonotoneChain {
        /// Parameter names in chain order.
        names: Vec<String>,
    },
    /// Finish declaration and start tuning.
    Seal {
        /// Session stopping criteria.
        options: SessionOptions,
        /// Tuning algorithm to use.
        strategy: StrategyKind,
    },
    /// Retired: the server answers it with a non-retryable protocol error
    /// naming [`Exchange`](Self::Exchange). The variant stays because the
    /// frozen `benchmark/` crate builds it to time frame encoding.
    Fetch,
    /// Retired like [`Fetch`](Self::Fetch), and kept for the same reason.
    ReportBatch {
        /// One entry per measured trial.
        reports: Vec<TrialReport>,
    },
    /// The one request that moves trials: report measured costs, then ask
    /// for up to `max` trials, answered as [`Reply::Configs`]. Reports are
    /// matched to trials by iteration token, so order does not matter and
    /// partial reports are fine; a report that fails is the reply, and
    /// nothing is fetched. The trials are the caller's own unreported ones
    /// first (oldest first), then requeued trials of departed members, then
    /// fresh proposals — for PRO a whole round of independent candidates.
    /// An `Exchange` that reports nothing and whose top-up the tenant's
    /// in-flight quota refuses is [`Reply::QuotaExceeded`]; one that did
    /// report gets an empty `Configs` (its reports still count). Once the
    /// session has stopped, the reply is an empty `Configs` marked
    /// `finished`. The serial loop is the batch of one.
    Exchange {
        /// One entry per measured trial; may be empty.
        reports: Vec<TrialReport>,
        /// Upper bound on the number of trials returned; the server clamps
        /// it to 1024.
        max: usize,
    },
    /// Ask for the best configuration so far.
    QueryBest,
    /// Ask for the full evaluation history of the session (used by tests,
    /// diagnostics, and trajectory-equivalence checks).
    QueryHistory,
    /// Connection-level goodbye: the TCP front-end answers `Ok` and closes
    /// the connection. It never stops the shared server.
    Shutdown,
}

/// One measured result inside a [`Request::Exchange`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialReport {
    /// Iteration token of the fetched trial this result belongs to.
    pub iteration: usize,
    /// Measured objective (e.g. execution time in seconds).
    pub cost: f64,
    /// Wall-clock spent obtaining the measurement.
    pub wall_time: f64,
}

/// One trial inside a [`Reply::Configs`] batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FetchedTrial {
    /// The configuration to run.
    pub config: Configuration,
    /// Iteration token; echo it back in the matching [`TrialReport`].
    pub iteration: usize,
}

/// Server → client messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Reply {
    /// Registration succeeded; use this id in future envelopes.
    Registered {
        /// The allocated client id.
        client_id: u64,
        /// The session this client belongs to. Equal to `client_id` for a
        /// fresh `Register`; echoes the joined session for `Attach`. Pass
        /// it to `Attach` to rejoin after a disconnect.
        session: u64,
    },
    /// Request succeeded with nothing to return.
    Ok,
    /// Never sent: the server answers every trial request with
    /// [`Configs`](Self::Configs). The variant stays because the frozen
    /// `benchmark/` crate builds it to time frame encoding.
    Config {
        /// The configuration.
        config: Configuration,
        /// 1-based evaluation index.
        iteration: usize,
        /// True once the session has stopped.
        finished: bool,
    },
    /// A batch of configurations to run (reply to [`Request::Exchange`]).
    Configs {
        /// The trials to measure; may be fewer than requested (strategy
        /// waiting on outstanding reports) or empty with `finished`.
        trials: Vec<FetchedTrial>,
        /// True once the session has stopped; no further trials will come.
        finished: bool,
    },
    /// Best configuration so far, if any evaluation happened.
    Best {
        /// `(configuration, cost)` of the best evaluation.
        best: Option<(Configuration, f64)>,
    },
    /// Full evaluation history (reply to [`Request::QueryHistory`]).
    History {
        /// Every evaluation in flush order.
        history: crate::history::History,
        /// True once the session has stopped.
        finished: bool,
    },
    /// The request failed.
    Error {
        /// Human-readable reason.
        message: String,
        /// True when the condition is transient (e.g. the server is at its
        /// connection cap) and the client should retry with backoff.
        retryable: bool,
    },
    /// The request was refused because its tenant is at a configured
    /// quota (sessions or in-flight trials). Distinct from the generic
    /// retryable [`Reply::Error`] so clients can classify the refusal:
    /// it is transient — capacity frees up as the tenant's other work
    /// completes — and maps to `HarmonyError::QuotaExceeded`.
    QuotaExceeded {
        /// The tenant whose quota was hit.
        tenant: String,
    },
}

/// Clamp one measurement at the protocol boundary: a non-finite cost
/// becomes `+inf` (NaN would scramble cost ordering; `-inf` would become an
/// unbeatable false best) and a non-finite wall time becomes `0.0` (it
/// would poison the history's cumulative-time column). Returns the
/// sanitized pair and whether anything was clamped. Applied to every
/// reported measurement before a session sees the values — a hostile or buggy
/// client must not be able to corrupt the shared trajectory. Note the wire
/// format makes this reachable: raw JSON like `1e999` parses to `+inf`.
pub(crate) fn sanitize_measurement(cost: f64, wall_time: f64) -> (f64, f64, bool) {
    let clamped = !cost.is_finite() || !wall_time.is_finite();
    (
        if cost.is_finite() {
            cost
        } else {
            f64::INFINITY
        },
        if wall_time.is_finite() {
            wall_time
        } else {
            0.0
        },
        clamped,
    )
}

impl Reply {
    /// A fatal error reply.
    pub fn err(message: impl Into<String>) -> Self {
        Reply::Error {
            message: message.into(),
            retryable: false,
        }
    }

    /// A transient error reply the client should retry with backoff.
    pub fn busy(message: impl Into<String>) -> Self {
        Reply::Error {
            message: message.into(),
            retryable: true,
        }
    }
}

/// Ceiling on one wire frame (one newline-terminated JSON line) accepted by
/// the nonblocking front-end. Generous: an `Exchange` report is tens of
/// bytes, so this covers batches tens of thousands of trials deep. The cap
/// exists so a peer streaming garbage (or a length-prefix-style binary
/// blob) without ever sending `\n` produces a clean protocol error instead
/// of growing a buffer forever.
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// Incremental newline-frame decoder: the nonblocking transport's
/// equivalent of `BufRead::read_line`. Bytes arrive in arbitrary chunks
/// ([`extend`](Self::extend)); complete frames come out of
/// [`next_frame`](Self::next_frame) exactly as the blocking reader would
/// have produced them (split on `\n`, trailing `\r` stripped), regardless
/// of where the chunk boundaries fell.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes before this offset were consumed by returned frames; the
    /// prefix is compacted away lazily to keep `extend` amortized O(n).
    pos: usize,
    max_frame: usize,
    poisoned: bool,
}

/// A frame exceeded the decoder's cap without a terminating newline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameTooLong {
    /// The configured ceiling, for the error message sent to the peer.
    pub limit: usize,
}

impl std::fmt::Display for FrameTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame exceeds {} bytes without a newline", self.limit)
    }
}

impl FrameDecoder {
    /// Decoder enforcing `max_frame` bytes per line ([`MAX_FRAME_LEN`] is
    /// the transport's default).
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_frame: max_frame.max(1),
            poisoned: false,
        }
    }

    /// Feed a chunk of received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, or `None` when more bytes are needed.
    /// Returns `Err` once the unterminated tail outgrows the cap; the
    /// decoder stays poisoned afterwards (the stream has no recoverable
    /// framing), so the owner must error out and close.
    pub fn next_frame(&mut self) -> std::result::Result<Option<String>, FrameTooLong> {
        if self.poisoned {
            return Err(FrameTooLong {
                limit: self.max_frame,
            });
        }
        let tail = &self.buf[self.pos..];
        match tail.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                let mut end = nl;
                if end > 0 && tail[end - 1] == b'\r' {
                    end -= 1;
                }
                if end > self.max_frame {
                    self.poisoned = true;
                    return Err(FrameTooLong {
                        limit: self.max_frame,
                    });
                }
                let frame = String::from_utf8_lossy(&tail[..end]).into_owned();
                self.pos += nl + 1;
                Ok(Some(frame))
            }
            None if tail.len() > self.max_frame => {
                self.poisoned = true;
                Err(FrameTooLong {
                    limit: self.max_frame,
                })
            }
            None => Ok(None),
        }
    }

    /// The unterminated remainder at EOF, exactly as `BufRead::lines`
    /// yields a final line with no trailing newline. Empty tail → `None`.
    pub fn finish(&mut self) -> Option<String> {
        if self.poisoned || self.pos >= self.buf.len() {
            return None;
        }
        // No `\r` stripping here: `BufRead::lines` only strips a CR that
        // precedes the terminating LF, and this tail has no LF.
        let tail = &self.buf[self.pos..];
        let frame = String::from_utf8_lossy(tail).into_owned();
        self.pos = self.buf.len();
        Some(frame)
    }

    /// Change the cap for the frames still to come: the observe plane
    /// lowers it as a request head uses up its byte budget.
    pub(crate) fn set_max_frame(&mut self, max_frame: usize) {
        self.max_frame = max_frame;
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What the blocking transport's reader produces for `bytes`: the
    /// ground truth the incremental decoder must reproduce byte for byte.
    fn blocking_lines(bytes: &[u8]) -> Vec<String> {
        use std::io::BufRead;
        std::io::BufReader::new(bytes)
            .lines()
            .map(|l| l.expect("in-memory read"))
            .collect()
    }

    /// Run `bytes` through the decoder, cutting the stream at `splits`
    /// (arbitrary chunk boundaries, as TCP would).
    fn decoded_frames(bytes: &[u8], splits: &[usize]) -> Vec<String> {
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        let mut frames = Vec::new();
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (bytes.len() + 1)).collect();
        cuts.push(0);
        cuts.push(bytes.len());
        cuts.sort_unstable();
        for pair in cuts.windows(2) {
            dec.extend(&bytes[pair[0]..pair[1]]);
            while let Some(frame) = dec.next_frame().expect("under the cap") {
                frames.push(frame);
            }
        }
        frames.extend(dec.finish());
        frames
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any frame sequence split at arbitrary byte boundaries decodes
        /// identically to the blocking `BufRead::lines` reader.
        #[test]
        fn decoder_matches_blocking_reader_under_any_split(
            lens in proptest::collection::vec(0usize..40, 0..8),
            splits in proptest::collection::vec(0usize..512, 0..6),
            style in 0u8..4,
        ) {
            // Build a stream of frames in several framing styles: plain LF,
            // CRLF, empty lines, and an unterminated tail.
            let mut bytes = Vec::new();
            for (i, len) in lens.iter().enumerate() {
                let payload: String = (0..*len)
                    .map(|j| char::from(b'!' + ((i * 7 + j * 13) % 90) as u8))
                    .collect();
                bytes.extend_from_slice(payload.as_bytes());
                match (style + i as u8) % 3 {
                    0 => bytes.push(b'\n'),
                    1 => bytes.extend_from_slice(b"\r\n"),
                    _ => bytes.extend_from_slice(b"\n\n"), // plus an empty frame
                }
            }
            if style == 3 {
                bytes.extend_from_slice(b"unterminated tail");
            }
            prop_assert_eq!(decoded_frames(&bytes, &splits), blocking_lines(&bytes));
        }

        /// Oversized frames (no newline inside the cap — garbage, or a
        /// binary length-prefix protocol pointed at the wrong port) produce
        /// a clean error as soon as the cap is crossed, never a hang or an
        /// unbounded buffer, and the decoder stays poisoned.
        #[test]
        fn oversized_frames_error_cleanly(cap in 8usize..64, chunk in 1usize..17) {
            let mut dec = FrameDecoder::new(cap);
            let garbage = vec![0x7fu8; cap * 3];
            let mut fed = 0;
            let mut failed = false;
            for piece in garbage.chunks(chunk) {
                dec.extend(piece);
                fed += piece.len();
                match dec.next_frame() {
                    Ok(None) => prop_assert!(fed <= cap + chunk, "cap not enforced"),
                    Ok(Some(f)) => prop_assert!(false, "decoded garbage frame {f:?}"),
                    Err(e) => {
                        prop_assert_eq!(e.limit, cap);
                        failed = true;
                        break;
                    }
                }
            }
            prop_assert!(failed, "oversized stream must error");
            // Poisoned: even a valid frame afterwards keeps erroring.
            dec.extend(b"{}\n");
            prop_assert!(dec.next_frame().is_err());
        }
    }

    #[test]
    fn oversized_terminated_frame_is_rejected_too() {
        // A newline does arrive, but the line before it is over the cap:
        // still a protocol error (the peer can craft arbitrarily large
        // frames otherwise).
        let mut dec = FrameDecoder::new(8);
        dec.extend(b"0123456789ABCDEF\n");
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn requests_roundtrip_through_json() {
        let msgs = vec![
            Request::Register {
                app: "gs2".into(),
                tenant: String::new(),
            },
            Request::Register {
                app: "gs2".into(),
                tenant: "team-a".into(),
            },
            Request::Attach {
                session: 17,
                tenant: String::new(),
            },
            Request::Attach {
                session: 17,
                tenant: "team-b".into(),
            },
            Request::Heartbeat,
            Request::Leave,
            Request::QueryHistory,
            Request::AddParam {
                param: Param::int("negrid", 4, 32, 2),
            },
            Request::AddMonotoneChain {
                names: vec!["b1".into(), "b2".into()],
            },
            Request::Seal {
                options: SessionOptions::default(),
                strategy: StrategyKind::Grid { target: 100 },
            },
            Request::Fetch,
            Request::ReportBatch {
                reports: vec![
                    TrialReport {
                        iteration: 4,
                        cost: 1.25,
                        wall_time: 2.5,
                    },
                    TrialReport {
                        iteration: 7,
                        cost: 0.5,
                        wall_time: 0.5,
                    },
                ],
            },
            Request::Exchange {
                reports: vec![TrialReport {
                    iteration: 8,
                    cost: 0.25,
                    wall_time: 0.25,
                }],
                max: 1,
            },
            Request::QueryBest,
            Request::Shutdown,
        ];
        for m in msgs {
            let s = serde_json::to_string(&m).unwrap();
            let back: Request = serde_json::from_str(&s).unwrap();
            // Compare via re-serialization (Request has no PartialEq because
            // SessionOptions carries floats we still want exact here).
            assert_eq!(s, serde_json::to_string(&back).unwrap());
        }
    }

    #[test]
    fn tenantless_frames_from_older_clients_still_parse() {
        // PR-6-era clients send Register/Attach without a tenant field;
        // `#[serde(default)]` must map that to the empty (default) tenant.
        let req: Request = serde_json::from_str("{\"Register\":{\"app\":\"gs2\"}}").unwrap();
        match req {
            Request::Register { app, tenant } => {
                assert_eq!(app, "gs2");
                assert!(tenant.is_empty());
            }
            other => panic!("expected Register, got {other:?}"),
        }
        let req: Request = serde_json::from_str("{\"Attach\":{\"session\":5}}").unwrap();
        match req {
            Request::Attach { session, tenant } => {
                assert_eq!(session, 5);
                assert!(tenant.is_empty());
            }
            other => panic!("expected Attach, got {other:?}"),
        }
    }

    #[test]
    fn replies_roundtrip_through_json() {
        let space = crate::space::SearchSpace::builder()
            .int("x", 0, 5, 1)
            .build()
            .unwrap();
        let msgs = vec![
            Reply::Registered {
                client_id: 3,
                session: 3,
            },
            Reply::Ok,
            Reply::History {
                history: crate::history::History::new(),
                finished: false,
            },
            Reply::busy("server at connection capacity (4)"),
            Reply::Config {
                config: space.center(),
                iteration: 2,
                finished: false,
            },
            Reply::Configs {
                trials: vec![
                    FetchedTrial {
                        config: space.center(),
                        iteration: 1,
                    },
                    FetchedTrial {
                        config: space.center(),
                        iteration: 2,
                    },
                ],
                finished: false,
            },
            Reply::Configs {
                trials: vec![],
                finished: true,
            },
            Reply::Best {
                best: Some((space.center(), 1.5)),
            },
            Reply::err("nope"),
            Reply::QuotaExceeded {
                tenant: "team-a".into(),
            },
        ];
        for m in msgs {
            let s = serde_json::to_string(&m).unwrap();
            let back: Reply = serde_json::from_str(&s).unwrap();
            assert_eq!(s, serde_json::to_string(&back).unwrap());
        }
    }
}
