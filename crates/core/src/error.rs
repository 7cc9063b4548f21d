//! Error types for the Active Harmony tuning system.
//!
//! Errors carry a coarse [`ErrorClass`]: *retryable* errors are transient
//! transport conditions (lost connection, timeout, server at capacity) that
//! a client may safely retry with backoff, while *fatal* errors are protocol
//! or state violations that retrying can never fix. The TCP client's
//! retry/backoff loop keys off `HarmonyError::is_retryable`.

use std::fmt;

/// Whether an error is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Transient: retrying with backoff may succeed (lost connection,
    /// timeout, server at capacity).
    Retryable,
    /// Permanent: a protocol or state violation; retrying cannot help.
    Fatal,
}

/// Errors produced by search-space construction, sessions, and the tuning
/// server.
#[derive(Debug, Clone, PartialEq)]
pub enum HarmonyError {
    /// A parameter was declared with an empty or inverted domain.
    InvalidParam {
        /// Name of the offending parameter.
        name: String,
        /// Human-readable description of what is wrong.
        reason: String,
    },
    /// Two parameters in the same space share a name.
    DuplicateParam(String),
    /// A configuration referenced a parameter that the space does not define.
    UnknownParam(String),
    /// A value did not match the declared type/domain of its parameter.
    TypeMismatch {
        /// Name of the parameter.
        name: String,
        /// What was expected (e.g. `"int in [1, 8]"`).
        expected: String,
    },
    /// The search space has no parameters.
    EmptySpace,
    /// A client or session id was not known to the server.
    UnknownClient(u64),
    /// The server or a client channel was closed unexpectedly.
    Disconnected,
    /// An I/O deadline elapsed (connect, read, or write).
    Timeout(String),
    /// The server refused service because it is at capacity; retry later.
    ServerBusy(String),
    /// A tenant hit one of its configured quotas (sessions or in-flight
    /// trials). Transient like [`ServerBusy`](Self::ServerBusy) — capacity
    /// frees up as the tenant's other work completes — but typed, so
    /// callers can tell a per-tenant refusal from global backpressure.
    QuotaExceeded {
        /// The tenant whose quota was hit.
        tenant: String,
    },
    /// A filesystem or socket operation failed (WAL append, frame write).
    Io(String),
    /// A write-ahead log could not be replayed (truncated mid-record is
    /// tolerated; anything else is corruption).
    WalCorrupt(String),
    /// A performance store could not be opened (torn trailing record is
    /// tolerated; wrong kind/version or mid-file damage is corruption).
    StoreCorrupt(String),
    /// A configuration violates one of the space's constraints (e.g. a
    /// namelist parse produced a point outside the feasible region).
    ConstraintViolated(String),
    /// A protocol message arrived in a state where it is not legal
    /// (e.g. an `Exchange` before the space was sealed).
    Protocol(String),
    /// A session was asked to continue after it already finished.
    SessionFinished,
}

impl HarmonyError {
    /// Coarse classification used by retry loops.
    pub fn class(&self) -> ErrorClass {
        match self {
            HarmonyError::Disconnected
            | HarmonyError::Timeout(_)
            | HarmonyError::ServerBusy(_)
            | HarmonyError::QuotaExceeded { .. } => ErrorClass::Retryable,
            _ => ErrorClass::Fatal,
        }
    }

    /// True if a client may retry the failed operation with backoff.
    pub(crate) fn is_retryable(&self) -> bool {
        self.class() == ErrorClass::Retryable
    }
}

impl fmt::Display for HarmonyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarmonyError::InvalidParam { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            HarmonyError::DuplicateParam(name) => {
                write!(f, "duplicate parameter name `{name}`")
            }
            HarmonyError::UnknownParam(name) => write!(f, "unknown parameter `{name}`"),
            HarmonyError::TypeMismatch { name, expected } => {
                write!(f, "type mismatch for `{name}`: expected {expected}")
            }
            HarmonyError::EmptySpace => write!(f, "search space has no parameters"),
            HarmonyError::UnknownClient(id) => write!(f, "unknown client id {id}"),
            HarmonyError::Disconnected => write!(f, "harmony server/client channel disconnected"),
            HarmonyError::Timeout(what) => write!(f, "timed out: {what}"),
            HarmonyError::ServerBusy(msg) => write!(f, "server busy: {msg}"),
            HarmonyError::QuotaExceeded { tenant } => {
                write!(f, "tenant `{tenant}` is at its quota; retry with backoff")
            }
            HarmonyError::Io(msg) => write!(f, "i/o error: {msg}"),
            HarmonyError::WalCorrupt(msg) => write!(f, "write-ahead log corrupt: {msg}"),
            HarmonyError::StoreCorrupt(msg) => write!(f, "performance store corrupt: {msg}"),
            HarmonyError::ConstraintViolated(msg) => {
                write!(f, "configuration violates a space constraint: {msg}")
            }
            HarmonyError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            HarmonyError::SessionFinished => write!(f, "tuning session already finished"),
        }
    }
}

impl std::error::Error for HarmonyError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, HarmonyError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = HarmonyError::InvalidParam {
            name: "bx".into(),
            reason: "min > max".into(),
        };
        assert!(e.to_string().contains("bx"));
        assert!(e.to_string().contains("min > max"));
        assert!(HarmonyError::EmptySpace
            .to_string()
            .contains("no parameters"));
        assert!(HarmonyError::UnknownClient(7).to_string().contains('7'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&HarmonyError::Disconnected);
    }

    #[test]
    fn retryable_fatal_split() {
        assert!(HarmonyError::Disconnected.is_retryable());
        assert!(HarmonyError::Timeout("read".into()).is_retryable());
        assert!(HarmonyError::ServerBusy("capacity".into()).is_retryable());
        assert!(HarmonyError::QuotaExceeded {
            tenant: "team-a".into()
        }
        .is_retryable());
        assert!(!HarmonyError::Protocol("bad".into()).is_retryable());
        assert!(!HarmonyError::SessionFinished.is_retryable());
        assert!(!HarmonyError::Io("disk".into()).is_retryable());
        assert!(!HarmonyError::WalCorrupt("truncated header".into()).is_retryable());
        assert!(!HarmonyError::StoreCorrupt("bad kind".into()).is_retryable());
        assert_eq!(HarmonyError::Disconnected.class(), ErrorClass::Retryable);
        assert_eq!(HarmonyError::EmptySpace.class(), ErrorClass::Fatal);
    }
}
