//! Shared error type for the platform.

use std::fmt;

/// Convenient alias used throughout the workspace.
pub type Result<T, E = LakeError> = std::result::Result<T, E>;

/// Errors surfaced by lake operations.
///
/// Each storage/algorithm crate maps its internal failures onto these
/// categories so callers can match on semantics rather than provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LakeError {
    /// The named object (dataset, table, column, blob, …) does not exist.
    NotFound(String),
    /// An object with this name/key already exists and may not be replaced.
    AlreadyExists(String),
    /// Raw input could not be parsed in the claimed/detected format.
    Parse(String),
    /// The request contradicts a schema (missing column, arity mismatch, …).
    Schema(String),
    /// A query is malformed or unsupported by the target store.
    Query(String),
    /// An optimistic-concurrency conflict (lakehouse commits).
    Conflict(String),
    /// The caller lacks permission for the operation.
    PermissionDenied(String),
    /// Underlying I/O failure (message carried; `std::io::Error` is not
    /// `Clone`, so it is rendered at the boundary).
    Io(String),
    /// Invalid argument or configuration.
    Invalid(String),
    /// A transient storage failure (throttling, timeout, connection
    /// reset). The operation itself was sound and may be retried; the
    /// [`crate::retry`] combinator absorbs these under a
    /// [`crate::retry::RetryPolicy`].
    Transient(String),
}

impl LakeError {
    /// Shorthand for [`LakeError::NotFound`].
    pub fn not_found(what: impl fmt::Display) -> Self {
        LakeError::NotFound(what.to_string())
    }
    /// Shorthand for [`LakeError::Parse`].
    pub fn parse(msg: impl fmt::Display) -> Self {
        LakeError::Parse(msg.to_string())
    }
    /// Shorthand for [`LakeError::Invalid`].
    pub fn invalid(msg: impl fmt::Display) -> Self {
        LakeError::Invalid(msg.to_string())
    }
    /// Shorthand for [`LakeError::Schema`].
    pub fn schema(msg: impl fmt::Display) -> Self {
        LakeError::Schema(msg.to_string())
    }
    /// Shorthand for [`LakeError::Query`].
    pub fn query(msg: impl fmt::Display) -> Self {
        LakeError::Query(msg.to_string())
    }
    /// Shorthand for [`LakeError::Transient`].
    pub fn transient(msg: impl fmt::Display) -> Self {
        LakeError::Transient(msg.to_string())
    }

    /// Whether blindly re-issuing the failed operation is safe and could
    /// succeed. Only [`LakeError::Transient`] qualifies: every other kind
    /// is either deterministic (`Parse`, `Schema`, `Query`, `Invalid`,
    /// `NotFound`, `PermissionDenied`), requires protocol-level handling
    /// rather than a blind retry (`Conflict`, `AlreadyExists` — the
    /// lakehouse commit loop re-reads the log instead), or may have had
    /// partial effects that a retry would compound (`Io`).
    pub fn is_retryable(&self) -> bool {
        matches!(self, LakeError::Transient(_))
    }
}

impl fmt::Display for LakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LakeError::NotFound(s) => write!(f, "not found: {s}"),
            LakeError::AlreadyExists(s) => write!(f, "already exists: {s}"),
            LakeError::Parse(s) => write!(f, "parse error: {s}"),
            LakeError::Schema(s) => write!(f, "schema error: {s}"),
            LakeError::Query(s) => write!(f, "query error: {s}"),
            LakeError::Conflict(s) => write!(f, "commit conflict: {s}"),
            LakeError::PermissionDenied(s) => write!(f, "permission denied: {s}"),
            LakeError::Io(s) => write!(f, "io error: {s}"),
            LakeError::Invalid(s) => write!(f, "invalid: {s}"),
            LakeError::Transient(s) => write!(f, "transient error: {s}"),
        }
    }
}

impl std::error::Error for LakeError {}

impl From<std::io::Error> for LakeError {
    fn from(e: std::io::Error) -> Self {
        LakeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_prefixed_by_category() {
        assert_eq!(LakeError::not_found("ds1").to_string(), "not found: ds1");
        assert!(LakeError::parse("bad json").to_string().starts_with("parse error"));
    }

    #[test]
    fn io_error_converts() {
        let e: LakeError = std::io::Error::other("boom").into();
        assert!(matches!(e, LakeError::Io(_)));
    }

    #[test]
    fn only_transient_errors_are_retryable() {
        assert!(LakeError::transient("throttled").is_retryable());
        for e in [
            LakeError::not_found("x"),
            LakeError::AlreadyExists("x".into()),
            LakeError::parse("x"),
            LakeError::schema("x"),
            LakeError::query("x"),
            LakeError::Conflict("x".into()),
            LakeError::PermissionDenied("x".into()),
            LakeError::Io("x".into()),
            LakeError::invalid("x"),
        ] {
            assert!(!e.is_retryable(), "{e}");
        }
    }
}
