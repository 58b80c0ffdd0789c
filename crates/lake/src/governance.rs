//! A governance request manager (the IBM wrangling/governance tool of
//! §6.7): "a governance tool … which can manage the requests for ingesting
//! new data sources or using already ingested datasets in a data lake."
//!
//! Requests are queued, reviewed by a user with the right role, and their
//! full decision trail is kept — governance decisions are themselves
//! provenance.

use crate::users::{AccessControl, Operation};
use lake_core::{LakeError, Result};

/// What is being requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestKind {
    /// Ingest a new external source.
    IngestSource {
        /// Source description/URI.
        source: String,
    },
    /// Use (read) an already-ingested dataset.
    UseDataset {
        /// Dataset name.
        dataset: String,
        /// Intended purpose (recorded for audit).
        purpose: String,
    },
}

/// Lifecycle of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Awaiting review.
    Pending,
    /// Approved by a reviewer.
    Approved,
    /// Rejected by a reviewer.
    Rejected,
}

/// One governance request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request id.
    pub id: usize,
    /// Requesting user.
    pub requester: String,
    /// What is requested.
    pub kind: RequestKind,
    /// Current state.
    pub state: RequestState,
    /// Reviewer + note, once decided.
    pub decision: Option<(String, String)>,
}

/// The request manager.
#[derive(Debug, Clone, Default)]
pub struct Governance {
    requests: Vec<Request>,
}

impl Governance {
    /// An empty manager.
    pub fn new() -> Governance {
        Governance::default()
    }

    /// File a request; returns its id.
    pub fn submit(&mut self, requester: &str, kind: RequestKind) -> usize {
        let id = self.requests.len();
        self.requests.push(Request {
            id,
            requester: requester.to_string(),
            kind,
            state: RequestState::Pending,
            decision: None,
        });
        id
    }

    /// Pending requests, oldest first.
    pub fn pending(&self) -> Vec<&Request> {
        self.requests
            .iter()
            .filter(|r| r.state == RequestState::Pending)
            .collect()
    }

    /// Decide a request. The reviewer must hold a role allowed to promote
    /// (curator/operations); auditors can *see* but not decide.
    pub fn decide(
        &mut self,
        ac: &AccessControl,
        reviewer: &str,
        id: usize,
        approve: bool,
        note: &str,
    ) -> Result<()> {
        ac.check(reviewer, Operation::Promote)?;
        let req = self
            .requests
            .get_mut(id)
            .ok_or_else(|| LakeError::not_found(format!("request {id}")))?;
        if req.state != RequestState::Pending {
            return Err(LakeError::invalid(format!("request {id} already decided")));
        }
        req.state = if approve { RequestState::Approved } else { RequestState::Rejected };
        req.decision = Some((reviewer.to_string(), note.to_string()));
        Ok(())
    }

    /// Whether `user` holds an approved use-request for `dataset`.
    pub fn may_use(&self, user: &str, dataset: &str) -> bool {
        self.requests.iter().any(|r| {
            r.requester == user
                && r.state == RequestState::Approved
                && matches!(&r.kind, RequestKind::UseDataset { dataset: d, .. } if d == dataset)
        })
    }

    /// Full audit trail.
    pub fn audit_trail(&self) -> &[Request] {
        &self.requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::users::Role;

    fn setup() -> (Governance, AccessControl) {
        let mut ac = AccessControl::new();
        ac.add_user("ada", Role::Scientist);
        ac.add_user("carl", Role::Curator);
        ac.add_user("audrey", Role::Auditor);
        (Governance::new(), ac)
    }

    #[test]
    fn request_lifecycle() {
        let (mut gov, ac) = setup();
        let id = gov.submit(
            "ada",
            RequestKind::UseDataset { dataset: "patients".into(), purpose: "model training".into() },
        );
        assert_eq!(gov.pending().len(), 1);
        assert!(!gov.may_use("ada", "patients"));
        gov.decide(&ac, "carl", id, true, "approved for research").unwrap();
        assert!(gov.may_use("ada", "patients"));
        assert!(gov.pending().is_empty());
        // Double-deciding errors.
        assert!(gov.decide(&ac, "carl", id, false, "changed my mind").is_err());
    }

    #[test]
    fn auditors_cannot_decide() {
        let (mut gov, ac) = setup();
        let id = gov.submit("ada", RequestKind::IngestSource { source: "s3://new".into() });
        assert!(gov.decide(&ac, "audrey", id, true, "").is_err());
        assert!(gov.decide(&ac, "ada", id, true, "").is_err());
    }

    #[test]
    fn rejection_blocks_use() {
        let (mut gov, ac) = setup();
        let id = gov.submit(
            "ada",
            RequestKind::UseDataset { dataset: "pii".into(), purpose: "fun".into() },
        );
        gov.decide(&ac, "carl", id, false, "no").unwrap();
        assert!(!gov.may_use("ada", "pii"));
        assert_eq!(gov.audit_trail()[0].decision.as_ref().unwrap().0, "carl");
    }

    #[test]
    fn unknown_request_errors() {
        let (mut gov, ac) = setup();
        assert!(gov.decide(&ac, "carl", 7, true, "").is_err());
    }
}
