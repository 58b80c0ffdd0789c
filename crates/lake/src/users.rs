//! Data lake users and access control (§3.3).
//!
//! "A business data lake scenario typically includes: (1) data scientists
//! and business analysts … (2) information curators … (3) the governance,
//! risk, and compliance team … and (4) the operations team." CoreDB-style
//! role-based access control gates lake operations per role.

use lake_core::{LakeError, Result};
use std::collections::BTreeMap;

/// User roles in the lake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// Data scientist / business analyst: reads, explores, queries.
    Scientist,
    /// Information curator: annotates metadata, defines sources.
    Curator,
    /// Governance / compliance auditor: reads metadata and provenance.
    Auditor,
    /// Operations: full control including ingestion and deletion.
    Operations,
}

/// Operations that can be permission-gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Operation {
    /// Ingest new raw data.
    Ingest,
    /// Read dataset contents.
    ReadData,
    /// Read catalogs/metadata/provenance.
    ReadMetadata,
    /// Add tags/annotations/semantic links.
    Annotate,
    /// Run discovery and federated queries.
    Query,
    /// Promote datasets between zones.
    Promote,
    /// Delete datasets.
    Delete,
}

impl Role {
    /// The default permission matrix.
    pub fn allows(self, op: Operation) -> bool {
        use Operation::{Annotate, Promote, Query, ReadData, ReadMetadata};
        match self {
            Role::Scientist => matches!(op, ReadData | ReadMetadata | Query),
            Role::Curator => matches!(op, ReadData | ReadMetadata | Annotate | Query | Promote),
            Role::Auditor => matches!(op, ReadMetadata),
            Role::Operations => true,
        }
    }
}

/// A registered user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct User {
    /// Login name.
    pub name: String,
    /// Assigned role.
    pub role: Role,
}

/// The lake's user directory + access checks.
#[derive(Debug, Clone, Default)]
pub struct AccessControl {
    users: BTreeMap<String, User>,
}

impl AccessControl {
    /// An empty directory.
    pub fn new() -> AccessControl {
        AccessControl::default()
    }

    /// Register (or re-role) a user.
    pub fn add_user(&mut self, name: &str, role: Role) {
        self.users.insert(name.to_string(), User { name: name.to_string(), role });
    }

    /// Look up a user.
    pub fn user(&self, name: &str) -> Option<&User> {
        self.users.get(name)
    }

    /// Check that `user` may perform `op`; error otherwise.
    pub fn check(&self, user: &str, op: Operation) -> Result<()> {
        let u = self
            .users
            .get(user)
            .ok_or_else(|| LakeError::PermissionDenied(format!("unknown user {user}")))?;
        if u.role.allows(op) {
            Ok(())
        } else {
            Err(LakeError::PermissionDenied(format!(
                "{user} ({:?}) may not {op:?}",
                u.role
            )))
        }
    }

    /// Number of registered users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// `true` when no user is registered.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ac() -> AccessControl {
        let mut ac = AccessControl::new();
        ac.add_user("ada", Role::Scientist);
        ac.add_user("carl", Role::Curator);
        ac.add_user("audrey", Role::Auditor);
        ac.add_user("omar", Role::Operations);
        ac
    }

    #[test]
    fn role_matrix() {
        let ac = ac();
        assert!(ac.check("ada", Operation::Query).is_ok());
        assert!(ac.check("ada", Operation::Ingest).is_err());
        assert!(ac.check("carl", Operation::Annotate).is_ok());
        assert!(ac.check("carl", Operation::Delete).is_err());
        assert!(ac.check("audrey", Operation::ReadMetadata).is_ok());
        assert!(ac.check("audrey", Operation::ReadData).is_err());
        assert!(ac.check("omar", Operation::Delete).is_ok());
    }

    #[test]
    fn unknown_user_is_denied() {
        let ac = ac();
        assert!(matches!(
            ac.check("mallory", Operation::ReadData),
            Err(LakeError::PermissionDenied(_))
        ));
    }

    #[test]
    fn reroling_replaces() {
        let mut ac = ac();
        ac.add_user("ada", Role::Operations);
        assert!(ac.check("ada", Operation::Ingest).is_ok());
        assert_eq!(ac.len(), 4);
    }
}
