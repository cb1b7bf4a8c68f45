//! # sedna-txn
//!
//! Transaction management as described in Section 6 of the paper:
//!
//! * **Strict two-phase locking** ([`lock`]) — "Sedna uses the classical
//!   strict two-phase locking approach (S2PL). At the present moment,
//!   locking granularity is an XML document." The finer-granularity
//!   (hierarchical, intention-lock) scheme the paper names as work in
//!   progress is implemented as well ([`lock::Resource::Subtree`]).
//!   Deadlocks are detected with a wait-for graph; the requester whose
//!   wait would close a cycle is aborted.
//! * **Snapshot-based page multiversioning** ([`version`]) — "Sedna uses
//!   snapshot-based scheme with data elements being pages. Snapshot is a
//!   set of versions (one version per page) that is transaction-consistent.
//!   Logically snapshot is just a pair: (timestamp, list of active
//!   transactions)." The [`version::VersionManager`] implements the SAS
//!   [`sedna_sas::PageResolver`] so the buffer manager transparently
//!   resolves each dereference to the page version its view may see.
//! * **Read-only transactions** (§6.3) read a snapshot without taking
//!   document locks — the non-blocking behaviour experiment E10 measures
//!   against an S2PL-only baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lock;
pub mod manager;
pub mod metrics;
pub mod version;

pub use lock::{LockError, LockManager, LockMode, Resource};
pub use manager::{TxnHandle, TxnKind, TxnManager};
pub use metrics::{LockMetrics, TxnMetrics};
pub use version::{
    branch_latest_view, branch_snapshot_view, snapshot_view, txn_view, BranchInfo, Snapshot,
    VersionManager, VersionStats, WorkingPage, ROOT_BRANCH,
};

/// Transaction identifier.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl TxnId {
    /// The SAS token carrying this id into the address space layer.
    pub fn token(self) -> sedna_sas::TxnToken {
        sedna_sas::TxnToken(self.0)
    }
}
