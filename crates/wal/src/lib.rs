//! # sedna-wal
//!
//! Durability per Section 6.4/6.5 of the paper:
//!
//! * **Write-ahead logging** — "All the main operations (insert node,
//!   create index, etc.) are logged using the WAL protocol." This
//!   reproduction logs physical redo at commit — per page, the byte ranges
//!   the transaction changed ([`delta`]), or the full after-image when the
//!   page has no committed base on its branch — which composes with the
//!   page-versioning design: rollback needs no undo (working versions are
//!   simply discarded), and committed work is replayable from the
//!   persistent snapshot plus the log.
//! * **Checkpoints** — "a checkpoint may be created at some moment during
//!   execution to fixate transaction-consistent state of a database. We
//!   call such a state a persistent snapshot." A [`WalRecord::Checkpoint`] record
//!   carries the persistent snapshot's page table, the SAS allocator
//!   state, and the serialized catalog.
//! * **Two-step recovery** — "transaction-consistent state of the
//!   database is restored by converting versions belonging to the
//!   persistent snapshot into last committed ones. Then, at the second
//!   step, log is processed to redo the necessary operations of committed
//!   transactions." [`recovery::plan_recovery`] computes exactly that
//!   plan from a log file.
//! * **Hot backup** — full (data file + fixated log) and incremental
//!   (log only) backups with point-in-time restore ([`backup`]).
//!
//! The crate is deliberately independent of the storage and transaction
//! crates: it reads and writes log files and produces recovery *plans*;
//! the database core applies them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backup;
pub mod delta;
pub mod record;
pub mod recovery;
pub mod writer;

pub use record::{BranchMeta, CheckpointData, WalError, WalRecord, WalResult};
pub use recovery::{plan_recovery, BranchEvent, PageOp, RecoveryPlan, RedoOp};
pub use writer::{WalMetrics, WalReader, WalWriter};
