//! Two-step recovery planning (Section 6.4).
//!
//! "If a database is crashed at some moment in time, two-step recovery
//! process is initiated to restore all transactions that had been
//! committed by the moment of the crash. During the first step,
//! transaction-consistent state of the database is restored by converting
//! versions belonging to the persistent snapshot into last committed
//! ones. Then, at the second step, log is processed to redo the necessary
//! operations of committed transactions."
//!
//! [`plan_recovery`] scans a log and produces exactly that: the last
//! checkpoint (step 1's persistent snapshot) and the ordered redo list of
//! committed transactions after it (step 2). Applying the plan is the
//! database core's job — it owns the store, resolver and catalog.

use std::collections::HashMap;
use std::path::Path;

use sedna_sas::XPtr;

use crate::record::{CheckpointData, WalRecord, WalResult};
use crate::writer::WalReader;

/// A page operation to redo.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PageOp {
    /// Write this full image.
    Image(Vec<u8>),
    /// Overwrite these `(offset, bytes)` ranges onto the page's latest
    /// committed image on the operation's branch lineage as of this point
    /// of the replay, and write the result (see [`crate::delta`]).
    Delta(Vec<(u32, Vec<u8>)>),
    /// Free the page.
    Free,
}

/// One redo operation of a committed transaction, in log order. The
/// `u32` is the branch (fork) the operation happened on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RedoOp {
    /// A page operation on a branch.
    Page(XPtr, u32, PageOp),
    /// Install a catalog entry in a branch's catalog.
    CatalogPut(u32, String, Vec<u8>),
    /// Remove a catalog entry from a branch's catalog.
    CatalogDrop(u32, String),
}

/// A fork-lifecycle event found in the log tail. Events are anchored to
/// a position in [`RecoveryPlan::redo`] so replay can interleave them
/// with committed transactions in exact log order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BranchEvent {
    /// `branch` forked off `parent` at commit timestamp `ts`.
    Fork {
        /// The new branch id.
        branch: u32,
        /// The branch forked from.
        parent: u32,
        /// Fork-point commit timestamp.
        ts: u64,
        /// The fork's database name.
        name: String,
    },
    /// `branch` was dropped.
    DropFork {
        /// The dropped branch id.
        branch: u32,
    },
}

/// The outcome of scanning the log.
#[derive(Debug, Default)]
pub struct RecoveryPlan {
    /// Step 1: the persistent snapshot to restore (from the last
    /// checkpoint), if the log contains one.
    pub checkpoint: Option<CheckpointData>,
    /// Step 2: per committed transaction, in commit order:
    /// `(txn, commit_ts, operations in log order)`.
    pub redo: Vec<(u64, u64, Vec<RedoOp>)>,
    /// Fork/drop-fork events after the checkpoint, in log order. Each is
    /// `(idx, event)`: the event happened after the first `idx` entries
    /// of [`RecoveryPlan::redo`].
    pub branch_events: Vec<(usize, BranchEvent)>,
    /// Transactions that began but never committed (their records are
    /// ignored; versioning already isolated them).
    pub losers: Vec<u64>,
    /// The highest commit timestamp seen anywhere in the log.
    pub max_ts: u64,
    /// End of the last intact record: where appending resumes
    /// ([`crate::WalWriter::open`]).
    pub end_lsn: u64,
}

/// Scans `log` and produces the two-step recovery plan. When `upto_ts` is
/// set, only transactions with `commit_ts <= upto_ts` are redone —
/// point-in-time recovery for incremental backups (§6.5).
///
/// One pass, one record in memory at a time: a checkpoint record discards
/// everything gathered before it (redo starts after the last checkpoint),
/// and each record's images move into the plan without being copied.
pub fn plan_recovery(log: &Path, upto_ts: Option<u64>) -> WalResult<RecoveryPlan> {
    let mut reader = WalReader::open(log)?;
    let mut plan = RecoveryPlan::default();
    let within_limit = |ts: u64| upto_ts.is_none_or(|limit| ts <= limit);

    // Redo ops by transaction, in log order within each.
    let mut pending: HashMap<u64, Vec<RedoOp>> = HashMap::new();
    let mut began: Vec<u64> = Vec::new();
    // Commit timestamp most recently seen; used to place ts-less DropFork
    // records for point-in-time limits.
    let mut seen_ts = 0;
    while let Some((_, rec)) = reader.next_record()? {
        match rec {
            WalRecord::Checkpoint(cp) => {
                pending.clear();
                began.clear();
                plan.redo.clear();
                plan.branch_events.clear();
                plan.max_ts = plan.max_ts.max(cp.ts);
                seen_ts = plan.max_ts;
                plan.checkpoint = Some(cp);
            }
            WalRecord::Begin { txn } => {
                began.push(txn);
                pending.entry(txn).or_default();
            }
            WalRecord::PageImage {
                txn,
                branch,
                page,
                image,
            } => pending.entry(txn).or_default().push(RedoOp::Page(
                page,
                branch,
                PageOp::Image(image),
            )),
            WalRecord::PageDelta {
                txn,
                branch,
                page,
                ranges,
            } => pending.entry(txn).or_default().push(RedoOp::Page(
                page,
                branch,
                PageOp::Delta(ranges),
            )),
            WalRecord::PageFree { txn, branch, page } => pending
                .entry(txn)
                .or_default()
                .push(RedoOp::Page(page, branch, PageOp::Free)),
            WalRecord::CatalogPut {
                txn,
                branch,
                key,
                payload,
            } => pending
                .entry(txn)
                .or_default()
                .push(RedoOp::CatalogPut(branch, key, payload)),
            WalRecord::CatalogDrop { txn, branch, key } => pending
                .entry(txn)
                .or_default()
                .push(RedoOp::CatalogDrop(branch, key)),
            WalRecord::Commit { txn, ts } => {
                plan.max_ts = plan.max_ts.max(ts);
                seen_ts = seen_ts.max(ts);
                let ops = pending.remove(&txn).unwrap_or_default();
                if within_limit(ts) {
                    plan.redo.push((txn, ts, ops));
                }
                began.retain(|t| *t != txn);
            }
            WalRecord::Abort { txn } => {
                pending.remove(&txn);
                began.retain(|t| *t != txn);
            }
            WalRecord::Fork {
                branch,
                parent,
                ts,
                name,
            } => {
                if within_limit(ts) {
                    plan.branch_events.push((
                        plan.redo.len(),
                        BranchEvent::Fork {
                            branch,
                            parent,
                            ts,
                            name,
                        },
                    ));
                }
            }
            WalRecord::DropFork { branch } => {
                if within_limit(seen_ts) {
                    plan.branch_events
                        .push((plan.redo.len(), BranchEvent::DropFork { branch }));
                }
            }
        }
    }
    plan.losers = began;
    plan.end_lsn = reader.end_lsn();
    // Redo is already in commit order (log order of commit records).
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AllocSnapshot;
    use crate::writer::WalWriter;
    use sedna_sas::PhysId;

    /// `name` in a directory of its own: tests run in parallel, so each
    /// removes its directory without racing another's files.
    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sedna-rec-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Removes the directory [`tmpfile`] made for `path`.
    fn remove_tmp(path: &std::path::Path) {
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    fn page(n: u32) -> XPtr {
        XPtr::new(0, n * 4096)
    }

    #[test]
    fn committed_work_is_redone_losers_ignored() {
        let path = tmpfile("plan1.log");
        {
            let mut w = WalWriter::create(&path).unwrap();
            w.append(&WalRecord::Begin { txn: 1 }).unwrap();
            w.append(&WalRecord::Begin { txn: 2 }).unwrap();
            w.append(&WalRecord::PageImage {
                txn: 1,
                branch: 0,
                page: page(1),
                image: vec![1],
            })
            .unwrap();
            w.append(&WalRecord::PageImage {
                txn: 2,
                branch: 0,
                page: page(2),
                image: vec![2],
            })
            .unwrap();
            w.append(&WalRecord::Commit { txn: 1, ts: 10 }).unwrap();
            // txn 2 never commits (crash).
            w.flush().unwrap();
        }
        let plan = plan_recovery(&path, None).unwrap();
        assert!(plan.checkpoint.is_none());
        assert_eq!(plan.redo.len(), 1);
        assert_eq!(plan.redo[0].0, 1);
        assert_eq!(
            plan.redo[0].2,
            vec![RedoOp::Page(page(1), 0, PageOp::Image(vec![1]))]
        );
        assert_eq!(plan.losers, vec![2]);
        assert_eq!(plan.max_ts, 10);
        remove_tmp(&path);
    }

    #[test]
    fn redo_starts_after_last_checkpoint() {
        let path = tmpfile("plan2.log");
        {
            let mut w = WalWriter::create(&path).unwrap();
            w.append(&WalRecord::Begin { txn: 1 }).unwrap();
            w.append(&WalRecord::PageImage {
                txn: 1,
                branch: 0,
                page: page(1),
                image: vec![1],
            })
            .unwrap();
            w.append(&WalRecord::Commit { txn: 1, ts: 1 }).unwrap();
            w.append(&WalRecord::Checkpoint(CheckpointData {
                ts: 1,
                page_table: vec![(page(1), PhysId(0), 0, 1)],
                drops: Vec::new(),
                alloc: AllocSnapshot::default(),
                catalog: vec![7, 7],
                branches: Vec::new(),
            }))
            .unwrap();
            w.append(&WalRecord::Begin { txn: 2 }).unwrap();
            w.append(&WalRecord::PageImage {
                txn: 2,
                branch: 0,
                page: page(2),
                image: vec![2],
            })
            .unwrap();
            w.append(&WalRecord::Commit { txn: 2, ts: 2 }).unwrap();
            w.flush().unwrap();
        }
        let plan = plan_recovery(&path, None).unwrap();
        let cp = plan.checkpoint.unwrap();
        assert_eq!(cp.page_table, vec![(page(1), PhysId(0), 0, 1)]);
        assert_eq!(cp.catalog, vec![7, 7]);
        // Txn 1 predates the checkpoint: not redone.
        assert_eq!(plan.redo.len(), 1);
        assert_eq!(plan.redo[0].0, 2);
        remove_tmp(&path);
    }

    #[test]
    fn aborted_transactions_not_redone() {
        let path = tmpfile("plan3.log");
        {
            let mut w = WalWriter::create(&path).unwrap();
            w.append(&WalRecord::Begin { txn: 1 }).unwrap();
            w.append(&WalRecord::PageImage {
                txn: 1,
                branch: 0,
                page: page(1),
                image: vec![1],
            })
            .unwrap();
            w.append(&WalRecord::Abort { txn: 1 }).unwrap();
            w.flush().unwrap();
        }
        let plan = plan_recovery(&path, None).unwrap();
        assert!(plan.redo.is_empty());
        assert!(plan.losers.is_empty());
        remove_tmp(&path);
    }

    #[test]
    fn point_in_time_limit_respected() {
        let path = tmpfile("plan4.log");
        {
            let mut w = WalWriter::create(&path).unwrap();
            for (txn, ts) in [(1u64, 10u64), (2, 20), (3, 30)] {
                w.append(&WalRecord::Begin { txn }).unwrap();
                w.append(&WalRecord::PageImage {
                    txn,
                    branch: 0,
                    page: page(txn as u32),
                    image: vec![txn as u8],
                })
                .unwrap();
                w.append(&WalRecord::Commit { txn, ts }).unwrap();
            }
            w.flush().unwrap();
        }
        let plan = plan_recovery(&path, Some(20)).unwrap();
        assert_eq!(plan.redo.len(), 2);
        assert_eq!(plan.redo.iter().map(|r| r.0).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(plan.max_ts, 30, "max_ts still reflects the full log");
        remove_tmp(&path);
    }

    #[test]
    fn page_free_redo_preserved_in_order() {
        let path = tmpfile("plan5.log");
        {
            let mut w = WalWriter::create(&path).unwrap();
            w.append(&WalRecord::Begin { txn: 1 }).unwrap();
            w.append(&WalRecord::PageImage {
                txn: 1,
                branch: 0,
                page: page(1),
                image: vec![1],
            })
            .unwrap();
            w.append(&WalRecord::PageFree {
                txn: 1,
                branch: 0,
                page: page(1),
            })
            .unwrap();
            w.append(&WalRecord::Commit { txn: 1, ts: 1 }).unwrap();
            w.flush().unwrap();
        }
        let plan = plan_recovery(&path, None).unwrap();
        assert_eq!(
            plan.redo[0].2,
            vec![
                RedoOp::Page(page(1), 0, PageOp::Image(vec![1])),
                RedoOp::Page(page(1), 0, PageOp::Free),
            ]
        );
        remove_tmp(&path);
    }

    #[test]
    fn fork_events_anchored_in_log_order() {
        let path = tmpfile("plan6.log");
        {
            let mut w = WalWriter::create(&path).unwrap();
            w.append(&WalRecord::Begin { txn: 1 }).unwrap();
            w.append(&WalRecord::PageImage {
                txn: 1,
                branch: 0,
                page: page(1),
                image: vec![1],
            })
            .unwrap();
            w.append(&WalRecord::Commit { txn: 1, ts: 10 }).unwrap();
            w.append(&WalRecord::Fork {
                branch: 2,
                parent: 0,
                ts: 10,
                name: "dev".into(),
            })
            .unwrap();
            w.append(&WalRecord::Begin { txn: 2 }).unwrap();
            w.append(&WalRecord::PageImage {
                txn: 2,
                branch: 2,
                page: page(1),
                image: vec![2],
            })
            .unwrap();
            w.append(&WalRecord::Commit { txn: 2, ts: 11 }).unwrap();
            w.append(&WalRecord::DropFork { branch: 2 }).unwrap();
            w.flush().unwrap();
        }
        let plan = plan_recovery(&path, None).unwrap();
        assert_eq!(plan.redo.len(), 2);
        assert_eq!(
            plan.branch_events,
            vec![
                (
                    1,
                    BranchEvent::Fork {
                        branch: 2,
                        parent: 0,
                        ts: 10,
                        name: "dev".into(),
                    }
                ),
                (2, BranchEvent::DropFork { branch: 2 }),
            ]
        );
        // Point-in-time at ts 10: fork included, the later drop excluded.
        let plan = plan_recovery(&path, Some(10)).unwrap();
        assert_eq!(plan.redo.len(), 1);
        assert_eq!(plan.branch_events.len(), 1);
        assert!(matches!(
            plan.branch_events[0].1,
            BranchEvent::Fork { branch: 2, .. }
        ));
        remove_tmp(&path);
    }

    #[test]
    fn delta_ops_keep_log_order_and_end_lsn_is_the_append_point() {
        let path = tmpfile("plan7.log");
        let ranges = vec![(16u32, vec![5u8; 8])];
        let end = {
            let mut w = WalWriter::create(&path).unwrap();
            w.append(&WalRecord::Begin { txn: 1 }).unwrap();
            w.append(&WalRecord::PageImage {
                txn: 1,
                branch: 0,
                page: page(1),
                image: vec![1; 64],
            })
            .unwrap();
            w.append(&WalRecord::PageDelta {
                txn: 1,
                branch: 0,
                page: page(1),
                ranges: ranges.clone(),
            })
            .unwrap();
            w.append(&WalRecord::Commit { txn: 1, ts: 3 }).unwrap();
            w.flush().unwrap();
            w.lsn()
        };
        // A torn tail after the last intact record is not part of the log.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[9, 0, 0, 0, 1]).unwrap();
        }
        let plan = plan_recovery(&path, None).unwrap();
        assert_eq!(plan.end_lsn, end);
        assert_eq!(
            plan.redo[0].2,
            vec![
                RedoOp::Page(page(1), 0, PageOp::Image(vec![1; 64])),
                RedoOp::Page(page(1), 0, PageOp::Delta(ranges)),
            ]
        );
        remove_tmp(&path);
    }

    /// A log in the shape every earlier version of this crate wrote —
    /// `Begin / PageImage / CatalogPut / Commit`, framed `len | crc | body`
    /// — laid out here byte by byte, with the checksum computed bit by bit,
    /// so that neither the encoder nor the table-driven CRC under test had
    /// a hand in it.
    #[test]
    fn hand_written_image_only_log_still_plans() {
        fn crc_bitwise(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        }
        fn frame(log: &mut Vec<u8>, body: &[u8]) {
            log.extend_from_slice(&(body.len() as u32).to_le_bytes());
            log.extend_from_slice(&crc_bitwise(body).to_le_bytes());
            log.extend_from_slice(body);
        }
        let txn = 7u64.to_le_bytes();
        let branch = 0u32.to_le_bytes();
        let image = [0xABu8; 32];
        let mut log = Vec::new();
        // Begin: tag 1, txn.
        frame(&mut log, &[&[1u8][..], &txn].concat());
        // PageImage: tag 2, txn, branch, page, len-prefixed image.
        frame(
            &mut log,
            &[
                &[2u8][..],
                &txn,
                &branch,
                &page(3).raw().to_le_bytes(),
                &(image.len() as u32).to_le_bytes(),
                &image,
            ]
            .concat(),
        );
        // CatalogPut: tag 7, txn, branch, len-prefixed key and payload.
        frame(
            &mut log,
            &[
                &[7u8][..],
                &txn,
                &branch,
                &7u32.to_le_bytes(),
                b"doc:lib",
                &2u32.to_le_bytes(),
                &[4, 2],
            ]
            .concat(),
        );
        // Commit: tag 4, txn, ts.
        frame(&mut log, &[&[4u8][..], &txn, &21u64.to_le_bytes()].concat());
        let path = tmpfile("plan8.log");
        std::fs::write(&path, &log).unwrap();

        let plan = plan_recovery(&path, None).unwrap();
        assert_eq!(plan.end_lsn, log.len() as u64);
        assert_eq!(plan.max_ts, 21);
        assert!(plan.losers.is_empty());
        assert_eq!(
            plan.redo,
            vec![(
                7,
                21,
                vec![
                    RedoOp::Page(page(3), 0, PageOp::Image(image.to_vec())),
                    RedoOp::CatalogPut(0, "doc:lib".into(), vec![4, 2]),
                ]
            )]
        );
        remove_tmp(&path);
    }
}
