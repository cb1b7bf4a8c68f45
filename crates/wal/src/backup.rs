//! Hot backup (Section 6.5).
//!
//! "Sedna allows creating hot-backup copies of a database. Such backup can
//! be made even while the database is working. [...] First, data file is
//! copied. To solve the infamous 'split-block' problem, additional logging
//! is used. Second, log is fixated and its files are copied."
//!
//! In this reproduction the split-block problem does not arise for the
//! pages a restore starts from: the persistent snapshot's slots are never
//! overwritten in place and never recycled before the next checkpoint
//! (copy-on-write versioning), so the base state in the copied data file
//! is always intact. Versions written while the copy runs land in other
//! slots, which the restored checkpoint does not name; restore rebuilds
//! them from the base state and the redo log's images and deltas.
//!
//! "During incremental hot-backup, only log files and configuration files
//! are copied [...]. Using incremental hot-backups, it is also possible to
//! perform some analogue of 'point-in-time' recovery by applying only the
//! required incremental parts of the required backup."

use std::fs;
use std::path::{Path, PathBuf};

use crate::record::{WalError, WalResult};

/// Names used inside a backup directory.
const DATA_NAME: &str = "data.sedna";
const LOG_NAME: &str = "wal.sedna";

/// A full hot backup: the data file plus the fixated log.
pub fn full_backup(data: &Path, log: &Path, dest_dir: &Path) -> WalResult<()> {
    fs::create_dir_all(dest_dir)?;
    // "First, data file is copied."
    fs::copy(data, dest_dir.join(DATA_NAME))?;
    // "Second, log is fixated and its files are copied." — the caller
    // flushes the log before invoking; the copy then fixes its extent.
    fs::copy(log, dest_dir.join(LOG_NAME))?;
    Ok(())
}

/// An incremental hot backup: copies only the log. `base_dir` must hold a
/// prior full backup; the incremental is stored as a numbered log file
/// next to it.
pub fn incremental_backup(log: &Path, base_dir: &Path) -> WalResult<PathBuf> {
    if !base_dir.join(DATA_NAME).exists() {
        return Err(WalError::Corrupt {
            at: 0,
            msg: format!("{} holds no full backup", base_dir.display()),
        });
    }
    let n = (1..)
        .find(|i| !base_dir.join(format!("wal.incr.{i}")).exists())
        .expect("unbounded search");
    let dest = base_dir.join(format!("wal.incr.{n}"));
    fs::copy(log, &dest)?;
    Ok(dest)
}

/// Materializes a backup into `target_dir`, returning the paths of the
/// restored `(data, log)` files. `increments` selects how many incremental
/// log copies to apply (`None` = all) — the newest selected increment
/// replaces the log wholesale, since each incremental copy is a superset
/// of the previous (the log only grows between checkpoints).
pub fn restore_backup(
    backup_dir: &Path,
    target_dir: &Path,
    increments: Option<usize>,
) -> WalResult<(PathBuf, PathBuf)> {
    fs::create_dir_all(target_dir)?;
    let data_src = backup_dir.join(DATA_NAME);
    if !data_src.exists() {
        return Err(WalError::Corrupt {
            at: 0,
            msg: format!("{} holds no full backup", backup_dir.display()),
        });
    }
    let data = target_dir.join(DATA_NAME);
    let log = target_dir.join(LOG_NAME);
    fs::copy(&data_src, &data)?;
    // Pick the newest increment within the requested range, else the
    // full backup's log.
    let mut chosen = backup_dir.join(LOG_NAME);
    let mut i = 1usize;
    loop {
        if increments.is_some_and(|limit| i > limit) {
            break;
        }
        let cand = backup_dir.join(format!("wal.incr.{i}"));
        if !cand.exists() {
            break;
        }
        chosen = cand;
        i += 1;
    }
    fs::copy(&chosen, &log)?;
    Ok((data, log))
}

/// Lists the incremental parts present in a backup directory.
pub fn list_increments(backup_dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut i = 1usize;
    loop {
        let cand = backup_dir.join(format!("wal.incr.{i}"));
        if !cand.exists() {
            break;
        }
        out.push(cand);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sedna-bak-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn full_backup_and_restore() {
        let work = tmpdir("full");
        let data = work.join("data.sedna");
        let log = work.join("wal.sedna");
        fs::write(&data, b"DATA-V1").unwrap();
        fs::write(&log, b"LOG-V1").unwrap();

        let bdir = work.join("backup");
        full_backup(&data, &log, &bdir).unwrap();
        // Mutate the originals.
        fs::write(&data, b"DATA-V2").unwrap();
        fs::write(&log, b"LOG-V2").unwrap();

        let rdir = work.join("restore");
        let (rd, rl) = restore_backup(&bdir, &rdir, None).unwrap();
        assert_eq!(fs::read(&rd).unwrap(), b"DATA-V1");
        assert_eq!(fs::read(&rl).unwrap(), b"LOG-V1");
        fs::remove_dir_all(&work).unwrap();
    }

    #[test]
    fn incrementals_choose_newest_within_limit() {
        let work = tmpdir("incr");
        let data = work.join("data.sedna");
        let log = work.join("wal.sedna");
        fs::write(&data, b"BASE").unwrap();
        fs::write(&log, b"L0").unwrap();
        let bdir = work.join("backup");
        full_backup(&data, &log, &bdir).unwrap();

        fs::write(&log, b"L0+L1").unwrap();
        incremental_backup(&log, &bdir).unwrap();
        fs::write(&log, b"L0+L1+L2").unwrap();
        incremental_backup(&log, &bdir).unwrap();
        assert_eq!(list_increments(&bdir).len(), 2);

        // Point-in-time: only the first increment.
        let r1 = work.join("r1");
        let (_, rl) = restore_backup(&bdir, &r1, Some(1)).unwrap();
        assert_eq!(fs::read(&rl).unwrap(), b"L0+L1");
        // All increments.
        let r2 = work.join("r2");
        let (_, rl) = restore_backup(&bdir, &r2, None).unwrap();
        assert_eq!(fs::read(&rl).unwrap(), b"L0+L1+L2");
        // Zero increments = the base log.
        let r3 = work.join("r3");
        let (_, rl) = restore_backup(&bdir, &r3, Some(0)).unwrap();
        assert_eq!(fs::read(&rl).unwrap(), b"L0");
        fs::remove_dir_all(&work).unwrap();
    }

    #[test]
    fn incremental_without_base_rejected() {
        let work = tmpdir("nobase");
        let log = work.join("wal.sedna");
        fs::write(&log, b"L").unwrap();
        let r = incremental_backup(&log, &work.join("missing"));
        assert!(r.is_err());
        let r = restore_backup(&work.join("missing"), &work.join("t"), None);
        assert!(r.is_err());
        fs::remove_dir_all(&work).unwrap();
    }
}
