//! Crash-recovery equivalence for the delta-logging commit path: a
//! database that crashes after every k-th commit — and whose every
//! recovery is itself "crashed" and run again over the pages the first run
//! already rewrote — must serialize every document on every branch exactly
//! like a twin that never crashed. The script mixes the seeded
//! `sedna_workload::update_statements` stream on an indexed document with a
//! long-lived fork, a fork that is dropped again, and a mid-stream
//! checkpoint.

use std::path::{Path, PathBuf};

use sedna::{Database, DbConfig};
use sedna_wal::{WalReader, WalRecord};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sedna-receq-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Clone, Debug)]
enum Step {
    /// Run an auto-commit statement on the root (`""`) or a named fork.
    Stmt(&'static str, String),
    Fork(&'static str),
    DropFork(&'static str),
    Checkpoint,
}

/// 60 update statements spread over the root and two forks.
fn script(seed: u64) -> Vec<Step> {
    let mut steps = Vec::new();
    for (i, stmt) in sedna_workload::update_statements(60, seed)
        .into_iter()
        .enumerate()
    {
        match i {
            15 => steps.push(Step::Fork("dev")),
            30 => steps.push(Step::Checkpoint),
            33 => steps.push(Step::Fork("tmp")),
            39 => steps.push(Step::DropFork("tmp")),
            _ => {}
        }
        let target = match i {
            33..=38 if i % 2 == 1 => "tmp",
            15.. if i % 3 == 0 => "dev",
            _ => "",
        };
        steps.push(Step::Stmt(target, stmt));
    }
    steps
}

fn branch(db: &Database, name: &str) -> Database {
    if name.is_empty() {
        return db.clone();
    }
    db.forks()
        .into_iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("fork '{name}' missing"))
        .1
}

fn apply(db: &Database, step: &Step) {
    match step {
        Step::Stmt(target, stmt) => {
            let mut s = branch(db, target).session();
            s.execute(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
        }
        Step::Fork(name) => {
            db.fork(name).unwrap();
        }
        Step::DropFork(name) => db.drop_fork(name).unwrap(),
        Step::Checkpoint => db.checkpoint().unwrap(),
    }
}

/// Every document of every branch, serialized, plus what the index
/// answers for a handful of keys.
fn fingerprint(db: &Database) -> Vec<(String, String)> {
    let mut names = vec![String::new()];
    names.extend(db.forks().into_iter().map(|(n, _)| n));
    let mut out = Vec::new();
    for name in names {
        let member = branch(db, &name);
        let mut s = member.session();
        for doc in member.document_names() {
            out.push((
                format!("{name}/{doc}"),
                s.query(&format!("doc('{doc}')")).unwrap(),
            ));
        }
        // The price index (B-tree pages are logged like any other) is
        // maintained by every statement of the stream.
        for key in ["20", "35", "50", "64", "77", "90", "101", "118"] {
            let probe = format!("count(index-scan('byprice', '{key}'))");
            out.push((format!("{name}/byprice/{key}"), s.query(&probe).unwrap()));
        }
    }
    out
}

fn seeded_db(dir: &Path) -> Database {
    let db = Database::create(dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'lib'").unwrap();
    s.load_xml("lib", &sedna_workload::library(40, 7)).unwrap();
    s.execute("CREATE INDEX 'byprice' ON doc('lib')/library/book BY price AS xs:string")
        .unwrap();
    drop(s);
    db.checkpoint().unwrap();
    db
}

fn count_deltas(log: &Path) -> usize {
    WalReader::read_all(log)
        .unwrap()
        .iter()
        .filter(|(_, r)| matches!(r, WalRecord::PageDelta { .. }))
        .count()
}

/// Crashes `db`, recovers it, crashes the recovery before its checkpoint
/// became durable (the log is put back as it was), and recovers again.
fn crash_and_recover_twice(db: Database, dir: &Path) -> (Database, usize) {
    let log = dir.join("wal.sedna");
    let saved = dir.join("wal.before-recovery");
    db.crash();
    std::fs::copy(&log, &saved).unwrap();
    let deltas = count_deltas(&log);

    let first = Database::open(dir, DbConfig::small()).unwrap();
    let after_first = fingerprint(&first);
    first.crash();
    // The first recovery redid pages in place and in fresh slots; its
    // closing checkpoint never reached the disk.
    std::fs::copy(&saved, &log).unwrap();
    let second = Database::open(dir, DbConfig::small()).unwrap();
    assert_eq!(fingerprint(&second), after_first, "recovery of a recovery");
    (second, deltas)
}

fn run(k: usize, seed: u64) {
    let twin_dir = tmpdir(&format!("twin-{k}-{seed}"));
    let dir = tmpdir(&format!("victim-{k}-{seed}"));
    let twin = seeded_db(&twin_dir);
    let mut victim = seeded_db(&dir);
    let mut commits = 0;
    let mut deltas_replayed = 0;
    for (n, step) in script(seed).iter().enumerate() {
        apply(&twin, step);
        apply(&victim, step);
        if matches!(step, Step::Stmt(..)) {
            commits += 1;
            if commits % k == 0 {
                let (db, deltas) = crash_and_recover_twice(victim, &dir);
                victim = db;
                deltas_replayed += deltas;
                assert_eq!(
                    fingerprint(&victim),
                    fingerprint(&twin),
                    "k={k} seed={seed}: diverged after step {n} ({step:?})"
                );
            }
        }
    }
    assert!(
        deltas_replayed > commits / k,
        "the recoveries replayed {deltas_replayed} delta records: the test exercised images only"
    );
    assert!(victim.forks().iter().all(|(n, _)| n != "tmp"));
    // A clean close and a plain reopen agree as well.
    victim.close().unwrap();
    drop(victim);
    let reopened = Database::open(&dir, DbConfig::small()).unwrap();
    assert_eq!(fingerprint(&reopened), fingerprint(&twin));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&twin_dir);
}

#[test]
fn crash_after_every_commit_matches_never_crashed_twin() {
    run(1, 11);
}

#[test]
fn crash_after_every_seventh_commit_matches_never_crashed_twin() {
    // Chains of several deltas per page between checkpoints, and crash
    // points on both sides of the fork, the drop and the checkpoint.
    run(7, 12);
}

/// A fork's checkpointed page slots are the base its later deltas are
/// replayed onto, so they must not be recycled (and overwritten by another
/// page's write-back) before the next checkpoint — even once the fork
/// itself has moved on to newer versions.
#[test]
fn fork_slots_named_by_the_checkpoint_survive_until_the_next_one() {
    let price = |book: usize, v: usize| {
        Step::Stmt(
            "",
            format!("UPDATE replace value of doc('lib')/library/book[{book}]/price with '{v}'"),
        )
    };
    let on_dev = |step: Step| match step {
        Step::Stmt(_, s) => Step::Stmt("dev", s),
        other => other,
    };
    let mut steps = vec![Step::Fork("dev"), on_dev(price(1, 500)), Step::Checkpoint];
    // The fork supersedes its checkpointed versions ...
    steps.push(on_dev(price(1, 501)));
    // ... and the root churns through page versions: each commit takes the
    // lowest free slot and writes the previous version back over it.
    for round in 0..12 {
        steps.push(price(1 + round % 3, 600 + round));
    }
    steps.push(on_dev(price(2, 502)));

    let twin_dir = tmpdir("twin-forkslots");
    let dir = tmpdir("victim-forkslots");
    let twin = seeded_db(&twin_dir);
    let victim = seeded_db(&dir);
    for step in &steps {
        apply(&twin, step);
        apply(&victim, step);
    }
    let (victim, deltas) = crash_and_recover_twice(victim, &dir);
    assert!(deltas >= steps.len() - 3, "every commit logged deltas");
    assert_eq!(fingerprint(&victim), fingerprint(&twin));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&twin_dir);
}

/// A log holding only the record types every earlier version wrote —
/// `Begin`, `PageImage`, `CatalogPut`, `Commit` after the checkpoint —
/// recovers through the delta-aware redo unchanged.
#[test]
fn image_only_log_still_recovers() {
    let dir = tmpdir("images-only");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    // One transaction creating and loading the document: every page it
    // logs is fresh, so every page record is a full image.
    s.begin_update().unwrap();
    s.execute("CREATE DOCUMENT 'lib'").unwrap();
    s.load_xml("lib", &sedna_workload::library(40, 3)).unwrap();
    s.commit().unwrap();
    let expected = s.query("doc('lib')").unwrap();
    drop(s);
    db.crash();

    let records = WalReader::read_all(&dir.join("wal.sedna")).unwrap();
    let tail: Vec<&WalRecord> = records
        .iter()
        .map(|(_, r)| r)
        .skip_while(|r| !matches!(r, WalRecord::Checkpoint(_)))
        .skip(1)
        .collect();
    assert!(tail.len() > 4, "expected a multi-page load, got {tail:?}");
    assert!(tail.iter().all(|r| matches!(
        r,
        WalRecord::Begin { .. }
            | WalRecord::PageImage { .. }
            | WalRecord::CatalogPut { .. }
            | WalRecord::Commit { .. }
    )));

    let db = Database::open(&dir, DbConfig::small()).unwrap();
    assert_eq!(db.session().query("doc('lib')").unwrap(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}
