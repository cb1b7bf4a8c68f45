//! Integration tests for instant copy-on-write database forking and
//! `AS OF` time-travel reads: zero-copy fork creation, divergence
//! isolation, durability across an unclean shutdown, plan-cache
//! isolation, retention-policy behavior, and drop guards.

use std::path::PathBuf;

use sedna::{Database, DbConfig};

const LIBRARY: &str = r#"<library><book><title>Foundations of Databases</title><author>Abiteboul</author><author>Hull</author><author>Vianu</author><price>50</price></book><book><title>An Introduction to Database Systems</title><author>Date</author><issue><publisher>Addison-Wesley</publisher><year>2004</year></issue><price>60</price></book><paper><title>A Relational Model for Large Shared Data Banks</title><author>Codd</author></paper></library>"#;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sedna-fork-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn library_db(name: &str, cfg: DbConfig) -> (Database, PathBuf) {
    let dir = tmpdir(name);
    let db = Database::create(&dir, cfg).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'lib'").unwrap();
    s.load_xml("lib", LIBRARY).unwrap();
    (db, dir)
}

/// Forking a database with more than 10k nodes is O(catalog): no data
/// pages are copied, no page versions are created, and the data file
/// does not grow at fork time.
#[test]
fn fork_copies_zero_data_pages() {
    let dir = tmpdir("zero-copy");
    let db = Database::create(&dir, DbConfig::default()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'lib'").unwrap();
    let nodes = s
        .load_xml("lib", &sedna_workload::library(1300, 42))
        .unwrap();
    assert!(nodes >= 10_000, "want a >=10k-node database, got {nodes}");
    drop(s);
    // Flush everything so the data file reflects the loaded state and
    // the at-fork deltas below start from a quiesced system.
    db.checkpoint().unwrap();

    let data_file = dir.join("data.sedna");
    let size_before = std::fs::metadata(&data_file).unwrap().len();
    let versions_before = db.version_stats().versions_created;
    let buf_before = db.buffer_stats();

    let fork = db.fork("staging").unwrap();

    // The fork shares every page with the parent: nothing was copied,
    // versioned, or written at fork time.
    assert_eq!(std::fs::metadata(&data_file).unwrap().len(), size_before);
    assert_eq!(db.version_stats().versions_created, versions_before);
    let buf_after = db.buffer_stats();
    assert_eq!(buf_after.retargets, buf_before.retargets);
    assert_eq!(buf_after.writebacks, buf_before.writebacks);
    assert_eq!(buf_after.misses, buf_before.misses);

    assert!(fork.is_fork());
    assert!(!db.is_fork());
    assert_eq!(fork.fork_name(), Some("staging"));
    assert!(fork.fork_point().unwrap() > 0);
    assert_ne!(fork.branch(), db.branch());
    assert_eq!(db.version_stats().branches, 2);

    // The shared pages serve both branches.
    let mut fs = fork.session();
    assert_eq!(fs.query("count(doc('lib')//book)").unwrap(), "1300");
    drop(fs);
    let mut ps = db.session();
    assert_eq!(ps.query("count(doc('lib')//book)").unwrap(), "1300");
    drop(ps);

    db.drop_fork("staging").unwrap();
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes after the fork point diverge through the version-chain write
/// path and stay invisible to the other branch.
#[test]
fn divergence_is_isolated_both_ways() {
    let dir = tmpdir("diverge");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'lib'").unwrap();
    s.load_xml("lib", &sedna_workload::library(20, 7)).unwrap();
    let fork = db.fork("branch").unwrap();

    // Shared helper drives both sides with different streams: 10
    // statements (5 note inserts) on the parent, 4 (2 inserts) on the
    // fork.
    for stmt in sedna_workload::update_statements(10, 1) {
        s.execute(&stmt).unwrap();
    }
    let mut fs = fork.session();
    for stmt in sedna_workload::update_statements(4, 2) {
        fs.execute(&stmt).unwrap();
    }
    assert_eq!(s.query("count(doc('lib')//note)").unwrap(), "5");
    assert_eq!(fs.query("count(doc('lib')//note)").unwrap(), "2");

    // Structural updates on one side never leak into the other.
    s.execute("UPDATE delete doc('lib')/library/book[1]")
        .unwrap();
    assert_eq!(s.query("count(doc('lib')//book)").unwrap(), "19");
    assert_eq!(fs.query("count(doc('lib')//book)").unwrap(), "20");
    fs.execute("UPDATE insert <book><title>Fork Only</title><price>1</price></book> into doc('lib')/library")
        .unwrap();
    assert_eq!(fs.query("count(doc('lib')//book)").unwrap(), "21");
    assert_eq!(s.query("count(doc('lib')//book)").unwrap(), "19");

    // DDL diverges too: a document created on the fork is invisible to
    // the parent.
    fs.execute("CREATE DOCUMENT 'scratch'").unwrap();
    fs.load_xml("scratch", "<r/>").unwrap();
    assert!(fork.document_names().contains(&"scratch".to_string()));
    assert!(!db.document_names().contains(&"scratch".to_string()));

    drop(s);
    drop(fs);
    db.drop_fork("branch").unwrap();
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fork durability: fork, diverge both sides, crash without a
/// checkpoint, recover — the parent and the fork each see exactly their
/// own writes.
#[test]
fn forks_survive_unclean_shutdown() {
    let dir = tmpdir("durable");
    let (db, _) = {
        let db = Database::create(&dir, DbConfig::small()).unwrap();
        (db, ())
    };
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'lib'").unwrap();
    s.load_xml("lib", LIBRARY).unwrap();
    let fork = db.fork("staging").unwrap();

    // Diverge both sides after the fork point; none of this is
    // checkpointed, so recovery must replay it per branch from the WAL.
    s.execute("UPDATE insert <note>parent-only</note> into doc('lib')/library/book[1]")
        .unwrap();
    s.execute("UPDATE insert <note>parent-two</note> into doc('lib')/library/book[2]")
        .unwrap();
    let mut fs = fork.session();
    fs.execute("UPDATE insert <note>fork-only</note> into doc('lib')/library/book[1]")
        .unwrap();
    drop(s);
    drop(fs);
    drop(fork);
    db.crash();

    let db = Database::open(&dir, DbConfig::small()).unwrap();
    let forks = db.forks();
    assert_eq!(forks.len(), 1);
    assert_eq!(forks[0].0, "staging");
    let fork = forks[0].1.clone();

    let mut s = db.session();
    assert_eq!(s.query("count(doc('lib')//note)").unwrap(), "2");
    assert_eq!(
        s.query("doc('lib')/library/book[1]/note/text()").unwrap(),
        "parent-only"
    );
    let mut fs = fork.session();
    assert_eq!(fs.query("count(doc('lib')//note)").unwrap(), "1");
    assert_eq!(
        fs.query("doc('lib')/library/book[1]/note/text()").unwrap(),
        "fork-only"
    );

    // Both branches stay writable after recovery.
    s.execute("UPDATE insert <note>post</note> into doc('lib')/library/paper")
        .unwrap();
    fs.execute("UPDATE insert <note>post</note> into doc('lib')/library/paper")
        .unwrap();
    assert_eq!(s.query("count(doc('lib')//note)").unwrap(), "3");
    assert_eq!(fs.query("count(doc('lib')//note)").unwrap(), "2");

    drop(s);
    drop(fs);
    db.drop_fork("staging").unwrap();
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dropped fork stays dropped across recovery, and the parent keeps
/// its own state.
#[test]
fn dropped_fork_stays_dropped_after_recovery() {
    let (db, dir) = library_db("drop-recover", DbConfig::small());
    let fork = db.fork("ephemeral").unwrap();
    let mut fs = fork.session();
    fs.execute("UPDATE insert <note>gone</note> into doc('lib')/library/book[1]")
        .unwrap();
    drop(fs);
    drop(fork);
    db.drop_fork("ephemeral").unwrap();
    drop(db.session());
    db.crash();

    let db = Database::open(&dir, DbConfig::small()).unwrap();
    assert!(db.forks().is_empty());
    let mut s = db.session();
    assert_eq!(s.query("count(doc('lib')//note)").unwrap(), "0");
    drop(s);
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `AS OF` sessions pin a retained snapshot: they return the historical
/// state byte-for-byte while concurrent writers proceed, and reject
/// updates and transaction control.
#[test]
fn as_of_reads_historical_state_while_writers_proceed() {
    let dir = tmpdir("asof");
    let cfg = DbConfig {
        retain_snapshots: 8,
        ..DbConfig::small()
    };
    let db = Database::create(&dir, cfg).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'lib'").unwrap();
    s.load_xml("lib", LIBRARY).unwrap();

    // Every commit under the retention policy pins a snapshot.
    let ts0 = *db.retained_snapshots().last().unwrap();
    let baseline = s.query("doc('lib')/library/book[1]").unwrap();

    s.execute("UPDATE replace value of doc('lib')/library/book[1]/price with '999'")
        .unwrap();
    assert!(db.retained_snapshots().len() >= 2);

    // Historical read at the pre-update snapshot, byte-for-byte.
    let mut t = db.session_as_of(ts0).unwrap();
    assert_eq!(t.query("doc('lib')/library/book[1]").unwrap(), baseline);

    // A concurrent writer proceeds non-blocking while the AS OF session
    // stays open — and the pinned view does not move.
    s.execute("UPDATE insert <note>later</note> into doc('lib')/library/book[1]")
        .unwrap();
    assert_eq!(t.query("doc('lib')/library/book[1]").unwrap(), baseline);
    assert_eq!(
        s.query("doc('lib')/library/book[1]/price/text()").unwrap(),
        "999"
    );

    // Updates and transaction control are rejected on the pinned
    // session.
    assert!(t
        .execute("UPDATE insert <x/> into doc('lib')/library")
        .is_err());
    assert!(t.begin_update().is_err());
    assert!(t.begin_read_only().is_err());
    assert!(t.commit().is_err());
    assert!(t.rollback().is_err());

    // A timestamp below every retained snapshot has no history to pin.
    let oldest = db.retained_snapshots()[0];
    assert!(db.session_as_of(oldest - 1).is_err());

    drop(t);
    drop(s);
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retention ring honors its count bound, and the
/// retained-snapshot count surfaces through `VersionStats`.
#[test]
fn retention_policy_bounds_the_ring() {
    let dir = tmpdir("retention");
    let cfg = DbConfig {
        retain_snapshots: 2,
        ..DbConfig::small()
    };
    let db = Database::create(&dir, cfg).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'lib'").unwrap();
    s.load_xml("lib", &sedna_workload::library(20, 3)).unwrap();
    for stmt in sedna_workload::update_statements(6, 3) {
        s.execute(&stmt).unwrap();
    }
    let retained = db.retained_snapshots();
    assert_eq!(retained.len(), 2, "ring must evict beyond the count bound");
    assert!(retained[0] < retained[1], "oldest first");
    assert!(db.version_stats().snapshots_retained >= 2);
    drop(s);
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fork never hits the parent's shared plan cache: the caches are
/// per-branch, so post-divergence statistics of one branch cannot steer
/// the other's plans.
#[test]
fn plan_cache_is_isolated_per_branch() {
    let dir = tmpdir("plans");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'lib'").unwrap();
    s.load_xml("lib", &sedna_workload::library(20, 5)).unwrap();
    let q = "doc('lib')/library/book[price > 55]/title/text()";
    s.query(q).unwrap();
    s.query(q).unwrap();
    let parent_plans = db.shared_plan_count();
    assert!(parent_plans >= 1, "parent must have cached its plan");

    let fork = db.fork("planfork").unwrap();
    assert_eq!(
        fork.shared_plan_count(),
        0,
        "a fresh fork must not see the parent's plan entries"
    );

    // Diverge the fork, then plan the same statement there: it lands in
    // the fork's own cache and leaves the parent's untouched.
    let mut fs = fork.session();
    for stmt in sedna_workload::update_statements(4, 5) {
        fs.execute(&stmt).unwrap();
    }
    fs.query(q).unwrap();
    fs.query(q).unwrap();
    assert!(fork.shared_plan_count() >= 1);
    assert_eq!(
        db.shared_plan_count(),
        parent_plans,
        "fork planning must never touch the parent's cache"
    );

    // And the reverse: more parent planning does not leak to the fork.
    let fork_plans = fork.shared_plan_count();
    s.query("count(doc('lib')//author)").unwrap();
    assert_eq!(fork.shared_plan_count(), fork_plans);

    drop(s);
    drop(fs);
    db.drop_fork("planfork").unwrap();
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drop guards: a fork with active sessions or child forks refuses to
/// drop; names must be unique; nested forks drop innermost-first.
#[test]
fn fork_drop_guards_and_nesting() {
    let (db, dir) = library_db("guards", DbConfig::small());
    let fork = db.fork("child").unwrap();
    assert!(db.fork("child").is_err(), "duplicate names are refused");
    assert!(db.fork("").is_err(), "empty names are refused");

    // Fork-of-fork: the grandchild branches off the child's state.
    let mut cs = fork.session();
    cs.execute("UPDATE insert <note>child</note> into doc('lib')/library/book[1]")
        .unwrap();
    drop(cs);
    let grand = fork.fork("grandchild").unwrap();
    let mut gs = grand.session();
    assert_eq!(gs.query("count(doc('lib')//note)").unwrap(), "1");
    assert_eq!(db.version_stats().branches, 3);

    // The child cannot be dropped while the grandchild exists.
    assert!(db.drop_fork("child").is_err());
    // The grandchild cannot be dropped while a session is on it.
    assert!(db.drop_fork("grandchild").is_err());
    drop(gs);
    drop(grand);
    db.drop_fork("grandchild").unwrap();
    db.drop_fork("child").unwrap();
    assert!(db.forks().is_empty());
    assert_eq!(db.version_stats().branches, 1);
    assert!(db.drop_fork("child").is_err(), "double drop is refused");

    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fork-family metrics surface through the database registry.
#[test]
fn fork_metrics_are_exported() {
    let (db, dir) = library_db("fork-metrics", DbConfig::small());
    let fork = db.fork("m1").unwrap();
    let snap = db.metrics_snapshot();
    assert_eq!(snap.gauge("sedna_fork_branches"), 2);
    assert_eq!(snap.counter("sedna_fork_creates_total"), 1);
    assert_eq!(snap.counter("sedna_fork_drops_total"), 0);
    drop(fork);
    db.drop_fork("m1").unwrap();
    let snap = db.metrics_snapshot();
    assert_eq!(snap.gauge("sedna_fork_branches"), 1);
    assert_eq!(snap.counter("sedna_fork_drops_total"), 1);
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
