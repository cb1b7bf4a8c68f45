//! Plan-cache generation invalidation under concurrent DDL.
//!
//! The loom model (`src/loom_models.rs`, under `--cfg loom`) proves the
//! protocol over every bounded interleaving of a tiny schedule; this
//! test exercises the real pipeline — sessions, parser, executor,
//! metrics — under an actual thread race, long enough to cross many
//! generation bumps.

use std::sync::Arc;

use sedna::{Database, DbConfig};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sedna-planinv-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const DOC: &str = "<inventory><item><sku>a1</sku></item><item><sku>b2</sku></item></inventory>";

/// A querying session re-runs one cached statement while another session
/// performs a stream of DDL statements, each bumping the catalog
/// generation. Every query must stay correct, the hit/miss ledger must
/// balance against the number of statements, and once DDL quiesces the
/// next run must re-parse (stale plan key-missed) and then hit again.
#[test]
fn concurrent_ddl_invalidates_cached_plans_without_wrong_results() {
    let dir = tmpdir("race");
    let db = Database::create(&dir, DbConfig::default()).unwrap();
    {
        let mut s = db.session();
        s.execute("CREATE DOCUMENT 'inv'").unwrap();
        s.load_xml("inv", DOC).unwrap();
    }

    const DDLS: usize = 20;
    const QUERIES: usize = 60;
    let db = Arc::new(db);

    let ddl_thread = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let mut s = db.session();
            for i in 0..DDLS {
                s.execute(&format!("CREATE DOCUMENT 'scratch{i}'")).unwrap();
            }
        })
    };

    let mut s = db.session();
    for _ in 0..QUERIES {
        // Correctness under racing invalidation: whether this run hits
        // the cache or replans at a fresh generation, the answer is the
        // same — the DDL stream never touches 'inv'.
        assert_eq!(s.query("doc('inv')//sku/text()").unwrap(), "a1b2");
    }
    ddl_thread.join().unwrap();
    // The query loop may have outlasted the DDL thread and planned at the
    // final generation already; one more DDL makes the generation the
    // query session last planned at stale by construction.
    db.session()
        .execute("CREATE DOCUMENT 'after_race'")
        .unwrap();

    assert_eq!(
        db.catalog_generation(),
        2 + DDLS as u64,
        "every DDL (and the initial CREATE) must bump the generation"
    );

    // Every lookup is either a hit or a miss — nothing double-counted,
    // nothing lost, across however the race interleaved.
    let snap = db.metrics_snapshot();
    let hits = snap.counter("sedna_plan_cache_hits_total");
    let misses = snap.counter("sedna_plan_cache_misses_total");
    let statements = snap.counter("sedna_query_statements_total");
    assert_eq!(hits + misses, statements, "plan-cache ledger must balance");

    // DDL has quiesced at a final generation the query session has not
    // planned at yet: the next run must re-parse, the one after must hit.
    s.query("doc('inv')//sku/text()").unwrap();
    let replan = s.last_profile().unwrap();
    assert!(replan.parse_ns > 0, "stale plan must key-miss after DDL");
    s.query("doc('inv')//sku/text()").unwrap();
    let hit = s.last_profile().unwrap();
    assert_eq!(
        hit.parse_ns, 0,
        "replanned entry must hit at the new generation"
    );

    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Builds a skewed document: `count` items `<item><k>vN</k></item>`
/// under one root.
fn skewed_doc(count: usize) -> String {
    let mut xml = String::from("<r>");
    for i in 0..count {
        xml.push_str(&format!("<item><k>v{i}</k></item>"));
    }
    xml.push_str("</r>");
    xml
}

/// A data-volume change must re-cost cached plans without touching the
/// catalog generation: the same equality query is planned as a
/// structural scan while the document is empty, keeps hitting the plan
/// cache, and — after a bulk load bumps the statistics epoch — key-misses,
/// replans, and flips to the B-tree index access path.
#[test]
fn stats_epoch_bump_recosts_cached_plans_from_scan_to_index() {
    let dir = tmpdir("epoch");
    let db = Database::create(&dir, DbConfig::default()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'd'").unwrap();
    s.execute("CREATE INDEX 'byk' ON doc('d')/r/item BY k AS xs:string")
        .unwrap();

    let q = "doc('d')/r/item[k = \"v500\"]/k/text()";
    // Empty document: nothing to gain from the index, the planner keeps
    // the structural scan.
    assert_eq!(s.query(q).unwrap(), "");
    let d = s.last_plan_decision().unwrap();
    assert_eq!(d.access_path, sedna::AccessPath::Scan);
    assert_eq!(d.index_rewrites, 0);
    // Same key, same epoch: the second run hits the cache.
    s.query(q).unwrap();
    assert_eq!(s.last_profile().unwrap().parse_ns, 0);

    // Bulk load ~600 items: a pure data-volume change. The statistics
    // epoch must move; the catalog generation must NOT (no shape change).
    let generation = db.catalog_generation();
    let epoch = db.stats_epoch();
    s.load_xml("d", &skewed_doc(600)).unwrap();
    assert_eq!(db.catalog_generation(), generation);
    assert!(db.stats_epoch() > epoch, "bulk load must bump the epoch");

    // The cached plan key-misses, replans at the new statistics, and the
    // cold path now routes through the index — with the right answer.
    assert_eq!(s.query(q).unwrap(), "v500");
    assert!(
        s.last_profile().unwrap().parse_ns > 0,
        "stale plan must key-miss after the epoch bump"
    );
    let d = s.last_plan_decision().unwrap();
    assert_eq!(d.access_path, sedna::AccessPath::Index);
    assert!(d.index_rewrites >= 1);
    // And the chosen index plan really probed the B-tree.
    assert!(s.last_stats.index_lookups >= 1);

    let snap = db.metrics_snapshot();
    assert!(snap.counter("sedna_plan_chosen_scan_total") >= 1);
    assert!(snap.counter("sedna_plan_chosen_index_total") >= 1);
    assert!(snap.counter("sedna_exec_index_lookups_total") >= 1);

    // EXPLAIN ANALYZE surfaces the planner's estimates next to the
    // measured counts — exact here, because the bare-path statistics are.
    let report = s.explain_analyze("doc('d')/r/item").unwrap();
    assert!(
        report.contains("est=600 act=600"),
        "estimate must render beside the actual count:\n{report}"
    );

    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Admission control under a thundering herd: with `max_sessions = 2`,
/// racing `try_session` calls never over-admit, rejected callers see a
/// clean `Conflict`, and the slot count recovers to zero.
#[test]
fn session_admission_holds_under_concurrent_open_close() {
    let dir = tmpdir("admission");
    let cfg = DbConfig {
        max_sessions: 2,
        ..DbConfig::default()
    };
    let db = Arc::new(Database::create(&dir, cfg).unwrap());

    let mut handles = Vec::new();
    for _ in 0..6 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut admitted = 0usize;
            for _ in 0..50 {
                match db.try_session() {
                    Ok(_session) => {
                        admitted += 1;
                        assert!(
                            db.active_sessions() <= 2,
                            "admission bound breached: {} live",
                            db.active_sessions()
                        );
                        // _session drops here, releasing the slot.
                    }
                    Err(sedna::DbError::Conflict(_)) => {}
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
            }
            admitted
        }));
    }
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(
        total > 0,
        "with only 2 slots and 6 threads, someone must win"
    );
    assert_eq!(db.active_sessions(), 0, "all slots must be returned");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Index DDL inside an open transaction changes no other session's plan
/// until it commits: another session compiling the same text does not
/// use the index the transaction creates, and still uses the index it
/// drops. The transaction itself plans against its own catalog.
#[test]
fn uncommitted_index_ddl_leaves_other_sessions_plans_alone() {
    let dir = tmpdir("txn-ddl");
    let db = Database::create(&dir, DbConfig::default()).unwrap();
    let (mut a, mut b) = (db.session(), db.session());
    a.execute("CREATE DOCUMENT 'd'").unwrap();
    a.load_xml("d", &skewed_doc(600)).unwrap();

    let q = "doc('d')/r/item[k = \"v500\"]/k/text()";
    // Runs the query and reports whether its plan probed an index.
    let uses_index = |s: &mut sedna::Session| {
        assert_eq!(s.query(q).unwrap(), "v500");
        s.last_stats.index_lookups > 0
    };
    assert!(!uses_index(&mut b));

    a.begin_update().unwrap();
    a.execute("CREATE INDEX 'byk' ON doc('d')/r/item BY k AS xs:string")
        .unwrap();
    assert!(uses_index(&mut a), "the creator plans with its own index");
    assert!(!uses_index(&mut b), "an uncommitted index is not planned");
    a.commit().unwrap();
    assert!(uses_index(&mut b), "a committed index is planned");

    a.begin_update().unwrap();
    a.execute("DROP INDEX 'byk'").unwrap();
    assert!(!uses_index(&mut a), "the dropper plans without the index");
    assert!(uses_index(&mut b), "an uncommitted drop keeps the index");
    a.commit().unwrap();
    assert!(!uses_index(&mut b), "a committed drop removes the index");

    drop((a, b));
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `count` items whose `k` is `vN` and whose `j` is `v(N+1)`: an index BY
/// `j` answers a probe for `k = "vN"` with item N - 1.
fn shifted_doc(count: usize) -> String {
    let items: String = (0..count)
        .map(|i| format!("<item><k>v{i}</k><j>v{}</j></item>", i + 1))
        .collect();
    format!("<r>{items}</r>")
}

/// Dropping an index and re-creating it under the same name with another
/// BY path in one transaction is a shape change: plans cached on the old
/// definition — a query's and an update's — are not served after the
/// commit, nor to the transaction's own statements after the re-create.
#[test]
fn redefining_an_index_in_one_transaction_invalidates_its_plans() {
    let dir = tmpdir("redefine");
    let db = Database::create(&dir, DbConfig::default()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'd'").unwrap();
    s.load_xml("d", &shifted_doc(600)).unwrap();
    s.execute("CREATE INDEX 'i' ON doc('d')/r/item BY k AS xs:string")
        .unwrap();
    let q = "doc('d')/r/item[k = \"v500\"]/j/text()";
    // No item has k = "v600" (but item 599 has j = "v600"): the update
    // has no target and changes nothing, so its plan stays cached.
    let u = "UPDATE delete doc('d')/r/item[k = \"v600\"]";
    for _ in 0..2 {
        assert_eq!(s.query(q).unwrap(), "v501");
        assert!(s.execute(u).is_err(), "empty update target");
    }
    assert_eq!(
        s.last_profile().unwrap().parse_ns,
        0,
        "the query plan is cached"
    );
    assert_eq!(
        s.last_plan_decision().unwrap().access_path,
        sedna::AccessPath::Index
    );

    let mut t = db.session();
    t.begin_update().unwrap();
    t.execute("DROP INDEX 'i'").unwrap();
    t.execute("CREATE INDEX 'i' ON doc('d')/r/item BY j AS xs:string")
        .unwrap();
    assert_eq!(t.query(q).unwrap(), "v501", "the transaction's own plan");
    t.commit().unwrap();

    assert_eq!(s.query(q).unwrap(), "v501");
    assert!(s.execute(u).is_err(), "empty update target");
    assert_eq!(s.query("count(doc('d')/r/item)").unwrap(), "600");

    // The same through a dropped and re-created document.
    t.begin_update().unwrap();
    t.execute("DROP DOCUMENT 'd'").unwrap();
    t.execute("CREATE DOCUMENT 'd'").unwrap();
    t.load_xml("d", &shifted_doc(600)).unwrap();
    t.execute("CREATE INDEX 'i' ON doc('d')/r/item BY k AS xs:string")
        .unwrap();
    t.commit().unwrap();
    for _ in 0..2 {
        assert_eq!(s.query(q).unwrap(), "v501");
    }

    drop((s, t));
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A commit that changes data but not the catalog shape leaves an open
/// read-only transaction, and an `AS OF` session, on the shared plan
/// cache: they reuse what another session compiled after the commit.
#[test]
fn snapshots_share_plans_across_a_data_only_commit() {
    let dir = tmpdir("snapshot-share");
    let cfg = DbConfig {
        retain_snapshots: 4,
        ..DbConfig::default()
    };
    let db = Database::create(&dir, cfg).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'd'").unwrap();
    s.load_xml("d", &skewed_doc(10)).unwrap();
    let ts = *db.retained_snapshots().last().unwrap();
    let mut reader = db.session();
    reader.begin_read_only().unwrap();
    let mut as_of = db.session_as_of(ts).unwrap();

    s.execute("UPDATE insert <item><k>new</k></item> into doc('d')/r")
        .unwrap();
    let q = "count(doc('d')/r/item)";
    assert_eq!(s.query(q).unwrap(), "11");
    assert_eq!(reader.query(q).unwrap(), "10");
    assert_eq!(reader.last_profile().unwrap().parse_ns, 0, "read-only hit");
    assert_eq!(as_of.query(q).unwrap(), "10");
    assert_eq!(as_of.last_profile().unwrap().parse_ns, 0, "AS OF hit");

    // After a shape change they compile on their own snapshot.
    s.execute("CREATE DOCUMENT 'e'").unwrap();
    assert_eq!(s.query(q).unwrap(), "11");
    assert_eq!(reader.query(q).unwrap(), "10");
    assert!(reader.last_profile().unwrap().parse_ns > 0);

    reader.commit().unwrap();
    drop((s, reader, as_of));
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
