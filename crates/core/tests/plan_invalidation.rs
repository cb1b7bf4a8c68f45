//! The plan cache under DDL, data changes, transactions and snapshots.
//!
//! A cached plan is the rewritten, uncosted statement, a function of its
//! text alone: nothing invalidates it. Every statement is costed on the
//! catalog it runs on, so plans follow DDL and statistics without a
//! re-parse. These tests exercise the real pipeline — sessions, parser,
//! planner, executor, metrics — including under an actual thread race.

use std::sync::Arc;

use sedna::{Database, DbConfig};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sedna-planinv-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const DOC: &str = "<inventory><item><sku>a1</sku></item><item><sku>b2</sku></item></inventory>";

/// A querying session re-runs one cached statement while another session
/// performs a stream of DDL statements. Every query must stay correct,
/// the hit/miss ledger must balance against the number of statements,
/// and once DDL quiesces the statement still hits the cache.
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
        // Correctness under racing DDL: every run is costed on the
        // catalog it reads, and the DDL stream never touches 'inv'.
        assert_eq!(s.query("doc('inv')//sku/text()").unwrap(), "a1b2");
    }
    ddl_thread.join().unwrap();
    // One more DDL after the query loop, however the race went.
    db.session()
        .execute("CREATE DOCUMENT 'after_race'")
        .unwrap();

    // Every lookup is either a hit or a miss — nothing double-counted,
    // nothing lost, across however the race interleaved.
    let snap = db.metrics_snapshot();
    let hits = snap.counter("sedna_plan_cache_hits_total");
    let misses = snap.counter("sedna_plan_cache_misses_total");
    let statements = snap.counter("sedna_query_statements_total");
    assert_eq!(hits + misses, statements, "plan-cache ledger must balance");

    // DDL has quiesced: the cached text still hits, with the same answer.
    assert_eq!(s.query("doc('inv')//sku/text()").unwrap(), "a1b2");
    let after_ddl = s.last_profile().unwrap();
    assert_eq!(after_ddl.parse_ns, 0, "DDL leaves the cached text cached");
    assert_eq!(s.query("doc('inv')//sku/text()").unwrap(), "a1b2");
    let hit = s.last_profile().unwrap();
    assert_eq!(hit.parse_ns, 0, "the cached text keeps hitting");

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

/// A data-volume change re-costs cached plans: the same equality query is
/// planned as a structural scan while the document is empty, keeps
/// hitting the plan cache, and — after a bulk load — still hits, is
/// costed on the new statistics and flips to the B-tree index access
/// path.
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

    // Bulk load ~600 items: a pure data-volume change.
    s.load_xml("d", &skewed_doc(600)).unwrap();

    // The cached text still hits, is costed on the new statistics, and
    // now routes through the index — with the right answer.
    assert_eq!(s.query(q).unwrap(), "v500");
    assert_eq!(
        s.last_profile().unwrap().parse_ns,
        0,
        "a bulk load leaves the cached text cached"
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

/// An open read-only transaction and an `AS OF` session read the shared
/// plan cache: they reuse what another session compiled after a commit,
/// data-only or DDL, and cost it on their own snapshot.
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

    // After a shape change they still hit, on their own snapshot.
    s.execute("CREATE DOCUMENT 'e'").unwrap();
    assert_eq!(s.query(q).unwrap(), "11");
    assert_eq!(reader.query(q).unwrap(), "10");
    assert_eq!(reader.last_profile().unwrap().parse_ns, 0);

    reader.commit().unwrap();
    drop((s, reader, as_of));
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// EXPLAIN ANALYZE estimates a positional step predicate at one node per
/// parent: `item[3]` under the single `r` is one item, not a fraction of
/// all 600.
#[test]
fn positional_predicate_estimates_one_item_per_parent() {
    let dir = tmpdir("positional");
    let db = Database::create(&dir, DbConfig::default()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'd'").unwrap();
    s.load_xml("d", &skewed_doc(600)).unwrap();
    // `//item[3]` keeps its `descendant-or-self::node()` step, so the
    // cap is the one `r` that owns the items, not every node before it.
    for q in ["doc('d')/r/item[3]", "doc('d')//item[3]"] {
        let report = s.explain_analyze(q).unwrap();
        let step = report
            .lines()
            .find(|l| l.contains("Step child::item"))
            .unwrap_or_else(|| panic!("no item step:\n{report}"));
        assert!(
            step.contains("est=1 act=1"),
            "a positional predicate keeps one item per parent:\n{report}"
        );
    }

    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Counts the runs of `q` on `s` that parsed, running `between` after
/// each of `runs` runs; `check` sees every answer.
fn count_parses(
    s: &mut sedna::Session,
    q: &str,
    runs: usize,
    mut between: impl FnMut(usize),
    check: impl Fn(&str),
) -> usize {
    let mut parses = 0;
    for i in 0..runs {
        check(&s.query(q).unwrap());
        parses += usize::from(s.last_profile().unwrap().parse_ns > 0);
        between(i);
    }
    parses
}

/// A cached plan is a function of its text alone: commits to a document
/// the query does not read leave it cached, so 200 runs parse once.
#[test]
fn commits_to_another_document_keep_the_plan_cached() {
    let dir = tmpdir("other-doc");
    let db = Database::create(&dir, DbConfig::default()).unwrap();
    let (mut s, mut w) = (db.session(), db.session());
    s.execute("CREATE DOCUMENT 'a'").unwrap();
    s.load_xml("a", DOC).unwrap();
    s.execute("CREATE DOCUMENT 'b'").unwrap();
    s.load_xml("b", "<r><v>0</v></r>").unwrap();

    let parses = count_parses(
        &mut s,
        "doc('a')//sku/text()",
        200,
        |i| {
            w.execute(&format!("UPDATE replace value of doc('b')/r/v with 'x{i}'"))
                .unwrap();
        },
        |out| assert_eq!(out, "a1b2"),
    );
    assert!(parses <= 1, "{parses} of 200 runs parsed");

    drop((s, w));
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Commits to the document a query reads leave its text cached too, and
/// every run is costed on the statistics it runs on: after 200 small
/// commits to `a` and a bulk load, the same cached text flips from the
/// structural scan to the index, still without a parse.
#[test]
fn commits_to_the_read_document_keep_the_plan_cached_and_costed() {
    let dir = tmpdir("same-doc");
    let db = Database::create(&dir, DbConfig::default()).unwrap();
    let (mut s, mut w) = (db.session(), db.session());
    s.execute("CREATE DOCUMENT 'a'").unwrap();
    s.load_xml("a", "<r><item><k>v0</k></item></r>").unwrap();
    s.execute("CREATE INDEX 'byk' ON doc('a')/r/item BY k AS xs:string")
        .unwrap();
    let q = "doc('a')/r/item[k = \"v500\"]/k/text()";

    let mut parses = count_parses(
        &mut s,
        q,
        200,
        |i| {
            w.execute(&format!(
                "UPDATE replace value of doc('a')/r/item[1]/k with 'w{i}'"
            ))
            .unwrap();
        },
        |out| assert_eq!(out, ""),
    );
    assert_eq!(
        s.last_plan_decision().unwrap().access_path,
        sedna::AccessPath::Scan
    );

    w.execute("UPDATE delete doc('a')/r").unwrap();
    w.load_xml("a", &skewed_doc(600)).unwrap();
    parses += count_parses(&mut s, q, 1, |_| {}, |out| assert_eq!(out, "v500"));
    assert!(parses <= 1, "{parses} of 201 runs parsed");
    let d = s.last_plan_decision().unwrap();
    assert_eq!(d.access_path, sedna::AccessPath::Index);
    assert!(s.last_stats.index_lookups >= 1);

    drop((s, w));
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A plan-cache hit reports the decision of the statement just run, in
/// `last_plan_decision` and in the `sedna_plan_chosen_*` counters, not
/// the decision of whatever this session compiled last.
#[test]
fn a_cache_hit_reports_its_own_plan_decision() {
    let dir = tmpdir("hit-decision");
    let db = Database::create(&dir, DbConfig::default()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'd'").unwrap();
    s.load_xml("d", &skewed_doc(600)).unwrap();
    s.execute("CREATE INDEX 'byk' ON doc('d')/r/item BY k AS xs:string")
        .unwrap();
    let q1 = "doc('d')/r/item[k = \"v500\"]/k/text()";
    let q2 = "count(doc('d')/r/item)";
    let chosen = |name: &str| db.metrics_snapshot().counter(name);

    assert_eq!(s.query(q1).unwrap(), "v500");
    assert_eq!(
        s.last_plan_decision().unwrap().access_path,
        sedna::AccessPath::Index
    );
    assert_eq!(s.query(q2).unwrap(), "600");
    assert_eq!(
        s.last_plan_decision().unwrap().access_path,
        sedna::AccessPath::Scan
    );

    let (index, scan) = (
        chosen("sedna_plan_chosen_index_total"),
        chosen("sedna_plan_chosen_scan_total"),
    );
    assert_eq!(s.query(q1).unwrap(), "v500");
    assert_eq!(s.last_profile().unwrap().parse_ns, 0, "q1 hits the cache");
    assert_eq!(
        s.last_plan_decision().unwrap().access_path,
        sedna::AccessPath::Index
    );
    assert_eq!(chosen("sedna_plan_chosen_index_total"), index + 1);
    assert_eq!(chosen("sedna_plan_chosen_scan_total"), scan);

    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
