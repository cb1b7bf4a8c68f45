//! Streaming-cursor integration tests: lazy pull execution end to end
//! through [`sedna::Session::execute_stream`].
//!
//! What they pin down:
//! * an auto-commit query comes back as a live [`sedna::QueryCursor`]
//!   whose first item is produced without scanning the whole result;
//! * peak pinned buffer pages stay bounded by the pipeline depth plus a
//!   small constant, independent of result cardinality;
//! * dropping a cursor mid-stream releases its pins and read-only
//!   transaction immediately;
//! * every way of running a query — `query`, a drained auto-commit
//!   cursor, inside a read-only transaction, inside an update
//!   transaction after an uncommitted insert — returns the same items;
//! * the database-wide plan cache serves a statement compiled by
//!   another session.

use std::path::PathBuf;

use sedna::{Database, DbConfig, StreamOutcome};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sedna-streaming-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const N: usize = 2000;

fn big_doc() -> String {
    let mut xml = String::from("<r>");
    for i in 0..N {
        xml.push_str(&format!("<v>{i}</v>"));
    }
    xml.push_str("</r>");
    xml
}

fn setup(name: &str) -> (Database, PathBuf) {
    let dir = tmpdir(name);
    let db = Database::create(&dir, DbConfig::default()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'big'").unwrap();
    s.load_xml("big", &big_doc()).unwrap();
    drop(s);
    (db, dir)
}

#[test]
fn first_item_arrives_before_the_scan_completes() {
    let (db, dir) = setup("ttfi");
    let mut s = db.session();
    let outcome = s.execute_stream("doc('big')//v/text()").unwrap();
    let StreamOutcome::Cursor(mut cur) = outcome else {
        panic!("auto-commit query must stream, got {outcome:?}");
    };
    assert!(
        cur.is_streaming(),
        "structural scan must compile to a streaming plan"
    );
    assert_eq!(cur.next_item().unwrap().as_deref(), Some("0"));
    let after_first = cur.stats().nodes_scanned;
    assert!(after_first > 0);
    assert!(
        (after_first as usize) < N,
        "first item must not force the full scan ({after_first} of {N} nodes scanned)"
    );

    let mut items = vec!["0".to_string()];
    for item in &mut cur {
        items.push(item.unwrap());
    }
    assert_eq!(items.len(), N);
    for (i, item) in items.iter().enumerate() {
        assert_eq!(item, &i.to_string());
    }
    assert!(cur.is_done());
    assert_eq!(cur.items_pulled(), N as u64);

    // The cursor folded its counters into the database-wide metrics and
    // recorded one time-to-first-item sample.
    let snap = db.metrics_snapshot();
    assert!(snap.counter("sedna_exec_nodes_scanned_total") >= N as u64);
    assert_eq!(snap.counter("sedna_exec_items_pulled_total"), N as u64);
    let ttfi = snap.histogram("sedna_exec_time_to_first_item_ns").unwrap();
    assert_eq!(ttfi.count, 1);
    assert!(snap.gauge("sedna_exec_cursor_depth") >= 1);

    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn streamed_scan_pins_bounded_by_pipeline_depth() {
    let (db, dir) = setup("pins");
    let mut s = db.session();
    db.reset_pinned_peak();
    let StreamOutcome::Cursor(mut cur) = s.execute_stream("doc('big')//v/text()").unwrap() else {
        panic!("expected a cursor");
    };
    let depth = cur.depth() as i64;
    let mut n = 0usize;
    while cur.next_item().unwrap().is_some() {
        n += 1;
        // No page guard survives between pulls.
        assert_eq!(db.pinned_pages(), 0, "pins leaked between pulls");
    }
    assert_eq!(n, N);
    let peak = db.pinned_pages_peak();
    assert!(
        peak <= depth + 4,
        "peak pinned pages ({peak}) must be bounded by pipeline depth ({depth}) + constant, \
         not result size ({N})"
    );

    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dropping_a_cursor_mid_stream_releases_pins_and_its_transaction() {
    let (db, dir) = setup("drop");
    let mut s = db.session();
    let StreamOutcome::Cursor(mut cur) = s.execute_stream("doc('big')//v/text()").unwrap() else {
        panic!("expected a cursor");
    };
    assert_eq!(cur.next_item().unwrap().as_deref(), Some("0"));
    assert!(!cur.is_done());
    drop(cur);
    assert_eq!(db.pinned_pages(), 0, "dropped cursor must release pins");

    // The abandoned cursor's read-only transaction is committed, so an
    // update on the same document proceeds and the session is reusable.
    assert!(matches!(
        s.execute_stream("UPDATE insert <v>x</v> into doc('big')/r")
            .unwrap(),
        StreamOutcome::Updated(_)
    ));

    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn streamed_items_match_the_materialized_path() {
    let (db, dir) = setup("parity");
    let mut s = db.session();

    for query in [
        "doc('big')//v/text()",
        "doc('big')/r/v[2]",
        "for $v in doc('big')/r/v where $v/text() = '7' return $v",
        "1 to 5",
        "count(doc('big')//v)",
    ] {
        // Materialized reference: the same statement inside an explicit
        // read-only transaction.
        s.begin_read_only().unwrap();
        let reference = match s.execute_stream(query).unwrap() {
            StreamOutcome::Items(items) => items,
            other => panic!("explicit-txn query must materialize, got {other:?}"),
        };
        s.commit().unwrap();

        let StreamOutcome::Cursor(cur) = s.execute_stream(query).unwrap() else {
            panic!("auto-commit query must stream");
        };
        let streamed: Vec<String> = cur.map(|r| r.unwrap()).collect();
        assert_eq!(streamed, reference, "divergence on {query:?}");
    }

    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn blocking_plans_still_answer_through_the_cursor_interface() {
    let (db, dir) = setup("blocking");
    let mut s = db.session();
    // An order-by FLWOR has no streaming operator: the plan falls back
    // to materialization behind the same cursor surface.
    let query = "for $v in doc('big')/r/v order by $v/text() return $v/text()";
    let StreamOutcome::Cursor(cur) = s.execute_stream(query).unwrap() else {
        panic!("expected a cursor");
    };
    assert!(!cur.is_streaming(), "order-by must be a blocking plan");
    let streamed: Vec<String> = cur.map(|r| r.unwrap()).collect();
    assert_eq!(streamed.len(), N);
    let mut sorted: Vec<String> = (0..N).map(|i| i.to_string()).collect();
    sorted.sort();
    assert_eq!(streamed, sorted);

    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shared_plan_cache_serves_statements_across_sessions() {
    let (db, dir) = setup("shared");
    let query = "doc('big')/r/v[5]/text()";

    let mut s1 = db.session();
    s1.query(query).unwrap();
    assert!(
        s1.last_profile().unwrap().parse_ns > 0,
        "first compile parses"
    );
    assert!(db.shared_plan_count() >= 1);

    // A brand-new session hits the plan the first one compiled.
    let hits_before = db.metrics_snapshot().counter("sedna_plan_cache_hits_total");
    let mut s2 = db.session();
    let out = s2.query(query).unwrap();
    assert_eq!(out, "4");
    assert_eq!(
        s2.last_profile().unwrap().parse_ns,
        0,
        "second session must reuse the shared plan without parsing"
    );
    assert_eq!(
        db.metrics_snapshot().counter("sedna_plan_cache_hits_total"),
        hits_before + 1
    );

    // DDL bumps the generation: the plan goes stale for every session.
    s1.execute("CREATE DOCUMENT 'other'").unwrap();
    s2.query(query).unwrap();
    assert!(
        s2.last_profile().unwrap().parse_ns > 0,
        "stale shared plan must key-miss after DDL"
    );

    drop(s1);
    drop(s2);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The query corpus of the differential test: the statements of
/// `streamed_items_match_the_materialized_path`, one FLWOR with a
/// constructor and one `index-scan`, each with whether its items are
/// atoms (joined with a space) or nodes (concatenated).
const CORPUS: [(&str, bool); 7] = [
    ("doc('big')//v/text()", false),
    ("doc('big')/r/v[2]", false),
    (
        "for $v in doc('big')/r/v where $v/text() = '7' return $v",
        false,
    ),
    ("1 to 5", true),
    ("count(doc('big')//v)", true),
    (
        "for $i in doc('keyed')/r/item where $i/k = 'v7' return <hit n=\"{$i/n/text()}\">{$i/k/text()}</hit>",
        false,
    ),
    ("index-scan('byk', 'v7')/n/text()", false),
];

/// What one way of running a query returned.
#[derive(Debug, PartialEq)]
struct Answer {
    items: Vec<String>,
    nodes_scanned: u64,
}

/// `execute_stream`, drained if it hands back a cursor.
fn stream(s: &mut sedna::Session, query: &str) -> Answer {
    match s.execute_stream(query).unwrap() {
        StreamOutcome::Cursor(mut cur) => {
            let items = cur.by_ref().map(|r| r.unwrap()).collect();
            Answer {
                items,
                nodes_scanned: cur.stats().nodes_scanned,
            }
        }
        StreamOutcome::Items(items) => Answer {
            items,
            nodes_scanned: s.last_stats.nodes_scanned,
        },
        other => panic!("{query:?} is a query, got {other:?}"),
    }
}

/// `query`, which must agree with `expected` item for item under the
/// atom-spacing rule and scan the same nodes.
fn assert_query_agrees(s: &mut sedna::Session, query: &str, atoms: bool, expected: &Answer) {
    let joined = s.query(query).unwrap();
    let sep = if atoms { " " } else { "" };
    assert_eq!(joined, expected.items.join(sep), "joined form of {query:?}");
    assert_eq!(
        s.last_stats.nodes_scanned, expected.nodes_scanned,
        "nodes scanned by {query:?}"
    );
}

#[test]
fn every_way_of_running_a_query_returns_the_same_answer() {
    let (db, dir) = setup("differential");
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'keyed'").unwrap();
    let mut xml = String::from("<r>");
    for i in 0..50 {
        xml.push_str(&format!("<item><k>v{i}</k><n>{i}</n></item>"));
    }
    xml.push_str("</r>");
    s.load_xml("keyed", &xml).unwrap();
    s.execute("CREATE INDEX 'byk' ON doc('keyed')/r/item BY k AS xs:string")
        .unwrap();

    // Over the committed state: a drained auto-commit cursor, the same
    // statement inside a read-only transaction, and `query` both ways.
    for (query, atoms) in CORPUS {
        let cursor = stream(&mut s, query);
        assert!(!cursor.items.is_empty(), "{query:?} must return something");
        assert_query_agrees(&mut s, query, atoms, &cursor);
        s.begin_read_only().unwrap();
        assert_eq!(stream(&mut s, query), cursor, "read-only txn, {query:?}");
        assert_query_agrees(&mut s, query, atoms, &cursor);
        s.commit().unwrap();
    }

    // Inside an update transaction the query sees the transaction's own
    // uncommitted inserts — and returns exactly what every session sees
    // once they are committed.
    s.begin_update().unwrap();
    s.execute("UPDATE insert <v>7</v> into doc('big')/r")
        .unwrap();
    s.execute("UPDATE insert <item><k>v7</k><n>50</n></item> into doc('keyed')/r")
        .unwrap();
    let mut in_txn = Vec::new();
    for (query, atoms) in CORPUS {
        let answer = stream(&mut s, query);
        assert_query_agrees(&mut s, query, atoms, &answer);
        in_txn.push(answer);
    }
    assert_eq!(in_txn[4].items, [(N + 1).to_string()], "own insert visible");
    assert_eq!(in_txn[6].items, ["7", "50"], "own index entry visible");
    s.commit().unwrap();
    for ((query, atoms), expected) in CORPUS.into_iter().zip(&in_txn) {
        assert_eq!(&stream(&mut s, query), expected, "after commit, {query:?}");
        assert_query_agrees(&mut s, query, atoms, expected);
    }

    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failing_query_leaves_its_update_transaction_open() {
    let (db, dir) = setup("txn-open");
    let mut s = db.session();
    s.begin_update().unwrap();
    s.execute("UPDATE insert <v>extra</v> into doc('big')/r")
        .unwrap();

    // One query that fails when its cursor opens and one that fails on
    // a pull: neither may commit or roll back the session's transaction.
    assert!(s.query("doc('missing')//v").is_err());
    assert!(s.execute_stream("doc('big')/r/v/text() + 1").is_err());
    assert_eq!(
        s.query("count(doc('big')//v)").unwrap(),
        (N + 1).to_string(),
        "the transaction and its insert must survive a failed query"
    );

    s.rollback().unwrap();
    assert_eq!(s.query("count(doc('big')//v)").unwrap(), N.to_string());

    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
