//! Observability integration tests: per-database snapshots, governor
//! aggregation across databases, Prometheus rendering, and per-statement
//! profiles.

use sedna::{DbConfig, Governor};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sedna-obs-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const DOC: &str = "<inventory><item><sku>a1</sku></item><item><sku>b2</sku></item></inventory>";

#[test]
fn governor_snapshot_aggregates_two_databases() {
    let gov = Governor::new();
    let d1 = tmpdir("agg1");
    let d2 = tmpdir("agg2");
    gov.create_database("one", &d1, DbConfig::default())
        .unwrap();
    gov.create_database("two", &d2, DbConfig::default())
        .unwrap();

    let per_db = |gov: &Governor, name: &str| {
        let mut s = gov.connect(name).unwrap();
        s.execute("CREATE DOCUMENT 'inv'").unwrap();
        s.load_xml("inv", DOC).unwrap();
        s.query("doc('inv')//sku/text()").unwrap();
    };
    per_db(&gov, "one");
    per_db(&gov, "two");

    let one = gov.database("one").unwrap().metrics_snapshot();
    let two = gov.database("two").unwrap().metrics_snapshot();
    let merged = gov.metrics_snapshot();

    // Counters sum exactly across databases.
    for key in [
        "sedna_query_statements_total",
        "sedna_txn_commits_total",
        "sedna_wal_appends_total",
        "sedna_buffer_misses_total",
        "sedna_exec_nodes_scanned_total",
    ] {
        assert_eq!(
            merged.counter(key),
            one.counter(key) + two.counter(key),
            "{key} must aggregate"
        );
        assert!(one.counter(key) > 0, "{key} must be live in db one");
    }
    // Each database ran two statements (the load goes through load_xml,
    // not execute).
    assert_eq!(merged.counter("sedna_query_statements_total"), 4);

    // Histograms merge bucket-by-bucket.
    let h1 = one.histogram("sedna_wal_fsync_ns").unwrap();
    let h2 = two.histogram("sedna_wal_fsync_ns").unwrap();
    let hm = merged.histogram("sedna_wal_fsync_ns").unwrap();
    assert_eq!(hm.count, h1.count + h2.count);
    assert_eq!(hm.sum, h1.sum + h2.sum);
    assert!(hm.count > 0, "commits must have fsynced");
    assert!(hm.p99() >= hm.p50());

    std::fs::remove_dir_all(&d1).unwrap();
    std::fs::remove_dir_all(&d2).unwrap();
}

#[test]
fn prometheus_rendering_is_well_formed() {
    let gov = Governor::new();
    let dir = tmpdir("prom");
    gov.create_database("db", &dir, DbConfig::default())
        .unwrap();
    let mut s = gov.connect("db").unwrap();
    s.execute("CREATE DOCUMENT 'inv'").unwrap();
    s.load_xml("inv", DOC).unwrap();
    s.query("doc('inv')//sku").unwrap();

    let text = gov.render_prometheus();
    for needle in [
        "# HELP sedna_buffer_hits_total",
        "# TYPE sedna_buffer_hits_total counter",
        "# TYPE sedna_wal_fsync_ns histogram",
        "sedna_wal_fsync_ns_bucket{le=\"+Inf\"}",
        "sedna_wal_fsync_ns_sum",
        "sedna_wal_fsync_ns_count",
        "sedna_query_statements_total 2",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn plan_cache_skips_parse_and_invalidates_on_ddl() {
    let gov = Governor::new();
    let dir = tmpdir("plancache");
    let db = gov
        .create_database("db", &dir, DbConfig::default())
        .unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'inv'").unwrap();
    s.load_xml("inv", DOC).unwrap();

    // First run: miss (parse + rewrite recorded).
    s.query("doc('inv')//sku/text()").unwrap();
    let first = s.last_profile().unwrap();
    assert!(first.parse_ns > 0);

    // Second run of the same text: hit, both phases skipped, identical
    // results.
    let out1 = s.query("doc('inv')//sku/text()").unwrap();
    let hit = s.last_profile().unwrap();
    assert_eq!(hit.parse_ns, 0, "cached plan skips the parse phase");
    assert_eq!(hit.rewrite_ns, 0, "cached plan skips the rewrite phase");
    assert_eq!(out1, s.query("doc('inv')//sku/text()").unwrap());

    let snap = db.metrics_snapshot();
    assert!(snap.counter("sedna_plan_cache_hits_total") >= 2);
    assert!(snap.counter("sedna_plan_cache_misses_total") >= 2);
    assert!(db.shared_plan_count() > 0);

    // DDL bumps the catalog generation: entries stay resident but are
    // stale, so the next run of the same text is a miss (full re-parse)
    // and no hit is counted.
    let hits_before = db.metrics_snapshot().counter("sedna_plan_cache_hits_total");
    let generation_before = db.catalog_generation();
    s.execute("CREATE DOCUMENT 'other'").unwrap();
    assert!(
        db.catalog_generation() > generation_before,
        "DDL must advance the catalog generation"
    );
    assert!(
        db.shared_plan_count() > 0,
        "stale entries stay resident until looked up"
    );
    s.query("doc('inv')//sku/text()").unwrap();
    assert!(
        s.last_profile().unwrap().parse_ns > 0,
        "re-parsed after DDL"
    );
    assert_eq!(
        db.metrics_snapshot().counter("sedna_plan_cache_hits_total"),
        hits_before,
        "no hit immediately after invalidation"
    );

    // The generation is shared database state, so DDL in one session
    // invalidates plans cached by *another* session — and unrelated
    // statements cached after the bump keep hitting.
    let mut other = db.session();
    other.execute("CREATE DOCUMENT 'extra'").unwrap();
    s.query("doc('inv')//sku/text()").unwrap();
    assert!(
        s.last_profile().unwrap().parse_ns > 0,
        "cross-session DDL must invalidate this session's plan"
    );
    s.query("doc('inv')//sku/text()").unwrap();
    assert_eq!(
        s.last_profile().unwrap().parse_ns,
        0,
        "re-cached at the new generation, hits again"
    );
    drop(other);

    // A database with caching disabled never hits.
    let cfg = DbConfig {
        plan_cache_capacity: 0,
        ..DbConfig::small()
    };
    let dir2 = tmpdir("plancache-off");
    let db2 = gov.create_database("db2", &dir2, cfg).unwrap();
    let mut s2 = db2.session();
    s2.execute("CREATE DOCUMENT 'd'").unwrap();
    s2.load_xml("d", DOC).unwrap();
    s2.query("doc('d')//sku").unwrap();
    s2.query("doc('d')//sku").unwrap();
    let snap2 = db2.metrics_snapshot();
    assert_eq!(snap2.counter("sedna_plan_cache_hits_total"), 0);
    assert_eq!(db2.shared_plan_count(), 0);

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir2).unwrap();
}

#[test]
fn last_profile_reports_phases_and_counters() {
    let gov = Governor::new();
    let dir = tmpdir("profile");
    let db = gov
        .create_database("db", &dir, DbConfig::default())
        .unwrap();
    let mut s = db.session();
    assert!(
        s.last_profile().is_none(),
        "no profile before any statement"
    );
    s.execute("CREATE DOCUMENT 'inv'").unwrap();
    s.load_xml("inv", DOC).unwrap();
    s.query("doc('inv')//sku/text()").unwrap();

    let p = s.last_profile().expect("profile after a query");
    assert!(p.parse_ns > 0 && p.execute_ns > 0);
    assert!(p.total_ns() >= p.parse_ns + p.execute_ns);
    assert!(p.stats.nodes_scanned > 0, "the query scanned nodes");
    assert_eq!(p.stats, s.last_stats);
    let rendered = p.render();
    assert!(rendered.contains("parse") && rendered.contains("nodes_scanned"));

    // Counters accumulate across statements; last_stats resets.
    let before = s.session_stats();
    s.query("doc('inv')//item").unwrap();
    let after = s.session_stats();
    assert!(after.nodes_scanned > before.nodes_scanned);
    // A failing statement leaves the last successful profile in place.
    assert!(s.execute("doc('missing')//x").is_err());
    assert!(s.last_profile().is_some());

    // An update's profile reports the planning executor's counters.
    s.execute("UPDATE delete doc('inv')//item[sku='b2']")
        .unwrap();
    let p = s.last_profile().unwrap();
    assert!(p.stats.nodes_scanned > 0, "update planning scans nodes");

    std::fs::remove_dir_all(&dir).unwrap();
}
