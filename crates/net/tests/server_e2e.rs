//! End-to-end tests: a real listener on loopback TCP serving
//! [`sedna_net::SednaClient`] sessions against a live database.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sedna::{DbConfig, Governor};
use sedna_net::{
    ClientError, Credentials, ExecReply, NetConfig, Request, Response, SednaClient, Server,
    ServerHandle, PROTOCOL_VERSION,
};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sedna-net-e2e-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One governor, one database `"db"`, one listener on a free loopback
/// port with a fast poll tick.
fn start_server(name: &str, max_sessions: usize) -> (ServerHandle, PathBuf, Arc<Governor>) {
    let dir = tmpdir(name);
    let governor = Governor::new();
    let cfg = DbConfig {
        max_sessions,
        ..DbConfig::small()
    };
    governor.create_database("db", &dir, cfg).unwrap();
    let handle = Server::start(
        Arc::clone(&governor),
        NetConfig {
            poll_interval: Duration::from_millis(5),
            ..NetConfig::default()
        },
    )
    .unwrap();
    (handle, dir, governor)
}

#[test]
fn query_streaming_end_to_end() {
    let (handle, dir, _governor) = start_server("stream", 0);
    let mut c = SednaClient::connect(handle.addr(), "db").unwrap();
    c.ping().unwrap();
    assert_eq!(c.execute("CREATE DOCUMENT 'lib'").unwrap(), ExecReply::Done);
    let nodes = c
        .load_xml(
            "lib",
            "<library><book><title>A</title></book><book><title>B</title></book></library>",
        )
        .unwrap();
    assert!(nodes > 0);

    // Item-at-a-time streaming: an auto-commit query answers with the
    // live-cursor sentinel (cardinality unknown until drained) and the
    // items are pulled one FetchNext at a time.
    assert_eq!(
        c.execute("doc('lib')//title/text()").unwrap(),
        ExecReply::Query(u64::MAX)
    );
    assert_eq!(c.fetch_next().unwrap().as_deref(), Some("A"));
    assert_eq!(c.fetch_next().unwrap().as_deref(), Some("B"));
    assert_eq!(c.fetch_next().unwrap(), None);
    // Fetching past the end stays at ResultEnd.
    assert_eq!(c.fetch_next().unwrap(), None);

    // The convenience wrapper drains the stream.
    assert_eq!(
        c.query("count(doc('lib')//book)").unwrap(),
        vec!["2".to_string()]
    );

    // Batched fetch: both items in one round trip, exhaustion flagged.
    assert_eq!(
        c.execute("doc('lib')//title/text()").unwrap(),
        ExecReply::Query(u64::MAX)
    );
    let (batch, done) = c.fetch_batch(10).unwrap();
    assert_eq!(batch, vec!["A".to_string(), "B".to_string()]);
    assert!(done);

    // Inside an explicit read-only transaction the result is buffered on
    // the session (the cursor cannot carry the session's transaction),
    // so the exact cardinality comes back.
    c.begin_read_only().unwrap();
    assert_eq!(
        c.execute("doc('lib')//title/text()").unwrap(),
        ExecReply::Query(2)
    );
    assert_eq!(c.fetch_next().unwrap().as_deref(), Some("A"));
    let (batch, done) = c.fetch_batch(10).unwrap();
    assert_eq!(batch, vec!["B".to_string()]);
    assert!(done);
    c.commit().unwrap();

    // A new Execute discards the previous result (dropping a live
    // cursor mid-stream releases its transaction).
    assert_eq!(
        c.execute("doc('lib')//title/text()").unwrap(),
        ExecReply::Query(u64::MAX)
    );
    assert_eq!(
        c.query("count(doc('lib')//title)").unwrap(),
        vec!["2".to_string()]
    );

    c.close().unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn large_result_streams_lazily_with_bounded_pins() {
    let (handle, dir, governor) = start_server("large", 0);
    let mut c = SednaClient::connect(handle.addr(), "db").unwrap();
    c.execute("CREATE DOCUMENT 'big'").unwrap();
    let mut xml = String::from("<r>");
    for i in 0..500 {
        xml.push_str(&format!("<v>{i}</v>"));
    }
    xml.push_str("</r>");
    c.load_xml("big", &xml).unwrap();

    let db = governor.database("db").unwrap();
    db.reset_pinned_peak();

    assert_eq!(
        c.execute("doc('big')//v/text()").unwrap(),
        ExecReply::Query(u64::MAX)
    );
    assert_eq!(c.fetch_next().unwrap().as_deref(), Some("0"));
    let mut count = 1usize;
    loop {
        let (batch, done) = c.fetch_batch(100).unwrap();
        count += batch.len();
        if done {
            break;
        }
    }
    assert_eq!(count, 500);
    assert_eq!(db.pinned_pages(), 0, "pins must not leak after a drain");
    let peak = db.pinned_pages_peak();
    assert!(
        peak <= 8,
        "a streamed scan must pin O(pipeline depth) pages, peak was {peak}"
    );

    // Mid-stream abandon: a new Execute drops the live cursor, which
    // releases its pins and read-only transaction immediately.
    assert_eq!(
        c.execute("doc('big')//v/text()").unwrap(),
        ExecReply::Query(u64::MAX)
    );
    assert_eq!(c.fetch_next().unwrap().as_deref(), Some("0"));
    assert_eq!(
        c.query("count(doc('big')//v)").unwrap(),
        vec!["500".to_string()]
    );
    assert_eq!(db.pinned_pages(), 0, "abandoned cursor must release pins");

    c.close().unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transactions_and_error_envelope() {
    let (handle, dir, _governor) = start_server("txn", 0);
    let mut c = SednaClient::connect(handle.addr(), "db").unwrap();
    c.execute("CREATE DOCUMENT 'd'").unwrap();
    c.load_xml("d", "<r/>").unwrap();

    c.begin().unwrap();
    match c.execute("UPDATE insert <x>1</x> into doc('d')/r").unwrap() {
        ExecReply::Updated(n) => assert!(n >= 1),
        other => panic!("expected an update reply, got {other:?}"),
    }
    c.commit().unwrap();
    assert_eq!(
        c.query("count(doc('d')/r/x)").unwrap(),
        vec!["1".to_string()]
    );

    // Rollback undoes the insert.
    c.begin().unwrap();
    c.execute("UPDATE insert <x>2</x> into doc('d')/r").unwrap();
    c.rollback().unwrap();
    assert_eq!(
        c.query("count(doc('d')/r/x)").unwrap(),
        vec!["1".to_string()]
    );

    // Errors arrive as structured envelopes and do not poison the
    // connection.
    let err = c.execute("doc('no-such-doc')//x").unwrap_err();
    match err {
        ClientError::Server { kind, message } => {
            assert!(!kind.is_empty(), "kind must be machine-readable");
            assert!(!message.is_empty());
        }
        other => panic!("expected a server error envelope, got {other}"),
    }
    c.ping().unwrap();
    assert_eq!(
        c.query("count(doc('d')/r/x)").unwrap(),
        vec!["1".to_string()]
    );

    c.close().unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn session_limit_rejects_then_admits_after_close() {
    let (handle, dir, _governor) = start_server("limit", 1);
    let c1 = SednaClient::connect(handle.addr(), "db").unwrap();
    match SednaClient::connect(handle.addr(), "db").unwrap_err() {
        ClientError::Server { kind, message } => {
            assert_eq!(kind, "conflict");
            assert!(message.contains("session limit"), "message: {message}");
        }
        other => panic!("expected a conflict envelope, got {other}"),
    }
    assert_eq!(handle.metrics().connections_rejected.get(), 1);

    // Closing the first session frees the slot (the server drops the
    // database session before acknowledging CloseSession).
    c1.close().unwrap();
    let c2 = SednaClient::connect(handle.addr(), "db").unwrap();
    c2.close().unwrap();

    // Unknown databases are a not_found envelope.
    match SednaClient::connect(handle.addr(), "no-such-db").unwrap_err() {
        ClientError::Server { kind, .. } => assert_eq!(kind, "not_found"),
        other => panic!("expected a not_found envelope, got {other}"),
    }

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_connection_aborts_transaction_and_accounting_balances() {
    let (handle, dir, governor) = start_server("abort", 0);
    let mut c = SednaClient::connect(handle.addr(), "db").unwrap();
    c.execute("CREATE DOCUMENT 'd'").unwrap();
    c.load_xml("d", "<r/>").unwrap();

    let mut rogue = SednaClient::connect(handle.addr(), "db").unwrap();
    rogue.begin().unwrap();
    rogue
        .execute("UPDATE insert <x>1</x> into doc('d')/r")
        .unwrap();
    drop(rogue); // vanish mid-transaction: the server must roll back

    let m = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(5);
    while m.sessions_active.get() > 1 {
        assert!(
            Instant::now() < deadline,
            "server did not reap the dropped session"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        c.query("count(doc('d')/r/x)").unwrap(),
        vec!["0".to_string()]
    );
    assert_eq!(
        m.sessions_opened.get(),
        m.sessions_closed.get() + m.sessions_active.get() as u64
    );
    assert_eq!(governor.database("db").unwrap().active_sessions(), 1);

    c.close().unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_are_exported_through_the_governor() {
    let (handle, dir, governor) = start_server("metrics", 0);
    let mut c = SednaClient::connect(handle.addr(), "db").unwrap();
    c.ping().unwrap();
    c.execute("CREATE DOCUMENT 'm'").unwrap();
    c.load_xml("m", "<r><v>1</v></r>").unwrap();
    c.query("doc('m')//v/text()").unwrap();

    // Over the wire ...
    let text = c.metrics().unwrap();
    for name in [
        "sedna_net_connections_opened_total",
        "sedna_net_connections_active",
        "sedna_net_connections_rejected_total",
        "sedna_net_sessions_opened_total",
        "sedna_net_msg_ping_total",
        "sedna_net_msg_execute_total",
        "sedna_net_request_ns",
        "sedna_net_bytes_in_total",
        "sedna_net_bytes_out_total",
        "sedna_net_items_streamed_total",
    ] {
        assert!(text.contains(name), "metrics text is missing {name}");
    }
    // ... and the same names next to the database's own metrics in the
    // governor-level rendering.
    let direct = governor.render_prometheus();
    assert!(direct.contains("sedna_net_connections_opened_total"));
    assert!(direct.contains("sedna_db_sessions_active"));

    let m = handle.metrics();
    assert!(m.msg_ping.get() >= 1);
    assert!(m.msg_execute.get() >= 2);
    assert!(m.items_streamed.get() >= 1);
    assert!(m.bytes_in.get() > 0);
    assert!(m.bytes_out.get() > 0);
    // Every served frame took one latency sample.
    assert!(m.request_ns.snapshot().count >= m.msg_execute.get());

    c.close().unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_checkpoints_and_data_survives_reopen() {
    let (handle, dir, _governor) = start_server("persist", 0);
    let mut c = SednaClient::connect(handle.addr(), "db").unwrap();
    c.execute("CREATE DOCUMENT 'lib'").unwrap();
    c.load_xml("lib", "<library><book/><book/></library>")
        .unwrap();
    c.close().unwrap();

    // Drain + Governor::shutdown: WAL flushed, final checkpoint taken.
    let addr = handle.addr();
    handle.shutdown().unwrap();
    assert!(
        SednaClient::connect(addr, "db").is_err(),
        "listener must be closed after shutdown"
    );

    let db = sedna::Database::open(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    assert_eq!(s.query("count(doc('lib')//book)").unwrap(), "2");
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn introspection_over_the_wire() {
    // Own setup: this server's database has a 1 ms slow-query threshold
    // (sampling stays off — traces are forced per-request instead).
    let dir = tmpdir("introspect");
    let governor = Governor::new();
    let cfg = DbConfig {
        slow_query_ms: 1,
        ..DbConfig::small()
    };
    governor.create_database("db", &dir, cfg).unwrap();
    let handle = Server::start(
        Arc::clone(&governor),
        NetConfig {
            poll_interval: Duration::from_millis(5),
            ..NetConfig::default()
        },
    )
    .unwrap();

    let mut c = SednaClient::connect(handle.addr(), "db").unwrap();
    c.execute("CREATE DOCUMENT 'big'").unwrap();
    let mut xml = String::from("<r>");
    for i in 0..200 {
        xml.push_str(&format!("<v>{i}</v>"));
    }
    xml.push_str("</r>");
    c.load_xml("big", &xml).unwrap();

    // Live activity: this session is visible, idle, outside a txn.
    let (sessions, pinned) = c.activity().unwrap();
    assert_eq!(sessions.len(), 1);
    assert_eq!(sessions[0].txn, "none");
    assert!(sessions[0].statement.is_none());
    assert!(pinned >= 0);
    // Inside an explicit transaction the mode shows up in the view.
    c.begin_read_only().unwrap();
    let (sessions, _) = c.activity().unwrap();
    assert_eq!(sessions[0].txn, "read-only");
    c.commit().unwrap();

    // Per-request forced trace on a streamed query: published when the
    // cursor finishes, retrievable as Chrome trace-event JSON via
    // GetTrace(0) = "my most recent trace".
    assert_eq!(
        c.execute_traced("doc('big')//v/text()").unwrap(),
        ExecReply::Query(u64::MAX)
    );
    let items = c.fetch_all().unwrap();
    assert_eq!(items.len(), 200);
    let (trace_id, json) = c.get_trace(0).unwrap();
    assert!(trace_id > 0);
    assert!(json.contains("traceEvents"), "json: {json}");
    for event in ["query.statement", "cursor.open", "cursor.finish"] {
        assert!(json.contains(event), "trace is missing {event}: {json}");
    }
    // The same trace is addressable by its id.
    let (again, json2) = c.get_trace(trace_id).unwrap();
    assert_eq!(again, trace_id);
    assert_eq!(json, json2);

    // Streaming bumped the session's items_streamed tally.
    let (sessions, _) = c.activity().unwrap();
    assert!(sessions[0].items_streamed >= 200);

    // EXPLAIN ANALYZE returns the per-operator tree of the streamed
    // pipeline with real pull counts.
    let report = c.explain_analyze("doc('big')//v/text()").unwrap();
    assert!(report.contains("plan"), "report: {report}");
    assert!(report.contains("pulls="), "report: {report}");
    assert!(
        report.contains("Ddo") || report.contains("StructuralScan") || report.contains("Step"),
        "report has no operator lines: {report}"
    );

    // A deliberately heavy query crosses the 1 ms threshold and lands in
    // the slow-query log. Sampling is off, so the trace that the log
    // entry points at is forced per-request here too.
    let heavy = "count(for $a in doc('big')//v return count(doc('big')//v))";
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        c.execute_traced(heavy).unwrap();
        let _ = c.fetch_all();
        let log = c.slow_log().unwrap();
        if let Some(entry) = log.first() {
            assert_eq!(entry.statement, heavy);
            assert!(entry.total_ns >= 1_000_000);
            assert!(entry.trace_id > 0, "slow entry must carry its trace id");
            let (id, trace) = c.get_trace(entry.trace_id).unwrap();
            assert_eq!(id, entry.trace_id);
            assert!(trace.contains("query.statement"));
            break;
        }
        assert!(
            Instant::now() < deadline,
            "heavy query never crossed the slow threshold"
        );
    }

    // The new request types are metered.
    let m = handle.metrics();
    assert!(m.msg_activity.get() >= 3);
    assert!(m.msg_get_trace.get() >= 3);
    assert!(m.msg_slow_log.get() >= 1);
    assert!(m.msg_explain_analyze.get() >= 1);

    c.close().unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forking_and_time_travel_over_the_wire() {
    // Own setup: the database retains snapshots so AS OF sessions have
    // history to pin.
    let dir = tmpdir("fork");
    let governor = Governor::new();
    let cfg = DbConfig {
        retain_snapshots: 16,
        ..DbConfig::small()
    };
    governor.create_database("db", &dir, cfg).unwrap();
    let handle = Server::start(
        Arc::clone(&governor),
        NetConfig {
            poll_interval: Duration::from_millis(5),
            ..NetConfig::default()
        },
    )
    .unwrap();

    let mut c = SednaClient::connect(handle.addr(), "db").unwrap();
    c.execute("CREATE DOCUMENT 'd'").unwrap();
    c.load_xml("d", "<r><v>1</v></r>").unwrap();

    // Fork through a sessionless admin connection.
    let mut admin = SednaClient::connect_admin(handle.addr()).unwrap();
    admin.ping().unwrap();
    let fork_ts = admin.fork("db", "db-staging").unwrap();
    assert!(fork_ts > 0);
    // Duplicate fork names are refused with a structured conflict.
    match admin.fork("db", "db-staging").unwrap_err() {
        ClientError::Server { kind, .. } => assert_eq!(kind, "conflict"),
        other => panic!("expected a conflict envelope, got {other}"),
    }

    // The fork serves wire sessions under its own name and sees the
    // parent's data.
    let mut f = SednaClient::connect(handle.addr(), "db-staging").unwrap();
    assert_eq!(
        f.query("count(doc('d')//v)").unwrap(),
        vec!["1".to_string()]
    );

    // Divergence is isolated both ways.
    f.execute("UPDATE insert <v>2</v> into doc('d')/r").unwrap();
    c.execute("UPDATE insert <v>3</v> into doc('d')/r").unwrap();
    c.execute("UPDATE insert <v>4</v> into doc('d')/r").unwrap();
    assert_eq!(
        f.query("count(doc('d')//v)").unwrap(),
        vec!["2".to_string()]
    );
    assert_eq!(
        c.query("count(doc('d')//v)").unwrap(),
        vec!["3".to_string()]
    );

    // AS OF: a session pinned to the branch-point snapshot sees the
    // historical state while a concurrent writer keeps committing.
    let mut t = SednaClient::connect_as_of(handle.addr(), "db", fork_ts).unwrap();
    assert_eq!(
        t.query("count(doc('d')//v)").unwrap(),
        vec!["1".to_string()]
    );
    c.execute("UPDATE insert <v>5</v> into doc('d')/r").unwrap();
    assert_eq!(
        t.query("count(doc('d')//v)").unwrap(),
        vec!["1".to_string()]
    );
    // Transaction control and updates are refused on an AS OF session.
    match t.begin().unwrap_err() {
        ClientError::Server { kind, .. } => assert_eq!(kind, "conflict"),
        other => panic!("expected a conflict envelope, got {other}"),
    }
    match t
        .execute("UPDATE insert <v>9</v> into doc('d')/r")
        .unwrap_err()
    {
        ClientError::Server { kind, .. } => assert_eq!(kind, "conflict"),
        other => panic!("expected a conflict envelope, got {other}"),
    }
    t.close().unwrap();

    // Dropping a fork with an active wire session is refused; after the
    // session closes it succeeds.
    match admin.drop_fork("db-staging").unwrap_err() {
        ClientError::Server { kind, .. } => assert_eq!(kind, "conflict"),
        other => panic!("expected a conflict envelope, got {other}"),
    }
    f.close().unwrap();
    admin.drop_fork("db-staging").unwrap();
    // DropFork refuses root databases.
    match admin.drop_fork("db").unwrap_err() {
        ClientError::Server { kind, message } => {
            assert_eq!(kind, "conflict");
            assert!(message.contains("not a fork"), "message: {message}");
        }
        other => panic!("expected a conflict envelope, got {other}"),
    }
    // The dropped fork's name no longer resolves.
    match SednaClient::connect(handle.addr(), "db-staging").unwrap_err() {
        ClientError::Server { kind, .. } => assert_eq!(kind, "not_found"),
        other => panic!("expected a not_found envelope, got {other}"),
    }

    // DropDatabase closes the root and unregisters it (it was refused
    // while the fork was alive — the governor enforces drop order).
    c.close().unwrap();
    admin.drop_database("db").unwrap();
    match SednaClient::connect(handle.addr(), "db").unwrap_err() {
        ClientError::Server { kind, .. } => assert_eq!(kind, "not_found"),
        other => panic!("expected a not_found envelope, got {other}"),
    }

    // Every new message type is metered.
    let m = handle.metrics();
    assert!(m.msg_fork.get() >= 2);
    assert!(m.msg_drop_fork.get() >= 3);
    assert!(m.msg_drop_database.get() >= 1);
    assert!(m.msg_as_of.get() >= 1);

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_shutdown_request_drains_the_server() {
    let (handle, dir, _governor) = start_server("wire-shutdown", 0);
    let c = SednaClient::connect(handle.addr(), "db").unwrap();
    c.shutdown_server().unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    while !handle.shutdown_requested() {
        assert!(Instant::now() < deadline, "drain flag never flipped");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Like [`start_server`] but with full control over the listener's
/// [`NetConfig`] (the address is always rewritten to a free loopback
/// port and the poll tick kept fast).
fn start_server_cfg(name: &str, cfg: NetConfig) -> (ServerHandle, PathBuf, Arc<Governor>) {
    let dir = tmpdir(name);
    let governor = Governor::new();
    governor
        .create_database("db", &dir, DbConfig::small())
        .unwrap();
    let handle = Server::start(
        Arc::clone(&governor),
        NetConfig {
            addr: "127.0.0.1:0".into(),
            poll_interval: Duration::from_millis(5),
            ..cfg
        },
    )
    .unwrap();
    (handle, dir, governor)
}

#[test]
fn pipelined_requests_are_answered_in_order_with_interleaved_errors() {
    let (handle, dir, _governor) = start_server("pipeline", 0);
    let mut c = SednaClient::connect(handle.addr(), "db").unwrap();
    c.execute("CREATE DOCUMENT 'lib'").unwrap();
    c.load_xml(
        "lib",
        "<library><book><title>A</title></book><book><title>B</title></book></library>",
    )
    .unwrap();

    // Five requests on the wire before reading a single response. The
    // server may pipeline up to `pipeline_depth` of them, but responses
    // must come back strictly in request order — errors included, and
    // an error must not disturb the requests queued behind it.
    c.send_request(&Request::Ping).unwrap();
    c.send_request(&Request::Execute {
        stmt: "doc('no-such-doc')//x".into(),
        trace: false,
    })
    .unwrap();
    c.send_request(&Request::Ping).unwrap();
    c.send_request(&Request::Execute {
        stmt: "doc('lib')//title/text()".into(),
        trace: false,
    })
    .unwrap();
    c.send_request(&Request::FetchBatch { max: 10 }).unwrap();

    assert!(matches!(c.recv_response().unwrap(), Response::Pong));
    match c.recv_response().unwrap() {
        Response::Error { kind, message } => {
            assert!(!kind.is_empty());
            assert!(!message.is_empty());
        }
        other => panic!("expected the bad statement's error envelope, got {other:?}"),
    }
    assert!(matches!(c.recv_response().unwrap(), Response::Pong));
    assert!(matches!(c.recv_response().unwrap(), Response::QueryOk(_)));
    match c.recv_response().unwrap() {
        Response::ItemBatch { items, done } => {
            assert_eq!(items, vec!["A".to_string(), "B".to_string()]);
            assert!(done);
        }
        other => panic!("expected the pipelined batch, got {other:?}"),
    }

    // The connection stays healthy for plain request/response use.
    assert_eq!(
        c.query("count(doc('lib')//book)").unwrap(),
        vec!["2".to_string()]
    );
    c.close().unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_aborts_a_streamed_statement_and_releases_its_resources() {
    let (handle, dir, governor) = start_server("cancel", 0);
    let mut c = SednaClient::connect(handle.addr(), "db").unwrap();
    c.execute("CREATE DOCUMENT 'big'").unwrap();
    let mut xml = String::from("<r>");
    for i in 0..500 {
        xml.push_str(&format!("<v>{i}</v>"));
    }
    xml.push_str("</r>");
    c.load_xml("big", &xml).unwrap();
    let db = governor.database("db").unwrap();

    // Open a live streaming cursor and pull one item, so the statement
    // is genuinely mid-stream: cursor open, read-only transaction held.
    assert_eq!(
        c.execute("doc('big')//v/text()").unwrap(),
        ExecReply::Query(u64::MAX)
    );
    assert_eq!(c.fetch_next().unwrap().as_deref(), Some("0"));

    // Cancel. The ack arrives in request order, and by the time it does
    // the cursor is dropped: pins released, transaction finished.
    c.cancel().unwrap();
    match c.recv_response().unwrap() {
        Response::Cancelled => {}
        other => panic!("expected the Cancelled ack, got {other:?}"),
    }
    assert_eq!(
        db.pinned_pages(),
        0,
        "cancel must release the cursor's pins"
    );

    // The connection is reusable: the abandoned result is simply empty
    // and a fresh statement runs to completion.
    assert!(c.fetch_next().unwrap().is_none());
    assert_eq!(
        c.query("count(doc('big')//v)").unwrap(),
        vec!["500".to_string()]
    );

    // A cancel with nothing running is a no-op that still acks in order.
    c.cancel().unwrap();
    assert!(matches!(c.recv_response().unwrap(), Response::Cancelled));
    c.ping().unwrap();
    c.close().unwrap();

    // Session accounting balances: nothing leaked by the abort path.
    let m = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(5);
    while m.sessions_active.get() != 0 {
        assert!(Instant::now() < deadline, "cancelled session leaked");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(m.sessions_opened.get(), m.sessions_closed.get());
    assert!(m.msg_cancel.get() >= 2);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_races_a_pipelined_fetch_without_corrupting_the_stream() {
    let (handle, dir, governor) = start_server("cancel-race", 0);
    let mut c = SednaClient::connect(handle.addr(), "db").unwrap();
    c.execute("CREATE DOCUMENT 'big'").unwrap();
    let mut xml = String::from("<r>");
    for i in 0..300 {
        xml.push_str(&format!("<v>{i}</v>"));
    }
    xml.push_str("</r>");
    c.load_xml("big", &xml).unwrap();
    let db = governor.database("db").unwrap();

    // Execute, FetchBatch, and Cancel pipelined in one burst. The
    // cancel flag is raised the moment the server *parses* the Cancel
    // frame, so the Execute/FetchBatch may be aborted mid-statement
    // (`cancelled` envelopes) or may have already produced results —
    // both are legal; what is fixed is the response order, the ordered
    // Cancelled ack, and that nothing leaks.
    c.send_request(&Request::Execute {
        stmt: "doc('big')//v/text()".into(),
        trace: false,
    })
    .unwrap();
    c.send_request(&Request::FetchBatch { max: 50 }).unwrap();
    c.send_request(&Request::Cancel).unwrap();

    match c.recv_response().unwrap() {
        Response::QueryOk(_) => {}
        Response::Error { kind, .. } => assert_eq!(kind, "cancelled"),
        other => panic!("expected QueryOk or a cancelled envelope, got {other:?}"),
    }
    match c.recv_response().unwrap() {
        Response::ItemBatch { .. } => {}
        Response::Error { kind, .. } => assert_eq!(kind, "cancelled"),
        other => panic!("expected ItemBatch or a cancelled envelope, got {other:?}"),
    }
    assert!(matches!(c.recv_response().unwrap(), Response::Cancelled));

    // Whatever the race decided, the aftermath is clean: no pins, a
    // cleared cancel flag, and a connection that serves new statements.
    assert_eq!(db.pinned_pages(), 0);
    assert_eq!(
        c.query("count(doc('big')//v)").unwrap(),
        vec!["300".to_string()]
    );
    c.close().unwrap();
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auth_rejects_bad_credentials() {
    let (handle, dir, _governor) = start_server_cfg(
        "auth",
        NetConfig {
            auth: Some(Credentials {
                user: "admin".into(),
                password: "s3cret".into(),
            }),
            ..NetConfig::default()
        },
    );
    let addr = handle.addr();

    // Empty and wrong credentials are refused with an `auth` envelope
    // and the connection is closed.
    match SednaClient::connect(addr, "db").unwrap_err() {
        ClientError::Server { kind, .. } => assert_eq!(kind, "auth"),
        other => panic!("expected an auth envelope, got {other}"),
    }
    match SednaClient::connect_with_auth(addr, "db", "admin", "wrong").unwrap_err() {
        ClientError::Server { kind, .. } => assert_eq!(kind, "auth"),
        other => panic!("expected an auth envelope, got {other}"),
    }

    // The right credentials work, and the session is fully functional.
    let mut ok = SednaClient::connect_with_auth(addr, "db", "admin", "s3cret").unwrap();
    ok.execute("CREATE DOCUMENT 'd'").unwrap();
    ok.load_xml("d", "<r><v>1</v></r>").unwrap();
    assert_eq!(
        ok.query("count(doc('d')//v)").unwrap(),
        vec!["1".to_string()]
    );
    ok.close().unwrap();

    let m = handle.metrics();
    assert!(
        m.auth_failures.get() >= 2,
        "both refusals must be counted, got {}",
        m.auth_failures.get()
    );
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_protocol_version_but_the_current_one_is_refused() {
    let (handle, dir, _governor) = start_server("v1", 0);
    let addr = handle.addr();

    // The server speaks exactly PROTOCOL_VERSION: version 1 (which no
    // client outside this repository ever spoke) and unknown versions
    // alike get a `protocol` envelope naming the accepted one, and the
    // connection is closed.
    for bad in [0u8, 1, 9] {
        let mut c = SednaClient::connect_admin(addr).unwrap();
        c.send_request(&Request::StartSession {
            version: bad,
            database: "db".into(),
            user: String::new(),
            password: String::new(),
        })
        .unwrap();
        match c.recv_response().unwrap() {
            Response::Error { kind, message } => {
                assert_eq!(kind, "protocol");
                assert!(
                    message.contains(&format!("server speaks {PROTOCOL_VERSION}")),
                    "message: {message}"
                );
            }
            other => panic!("expected a protocol envelope for version {bad}, got {other:?}"),
        }
    }

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
