//! The traced run: one client, a fixed number of statements, a span around
//! every call into a layer's public function, and the engine's own counters
//! read before and after. It yields the per-layer numbers; the timed run,
//! with all of this off, yields the end-to-end ones.

use std::path::PathBuf;
use std::time::Instant;

use sedna::{ExecOutcome, Session, StreamOutcome};
use sedna_net::{ExecReply, SednaClient};

use crate::gen::{Class, Stmt, Stream};
use crate::metrics::Values;
use crate::oracle::digest;
use crate::spans::{self, LayerTable, Tracer};
use crate::stats::{us, Summary};
use crate::timed::{
    check_point_uses_index, check_read_classes, crash_and_verify, layer_gates, peak_rss_mib, ratio,
    snapshot, Delta, Judge,
};
use crate::workload::{Inputs, Loaded, Reply, Scale, Scratch, Workload, WIRE_DB};
use crate::{probes, Error};

/// Items asked for per `FetchBatch`, as `SednaClient::query` does.
const FETCH_BATCH: u32 = 64;

/// A query over a session, one span per phase of the cursor's life.
fn traced_read_embedded(
    session: &mut Session,
    stmt: &Stmt,
    t: &mut Tracer,
) -> Result<Vec<String>, Error> {
    let root = t.begin_stmt(stmt.class);
    let open = t.begin(spans::CORE_OPEN, root);
    let outcome = session.execute_stream(&stmt.text);
    t.end(open);
    let mut items = Vec::new();
    match outcome? {
        StreamOutcome::Cursor(mut cursor) => {
            let first = t.begin(spans::XQUERY_FIRST_PULL, root);
            let head = cursor.next_item();
            t.end(first);
            let mut last_pull_began = t.now();
            if let Some(item) = head? {
                items.push(item);
                let pulls_began = last_pull_began;
                // The pull that finds the sequence exhausted also commits the
                // cursor's transaction and folds its counters: that call and
                // the drop are `core.finish`, the pulls before it `xquery.pull`.
                while let Some(item) = {
                    last_pull_began = t.now();
                    cursor.next_item()?
                } {
                    items.push(item);
                }
                t.add(spans::XQUERY_PULL, root, pulls_began, last_pull_began);
            }
            drop(cursor);
            let now = t.now();
            t.add(spans::CORE_FINISH, root, last_pull_began, now);
        }
        StreamOutcome::Items(v) => items = v,
        other => return Err(format!("query answered {other:?}").into()),
    }
    t.end(root);
    Ok(items)
}

/// A query over a connection: one span per round trip.
fn traced_read_wire(
    client: &mut SednaClient,
    stmt: &Stmt,
    t: &mut Tracer,
) -> Result<Vec<String>, Error> {
    let root = t.begin_stmt(stmt.class);
    let execute = t.begin(spans::NET_EXECUTE_RTT, root);
    let reply = client.execute(&stmt.text);
    t.end(execute);
    if !matches!(reply?, ExecReply::Query(..)) {
        return Err(format!("{} was not answered as a query", stmt.class.name()).into());
    }
    let mut items = Vec::new();
    loop {
        let fetch = t.begin(spans::NET_FETCH_RTT, root);
        let batch = client.fetch_batch(FETCH_BATCH);
        t.end(fetch);
        let (batch, done) = batch?;
        items.extend(batch);
        if done {
            break;
        }
    }
    t.end(root);
    Ok(items)
}

/// An update in an explicit transaction, so that begin, execution and
/// commit each get a span. The timed run's updates are auto-commit: same
/// work, one call.
fn traced_write(session: &mut Session, stmt: &Stmt, t: &mut Tracer) -> Result<u64, Error> {
    let root = t.begin_stmt(stmt.class);
    let begin = t.begin(spans::CORE_BEGIN_UPDATE, root);
    let began = session.begin_update();
    t.end(begin);
    began?;
    let exec = t.begin(spans::CORE_UPDATE_EXEC, root);
    let outcome = session.execute(&stmt.text);
    t.end(exec);
    let updated = match outcome {
        Ok(ExecOutcome::Updated(n)) => n as u64,
        Ok(other) => {
            session.rollback()?;
            return Err(format!("update answered {other:?}").into());
        }
        Err(e) => {
            session.rollback()?;
            return Err(e.into());
        }
    };
    let commit = t.begin(spans::CORE_COMMIT, root);
    let committed = session.commit();
    t.end(commit);
    committed?;
    t.end(root);
    Ok(updated)
}

/// Where the traced client's statements go.
enum Transport {
    Session(Box<Session>),
    Client(SednaClient),
}

/// One traced pass: the spans, the replies' digest, the judge's verdicts.
struct Pass {
    tracer: Tracer,
    /// Digest of the digests of every read reply, in order.
    reply_digest: u64,
    items: u64,
    update_text_bytes: u64,
    elapsed_s: f64,
}

fn traced_pass(
    transport: &mut Transport,
    stmts: &[Stmt],
    judge: &mut Judge<'_>,
) -> Result<Pass, Error> {
    let mut tracer = Tracer::default();
    let mut reply_digests = Vec::with_capacity(stmts.len());
    let (mut items, mut update_text_bytes) = (0, 0);
    let started = Instant::now();
    for stmt in stmts {
        let reply = match (&mut *transport, stmt.class.is_read()) {
            (Transport::Session(s), true) => {
                Reply::Items(traced_read_embedded(s, stmt, &mut tracer)?)
            }
            (Transport::Client(c), true) => Reply::Items(traced_read_wire(c, stmt, &mut tracer)?),
            (Transport::Session(s), false) => {
                update_text_bytes += stmt.text.len() as u64;
                Reply::Updated(traced_write(s, stmt, &mut tracer)?)
            }
            (Transport::Client(_), false) => {
                return Err("the wire workload sends reads only".into())
            }
        };
        // Every reply of a traced pass is compared: nothing here is timed
        // outside its spans.
        judge.judge(stmt, &reply, 1);
        if let Reply::Items(v) = &reply {
            items += v.len() as u64;
            reply_digests.push(format!("{:016x}", digest(v)));
        }
    }
    Ok(Pass {
        tracer,
        reply_digest: digest(&reply_digests),
        items,
        update_text_bytes,
        elapsed_s: started.elapsed().as_secs_f64(),
    })
}

/// What a traced run found.
pub struct TracedRun {
    pub workload: Workload,
    /// Every per-layer metric, by name.
    pub values: Values,
    pub table: LayerTable,
    pub statements: u64,
    pub failed: u64,
    pub gate_failures: Vec<String>,
    /// Where the spans were written as Chrome-trace JSON.
    pub trace_file: PathBuf,
}

impl TracedRun {
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0
    }
}

fn p50_us(t: &Tracer, name: &str, class: Option<Class>) -> f64 {
    us(t.summary(name, class).p50_ns)
}

/// Turns one traced pass and the counters that moved under it into the
/// per-layer metrics, a layer at a time.
struct Derive<'a> {
    w: Workload,
    pass: &'a Pass,
    delta: &'a Delta,
    stmts: u64,
    commits: u64,
    values: Values,
    gate_failures: Vec<String>,
}

impl Derive<'_> {
    fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    fn span_p50(&mut self, metric: &str, span: &str) {
        let v = p50_us(&self.pass.tracer, span, None);
        self.set(metric, v);
    }

    fn per_stmt(&mut self, metric: &str, counter: &str) {
        let v = ratio(self.delta.counter(counter), self.stmts);
        self.set(metric, v);
    }

    fn per_commit(&mut self, metric: &str, counter: &str) {
        let v = ratio(self.delta.counter(counter), self.commits);
        self.set(metric, v);
    }

    /// `twin` is the same statements through a session, where the traced
    /// pass went over the wire.
    fn net(&mut self, twin: Option<&Pass>) {
        let d = self.delta;
        let round_trips = d.counter("sedna_net_msg_execute_total")
            + d.counter("sedna_net_msg_fetch_batch_total")
            + d.counter("sedna_net_msg_fetch_next_total");
        self.set("net.round_trips_per_stmt", ratio(round_trips, self.stmts));
        self.per_stmt("net.wakeups_per_stmt", "sedna_net_event_wakeups_total");
        self.per_stmt("net.dispatches_per_stmt", "sedna_net_dispatches_total");
        self.per_stmt("net.bytes_out_per_stmt", "sedna_net_bytes_out_total");
        self.per_stmt("net.bytes_in_per_stmt", "sedna_net_bytes_in_total");
        self.set(
            "net.server_request_mean_us",
            d.hist_mean_us("sedna_net_request_ns"),
        );
        self.span_p50("net.execute_rtt_p50_us", spans::NET_EXECUTE_RTT);
        self.span_p50("net.fetch_rtt_p50_us", spans::NET_FETCH_RTT);

        let t = &self.pass.tracer;
        let gap = |class| match twin {
            Some(twin) => p50_us(t, spans::STMT, class) - p50_us(&twin.tracer, spans::STMT, class),
            None => 0.0,
        };
        let overall = gap(None);
        let by_class: Vec<(Class, f64)> = Class::ALL
            .into_iter()
            .filter(|c| c.is_read())
            .map(|c| (c, gap(Some(c))))
            .collect();
        self.set("net.overhead_p50_us", overall);
        for (class, gap) in by_class {
            self.set(&format!("net.overhead_p50_us.{}", class.name()), gap);
        }
        if let Some(twin) = twin {
            if twin.reply_digest != self.pass.reply_digest {
                self.gate_failures.push(format!(
                    "replies over the wire ({:016x}) differ from replies in process ({:016x})",
                    self.pass.reply_digest, twin.reply_digest
                ));
            }
            if overall <= 0.0 {
                self.gate_failures
                    .push(format!("net.overhead_p50_us is {overall:.1}, not above 0"));
            }
        }
    }

    fn core(&mut self) {
        let t = &self.pass.tracer;
        let all = t.summary(spans::STMT, None);
        self.set("core.stmt_p50_us", us(all.p50_ns));
        self.set("core.stmt_p99_us", us(all.p99_ns));
        self.set("core.stmt_max_us", us(all.max_ns));
        for class in Class::ALL {
            let v = p50_us(t, spans::STMT, Some(class));
            self.set(&format!("core.stmt_p50_us.{}", class.name()), v);
        }
        self.span_p50("core.open_p50_us", spans::CORE_OPEN);
        self.span_p50("core.finish_p50_us", spans::CORE_FINISH);
        let first_item = match self.w {
            Workload::ReadWire => spans::NET_FETCH_RTT,
            _ => spans::XQUERY_FIRST_PULL,
        };
        let mut ttfi = t.time_to_first(&[first_item], Class::QScan);
        self.set("core.ttfi_p50_us.q_scan", us(Summary::of(&mut ttfi).p50_ns));

        let d = self.delta;
        let l1_hits = d.counter("sedna_plan_cache_hits_total");
        let l1_misses = d.counter("sedna_plan_cache_misses_total");
        self.set(
            "core.plan_l1_hit_ratio",
            ratio(l1_hits, l1_hits + l1_misses),
        );
        let l2_hits = d.counter("sedna_plan_cache_shared_hits_total");
        let l2_misses = d.counter("sedna_plan_cache_shared_misses_total");
        self.set(
            "core.plan_l2_hit_ratio",
            ratio(l2_hits, l2_hits + l2_misses),
        );
        self.set(
            "core.plan_l2_lock_waits",
            d.counter("sedna_plan_cache_shared_lock_waits_total") as f64,
        );
        self.span_p50("core.begin_update_p50_us", spans::CORE_BEGIN_UPDATE);
        self.span_p50("core.update_exec_p50_us", spans::CORE_UPDATE_EXEC);
        self.span_p50("core.commit_p50_us", spans::CORE_COMMIT);
    }

    /// The log's counters, and what of a commit is neither append nor flush:
    /// undo, page images, checksums.
    fn wal(&mut self) {
        let d = self.delta;
        let append_us = d.hist_mean_us("sedna_wal_append_ns");
        let fsync_us = d.hist_mean_us("sedna_wal_fsync_ns");
        let appends = ratio(d.counter("sedna_wal_appends_total"), self.commits);
        let fsyncs = ratio(d.counter("sedna_wal_fsyncs_total"), self.commits);
        let commit_ns: u64 = self
            .pass
            .tracer
            .durations(spans::CORE_COMMIT, None)
            .iter()
            .sum();
        let commit_mean_us = us(commit_ns) / self.commits.max(1) as f64;
        let other = commit_mean_us - append_us * appends - fsync_us * fsyncs;
        self.set("core.commit_other_us", other);
        let bytes = d.counter("sedna_wal_append_bytes_total");
        self.set("wal.bytes_per_commit", ratio(bytes, self.commits));
        self.set(
            "wal.bytes_per_user_byte",
            ratio(bytes, self.pass.update_text_bytes),
        );
        self.set("wal.appends_per_commit", appends);
        self.set("wal.fsyncs_per_commit", fsyncs);
        self.set("wal.append_mean_us", append_us);
        self.set("wal.fsync_mean_us", fsync_us);
        self.set(
            "wal.appends_total",
            d.counter("sedna_wal_appends_total") as f64,
        );
    }

    fn xquery(&mut self) {
        let t = &self.pass.tracer;
        let pull_ns: u64 = [spans::XQUERY_FIRST_PULL, spans::XQUERY_PULL]
            .iter()
            .flat_map(|name| t.durations(name, None))
            .sum();
        self.span_p50("xquery.first_pull_p50_us", spans::XQUERY_FIRST_PULL);
        self.set(
            "xquery.pull_us_per_item",
            us(pull_ns) / self.pass.items.max(1) as f64,
        );
        let d = self.delta;
        self.set(
            "xquery.nodes_scanned_per_item",
            ratio(
                d.counter("sedna_exec_nodes_scanned_total"),
                d.counter("sedna_exec_items_pulled_total"),
            ),
        );
        let by_index = d.counter("sedna_plan_chosen_index_total");
        let chosen = by_index
            + d.counter("sedna_plan_chosen_scan_total")
            + d.counter("sedna_plan_chosen_descendant_total");
        self.set("xquery.plan_index_share", ratio(by_index, chosen));
        self.per_stmt("xquery.ddo_sorts_per_stmt", "sedna_exec_ddo_sorts_total");
    }

    fn index(&mut self) {
        self.per_stmt("index.lookups_per_stmt", "sedna_index_lookups_total");
        self.per_commit("index.inserts_per_commit", "sedna_index_inserts_total");
        self.set(
            "index.splits_total",
            self.delta.counter("sedna_index_splits_total") as f64,
        );
    }

    fn sas(&mut self, pinned_pages_peak: i64) {
        let d = self.delta;
        self.set("sas.buffer_hit_ratio", d.buffer_hit_ratio());
        self.set(
            "sas.lockfree_hit_share",
            ratio(
                d.counter("sedna_buffer_lockfree_hits_total"),
                d.counter("sedna_buffer_hits_total"),
            ),
        );
        self.per_stmt("sas.evictions_per_stmt", "sedna_buffer_evictions_total");
        self.per_commit("sas.writebacks_per_commit", "sedna_buffer_writebacks_total");
        self.set("sas.pinned_pages_peak", pinned_pages_peak as f64);
    }

    fn txn(&mut self, versions_created: u64) {
        let d = self.delta;
        self.set(
            "txn.lock_wait_mean_us",
            d.hist_mean_us("sedna_txn_lock_wait_ns"),
        );
        self.per_commit("txn.lock_waits_per_commit", "sedna_txn_lock_waits_total");
        let aborts = d.counter("sedna_txn_aborts_total");
        self.set(
            "txn.aborts_ratio",
            ratio(aborts, aborts + d.counter("sedna_txn_commits_total")),
        );
        self.set(
            "txn.versions_created_per_commit",
            ratio(versions_created, self.commits),
        );
        self.set(
            "txn.snapshots_retained",
            d.gauge("sedna_txn_snapshots_retained") as f64,
        );
        self.set(
            "txn.update_begins_total",
            d.counter("sedna_txn_update_begins_total") as f64,
        );
    }

    /// How much of a statement the layers' spans account for.
    fn bench(&mut self) -> LayerTable {
        let table = self.pass.tracer.layer_table();
        self.set("bench.unattributed_us", table.unattributed_us);
        self.set("bench.layer_sum_ratio", table.covered());
        if table.covered() < 0.9 {
            self.gate_failures.push(format!(
                "the layers' spans cover {:.3} of statement time, less than 0.9",
                table.covered()
            ));
        }
        self.set(
            "bench.reply_digest_low32",
            (self.pass.reply_digest & 0xFFFF_FFFF) as f64,
        );
        table
    }
}

pub fn run(
    inputs: &Inputs,
    scale: &Scale,
    seed: u64,
    scratch: &mut Scratch,
) -> Result<TracedRun, Error> {
    let w = inputs.workload;
    let loaded = Loaded::set_up(inputs, scale, scratch)?;
    let doc = inputs.doc_of(0);
    let mix = w.traced_mix();
    let n = scale.traced_stmts;
    let mut stream = Stream::new(seed, 0, mix, &doc.name, &doc.oracle.shape());
    let plain: Vec<Stmt> = (0..n).map(|_| stream.next_stmt()).collect();
    let traced: Vec<Stmt> = (0..n).map(|_| stream.next_stmt()).collect();
    let mut judge = Judge::new(&doc.oracle);

    // The same client without spans: warms pool and plan caches as the timed
    // run's warm-up does, and prices the tracing itself.
    if scale.size_gates && mix.has(Class::QPoint) {
        check_point_uses_index(&loaded.db, inputs, seed)?;
    }
    let mut conn = loaded.connect()?;
    check_read_classes(conn.as_mut(), inputs, mix, seed)?;
    let at_setup = snapshot(&loaded);
    let started = Instant::now();
    for stmt in &plain {
        let reply = conn.run(stmt)?;
        judge.judge(stmt, &reply, 1);
    }
    let plain_s = started.elapsed().as_secs_f64();
    drop(conn);

    // On the wire, the same statements first go through a session, so that
    // the two transports can be compared reply for reply and span for span.
    let twin = match w {
        Workload::ReadWire => Some(traced_pass(
            &mut Transport::Session(Box::new(loaded.db.session())),
            &traced,
            &mut Judge::new(&doc.oracle),
        )?),
        _ => None,
    };

    let mut transport = match &loaded.server {
        Some(server) => Transport::Client(SednaClient::connect(server.addr(), WIRE_DB)?),
        None => Transport::Session(Box::new(loaded.db.session())),
    };
    loaded.db.reset_pinned_peak();
    let versions_before = loaded.db.version_stats().versions_created;
    let before = snapshot(&loaded);
    let pass = traced_pass(&mut transport, &traced, &mut judge)?;
    let delta = Delta::new(before, snapshot(&loaded));
    let versions_created = loaded.db.version_stats().versions_created - versions_before;
    drop(transport);

    let mut derive = Derive {
        w,
        pass: &pass,
        delta: &delta,
        stmts: u64::from(pass.tracer.statements()),
        commits: pass.tracer.durations(spans::CORE_COMMIT, None).len() as u64,
        values: Values::new(),
        gate_failures: judge.notes.clone(),
    };
    derive.gate_failures.extend(layer_gates(w, &delta, scale));
    let pinned = loaded.db.pinned_pages();
    if pinned != 0 {
        derive
            .gate_failures
            .push(format!("{pinned} pages still pinned after the run"));
    }
    derive.net(twin.as_ref());
    derive.core();
    derive.wal();
    derive.xquery();
    derive.index();
    derive.sas(loaded.db.pinned_pages_peak());
    derive.txn(versions_created);
    let table = derive.bench();
    let sizes = &loaded.sizes;
    derive.set("storage.load_nodes_s", sizes.nodes as f64 / loaded.load_s);
    derive.set(
        "storage.bytes_per_node",
        ratio(sizes.data_pages * sizes.page_size as u64, sizes.nodes),
    );
    // What the spans themselves cost: the traced pass against its twin
    // without them, statement rates of equal counts.
    derive.set("obs.trace_overhead_ratio", plain_s / pass.elapsed_s);
    for (name, v) in probes::run(inputs, seed, scale.probe_loops)? {
        derive.set(&name, v);
    }
    let Derive {
        stmts,
        mut values,
        mut gate_failures,
        ..
    } = derive;

    let trace_file = scratch
        .root()
        .with_file_name(format!("trace-{}-{seed}.json", w.name()));
    std::fs::write(&trace_file, pass.tracer.chrome_json())?;

    // Recovery replays everything logged since the set-up checkpoint.
    let (mut recovery_mib_s, mut recovery_peak_rss_mib) = (0.0, 0.0);
    let wrong = judge.wrong;
    if w.writes() {
        let logged =
            Delta::new(at_setup, snapshot(&loaded)).counter("sedna_wal_append_bytes_total");
        let model = judge.into_model();
        match crash_and_verify(loaded, &[(doc.name.as_str(), &model)]) {
            Ok(recovery_s) => {
                recovery_mib_s = logged as f64 / (1 << 20) as f64 / recovery_s;
                // Replay holds far more than the pool: the run's peak is its.
                recovery_peak_rss_mib = peak_rss_mib()?;
            }
            Err(e) => gate_failures.push(e.to_string()),
        }
    } else {
        loaded.tear_down()?;
    }
    values.insert("wal.recovery_mib_s".into(), recovery_mib_s);
    values.insert("wal.recovery_peak_rss_mib".into(), recovery_peak_rss_mib);

    Ok(TracedRun {
        workload: w,
        values,
        table,
        statements: stmts,
        failed: wrong,
        gate_failures,
        trace_file,
    })
}
