//! The timed run: two closed-loop clients, a warm-up, a measured window,
//! every tracing facility off, and the gates that make a run
//! with a wrong answer or a lost commit fail.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sedna::{Database, MetricsSnapshot};

use crate::gen::{Class, Mix, Stmt, Stream};
use crate::oracle::{Oracle, UpdateModel};
use crate::workload::{query_items, Conn, Inputs, Loaded, Reply, Scale, Workload};
use crate::Error;

/// Client of the statement streams that run before anything is timed; no
/// timed client has this number.
const CHECK_CLIENT: u32 = u32::MAX;

/// Every how-many-th read reply is compared with the oracle.
const CHECK_EVERY: u64 = 64;
/// Messages kept per client; a broken run repeats itself.
const MAX_NOTES: usize = 5;
/// Share of a window's statements that may return an error before the run
/// counts as incorrect. Under a cold pool this engine fails a statement with
/// "no evictable frame" when one client evicts the frame another has just
/// looked up: none to four of `mixed_cold`'s 10 000 statements in a window.
/// They are counted in `failed`; the allowance is several times that, so
/// that only an engine that fails statements for another reason trips it.
pub const MAX_FAILED_RATIO: f64 = 0.005;

/// Checks replies: reads against the oracle, updates against the model of
/// what the acknowledged updates must have done.
pub struct Judge<'a> {
    oracle: &'a Oracle,
    model: UpdateModel,
    reads: u64,
    pub checked: u64,
    pub wrong: u64,
    /// What was wrong with the first few wrong replies.
    pub notes: Vec<String>,
}

impl<'a> Judge<'a> {
    pub fn new(oracle: &'a Oracle) -> Judge<'a> {
        Judge {
            oracle,
            model: oracle.model(),
            reads: 0,
            checked: 0,
            wrong: 0,
            notes: Vec::new(),
        }
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(msg);
        }
    }

    /// Judges one reply; `every` read replies one is compared in full.
    pub fn judge(&mut self, stmt: &Stmt, reply: &Reply, every: u64) {
        let verdict = match reply {
            Reply::Items(items) => {
                self.reads += 1;
                if !(self.reads - 1).is_multiple_of(every) {
                    return;
                }
                self.oracle.check(&stmt.key, items)
            }
            Reply::Updated(n) => self.model.apply(&stmt.key).and_then(|want| {
                if *n == want {
                    Ok(())
                } else {
                    Err(format!("{:?}: {n} nodes updated, {want} expected", stmt.key).into())
                }
            }),
        };
        self.checked += 1;
        if let Err(e) = verdict {
            self.wrong += 1;
            self.note(e.to_string());
        }
    }

    pub fn into_model(self) -> UpdateModel {
        self.model
    }
}

/// What one client measured.
pub struct ClientStats {
    pub mix: Mix,
    /// Latencies of the statements completed in the window, by class.
    pub by_class: BTreeMap<Class, Vec<u64>>,
    pub attempted: u64,
    pub failed: u64,
    pub checked: u64,
    pub wrong: u64,
    /// What was wrong with the first few wrong replies.
    pub notes: Vec<String>,
    /// The first few errors statements returned.
    pub errors: Vec<String>,
    model: UpdateModel,
}

impl ClientStats {
    /// Latencies of every statement completed in the window.
    pub fn latencies(&self) -> Vec<u64> {
        self.by_class.values().flatten().copied().collect()
    }
}

/// One client's timetable: idle until `start`, warming up until `open`,
/// measured until `close`.
#[derive(Clone, Copy)]
struct Clock {
    start: Instant,
    open: Instant,
    close: Instant,
}

impl Clock {
    /// The timetables of a workload's clients, the first starting at `t0`.
    /// Clients that take turns split the window between them, each with a
    /// full warm-up before its part.
    fn of(w: Workload, t0: Instant, warmup: Duration, window: Duration) -> Vec<Clock> {
        let clients = w.client_mixes().len() as u32;
        let mut start = t0;
        (0..clients)
            .map(|_| {
                let part = if w.clients_take_turns() {
                    window / clients
                } else {
                    window
                };
                let clock = Clock {
                    start,
                    open: start + warmup,
                    close: start + warmup + part,
                };
                if w.clients_take_turns() {
                    start = clock.close;
                }
                clock
            })
            .collect()
    }
}

/// One client's closed loop. With a `cycle`, an update is sent no sooner
/// than a think time of about a cycle after the one before it was: the
/// client still waits for every reply, but thinks in between.
fn client_loop(
    conn: &mut dyn Conn,
    mut stream: Stream,
    mix: Mix,
    mut judge: Judge<'_>,
    clock: Clock,
    cycle: Duration,
) -> ClientStats {
    let mut by_class: BTreeMap<Class, Vec<u64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut due = clock.start;
    loop {
        let stmt = stream.next_stmt();
        // A client that fell behind sends at once and does not try to catch
        // up: there is never more than one statement outstanding.
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        if !stmt.class.is_read() {
            due = sent + stream.think_time(cycle);
        }
        let reply = conn.run(&stmt);
        let done = Instant::now();
        // An acknowledged update counts for the model wherever it falls.
        match &reply {
            Ok(reply) => judge.judge(&stmt, reply, CHECK_EVERY),
            Err(e) if errors.len() < MAX_NOTES => {
                errors.push(format!("{}: {e}", stmt.class.name()));
            }
            Err(_) => {}
        }
        if done >= clock.close {
            break;
        }
        if sent < clock.open {
            continue;
        }
        attempted += 1;
        if reply.is_err() {
            // A failed statement has no latency: it is missing from every
            // percentile and from the throughput.
            failed += 1;
            continue;
        }
        by_class
            .entry(stmt.class)
            .or_default()
            .push((done - sent).as_nanos() as u64);
    }
    ClientStats {
        mix,
        by_class,
        attempted,
        failed,
        checked: judge.checked,
        wrong: judge.wrong,
        notes: std::mem::take(&mut judge.notes),
        errors,
        model: judge.into_model(),
    }
}

/// Sends one statement of every read class of `mix` and compares the whole
/// reply with the oracle, before anything is timed.
pub fn check_read_classes(
    conn: &mut dyn Conn,
    inputs: &Inputs,
    mix: Mix,
    seed: u64,
) -> Result<(), Error> {
    let doc = inputs.doc_of(0);
    let mut stream = Stream::new(seed, CHECK_CLIENT, mix, &doc.name, &doc.oracle.shape());
    let mut pending: Vec<Class> = mix
        .weights()
        .iter()
        .map(|(c, _)| *c)
        .filter(|c| c.is_read())
        .collect();
    while !pending.is_empty() {
        let stmt = stream.next_stmt();
        if let Some(i) = pending.iter().position(|c| *c == stmt.class) {
            match conn.run(&stmt)? {
                Reply::Items(items) => doc.oracle.check(&stmt.key, &items)?,
                other => return Err(format!("{}: answered {other:?}", stmt.class.name()).into()),
            }
            pending.swap_remove(i);
        }
    }
    Ok(())
}

/// `q_point` must be served by the `person_id` index. To be called on a
/// database that has not seen a `q_point` yet: a plan served from a cache
/// reports no decision.
pub fn check_point_uses_index(db: &Database, inputs: &Inputs, seed: u64) -> Result<(), Error> {
    let doc = inputs.doc_of(0);
    let mut stream = Stream::new(
        seed,
        CHECK_CLIENT,
        Mix::ColdRead,
        &doc.name,
        &doc.oracle.shape(),
    );
    let stmt = loop {
        let stmt = stream.next_stmt();
        if stmt.class == Class::QPoint {
            break stmt;
        }
    };
    let mut session = db.session();
    query_items(&mut session, &stmt.text)?;
    match session.last_plan_decision() {
        Some(d) if d.access_path == sedna::AccessPath::Index => Ok(()),
        other => Err(format!("q_point was planned as {other:?}, not as an index probe").into()),
    }
}

/// Counter movement between two snapshots of the engine's registry.
pub struct Delta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Delta {
    pub fn new(before: MetricsSnapshot, after: MetricsSnapshot) -> Delta {
        Delta { before, after }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name))
    }

    /// The gauge's value at the end.
    pub fn gauge(&self, name: &str) -> i64 {
        self.after.gauge(name)
    }

    fn hist(&self, name: &str, field: impl Fn(&sedna::HistogramSnapshot) -> u64) -> u64 {
        let read = |s: &MetricsSnapshot| s.histogram(name).map_or(0, &field);
        read(&self.after).saturating_sub(read(&self.before))
    }

    /// Mean of the histogram's new observations, in microseconds. The
    /// engine's buckets are powers of two, so a percentile read from them
    /// moves in factors of two; sum over count is exact.
    pub fn hist_mean_us(&self, name: &str) -> f64 {
        ratio(self.hist(name, |h| h.sum), self.hist(name, |h| h.count)) / 1_000.0
    }

    pub fn buffer_hit_ratio(&self) -> f64 {
        let hits = self.counter("sedna_buffer_hits_total");
        ratio(hits, hits + self.counter("sedna_buffer_misses_total"))
    }
}

/// `num / den`, or 0 where there was nothing to count.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The whole registry a run can see: the governor's where there is one
/// (it folds the server's metrics in), else the database's.
pub fn snapshot(loaded: &Loaded) -> MetricsSnapshot {
    match &loaded.governor {
        Some(g) => g.metrics_snapshot(),
        None => loaded.db.metrics_snapshot(),
    }
}

/// Peak resident set of this process, from the kernel's `VmHWM`.
pub fn peak_rss_mib() -> Result<f64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Starts the kernel's peak counter afresh (`clear_refs` value 5), so that
/// one process can run several workloads and report a peak for each. Best
/// effort: where the file cannot be written the peak is the process's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// What a timed run measured, before it is boiled down to metrics.
pub struct TimedRun {
    pub workload: Workload,
    pub window_s: f64,
    pub clients: Vec<ClientStats>,
    /// Peak resident set when the window closed: the service's, before the
    /// write workloads' recovery check adds its own.
    pub peak_rss_mib: f64,
    /// Gates that failed; empty on a correct run.
    pub gate_failures: Vec<String>,
}

impl TimedRun {
    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    /// Statements of the window that returned an error.
    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    /// No wrong reply, no gate failed, and no more than
    /// [`MAX_FAILED_RATIO`] of the statements returned an error.
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
            && self.clients.iter().all(|c| c.wrong == 0)
            && self.failed() as f64 <= MAX_FAILED_RATIO * self.attempted() as f64
    }
}

/// Runs the two clients of `loaded`'s workload, `window` of measuring in
/// all after the scale's warm-up, then applies the gates. Consumes the database: the
/// write workloads end by crashing and recovering it.
pub fn run(
    loaded: Loaded,
    inputs: &Inputs,
    scale: &Scale,
    seed: u64,
    window: Duration,
) -> Result<TimedRun, Error> {
    let w = loaded.workload;
    let mixes = w.client_mixes();
    let mut conns = Vec::new();
    for _ in &mixes {
        conns.push(loaded.connect()?);
    }
    if scale.size_gates && mixes.iter().any(|m| m.has(Class::QPoint)) {
        check_point_uses_index(&loaded.db, inputs, seed)?;
    }
    for (conn, mix) in conns.iter_mut().zip(mixes) {
        check_read_classes(conn.as_mut(), inputs, mix, seed)?;
    }
    loaded.db.reset_pinned_peak();

    let before = snapshot(&loaded);
    let clocks = Clock::of(w, Instant::now(), scale.warmup, window);
    let clients: Vec<ClientStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(mixes)
            .zip(clocks)
            .enumerate()
            .map(|(c, ((conn, mix), clock))| {
                let doc = inputs.doc_of(c);
                let stream = Stream::new(seed, c as u32, mix, &doc.name, &doc.oracle.shape());
                let judge = Judge::new(&doc.oracle);
                let cycle = scale.commit_cycle;
                scope.spawn(move || client_loop(conn.as_mut(), stream, mix, judge, clock, cycle))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let delta = Delta::new(before, snapshot(&loaded));
    let peak_rss_mib = peak_rss_mib()?;
    drop(conns);

    let mut gate_failures = Vec::new();
    for (c, stats) in clients.iter().enumerate() {
        for note in &stats.notes {
            gate_failures.push(format!("client {c}: {note}"));
        }
    }
    gate_failures.extend(layer_gates(w, &delta, scale));
    let pinned = loaded.db.pinned_pages();
    if pinned != 0 {
        gate_failures.push(format!("{pinned} pages still pinned after the run"));
    }
    if w.writes() {
        let models: Vec<(&str, &UpdateModel)> = clients
            .iter()
            .enumerate()
            .filter(|(_, c)| c.mix == Mix::Update)
            .map(|(c, stats)| (inputs.doc_of(c).name.as_str(), &stats.model))
            .collect();
        if let Err(e) = crash_and_verify(loaded, &models) {
            gate_failures.push(e.to_string());
        }
    } else {
        loaded.tear_down()?;
    }
    Ok(TimedRun {
        workload: w,
        window_s: window.as_secs_f64(),
        clients,
        peak_rss_mib,
        gate_failures,
    })
}

/// The separations between layers that the workloads are built on: a read
/// workload writes no log and starts no updating transaction, a resident
/// document is read from the pool, a cold one (at full scale) is not.
pub fn layer_gates(w: Workload, delta: &Delta, scale: &Scale) -> Vec<String> {
    let mut failures = Vec::new();
    let mut must_be_zero = |name: &str| {
        let n = delta.counter(name);
        if n != 0 {
            failures.push(format!("{}: {name} moved by {n}", w.name()));
        }
    };
    if !w.writes() {
        must_be_zero("sedna_wal_appends_total");
        must_be_zero("sedna_wal_fsyncs_total");
        must_be_zero("sedna_txn_update_begins_total");
    }
    if w != Workload::ReadWire {
        must_be_zero("sedna_net_msg_execute_total");
    }
    let hit = delta.buffer_hit_ratio();
    match w {
        Workload::ReadEmbedded if hit < 0.99 => failures.push(format!(
            "read_embedded: buffer hit ratio {hit:.4} is below 0.99"
        )),
        Workload::MixedCold if scale.size_gates && hit >= 0.9 => failures.push(format!(
            "mixed_cold: buffer hit ratio {hit:.4} is not below 0.9"
        )),
        _ => {}
    }
    failures
}

/// Crashes the database, recovers it, and requires every acknowledged
/// update to be there.
///
/// `Database::crash` drops the buffer pool; the operating system's cache
/// survives it, so log bytes written but not yet flushed are still found.
/// Discarding them needs a failpoint in the engine's file layer.
pub fn crash_and_verify(loaded: Loaded, models: &[(&str, &UpdateModel)]) -> Result<f64, Error> {
    let (dir, cfg) = (loaded.dir.clone(), loaded.cfg.clone());
    loaded.db.crash();
    let started = Instant::now();
    let db = Database::open(&dir, cfg)?;
    let recovery_s = started.elapsed().as_secs_f64();
    let mut session = db.session();
    for (doc, model) in models {
        model.verify(doc, |q| query_items(&mut session, q))?;
    }
    Ok(recovery_s)
}
