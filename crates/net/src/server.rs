//! The network listener: a non-blocking readiness loop feeding a
//! bounded worker pool.
//!
//! Figure 1 of the paper puts a *listener* in the governor process that
//! accepts client connections and hands each one to a per-client session
//! component. This module reproduces that shape with a readiness-loop
//! split: one **event thread** owns every socket in non-blocking mode
//! behind a small `epoll(7)` poller (Linux only — see
//! [`crate::poller`]), parses frames incrementally per
//! connection, and hands complete requests to `workers` **worker
//! threads** that execute them against the wire session
//! ([`sedna::Session`]). N idle connections cost O(N) kernel
//! registrations and zero per-tick syscalls — there is no
//! per-connection read-timeout poll, so the server's thread count is
//! independent of its connection count.
//!
//! A request becomes its answer in two steps. `respond` maps one decoded
//! request to a [`Response`] and whether the connection closes after it;
//! it runs the request against the session and touches no socket. `send`
//! is the one place a response is encoded and written, and the one place
//! the frame cap is enforced on output: a response larger than
//! [`NetConfig::max_frame`] goes out as a `protocol` error instead. The
//! worker writes its answers through `send`, and so do the event thread's
//! courtesy notices (drain, idle timeout, stalled frame) and the
//! accept-time `overloaded` refusal. A connection's socket is one shared
//! `Arc<TcpStream>`: the event thread reads it, a worker writes it.
//!
//! Because the event thread keeps reading while a worker executes, a
//! client may **pipeline** up to `pipeline_depth` requests; responses
//! come back strictly in request order (one worker serves one
//! connection's batch at a time). A `Cancel` frame is special: the event
//! thread raises the connection's cancel flag the moment the frame is
//! *parsed*, which aborts the statement currently executing on a worker;
//! the `Cancelled` acknowledgement is still delivered in order.
//!
//! Admission control happens twice: at accept (`max_conns` registered
//! connections; beyond that the listener answers `overloaded` and
//! closes) and at `StartSession` (the database's
//! [`sedna::DbConfig::max_sessions`] limit, enforced through
//! `Governor::try_connect`, plus optional credential checks when
//! [`NetConfig::auth`] is set).
//!
//! Shutdown is a drain: a shared flag flips and the poller is woken; the
//! event thread stops accepting, tells idle connections
//! [`Response::ShuttingDown`], lets in-flight batches finish (the drain
//! is honored at frame-batch boundaries), and exits once the connection
//! table is empty. [`ServerHandle::shutdown`] then closes every database
//! through `Governor::shutdown` (WAL flush + final checkpoint).

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sedna::{chrome_trace_json, DbError, DbResult, Governor, StreamOutcome};

use crate::conn::{fetch_items, Conn, Fault, Frame, ItemStream, SessionState};
use crate::metrics::NetMetrics;
use crate::poller::{self, Poller, Waker};
use crate::protocol::{
    codes, ActivityRow, Request, Response, SlowLogRow, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};

/// Credentials a v2 client must present at `StartSession`/`AsOf` when
/// the server is started with [`NetConfig::auth`] set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credentials {
    /// Expected user name.
    pub user: String,
    /// Expected password.
    pub password: String,
}

/// Listener configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads, i.e. concurrently *executing* requests. Idle
    /// connections don't occupy a worker.
    pub workers: usize,
    /// Cap on a single frame in either direction.
    pub max_frame: usize,
    /// Upper bound on one event-loop wait: the drain flag and the
    /// idle/stalled-frame clocks are checked at least this often. Not a
    /// per-connection tick — idle connections cost no syscalls.
    pub poll_interval: Duration,
    /// Close connections that stay silent between requests this long.
    pub idle_timeout: Duration,
    /// Deadline for completing a frame once its first byte arrived, and
    /// for writing a response.
    pub request_timeout: Duration,
    /// Requests a client may have in flight on one connection before
    /// the server stops reading from it (backpressure).
    pub pipeline_depth: usize,
    /// Registered connections the event thread will carry; beyond this
    /// the listener rejects with `overloaded`.
    pub max_conns: usize,
    /// When set, `StartSession`/`AsOf` must carry these credentials.
    pub auth: Option<Credentials>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            max_frame: DEFAULT_MAX_FRAME,
            poll_interval: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(300),
            request_timeout: Duration::from_secs(30),
            pipeline_depth: 16,
            max_conns: 4096,
            auth: None,
        }
    }
}

/// State shared by the event thread, the workers, and the handle.
struct Shared {
    governor: Arc<Governor>,
    metrics: NetMetrics,
    cfg: NetConfig,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// A batch of parsed frames for one connection, handed to a worker.
struct Job {
    token: u64,
    frames: Vec<Frame>,
    /// Framing violation to report (and close on) after the frames.
    fault: Option<Fault>,
    state: SessionState,
    /// The connection's socket, shared with the event thread.
    stream: Arc<TcpStream>,
}

/// A worker's completion notice, returning the session state.
struct Done {
    token: u64,
    state: SessionState,
    close: bool,
}

/// The network server: [`Server::start`] binds, spawns the event thread
/// and worker pool, and returns a [`ServerHandle`].
pub struct Server;

/// Token the listener is registered under (connections start at 1).
const LISTENER_TOKEN: u64 = 0;

impl Server {
    /// Binds `cfg.addr`, registers the `sedna_net_*` metrics into the
    /// governor's registry, and spawns the event thread plus worker
    /// pool.
    pub fn start(governor: Arc<Governor>, cfg: NetConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics = NetMetrics::new();
        metrics.register_into(governor.registry());
        let shared = Arc::new(Shared {
            governor,
            metrics,
            cfg,
            shutdown: AtomicBool::new(false),
            addr,
        });
        let poller = Poller::new()?;
        let waker = poller.waker()?;
        poller.register_persistent(listener.as_raw_fd(), LISTENER_TOKEN)?;
        let (work_tx, work_rx) = mpsc::channel::<Job>();
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let work_rx = Arc::new(Mutex::new(work_rx));
        let mut workers = Vec::with_capacity(shared.cfg.workers.max(1));
        for i in 0..shared.cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            let work_rx = Arc::clone(&work_rx);
            let done_tx = done_tx.clone();
            let waker = waker.clone();
            let handle = thread::Builder::new()
                .name(format!("sedna-net-worker-{i}"))
                .spawn(move || worker_loop(&shared, &work_rx, &done_tx, &waker))?;
            workers.push(handle);
        }
        let event = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("sedna-net-event".into())
                .spawn(move || {
                    EventLoop {
                        shared,
                        listener,
                        poller,
                        work_tx,
                        done_rx,
                        conns: HashMap::new(),
                        next_token: 1,
                    }
                    .run()
                })?
        };
        Ok(ServerHandle {
            shared,
            waker,
            event: Some(event),
            workers,
        })
    }
}

/// A running server. Dropping the handle drains the listener (without
/// closing databases); call [`ServerHandle::shutdown`] for the full
/// orderly stop.
pub struct ServerHandle {
    shared: Arc<Shared>,
    waker: Waker,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The server's metric handles (shared with the event thread and
    /// the workers).
    pub fn metrics(&self) -> &NetMetrics {
        &self.shared.metrics
    }

    /// Whether a drain has been requested — by [`ServerHandle::shutdown`],
    /// or by a client's `Shutdown` request. `sednad` polls this.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Graceful stop: drain the listener (stop accepting, let in-flight
    /// requests finish, join every thread), then close every registered
    /// database via `Governor::shutdown` — WAL forced, final checkpoint
    /// taken.
    pub fn shutdown(mut self) -> DbResult<()> {
        self.drain();
        self.shared.governor.shutdown()
    }

    fn drain(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.event.take() {
            let _ = h.join();
        }
        // The event thread's exit dropped the job channel, so the
        // workers' queue pops fail and they return.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.drain();
    }
}

/// The event thread: owns the poller, the listener, and every
/// connection's socket-side state.
struct EventLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    poller: Poller,
    work_tx: Sender<Job>,
    done_rx: Receiver<Done>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            if self
                .poller
                .wait(&mut events, self.shared.cfg.poll_interval)
                .is_err()
            {
                // The poller is unrecoverable; fall into the drain path
                // so the server stops instead of spinning.
                self.shared.shutdown.store(true, Ordering::SeqCst);
            }
            self.shared.metrics.event_wakeups.inc();
            // Completions first, so busy flags are fresh before events.
            self.drain_done();
            for &ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    self.conn_ready(ev.token, ev.hup);
                }
            }
            self.drain_done();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.drain_idle_conns();
                if self.conns.is_empty() {
                    break;
                }
            }
            if last_sweep.elapsed() >= self.shared.cfg.poll_interval {
                self.sweep_timeouts();
                last_sweep = Instant::now();
            }
        }
        // Dropping `self` drops `work_tx`, which ends the workers.
    }

    fn drain_done(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.handle_done(done);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failure (e.g. fd pressure): leave the
                // listener armed and retry at the next wakeup.
                Err(_) => break,
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                continue;
            }
            let m = &self.shared.metrics;
            m.connections_opened.inc();
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if self.conns.len() >= self.shared.cfg.max_conns.max(1) {
                m.connections_rejected.inc();
                let overloaded =
                    error("overloaded", "server connection limit reached; retry later");
                // A fresh socket's send buffer takes the whole refusal.
                let _ = send(&self.shared, &stream, &overloaded, Duration::ZERO);
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self.poller.register(stream.as_raw_fd(), token).is_err() {
                continue;
            }
            self.conns.insert(token, Conn::new(stream));
            m.connections_active.add(1);
        }
    }

    /// A connection's socket reported readable: drain it, parse frames,
    /// dispatch, and rearm.
    fn conn_ready(&mut self, token: u64, hup: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.armed = false;
        // A hangup still gets its read: the kernel may hold final bytes
        // (data-then-FIN), and the read is what observes the EOF.
        let alive = conn.read_ready() && !hup;
        let (frames, fault) = conn.parse_frames(self.shared.cfg.max_frame);
        let m = &self.shared.metrics;
        for frame in frames {
            m.bytes_in.add((frame.body.len() + 5) as u64);
            if let Some(c) = m.msg_counter(frame.code) {
                c.inc();
            }
            if frame.code == codes::CANCEL {
                // Out-of-band: abort the statement executing right now;
                // the ordered Cancelled ack follows through the queue.
                conn.cancel.cancel();
            }
            if conn.busy || !conn.queue.is_empty() {
                m.pipelined_requests.inc();
            }
            conn.queue.push_back(frame);
        }
        if fault.is_some() {
            conn.fault = fault;
        }
        if !alive {
            // Peer closed (or the read hard-failed). Frames already
            // queued still get served — the drain below tears the
            // connection down once they are.
            conn.closing = true;
        }
        self.pump(token);
    }

    /// Dispatches queued work if the connection is idle, rearms the
    /// readiness registration unless backpressured, and tears down
    /// connections with nothing left to do.
    fn pump(&mut self, token: u64) {
        if !self.dispatch(token) {
            return;
        }
        let depth = self.shared.cfg.pipeline_depth.max(1);
        let mut rearm = None;
        let mut teardown = false;
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.closing && !conn.busy && conn.queue.is_empty() {
                teardown = true;
            } else if !conn.armed
                && !conn.closing
                && conn.fault.is_none()
                && conn.queue.len() < depth
            {
                rearm = Some(conn.stream.as_raw_fd());
            }
        }
        if teardown {
            self.teardown(token);
            return;
        }
        if let Some(fd) = rearm {
            let ok = self.poller.rearm(fd, token).is_ok();
            if let Some(conn) = self.conns.get_mut(&token) {
                if ok {
                    conn.armed = true;
                } else if conn.busy {
                    conn.closing = true;
                } else {
                    self.teardown(token);
                }
            }
        }
    }

    /// Hands the connection's queued frames (and any trailing fault) to
    /// the worker pool as one in-order batch. Returns `false` if the
    /// connection vanished.
    fn dispatch(&mut self, token: u64) -> bool {
        let depth = self.shared.cfg.pipeline_depth.max(1);
        let job = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if conn.busy || (conn.queue.is_empty() && conn.fault.is_none()) {
                return true;
            }
            let n = conn.queue.len().min(depth);
            let frames: Vec<Frame> = conn.queue.drain(..n).collect();
            // A fault closes the connection, so it only ships once every
            // queued frame ahead of it has shipped too.
            let fault = if conn.queue.is_empty() {
                conn.fault.take()
            } else {
                None
            };
            let Some(state) = conn.state.take() else {
                return true;
            };
            conn.busy = true;
            Job {
                token,
                frames,
                fault,
                state,
                stream: Arc::clone(&conn.stream),
            }
        };
        self.shared.metrics.dispatches.inc();
        if let Err(lost) = self.work_tx.send(job) {
            // Workers are gone (drain): restore the state so teardown
            // accounts the session, then close.
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.busy = false;
                conn.state = Some(lost.0.state);
            }
            self.teardown(token);
            return false;
        }
        true
    }

    fn handle_done(&mut self, done: Done) {
        let token = done.token;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.busy = false;
        conn.state = Some(done.state);
        if done.close {
            self.teardown(token);
            return;
        }
        if self.shared.shutdown.load(Ordering::SeqCst) {
            // Drain honored at the batch boundary: the batch's responses
            // are written; anything still queued is refused.
            self.close_with(token, &Response::ShuttingDown);
            return;
        }
        self.pump(token);
    }

    /// During a drain, closes every connection that is not executing.
    fn drain_idle_conns(&mut self) {
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.busy)
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close_with(token, &Response::ShuttingDown);
        }
    }

    /// Closes connections that idled out, or stalled mid-frame past the
    /// request deadline.
    fn sweep_timeouts(&mut self) {
        let cfg = &self.shared.cfg;
        let mut expired = Vec::new();
        for (token, conn) in &self.conns {
            if conn.busy || conn.closing || !conn.queue.is_empty() {
                continue;
            }
            if let Some(started) = conn.frame_started {
                if started.elapsed() >= cfg.request_timeout {
                    expired.push((*token, error("protocol", "malformed or timed-out frame")));
                }
            } else if conn.last_activity.elapsed() >= cfg.idle_timeout {
                expired.push((*token, error("timeout", "idle timeout")));
            }
        }
        for (token, notice) in expired {
            self.close_with(token, &notice);
        }
    }

    /// Tells a connection why it is closing, then closes it. The notice
    /// is a courtesy: it never waits for a full send buffer.
    fn close_with(&mut self, token: u64, notice: &Response) {
        if let Some(conn) = self.conns.get(&token) {
            let _ = send(&self.shared, &conn.stream, notice, Duration::ZERO);
        }
        self.teardown(token);
    }

    /// Removes a connection: deregisters the socket, accounts the
    /// session, and drops the state (rolling back any open transaction
    /// and releasing any live cursor's pins).
    fn teardown(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        self.poller.deregister(conn.stream.as_raw_fd());
        let m = &self.shared.metrics;
        if let Some(state) = conn.state.take() {
            if state.session.is_some() {
                // Dropping the Session rolls back any open transaction
                // and releases the admission slot; mirror that in the
                // wire metrics so opened == closed + active stays an
                // invariant even for aborted connections.
                m.sessions_active.sub(1);
                m.sessions_closed.inc();
            }
        }
        m.connections_active.sub(1);
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>, done_tx: &Sender<Done>, waker: &Waker) {
    loop {
        // The guard drops at the end of this statement, so a worker
        // serving a batch never blocks its peers' queue pops. A poisoned
        // lock (a peer panicked mid-pop) is recovered rather than
        // unwrapped: the receiver is still structurally sound, and
        // killing every worker over one bad connection would turn a
        // single panic into a full outage.
        let next = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        let Ok(job) = next else {
            break;
        };
        let _ = done_tx.send(serve_batch(shared, job));
        // Also starts the drain promptly after a `Shutdown` request.
        waker.wake();
    }
}

/// Serves one dispatched batch in order: each frame's answer is written
/// before the next frame is served. A frame that does not decode, and
/// the batch's trailing framing fault, are answered with a `protocol`
/// error and close the connection. Once a request closes the connection,
/// the rest of the batch is dropped (the client's pipelined successors
/// die with it, as they would have on a serial connection).
fn serve_batch(shared: &Shared, job: Job) -> Done {
    let Job {
        token,
        frames,
        fault,
        mut state,
        stream,
    } = job;
    let fault = fault.map(|f| match f {
        Fault::Malformed => "malformed frame".to_string(),
        Fault::Oversize(len) => format!(
            "frame of {len} bytes exceeds the {}-byte limit",
            shared.cfg.max_frame
        ),
    });
    let requests = frames
        .into_iter()
        .map(|f| Request::decode(f.code, &f.body).map_err(|e| e.to_string()))
        .chain(fault.map(Err));
    let mut close = false;
    for request in requests {
        let span = shared.metrics.request_ns.span();
        let (resp, last) = match request {
            Ok(req) => respond(req, &mut state, shared),
            Err(message) => (error("protocol", message), true),
        };
        match send(shared, &stream, &resp, shared.cfg.request_timeout) {
            Ok(true) => {}
            // The answer did not fit a frame; what remains of the
            // result it came from is dropped with it.
            Ok(false) => state.pending = None,
            Err(_) => close = true,
        }
        drop(span);
        close |= last;
        if close {
            break;
        }
    }
    Done {
        token,
        state,
        close,
    }
}

/// Gates a session-open on protocol version and credentials. Returns the
/// refusal to send (the connection closes) or `None` to proceed.
fn session_gate(version: u8, user: &str, password: &str, shared: &Shared) -> Option<Response> {
    if version != PROTOCOL_VERSION {
        return Some(error(
            "protocol",
            format!("protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"),
        ));
    }
    let creds = shared.cfg.auth.as_ref()?;
    if !all_equal(&[(user, &creds.user), (password, &creds.password)]) {
        shared.metrics.auth_failures.inc();
        return Some(error("auth", "authentication failed"));
    }
    None
}

/// Whether every `(given, expected)` pair is equal. One fold visits
/// every byte pair of every field without exiting early, so the time
/// taken depends on the lengths, never on where the first differing
/// byte is.
fn all_equal(pairs: &[(&str, &str)]) -> bool {
    let diff = pairs.iter().fold(0u8, |diff, (given, expected)| {
        let (g, e) = (given.as_bytes(), expected.as_bytes());
        let diff = diff | u8::from(g.len() != e.len());
        g.iter().zip(e).fold(diff, |d, (x, y)| d | (x ^ y))
    });
    diff == 0
}

/// Maps one decoded request to its answer and whether the connection
/// closes after it. Runs the request against the connection's session
/// and the governor; the caller writes the answer.
fn respond(req: Request, state: &mut SessionState, shared: &Shared) -> (Response, bool) {
    let m = &shared.metrics;
    let as_of = match &req {
        Request::AsOf { ts, .. } => Some(*ts),
        _ => None,
    };
    let answer = match req {
        Request::StartSession {
            version,
            database,
            user,
            password,
        }
        | Request::AsOf {
            version,
            database,
            user,
            password,
            ..
        } => {
            if let Some(refusal) = session_gate(version, &user, &password, shared) {
                return (refusal, true);
            }
            if state.session.is_some() {
                return (
                    error("conflict", "session already started on this connection"),
                    false,
                );
            }
            let opened = match as_of {
                None => shared.governor.try_connect(&database).inspect_err(|e| {
                    // Only the database's session limit turns a
                    // connection away.
                    if matches!(e, DbError::Conflict(_)) {
                        m.connections_rejected.inc();
                    }
                }),
                Some(ts) => shared
                    .governor
                    .database(&database)
                    .and_then(|db| db.session_as_of(ts)),
            };
            let mut sess = match opened {
                Ok(sess) => sess,
                Err(e) => return (db_error(&e), true),
            };
            // The connection's cancel flag reaches the executor through
            // the session, so a parsed Cancel aborts the running
            // statement.
            sess.set_cancel_flag(state.cancel.clone());
            state.session = Some(sess);
            state.db_name = Some(database);
            m.sessions_opened.inc();
            m.sessions_active.add(1);
            Ok(Response::SessionStarted)
        }
        Request::CloseSession => {
            if state.session.take().is_some() {
                m.sessions_active.sub(1);
                m.sessions_closed.inc();
            }
            // Drops any live cursor: pins released, transaction committed.
            state.pending = None;
            return (Response::SessionClosed, true);
        }
        Request::Cancel => {
            // Served strictly in order, so every request queued before
            // the Cancel has already been answered: dropping the pending
            // result here aborts exactly the statement the client raced
            // against (a live cursor's Drop commits its transaction and
            // releases its pins). The flag itself was raised out-of-band
            // when the frame was parsed; clearing it re-arms the
            // connection for later statements.
            state.pending = None;
            state.cancel.clear();
            Ok(Response::Cancelled)
        }
        Request::Ping => Ok(Response::Pong),
        Request::GetMetrics => Ok(Response::Metrics(shared.governor.render_prometheus())),
        Request::Shutdown => {
            // The worker wakes the event thread after this batch, which
            // ends here, so the drain starts right away.
            shared.shutdown.store(true, Ordering::SeqCst);
            return (Response::ShuttingDown, true);
        }
        // Admin requests: sessionless, so a tool connection can manage
        // forks without opening a wire session first.
        Request::Fork { parent, name } => {
            shared
                .governor
                .fork_database(&parent, &name)
                .map(|fork| Response::ForkOk {
                    ts: fork.fork_point().unwrap_or(0),
                })
        }
        Request::DropFork { name } => shared
            .governor
            .database(&name)
            .and_then(|db| {
                if !db.is_fork() {
                    return Err(DbError::Conflict(format!(
                        "database '{name}' is not a fork; use DropDatabase"
                    )));
                }
                shared.governor.drop_database(&name)
            })
            .map(|()| Response::ForkDropped),
        Request::DropDatabase { name } => shared
            .governor
            .drop_database(&name)
            .map(|()| Response::DatabaseDropped),
        other => match state.session.as_mut() {
            None => Ok(error("conflict", "no session started on this connection")),
            Some(sess) => {
                let name = state.db_name.as_deref();
                session_request(other, sess, &mut state.pending, name, shared)
            }
        },
    };
    (answer.unwrap_or_else(|e| db_error(&e)), false)
}

/// Answers a request that runs on the connection's session.
fn session_request(
    req: Request,
    sess: &mut sedna::Session,
    pending: &mut Option<ItemStream>,
    db_name: Option<&str>,
    shared: &Shared,
) -> DbResult<Response> {
    let m = &shared.metrics;
    match req {
        Request::Begin { read_only } => if read_only {
            sess.begin_read_only()
        } else {
            sess.begin_update()
        }
        .map(|_| Response::TxnOk),
        Request::Commit => sess.commit().map(|_| Response::TxnOk),
        Request::Rollback => sess.rollback().map(|_| Response::TxnOk),
        Request::Execute { stmt, trace } => {
            // The force flag lives only for this one statement.
            sess.set_trace_forced(trace);
            let executed = sess.execute_stream(&stmt);
            sess.set_trace_forced(false);
            Ok(match executed? {
                StreamOutcome::Items(items) => {
                    let n = items.len() as u64;
                    *pending = Some(Box::new(items.into_iter().map(Ok)));
                    Response::QueryOk(n)
                }
                StreamOutcome::Cursor(cur) => {
                    // A live cursor: nothing has executed yet, so the
                    // cardinality is unknown — the sentinel tells the
                    // client to fetch until end-of-result.
                    *pending = Some(cur);
                    Response::QueryOk(u64::MAX)
                }
                StreamOutcome::Updated(n) => {
                    *pending = None;
                    Response::Updated(n as u64)
                }
                StreamOutcome::Done => {
                    *pending = None;
                    Response::Done
                }
            })
        }
        Request::FetchNext => {
            let (mut batch, _) = fetch_items(pending, 1, shared.cfg.max_frame, m)?;
            Ok(batch.pop().map_or(Response::ResultEnd, Response::Item))
        }
        Request::FetchBatch { max: 0 } => {
            Ok(error("protocol", "fetch batch size must be at least 1"))
        }
        Request::FetchBatch { max } => fetch_items(pending, max as usize, shared.cfg.max_frame, m)
            .map(|(items, done)| Response::ItemBatch { items, done }),
        Request::LoadXml { doc, xml } => sess.load_xml(&doc, &xml).map(Response::Loaded),
        Request::Activity => database_of(db_name, shared).map(|db| {
            let report = db.activity();
            Response::ActivityReply {
                sessions: report
                    .sessions
                    .into_iter()
                    .map(|s| ActivityRow {
                        session_id: s.session_id,
                        statement: s.statement,
                        statement_age_ms: s.statement_age.as_millis() as u64,
                        txn: s.txn.as_str().to_string(),
                        items_streamed: s.items_streamed,
                    })
                    .collect(),
                pinned_pages: report.pinned_pages,
            }
        }),
        Request::SlowLog => database_of(db_name, shared).map(|db| {
            Response::SlowLogReply(
                db.slow_log()
                    .into_iter()
                    .map(|e| SlowLogRow {
                        statement: e.statement,
                        total_ns: e.total_ns,
                        trace_id: e.trace_id,
                    })
                    .collect(),
            )
        }),
        Request::GetTrace { trace_id } => {
            let id = if trace_id == 0 {
                sess.last_trace_id()
            } else {
                trace_id
            };
            let events = database_of(db_name, shared)?.get_trace(id).ok_or_else(|| {
                DbError::NotFound(if trace_id == 0 {
                    "no trace published by this session yet".into()
                } else {
                    format!("trace {id} (evicted from the ring, or never kept)")
                })
            })?;
            Ok(Response::Trace {
                trace_id: id,
                json: chrome_trace_json(&events),
            })
        }
        Request::ExplainAnalyze { stmt } => {
            // Replaces any pending result, exactly like Execute.
            *pending = None;
            sess.explain_analyze(&stmt).map(Response::Explain)
        }
        // Every sessionless request is answered by `respond`; this arm
        // is structurally unreachable but kept total so the match needs
        // no panic.
        _ => Err(DbError::Conflict(
            "request cannot be served on a session connection".into(),
        )),
    }
}

/// Resolves the connection's database handle for introspection requests.
/// The name is always set once a session started; the governor lookup
/// can still fail if the database was shut down underneath us.
fn database_of(name: Option<&str>, shared: &Shared) -> DbResult<sedna::Database> {
    let name = name.ok_or_else(|| DbError::Conflict("no session started".into()))?;
    shared.governor.database(name)
}

fn error(kind: &str, message: impl Into<String>) -> Response {
    Response::Error {
        kind: kind.into(),
        message: message.into(),
    }
}

fn db_error(e: &DbError) -> Response {
    error(error_kind(e), e.to_string())
}

/// The one place a [`Response`] is encoded onto a socket. Writes the
/// whole frame to the (non-blocking) socket, waiting for writability
/// between short writes up to `timeout`. A response whose frame exceeds
/// the configured cap goes out as a `protocol` error naming both sizes
/// instead; the return value says whether `resp` itself fit.
fn send(
    shared: &Shared,
    stream: &TcpStream,
    resp: &Response,
    timeout: Duration,
) -> io::Result<bool> {
    let m = &shared.metrics;
    let cap = shared.cfg.max_frame;
    let mut buf = Vec::new();
    resp.write_to(&mut buf)?;
    // The length prefix counts the code byte and the body, not itself.
    let len = buf.len() - 4;
    let fits = len <= cap;
    if !fits {
        buf.clear();
        let message = format!("response frame of {len} bytes exceeds the {cap}-byte limit");
        error("protocol", message).write_to(&mut buf)?;
    }
    if !fits || matches!(resp, Response::Error { .. }) {
        m.errors.inc();
    }
    write_all_nb(stream, &buf, timeout)?;
    m.bytes_out.add(buf.len() as u64);
    Ok(fits)
}

/// Writes the whole buffer to a non-blocking socket, parking on
/// `poll(2)` writability whenever the send buffer fills, within a total
/// deadline of `timeout`.
fn write_all_nb(mut stream: &TcpStream, buf: &[u8], timeout: Duration) -> io::Result<()> {
    let deadline = Instant::now() + timeout;
    let mut off = 0usize;
    while off < buf.len() {
        match stream.write(&buf[off..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                poller::wait_writable(stream.as_raw_fd(), deadline - now)?;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Stable machine-readable class for a [`DbError`], carried in the wire
/// error envelope's `kind` field.
pub fn error_kind(e: &DbError) -> &'static str {
    match e {
        DbError::Sas(_) => "sas",
        DbError::Storage(_) => "storage",
        DbError::Query(_) => "query",
        DbError::Wal(_) => "wal",
        DbError::Index(_) => "index",
        DbError::Lock(_) => "lock",
        DbError::Io(_) => "io",
        DbError::NotFound(_) => "not_found",
        DbError::Conflict(_) => "conflict",
        DbError::Cancelled => "cancelled",
    }
}

#[cfg(test)]
mod tests {
    use super::all_equal;

    #[test]
    fn credentials_compare_by_every_byte_and_the_length() {
        assert!(all_equal(&[("admin", "admin"), ("s3cret", "s3cret")]));
        assert!(all_equal(&[("", ""), ("", "")]));
        // Same length, one byte off: first, last, in either field.
        assert!(!all_equal(&[("admin", "Admin"), ("s3cret", "s3cret")]));
        assert!(!all_equal(&[("admin", "admin"), ("s3cret", "s3creT")]));
        // A prefix is not a match, in either direction, nor is empty.
        assert!(!all_equal(&[("admin", "admin"), ("s3c", "s3cret")]));
        assert!(!all_equal(&[("admin", "admin"), ("s3cret!", "s3cret")]));
        assert!(!all_equal(&[("", "admin"), ("s3cret", "s3cret")]));
        assert!(!all_equal(&[("admin", "admin"), ("s3cret", "")]));
    }
}
