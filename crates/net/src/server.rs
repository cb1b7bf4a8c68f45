//! The network listener: a non-blocking readiness loop feeding a
//! bounded worker pool.
//!
//! Figure 1 of the paper puts a *listener* in the governor process that
//! accepts client connections and hands each one to a per-client session
//! component. This module reproduces that shape with a readiness-loop
//! split: one **event thread** owns every socket in non-blocking mode
//! behind a small poller abstraction (`epoll(7)` on Linux, `poll(2)`
//! elsewhere — see [`crate::poller`]), parses frames incrementally per
//! connection, and hands complete requests to `workers` **worker
//! threads** that execute them against the wire session
//! ([`sedna::Session`]) and write the responses. N idle connections cost
//! O(N) kernel registrations and zero per-tick syscalls — there is no
//! per-connection read-timeout poll, so the server's thread count is
//! independent of its connection count.
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

use sedna::{chrome_trace_json, CancelFlag, DbError, DbResult, Governor, StreamOutcome};

use crate::conn::{fetch_items, Conn, Fault, Frame, Pending, SessionState};
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
    /// Clone of the connection's socket for writing responses.
    stream: TcpStream,
    cancel: CancelFlag,
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
            if self.conns.len() >= self.shared.cfg.max_conns.max(1) {
                reject_overloaded(&self.shared, stream);
                continue;
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
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
            let stream = match conn.stream.try_clone() {
                Ok(s) => s,
                Err(_) => {
                    conn.state = Some(state);
                    self.teardown(token);
                    return false;
                }
            };
            conn.busy = true;
            Job {
                token,
                frames,
                fault,
                state,
                stream,
                cancel: conn.cancel.clone(),
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
            self.notify(token, &Response::ShuttingDown);
            self.teardown(token);
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
            self.notify(token, &Response::ShuttingDown);
            self.teardown(token);
        }
    }

    /// Closes connections that idled out, or stalled mid-frame past the
    /// request deadline.
    fn sweep_timeouts(&mut self) {
        let cfg = &self.shared.cfg;
        let mut idle = Vec::new();
        let mut stalled = Vec::new();
        for (token, conn) in &self.conns {
            if conn.busy || conn.closing || !conn.queue.is_empty() {
                continue;
            }
            if let Some(started) = conn.frame_started {
                if started.elapsed() >= cfg.request_timeout {
                    stalled.push(*token);
                }
            } else if conn.last_activity.elapsed() >= cfg.idle_timeout {
                idle.push(*token);
            }
        }
        for token in idle {
            self.notify(
                token,
                &Response::Error {
                    kind: "timeout".into(),
                    message: "idle timeout".into(),
                },
            );
            self.teardown(token);
        }
        for token in stalled {
            self.notify(
                token,
                &Response::Error {
                    kind: "protocol".into(),
                    message: "malformed or timed-out frame".into(),
                },
            );
            self.teardown(token);
        }
    }

    /// Best-effort, non-blocking notification from the event thread
    /// (only used on paths where the connection closes right after, so a
    /// full send buffer just loses a courtesy message).
    fn notify(&mut self, token: u64, resp: &Response) {
        let m = &self.shared.metrics;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if matches!(resp, Response::Error { .. }) {
            m.errors.inc();
        }
        let mut buf = Vec::new();
        if resp.write_to(&mut buf).is_err() {
            return;
        }
        let mut off = 0usize;
        while off < buf.len() {
            match conn.stream.write(&buf[off..]) {
                Ok(0) => break,
                Ok(n) => off += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        m.bytes_out.add(off as u64);
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

fn reject_overloaded(shared: &Shared, mut stream: TcpStream) {
    shared.metrics.connections_rejected.inc();
    shared.metrics.errors.inc();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let resp = Response::Error {
        kind: "overloaded".into(),
        message: "server connection limit reached; retry later".into(),
    };
    if let Ok(n) = resp.write_to(&mut stream) {
        shared.metrics.bytes_out.add(n as u64);
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
        let mut job = match next {
            Ok(job) => job,
            Err(_) => break,
        };
        let close = serve_batch(shared, waker, &mut job);
        let _ = done_tx.send(Done {
            token: job.token,
            state: job.state,
            close,
        });
        waker.wake();
    }
}

/// Serves one dispatched batch in order. Returns whether the connection
/// should close; once a request closes the connection, the rest of the
/// batch is dropped (the client's pipelined successors die with it, as
/// they would have on a serial connection).
fn serve_batch(shared: &Shared, waker: &Waker, job: &mut Job) -> bool {
    let m = &shared.metrics;
    let timeout = shared.cfg.request_timeout;
    let frames: Vec<Frame> = job.frames.drain(..).collect();
    let mut close = false;
    for frame in frames {
        if close {
            break;
        }
        let span = m.request_ns.span();
        let outcome = match Request::decode(frame.code, &frame.body) {
            Ok(req) => handle_request(job, req, shared, waker),
            Err(e) => send(
                &mut job.stream,
                m,
                &Response::Error {
                    kind: "protocol".into(),
                    message: e.to_string(),
                },
                timeout,
            )
            .map(|()| true),
        };
        drop(span);
        close = outcome.unwrap_or(true);
    }
    if !close {
        if let Some(fault) = job.fault.take() {
            let resp = match fault {
                Fault::Malformed => Response::Error {
                    kind: "protocol".into(),
                    message: "malformed frame".into(),
                },
                Fault::Oversize(len) => Response::Error {
                    kind: "protocol".into(),
                    message: format!(
                        "frame of {len} bytes exceeds the {}-byte limit",
                        shared.cfg.max_frame
                    ),
                },
            };
            let _ = send(&mut job.stream, m, &resp, timeout);
            close = true;
        }
    }
    close
}

/// Gates a session-open on protocol version and credentials. Returns the
/// refusal to send (the connection closes) or `None` to proceed.
fn session_gate(version: u8, user: &str, password: &str, shared: &Shared) -> Option<Response> {
    if version != PROTOCOL_VERSION {
        return Some(Response::Error {
            kind: "protocol".into(),
            message: format!(
                "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
            ),
        });
    }
    let creds = shared.cfg.auth.as_ref()?;
    if user != creds.user || password != creds.password {
        shared.metrics.auth_failures.inc();
        return Some(Response::Error {
            kind: "auth".into(),
            message: "authentication failed".into(),
        });
    }
    None
}

/// Serves one decoded request. `Ok(true)` means close the connection
/// afterwards; `Err` means the response could not be written (peer gone).
fn handle_request(job: &mut Job, req: Request, shared: &Shared, waker: &Waker) -> io::Result<bool> {
    let m = &shared.metrics;
    let timeout = shared.cfg.request_timeout;
    let Job {
        state,
        stream,
        cancel,
        ..
    } = job;
    match req {
        Request::StartSession {
            version,
            database,
            user,
            password,
        } => {
            if let Some(refusal) = session_gate(version, &user, &password, shared) {
                send(stream, m, &refusal, timeout)?;
                return Ok(true);
            }
            if state.session.is_some() {
                send(
                    stream,
                    m,
                    &Response::Error {
                        kind: "conflict".into(),
                        message: "session already started on this connection".into(),
                    },
                    timeout,
                )?;
                return Ok(false);
            }
            match shared.governor.try_connect(&database) {
                Ok(mut sess) => {
                    // The connection's cancel flag reaches the executor
                    // through the session, so a parsed Cancel aborts the
                    // running statement.
                    sess.set_cancel_flag(cancel.clone());
                    state.session = Some(sess);
                    state.db_name = Some(database);
                    m.sessions_opened.inc();
                    m.sessions_active.add(1);
                    send(stream, m, &Response::SessionStarted, timeout)?;
                    Ok(false)
                }
                Err(e) => {
                    if matches!(e, DbError::Conflict(_)) {
                        // The database's session limit turned us away.
                        m.connections_rejected.inc();
                    }
                    send_db_error(stream, m, &e, timeout)?;
                    Ok(true)
                }
            }
        }
        Request::CloseSession => {
            if state.session.take().is_some() {
                m.sessions_active.sub(1);
                m.sessions_closed.inc();
            }
            // Drops any live cursor: pins released, transaction committed.
            state.pending = Pending::None;
            send(stream, m, &Response::SessionClosed, timeout)?;
            Ok(true)
        }
        Request::Cancel => {
            // Served strictly in order, so every request queued before
            // the Cancel has already been answered: dropping the pending
            // result here aborts exactly the statement the client raced
            // against (a live cursor's Drop commits its transaction and
            // releases its pins). The flag itself was raised out-of-band
            // when the frame was parsed; clearing it re-arms the
            // connection for later statements.
            state.pending = Pending::None;
            cancel.clear();
            send(stream, m, &Response::Cancelled, timeout)?;
            Ok(false)
        }
        Request::Ping => {
            send(stream, m, &Response::Pong, timeout)?;
            Ok(false)
        }
        Request::GetMetrics => {
            let text = shared.governor.render_prometheus();
            send(stream, m, &Response::Metrics(text), timeout)?;
            Ok(false)
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            // Wake the event thread so the drain starts immediately.
            waker.wake();
            send(stream, m, &Response::ShuttingDown, timeout)?;
            Ok(true)
        }
        Request::AsOf {
            version,
            database,
            ts,
            user,
            password,
        } => {
            if let Some(refusal) = session_gate(version, &user, &password, shared) {
                send(stream, m, &refusal, timeout)?;
                return Ok(true);
            }
            if state.session.is_some() {
                send(
                    stream,
                    m,
                    &Response::Error {
                        kind: "conflict".into(),
                        message: "session already started on this connection".into(),
                    },
                    timeout,
                )?;
                return Ok(false);
            }
            match shared
                .governor
                .database(&database)
                .and_then(|db| db.session_as_of(ts))
            {
                Ok(mut sess) => {
                    sess.set_cancel_flag(cancel.clone());
                    state.session = Some(sess);
                    state.db_name = Some(database);
                    m.sessions_opened.inc();
                    m.sessions_active.add(1);
                    send(stream, m, &Response::SessionStarted, timeout)?;
                    Ok(false)
                }
                Err(e) => {
                    send_db_error(stream, m, &e, timeout)?;
                    Ok(true)
                }
            }
        }
        // Admin requests: sessionless, so a tool connection can manage
        // forks without opening a wire session first.
        Request::Fork { parent, name } => {
            match shared.governor.fork_database(&parent, &name) {
                Ok(fork) => {
                    let ts = fork.fork_point().unwrap_or(0);
                    send(stream, m, &Response::ForkOk { ts }, timeout)?;
                }
                Err(e) => send_db_error(stream, m, &e, timeout)?,
            }
            Ok(false)
        }
        Request::DropFork { name } => {
            let result = shared.governor.database(&name).and_then(|db| {
                if !db.is_fork() {
                    return Err(DbError::Conflict(format!(
                        "database '{name}' is not a fork; use DropDatabase"
                    )));
                }
                shared.governor.drop_database(&name)
            });
            match result {
                Ok(()) => send(stream, m, &Response::ForkDropped, timeout)?,
                Err(e) => send_db_error(stream, m, &e, timeout)?,
            }
            Ok(false)
        }
        Request::DropDatabase { name } => {
            match shared.governor.drop_database(&name) {
                Ok(()) => send(stream, m, &Response::DatabaseDropped, timeout)?,
                Err(e) => send_db_error(stream, m, &e, timeout)?,
            }
            Ok(false)
        }
        other => {
            let Some(sess) = state.session.as_mut() else {
                send(
                    stream,
                    m,
                    &Response::Error {
                        kind: "conflict".into(),
                        message: "no session started on this connection".into(),
                    },
                    timeout,
                )?;
                return Ok(false);
            };
            let resp = match other {
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
                    match executed {
                        Ok(StreamOutcome::Items(items)) => {
                            let n = items.len() as u64;
                            state.pending = Pending::Buffered(items.into_iter().collect());
                            Ok(Response::QueryOk(n))
                        }
                        Ok(StreamOutcome::Cursor(cur)) => {
                            // A live cursor: nothing has executed yet, so the
                            // cardinality is unknown — the sentinel tells the
                            // client to fetch until end-of-result.
                            state.pending = Pending::Stream(cur);
                            Ok(Response::QueryOk(u64::MAX))
                        }
                        Ok(StreamOutcome::Updated(n)) => {
                            state.pending = Pending::None;
                            Ok(Response::Updated(n as u64))
                        }
                        Ok(StreamOutcome::Done) => {
                            state.pending = Pending::None;
                            Ok(Response::Done)
                        }
                        Err(e) => Err(e),
                    }
                }
                Request::FetchNext => match fetch_items(&mut state.pending, 1, m) {
                    Ok((mut batch, _)) => match batch.pop() {
                        Some(item) => Ok(Response::Item(item)),
                        None => Ok(Response::ResultEnd),
                    },
                    Err(e) => Err(e),
                },
                Request::FetchBatch { max } => {
                    if max == 0 {
                        Ok(Response::Error {
                            kind: "protocol".into(),
                            message: "fetch batch size must be at least 1".into(),
                        })
                    } else {
                        fetch_items(&mut state.pending, max as usize, m)
                            .map(|(items, done)| Response::ItemBatch { items, done })
                    }
                }
                Request::LoadXml { doc, xml } => sess.load_xml(&doc, &xml).map(Response::Loaded),
                Request::Activity => database_of(state.db_name.as_deref(), shared).map(|db| {
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
                Request::SlowLog => database_of(state.db_name.as_deref(), shared).map(|db| {
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
                    database_of(state.db_name.as_deref(), shared).and_then(|db| {
                        db.get_trace(id)
                            .map(|events| Response::Trace {
                                trace_id: id,
                                json: chrome_trace_json(&events),
                            })
                            .ok_or_else(|| {
                                DbError::NotFound(if trace_id == 0 {
                                    "no trace published by this session yet".into()
                                } else {
                                    format!("trace {id} (evicted from the ring, or never kept)")
                                })
                            })
                    })
                }
                Request::ExplainAnalyze { stmt } => {
                    // Replaces any pending result, exactly like Execute.
                    state.pending = Pending::None;
                    sess.explain_analyze(&stmt).map(Response::Explain)
                }
                // Every sessionless request was handled above; this arm
                // is structurally unreachable but kept total so the
                // match needs no panic.
                _ => Err(DbError::Conflict(
                    "request cannot be served on a session connection".into(),
                )),
            };
            match resp {
                Ok(r) => send(stream, m, &r, timeout)?,
                Err(e) => send_db_error(stream, m, &e, timeout)?,
            }
            Ok(false)
        }
    }
}

/// Resolves the connection's database handle for introspection requests.
/// The name is always set once a session started; the governor lookup
/// can still fail if the database was shut down underneath us.
fn database_of(name: Option<&str>, shared: &Shared) -> DbResult<sedna::Database> {
    let name = name.ok_or_else(|| DbError::Conflict("no session started".into()))?;
    shared.governor.database(name)
}

/// Serializes `resp` and writes it to the (non-blocking) socket,
/// waiting for writability between short writes up to `timeout`.
fn send(
    stream: &mut TcpStream,
    m: &NetMetrics,
    resp: &Response,
    timeout: Duration,
) -> io::Result<()> {
    if matches!(resp, Response::Error { .. }) {
        m.errors.inc();
    }
    let mut buf = Vec::new();
    let n = resp.write_to(&mut buf)?;
    write_all_nb(stream, &buf, timeout)?;
    m.bytes_out.add(n as u64);
    Ok(())
}

fn send_db_error(
    stream: &mut TcpStream,
    m: &NetMetrics,
    e: &DbError,
    timeout: Duration,
) -> io::Result<()> {
    send(
        stream,
        m,
        &Response::Error {
            kind: error_kind(e).into(),
            message: e.to_string(),
        },
        timeout,
    )
}

/// Writes the whole buffer to a non-blocking socket, parking on
/// `poll(2)` writability whenever the send buffer fills, within a total
/// deadline of `timeout`.
fn write_all_nb(stream: &mut TcpStream, buf: &[u8], timeout: Duration) -> io::Result<()> {
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
