//! The Sedna wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! +----------------+-----------+----------------------+
//! | length: u32 BE | code: u8  | body: length-1 bytes |
//! +----------------+-----------+----------------------+
//! ```
//!
//! The length covers the code byte plus the body, so an empty-bodied
//! message has length 1. Within bodies, integers are big-endian and
//! strings are a `u32` byte length followed by UTF-8 bytes. The original
//! Sedna protocol works the same way (se_ErrorResponse, se_Execute,
//! se_GetNextItem, ... message codes over length-prefixed packets); the
//! codes here are this reproduction's own numbering.
//!
//! Requests occupy `0x01..=0x7F`, responses `0x80..=0xFF`, with
//! [`codes::ERROR`] (`0xEE`) as the structured error envelope carrying a
//! machine-readable kind plus a human-readable message.

use std::io::{self, Read, Write};

/// Protocol revision carried in [`Request::StartSession`] /
/// [`Request::AsOf`]: request pipelining, [`Request::Cancel`], and
/// credentials on session open. The server speaks exactly this
/// revision; a session open announcing any other is refused with a
/// `protocol` error naming it.
pub const PROTOCOL_VERSION: u8 = 2;

/// Default cap on a single frame (length field), applied by both ends.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Message codes, one byte at the head of every frame.
pub mod codes {
    /// Open a session: `version: u8`, `database: str`, `user: str`,
    /// `password: str`.
    pub const START_SESSION: u8 = 0x01;
    /// Close the session gracefully (empty body).
    pub const CLOSE_SESSION: u8 = 0x02;
    /// Begin a transaction: `read_only: u8` (0 = update, 1 = read-only).
    pub const BEGIN: u8 = 0x03;
    /// Commit the open transaction (empty body).
    pub const COMMIT: u8 = 0x04;
    /// Roll back the open transaction (empty body).
    pub const ROLLBACK: u8 = 0x05;
    /// Execute a statement: `stmt: str`, then an optional trailing
    /// `trace: u8` flag (absent = 0; 1 forces a trace of this statement
    /// to be captured and published, retrievable via [`GET_TRACE`]).
    pub const EXECUTE: u8 = 0x06;
    /// Pull the next result item of the last query (empty body).
    pub const FETCH_NEXT: u8 = 0x07;
    /// Liveness probe (empty body).
    pub const PING: u8 = 0x08;
    /// Fetch the system-wide Prometheus metrics text (empty body).
    pub const GET_METRICS: u8 = 0x09;
    /// Ask the server to drain and shut down (empty body).
    pub const SHUTDOWN: u8 = 0x0A;
    /// Bulk-load a document: `doc: str`, `xml: str`.
    pub const LOAD_XML: u8 = 0x0B;
    /// Pull up to `max: u32` result items in one frame.
    pub const FETCH_BATCH: u8 = 0x0C;
    /// Fetch the database's live session-activity view (empty body).
    pub const ACTIVITY: u8 = 0x0D;
    /// Fetch the database's slow-query log (empty body).
    pub const SLOW_LOG: u8 = 0x0E;
    /// Fetch a query trace from the trace ring: `trace_id: u64`
    /// (`0` = this session's most recent trace).
    pub const GET_TRACE: u8 = 0x0F;
    /// Execute a statement with per-operator timing and return the
    /// rendered report: `stmt: str`.
    pub const EXPLAIN_ANALYZE: u8 = 0x10;
    /// Fork a database copy-on-write (sessionless admin request):
    /// `parent: str`, `name: str`.
    pub const FORK: u8 = 0x11;
    /// Drop a fork (sessionless admin request): `name: str`.
    pub const DROP_FORK: u8 = 0x12;
    /// Drop a database — a fork, or a root without live forks
    /// (sessionless admin request): `name: str`.
    pub const DROP_DATABASE: u8 = 0x13;
    /// Open an `AS OF` time-travel session pinned to the newest retained
    /// snapshot at or before `ts`: `version: u8`, `database: str`,
    /// `ts: u64`, `user: str`, `password: str`.
    /// Answered with [`SESSION_STARTED`], like [`START_SESSION`].
    pub const AS_OF: u8 = 0x14;
    /// Abort the running (or queued) statement out-of-band: the server
    /// reads ahead of in-flight requests, flags the session, and the
    /// statement fails with a `cancelled` error at its next pull or
    /// statement boundary. Answered in request order with [`CANCELLED`]
    /// once the abort has taken effect and any open cursor is dropped.
    /// Empty body.
    pub const CANCEL: u8 = 0x15;

    /// Session opened.
    pub const SESSION_STARTED: u8 = 0x81;
    /// Session closed.
    pub const SESSION_CLOSED: u8 = 0x82;
    /// Transaction control acknowledged.
    pub const TXN_OK: u8 = 0x83;
    /// Statement was an update: `count: u64` nodes affected.
    pub const UPDATED: u8 = 0x84;
    /// Statement produced no result (DDL, load).
    pub const DONE: u8 = 0x85;
    /// Statement was a query: `items: u64` available for fetching.
    /// `u64::MAX` means the result is a live streaming cursor whose
    /// cardinality is unknown until drained.
    pub const QUERY_OK: u8 = 0x86;
    /// One result item: `text: str`.
    pub const ITEM: u8 = 0x87;
    /// No more result items.
    pub const RESULT_END: u8 = 0x88;
    /// Liveness reply.
    pub const PONG: u8 = 0x89;
    /// Prometheus metrics text: `text: str`.
    pub const METRICS: u8 = 0x8A;
    /// Server is draining; the connection will close.
    pub const SHUTTING_DOWN: u8 = 0x8B;
    /// Document loaded: `nodes: u64` stored.
    pub const LOADED: u8 = 0x8C;
    /// A batch of result items: `count: u32`, `count` strings,
    /// `done: u8` (1 = the result is exhausted; no RESULT_END follows).
    pub const ITEM_BATCH: u8 = 0x8D;
    /// The live activity view: `pinned_pages: i64`, `count: u32`, then
    /// per session `id: u64`, `has_stmt: u8` (+ `stmt: str` when 1),
    /// `age_ms: u64`, `txn: str`, `items_streamed: u64`.
    pub const ACTIVITY_REPLY: u8 = 0x8E;
    /// The slow-query log, most recent first: `count: u32`, then per
    /// entry `stmt: str`, `total_ns: u64`, `trace_id: u64`.
    pub const SLOW_LOG_REPLY: u8 = 0x8F;
    /// A query trace: `trace_id: u64`, `json: str` (Chrome trace-event
    /// format).
    pub const TRACE: u8 = 0x90;
    /// An `EXPLAIN ANALYZE` report: `report: str`.
    pub const EXPLAIN: u8 = 0x91;
    /// Fork created: `ts: u64`, the fork's branch-point commit
    /// timestamp.
    pub const FORK_OK: u8 = 0x92;
    /// Fork dropped.
    pub const FORK_DROPPED: u8 = 0x93;
    /// Database dropped.
    pub const DATABASE_DROPPED: u8 = 0x94;
    /// A [`CANCEL`] took effect: the statement (if any) was aborted,
    /// its cursor dropped, and the session is ready for more work.
    pub const CANCELLED: u8 = 0x95;
    /// Structured error envelope: `kind: str`, `message: str`.
    pub const ERROR: u8 = 0xEE;
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open a session on `database`, announcing the client's protocol
    /// `version` and its credentials.
    StartSession {
        /// Client protocol revision ([`PROTOCOL_VERSION`]).
        version: u8,
        /// Name of the database registered at the governor.
        database: String,
        /// User name (empty for unauthenticated clients).
        user: String,
        /// Password (empty like `user`).
        password: String,
    },
    /// Close the session gracefully.
    CloseSession,
    /// Begin a transaction.
    Begin {
        /// `true` for a read-only (snapshot) transaction.
        read_only: bool,
    },
    /// Commit the open transaction.
    Commit,
    /// Roll back the open transaction.
    Rollback,
    /// Execute one statement (query, update, or DDL).
    Execute {
        /// Statement text.
        stmt: String,
        /// Force a trace of this statement to be captured and
        /// published, regardless of the server's sampling policy.
        /// Encoded as an optional trailing byte, omitted when `false`.
        trace: bool,
    },
    /// Pull the next buffered result item.
    FetchNext,
    /// Pull up to `max` result items in one frame.
    FetchBatch {
        /// Maximum number of items to return (the server may send
        /// fewer; `0` is rejected).
        max: u32,
    },
    /// Liveness probe.
    Ping,
    /// Fetch the system-wide Prometheus metrics text.
    GetMetrics,
    /// Ask the server to drain and shut down.
    Shutdown,
    /// Bulk-load an XML document.
    LoadXml {
        /// Target document name (must already exist).
        doc: String,
        /// Document text.
        xml: String,
    },
    /// Fetch the session database's live activity view.
    Activity,
    /// Fetch the session database's slow-query log.
    SlowLog,
    /// Fetch a query trace from the database's trace ring.
    GetTrace {
        /// The trace to fetch; `0` means this session's most recent.
        trace_id: u64,
    },
    /// Execute a statement with per-operator timing and return the
    /// rendered `EXPLAIN ANALYZE` report. The statement really runs.
    ExplainAnalyze {
        /// Statement text.
        stmt: String,
    },
    /// Fork a registered database copy-on-write under a new name
    /// (sessionless admin request).
    Fork {
        /// The database (root or fork) to fork from.
        parent: String,
        /// The new fork's name (must be free at the governor).
        name: String,
    },
    /// Drop a fork by name (sessionless admin request).
    DropFork {
        /// The fork to drop.
        name: String,
    },
    /// Drop a database by name — a fork, or a root database without
    /// live forks (sessionless admin request).
    DropDatabase {
        /// The database to drop.
        name: String,
    },
    /// Open an `AS OF` time-travel session on `database`, pinned to the
    /// newest retained snapshot with commit timestamp `<= ts`. Answered
    /// with [`Response::SessionStarted`]; the session is read-only.
    AsOf {
        /// Client protocol revision ([`PROTOCOL_VERSION`]).
        version: u8,
        /// Name of the database registered at the governor.
        database: String,
        /// The time-travel target commit timestamp.
        ts: u64,
        /// User name (empty for unauthenticated clients).
        user: String,
        /// Password (empty like `user`).
        password: String,
    },
    /// Abort the running (or queued) statement out-of-band. Answered in
    /// request order with [`Response::Cancelled`] once any open cursor
    /// has been dropped; the connection stays usable.
    Cancel,
}

/// One session's row in an [`Response::ActivityReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityRow {
    /// Stable per-database session id.
    pub session_id: u64,
    /// The statement currently executing (or streaming), if any.
    pub statement: Option<String>,
    /// How long the current statement has been running, in
    /// milliseconds (zero when idle).
    pub statement_age_ms: u64,
    /// Transaction mode (`none`, `read-only`, `update`).
    pub txn: String,
    /// Items streamed through the session's cursors so far.
    pub items_streamed: u64,
}

/// One entry of a [`Response::SlowLogReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowLogRow {
    /// The statement text.
    pub statement: String,
    /// Wall-clock pipeline total in nanoseconds.
    pub total_ns: u64,
    /// Id of the trace captured for this statement (`0` = none kept).
    pub trace_id: u64,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Session opened.
    SessionStarted,
    /// Session closed.
    SessionClosed,
    /// Transaction control acknowledged.
    TxnOk,
    /// Update applied to this many nodes.
    Updated(u64),
    /// Statement produced no result.
    Done,
    /// Query succeeded with this many items buffered for fetching.
    QueryOk(u64),
    /// One result item.
    Item(String),
    /// No more result items.
    ResultEnd,
    /// A batch of result items.
    ItemBatch {
        /// The items, in result order.
        items: Vec<String>,
        /// `true` when the result is exhausted — the client must not
        /// fetch again (no separate [`Response::ResultEnd`] follows).
        done: bool,
    },
    /// Liveness reply.
    Pong,
    /// Prometheus metrics text.
    Metrics(String),
    /// Server is draining; the connection will close.
    ShuttingDown,
    /// Document loaded with this many nodes stored.
    Loaded(u64),
    /// The live activity view of the session's database.
    ActivityReply {
        /// One row per live session, ordered by session id.
        sessions: Vec<ActivityRow>,
        /// Buffer pages currently pinned across the database.
        pinned_pages: i64,
    },
    /// The slow-query log, most recent first.
    SlowLogReply(Vec<SlowLogRow>),
    /// A query trace in Chrome trace-event JSON.
    Trace {
        /// The resolved trace id (useful after a `GetTrace(0)`).
        trace_id: u64,
        /// The trace, Chrome trace-event JSON.
        json: String,
    },
    /// A rendered `EXPLAIN ANALYZE` report.
    Explain(String),
    /// Fork created; carries the branch-point commit timestamp (usable
    /// as an `AS OF` target on the parent).
    ForkOk {
        /// The fork's branch-point commit timestamp.
        ts: u64,
    },
    /// Fork dropped.
    ForkDropped,
    /// Database dropped.
    DatabaseDropped,
    /// A [`Request::Cancel`] took effect: the statement (if any) was
    /// aborted and the session is ready for more work.
    Cancelled,
    /// Structured error: machine-readable `kind` plus human `message`.
    Error {
        /// Stable error class (`query`, `conflict`, `not_found`, ...).
        kind: String,
        /// Human-readable description.
        message: String,
    },
}

impl Request {
    /// This request's frame code.
    pub fn code(&self) -> u8 {
        match self {
            Request::StartSession { .. } => codes::START_SESSION,
            Request::CloseSession => codes::CLOSE_SESSION,
            Request::Begin { .. } => codes::BEGIN,
            Request::Commit => codes::COMMIT,
            Request::Rollback => codes::ROLLBACK,
            Request::Execute { .. } => codes::EXECUTE,
            Request::FetchNext => codes::FETCH_NEXT,
            Request::FetchBatch { .. } => codes::FETCH_BATCH,
            Request::Ping => codes::PING,
            Request::GetMetrics => codes::GET_METRICS,
            Request::Shutdown => codes::SHUTDOWN,
            Request::LoadXml { .. } => codes::LOAD_XML,
            Request::Activity => codes::ACTIVITY,
            Request::SlowLog => codes::SLOW_LOG,
            Request::GetTrace { .. } => codes::GET_TRACE,
            Request::ExplainAnalyze { .. } => codes::EXPLAIN_ANALYZE,
            Request::Fork { .. } => codes::FORK,
            Request::DropFork { .. } => codes::DROP_FORK,
            Request::DropDatabase { .. } => codes::DROP_DATABASE,
            Request::AsOf { .. } => codes::AS_OF,
            Request::Cancel => codes::CANCEL,
        }
    }

    /// Serializes the body (everything after the code byte).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Request::StartSession {
                version,
                database,
                user,
                password,
            } => {
                b.push(*version);
                put_str(&mut b, database);
                put_str(&mut b, user);
                put_str(&mut b, password);
            }
            Request::Begin { read_only } => b.push(u8::from(*read_only)),
            Request::Execute { stmt, trace } => {
                put_str(&mut b, stmt);
                // The flag is a trailing optional byte: omitted when off.
                if *trace {
                    b.push(1);
                }
            }
            Request::FetchBatch { max } => b.extend_from_slice(&max.to_be_bytes()),
            Request::LoadXml { doc, xml } => {
                put_str(&mut b, doc);
                put_str(&mut b, xml);
            }
            Request::GetTrace { trace_id } => b.extend_from_slice(&trace_id.to_be_bytes()),
            Request::ExplainAnalyze { stmt } => put_str(&mut b, stmt),
            Request::Fork { parent, name } => {
                put_str(&mut b, parent);
                put_str(&mut b, name);
            }
            Request::DropFork { name } | Request::DropDatabase { name } => put_str(&mut b, name),
            Request::AsOf {
                version,
                database,
                ts,
                user,
                password,
            } => {
                b.push(*version);
                put_str(&mut b, database);
                b.extend_from_slice(&ts.to_be_bytes());
                put_str(&mut b, user);
                put_str(&mut b, password);
            }
            Request::CloseSession
            | Request::Commit
            | Request::Rollback
            | Request::FetchNext
            | Request::Ping
            | Request::GetMetrics
            | Request::Shutdown
            | Request::Activity
            | Request::SlowLog
            | Request::Cancel => {}
        }
        b
    }

    /// Parses a request from a frame's code and body.
    pub fn decode(code: u8, body: &[u8]) -> io::Result<Request> {
        let mut c = Cursor::new(body);
        let req = match code {
            codes::START_SESSION => Request::StartSession {
                version: c.take_u8()?,
                database: c.take_str()?,
                user: c.take_str()?,
                password: c.take_str()?,
            },
            codes::CLOSE_SESSION => Request::CloseSession,
            codes::BEGIN => Request::Begin {
                read_only: c.take_u8()? != 0,
            },
            codes::COMMIT => Request::Commit,
            codes::ROLLBACK => Request::Rollback,
            codes::EXECUTE => {
                let stmt = c.take_str()?;
                let trace = if c.remaining() > 0 {
                    c.take_u8()? != 0
                } else {
                    false
                };
                Request::Execute { stmt, trace }
            }
            codes::FETCH_NEXT => Request::FetchNext,
            codes::FETCH_BATCH => Request::FetchBatch { max: c.take_u32()? },
            codes::PING => Request::Ping,
            codes::GET_METRICS => Request::GetMetrics,
            codes::SHUTDOWN => Request::Shutdown,
            codes::LOAD_XML => Request::LoadXml {
                doc: c.take_str()?,
                xml: c.take_str()?,
            },
            codes::ACTIVITY => Request::Activity,
            codes::SLOW_LOG => Request::SlowLog,
            codes::GET_TRACE => Request::GetTrace {
                trace_id: c.take_u64()?,
            },
            codes::EXPLAIN_ANALYZE => Request::ExplainAnalyze {
                stmt: c.take_str()?,
            },
            codes::FORK => Request::Fork {
                parent: c.take_str()?,
                name: c.take_str()?,
            },
            codes::DROP_FORK => Request::DropFork {
                name: c.take_str()?,
            },
            codes::DROP_DATABASE => Request::DropDatabase {
                name: c.take_str()?,
            },
            codes::AS_OF => Request::AsOf {
                version: c.take_u8()?,
                database: c.take_str()?,
                ts: c.take_u64()?,
                user: c.take_str()?,
                password: c.take_str()?,
            },
            codes::CANCEL => Request::Cancel,
            other => return Err(bad(format!("unknown request code {other:#04x}"))),
        };
        c.finish()?;
        Ok(req)
    }

    /// Writes the request as one frame.
    ///
    /// Returns the number of bytes put on the wire.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<usize> {
        write_frame(w, self.code(), &self.encode_body())
    }

    /// Reads one request frame (frames larger than `max_frame` are
    /// rejected without being read).
    pub fn read_from(r: &mut impl Read, max_frame: usize) -> io::Result<Request> {
        let (code, body) = read_frame(r, max_frame)?;
        Request::decode(code, &body)
    }
}

impl Response {
    /// This response's frame code.
    pub fn code(&self) -> u8 {
        match self {
            Response::SessionStarted => codes::SESSION_STARTED,
            Response::SessionClosed => codes::SESSION_CLOSED,
            Response::TxnOk => codes::TXN_OK,
            Response::Updated(_) => codes::UPDATED,
            Response::Done => codes::DONE,
            Response::QueryOk(_) => codes::QUERY_OK,
            Response::Item(_) => codes::ITEM,
            Response::ResultEnd => codes::RESULT_END,
            Response::ItemBatch { .. } => codes::ITEM_BATCH,
            Response::Pong => codes::PONG,
            Response::Metrics(_) => codes::METRICS,
            Response::ShuttingDown => codes::SHUTTING_DOWN,
            Response::Loaded(_) => codes::LOADED,
            Response::ActivityReply { .. } => codes::ACTIVITY_REPLY,
            Response::SlowLogReply(_) => codes::SLOW_LOG_REPLY,
            Response::Trace { .. } => codes::TRACE,
            Response::Explain(_) => codes::EXPLAIN,
            Response::ForkOk { .. } => codes::FORK_OK,
            Response::ForkDropped => codes::FORK_DROPPED,
            Response::DatabaseDropped => codes::DATABASE_DROPPED,
            Response::Cancelled => codes::CANCELLED,
            Response::Error { .. } => codes::ERROR,
        }
    }

    /// Serializes the body (everything after the code byte).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Response::Updated(n) | Response::QueryOk(n) | Response::Loaded(n) => {
                b.extend_from_slice(&n.to_be_bytes());
            }
            Response::Item(s) | Response::Metrics(s) | Response::Explain(s) => put_str(&mut b, s),
            Response::ActivityReply {
                sessions,
                pinned_pages,
            } => {
                b.extend_from_slice(&pinned_pages.to_be_bytes());
                b.extend_from_slice(&(sessions.len() as u32).to_be_bytes());
                for row in sessions {
                    b.extend_from_slice(&row.session_id.to_be_bytes());
                    match &row.statement {
                        Some(stmt) => {
                            b.push(1);
                            put_str(&mut b, stmt);
                        }
                        None => b.push(0),
                    }
                    b.extend_from_slice(&row.statement_age_ms.to_be_bytes());
                    put_str(&mut b, &row.txn);
                    b.extend_from_slice(&row.items_streamed.to_be_bytes());
                }
            }
            Response::SlowLogReply(entries) => {
                b.extend_from_slice(&(entries.len() as u32).to_be_bytes());
                for e in entries {
                    put_str(&mut b, &e.statement);
                    b.extend_from_slice(&e.total_ns.to_be_bytes());
                    b.extend_from_slice(&e.trace_id.to_be_bytes());
                }
            }
            Response::Trace { trace_id, json } => {
                b.extend_from_slice(&trace_id.to_be_bytes());
                put_str(&mut b, json);
            }
            Response::ItemBatch { items, done } => {
                b.extend_from_slice(&(items.len() as u32).to_be_bytes());
                for item in items {
                    put_str(&mut b, item);
                }
                b.push(u8::from(*done));
            }
            Response::ForkOk { ts } => b.extend_from_slice(&ts.to_be_bytes()),
            Response::Error { kind, message } => {
                put_str(&mut b, kind);
                put_str(&mut b, message);
            }
            Response::SessionStarted
            | Response::SessionClosed
            | Response::TxnOk
            | Response::Done
            | Response::ResultEnd
            | Response::Pong
            | Response::ForkDropped
            | Response::DatabaseDropped
            | Response::Cancelled
            | Response::ShuttingDown => {}
        }
        b
    }

    /// Parses a response from a frame's code and body.
    pub fn decode(code: u8, body: &[u8]) -> io::Result<Response> {
        let mut c = Cursor::new(body);
        let resp = match code {
            codes::SESSION_STARTED => Response::SessionStarted,
            codes::SESSION_CLOSED => Response::SessionClosed,
            codes::TXN_OK => Response::TxnOk,
            codes::UPDATED => Response::Updated(c.take_u64()?),
            codes::DONE => Response::Done,
            codes::QUERY_OK => Response::QueryOk(c.take_u64()?),
            codes::ITEM => Response::Item(c.take_str()?),
            codes::RESULT_END => Response::ResultEnd,
            codes::ITEM_BATCH => {
                let count = c.take_u32()? as usize;
                // Each item costs at least 4 length bytes; an absurd
                // count in a small frame fails here, not on allocation.
                if count > body.len() / 4 {
                    return Err(bad("item batch count exceeds frame size"));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(c.take_str()?);
                }
                Response::ItemBatch {
                    items,
                    done: c.take_u8()? != 0,
                }
            }
            codes::PONG => Response::Pong,
            codes::METRICS => Response::Metrics(c.take_str()?),
            codes::SHUTTING_DOWN => Response::ShuttingDown,
            codes::LOADED => Response::Loaded(c.take_u64()?),
            codes::ACTIVITY_REPLY => {
                let pinned_pages = i64::from_be_bytes(c.take_u64()?.to_be_bytes());
                let count = c.take_u32()? as usize;
                // Each row costs at least id + flag + age + txn-len +
                // items = 29 bytes; bogus counts fail before allocation.
                if count > body.len() / 29 {
                    return Err(bad("activity row count exceeds frame size"));
                }
                let mut sessions = Vec::with_capacity(count);
                for _ in 0..count {
                    let session_id = c.take_u64()?;
                    let statement = if c.take_u8()? != 0 {
                        Some(c.take_str()?)
                    } else {
                        None
                    };
                    sessions.push(ActivityRow {
                        session_id,
                        statement,
                        statement_age_ms: c.take_u64()?,
                        txn: c.take_str()?,
                        items_streamed: c.take_u64()?,
                    });
                }
                Response::ActivityReply {
                    sessions,
                    pinned_pages,
                }
            }
            codes::SLOW_LOG_REPLY => {
                let count = c.take_u32()? as usize;
                // Each entry costs at least 4 + 8 + 8 = 20 bytes.
                if count > body.len() / 20 {
                    return Err(bad("slow-log entry count exceeds frame size"));
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push(SlowLogRow {
                        statement: c.take_str()?,
                        total_ns: c.take_u64()?,
                        trace_id: c.take_u64()?,
                    });
                }
                Response::SlowLogReply(entries)
            }
            codes::TRACE => Response::Trace {
                trace_id: c.take_u64()?,
                json: c.take_str()?,
            },
            codes::EXPLAIN => Response::Explain(c.take_str()?),
            codes::FORK_OK => Response::ForkOk { ts: c.take_u64()? },
            codes::FORK_DROPPED => Response::ForkDropped,
            codes::DATABASE_DROPPED => Response::DatabaseDropped,
            codes::CANCELLED => Response::Cancelled,
            codes::ERROR => Response::Error {
                kind: c.take_str()?,
                message: c.take_str()?,
            },
            other => return Err(bad(format!("unknown response code {other:#04x}"))),
        };
        c.finish()?;
        Ok(resp)
    }

    /// Writes the response as one frame.
    ///
    /// Returns the number of bytes put on the wire.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<usize> {
        write_frame(w, self.code(), &self.encode_body())
    }

    /// Reads one response frame (frames larger than `max_frame` are
    /// rejected without being read).
    pub fn read_from(r: &mut impl Read, max_frame: usize) -> io::Result<Response> {
        let (code, body) = read_frame(r, max_frame)?;
        Response::decode(code, &body)
    }
}

/// Writes one frame: `u32` BE length, code byte, body. Returns the total
/// bytes written (`body.len() + 5`).
pub fn write_frame(w: &mut impl Write, code: u8, body: &[u8]) -> io::Result<usize> {
    let len = u32::try_from(body.len() + 1).map_err(|_| bad("frame too large to encode"))?;
    let mut frame = Vec::with_capacity(body.len() + 5);
    frame.extend_from_slice(&len.to_be_bytes());
    frame.push(code);
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    Ok(frame.len())
}

/// Reads one frame, returning `(code, body)`. Frames whose declared
/// length exceeds `max_frame` are rejected with `InvalidData` before any
/// body bytes are read.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> io::Result<(u8, Vec<u8>)> {
    let mut hdr = [0u8; 5];
    r.read_exact(&mut hdr)?;
    let len = u32::from_be_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
    if len == 0 {
        return Err(bad("zero-length frame"));
    }
    if len > max_frame {
        return Err(bad(format!(
            "frame of {len} bytes exceeds the {max_frame}-byte limit"
        )));
    }
    let mut body = vec![0u8; len - 1];
    r.read_exact(&mut body)?;
    Ok((hdr[4], body))
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A bounds-checked reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated frame body"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn take_u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn take_u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn take_str(&mut self) -> io::Result<String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("invalid UTF-8 in string field"))
    }

    /// Bytes left unconsumed in the body.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the body was consumed exactly.
    fn finish(self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes after frame body"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut wire = Vec::new();
        let n = req.write_to(&mut wire).unwrap();
        assert_eq!(n, wire.len());
        let back = Request::read_from(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back, req);
    }

    fn roundtrip_response(resp: Response) {
        let mut wire = Vec::new();
        let n = resp.write_to(&mut wire).unwrap();
        assert_eq!(n, wire.len());
        let back = Response::read_from(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::StartSession {
            version: PROTOCOL_VERSION,
            database: "db".into(),
            user: "admin".into(),
            password: "s3cret".into(),
        });
        roundtrip_request(Request::StartSession {
            version: PROTOCOL_VERSION,
            database: "db".into(),
            user: String::new(),
            password: String::new(),
        });
        roundtrip_request(Request::CloseSession);
        roundtrip_request(Request::Begin { read_only: true });
        roundtrip_request(Request::Begin { read_only: false });
        roundtrip_request(Request::Commit);
        roundtrip_request(Request::Rollback);
        roundtrip_request(Request::Execute {
            stmt: "doc('d')//title/text()".into(),
            trace: false,
        });
        roundtrip_request(Request::Execute {
            stmt: "doc('d')//title".into(),
            trace: true,
        });
        roundtrip_request(Request::FetchNext);
        roundtrip_request(Request::FetchBatch { max: 128 });
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::GetMetrics);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::LoadXml {
            doc: "d".into(),
            xml: "<r><x>héllo</x></r>".into(),
        });
        roundtrip_request(Request::Activity);
        roundtrip_request(Request::SlowLog);
        roundtrip_request(Request::GetTrace { trace_id: 0 });
        roundtrip_request(Request::GetTrace { trace_id: 42 });
        roundtrip_request(Request::ExplainAnalyze {
            stmt: "doc('d')//title".into(),
        });
        roundtrip_request(Request::Fork {
            parent: "db".into(),
            name: "db-staging".into(),
        });
        roundtrip_request(Request::DropFork {
            name: "db-staging".into(),
        });
        roundtrip_request(Request::DropDatabase { name: "db".into() });
        roundtrip_request(Request::AsOf {
            version: PROTOCOL_VERSION,
            database: "db".into(),
            ts: 41,
            user: "admin".into(),
            password: "s3cret".into(),
        });
        roundtrip_request(Request::Cancel);
    }

    #[test]
    fn session_open_carries_credentials() {
        let body = Request::StartSession {
            version: 2,
            database: "db".into(),
            user: "u".into(),
            password: "p".into(),
        }
        .encode_body();
        let mut expected = vec![2u8];
        put_str(&mut expected, "db");
        put_str(&mut expected, "u");
        put_str(&mut expected, "p");
        assert_eq!(body, expected);
    }

    #[test]
    fn untraced_execute_omits_the_trace_flag() {
        // The trace flag is absent when off: an untraced frame is the
        // statement string and nothing else.
        let body = Request::Execute {
            stmt: "1 to 3".into(),
            trace: false,
        }
        .encode_body();
        let mut expected = Vec::new();
        put_str(&mut expected, "1 to 3");
        assert_eq!(body, expected);
        // And a bare-string frame decodes with the flag off.
        let req = Request::decode(codes::EXECUTE, &expected).unwrap();
        assert_eq!(
            req,
            Request::Execute {
                stmt: "1 to 3".into(),
                trace: false
            }
        );
    }

    #[test]
    fn explicit_zero_trace_flag_decodes_off() {
        let mut body = Vec::new();
        put_str(&mut body, "1 to 3");
        body.push(0);
        let req = Request::decode(codes::EXECUTE, &body).unwrap();
        assert_eq!(
            req,
            Request::Execute {
                stmt: "1 to 3".into(),
                trace: false
            }
        );
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::SessionStarted);
        roundtrip_response(Response::SessionClosed);
        roundtrip_response(Response::TxnOk);
        roundtrip_response(Response::Updated(42));
        roundtrip_response(Response::Done);
        roundtrip_response(Response::QueryOk(u64::MAX));
        roundtrip_response(Response::Item("<x>1</x>".into()));
        roundtrip_response(Response::ResultEnd);
        roundtrip_response(Response::ItemBatch {
            items: vec!["<x>1</x>".into(), "two".into(), String::new()],
            done: true,
        });
        roundtrip_response(Response::ItemBatch {
            items: Vec::new(),
            done: false,
        });
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Metrics("# HELP x\nx 1\n".into()));
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::Loaded(7));
        roundtrip_response(Response::ActivityReply {
            sessions: vec![
                ActivityRow {
                    session_id: 1,
                    statement: Some("doc('d')//x".into()),
                    statement_age_ms: 1500,
                    txn: "read-only".into(),
                    items_streamed: 12,
                },
                ActivityRow {
                    session_id: 2,
                    statement: None,
                    statement_age_ms: 0,
                    txn: "none".into(),
                    items_streamed: 0,
                },
            ],
            pinned_pages: -3,
        });
        roundtrip_response(Response::ActivityReply {
            sessions: Vec::new(),
            pinned_pages: 0,
        });
        roundtrip_response(Response::SlowLogReply(vec![SlowLogRow {
            statement: "doc('d')//slow".into(),
            total_ns: 12_345_678,
            trace_id: 9,
        }]));
        roundtrip_response(Response::SlowLogReply(Vec::new()));
        roundtrip_response(Response::Trace {
            trace_id: 17,
            json: "{\"traceEvents\":[]}".into(),
        });
        roundtrip_response(Response::Explain("phase execute 12 ns".into()));
        roundtrip_response(Response::ForkOk { ts: 7 });
        roundtrip_response(Response::ForkDropped);
        roundtrip_response(Response::DatabaseDropped);
        roundtrip_response(Response::Cancelled);
        roundtrip_response(Response::Error {
            kind: "query".into(),
            message: "parse error at offset 3".into(),
        });
    }

    #[test]
    fn absurd_activity_count_is_rejected_without_allocation() {
        // ACTIVITY_REPLY claiming u32::MAX rows in a 12-byte body.
        let mut body = Vec::new();
        body.extend_from_slice(&0i64.to_be_bytes());
        body.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut wire = Vec::new();
        write_frame(&mut wire, codes::ACTIVITY_REPLY, &body).unwrap();
        let err = Response::read_from(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn absurd_slow_log_count_is_rejected_without_allocation() {
        let mut wire = Vec::new();
        write_frame(&mut wire, codes::SLOW_LOG_REPLY, &u32::MAX.to_be_bytes()).unwrap();
        let err = Response::read_from(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversize_frame_is_rejected_before_body_read() {
        let req = Request::Execute {
            stmt: "x".repeat(100),
            trace: false,
        };
        let mut wire = Vec::new();
        req.write_to(&mut wire).unwrap();
        let err = Request::read_from(&mut wire.as_slice(), 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_body_is_invalid_data() {
        // EXECUTE frame claiming an 8-byte string but carrying 2 bytes.
        let mut wire = Vec::new();
        write_frame(&mut wire, codes::EXECUTE, &[0, 0, 0, 8, b'a', b'b']).unwrap();
        let err = Request::read_from(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn trailing_garbage_is_invalid_data() {
        let mut body = Request::Ping.encode_body();
        body.push(0xFF);
        let mut wire = Vec::new();
        write_frame(&mut wire, codes::PING, &body).unwrap();
        let err = Request::read_from(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn absurd_batch_count_is_rejected_without_allocation() {
        // ITEM_BATCH frame claiming u32::MAX items in a 5-byte body.
        let mut wire = Vec::new();
        write_frame(&mut wire, codes::ITEM_BATCH, &[0xFF, 0xFF, 0xFF, 0xFF, 1]).unwrap();
        let err = Response::read_from(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_code_is_invalid_data() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 0x7E, &[]).unwrap();
        let err = Request::read_from(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
