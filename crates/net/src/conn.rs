//! Per-connection state for the readiness-loop server.
//!
//! A connection's life is split between two threads. The **event
//! thread** owns the inbound byte buffer and the queue of
//! parsed-but-unserved frames; it reads the socket and never executes a
//! request. A **worker** borrows the request-visible half — the wire
//! session, its database name, the pending result and the cancel flag
//! ([`SessionState`]) — for the duration of one dispatched batch, writes
//! the batch's answers, then posts the state back. Both hold the one
//! socket through an `Arc<TcpStream>` (`&TcpStream` reads and writes), so
//! a dispatch costs a reference count, not a descriptor. The split is
//! what makes pipelining possible: the event thread keeps reading and
//! parsing frames for a connection while a worker is still executing its
//! earlier requests.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::iter;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use sedna::{CancelFlag, DbResult, Session};

use crate::metrics::NetMetrics;

/// One complete wire frame, parsed off a connection's byte stream.
pub(crate) struct Frame {
    /// Message code (the byte after the length prefix).
    pub(crate) code: u8,
    /// Message body (frame payload after the code byte).
    pub(crate) body: Vec<u8>,
}

/// A framing violation found while parsing the inbound buffer. The
/// connection is past saving (the byte stream can no longer be
/// delimited), but the fault is still *queued behind* the frames parsed
/// before it so the client sees every earlier response, then the error.
pub(crate) enum Fault {
    /// Zero-length frame.
    Malformed,
    /// Declared frame length exceeds the configured cap.
    Oversize(usize),
}

/// The last query's result items, fetched by `FetchNext`/`FetchBatch`.
///
/// An auto-commit query's is its live [`sedna::QueryCursor`]: items are
/// pulled from the executor pipeline one fetch at a time, and the
/// cursor's read-only transaction (with its page pins) stays open
/// between fetches. A query inside an explicit transaction arrives
/// materialized, as a vector's iterator. Replacing or clearing the
/// result drops the iterator, and dropping a cursor releases every pin
/// and commits its transaction — so a client that executes a new
/// statement, closes the session, cancels, or disconnects mid-stream
/// never leaks the snapshot.
pub(crate) type ItemStream = Box<dyn Iterator<Item = DbResult<String>> + Send>;

/// The request-visible half of a connection: everything a worker needs
/// to serve its frames. Travels to the worker inside a job and comes
/// back with the completion notice.
pub(crate) struct SessionState {
    /// The wire session, once `StartSession`/`AsOf` succeeded.
    pub(crate) session: Option<Session>,
    /// Name of the database the session is on (for introspection
    /// requests that need the [`sedna::Database`] handle).
    pub(crate) db_name: Option<String>,
    /// The last query's result; `None` when there is none left.
    pub(crate) pending: Option<ItemStream>,
    /// The connection's cancel flag ([`Conn::cancel`]), handed to the
    /// session when it opens.
    pub(crate) cancel: CancelFlag,
}

/// An `ItemBatch` frame's length counts its code byte, its item count
/// and its `done` byte, plus a length prefix per item.
const ITEM_BATCH_FIXED: usize = 1 + 4 + 1;

/// Pulls up to `max` items from the connection's pending result, no more
/// than fit one `ItemBatch` frame of `max_frame` bytes, returning the
/// batch and whether the result is now exhausted. The first item is
/// always taken; an item that would overflow a non-empty batch stays
/// pending, first in the next one. On a mid-stream error the cursor has
/// already finished itself (transaction committed, pins released); the
/// result is dropped so later fetches see a clean end-of-result.
pub(crate) fn fetch_items(
    pending: &mut Option<ItemStream>,
    max: usize,
    max_frame: usize,
    m: &NetMetrics,
) -> DbResult<(Vec<String>, bool)> {
    let Some(mut items) = pending.take() else {
        return Ok((Vec::new(), true));
    };
    let mut batch = Vec::new();
    let mut room = max_frame.saturating_sub(ITEM_BATCH_FIXED);
    let done = loop {
        if batch.len() == max {
            // A materialized result knows it is empty without a pull.
            break items.size_hint().1 == Some(0);
        }
        match items.next() {
            None => break true,
            Some(Err(e)) => {
                m.items_streamed.add(batch.len() as u64);
                return Err(e);
            }
            Some(Ok(item)) => {
                let size = 4 + item.len();
                if size > room && !batch.is_empty() {
                    items = Box::new(iter::once(Ok(item)).chain(items));
                    break false;
                }
                room = room.saturating_sub(size);
                batch.push(item);
            }
        }
    };
    m.items_streamed.add(batch.len() as u64);
    if !done {
        *pending = Some(items);
    }
    Ok((batch, done))
}

/// Event-thread-side state of one connection.
pub(crate) struct Conn {
    /// The socket (non-blocking), shared with the worker serving the
    /// connection's batch.
    pub(crate) stream: Arc<TcpStream>,
    /// Unparsed inbound bytes.
    pub(crate) buf: Vec<u8>,
    /// Complete frames awaiting dispatch to a worker.
    pub(crate) queue: VecDeque<Frame>,
    /// A batch is currently at a worker ([`Conn::state`] is `None`).
    pub(crate) busy: bool,
    /// The oneshot readiness registration is currently armed.
    pub(crate) armed: bool,
    /// No more reads; tear down once the worker (if any) reports back.
    pub(crate) closing: bool,
    /// Framing violation pending delivery after the queued frames.
    pub(crate) fault: Option<Fault>,
    /// The request-visible half; `None` while a worker holds it.
    pub(crate) state: Option<SessionState>,
    /// Connection-level cancel flag: set by the event thread the moment
    /// a `Cancel` frame is *parsed* (out-of-band), observed by the
    /// statement executing on a worker, cleared when the `Cancel` is
    /// served in order.
    pub(crate) cancel: CancelFlag,
    /// Last inbound byte, for the idle clock.
    pub(crate) last_activity: Instant,
    /// When the oldest incomplete frame started arriving, for the
    /// stalled-frame clock.
    pub(crate) frame_started: Option<Instant>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        let cancel = CancelFlag::new();
        Conn {
            stream: Arc::new(stream),
            buf: Vec::new(),
            queue: VecDeque::new(),
            busy: false,
            armed: true,
            closing: false,
            fault: None,
            state: Some(SessionState {
                session: None,
                db_name: None,
                pending: None,
                cancel: cancel.clone(),
            }),
            cancel,
            last_activity: Instant::now(),
            frame_started: None,
        }
    }

    /// Drains the readable socket into the inbound buffer. Returns
    /// `false` when the peer closed or the read hard-failed (the
    /// connection should stop reading and tear down at the next frame
    /// boundary).
    pub(crate) fn read_ready(&mut self) -> bool {
        let mut chunk = [0u8; 8192];
        loop {
            match (&*self.stream).read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    if self.buf.is_empty() {
                        self.frame_started = Some(Instant::now());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                    // A short read means the kernel buffer is (almost
                    // certainly) drained: skip the confirming syscall.
                    // If more bytes did land in between, the level-
                    // triggered rearm reports them immediately.
                    if n < chunk.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Parses every complete frame out of the inbound buffer. Returns
    /// the new frames (the caller counts them and appends them to the
    /// queue); a framing violation ends the parse — bytes after it are
    /// undelimitable and discarded.
    pub(crate) fn parse_frames(&mut self, max_frame: usize) -> (Vec<Frame>, Option<Fault>) {
        let mut frames = Vec::new();
        let mut consumed = 0usize;
        let mut fault = None;
        while self.buf.len() - consumed >= 5 {
            let rest = &self.buf[consumed..];
            let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            if len == 0 {
                fault = Some(Fault::Malformed);
                break;
            }
            if len > max_frame {
                fault = Some(Fault::Oversize(len));
                break;
            }
            if rest.len() < 4 + len {
                break;
            }
            frames.push(Frame {
                code: rest[4],
                body: rest[5..4 + len].to_vec(),
            });
            consumed += 4 + len;
        }
        if fault.is_some() {
            self.buf.clear();
        } else {
            self.buf.drain(..consumed);
        }
        self.frame_started = if self.buf.is_empty() {
            None
        } else {
            Some(Instant::now())
        };
        (frames, fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parser never touches the socket, but `Conn` owns one; a
    /// loopback connect (never accepted) stands in.
    fn conn_with_bytes(bytes: &[u8]) -> (Conn, std::net::TcpListener) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn::new(stream);
        conn.buf.extend_from_slice(bytes);
        (conn, listener)
    }

    fn frame_bytes(code: u8, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(1 + body.len() as u32).to_be_bytes());
        out.push(code);
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn parses_multiple_frames_and_keeps_the_tail() {
        let mut bytes = frame_bytes(0x10, b"abc");
        bytes.extend(frame_bytes(0x11, b""));
        bytes.extend(&frame_bytes(0x12, b"tail")[..6]); // incomplete
        let (mut conn, _g) = conn_with_bytes(&bytes);
        let (frames, fault) = conn.parse_frames(1024);
        assert!(fault.is_none());
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].code, 0x10);
        assert_eq!(frames[0].body, b"abc");
        assert_eq!(frames[1].code, 0x11);
        assert!(frames[1].body.is_empty());
        assert_eq!(conn.buf.len(), 6);
        assert!(conn.frame_started.is_some());
    }

    #[test]
    fn zero_length_frame_is_malformed() {
        let mut bytes = frame_bytes(0x10, b"ok");
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.push(0x11);
        let (mut conn, _g) = conn_with_bytes(&bytes);
        let (frames, fault) = conn.parse_frames(1024);
        assert_eq!(frames.len(), 1);
        assert!(matches!(fault, Some(Fault::Malformed)));
        assert!(conn.buf.is_empty(), "undelimitable bytes discarded");
    }

    #[test]
    fn oversize_frame_is_rejected_with_its_length() {
        let (mut conn, _g) = conn_with_bytes(&frame_bytes(0x10, &[0u8; 64]));
        let (frames, fault) = conn.parse_frames(16);
        assert!(frames.is_empty());
        assert!(matches!(fault, Some(Fault::Oversize(65))));
    }
}
