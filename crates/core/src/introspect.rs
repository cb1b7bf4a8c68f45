//! Live server introspection: per-session activity tracking (the
//! pg_stat_activity-style view behind [`Database::activity`]) and the
//! slow-query ring behind [`Database::slow_log`].
//!
//! Activity tracking is deliberately advisory: sessions publish their
//! state through relaxed atomics and a tiny mutex around the current
//! statement text, and the snapshot reader accepts mild staleness — the
//! view is for operators watching a live server, not for correctness
//! decisions. Sessions register a [`SessionTrack`] on construction and
//! the tracker holds only a [`Weak`] reference, so a dropped session
//! (or cursor) disappears from the view without any unregister call.
//!
//! [`Database::activity`]: crate::Database::activity
//! [`Database::slow_log`]: crate::Database::slow_log

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sedna_sync::atomic::{AtomicU32, AtomicU64, Ordering};
use sedna_sync::{Arc, Weak};

/// Transaction mode of a session as reported by the activity view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxnMode {
    /// No transaction open (between auto-commit statements).
    #[default]
    None,
    /// A read-only (snapshot) transaction is open.
    ReadOnly,
    /// An update transaction is open.
    Update,
}

impl TxnMode {
    /// The wire/display name (`none`, `read-only`, `update`).
    pub fn as_str(&self) -> &'static str {
        match self {
            TxnMode::None => "none",
            TxnMode::ReadOnly => "read-only",
            TxnMode::Update => "update",
        }
    }

    fn from_u32(v: u32) -> TxnMode {
        match v {
            1 => TxnMode::ReadOnly,
            2 => TxnMode::Update,
            _ => TxnMode::None,
        }
    }
}

impl std::fmt::Display for TxnMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The live activity record one session (and its streaming cursors)
/// publish into. All fields are advisory — see the module docs.
#[derive(Debug)]
pub(crate) struct SessionTrack {
    id: u64,
    /// Current statement text and when it started; `None` while idle.
    stmt: Mutex<Option<(String, Instant)>>,
    /// [`TxnMode`] as a plain integer.
    txn_mode: AtomicU32,
    /// Items streamed through this session's cursors so far.
    items_streamed: AtomicU64,
    /// Trace id of the most recent trace this session published
    /// (0 = none yet): the resolution target of `GetTrace(0)`.
    last_trace: AtomicU64,
}

impl SessionTrack {
    pub(crate) fn set_statement(&self, text: &str) {
        *self.stmt.lock() = Some((text.to_string(), Instant::now()));
    }

    pub(crate) fn clear_statement(&self) {
        *self.stmt.lock() = None;
    }

    pub(crate) fn set_txn_mode(&self, mode: TxnMode) {
        // relaxed: advisory activity view; readers accept staleness.
        self.txn_mode.store(mode as u32, Ordering::Relaxed);
    }

    pub(crate) fn add_items_streamed(&self, n: u64) {
        // relaxed: advisory tally for the activity view.
        self.items_streamed.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn set_last_trace(&self, trace_id: u64) {
        // relaxed: a pointer-sized id; the trace itself is published
        // through the TraceBuffer slot mutex.
        self.last_trace.store(trace_id, Ordering::Relaxed);
    }

    pub(crate) fn last_trace(&self) -> u64 {
        // relaxed: see set_last_trace.
        self.last_trace.load(Ordering::Relaxed)
    }
}

/// One session's row in the [`crate::Database::activity`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionActivity {
    /// Stable per-database session id (assigned at connect, never
    /// reused while the database handle lives).
    pub session_id: u64,
    /// The statement currently executing (or streaming through an open
    /// cursor); `None` while the session is idle.
    pub statement: Option<String>,
    /// How long the current statement has been running (zero when
    /// idle).
    pub statement_age: Duration,
    /// The session's transaction mode.
    pub txn: TxnMode,
    /// Items streamed through this session's cursors so far.
    pub items_streamed: u64,
}

/// A point-in-time view of the sessions on one database, plus the
/// database-wide pin count — what an operator checks first when a
/// server looks wedged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityReport {
    /// One row per live session, ordered by session id.
    pub sessions: Vec<SessionActivity>,
    /// Buffer pages currently pinned across the database (open cursors,
    /// in-flight statements).
    pub pinned_pages: i64,
}

/// Registry of live [`SessionTrack`]s. Holds weak references only:
/// dropping a session removes it from the view implicitly; dead entries
/// are pruned on every registration and snapshot.
#[derive(Debug, Default)]
pub(crate) struct ActivityTracker {
    entries: Mutex<Vec<Weak<SessionTrack>>>,
    next_id: AtomicU64,
}

impl ActivityTracker {
    /// Creates and registers the activity record for a new session.
    pub(crate) fn register(&self) -> Arc<SessionTrack> {
        // relaxed: a unique-id tick; nothing is published through it.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let track = Arc::new(SessionTrack {
            id,
            stmt: Mutex::new(None),
            txn_mode: AtomicU32::new(0),
            items_streamed: AtomicU64::new(0),
            last_trace: AtomicU64::new(0),
        });
        let mut entries = self.entries.lock();
        entries.retain(|w| w.strong_count() > 0);
        entries.push(Arc::downgrade(&track));
        track
    }

    /// Snapshots every live session's activity, ordered by session id.
    pub(crate) fn snapshot(&self) -> Vec<SessionActivity> {
        let mut entries = self.entries.lock();
        entries.retain(|w| w.strong_count() > 0);
        let mut out: Vec<SessionActivity> = entries
            .iter()
            .filter_map(Weak::upgrade)
            .map(|t| {
                let (statement, statement_age) = match &*t.stmt.lock() {
                    Some((text, since)) => (Some(text.clone()), since.elapsed()),
                    None => (None, Duration::ZERO),
                };
                SessionActivity {
                    session_id: t.id,
                    statement,
                    statement_age,
                    // relaxed: advisory view; see SessionTrack.
                    txn: TxnMode::from_u32(t.txn_mode.load(Ordering::Relaxed)),
                    // relaxed: advisory tally; see SessionTrack.
                    items_streamed: t.items_streamed.load(Ordering::Relaxed),
                }
            })
            .collect();
        out.sort_by_key(|s| s.session_id);
        out
    }
}

/// One statement that crossed the slow-query threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// The statement text.
    pub statement: String,
    /// Wall-clock nanoseconds from statement start to its close-out
    /// (for a query handed back as a live cursor: until the cursor
    /// finished).
    pub total_ns: u64,
    /// Id of the trace captured for this statement, retrievable through
    /// [`crate::Database::get_trace`] while it is still in the trace
    /// ring; `0` when no trace was kept.
    pub trace_id: u64,
}

/// A bounded ring of the most recent slow queries.
#[derive(Debug)]
pub(crate) struct SlowLog {
    ring: Mutex<VecDeque<SlowQueryEntry>>,
    cap: usize,
}

impl SlowLog {
    pub(crate) fn new(cap: usize) -> SlowLog {
        SlowLog {
            ring: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
        }
    }

    pub(crate) fn push(&self, entry: SlowQueryEntry) {
        let mut ring = self.ring.lock();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// The recorded offenders, most recent first.
    pub(crate) fn entries(&self) -> Vec<SlowQueryEntry> {
        self.ring.lock().iter().rev().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_assigns_ids_and_prunes_dropped_sessions() {
        let tracker = ActivityTracker::default();
        let a = tracker.register();
        let b = tracker.register();
        assert_ne!(a.id, b.id);
        a.set_statement("doc('x')//y");
        a.set_txn_mode(TxnMode::ReadOnly);
        b.add_items_streamed(3);
        let snap = tracker.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].statement.as_deref(), Some("doc('x')//y"));
        assert_eq!(snap[0].txn, TxnMode::ReadOnly);
        assert_eq!(snap[1].items_streamed, 3);
        assert_eq!(snap[1].statement, None);
        drop(a);
        let snap = tracker.snapshot();
        assert_eq!(snap.len(), 1, "dropped session left the view");
        assert_eq!(snap[0].session_id, b.id);
    }

    #[test]
    fn statement_age_tracks_the_current_statement_only() {
        let tracker = ActivityTracker::default();
        let t = tracker.register();
        t.set_statement("1 to 3");
        assert!(tracker.snapshot()[0].statement.is_some());
        t.clear_statement();
        let row = &tracker.snapshot()[0];
        assert_eq!(row.statement, None);
        assert_eq!(row.statement_age, Duration::ZERO);
    }

    #[test]
    fn slow_log_ring_keeps_most_recent_entries() {
        let log = SlowLog::new(2);
        for i in 1..=3u64 {
            log.push(SlowQueryEntry {
                statement: format!("q{i}"),
                total_ns: i * 1_000,
                trace_id: i,
            });
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].statement, "q3", "most recent first");
        assert_eq!(entries[1].statement, "q2");
    }

    #[test]
    fn txn_mode_round_trips_and_displays() {
        for m in [TxnMode::None, TxnMode::ReadOnly, TxnMode::Update] {
            assert_eq!(TxnMode::from_u32(m as u32), m);
            assert_eq!(m.to_string(), m.as_str());
        }
    }
}
