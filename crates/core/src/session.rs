//! Sessions (the connection component of Figure 1) and transactions.
//!
//! "For each Sedna client, the governor creates an instance of the
//! connection component [...] For each database transaction initiated by
//! a client, the connection component creates an instance of the
//! transaction component. The transaction component encapsulates
//! components involved in query execution: parser, optimizer, and
//! executor."
//!
//! A session executes statements either in auto-commit mode (each
//! `execute` is its own transaction) or inside an explicit transaction
//! ([`Session::begin_update`] / [`Session::begin_read_only`] …
//! [`Session::commit`] / [`Session::rollback`]).
//!
//! Commit protocol (WAL, §6.4): each of the transaction's working pages
//! is logged as the byte ranges it changed relative to the committed
//! version it supersedes (or as a full after-image when it has none on
//! this branch), page frees and catalog entries follow, then the commit
//! record; the log is forced before locks are released.
//! Rollback needs no undo log — working page versions are simply
//! discarded (§6.1), and so are the transaction's private catalog
//! writes, which no other session ever saw.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::Instant;

use sedna_sync::{Arc, Mutex};

use sedna_index::IndexKey;
use sedna_obs::trace::{events, SamplingPolicy, TraceCollector};
use sedna_sas::{Vas, XPtr};
use sedna_schema::{NodeKind, SchemaTree};
use sedna_storage::{build, indirection, DocStorage, NodeRef, ParentMode};
use sedna_txn::{LockMode, TxnHandle, TxnId};
use sedna_wal::WalRecord;
use sedna_xquery::ast::{
    DdlStmt, Expr, InsertPos, PathStart, Statement, StatementKind, UpdateStmt,
};
use sedna_xquery::exec::ExecStats;
use sedna_xquery::planner::{self, AccessPath, IndexSpec, PlanDecision, PlannerInput};
use sedna_xquery::update::{self, UpdatePlan};
use sedna_xquery::value::Atom;

use crate::cancel::CancelFlag;
use crate::catalog::{self, Catalog, CatalogWrites, DocData, IndexData, IndexMeta};
use crate::database::DbInner;
use crate::error::{DbError, DbResult};
use crate::introspect::{SessionTrack, TxnMode};
use crate::metrics::QueryProfile;
use crate::stream::{elapsed_ns, query_view, Pull, QueryCursor, RenderedItem, StatementObs};

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// A query's serialized result sequence.
    Results(String),
    /// An update's affected-node count.
    Updated(usize),
    /// A DDL statement completed.
    Done,
}

impl ExecOutcome {
    /// The serialized results (empty string for non-queries).
    pub fn into_string(self) -> String {
        match self {
            ExecOutcome::Results(s) => s,
            ExecOutcome::Updated(n) => n.to_string(),
            ExecOutcome::Done => String::new(),
        }
    }
}

/// The result of executing one statement with item-granular query
/// results: each sequence item is serialized separately, so callers
/// (the network layer's fetch-next path, cursors) can stream results
/// item-at-a-time instead of receiving one concatenated string.
#[derive(Debug)]
pub enum StreamOutcome {
    /// A query's result items, each independently serialized. Queries
    /// take this (drained) form only when they run inside an explicit
    /// transaction, whose state lives on the session and cannot migrate
    /// into a detached cursor.
    Items(Vec<String>),
    /// A live streaming cursor over an auto-commit query: items are
    /// produced on demand, and the cursor's private read-only
    /// transaction stays open until it is drained or dropped. Boxed:
    /// the cursor (pipeline state + trace buffer) dwarfs the other
    /// variants, and the enum travels by value through every statement.
    Cursor(Box<QueryCursor>),
    /// An update's affected-node count.
    Updated(usize),
    /// A DDL statement completed.
    Done,
}

/// Joins per-item renderings into the classic single-string result,
/// inserting a space only between adjacent atoms.
fn join_items(items: &[RenderedItem]) -> String {
    let mut out = String::new();
    let mut prev_atom = false;
    for item in items {
        if item.atom && prev_atom {
            out.push(' ');
        }
        out.push_str(&item.text);
        prev_atom = item.atom;
    }
    out
}

/// Adds the already-measured parse/rewrite phase spans under the root
/// statement span. Absent on plan-cache hits, which report zero
/// planning time.
fn record_phase_spans(tc: &mut Option<TraceCollector>, parse_ns: u64, rewrite_ns: u64) {
    let Some(t) = tc else { return };
    if parse_ns == 0 && rewrite_ns == 0 {
        return;
    }
    let now = t.now_ns();
    let parse_begin = now.saturating_sub(parse_ns + rewrite_ns);
    t.add_complete(
        events::QUERY_PARSE,
        1,
        parse_begin,
        parse_begin + parse_ns,
        String::new(),
    );
    t.add_complete(
        events::QUERY_REWRITE,
        1,
        parse_begin + parse_ns,
        now,
        String::new(),
    );
}

/// Internal statement outcome carrying item granularity.
enum InnerOutcome {
    /// An auto-commit query: an open cursor nothing has been pulled from.
    Cursor(Box<QueryCursor>),
    /// A query inside a transaction, drained.
    Items(Vec<RenderedItem>),
    Updated(usize),
    Done,
}

enum TxnState {
    ReadOnly {
        handle: TxnHandle,
        /// The published catalog of the commit the page snapshot reads.
        snapshot: Arc<Catalog>,
    },
    Update {
        handle: TxnHandle,
        /// The transaction's own catalog entries over the published root.
        writes: CatalogWrites,
    },
}

/// A client session.
pub struct Session {
    db: Arc<DbInner>,
    vas: Vas,
    txn: Option<TxnState>,
    /// Executor counters of the **last** statement. Reset (overwritten)
    /// by every statement this session executes: queries report their
    /// executor's counters, updates the planning executor's, DDL resets
    /// to zero. Use [`Session::session_stats`] for totals accumulated
    /// across statements.
    pub last_stats: ExecStats,
    /// Counters accumulated across every statement of this session.
    session_stats: ExecStats,
    /// Profile of the last executed statement, written by the statement
    /// close-out. Shared with the cursors this session opens: a cursor
    /// writes its finished profile (executor counters + operator tree)
    /// into this slot when it is drained or dropped.
    last_profile: Arc<Mutex<Option<QueryProfile>>>,
    /// This session's row in the database's activity view.
    track: Arc<SessionTrack>,
    /// When true, query plans run with per-operator wall-clock timing
    /// (set by `EXPLAIN ANALYZE` and while a trace is being collected).
    time_plans: bool,
    /// When true, every statement is traced and its trace published,
    /// regardless of the database's sampling policy (the wire protocol's
    /// per-request trace flag).
    trace_forced: bool,
    /// Access-path decision of the statement this session most recently
    /// costed — every statement, plan-cache hit or miss. `None` until
    /// the session plans a statement with the cost-based planner
    /// enabled.
    last_decision: Option<PlanDecision>,
    /// `AS OF` time-travel session: permanently pinned to one retained
    /// snapshot. The read-only transaction it was created with lives for
    /// the whole session; explicit transaction control is rejected.
    pinned: bool,
    /// Cancellation flag shared with whoever drives this session (the
    /// wire layer's per-connection flag). Checked at statement start and,
    /// via [`StatementObs`], on every cursor pull.
    cancel: CancelFlag,
}

impl Session {
    pub(crate) fn new(db: Arc<DbInner>) -> Session {
        let vas = db.sas.session();
        // Parked sessions read this branch's latest committed state (the
        // root and every fork get their own latest-view encoding).
        vas.begin(db.latest_view(), None);
        let track = db.activity.register();
        Session {
            db,
            vas,
            txn: None,
            last_stats: ExecStats::default(),
            session_stats: ExecStats::default(),
            last_profile: Arc::new(Mutex::new(None)),
            track,
            time_plans: false,
            trace_forced: false,
            last_decision: None,
            pinned: false,
            cancel: CancelFlag::new(),
        }
    }

    /// The session's cancellation flag. [`CancelFlag::cancel`] on any
    /// clone makes the next statement start — and any live streaming
    /// cursor's next pull — fail with [`DbError::Cancelled`];
    /// [`CancelFlag::clear`] re-arms the session.
    pub fn cancel_flag(&self) -> CancelFlag {
        self.cancel.clone()
    }

    /// Replaces the session's cancellation flag with `flag`, so a driver
    /// holding the flag before the session exists (the wire layer's
    /// per-connection flag) can wire it in at `StartSession` time.
    pub fn set_cancel_flag(&mut self, flag: CancelFlag) {
        self.cancel = flag;
    }

    /// Builds an `AS OF` session: read-only, pinned for its whole
    /// lifetime to the retained snapshot `handle` references, seeing
    /// `catalog` (the metadata as of that snapshot). Created through
    /// [`Database::session_as_of`].
    ///
    /// [`Database::session_as_of`]: crate::Database::session_as_of
    pub(crate) fn new_as_of(db: Arc<DbInner>, handle: TxnHandle, catalog: Arc<Catalog>) -> Session {
        let mut session = Session::new(db);
        session.vas.begin(handle.view(), None);
        session.txn = Some(TxnState::ReadOnly {
            handle,
            snapshot: catalog,
        });
        session.track.set_txn_mode(TxnMode::ReadOnly);
        session.pinned = true;
        session
    }

    /// Whether this is a pinned `AS OF` time-travel session.
    pub fn is_as_of(&self) -> bool {
        self.pinned
    }

    /// The commit timestamp of the snapshot a pinned `AS OF` session
    /// reads; `None` on ordinary sessions.
    pub fn as_of_ts(&self) -> Option<u64> {
        if !self.pinned {
            return None;
        }
        match &self.txn {
            Some(TxnState::ReadOnly { handle, .. }) => match handle.kind {
                sedna_txn::TxnKind::ReadOnly { snapshot_ts } => Some(snapshot_ts),
                _ => None,
            },
            _ => None,
        }
    }

    /// Forces trace collection (and publication) for every statement
    /// this session executes while set, regardless of the database's
    /// sampling policy. The network layer sets this around a request
    /// whose per-request trace flag is on.
    pub fn set_trace_forced(&mut self, on: bool) {
        self.trace_forced = on;
    }

    /// The per-phase timing and executor-counter profile of the last
    /// executed statement (EXPLAIN-ANALYZE style); `None` until a
    /// statement succeeds. Overwritten by each success; left untouched
    /// by statements that fail before they execute and by failed
    /// updates. A query handed back as a live cursor first reports only
    /// its planning phases, then the cursor overwrites the profile with
    /// the full picture (counters + operator tree) when it finishes —
    /// drained, dropped, or stopped by a failed pull.
    pub fn last_profile(&self) -> Option<QueryProfile> {
        self.last_profile.lock().clone()
    }

    /// Id of the most recent trace this session published into the
    /// database's trace ring (0 = none yet) — the resolution target the
    /// wire protocol uses for "get my last trace".
    pub fn last_trace_id(&self) -> u64 {
        self.track.last_trace()
    }

    /// Executor counters accumulated across every statement this session
    /// has executed (never reset implicitly; see
    /// [`Session::reset_session_stats`]).
    pub fn session_stats(&self) -> ExecStats {
        self.session_stats
    }

    /// The cost-based planner's decision for the statement this session
    /// most recently ran — access path chosen, index rewrites applied,
    /// predicates reordered, and the estimated cardinality. Every
    /// statement is costed, plan-cache hit or miss; `None` until one is
    /// planned with [`DbConfig::cost_based_planner`] enabled.
    ///
    /// [`DbConfig::cost_based_planner`]: crate::DbConfig::cost_based_planner
    pub fn last_plan_decision(&self) -> Option<PlanDecision> {
        self.last_decision
    }

    /// Zeroes the accumulated [`Session::session_stats`] totals.
    pub fn reset_session_stats(&mut self) {
        self.session_stats = ExecStats::default();
    }

    // ==============================================================
    // Transaction control
    // ==============================================================

    /// Begins an explicit update transaction.
    pub fn begin_update(&mut self) -> DbResult<()> {
        if self.pinned {
            return Err(DbError::Conflict(
                "AS OF sessions are pinned to their snapshot; transaction control is not available"
                    .into(),
            ));
        }
        if self.txn.is_some() {
            return Err(DbError::Conflict("a transaction is already active".into()));
        }
        self.db.gate.enter_shared();
        let handle = self.db.txns.begin_update_on(self.db.branch);
        self.vas.begin(handle.view(), handle.token());
        {
            let mut wal = self.db.wal.lock();
            wal.append(&WalRecord::Begin { txn: handle.id.0 })?;
        }
        self.txn = Some(TxnState::Update {
            handle,
            writes: CatalogWrites::default(),
        });
        self.track.set_txn_mode(TxnMode::Update);
        Ok(())
    }

    /// Begins an explicit read-only transaction (§6.3): it pins the
    /// current snapshot and takes **no** document locks — "reading a
    /// snapshot allows non-blocking processing for read-only
    /// transactions".
    pub fn begin_read_only(&mut self) -> DbResult<()> {
        if self.pinned {
            return Err(DbError::Conflict(
                "AS OF sessions are pinned to their snapshot; transaction control is not available"
                    .into(),
            ));
        }
        if self.txn.is_some() {
            return Err(DbError::Conflict("a transaction is already active".into()));
        }
        let (handle, snapshot) = self.db.begin_snapshot();
        self.vas.begin(handle.view(), None);
        self.txn = Some(TxnState::ReadOnly { handle, snapshot });
        self.track.set_txn_mode(TxnMode::ReadOnly);
        Ok(())
    }

    /// Commits the active transaction.
    pub fn commit(&mut self) -> DbResult<()> {
        if self.pinned {
            return Err(DbError::Conflict(
                "AS OF sessions are pinned to their snapshot; transaction control is not available"
                    .into(),
            ));
        }
        match self.txn.take() {
            None => Err(DbError::Conflict("no active transaction".into())),
            Some(TxnState::ReadOnly { handle, .. }) => {
                self.db.txns.commit(&handle);
                self.vas.begin(self.db.latest_view(), None);
                self.track.set_txn_mode(TxnMode::None);
                Ok(())
            }
            Some(TxnState::Update { handle, writes }) => {
                let result = self.commit_update(&handle, writes);
                self.db.gate.exit_shared();
                self.vas.begin(self.db.latest_view(), None);
                self.track.set_txn_mode(TxnMode::None);
                if result.is_ok() {
                    // Snapshot-retention policy: keep this commit
                    // reachable for AS OF readers (no-op when disabled).
                    self.db.note_retention();
                }
                result
            }
        }
    }

    fn commit_update(&self, handle: &TxnHandle, mut writes: CatalogWrites) -> DbResult<()> {
        let versions = &self.db.txns.versions;
        let txn_id = handle.id;
        let branch = self.db.branch;
        {
            let mut wal = self.db.wal.lock();
            // 1. What each working page changed: its byte-range delta
            // against the committed version it supersedes (still in the
            // version chain until step 4's purge), or its full image when
            // there is no such version on this branch.
            let pool = self.db.sas.pool();
            let store = self.db.sas.store().as_ref();
            let mut base_buf = Vec::new();
            for work in versions.working_pages(txn_id) {
                let image = self.vas.read(work.page)?;
                let base = match work.base {
                    Some(phys) => {
                        base_buf.resize(image.len(), 0);
                        pool.read_into(phys, store, &mut base_buf)?;
                        Some(base_buf.as_slice())
                    }
                    None => None,
                };
                wal.append_page(txn_id.0, self.db.branch, work.page, base, &image)?;
            }
            // 2. Page frees.
            for page in versions.pending_frees(txn_id) {
                wal.append(&WalRecord::PageFree {
                    txn: txn_id.0,
                    branch: self.db.branch,
                    page,
                })?;
            }
            // 3. The catalog writes, encoded from the transaction's own
            // entries: no catalog guard is held across the log I/O.
            for (key, payload) in writes.records() {
                let txn = txn_id.0;
                wal.append(&match payload {
                    Some(payload) => WalRecord::CatalogPut {
                        txn,
                        branch,
                        key,
                        payload,
                    },
                    None => WalRecord::CatalogDrop { txn, branch, key },
                })?;
            }
            // 4. Make the versions current and publish the catalog writes
            // in one step, then force the commit record. The entries the
            // commit replaces are freed with `writes`, after the log lock.
            let ts = self.db.publish(txn_id, &mut writes);
            wal.append(&WalRecord::Commit { txn: txn_id.0, ts })?;
            wal.flush()?;
        }
        // 5. Strict 2PL: release everything only now.
        self.db.txns.locks.release_all(txn_id);
        // This path commits through the version manager directly (the
        // WAL interleaving above), bypassing `TxnManager::commit` — so
        // the commit is counted here.
        self.db.txns.metrics().commits.inc();
        Ok(())
    }

    /// Rolls back the active transaction. "If it is rolled back, all its
    /// versions are simply discarded."
    pub fn rollback(&mut self) -> DbResult<()> {
        if self.pinned {
            return Err(DbError::Conflict(
                "AS OF sessions are pinned to their snapshot; transaction control is not available"
                    .into(),
            ));
        }
        match self.txn.take() {
            None => Err(DbError::Conflict("no active transaction".into())),
            Some(TxnState::ReadOnly { handle, .. }) => {
                self.db.txns.abort(&handle);
                self.vas.begin(self.db.latest_view(), None);
                self.track.set_txn_mode(TxnMode::None);
                Ok(())
            }
            Some(TxnState::Update { handle, .. }) => {
                // The transaction's catalog writes go with its state.
                {
                    let mut wal = self.db.wal.lock();
                    let _ = wal.append(&WalRecord::Abort { txn: handle.id.0 });
                }
                self.db.txns.abort(&handle);
                self.db.gate.exit_shared();
                self.vas.begin(self.db.latest_view(), None);
                self.track.set_txn_mode(TxnMode::None);
                Ok(())
            }
        }
    }

    fn in_update_txn(&self) -> bool {
        matches!(self.txn, Some(TxnState::Update { .. }))
    }

    // ==============================================================
    // Statement execution
    // ==============================================================

    /// Executes one statement (query, update, or DDL). Outside an explicit
    /// transaction, the statement runs in its own auto-committed
    /// transaction (read-only for queries, updating otherwise). A query
    /// is a cursor opened and drained on the spot.
    pub fn execute(&mut self, text: &str) -> DbResult<ExecOutcome> {
        Ok(match self.run_statement(text)? {
            InnerOutcome::Cursor(mut cursor) => {
                let items = cursor.drain()?;
                self.note_query_stats(cursor.stats());
                ExecOutcome::Results(join_items(&items))
            }
            InnerOutcome::Items(items) => ExecOutcome::Results(join_items(&items)),
            InnerOutcome::Updated(n) => ExecOutcome::Updated(n),
            InnerOutcome::Done => ExecOutcome::Done,
        })
    }

    /// Executes one statement like [`Session::execute`], but returns a
    /// query's result sequence **item-at-a-time** instead of one joined
    /// string. An auto-commit query comes back as a live
    /// [`StreamOutcome::Cursor`]: nothing has executed yet, the first
    /// pull produces the first item without scanning the rest, and the
    /// cursor's private read-only transaction (and its page pins) are
    /// released when it is drained or dropped. A query inside an
    /// explicit transaction runs through the same cursor pipeline over
    /// the session's transaction and comes back drained, as
    /// [`StreamOutcome::Items`]. For a live cursor,
    /// [`Session::last_profile`] reports only the planning phases until
    /// the cursor finishes and [`Session::last_stats`] stays zeroed —
    /// the cursor folds its counters into the database-wide metrics when
    /// it finishes.
    pub fn execute_stream(&mut self, text: &str) -> DbResult<StreamOutcome> {
        Ok(match self.run_statement(text)? {
            InnerOutcome::Cursor(cursor) => StreamOutcome::Cursor(cursor),
            InnerOutcome::Items(items) => {
                StreamOutcome::Items(items.into_iter().map(|i| i.text).collect())
            }
            InnerOutcome::Updated(n) => StreamOutcome::Updated(n),
            InnerOutcome::Done => StreamOutcome::Done,
        })
    }

    /// Convenience: executes a query and returns the serialized results.
    pub fn query(&mut self, text: &str) -> DbResult<String> {
        Ok(self.execute(text)?.into_string())
    }

    /// Executes the statement with per-operator wall-clock timing
    /// enabled and returns the rendered report: phase timings, executor
    /// counters, and (for queries) the operator tree with per-operator
    /// pulls, items, and self-time. The statement really runs — updates
    /// apply, exactly like PostgreSQL's `EXPLAIN ANALYZE`.
    pub fn explain_analyze(&mut self, text: &str) -> DbResult<String> {
        let prev = self.time_plans;
        self.time_plans = true;
        let result = self.execute(text);
        self.time_plans = prev;
        result?;
        Ok(self
            .last_profile
            .lock()
            .as_ref()
            .map(QueryProfile::render)
            .unwrap_or_default())
    }

    /// Runs one statement up to the point its outcome exists: an
    /// auto-commit query is an open cursor nothing has been pulled from,
    /// a query inside a transaction has been drained, an update or DDL
    /// statement has applied.
    fn run_statement(&mut self, text: &str) -> DbResult<InnerOutcome> {
        self.track.set_statement(text);
        let result = self.run_statement_observed(text);
        // A live cursor keeps the statement visible in the activity view
        // until it finishes (its close-out clears it); every other
        // outcome is done now.
        if !matches!(result, Ok(InnerOutcome::Cursor(_))) {
            self.track.clear_statement();
        }
        result
    }

    fn run_statement_observed(&mut self, text: &str) -> DbResult<InnerOutcome> {
        if self.cancel.is_cancelled() {
            return Err(DbError::Cancelled);
        }
        let started = Instant::now();
        let mut trace = self.start_trace(text);
        let (stmt, parse_ns, rewrite_ns) = self.plan_statement(text)?;
        record_phase_spans(&mut trace, parse_ns, rewrite_ns);
        let obs = StatementObs {
            text: text.to_string(),
            started,
            parse_ns,
            rewrite_ns,
            timed: self.time_plans,
            trace,
            forced: self.trace_forced,
            track: Arc::clone(&self.track),
            profile_slot: Arc::clone(&self.last_profile),
            cancel: self.cancel.clone(),
        };
        if !matches!(stmt.kind, StatementKind::Query(_)) {
            return self.run_update_statement(stmt, obs);
        }
        if self.txn.is_none() {
            // Auto-commit: the cursor owns a read-only transaction of
            // its own and outlives this call.
            let cursor = QueryCursor::open(Arc::clone(&self.db), stmt, obs)?;
            self.last_stats = ExecStats::default();
            *self.last_profile.lock() = Some(QueryProfile {
                parse_ns,
                rewrite_ns,
                execute_ns: 0,
                stats: ExecStats::default(),
                plan: None,
            });
            return Ok(InnerOutcome::Cursor(Box::new(cursor)));
        }
        // Inside a transaction: the same engine over the session's
        // storage session and the transaction's view of the catalog. The
        // transaction's state lives on the session and cannot migrate
        // into a detached cursor, so the engine is drained here; whether
        // the query succeeds or fails, the transaction stays open.
        let catalog = self.locked_view(&stmt, LockMode::S)?;
        let mut pull = Pull::open(&self.db, stmt, obs, catalog, None)?;
        let items = pull.drain(&self.db, &self.vas)?;
        self.note_query_stats(pull.stats());
        Ok(InnerOutcome::Items(items))
    }

    /// Records a drained query's executor counters as the session's
    /// last-statement and accumulated statistics.
    fn note_query_stats(&mut self, stats: ExecStats) {
        self.last_stats = stats;
        self.session_stats.merge(&stats);
    }

    /// Parse + analyse + rewrite behind the database-wide plan cache,
    /// then the cost-based plan. The front half of the pipeline reads no
    /// catalog, so the cache holds the rewritten, uncosted statement by
    /// text alone, and every session, transaction and `AS OF` snapshot
    /// reads and fills it. Costing reads the catalog the statement runs
    /// on, so it runs on every statement, hit or miss, outside the parse
    /// and rewrite spans. Cached plans report zero parse/rewrite
    /// nanoseconds.
    fn plan_statement(&mut self, text: &str) -> DbResult<(Statement, u64, u64)> {
        let (mut stmt, parse_ns, rewrite_ns) = match self.db.shared_plans.get(text) {
            Some(stmt) => {
                self.db.obs.query.plan_cache_hits.inc();
                (stmt, 0, 0)
            }
            None => self.compile(text)?,
        };
        if self.db.cfg.cost_based_planner {
            self.cost_plan(&mut stmt);
        }
        Ok((stmt, parse_ns, rewrite_ns))
    }

    /// Runs the front half of the paper's pipeline on a plan-cache miss,
    /// timed per phase into the database-wide histograms (a span records
    /// even when its phase fails), and caches its result.
    fn compile(&self, text: &str) -> DbResult<(Statement, u64, u64)> {
        let q = &self.db.obs.query;
        q.plan_cache_misses.inc();
        let parse_span = q.parse_ns.span();
        let stmt = sedna_xquery::parser::parse_statement(text)?;
        let parse_ns = parse_span.finish();
        let rewrite_span = q.rewrite_ns.span();
        let stmt = sedna_xquery::static_ctx::analyze(stmt)?;
        let stmt = sedna_xquery::rewrite::rewrite_statement(stmt);
        let rewrite_ns = rewrite_span.finish();
        self.db.shared_plans.insert(text, stmt.clone());
        Ok((stmt, parse_ns, rewrite_ns))
    }

    /// Runs the cost-based planner over a rewritten statement: assembles
    /// the planner's view (the referenced documents' descriptive-schema
    /// statistics plus the declared indexes on them) from the catalog the
    /// statement runs on ([`Session::view`] over the published root),
    /// lets it rewrite profitable equality predicates onto B-tree index
    /// scans and order predicates by selectivity, then records the
    /// access-path choice in the `sedna_plan_chosen_*` counters and
    /// [`Session::last_plan_decision`].
    fn cost_plan(&mut self, stmt: &mut Statement) {
        let names = collect_doc_names(stmt);
        let view = self.view(self.db.published(), &names);
        let docs: HashMap<String, &SchemaTree> = names
            .iter()
            .filter_map(|n| view.docs.get(n).map(|d| (n.clone(), &d.schema)))
            .collect();
        let indexes: Vec<IndexSpec> = view
            .indexes
            .values()
            .filter(|i| docs.contains_key(&i.meta.doc))
            .map(|i| IndexSpec {
                name: i.meta.name.clone(),
                doc: i.meta.doc.clone(),
                on: i.meta.on.clone(),
                by: i.meta.by.clone(),
                key_type: i.meta.key_type,
            })
            .collect();
        let decision = planner::plan_statement(stmt, &PlannerInput { docs, indexes });
        let q = &self.db.obs.query;
        match decision.access_path {
            AccessPath::Scan => q.plan_chosen_scan.inc(),
            AccessPath::Index => q.plan_chosen_index.inc(),
            AccessPath::Descendant => q.plan_chosen_descendant.inc(),
        }
        self.last_decision = Some(decision);
    }

    /// Opens a trace for this statement when the database's sampling
    /// policy elects it, with the root statement span already begun.
    fn start_trace(&self, text: &str) -> Option<TraceCollector> {
        let policy = self.db.cfg.trace_sample;
        let elected = policy != SamplingPolicy::Off && policy.collect(self.db.traces.next_seq());
        if !elected && !self.trace_forced {
            return None;
        }
        let mut tc = TraceCollector::new(self.db.traces.next_trace_id());
        let root = tc.begin(events::QUERY_STATEMENT, 0);
        tc.set_detail(root, text.to_string());
        Some(tc)
    }

    /// Runs an update or DDL statement in the session's update
    /// transaction — its own auto-committed one outside an explicit
    /// transaction — and closes the statement out when it succeeded.
    fn run_update_statement(
        &mut self,
        stmt: Statement,
        mut obs: StatementObs,
    ) -> DbResult<InnerOutcome> {
        let implicit = self.txn.is_none();
        if implicit {
            self.begin_update()?;
        } else if !self.in_update_txn() {
            return Err(DbError::Conflict(
                "updates are not allowed in a read-only transaction".into(),
            ));
        }
        let execute_started = Instant::now();
        let result = match &stmt.kind {
            StatementKind::Update(_) => self.run_update(&stmt).map(InnerOutcome::Updated),
            StatementKind::Ddl(ddl) => self.run_ddl(ddl.clone()).map(|()| {
                self.last_stats = ExecStats::default();
                InnerOutcome::Done
            }),
            StatementKind::Query(_) => {
                Err(DbError::Conflict("queries execute through a cursor".into()))
            }
        };
        let execute_ns = elapsed_ns(execute_started);
        if implicit {
            match &result {
                Ok(_) => self.commit()?,
                Err(_) => {
                    let _ = self.rollback();
                }
            }
        }
        if result.is_ok() {
            self.session_stats.merge(&self.last_stats);
            obs.close(&self.db, execute_ns, self.last_stats, None);
        }
        result
    }

    // --------------------------------------------------------------
    // Queries
    // --------------------------------------------------------------

    /// The catalog this session's statements see over the published
    /// `root`, unlocked: `root` itself outside a transaction, a read-only
    /// transaction's snapshot, and for an update transaction the
    /// documents `names` and the indexes on them, with its own writes
    /// over `root`.
    fn view(&self, root: Arc<Catalog>, names: &[String]) -> Arc<Catalog> {
        match &self.txn {
            None => root,
            Some(TxnState::ReadOnly { snapshot, .. }) => Arc::clone(snapshot),
            Some(TxnState::Update { writes, .. }) => Arc::new(writes.view(&root, names)),
        }
    }

    /// The catalog a statement inside the open transaction runs on: a
    /// read-only transaction's snapshot (no locks, §6.3), or the update
    /// transaction's [`Session::view`] of the documents the statement
    /// reads ([`read_set`]; every document for a computed name), taken
    /// after locking each in `mode`.
    fn locked_view(&self, stmt: &Statement, mode: LockMode) -> DbResult<Arc<Catalog>> {
        let Some(TxnState::Update { handle, writes }) = &self.txn else {
            return Ok(self.view(self.db.published(), &[]));
        };
        let root = self.db.published();
        let (mut names, computed) = read_set(stmt, |i| {
            Some(writes.index(&root, i).ok()?.meta.doc.clone())
        });
        if computed {
            names = writes.doc_names(&root);
        }
        for name in &names {
            let id = writes.doc(&root, name)?.id;
            self.db.txns.locks.lock_document(handle.id, id, mode)?;
        }
        // Read again: a writer this waited for may have published since.
        Ok(self.view(self.db.published(), &names))
    }

    // --------------------------------------------------------------
    // Updates
    // --------------------------------------------------------------

    fn run_update(&mut self, stmt: &Statement) -> DbResult<usize> {
        // Phase 1 (plan) against the X-locked documents. Update statements
        // take X upfront: acquiring S during planning and upgrading to X
        // later deadlocks two writers on one document (both hold S, both
        // wait for X).
        let view = self.locked_view(stmt, LockMode::X)?;
        let (name, plan) = {
            let qv = query_view(&self.vas, &view, None);
            let (doc_idx, plan, plan_stats) = update::plan_update_with_stats(stmt, &qv)?;
            self.last_stats = plan_stats;
            (qv.docs[doc_idx].name.clone(), plan)
        };

        // Index maintenance is one before/after diff, keyed by handle, over
        // the nodes the statement can change (DESIGN.md §5).
        let metas: Vec<IndexMeta> = view
            .indexes
            .values()
            .filter(|i| i.meta.doc == name)
            .map(|i| i.meta.clone())
            .collect();
        let (survivors, before) = if metas.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let doc = &view.docs[&name];
            let (anchors, changed, survivors) = update_anchors(&self.vas, doc.storage.mode, &plan)?;
            let before = index_maps(&self.vas, doc, &metas, &anchors, changed)?;
            (survivors, before)
        };
        // Release the view's references, so the transaction copies each
        // entry out of the published root once, not once per statement.
        drop(view);

        // Phase 2: apply, to the transaction's own copy of the document.
        let root = self.db.published();
        let (vas, writes) = self.writes()?;
        let d = writes.doc_mut(&root, &name)?;
        let outcome = update::execute_plan(&plan, vas, &mut d.schema, &mut d.storage)?;
        if !metas.is_empty() {
            let added = match &plan {
                UpdatePlan::Insert { .. } => &outcome.inserted_roots[..],
                UpdatePlan::ReplaceValue { targets, .. } => &targets[..],
                UpdatePlan::Delete { .. } => &[],
            };
            let after = index_maps(vas, writes.doc(&root, &name)?, &metas, &survivors, added)?;
            for ((meta, old), new) in metas.iter().zip(before).zip(after) {
                write_index_diff(vas, writes, &root, &meta.name, &old, &new)?;
            }
        }
        Ok(outcome.affected)
    }

    // --------------------------------------------------------------
    // DDL
    // --------------------------------------------------------------

    fn run_ddl(&mut self, ddl: DdlStmt) -> DbResult<()> {
        let txn = self.current_update_handle()?.id;
        let db = Arc::clone(&self.db);
        let locks = &db.txns.locks;
        let (vas, writes) = self.writes()?;
        match ddl {
            DdlStmt::CreateDocument(name) => {
                lock_name(&db, txn, &format!("doc:{name}"))?;
                if writes.doc(&db.published(), &name).is_ok() {
                    return Err(DbError::Conflict(format!(
                        "document '{name}' already exists"
                    )));
                }
                let id = db.next_doc_id();
                locks.lock_document(txn, id, LockMode::X)?;
                let mut schema = SchemaTree::new();
                let storage = DocStorage::create(vas, &mut schema, db.cfg.parent_mode)?;
                writes.put_doc(
                    &name,
                    Some(DocData {
                        id,
                        schema,
                        storage,
                    }),
                );
            }
            DdlStmt::DropDocument(name) => {
                lock_name(&db, txn, &format!("doc:{name}"))?;
                locks.lock_document(txn, writes.doc(&db.published(), &name)?.id, LockMode::X)?;
                let root = db.published();
                free_document_pages(vas, writes.doc(&root, &name)?)?;
                // Dependent indexes go too.
                for index in writes.indexes_of(&root, &name) {
                    drop_index(vas, writes, &root, &index)?;
                }
                writes.put_doc(&name, None);
            }
            DdlStmt::CreateIndex {
                name,
                doc,
                on,
                by,
                key_type,
            } => {
                lock_name(&db, txn, &format!("index:{name}"))?;
                if writes.index(&db.published(), &name).is_ok() {
                    return Err(DbError::Conflict(format!("index '{name}' already exists")));
                }
                locks.lock_document(txn, writes.doc(&db.published(), &doc)?.id, LockMode::S)?;
                let meta = IndexMeta {
                    name: name.clone(),
                    doc,
                    on,
                    by,
                    key_type,
                };
                let mut tree = sedna_index::BTreeIndex::create(vas)?;
                tree.set_metrics(db.obs.index.clone());
                let root = db.published();
                catalog::build_index(vas, writes.doc(&root, &meta.doc)?, &meta, &mut tree)?;
                writes.put_index(&name, Some(IndexData { meta, tree }));
            }
            DdlStmt::DropIndex(name) => {
                lock_name(&db, txn, &format!("index:{name}"))?;
                // Every update of the document maintains the index: X on
                // the document keeps the drop from crossing one in flight.
                let root = db.published();
                let doc = &writes.index(&root, &name)?.meta.doc;
                locks.lock_document(txn, writes.doc(&root, doc)?.id, LockMode::X)?;
                drop_index(vas, writes, &db.published(), &name)?;
            }
        }
        Ok(())
    }

    // --------------------------------------------------------------
    // Convenience
    // --------------------------------------------------------------

    /// Bulk-loads XML text into an existing (empty) document.
    pub fn load_xml(&mut self, doc_name: &str, xml: &str) -> DbResult<u64> {
        let implicit = self.txn.is_none();
        if implicit {
            self.begin_update()?;
        }
        let result = (|| -> DbResult<u64> {
            let txn = self.current_update_handle()?.id;
            let db = Arc::clone(&self.db);
            let (vas, writes) = self.writes()?;
            let id = writes.doc(&db.published(), doc_name)?.id;
            db.txns.locks.lock_document(txn, id, LockMode::X)?;
            let events = sedna_xml::XmlReader::new(xml)
                .collect_events()
                .map_err(|e| DbError::Conflict(format!("XML parse error: {e}")))?;
            let root = db.published();
            let d = writes.doc_mut(&root, doc_name)?;
            if d.storage.doc_node(vas)?.first_child(vas)?.is_some() {
                return Err(DbError::Conflict(format!(
                    "document '{doc_name}' is not empty"
                )));
            }
            let n = build::build_from_events(vas, &mut d.schema, &mut d.storage, &events)?;
            // Indexes declared before the load must cover the new nodes.
            // The document was empty, so the whole ON-path population is
            // the delta — the same full build CREATE INDEX performs.
            for name in writes.indexes_of(&root, doc_name) {
                let doc = Arc::clone(writes.doc(&root, doc_name)?);
                let index = writes.index_mut(&root, &name)?;
                catalog::build_index(vas, &doc, &index.meta, &mut index.tree)?;
            }
            Ok(n)
        })();
        if implicit {
            match &result {
                Ok(_) => self.commit()?,
                Err(_) => {
                    let _ = self.rollback();
                }
            }
        }
        result
    }

    // --------------------------------------------------------------
    // Internal bookkeeping
    // --------------------------------------------------------------

    fn current_update_handle(&self) -> DbResult<TxnHandle> {
        match &self.txn {
            Some(TxnState::Update { handle, .. }) => Ok(handle.clone()),
            _ => Err(DbError::Conflict("not in an update transaction".into())),
        }
    }

    /// The open update transaction's catalog writes, beside the storage
    /// session they are made through.
    fn writes(&mut self) -> DbResult<(&Vas, &mut CatalogWrites)> {
        match &mut self.txn {
            Some(TxnState::Update { writes, .. }) => Ok((&self.vas, writes)),
            _ => Err(DbError::Conflict("not in an update transaction".into())),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.pinned {
            // AS OF sessions refuse rollback(); release the pinned
            // snapshot reference directly.
            if let Some(TxnState::ReadOnly { handle, .. }) = self.txn.take() {
                self.db.txns.abort(&handle);
            }
        } else if self.txn.is_some() {
            let _ = self.rollback();
        }
        // Matches the reservation taken in `Database::{session,
        // try_session}` — frees an admission-control slot.
        self.db.release_session();
    }
}

/// Calls `f` on every expression of the statement, subexpressions
/// included (the walk itself is [`Expr::visit`]).
fn visit_statement<'a>(stmt: &'a Statement, f: &mut impl FnMut(&'a Expr)) {
    for v in &stmt.vars {
        v.init.visit(f);
    }
    for func in &stmt.functions {
        func.body.visit(f);
    }
    match &stmt.kind {
        StatementKind::Query(e) => e.visit(f),
        StatementKind::Update(u) => match u {
            UpdateStmt::Insert { what, target, .. } => {
                what.visit(f);
                target.visit(f);
            }
            UpdateStmt::Delete { target } => target.visit(f),
            UpdateStmt::ReplaceValue { target, with } => {
                target.visit(f);
                with.visit(f);
            }
        },
        StatementKind::Ddl(_) => {}
    }
}

/// The documents a statement reads: those it names and those of the
/// indexes it scans, looked up by `index_doc`; and whether it may read
/// any other, because a `doc()` argument or a scanned index's name is
/// computed.
pub(crate) fn read_set(
    stmt: &Statement,
    index_doc: impl Fn(&str) -> Option<String>,
) -> (Vec<String>, bool) {
    let (mut docs, indexes, computed) = statement_names(stmt);
    for doc in indexes.iter().filter_map(|i| index_doc(i)) {
        if !docs.contains(&doc) {
            docs.push(doc);
        }
    }
    (docs, computed)
}

/// Document names statically referenced by a statement (`doc('name')`
/// path starts and literal `doc()` calls), sorted.
pub(crate) fn collect_doc_names(stmt: &Statement) -> Vec<String> {
    statement_names(stmt).0
}

/// The names a statement reads by, from one walk: its documents (as
/// [`collect_doc_names`]), the indexes its `index-scan` calls name, both
/// sorted, and whether any such name is computed.
fn statement_names(stmt: &Statement) -> (Vec<String>, Vec<String>, bool) {
    let mut docs = BTreeSet::new();
    let mut indexes = BTreeSet::new();
    let mut computed = false;
    visit_statement(stmt, &mut |e| match e {
        Expr::Path {
            start: PathStart::Doc(d),
            ..
        }
        | Expr::StructuralPath { doc: d, .. } => {
            docs.insert(d.clone());
        }
        Expr::FnCall { name, args, .. } => {
            let names = match name.as_str() {
                "doc" | "document" => &mut docs,
                "index-scan" | "index-scan-between" => &mut indexes,
                _ => return,
            };
            match args.first() {
                Some(Expr::Literal(Atom::String(n))) => {
                    names.insert(n.clone());
                }
                _ => computed = true,
            }
        }
        _ => {}
    });
    if let StatementKind::Ddl(DdlStmt::CreateIndex { doc, .. }) = &stmt.kind {
        docs.insert(doc.clone());
    }
    (
        docs.into_iter().collect(),
        indexes.into_iter().collect(),
        computed,
    )
}

/// Locks catalog name `key` (`doc:…` / `index:…`) exclusively until the
/// transaction ends, so two transactions cannot both create it: the
/// second waits for the first to finish, then checks the published root.
/// Names hash into the upper half of the document-lock space, which
/// document ids, counting up from 0, never reach; a hash collision only
/// serializes two unrelated DDL statements.
fn lock_name(db: &DbInner, txn: TxnId, key: &str) -> DbResult<()> {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::hash::Hash::hash(key, &mut hasher);
    let id = std::hash::Hasher::finish(&hasher) | 1 << 63;
    Ok(db.txns.locks.lock_document(txn, id, LockMode::X)?)
}

/// Frees index `name`'s tree and drops its entry.
fn drop_index(vas: &Vas, writes: &mut CatalogWrites, root: &Catalog, name: &str) -> DbResult<()> {
    let index = writes.index(root, name)?;
    index.tree.clone().destroy(vas)?;
    writes.put_index(name, None);
    Ok(())
}

/// Handle → key, per index, over the ON nodes among the `anchors`'
/// ancestors-or-self (a BY path starts at its ON node and only descends)
/// and in the subtrees under `roots`, as document `doc` stands now.
fn index_maps(
    vas: &Vas,
    doc: &DocData,
    metas: &[IndexMeta],
    anchors: &[XPtr],
    roots: &[XPtr],
) -> DbResult<Vec<BTreeMap<XPtr, IndexKey>>> {
    let mut nodes = subtree_nodes(vas, roots)?;
    for &a in anchors {
        nodes.extend(ancestors_or_self(vas, doc.storage.mode, deref(vas, a)?)?);
    }
    metas
        .iter()
        .map(|meta| catalog::index_entries(vas, doc, meta, &nodes))
        .collect()
}

/// Writes what changed between index `name`'s `before` and `after` maps
/// and nothing else; an unchanged index stays out of the transaction's
/// writes.
fn write_index_diff<'m>(
    vas: &Vas,
    writes: &mut CatalogWrites,
    root: &Catalog,
    name: &str,
    before: &'m BTreeMap<XPtr, IndexKey>,
    after: &'m BTreeMap<XPtr, IndexKey>,
) -> DbResult<()> {
    let stale = |from: &'m BTreeMap<XPtr, IndexKey>, to: &BTreeMap<XPtr, IndexKey>| {
        from.iter()
            .filter(|&(h, k)| to.get(h) != Some(k))
            .collect::<Vec<_>>()
    };
    let (removed, added) = (stale(before, after), stale(after, before));
    if removed.is_empty() && added.is_empty() {
        return Ok(());
    }
    let tree = &mut writes.index_mut(root, name)?.tree;
    for (&h, key) in removed {
        tree.remove(vas, key, h)?;
    }
    for (&h, key) in added {
        tree.insert(vas, key, h)?;
    }
    Ok(())
}

fn deref(vas: &Vas, handle: XPtr) -> DbResult<NodeRef> {
    Ok(NodeRef(indirection::deref_handle(vas, handle)?))
}

/// `node` and its ancestors up to the document node.
fn ancestors_or_self(vas: &Vas, mode: ParentMode, node: NodeRef) -> DbResult<Vec<NodeRef>> {
    let mut out = vec![node];
    while let Some(parent) = out[out.len() - 1].parent(vas, mode)? {
        out.push(parent);
    }
    Ok(out)
}

/// Every node of the subtrees behind the handles `roots`.
fn subtree_nodes(vas: &Vas, roots: &[XPtr]) -> DbResult<Vec<NodeRef>> {
    let mut stack = roots
        .iter()
        .map(|&h| deref(vas, h))
        .collect::<DbResult<Vec<_>>>()?;
    let mut out = Vec::new();
    while let Some(n) = stack.pop() {
        out.push(n);
        if matches!(n.kind(vas)?, NodeKind::Element | NodeKind::Document) {
            stack.extend(n.children(vas)?);
        }
    }
    Ok(out)
}

/// Where an update plan can change index entries, read before it runs.
/// Returns its *anchors* — nodes that hold every change in their
/// subtrees: the target of an insert-into or a replace, the target's
/// parent otherwise — then the roots of the subtrees it deletes or
/// replaces, then the anchors that survive it (a delete can take the
/// anchor of another of its targets with it).
fn update_anchors<'p>(
    vas: &Vas,
    mode: ParentMode,
    plan: &'p UpdatePlan,
) -> DbResult<(Vec<XPtr>, &'p [XPtr], Vec<XPtr>)> {
    let parents = |targets: &[XPtr]| -> DbResult<Vec<XPtr>> {
        let mut out = Vec::new();
        for &t in targets {
            if let Some(parent) = deref(vas, t)?.parent(vas, mode)? {
                out.push(parent.handle(vas)?);
            }
        }
        Ok(out)
    };
    let (anchors, roots) = match plan {
        UpdatePlan::Insert {
            pos: InsertPos::Into,
            targets,
            ..
        } => (targets.clone(), &[][..]),
        UpdatePlan::Insert { targets, .. } => (parents(targets)?, &[][..]),
        UpdatePlan::Delete { targets } => (parents(targets)?, &targets[..]),
        UpdatePlan::ReplaceValue { targets, .. } => (targets.clone(), &targets[..]),
    };
    let UpdatePlan::Delete { targets } = plan else {
        return Ok((anchors.clone(), roots, anchors));
    };
    let deleted = targets
        .iter()
        .map(|&t| deref(vas, t))
        .collect::<DbResult<HashSet<_>>>()?;
    let mut survivors = Vec::new();
    for &a in &anchors {
        let chain = ancestors_or_self(vas, mode, deref(vas, a)?)?;
        if !chain.iter().any(|n| deleted.contains(n)) {
            survivors.push(a);
        }
    }
    Ok((anchors, roots, survivors))
}

/// Frees every page belonging to a document: all schema-node block lists,
/// the overflow indirection chain, and the text chain.
fn free_document_pages(vas: &Vas, data: &DocData) -> DbResult<()> {
    use sedna_storage::block;
    let mut pages = Vec::new();
    for sid in data.schema.ids() {
        let mut blk = data.schema.node(sid).first_block;
        while !blk.is_null() {
            let next = {
                let page = vas.read(blk)?;
                block::next_block(&page)
            };
            pages.push(blk);
            blk = next;
        }
    }
    let mut blk = data.storage.overflow_indir;
    while !blk.is_null() {
        let next = {
            let page = vas.read(blk)?;
            block::next_block(&page)
        };
        pages.push(blk);
        blk = next;
    }
    // Text chains (one per schema group).
    for &head in data.storage.text.heads.values() {
        let mut blk = head;
        while !blk.is_null() {
            let next = {
                let page = vas.read(blk)?;
                sedna_sas::XPtr::read_at(&page, sedna_storage::layout::TH_NEXT)
            };
            pages.push(blk);
            blk = next;
        }
    }
    for p in pages {
        vas.free_page(p)?;
    }
    Ok(())
}
