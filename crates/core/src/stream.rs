//! The query path: every query is "open a cursor, pull, close out".
//!
//! The paper's executor is demand-driven ("each physical operation is
//! implemented as iterator [providing the] well known open-next-close
//! interface", §5.2); this module carries that discipline across the
//! session boundary. There is one pull engine, [`Pull`] — the compiled
//! operator pipeline, the executor's suspended state, the catalog
//! snapshot it reads and the statement's observability context — and it
//! has two owners that differ only in whose transaction it runs over:
//!
//! * the detached [`QueryCursor`] an auto-commit query comes back as: it
//!   begins a read-only transaction of its own, reads through a private
//!   storage session, and commits when it finishes;
//! * the session itself, for a query inside an explicit transaction: the
//!   engine runs over the session's storage session and the transaction's
//!   view of the catalog (so it sees the transaction's own writes), is
//!   drained before the call returns, and never ends the transaction.
//!
//! Every pull resumes the pipeline where it stopped, so a streaming plan
//! pins O(pipeline depth) buffer pages instead of O(result size), and
//! time-to-first-item is independent of result cardinality. See
//! `docs/streaming.md` for the cursor contract.
//!
//! [`StatementObs::close`] is the one place a statement of any kind is
//! closed out: the execute-phase histogram, the executor counters, the
//! session's profile slot, the trace and the slow-query log.

use std::time::Instant;

use sedna_sync::{Arc, Mutex};

use sedna_obs::trace::{events, TraceCollector};
use sedna_sas::Vas;
use sedna_txn::TxnHandle;
use sedna_xquery::ast::{Statement, StatementKind, Step};
use sedna_xquery::cursor::Plan;
use sedna_xquery::exec::{
    Database as QueryView, DocEntry, ExecState, ExecStats, Executor, IndexEntry,
};
use sedna_xquery::value::Item as QueryItem;
use sedna_xquery::{cost, OpProfile, QueryError};

use crate::catalog::{Catalog, DocData};
use crate::database::DbInner;
use crate::error::{DbError, DbResult};
use crate::introspect::{SessionTrack, SlowQueryEntry};
use crate::metrics::QueryProfile;
use crate::session::read_set;

/// Nanoseconds elapsed since `started`, saturated to `u64`.
pub(crate) fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One rendered result item. Atoms are space-separated when adjacent in
/// the joined rendering; nodes concatenate directly (the serializer
/// contract of `Executor::serialize_sequence`).
pub(crate) struct RenderedItem {
    pub(crate) atom: bool,
    pub(crate) text: String,
}

/// The observability context of one statement: its identity (for the
/// slow log and the root span), when it started, the planning timings
/// for the profile, the trace in progress (if the statement was
/// sampled), and the owning session's activity record, profile slot and
/// cancellation flag. A detached cursor carries it away from the
/// session.
pub(crate) struct StatementObs {
    /// The statement text.
    pub(crate) text: String,
    /// When the statement started (before parse): the clock the
    /// slow-query threshold is measured on.
    pub(crate) started: Instant,
    /// Parse-phase nanoseconds (zero on plan-cache hits).
    pub(crate) parse_ns: u64,
    /// Rewrite-phase nanoseconds (zero on plan-cache hits).
    pub(crate) rewrite_ns: u64,
    /// Force per-operator wall-clock timing even without a trace
    /// (`EXPLAIN ANALYZE`).
    pub(crate) timed: bool,
    /// The trace being collected for this statement, if sampled.
    pub(crate) trace: Option<TraceCollector>,
    /// The trace was forced (per-request flag): always publish it,
    /// regardless of the sampling policy's keep decision.
    pub(crate) forced: bool,
    /// The owning session's activity record.
    pub(crate) track: Arc<SessionTrack>,
    /// The owning session's `last_profile` slot.
    pub(crate) profile_slot: Arc<Mutex<Option<QueryProfile>>>,
    /// The owning session's cancellation flag: a pull that observes it
    /// set finishes the cursor (committing the transaction, releasing
    /// every pin) and fails with [`DbError::Cancelled`].
    pub(crate) cancel: crate::cancel::CancelFlag,
}

impl StatementObs {
    /// Closes the statement out: counts it, records the execute phase
    /// and the executor counters in the database-wide metrics, writes
    /// the profile into the session's slot, closes the root span and
    /// publishes the trace when the policy keeps it, and records the
    /// statement in the slow-query ring when the time since it started
    /// crossed the configured threshold.
    pub(crate) fn close(
        &mut self,
        db: &DbInner,
        execute_ns: u64,
        stats: ExecStats,
        plan: Option<OpProfile>,
    ) {
        let q = &db.obs.query;
        q.statements.inc();
        q.execute_ns.record(execute_ns);
        q.record_exec_stats(&stats);
        *self.profile_slot.lock() = Some(QueryProfile {
            parse_ns: self.parse_ns,
            rewrite_ns: self.rewrite_ns,
            execute_ns,
            stats,
            plan,
        });
        self.track.clear_statement();
        let total_ns = elapsed_ns(self.started);
        let threshold_ns = db.cfg.slow_query_ms.saturating_mul(1_000_000);
        let slow = threshold_ns > 0 && total_ns >= threshold_ns;
        let mut trace_id = 0;
        if let Some(mut t) = self.trace.take() {
            let now = t.now_ns();
            t.add_complete(
                events::QUERY_EXECUTE,
                1,
                now.saturating_sub(execute_ns),
                now,
                String::new(),
            );
            if self.forced || db.cfg.trace_sample.keep(slow) {
                t.end(1);
                trace_id = t.trace_id();
                db.traces.publish(trace_id, t.into_events());
                q.traces_published.inc();
                self.track.set_last_trace(trace_id);
            }
        }
        if slow {
            q.slow_queries.inc();
            db.slow_log.push(SlowQueryEntry {
                statement: self.text.clone(),
                total_ns,
                trace_id,
            });
        }
    }
}

/// The executor's borrowed view over the documents `names` of a catalog
/// (every document when `None`) and the indexes on them.
pub(crate) fn query_view<'a>(
    vas: &'a Vas,
    catalog: &'a Catalog,
    names: Option<&[String]>,
) -> QueryView<'a> {
    fn entry<'a>((name, d): (&String, &'a Arc<DocData>)) -> DocEntry<'a> {
        DocEntry {
            name: name.clone(),
            schema: &d.schema,
            doc: &d.storage,
        }
    }
    let docs: Vec<DocEntry> = match names {
        Some(names) => names
            .iter()
            .filter_map(|n| catalog.docs.get_key_value(n))
            .map(entry)
            .collect(),
        None => catalog.docs.iter().map(entry).collect(),
    };
    let indexes = catalog
        .indexes
        .iter()
        .filter_map(|(name, i)| {
            Some(IndexEntry {
                name: name.clone(),
                doc: docs.iter().position(|d| d.name == i.meta.doc)?,
                index: &i.tree,
            })
        })
        .collect();
    QueryView { vas, docs, indexes }
}

/// The pull engine: one query's compiled [`Plan`], the executor's
/// suspended state, the catalog the query reads, and the statement's
/// observability context.
///
/// **Pin lifetime.** Page pins are held only *inside* a pull: the
/// executor is rebuilt around the suspended state per call and dropped
/// before it returns, so between pulls the engine holds no page guards
/// at all.
///
/// **Completion.** When the sequence is exhausted, a pull fails, or the
/// session is cancelled, the engine finishes itself: it commits the
/// transaction it owns (if any) and closes the statement out. Finishing
/// is idempotent.
pub(crate) struct Pull {
    /// The read-only transaction this engine began for itself and
    /// commits when it finishes (the detached cursor); `None` when it
    /// runs over its session's open transaction, which it never ends.
    txn: Option<TxnHandle>,
    catalog: Arc<Catalog>,
    /// The documents of `catalog` the statement reads ([`read_set`]);
    /// `None`: every one, for a computed name.
    reads: Option<Vec<String>>,
    stmt: Statement,
    plan: Plan,
    state: Option<ExecState>,
    /// The executor counters at finish (the live ones are in `state`).
    final_stats: ExecStats,
    /// Globals bound (the pipeline's one-time "open" work done)?
    opened: bool,
    opened_at: Instant,
    items: u64,
    done: bool,
    obs: StatementObs,
    /// Trace-clock bounds of the coalesced `cursor.pull` span: pulls
    /// are too fine-grained to record individually, so the trace gets
    /// one span covering first-pull-begin through last-pull-end.
    first_pull_begin_ns: Option<u64>,
    last_pull_end_ns: u64,
}

impl Pull {
    /// Compiles the pull pipeline of `stmt` over `catalog`. Referenced
    /// documents are validated here so "no such document" surfaces at
    /// execute time, not at the first fetch. On failure `txn` (if any) is
    /// committed.
    pub(crate) fn open(
        db: &DbInner,
        stmt: Statement,
        mut obs: StatementObs,
        catalog: Arc<Catalog>,
        txn: Option<TxnHandle>,
    ) -> DbResult<Pull> {
        let open_span = obs.trace.as_mut().map(|t| t.begin(events::CURSOR_OPEN, 1));
        let (names, computed) = read_set(&stmt, |i| Some(catalog.indexes.get(i)?.meta.doc.clone()));
        let missing = names.iter().find(|name| !catalog.docs.contains_key(*name));
        let compiled = match (&stmt.kind, missing) {
            (StatementKind::Query(e), None) => Ok(Plan::compile(e)),
            (StatementKind::Query(_), Some(name)) => {
                Err(QueryError::Dynamic(format!("no such document '{name}'")).into())
            }
            _ => Err(DbError::Conflict(
                "only queries execute through a cursor".into(),
            )),
        };
        let mut plan = match compiled {
            Ok(plan) => plan,
            Err(e) => {
                if let Some(handle) = &txn {
                    db.txns.commit(handle);
                }
                return Err(e);
            }
        };
        if obs.timed || obs.trace.is_some() {
            plan.enable_timing();
        }
        if db.cfg.cost_based_planner {
            // Stamp per-operator cardinality estimates from the schema
            // statistics, so EXPLAIN ANALYZE renders `est=N act=M`.
            plan.annotate_estimates(&|doc: &str, steps: &[Step]| {
                cost::estimate_path_cardinality(&catalog.docs.get(doc)?.schema, steps)
            });
        }
        db.obs.query.cursor_depth.set(plan.depth() as i64);
        if let (Some(t), Some(span)) = (obs.trace.as_mut(), open_span) {
            t.end(span);
        }
        let reads = (!computed).then_some(names);
        Ok(Pull {
            txn,
            catalog,
            reads,
            stmt,
            plan,
            state: Some(ExecState::default()),
            final_stats: ExecStats::default(),
            opened: false,
            opened_at: Instant::now(),
            items: 0,
            done: false,
            obs,
            first_pull_begin_ns: None,
            last_pull_end_ns: 0,
        })
    }

    /// Resumes the pipeline over `vas` for up to `limit` items, handing
    /// each to `sink` serialized. Finishes the engine when the sequence
    /// is exhausted, on a failed pull, and when the session's
    /// cancellation flag is set (pins live only inside a pull, so a
    /// cancelled engine leaks nothing).
    pub(crate) fn pull(
        &mut self,
        db: &DbInner,
        vas: &Vas,
        limit: usize,
        sink: &mut dyn FnMut(RenderedItem),
    ) -> DbResult<()> {
        if self.done {
            return Ok(());
        }
        if self.obs.cancel.is_cancelled() {
            self.finish(db);
            return Err(DbError::Cancelled);
        }
        let pull_begin = self.obs.trace.as_ref().map(|t| t.now_ns());
        // Only the documents the statement reads, so a pull costs the
        // same beside any number of other documents.
        let view = query_view(vas, &self.catalog, self.reads.as_deref());
        let state = self.state.take().unwrap_or_default();
        let mut ex = Executor::with_state(&view, &self.stmt, db.cfg.construct_mode, state);
        let q = &db.obs.query;
        let mut step = || -> DbResult<bool> {
            if !self.opened {
                // One-time open work: bind the prolog's global variables.
                ex.bind_globals()?;
                self.opened = true;
            }
            for _ in 0..limit {
                let item = match self.plan.next(&mut ex)? {
                    None => return Ok(true),
                    Some(QueryItem::Atom(a)) => RenderedItem {
                        atom: true,
                        text: a.to_string_value(),
                    },
                    Some(QueryItem::Node(n)) => {
                        let mut text = String::new();
                        ex.serialize_node(n, &mut text)?;
                        RenderedItem { atom: false, text }
                    }
                };
                if self.items == 0 {
                    q.ttfi_ns.record(elapsed_ns(self.opened_at));
                }
                self.items += 1;
                self.obs.track.add_items_streamed(1);
                q.items_pulled.inc();
                sink(item);
            }
            Ok(false)
        };
        let exhausted = step();
        self.state = Some(ex.into_state());
        if let Some(t) = &self.obs.trace {
            if self.first_pull_begin_ns.is_none() {
                self.first_pull_begin_ns = pull_begin;
            }
            self.last_pull_end_ns = t.now_ns();
        }
        match exhausted {
            Ok(false) => Ok(()),
            Ok(true) => {
                self.finish(db);
                Ok(())
            }
            Err(e) => {
                self.finish(db);
                Err(e)
            }
        }
    }

    /// Pulls the rest of the sequence; the engine is finished afterwards.
    pub(crate) fn drain(&mut self, db: &DbInner, vas: &Vas) -> DbResult<Vec<RenderedItem>> {
        let mut items = Vec::new();
        self.pull(db, vas, usize::MAX, &mut |item| items.push(item))?;
        Ok(items)
    }

    /// Commits the transaction the engine owns (if any) and closes the
    /// statement out with the operator tree's profile. Idempotent.
    pub(crate) fn finish(&mut self, db: &DbInner) {
        if self.done {
            return;
        }
        self.done = true;
        self.final_stats = self.state.take().map(|s| s.stats).unwrap_or_default();
        let finish_begin = self.obs.trace.as_ref().map(|t| t.now_ns());
        if let Some(handle) = self.txn.take() {
            db.txns.commit(&handle);
        }
        if let Some(t) = &mut self.obs.trace {
            if let Some(begin) = self.first_pull_begin_ns {
                t.add_complete(
                    events::CURSOR_PULL,
                    1,
                    begin,
                    self.last_pull_end_ns,
                    format!("{} items", self.items),
                );
            }
            if let Some(begin) = finish_begin {
                let now = t.now_ns();
                t.add_complete(events::CURSOR_FINISH, 1, begin, now, String::new());
            }
        }
        self.obs.close(
            db,
            elapsed_ns(self.opened_at),
            self.final_stats,
            Some(self.plan.profile()),
        );
    }

    /// The executor counters: live while the engine runs (a streaming
    /// plan's `nodes_scanned` grows with each pull instead of jumping to
    /// the full scan count up front), final once it has finished.
    pub(crate) fn stats(&self) -> ExecStats {
        self.state.as_ref().map_or(self.final_stats, |s| s.stats)
    }
}

/// A live cursor over one auto-commit query: the detached owner of a
/// pull engine.
///
/// The cursor owns everything the query needs to keep running after
/// [`Session::execute_stream`] returns: a read-only transaction pinning
/// the snapshot it reads (§6.3 — no document locks), the published
/// catalog of the same commit, a private storage session, and the
/// engine. Each [`QueryCursor::next_item`] call resumes the operator
/// tree for exactly one item; between calls the cursor holds no page
/// guards at all — only the version-snapshot reference of its read-only
/// transaction — so dropping it mid-stream releases every pin
/// immediately.
///
/// When the sequence is exhausted, a pull fails, the session is
/// cancelled, or the cursor is dropped, it commits its transaction and
/// closes the statement out (metrics, the session's profile slot, trace,
/// slow log).
///
/// [`Session::execute_stream`]: crate::Session::execute_stream
pub struct QueryCursor {
    db: Arc<DbInner>,
    vas: Vas,
    pull: Pull,
}

impl QueryCursor {
    /// Opens a cursor: begins a read-only transaction paired with the
    /// catalog of the same commit, and opens the engine over both.
    pub(crate) fn open(
        db: Arc<DbInner>,
        stmt: Statement,
        obs: StatementObs,
    ) -> DbResult<QueryCursor> {
        let (handle, catalog) = db.begin_snapshot();
        let vas = db.sas.session();
        vas.begin(handle.view(), None);
        let pull = Pull::open(&db, stmt, obs, catalog, Some(handle))?;
        Ok(QueryCursor { db, vas, pull })
    }

    /// Pulls the next result item, serialized. Returns `Ok(None)` once
    /// the sequence is exhausted — at which point the read-only
    /// transaction has been committed and every pin released. A failed
    /// pull finishes the cursor the same way before returning the error.
    pub fn next_item(&mut self) -> DbResult<Option<String>> {
        let mut next = None;
        self.pull
            .pull(&self.db, &self.vas, 1, &mut |item| next = Some(item.text))?;
        Ok(next)
    }

    /// Pulls the rest of the sequence in one resumption of the pipeline.
    pub(crate) fn drain(&mut self) -> DbResult<Vec<RenderedItem>> {
        self.pull.drain(&self.db, &self.vas)
    }

    /// Operator-pipeline depth of the compiled plan — the bound on
    /// concurrently pinned pages for streaming plans.
    pub fn depth(&self) -> usize {
        self.pull.plan.depth()
    }

    /// Whether the plan's root operator streams. `false` means the whole
    /// result materializes behind the cursor interface on the first pull
    /// (blocking plans: order-by FLWOR, `last()`-dependent predicates,
    /// constructs the compiler has no pull operator for).
    pub fn is_streaming(&self) -> bool {
        self.pull.plan.is_streaming()
    }

    /// Items pulled so far.
    pub fn items_pulled(&self) -> u64 {
        self.pull.items
    }

    /// The executor counters accumulated so far (a live view: a
    /// streaming plan's `nodes_scanned` grows with each pull instead of
    /// jumping to the full scan count up front).
    pub fn stats(&self) -> ExecStats {
        self.pull.stats()
    }

    /// Whether the cursor is exhausted (its transaction committed).
    pub fn is_done(&self) -> bool {
        self.pull.done
    }
}

impl Iterator for QueryCursor {
    type Item = DbResult<String>;

    fn next(&mut self) -> Option<DbResult<String>> {
        self.next_item().transpose()
    }
}

impl Drop for QueryCursor {
    fn drop(&mut self) {
        self.pull.finish(&self.db);
    }
}

impl std::fmt::Debug for QueryCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCursor")
            .field("depth", &self.depth())
            .field("streaming", &self.is_streaming())
            .field("items_pulled", &self.pull.items)
            .field("done", &self.pull.done)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use sedna_sync::Arc;

    use super::query_view;
    use crate::{Database, DbConfig, StreamOutcome};

    #[test]
    fn a_pull_views_only_the_documents_its_statement_reads() {
        let dir = std::env::temp_dir().join(format!("sedna-read-set-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::create(&dir, DbConfig::small()).unwrap();
        let mut s = db.session();
        for d in 0..20 {
            s.execute(&format!("CREATE DOCUMENT 'other{d}'")).unwrap();
            s.load_xml(&format!("other{d}"), "<r/>").unwrap();
        }
        s.execute("CREATE DOCUMENT 'a'").unwrap();
        s.load_xml("a", "<r><x>1</x></r>").unwrap();
        s.execute("CREATE INDEX 'ia' ON doc('a')/r BY x AS xs:string")
            .unwrap();
        let mut view = |query: &str| {
            let StreamOutcome::Cursor(c) = s.execute_stream(query).unwrap() else {
                panic!("an auto-commit query streams");
            };
            let v = query_view(&c.vas, &c.pull.catalog, c.pull.reads.as_deref());
            (
                v.docs.iter().map(|d| d.name.clone()).collect::<Vec<_>>(),
                v.indexes.len(),
            )
        };
        assert_eq!(view("count(doc('a')/r/x)"), (vec!["a".to_string()], 1));
        assert_eq!(
            view("count(index-scan('ia', '1'))"),
            (vec!["a".to_string()], 1)
        );
        // A computed name may be any document.
        assert_eq!(view("count(doc(concat('a', ''))/r/x)").0.len(), 21);
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_is_the_published_root_and_a_commit_replaces_only_its_entries() {
        let dir = std::env::temp_dir().join(format!("sedna-snapshot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::create(&dir, DbConfig::small()).unwrap();
        let mut s = db.session();
        for d in ["a", "b"] {
            s.execute(&format!("CREATE DOCUMENT '{d}'")).unwrap();
            s.load_xml(d, "<r><x>1</x></r>").unwrap();
            s.execute(&format!(
                "CREATE INDEX 'i{d}' ON doc('{d}')/r BY x AS xs:string"
            ))
            .unwrap();
        }
        let StreamOutcome::Cursor(mut cursor) = s.execute_stream("doc('a')/r/x").unwrap() else {
            panic!("an auto-commit query streams");
        };
        let before = db.inner.published();
        assert!(Arc::ptr_eq(&cursor.pull.catalog, &before));

        // Changes document `a` and the key of its index entry.
        s.execute("UPDATE replace value of doc('a')/r/x with '2'")
            .unwrap();
        let after = db.inner.published();
        assert!(!Arc::ptr_eq(&before.docs["a"], &after.docs["a"]));
        assert!(!Arc::ptr_eq(&before.indexes["ia"], &after.indexes["ia"]));
        assert!(Arc::ptr_eq(&before.docs["b"], &after.docs["b"]));
        assert!(Arc::ptr_eq(&before.indexes["ib"], &after.indexes["ib"]));

        // The open cursor keeps reading the commit it began at.
        assert!(Arc::ptr_eq(&cursor.pull.catalog, &before));
        assert_eq!(cursor.next_item().unwrap().as_deref(), Some("<x>1</x>"));
        drop((cursor, s));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
