//! Per-database observability: the metric registry every subsystem
//! reports into, the query-pipeline metrics, and the per-statement
//! [`QueryProfile`] surfaced through [`Session::last_profile`].
//!
//! [`Session::last_profile`]: crate::Session::last_profile

use sedna_index::IndexMetrics;
use sedna_obs::{Counter, Gauge, Histogram, Registry};
use sedna_xquery::exec::ExecStats;
use sedna_xquery::OpProfile;

/// Query-pipeline metric handles (`sedna_query_*` / `sedna_exec_*`):
/// statement counts, per-phase latency histograms for the paper's
/// parse → analyse/rewrite → execute pipeline, and the executor's
/// counters accumulated database-wide. Cloning shares the handles.
#[derive(Clone, Debug, Default)]
pub(crate) struct QueryMetrics {
    pub(crate) statements: Counter,
    pub(crate) parse_ns: Histogram,
    pub(crate) rewrite_ns: Histogram,
    pub(crate) execute_ns: Histogram,
    pub(crate) nodes_scanned: Counter,
    pub(crate) ddo_sorts: Counter,
    pub(crate) ddo_items: Counter,
    pub(crate) ctor_copies: Counter,
    pub(crate) index_lookups: Counter,
    pub(crate) cache_hits: Counter,
    pub(crate) plan_cache_hits: Counter,
    pub(crate) plan_cache_misses: Counter,
    pub(crate) plan_cache_shared_lock_waits: Counter,
    pub(crate) plan_chosen_scan: Counter,
    pub(crate) plan_chosen_index: Counter,
    pub(crate) plan_chosen_descendant: Counter,
    pub(crate) items_pulled: Counter,
    pub(crate) cursor_depth: Gauge,
    pub(crate) ttfi_ns: Histogram,
    pub(crate) slow_queries: Counter,
    pub(crate) traces_published: Counter,
}

impl QueryMetrics {
    pub(crate) fn register_into(&self, reg: &Registry) {
        reg.register_counter(
            "sedna_query_statements_total",
            "Statements executed (a query counts when its cursor closes)",
            &self.statements,
        );
        reg.register_histogram(
            "sedna_query_parse_ns",
            "Statement parse-phase latency (ns)",
            &self.parse_ns,
        );
        reg.register_histogram(
            "sedna_query_rewrite_ns",
            "Static-analysis + rewrite phase latency (ns)",
            &self.rewrite_ns,
        );
        reg.register_histogram(
            "sedna_query_execute_ns",
            "Execute-phase latency (ns)",
            &self.execute_ns,
        );
        reg.register_counter(
            "sedna_exec_nodes_scanned_total",
            "Nodes produced by axis evaluation",
            &self.nodes_scanned,
        );
        reg.register_counter(
            "sedna_exec_ddo_sorts_total",
            "DDO materialization points executed",
            &self.ddo_sorts,
        );
        reg.register_counter(
            "sedna_exec_ddo_items_total",
            "Items passing through DDO sorts",
            &self.ddo_items,
        );
        reg.register_counter(
            "sedna_exec_ctor_copies_total",
            "Nodes deep-copied by constructors",
            &self.ctor_copies,
        );
        reg.register_counter(
            "sedna_exec_index_lookups_total",
            "Executor index lookups",
            &self.index_lookups,
        );
        reg.register_counter(
            "sedna_exec_cache_hits_total",
            "Lazy-evaluation cache hits",
            &self.cache_hits,
        );
        reg.register_counter(
            "sedna_plan_cache_hits_total",
            "Statements served from the plan cache (parse/rewrite skipped)",
            &self.plan_cache_hits,
        );
        reg.register_counter(
            "sedna_plan_cache_misses_total",
            "Statements that went through parse + rewrite",
            &self.plan_cache_misses,
        );
        reg.register_counter(
            "sedna_plan_cache_shared_lock_waits_total",
            "Plan-cache lookups that had to block on a contended shard lock",
            &self.plan_cache_shared_lock_waits,
        );
        reg.register_counter(
            "sedna_plan_chosen_scan_total",
            "Statements the cost-based planner compiled with a structural-scan access path",
            &self.plan_chosen_scan,
        );
        reg.register_counter(
            "sedna_plan_chosen_index_total",
            "Statements the cost-based planner compiled with a B-tree index access path",
            &self.plan_chosen_index,
        );
        reg.register_counter(
            "sedna_plan_chosen_descendant_total",
            "Statements the cost-based planner compiled with a descendant-expansion access path",
            &self.plan_chosen_descendant,
        );
        reg.register_counter(
            "sedna_exec_items_pulled_total",
            "Result items pulled through query cursors",
            &self.items_pulled,
        );
        reg.register_gauge(
            "sedna_exec_cursor_depth",
            "Operator-pipeline depth of the most recently opened query cursor",
            &self.cursor_depth,
        );
        reg.register_histogram(
            "sedna_exec_time_to_first_item_ns",
            "Cursor-open to first-item latency of queries (ns)",
            &self.ttfi_ns,
        );
        reg.register_counter(
            "sedna_slow_queries_total",
            "Statements whose pipeline total exceeded the slow-query threshold",
            &self.slow_queries,
        );
        reg.register_counter(
            "sedna_traces_published_total",
            "Query traces published into the trace ring",
            &self.traces_published,
        );
    }

    /// Folds one statement's executor counters into the database-wide
    /// totals.
    pub(crate) fn record_exec_stats(&self, s: &ExecStats) {
        self.nodes_scanned.add(s.nodes_scanned);
        self.ddo_sorts.add(s.ddo_sorts);
        self.ddo_items.add(s.ddo_items);
        self.ctor_copies.add(s.ctor_copies);
        self.index_lookups.add(s.index_lookups);
        self.cache_hits.add(s.cache_hits);
    }
}

/// Fork-subsystem metric handles (`sedna_fork_*`). One set per fork
/// family, owned by the root branch's registry and shared (cloned) into
/// every fork's `DbInner` — forks must not re-register them, since the
/// governor merges every database registry into one snapshot.
#[derive(Clone, Debug, Default)]
pub(crate) struct ForkMetrics {
    /// Live branches of the family, the root included.
    pub(crate) branches: Gauge,
    /// Forks created over the family's lifetime.
    pub(crate) creates: Counter,
    /// Forks dropped over the family's lifetime.
    pub(crate) drops: Counter,
}

impl ForkMetrics {
    pub(crate) fn register_into(&self, reg: &Registry) {
        reg.register_gauge(
            "sedna_fork_branches",
            "Live branches of this database's fork family (root included)",
            &self.branches,
        );
        reg.register_counter(
            "sedna_fork_creates_total",
            "Database forks created",
            &self.creates,
        );
        reg.register_counter(
            "sedna_fork_drops_total",
            "Database forks dropped",
            &self.drops,
        );
    }
}

/// A database's observability hub: the registry each subsystem's metric
/// handles are registered into, plus the handle sets owned at this layer
/// (query pipeline, shared index counters).
pub(crate) struct DbObs {
    pub(crate) registry: Registry,
    pub(crate) query: QueryMetrics,
    pub(crate) index: IndexMetrics,
    /// Live sessions on this database (`sedna_db_sessions_active`).
    pub(crate) sessions: Gauge,
}

impl DbObs {
    pub(crate) fn new() -> DbObs {
        let registry = Registry::new();
        let query = QueryMetrics::default();
        query.register_into(&registry);
        let index = IndexMetrics::default();
        index.register_into(&registry);
        let sessions = Gauge::new();
        registry.register_gauge(
            "sedna_db_sessions_active",
            "Live sessions (connections) on this database",
            &sessions,
        );
        DbObs {
            registry,
            query,
            index,
            sessions,
        }
    }
}

/// An EXPLAIN-ANALYZE-style profile of the last successfully executed
/// statement: wall-clock nanoseconds per pipeline phase (the paper's
/// parser → static analyser + rewriter → executor sequence) plus the
/// executor's counters for that statement and, for queries, the
/// per-operator tree the pull executor ran.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// Parse-phase nanoseconds.
    pub parse_ns: u64,
    /// Static-analysis + rewrite nanoseconds.
    pub rewrite_ns: u64,
    /// Execute-phase nanoseconds (for updates: plan + apply; excludes
    /// commit).
    pub execute_ns: u64,
    /// The statement's executor counters (for updates, those of the
    /// planning executor).
    pub stats: ExecStats,
    /// The pull-operator tree with per-operator pulls / items /
    /// self-time (queries only; `None` for updates and DDL). Operator
    /// wall time is populated only when timing was enabled —
    /// `EXPLAIN ANALYZE` and traced statements; plain executions carry
    /// the pull/item counts with zero times.
    pub plan: Option<OpProfile>,
}

impl QueryProfile {
    /// Total pipeline nanoseconds (parse + rewrite + execute).
    pub fn total_ns(&self) -> u64 {
        self.parse_ns + self.rewrite_ns + self.execute_ns
    }

    /// A human-readable multi-line rendering: the phase timings and
    /// executor counters, followed by the indented operator tree when
    /// the statement ran through the pull executor.
    pub fn render(&self) -> String {
        let mut out = format!(
            "phase    parse    {:>12} ns\n\
             phase    rewrite  {:>12} ns\n\
             phase    execute  {:>12} ns\n\
             counter  nodes_scanned {:>8}\n\
             counter  ddo_sorts     {:>8}\n\
             counter  ddo_items     {:>8}\n\
             counter  ctor_copies   {:>8}\n\
             counter  index_lookups {:>8}\n\
             counter  cache_hits    {:>8}",
            self.parse_ns,
            self.rewrite_ns,
            self.execute_ns,
            self.stats.nodes_scanned,
            self.stats.ddo_sorts,
            self.stats.ddo_items,
            self.stats.ctor_copies,
            self.stats.index_lookups,
            self.stats.cache_hits,
        );
        if let Some(plan) = &self.plan {
            out.push_str("\nplan\n");
            for line in plan.render().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
            // Drop the trailing newline so render() stays newline-free
            // at the end, as before.
            out.pop();
        }
        out
    }
}
