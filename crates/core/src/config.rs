//! Database configuration.

use std::time::Duration;

use sedna_obs::trace::SamplingPolicy;
use sedna_storage::ParentMode;
use sedna_xquery::exec::ConstructMode;

/// Configuration of a database instance.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Page (block) size in bytes; power of two.
    pub page_size: usize,
    /// SAS layer size in bytes; power-of-two multiple of the page size.
    pub layer_size: u64,
    /// Buffer-pool frames.
    pub buffer_frames: usize,
    /// Buffer-pool page-table shards. `0` selects the default (next power
    /// of two ≥ the machine's cores); other values are rounded up to a
    /// power of two and clamped so every shard owns at least one frame.
    pub buffer_shards: usize,
    /// Capacity of the database-wide plan cache (parse+rewrite results
    /// keyed by statement text, valid for one catalog generation and
    /// statistics epoch, LRU-evicted). `0` disables caching.
    pub plan_cache_capacity: usize,
    /// Admission-controlled session limit enforced by
    /// [`Database::try_session`] (the entry point the network layer
    /// uses); `0` means unlimited. The embedded [`Database::session`]
    /// constructor is not limited — it always succeeds — but its
    /// sessions count against the limit seen by `try_session`.
    ///
    /// [`Database::try_session`]: crate::Database::try_session
    /// [`Database::session`]: crate::Database::session
    pub max_sessions: usize,
    /// Parent-pointer representation (the direct mode exists for
    /// experiment E4; production databases use the indirection table).
    pub parent_mode: ParentMode,
    /// Element-constructor strategy for query execution.
    pub construct_mode: ConstructMode,
    /// Lock-wait timeout (deadlocks are detected eagerly; this is the
    /// safety net).
    pub lock_timeout: Duration,
    /// Rotate (truncate) the log at every checkpoint, so recovery work is
    /// bounded by the updates since the last checkpoint. Incremental hot
    /// backups are guarded by a log epoch: after any rotation newer than
    /// the base backup, they fail with a "take a new full backup" error.
    pub truncate_log_on_checkpoint: bool,
    /// Slow-query threshold in milliseconds: a statement whose pipeline
    /// total (parse + rewrite + execute) exceeds it lands in the
    /// database's slow-query ring ([`Database::slow_log`]) together with
    /// its trace. `0` disables the slow log.
    ///
    /// [`Database::slow_log`]: crate::Database::slow_log
    pub slow_query_ms: u64,
    /// Query-trace sampling policy: which statements publish a span
    /// trace into the database's trace ring ([`Database::get_trace`]).
    ///
    /// [`Database::get_trace`]: crate::Database::get_trace
    pub trace_sample: SamplingPolicy,
    /// Plan statements with the cost-based planner fed by the
    /// descriptive-schema statistics (access-path choice among
    /// structural scan / B-tree index / descendant expansion, plus
    /// selectivity-ordered predicates). `false` falls back to the
    /// purely rule-based rewriter — kept for the planner ablation
    /// benchmark and as an escape hatch.
    pub cost_based_planner: bool,
    /// Snapshot-retention policy: keep up to this many commit
    /// snapshots per branch for `AS OF` time-travel reads
    /// ([`Database::session_as_of`]). Retained snapshots pin their page
    /// versions against purge until evicted by count or by
    /// [`DbConfig::retain_ms`]. `0` disables retention (the default —
    /// snapshots then live only as long as readers pin them).
    ///
    /// [`Database::session_as_of`]: crate::Database::session_as_of
    pub retain_snapshots: usize,
    /// Maximum age in milliseconds of a policy-retained snapshot; older
    /// ones are released at the next commit. `0` means no age limit
    /// (eviction by [`DbConfig::retain_snapshots`] count only).
    pub retain_ms: u64,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            page_size: 16 * 1024,
            layer_size: 16 * 1024 * 1024,
            buffer_frames: 1024,
            buffer_shards: 0,
            plan_cache_capacity: 64,
            max_sessions: 0,
            parent_mode: ParentMode::Indirect,
            construct_mode: ConstructMode::Embedded,
            lock_timeout: Duration::from_secs(10),
            truncate_log_on_checkpoint: true,
            slow_query_ms: 0,
            trace_sample: SamplingPolicy::Off,
            cost_based_planner: true,
            retain_snapshots: 0,
            retain_ms: 0,
        }
    }
}

impl DbConfig {
    /// A small configuration for tests: tiny pages, small pool.
    pub fn small() -> DbConfig {
        DbConfig {
            page_size: 4096,
            layer_size: 4 * 1024 * 1024,
            buffer_frames: 512,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DbConfig::default();
        assert!(c.page_size.is_power_of_two());
        assert_eq!(c.layer_size % c.page_size as u64, 0);
        assert_eq!(c.parent_mode, ParentMode::Indirect);
    }
}
