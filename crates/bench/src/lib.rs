//! Shared fixtures for the experiment harness (the `report` binary and
//! the `ablations` bench).
//!
//! Every experiment in `DESIGN.md`'s index builds its workload through
//! this crate so the `report` binary and the ablations measure
//! identical configurations.

#![forbid(unsafe_code)]

use std::sync::Arc;

use sedna_sas::{Sas, SasConfig, TxnToken, Vas, View};
use sedna_schema::SchemaTree;
use sedna_storage::build::load_xml;
use sedna_storage::{DocStorage, ParentMode};
use sedna_xquery::exec::{ConstructMode, Database as QueryView, DocEntry, ExecStats, Executor};
use sedna_xquery::rewrite::{rewrite_with, RewriteOptions};
use sedna_xquery::{parser, static_ctx, Statement};

/// A storage-level fixture: one document in an in-memory SAS.
pub struct Fixture {
    /// Shared address space (kept alive for the session).
    pub sas: Arc<Sas>,
    /// The session mapping.
    pub vas: Vas,
    /// The document's schema.
    pub schema: SchemaTree,
    /// The document's storage.
    pub doc: DocStorage,
}

/// Builds an in-memory document fixture.
pub fn fixture(xml: &str, page_size: usize, frames: usize, mode: ParentMode) -> Fixture {
    let sas = Sas::in_memory(SasConfig {
        page_size,
        layer_size: (page_size as u64 * 16384).min(1 << 31),
        buffer_frames: frames,
    })
    .expect("valid config");
    let vas = sas.session();
    vas.begin(View::LATEST, Some(TxnToken(1)));
    let mut schema = SchemaTree::new();
    let doc = load_xml(&vas, &mut schema, mode, xml).expect("load");
    Fixture {
        sas,
        vas,
        schema,
        doc,
    }
}

/// Default storage fixture: 16 KiB pages, generous pool, indirect parents.
pub fn default_fixture(xml: &str) -> Fixture {
    fixture(xml, 16 * 1024, 4096, ParentMode::Indirect)
}

/// Compiles a query with explicit rewrite options.
pub fn compile_with(q: &str, opts: RewriteOptions) -> Statement {
    let stmt = parser::parse_statement(q).expect("parse");
    let stmt = static_ctx::analyze(stmt).expect("analyze");
    rewrite_with(stmt, opts).0
}

/// All rewrites on (the shipped configuration).
pub fn optimized(q: &str) -> Statement {
    compile_with(q, RewriteOptions::default())
}

/// All rewrites off (the §5.1 baselines).
pub fn unoptimized(q: &str) -> Statement {
    compile_with(
        q,
        RewriteOptions {
            remove_ddo: false,
            combine_descendant: false,
            lazy_invariants: false,
            structural_paths: false,
            inline_functions: false,
        },
    )
}

/// Executes a compiled statement against a fixture, returning the
/// serialized result and the executor statistics.
pub fn run(fx: &Fixture, stmt: &Statement, mode: ConstructMode) -> (String, ExecStats) {
    let view = QueryView {
        vas: &fx.vas,
        docs: vec![DocEntry {
            name: "lib".into(),
            schema: &fx.schema,
            doc: &fx.doc,
        }],
        indexes: vec![],
    };
    let mut ex = Executor::new(&view, stmt, mode);
    let result = ex.run().expect("query");
    let out = ex.serialize_sequence(&result).expect("serialize");
    (out, ex.stats)
}

/// Convenience: compile optimized + run.
pub fn query(fx: &Fixture, q: &str) -> String {
    run(fx, &optimized(q), ConstructMode::Embedded).0
}

/// Mean wall time of one call of `f` over `reps` calls, after one
/// warm-up call.
pub fn time_avg(reps: u32, mut f: impl FnMut()) -> std::time::Duration {
    f();
    let t = std::time::Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed() / reps
}

/// A disposable on-disk database in a temp directory (dropped files on
/// `TempDb::drop`).
pub struct TempDb {
    /// The database.
    pub db: sedna::Database,
    dir: std::path::PathBuf,
}

impl TempDb {
    /// Creates a fresh database under a unique temp directory.
    pub fn new(tag: &str, cfg: sedna::DbConfig) -> TempDb {
        let dir = std::env::temp_dir().join(format!(
            "sedna-bench-{}-{}-{:x}",
            std::process::id(),
            tag,
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = sedna::Database::create(&dir, cfg).expect("create db");
        TempDb { db, dir }
    }

    /// The on-disk directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_and_query_work() {
        let fx = default_fixture(&sedna_workload::library(50, 1));
        let n = query(&fx, "count(doc('lib')//book)");
        assert_eq!(n, "50");
    }

    #[test]
    fn optimized_and_unoptimized_agree() {
        let fx = default_fixture(&sedna_workload::library(30, 2));
        for q in [
            "count(doc('lib')//author)",
            "doc('lib')/library/book[2]/title/text()",
            "for $b in doc('lib')/library/book where count($b/author) > 2 return $b/price/text()",
        ] {
            let a = run(&fx, &optimized(q), ConstructMode::Embedded).0;
            let b = run(&fx, &unoptimized(q), ConstructMode::Embedded).0;
            assert_eq!(a, b, "query {q}");
        }
    }
}
