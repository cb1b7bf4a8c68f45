//! # sedna-xquery
//!
//! The query-processing stack of Sections 3 and 5 of the paper: for each
//! statement, "query processing in Sedna is implemented as a sequence of
//! steps performed by the following components: (1) query parser;
//! (2) static analyser; (3) optimizing rewriter; and (4) executor."
//!
//! * [`parser`] — a recursive-descent parser producing one uniform
//!   operation tree for all three statement types the paper lists:
//!   XQuery queries, XML update statements (XUpdate), and Data Definition
//!   Language statements.
//! * [`static_ctx`] — the static-analysis phase: prolog processing,
//!   variable/function resolution, arity checks, static errors.
//! * [`rewrite`] — the rule-based optimizing rewriter of §5.1:
//!   removal of unnecessary DDO (distinct-document-order) operations via
//!   inferred order properties, combination of the abbreviated
//!   `//` step with its next step (guarded by position/size-dependence
//!   analysis), lazy evaluation of loop-invariant nested-FLWOR binding
//!   expressions, and extraction of structural location paths onto the
//!   descriptive schema.
//! * [`planner`] / [`cost`] — the cost-based planner layered on top of
//!   the rewriter: per-path cardinality estimation from the statistics
//!   maintained on the descriptive schema, access-path choice between
//!   structural scans and declared B-tree value indexes, and
//!   selectivity-ordered predicates (see `docs/planner.md`).
//! * [`exec`] — the executor of §5.2: a library of physical operations,
//!   each "implemented as iterator [providing the] well known
//!   open-next-close interface", evaluated demand-driven; element
//!   constructors in the three modes of §5.2.1 (deep-copy baseline,
//!   embedded, virtual); intermediate results as direct node pointers,
//!   update targets converted to node handles.
//! * [`update`] — the XUpdate executor: "the first part selects nodes
//!   that are target for the update, and the second part updates the
//!   selected nodes."

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cost;
pub mod cursor;
mod error;
pub mod exec;
pub mod functions;
pub mod parser;
pub mod planner;
pub mod rewrite;
pub mod static_ctx;
pub mod token;
pub mod update;
pub mod value;

pub use ast::{Expr, Statement};
pub use cursor::{OpProfile, Plan};
pub use error::{QueryError, QueryResult};
pub use exec::{ConstructMode, Database, DocEntry, ExecState, ExecStats, Executor};
pub use planner::{plan_statement, AccessPath, IndexSpec, PlanDecision, PlannerInput};
pub use update::plan_update_with_stats;
pub use value::{Atom, Item, Sequence};

/// Parses, analyses, and rewrites a statement — the front half of the
/// paper's pipeline, shared by queries and updates.
pub fn compile(input: &str) -> QueryResult<Statement> {
    let stmt = parser::parse_statement(input)?;
    let stmt = static_ctx::analyze(stmt)?;
    Ok(rewrite::rewrite_statement(stmt))
}
