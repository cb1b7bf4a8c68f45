//! The update executor (§5.2): "The statement of XUpdate-based language
//! is represented as an execution plan which consists of two parts. The
//! first part selects nodes that are target for the update, and the
//! second part updates the selected nodes. The selected nodes as well as
//! intermediate result of any query expression are represented by direct
//! pointers. Since direct node pointers are essentially invalidated after
//! a number of move operations are performed, the updated nodes are
//! referred to by **node handles**."
//!
//! Phase 1 ([`plan_update`]) evaluates the target path and the content
//! expression against an immutable [`Database`] view and converts every
//! selected node to its handle; phase 2 ([`execute_plan`]) applies the
//! mutations through `DocStorage` with `&mut` access.

use sedna_sas::{Vas, XPtr};
use sedna_schema::{NodeKind, SchemaName, SchemaTree};
use sedna_storage::DocStorage;

use crate::ast::{InsertPos, Statement, StatementKind, UpdateStmt};
use crate::error::{QueryError, QueryResult};
use crate::exec::{ConstructMode, Database, Executor};
use crate::value::{Item, NodeId};

/// A fully materialized node tree to insert (independent of the query's
/// arena and of the source documents).
#[derive(Clone, Debug, PartialEq)]
pub struct OwnedNode {
    /// Node kind.
    pub kind: NodeKind,
    /// Name for named kinds.
    pub name: Option<SchemaName>,
    /// String value for valued kinds.
    pub value: String,
    /// Children (attributes first).
    pub children: Vec<OwnedNode>,
}

/// The two-part update plan.
#[derive(Debug)]
pub enum UpdatePlan {
    /// Insert `content` at `pos` relative to each target handle.
    Insert {
        /// Materialized content roots.
        content: Vec<OwnedNode>,
        /// Placement.
        pos: InsertPos,
        /// Target node handles.
        targets: Vec<XPtr>,
    },
    /// Delete the subtrees behind the handles.
    Delete {
        /// Target node handles.
        targets: Vec<XPtr>,
    },
    /// Replace each target's value with the string.
    ReplaceValue {
        /// Target node handles.
        targets: Vec<XPtr>,
        /// The new value.
        value: String,
    },
}

impl UpdatePlan {
    /// Number of target nodes.
    pub fn target_count(&self) -> usize {
        match self {
            UpdatePlan::Insert { targets, .. }
            | UpdatePlan::Delete { targets }
            | UpdatePlan::ReplaceValue { targets, .. } => targets.len(),
        }
    }
}

/// Phase 1: select targets (converting direct pointers to handles) and
/// materialize insert content. All targets must be in one document; its
/// index in `db.docs` is returned with the plan.
pub fn plan_update(stmt: &Statement, db: &Database) -> QueryResult<(usize, UpdatePlan)> {
    let (doc, plan, _) = plan_update_with_stats(stmt, db)?;
    Ok((doc, plan))
}

/// [`plan_update`], additionally returning the planning executor's
/// counters (the target-selection phase IS a query; sessions fold these
/// into their per-statement profile).
pub fn plan_update_with_stats(
    stmt: &Statement,
    db: &Database,
) -> QueryResult<(usize, UpdatePlan, crate::exec::ExecStats)> {
    let StatementKind::Update(upd) = &stmt.kind else {
        return Err(QueryError::Dynamic("not an update statement".into()));
    };
    let mut ex = Executor::new(db, stmt, ConstructMode::Embedded);
    let (doc, plan) = match upd {
        UpdateStmt::Insert { what, pos, target } => {
            let content_seq = ex.eval_entry(what)?;
            let content = materialize(&ex, &content_seq)?;
            let target_seq = ex.eval_entry(target)?;
            let (doc, targets) = targets_to_handles(db, &target_seq)?;
            (
                doc,
                UpdatePlan::Insert {
                    content,
                    pos: *pos,
                    targets,
                },
            )
        }
        UpdateStmt::Delete { target } => {
            let target_seq = ex.eval_entry(target)?;
            let (doc, targets) = targets_to_handles(db, &target_seq)?;
            (doc, UpdatePlan::Delete { targets })
        }
        UpdateStmt::ReplaceValue { target, with } => {
            let v = ex.eval_entry(with)?;
            let value = match v.first() {
                None => String::new(),
                Some(item) => ex.atomize_item(item)?.to_string_value(),
            };
            let target_seq = ex.eval_entry(target)?;
            let (doc, targets) = targets_to_handles(db, &target_seq)?;
            (doc, UpdatePlan::ReplaceValue { targets, value })
        }
    };
    Ok((doc, plan, ex.stats))
}

fn targets_to_handles(db: &Database, seq: &[Item]) -> QueryResult<(usize, Vec<XPtr>)> {
    let mut doc_idx: Option<usize> = None;
    let mut handles = Vec::with_capacity(seq.len());
    for item in seq {
        match item {
            Item::Node(NodeId::Stored { doc, node }) => {
                if *doc_idx.get_or_insert(*doc) != *doc {
                    return Err(QueryError::Dynamic(
                        "update targets span multiple documents".into(),
                    ));
                }
                handles.push(node.handle(db.vas)?);
            }
            Item::Node(NodeId::Temp(_)) => {
                return Err(QueryError::Dynamic(
                    "constructed nodes cannot be update targets".into(),
                ))
            }
            Item::Atom(_) => return Err(QueryError::Dynamic("update target is not a node".into())),
        }
    }
    let doc = doc_idx.ok_or_else(|| QueryError::Dynamic("empty update target".into()))?;
    Ok((doc, handles))
}

/// Materializes a content sequence into owned trees.
fn materialize(ex: &Executor, seq: &[Item]) -> QueryResult<Vec<OwnedNode>> {
    let mut out = Vec::new();
    let mut text = String::new();
    for item in seq {
        match item {
            Item::Atom(a) => {
                if !text.is_empty() {
                    text.push(' ');
                }
                text.push_str(&a.to_string_value());
            }
            Item::Node(n) => {
                if !text.is_empty() {
                    out.push(OwnedNode {
                        kind: NodeKind::Text,
                        name: None,
                        value: std::mem::take(&mut text),
                        children: Vec::new(),
                    });
                }
                out.push(materialize_node(ex, *n)?);
            }
        }
    }
    if !text.is_empty() {
        out.push(OwnedNode {
            kind: NodeKind::Text,
            name: None,
            value: text,
            children: Vec::new(),
        });
    }
    Ok(out)
}

fn materialize_node(ex: &Executor, node: NodeId) -> QueryResult<OwnedNode> {
    let kind = ex.node_kind(node)?;
    let name = ex.node_name(node)?;
    let value = match kind {
        NodeKind::Element | NodeKind::Document => String::new(),
        _ => match node {
            NodeId::Stored { .. } => ex.string_value(node)?,
            NodeId::Temp(_) => ex.string_value(node)?,
        },
    };
    let mut children = Vec::new();
    if matches!(kind, NodeKind::Element | NodeKind::Document) {
        for c in ex.children_of(node)? {
            children.push(materialize_node(ex, c)?);
        }
    }
    Ok(OwnedNode {
        kind,
        name,
        value,
        children,
    })
}

/// What an executed plan did.
#[derive(Debug, Default)]
pub struct UpdateOutcome {
    /// Number of target nodes affected.
    pub affected: usize,
    /// Handles of the roots of newly inserted subtrees (for index
    /// maintenance).
    pub inserted_roots: Vec<XPtr>,
}

/// Phase 2: applies the plan. Returns what was done.
pub fn execute_plan(
    plan: &UpdatePlan,
    vas: &Vas,
    schema: &mut SchemaTree,
    doc: &mut DocStorage,
) -> QueryResult<UpdateOutcome> {
    let mut outcome = UpdateOutcome::default();
    match plan {
        UpdatePlan::Delete { targets } => {
            for &h in targets {
                doc.delete_subtree(vas, schema, h)?;
            }
            outcome.affected = targets.len();
            Ok(outcome)
        }
        UpdatePlan::ReplaceValue { targets, value } => {
            for &h in targets {
                let node =
                    sedna_storage::NodeRef(sedna_storage::indirection::deref_handle(vas, h)?);
                match node.kind(vas)? {
                    NodeKind::Element => {
                        // Replace all children with a single text node.
                        let kids: Vec<XPtr> = node
                            .children(vas)?
                            .into_iter()
                            .filter(|c| !matches!(c.kind(vas), Ok(NodeKind::Attribute)))
                            .map(|c| c.handle(vas))
                            .collect::<Result<_, _>>()?;
                        for k in kids {
                            doc.delete_subtree(vas, schema, k)?;
                        }
                        doc.insert_node(
                            vas,
                            schema,
                            h,
                            None,
                            None,
                            NodeKind::Text,
                            None,
                            Some(value.as_bytes()),
                        )?;
                    }
                    _ => doc.set_value(vas, schema, h, value.as_bytes())?,
                }
            }
            outcome.affected = targets.len();
            Ok(outcome)
        }
        UpdatePlan::Insert {
            content,
            pos,
            targets,
        } => {
            for &target in targets {
                match pos {
                    InsertPos::Into => {
                        // Append after the current last child.
                        let node = sedna_storage::NodeRef(
                            sedna_storage::indirection::deref_handle(vas, target)?,
                        );
                        let mut left = match node.children(vas)?.last() {
                            Some(last) => Some(last.handle(vas)?),
                            None => None,
                        };
                        for c in content {
                            let h = insert_owned(vas, schema, doc, target, left, None, c)?;
                            outcome.inserted_roots.push(h);
                            left = Some(h);
                        }
                    }
                    InsertPos::Following => {
                        let node = sedna_storage::NodeRef(
                            sedna_storage::indirection::deref_handle(vas, target)?,
                        );
                        let parent = node
                            .parent(vas, doc.mode)?
                            .ok_or_else(|| {
                                QueryError::Dynamic("cannot insert beside the root".into())
                            })?
                            .handle(vas)?;
                        let right = match node.right_sibling(vas)? {
                            Some(r) => Some(r.handle(vas)?),
                            None => None,
                        };
                        let mut left = Some(target);
                        for c in content {
                            let h = insert_owned(vas, schema, doc, parent, left, right, c)?;
                            outcome.inserted_roots.push(h);
                            left = Some(h);
                        }
                    }
                    InsertPos::Preceding => {
                        let node = sedna_storage::NodeRef(
                            sedna_storage::indirection::deref_handle(vas, target)?,
                        );
                        let parent = node
                            .parent(vas, doc.mode)?
                            .ok_or_else(|| {
                                QueryError::Dynamic("cannot insert beside the root".into())
                            })?
                            .handle(vas)?;
                        let mut left = match node.left_sibling(vas)? {
                            Some(l) => Some(l.handle(vas)?),
                            None => None,
                        };
                        for c in content {
                            let h = insert_owned(vas, schema, doc, parent, left, Some(target), c)?;
                            outcome.inserted_roots.push(h);
                            left = Some(h);
                        }
                    }
                }
            }
            outcome.affected = targets.len();
            Ok(outcome)
        }
    }
}

/// Recursively inserts an owned tree under `parent` between `left` and
/// `right` (handles). Returns the new node's handle.
fn insert_owned(
    vas: &Vas,
    schema: &mut SchemaTree,
    doc: &mut DocStorage,
    parent: XPtr,
    left: Option<XPtr>,
    right: Option<XPtr>,
    node: &OwnedNode,
) -> QueryResult<XPtr> {
    let value = match node.kind {
        NodeKind::Element | NodeKind::Document => None,
        _ => Some(node.value.as_bytes()),
    };
    let handle = doc.insert_node(
        vas,
        schema,
        parent,
        left,
        right,
        node.kind,
        node.name.clone(),
        value,
    )?;
    let mut last: Option<XPtr> = None;
    for c in &node.children {
        let h = insert_owned(vas, schema, doc, handle, last, None, c)?;
        last = Some(h);
    }
    Ok(handle)
}
