//! The executor (§5.2): evaluates the rewritten operation tree over the
//! schema-clustered storage.
//!
//! Intermediate results are **direct node pointers** ([`NodeRef`]);
//! constructed nodes live in the query's [`TempArena`] with the three
//! §5.2.1 construction strategies selectable via [`ConstructMode`]:
//! the deep-copy baseline, **embedded** constructors (a nested
//! constructor's result is adopted by its parent instead of re-copied),
//! and **virtual** constructors (stored content is referenced by pointer,
//! no copy at all — legal when downstream operations do not traverse the
//! constructed subtree, as the paper specifies).
//!
//! Structural paths run over the descriptive schema and then scan exactly
//! the matched schema nodes' block lists (§5.1.4); explicit [`Expr::Ddo`]
//! operations materialize, sort by `(document, label)` and deduplicate —
//! the cost the §5.1.1 rewrite removes when provably unnecessary.

use sedna_index::{BTreeIndex, IndexKey};
use sedna_sas::Vas;
use sedna_schema::{NodeKind, SchemaName, SchemaNodeId, SchemaTree};
use sedna_storage::{block, indirection, DocStorage, NodeRef};

use crate::ast::*;
use crate::cost::schema_step;
use crate::error::{QueryError, QueryResult};
use crate::value::*;

/// Constructor strategy (§5.2.1).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ConstructMode {
    /// Always deep-copy content — the baseline whose "overhead grows
    /// significantly for a query consisting of a number of nested element
    /// constructors".
    DeepCopy,
    /// Embedded constructors: nested constructed nodes are adopted by
    /// their parent constructor without re-copying. Stored content is
    /// still copied (general-purpose safe mode; the default).
    Embedded,
    /// Virtual constructors: stored content is referenced by pointer.
    Virtual,
}

/// One queryable document.
pub struct DocEntry<'a> {
    /// The document's catalog name (`doc('name')`).
    pub name: String,
    /// Its descriptive schema.
    pub schema: &'a SchemaTree,
    /// Its storage.
    pub doc: &'a DocStorage,
}

/// One queryable value index.
pub struct IndexEntry<'a> {
    /// Index name.
    pub name: String,
    /// Document the index covers (index into [`Database::docs`]).
    pub doc: usize,
    /// The B+-tree.
    pub index: &'a BTreeIndex,
}

/// The read view a query executes against.
pub struct Database<'a> {
    /// The session's address space.
    pub vas: &'a Vas,
    /// Documents by position; `doc('name')` resolves against this list.
    pub docs: Vec<DocEntry<'a>>,
    /// Value indexes.
    pub indexes: Vec<IndexEntry<'a>>,
}

impl<'a> Database<'a> {
    /// Finds a document by name.
    pub fn doc_idx(&self, name: &str) -> Option<usize> {
        self.docs.iter().position(|d| d.name == name)
    }
}

/// Execution counters for the E5–E9 experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Nodes produced by axis evaluation (data actually touched).
    pub nodes_scanned: u64,
    /// DDO materialization points executed.
    pub ddo_sorts: u64,
    /// Items passing through DDO sorts.
    pub ddo_items: u64,
    /// Nodes deep-copied by constructors.
    pub ctor_copies: u64,
    /// Index lookups performed.
    pub index_lookups: u64,
    /// Lazy-cache hits (§5.1.3).
    pub cache_hits: u64,
}

impl ExecStats {
    /// Adds another run's counters into this one (used for per-session
    /// accumulated totals).
    pub fn merge(&mut self, other: &ExecStats) {
        self.nodes_scanned += other.nodes_scanned;
        self.ddo_sorts += other.ddo_sorts;
        self.ddo_items += other.ddo_items;
        self.ctor_copies += other.ctor_copies;
        self.index_lookups += other.index_lookups;
        self.cache_hits += other.cache_hits;
    }
}

/// The executor's owned runtime state, detached from the borrowed view.
///
/// A suspended cursor (see [`crate::cursor`]) carries this across pulls:
/// the borrowed [`Database`] view is rebuilt per pull from owned catalog
/// data, while slots, lazy caches, the constructed-node arena, the
/// context stack and the counters survive in here. Obtain one with
/// [`Executor::into_state`]; resume with [`Executor::with_state`].
#[derive(Debug, Default)]
pub struct ExecState {
    slots: Vec<Option<Sequence>>,
    caches: Vec<Option<Sequence>>,
    /// Arena of constructed nodes; owned, so `NodeId::Temp` items stay
    /// valid across suspension.
    pub arena: TempArena,
    ctx: Vec<(Item, usize, usize)>,
    /// Counters accumulated so far.
    pub stats: ExecStats,
    call_depth: usize,
}

/// The executor: one per statement execution.
pub struct Executor<'a> {
    pub(crate) db: &'a Database<'a>,
    pub(crate) stmt: &'a Statement,
    pub(crate) slots: Vec<Option<Sequence>>,
    caches: Vec<Option<Sequence>>,
    /// Arena of constructed nodes; public so callers can serialize
    /// results after execution.
    pub arena: TempArena,
    mode: ConstructMode,
    /// (context item, position, size) stack.
    pub(crate) ctx: Vec<(Item, usize, usize)>,
    /// Counters.
    pub stats: ExecStats,
    call_depth: usize,
}

const MAX_CALL_DEPTH: usize = 256;

impl<'a> Executor<'a> {
    /// Creates an executor for `stmt` over `db`.
    pub fn new(db: &'a Database<'a>, stmt: &'a Statement, mode: ConstructMode) -> Executor<'a> {
        Self::with_state(db, stmt, mode, ExecState::default())
    }

    /// Re-creates an executor around a previously suspended [`ExecState`]
    /// (sized to `stmt` on first use, preserved afterwards).
    pub fn with_state(
        db: &'a Database<'a>,
        stmt: &'a Statement,
        mode: ConstructMode,
        mut state: ExecState,
    ) -> Executor<'a> {
        state.slots.resize(stmt.slot_count, None);
        state.caches.resize(stmt.cache_count, None);
        Executor {
            db,
            stmt,
            slots: state.slots,
            caches: state.caches,
            arena: state.arena,
            mode,
            ctx: state.ctx,
            stats: state.stats,
            call_depth: state.call_depth,
        }
    }

    /// Suspends this executor, releasing the borrow of the view while
    /// keeping every piece of owned runtime state.
    pub fn into_state(self) -> ExecState {
        ExecState {
            slots: self.slots,
            caches: self.caches,
            arena: self.arena,
            ctx: self.ctx,
            stats: self.stats,
            call_depth: self.call_depth,
        }
    }

    /// Binds prolog globals whose slots are still unbound. Idempotent;
    /// called once per entry point (and per cursor open).
    pub fn bind_globals(&mut self) -> QueryResult<()> {
        for decl in &self.stmt.vars {
            if self.slots[decl.slot].is_none() {
                let v = self.eval(&decl.init)?;
                self.slots[decl.slot] = Some(v);
            }
        }
        Ok(())
    }

    /// Evaluates the statement body (must be a query).
    pub fn run(&mut self) -> QueryResult<Sequence> {
        self.bind_globals()?;
        match &self.stmt.kind {
            StatementKind::Query(e) => self.eval(e),
            _ => Err(QueryError::Dynamic(
                "Executor::run only evaluates queries".into(),
            )),
        }
    }

    /// Evaluates an arbitrary expression (used by the update executor for
    /// targets and content).
    pub fn eval_entry(&mut self, e: &Expr) -> QueryResult<Sequence> {
        self.bind_globals()?;
        self.eval(e)
    }

    // ==============================================================
    // Core evaluation
    // ==============================================================

    pub(crate) fn eval(&mut self, e: &Expr) -> QueryResult<Sequence> {
        match e {
            Expr::Literal(a) => Ok(vec![Item::Atom(a.clone())]),
            Expr::Empty => Ok(vec![]),
            Expr::Sequence(items) => {
                let mut out = Vec::new();
                for i in items {
                    out.extend(self.eval(i)?);
                }
                Ok(out)
            }
            Expr::VarRef { name, slot } => self.slots[*slot]
                .clone()
                .ok_or_else(|| QueryError::Dynamic(format!("unbound variable ${name}"))),
            Expr::ContextItem => match self.ctx.last() {
                Some((item, _, _)) => Ok(vec![item.clone()]),
                None => Err(QueryError::Dynamic("no context item".into())),
            },
            Expr::Cached { expr, cache_slot } => {
                if let Some(v) = &self.caches[*cache_slot] {
                    self.stats.cache_hits += 1;
                    return Ok(v.clone());
                }
                let v = self.eval(expr)?;
                self.caches[*cache_slot] = Some(v.clone());
                Ok(v)
            }
            Expr::If { cond, then, els } => {
                let c = self.eval(cond)?;
                if self.ebv(&c)? {
                    self.eval(then)
                } else {
                    self.eval(els)
                }
            }
            Expr::Or(a, b) => {
                let va = self.eval(a)?;
                if self.ebv(&va)? {
                    return Ok(vec![Item::boolean(true)]);
                }
                let vb = self.eval(b)?;
                Ok(vec![Item::boolean(self.ebv(&vb)?)])
            }
            Expr::And(a, b) => {
                let va = self.eval(a)?;
                if !self.ebv(&va)? {
                    return Ok(vec![Item::boolean(false)]);
                }
                let vb = self.eval(b)?;
                Ok(vec![Item::boolean(self.ebv(&vb)?)])
            }
            Expr::Neg(a) => {
                let v = self.eval(a)?;
                let n = self.atomize_number(&v)?;
                Ok(vec![Item::number(-n)])
            }
            Expr::Arith(op, a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                if va.is_empty() || vb.is_empty() {
                    return Ok(vec![]);
                }
                let x = self.atomize_number(&va)?;
                let y = self.atomize_number(&vb)?;
                let r = match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                    ArithOp::IDiv => {
                        if y == 0.0 {
                            return Err(QueryError::Dynamic("integer division by zero".into()));
                        }
                        (x / y).trunc()
                    }
                    ArithOp::Mod => x % y,
                };
                Ok(vec![Item::number(r)])
            }
            Expr::Range(a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                if va.is_empty() || vb.is_empty() {
                    return Ok(vec![]);
                }
                let lo = self.atomize_number(&va)? as i64;
                let hi = self.atomize_number(&vb)? as i64;
                Ok((lo..=hi).map(|n| Item::number(n as f64)).collect())
            }
            Expr::ValueCmp(op, a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                if va.is_empty() || vb.is_empty() {
                    return Ok(vec![]);
                }
                if va.len() > 1 || vb.len() > 1 {
                    return Err(QueryError::Dynamic(
                        "value comparison over a multi-item sequence".into(),
                    ));
                }
                let x = self.atomize_item(&va[0])?;
                let y = self.atomize_item(&vb[0])?;
                Ok(vec![Item::boolean(cmp_atoms(*op, &x, &y))])
            }
            Expr::GeneralCmp(op, a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                for ia in &va {
                    let x = self.atomize_item(ia)?;
                    for ib in &vb {
                        let y = self.atomize_item(ib)?;
                        if cmp_atoms(*op, &x, &y) {
                            return Ok(vec![Item::boolean(true)]);
                        }
                    }
                }
                Ok(vec![Item::boolean(false)])
            }
            Expr::Quantified {
                some,
                slot,
                within,
                satisfies,
                ..
            } => {
                let seq = self.eval(within)?;
                let saved = self.slots[*slot].take();
                let mut result = !*some;
                for item in seq {
                    self.slots[*slot] = Some(vec![item]);
                    let v = self.eval(satisfies)?;
                    let ok = self.ebv(&v)?;
                    if *some && ok {
                        result = true;
                        break;
                    }
                    if !*some && !ok {
                        result = false;
                        break;
                    }
                }
                self.slots[*slot] = saved;
                Ok(vec![Item::boolean(result)])
            }
            Expr::Flwor {
                clauses,
                where_,
                order,
                ret,
            } => self.eval_flwor(clauses, where_.as_deref(), order, ret),
            Expr::Union(a, b) => {
                let mut out = self.eval(a)?;
                out.extend(self.eval(b)?);
                Ok(out) // parser wraps set ops in Ddo
            }
            Expr::Intersect(a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                let keys: Vec<NodeId> = vb
                    .iter()
                    .filter_map(|i| match i {
                        Item::Node(n) => Some(*n),
                        _ => None,
                    })
                    .collect();
                Ok(va
                    .into_iter()
                    .filter(|i| matches!(i, Item::Node(n) if keys.contains(n)))
                    .collect())
            }
            Expr::Except(a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                let keys: Vec<NodeId> = vb
                    .iter()
                    .filter_map(|i| match i {
                        Item::Node(n) => Some(*n),
                        _ => None,
                    })
                    .collect();
                Ok(va
                    .into_iter()
                    .filter(|i| matches!(i, Item::Node(n) if !keys.contains(n)))
                    .collect())
            }
            Expr::Ddo(inner) => {
                let seq = self.eval(inner)?;
                self.ddo(seq)
            }
            Expr::Path { start, steps } => self.eval_path(start, steps),
            Expr::StructuralPath { doc, steps } => self.eval_structural(doc, steps),
            Expr::Filter { input, predicates } => {
                let mut seq = self.eval(input)?;
                for p in predicates {
                    seq = self.apply_predicate(seq, p)?;
                }
                Ok(seq)
            }
            Expr::FnCall {
                name,
                args,
                resolved,
            } => match resolved {
                FnResolution::Builtin(_) => self.eval_builtin(name, args),
                FnResolution::User(idx) => self.eval_user_fn(*idx, args),
                FnResolution::Unresolved => Err(QueryError::Dynamic(format!(
                    "function {name} was not resolved (run static analysis)"
                ))),
            },
            Expr::TextCtor(inner) => {
                let v = self.eval(inner)?;
                let s = self.sequence_to_string(&v)?;
                let id = self.arena.text(s);
                Ok(vec![Item::Node(NodeId::Temp(id))])
            }
            Expr::ElementCtor {
                name,
                attrs,
                children,
            } => self.eval_element_ctor(name, attrs, children),
        }
    }

    fn eval_flwor(
        &mut self,
        clauses: &[FlworClause],
        where_: Option<&Expr>,
        order: &[OrderSpec],
        ret: &Expr,
    ) -> QueryResult<Sequence> {
        // Collect produced tuples as (sort keys, value).
        let mut results: Vec<(Vec<Option<Atom>>, Sequence)> = Vec::new();
        self.flwor_rec(clauses, where_, order, ret, &mut results)?;
        if !order.is_empty() {
            results.sort_by(|(ka, _), (kb, _)| {
                for (spec, (a, b)) in order.iter().zip(ka.iter().zip(kb.iter())) {
                    let ord = cmp_order_keys(a, b);
                    let ord = if spec.descending { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        Ok(results.into_iter().flat_map(|(_, v)| v).collect())
    }

    fn flwor_rec(
        &mut self,
        clauses: &[FlworClause],
        where_: Option<&Expr>,
        order: &[OrderSpec],
        ret: &Expr,
        out: &mut Vec<(Vec<Option<Atom>>, Sequence)>,
    ) -> QueryResult<()> {
        match clauses.split_first() {
            None => {
                if let Some(w) = where_ {
                    let c = self.eval(w)?;
                    if !self.ebv(&c)? {
                        return Ok(());
                    }
                }
                let mut keys = Vec::with_capacity(order.len());
                for spec in order {
                    let v = self.eval(&spec.key)?;
                    keys.push(match v.first() {
                        None => None,
                        Some(item) => Some(self.atomize_item(item)?),
                    });
                }
                let v = self.eval(ret)?;
                out.push((keys, v));
                Ok(())
            }
            Some((FlworClause::Let { slot, expr, .. }, rest)) => {
                let v = self.eval(expr)?;
                let saved = self.slots[*slot].replace(v);
                self.flwor_rec(rest, where_, order, ret, out)?;
                self.slots[*slot] = saved;
                Ok(())
            }
            Some((FlworClause::For { slot, at, expr, .. }, rest)) => {
                let seq = self.eval(expr)?;
                let saved = self.slots[*slot].take();
                let saved_at = at.as_ref().map(|(_, s)| self.slots[*s].take());
                for (i, item) in seq.into_iter().enumerate() {
                    self.slots[*slot] = Some(vec![item]);
                    if let Some((_, pslot)) = at {
                        self.slots[*pslot] = Some(vec![Item::number((i + 1) as f64)]);
                    }
                    self.flwor_rec(rest, where_, order, ret, out)?;
                }
                self.slots[*slot] = saved;
                if let Some((_, pslot)) = at {
                    self.slots[*pslot] = saved_at.flatten();
                }
                Ok(())
            }
        }
    }

    fn eval_user_fn(&mut self, idx: usize, args: &[Expr]) -> QueryResult<Sequence> {
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(QueryError::Dynamic("function recursion too deep".into()));
        }
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(self.eval(a)?);
        }
        let f = &self.stmt.functions[idx];
        let slots = f.param_slots.clone();
        let body = f.body.clone();
        let mut saved = Vec::with_capacity(slots.len());
        for (slot, v) in slots.iter().zip(values) {
            saved.push(self.slots[*slot].replace(v));
        }
        self.call_depth += 1;
        let result = self.eval(&body);
        self.call_depth -= 1;
        for (slot, old) in slots.iter().zip(saved) {
            self.slots[*slot] = old;
        }
        result
    }

    // ==============================================================
    // Paths and axes
    // ==============================================================

    fn eval_path(&mut self, start: &PathStart, steps: &[Step]) -> QueryResult<Sequence> {
        let mut current: Sequence = match start {
            PathStart::Doc(name) => {
                let idx = self
                    .db
                    .doc_idx(name)
                    .ok_or_else(|| QueryError::Dynamic(format!("no such document '{name}'")))?;
                let node = self.db.docs[idx].doc.doc_node(self.db.vas)?;
                vec![Item::Node(NodeId::Stored { doc: idx, node })]
            }
            PathStart::Root => {
                let (item, _, _) = self
                    .ctx
                    .last()
                    .cloned()
                    .ok_or_else(|| QueryError::Dynamic("no context item for '/'".into()))?;
                match item {
                    Item::Node(n) => vec![Item::Node(self.root_of(n)?)],
                    _ => return Err(QueryError::Dynamic("context item is not a node".into())),
                }
            }
            PathStart::Context => {
                let (item, _, _) = self
                    .ctx
                    .last()
                    .cloned()
                    .ok_or_else(|| QueryError::Dynamic("no context item".into()))?;
                vec![item]
            }
            PathStart::Expr(e) => self.eval(e)?,
        };
        for step in steps {
            let mut next = Vec::new();
            for item in &current {
                let node = match item {
                    Item::Node(n) => *n,
                    Item::Atom(_) => {
                        return Err(QueryError::Dynamic(
                            "path step applied to an atomic value".into(),
                        ))
                    }
                };
                let mut batch = self.axis_nodes(node, step.axis, &step.test)?;
                self.stats.nodes_scanned += batch.len() as u64;
                for p in &step.predicates {
                    batch = self.apply_predicate(batch, p)?;
                }
                next.extend(batch);
            }
            current = next;
        }
        Ok(current)
    }

    /// Applies one predicate over a batch with position/size context.
    pub(crate) fn apply_predicate(
        &mut self,
        batch: Sequence,
        pred: &Expr,
    ) -> QueryResult<Sequence> {
        let size = batch.len();
        let mut out = Vec::new();
        for (i, item) in batch.into_iter().enumerate() {
            self.ctx.push((item.clone(), i + 1, size));
            let v = self.eval(pred);
            self.ctx.pop();
            let v = v?;
            // Numeric predicate = positional test.
            let keep = match v.as_slice() {
                [Item::Atom(Atom::Number(n))] => (*n == (i + 1) as f64) && n.fract() == 0.0,
                _ => self.ebv(&v)?,
            };
            if keep {
                out.push(item);
            }
        }
        Ok(out)
    }

    fn root_of(&mut self, node: NodeId) -> QueryResult<NodeId> {
        match node {
            NodeId::Stored { doc, node } => {
                let mode = self.db.docs[doc].doc.mode;
                let mut cur = node;
                while let Some(p) = cur.parent(self.db.vas, mode)? {
                    cur = p;
                }
                Ok(NodeId::Stored { doc, node: cur })
            }
            NodeId::Temp(id) => {
                let mut cur = id;
                while let Some(p) = self.arena.get(cur).parent {
                    cur = p;
                }
                Ok(NodeId::Temp(cur))
            }
        }
    }

    /// Evaluates one axis step from one node.
    pub(crate) fn axis_nodes(
        &mut self,
        node: NodeId,
        axis: Axis,
        test: &NodeTest,
    ) -> QueryResult<Sequence> {
        let mut out = Vec::new();
        match axis {
            Axis::SelfAxis => {
                if self.test_matches(node, test, false)? {
                    out.push(Item::Node(node));
                }
            }
            Axis::Child => {
                // A name test on a stored node goes through the parent's
                // child-schema slot: "the descriptive schema plays a role
                // of a naturally built index" (§4.1) — only descriptors of
                // the matching schema node are touched, never the other
                // children's blocks.
                if let (NodeTest::Name(want), NodeId::Stored { doc, node: n }) = (test, node) {
                    let schema = self.db.docs[doc].schema;
                    let parent_sid = n.schema(self.db.vas)?;
                    if let Some(child_sid) =
                        schema.find_child(parent_sid, NodeKind::Element, Some(want))
                    {
                        if let Some(slot) = schema.child_slot(parent_sid, child_sid) {
                            for c in n.children_by_schema(self.db.vas, slot)? {
                                out.push(Item::Node(NodeId::Stored { doc, node: c }));
                            }
                        }
                    }
                    return Ok(out);
                }
                for c in self.children_of(node)? {
                    if self.node_kind(c)? != NodeKind::Attribute
                        && self.test_matches(c, test, false)?
                    {
                        out.push(Item::Node(c));
                    }
                }
            }
            Axis::Attribute => {
                // Same slot shortcut for named attributes.
                if let (NodeTest::Name(want), NodeId::Stored { doc, node: n }) = (test, node) {
                    let schema = self.db.docs[doc].schema;
                    let parent_sid = n.schema(self.db.vas)?;
                    if let Some(child_sid) =
                        schema.find_child(parent_sid, NodeKind::Attribute, Some(want))
                    {
                        if let Some(slot) = schema.child_slot(parent_sid, child_sid) {
                            for c in n.children_by_schema(self.db.vas, slot)? {
                                out.push(Item::Node(NodeId::Stored { doc, node: c }));
                            }
                        }
                    }
                    return Ok(out);
                }
                for c in self.children_of(node)? {
                    if self.node_kind(c)? == NodeKind::Attribute
                        && self.test_matches(c, test, true)?
                    {
                        out.push(Item::Node(c));
                    }
                }
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                if axis == Axis::DescendantOrSelf && self.test_matches(node, test, false)? {
                    out.push(Item::Node(node));
                }
                self.collect_descendants(node, test, &mut out)?;
            }
            Axis::Parent => {
                if let Some(p) = self.parent_of(node)? {
                    if self.test_matches(p, test, false)? {
                        out.push(Item::Node(p));
                    }
                }
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                if axis == Axis::AncestorOrSelf && self.test_matches(node, test, false)? {
                    out.push(Item::Node(node));
                }
                let mut cur = self.parent_of(node)?;
                while let Some(p) = cur {
                    if self.test_matches(p, test, false)? {
                        out.push(Item::Node(p));
                    }
                    cur = self.parent_of(p)?;
                }
            }
            Axis::FollowingSibling | Axis::PrecedingSibling => {
                if self.node_kind(node)? == NodeKind::Attribute {
                    return Ok(out); // attributes have no siblings
                }
                let siblings = match self.parent_of(node)? {
                    None => Vec::new(),
                    Some(p) => self.children_of(p)?,
                };
                let pos = siblings.iter().position(|&s| s == node);
                if let Some(pos) = pos {
                    let range: Vec<NodeId> = if axis == Axis::FollowingSibling {
                        siblings[pos + 1..].to_vec()
                    } else {
                        siblings[..pos].iter().rev().copied().collect()
                    };
                    for s in range {
                        if self.node_kind(s)? != NodeKind::Attribute
                            && self.test_matches(s, test, false)?
                        {
                            out.push(Item::Node(s));
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn collect_descendants(
        &mut self,
        node: NodeId,
        test: &NodeTest,
        out: &mut Sequence,
    ) -> QueryResult<()> {
        for c in self.children_of(node)? {
            if self.node_kind(c)? == NodeKind::Attribute {
                continue;
            }
            if self.test_matches(c, test, false)? {
                out.push(Item::Node(c));
            }
            self.collect_descendants(c, test, out)?;
        }
        Ok(())
    }

    /// §5.1.4: schema-level evaluation + block-list scans.
    fn eval_structural(&mut self, doc: &str, steps: &[Step]) -> QueryResult<Sequence> {
        let idx = self
            .db
            .doc_idx(doc)
            .ok_or_else(|| QueryError::Dynamic(format!("no such document '{doc}'")))?;
        let matched = self.structural_sids(idx, steps);
        let mut out = Vec::new();
        for sid in matched {
            self.scan_schema_list(idx, sid, &mut out)?;
        }
        Ok(out)
    }

    /// Resolves a declared index by name, counting the lookup — the one
    /// place `index_lookups` is bumped; both index builtins go through
    /// it, so the counter and the actual B-tree accesses cannot drift.
    fn index_entry(&mut self, iname: &str) -> QueryResult<&'a IndexEntry<'a>> {
        let entry = self
            .db
            .indexes
            .iter()
            .find(|e| e.name == iname)
            .ok_or_else(|| QueryError::Dynamic(format!("no such index '{iname}'")))?;
        self.stats.index_lookups += 1;
        Ok(entry)
    }

    /// Resolves a structural path to the schema nodes whose block lists
    /// hold the result (the schema-level half of §5.1.4).
    pub(crate) fn structural_sids(&self, doc: usize, steps: &[Step]) -> Vec<SchemaNodeId> {
        let schema_steps: Vec<sedna_schema::PathStep> = steps
            .iter()
            .map(|s| schema_step(s).expect("rewriter only extracts descending axes"))
            .collect();
        sedna_schema::path::eval_structural_path(self.db.docs[doc].schema, &schema_steps)
    }

    /// The head of a schema node's block list (null when the list is
    /// empty).
    pub(crate) fn first_block(&self, doc: usize, sid: SchemaNodeId) -> sedna_sas::XPtr {
        self.db.docs[doc].schema.node(sid).first_block
    }

    /// Scans one block of a schema node's list into `out`, returning the
    /// next block in the chain (null at the end). One pull of the
    /// streaming structural scan pins exactly this one page.
    pub(crate) fn scan_block(
        &mut self,
        doc: usize,
        blk: sedna_sas::XPtr,
        out: &mut Sequence,
    ) -> QueryResult<sedna_sas::XPtr> {
        let stats = &mut self.stats;
        Ok(block::scan_block(self.db.vas, blk, |node| {
            out.push(Item::Node(NodeId::Stored { doc, node }));
            stats.nodes_scanned += 1;
        })?)
    }

    /// Scans a schema node's block list in document order.
    fn scan_schema_list(
        &mut self,
        doc: usize,
        sid: SchemaNodeId,
        out: &mut Sequence,
    ) -> QueryResult<()> {
        let mut blk = self.first_block(doc, sid);
        while !blk.is_null() {
            blk = self.scan_block(doc, blk, out)?;
        }
        Ok(())
    }

    // ==============================================================
    // Node accessors (stored + constructed)
    // ==============================================================

    /// The node kind.
    pub fn node_kind(&self, node: NodeId) -> QueryResult<NodeKind> {
        match node {
            NodeId::Stored { node, .. } => Ok(node.kind(self.db.vas)?),
            NodeId::Temp(id) => Ok(self.arena.get(id).kind),
        }
    }

    /// The node's expanded name, if named.
    pub fn node_name(&self, node: NodeId) -> QueryResult<Option<SchemaName>> {
        match node {
            NodeId::Stored { doc, node } => {
                let sid = node.schema(self.db.vas)?;
                Ok(self.db.docs[doc].schema.node(sid).name.clone())
            }
            NodeId::Temp(id) => Ok(self.arena.get(id).name.clone()),
        }
    }

    /// The node's children in document order (attributes included, first).
    pub fn children_of(&self, node: NodeId) -> QueryResult<Vec<NodeId>> {
        match node {
            NodeId::Stored { doc, node } => Ok(node
                .children(self.db.vas)?
                .into_iter()
                .map(|n| NodeId::Stored { doc, node: n })
                .collect()),
            NodeId::Temp(id) => Ok(self
                .arena
                .get(id)
                .children
                .iter()
                .map(|c| match c {
                    TempChild::Temp(t) => NodeId::Temp(*t),
                    TempChild::StoredRef { doc, node } => NodeId::Stored {
                        doc: *doc,
                        node: *node,
                    },
                })
                .collect()),
        }
    }

    /// The node's parent.
    pub fn parent_of(&self, node: NodeId) -> QueryResult<Option<NodeId>> {
        match node {
            NodeId::Stored { doc, node } => {
                let mode = self.db.docs[doc].doc.mode;
                Ok(node
                    .parent(self.db.vas, mode)?
                    .map(|n| NodeId::Stored { doc, node: n }))
            }
            NodeId::Temp(id) => Ok(self.arena.get(id).parent.map(NodeId::Temp)),
        }
    }

    /// The XPath string value.
    pub fn string_value(&self, node: NodeId) -> QueryResult<String> {
        match node {
            NodeId::Stored { doc, node } => {
                Ok(node.string_value(self.db.vas, self.db.docs[doc].schema)?)
            }
            NodeId::Temp(id) => {
                let t = self.arena.get(id);
                match t.kind {
                    NodeKind::Element | NodeKind::Document => {
                        let mut out = String::new();
                        self.collect_temp_text(id, &mut out)?;
                        Ok(out)
                    }
                    _ => Ok(t.value.clone()),
                }
            }
        }
    }

    fn collect_temp_text(&self, id: TempId, out: &mut String) -> QueryResult<()> {
        for c in &self.arena.get(id).children {
            match c {
                TempChild::Temp(t) => {
                    let n = self.arena.get(*t);
                    match n.kind {
                        NodeKind::Text => out.push_str(&n.value),
                        NodeKind::Element => self.collect_temp_text(*t, out)?,
                        _ => {}
                    }
                }
                TempChild::StoredRef { doc, node } => match node.kind(self.db.vas)? {
                    NodeKind::Text => out.push_str(&node.value_string(self.db.vas)?),
                    NodeKind::Element => {
                        out.push_str(&node.string_value(self.db.vas, self.db.docs[*doc].schema)?)
                    }
                    _ => {}
                },
            }
        }
        Ok(())
    }

    fn test_matches(&self, node: NodeId, test: &NodeTest, attr_axis: bool) -> QueryResult<bool> {
        let kind = self.node_kind(node)?;
        Ok(match test {
            NodeTest::AnyKind => true,
            NodeTest::Text => kind == NodeKind::Text,
            NodeTest::Comment => kind == NodeKind::Comment,
            NodeTest::Pi(target) => {
                kind == NodeKind::ProcessingInstruction
                    && match target {
                        None => true,
                        Some(t) => self.node_name(node)?.is_some_and(|n| n.local == *t),
                    }
            }
            NodeTest::Wildcard => {
                if attr_axis {
                    kind == NodeKind::Attribute
                } else {
                    kind == NodeKind::Element
                }
            }
            NodeTest::Name(want) => {
                let principal = if attr_axis {
                    NodeKind::Attribute
                } else {
                    NodeKind::Element
                };
                kind == principal && self.node_name(node)?.as_ref() == Some(want)
            }
        })
    }

    // ==============================================================
    // DDO, atomization, EBV
    // ==============================================================

    /// Distinct-document-order: materialize, sort by order key, dedup.
    pub(crate) fn ddo(&mut self, seq: Sequence) -> QueryResult<Sequence> {
        self.stats.ddo_sorts += 1;
        self.stats.ddo_items += seq.len() as u64;
        let mut keyed: Vec<(OrderKey, Item)> = Vec::with_capacity(seq.len());
        for item in seq {
            match &item {
                Item::Node(NodeId::Stored { doc, node }) => {
                    let label = node.label(self.db.vas)?;
                    keyed.push((OrderKey::stored(*doc, &label), item));
                }
                Item::Node(NodeId::Temp(id)) => {
                    keyed.push((OrderKey::Temp(id.0), item));
                }
                Item::Atom(_) => {
                    return Err(QueryError::Dynamic(
                        "distinct-document-order over atomic values".into(),
                    ))
                }
            }
        }
        keyed.sort_by(|(a, _), (b, _)| a.cmp(b));
        keyed.dedup_by(|(a, _), (b, _)| a == b);
        Ok(keyed.into_iter().map(|(_, i)| i).collect())
    }

    /// Atomizes one item.
    pub fn atomize_item(&self, item: &Item) -> QueryResult<Atom> {
        match item {
            Item::Atom(a) => Ok(a.clone()),
            Item::Node(n) => Ok(Atom::String(self.string_value(*n)?)),
        }
    }

    pub(crate) fn atomize_number(&self, seq: &Sequence) -> QueryResult<f64> {
        match seq.as_slice() {
            [item] => Ok(self.atomize_item(item)?.to_number()),
            _ => Err(QueryError::Dynamic(format!(
                "expected a single numeric value, got {} items",
                seq.len()
            ))),
        }
    }

    /// Effective boolean value.
    pub fn ebv(&self, seq: &Sequence) -> QueryResult<bool> {
        match seq.as_slice() {
            [] => Ok(false),
            [Item::Node(_), ..] => Ok(true),
            [Item::Atom(a)] => Ok(match a {
                Atom::Boolean(b) => *b,
                Atom::String(s) => !s.is_empty(),
                Atom::Number(n) => *n != 0.0 && !n.is_nan(),
            }),
            _ => Err(QueryError::Dynamic(
                "effective boolean value of a multi-atom sequence".into(),
            )),
        }
    }

    fn sequence_to_string(&self, seq: &Sequence) -> QueryResult<String> {
        let mut parts = Vec::with_capacity(seq.len());
        for item in seq {
            parts.push(self.atomize_item(item)?.to_string_value());
        }
        Ok(parts.join(" "))
    }

    // ==============================================================
    // Constructors (§5.2.1)
    // ==============================================================

    fn eval_element_ctor(
        &mut self,
        name: &SchemaName,
        attrs: &[(SchemaName, Vec<Expr>)],
        children: &[Expr],
    ) -> QueryResult<Sequence> {
        let elem = self.arena.element(name.clone());
        for (aname, parts) in attrs {
            let mut value = String::new();
            for p in parts {
                let v = self.eval(p)?;
                value.push_str(&self.sequence_to_string(&v)?);
            }
            let a = self.arena.attribute(aname.clone(), value);
            self.arena.add_child(elem, TempChild::Temp(a));
        }
        for c in children {
            let v = self.eval(c)?;
            self.add_content(elem, v)?;
        }
        Ok(vec![Item::Node(NodeId::Temp(elem))])
    }

    /// Content construction: adjacent atoms join into text nodes; node
    /// content is copied/adopted/referenced per [`ConstructMode`].
    fn add_content(&mut self, parent: TempId, content: Sequence) -> QueryResult<()> {
        let mut pending_text = String::new();
        let mut first_atom = true;
        for item in content {
            match item {
                Item::Atom(a) => {
                    if !first_atom && !pending_text.is_empty() {
                        pending_text.push(' ');
                    }
                    pending_text.push_str(&a.to_string_value());
                    first_atom = false;
                }
                Item::Node(n) => {
                    if !pending_text.is_empty() {
                        let t = self.arena.text(std::mem::take(&mut pending_text));
                        self.arena.add_child(parent, TempChild::Temp(t));
                    }
                    first_atom = true;
                    self.add_node_content(parent, n)?;
                }
            }
        }
        if !pending_text.is_empty() {
            let t = self.arena.text(pending_text);
            self.arena.add_child(parent, TempChild::Temp(t));
        }
        Ok(())
    }

    fn add_node_content(&mut self, parent: TempId, node: NodeId) -> QueryResult<()> {
        match (self.mode, node) {
            // Virtual: store the pointer — "does not perform deep copy of
            // the content of constructed node, but rather stores a pointer
            // to it".
            (ConstructMode::Virtual, NodeId::Stored { doc, node }) => {
                self.arena
                    .add_child(parent, TempChild::StoredRef { doc, node });
                Ok(())
            }
            // Embedded/Virtual: adopt a parentless constructed node
            // directly — "the nested one sets the parent property of the
            // constructed node to the element created by the constructor
            // it is nested to".
            (ConstructMode::Embedded | ConstructMode::Virtual, NodeId::Temp(id))
                if self.arena.get(id).parent.is_none() =>
            {
                self.arena.add_child(parent, TempChild::Temp(id));
                Ok(())
            }
            // Everything else: deep copy.
            (_, NodeId::Stored { doc, node }) => {
                let copy = self.deep_copy_stored(doc, node)?;
                self.arena.add_child(parent, TempChild::Temp(copy));
                Ok(())
            }
            (_, NodeId::Temp(id)) => {
                let copy = self.deep_copy_temp(id);
                self.arena.add_child(parent, TempChild::Temp(copy));
                Ok(())
            }
        }
    }

    fn deep_copy_stored(&mut self, doc: usize, node: NodeRef) -> QueryResult<TempId> {
        self.stats.ctor_copies += 1;
        let vas = self.db.vas;
        let kind = node.kind(vas)?;
        let name = {
            let sid = node.schema(vas)?;
            self.db.docs[doc].schema.node(sid).name.clone()
        };
        let value = if kind.has_value() {
            node.value_string(vas)?
        } else {
            String::new()
        };
        let id = self.arena.push(TempNode {
            kind,
            name,
            value,
            children: Vec::new(),
            parent: None,
        });
        if kind == NodeKind::Element || kind == NodeKind::Document {
            for c in node.children(vas)? {
                let cc = self.deep_copy_stored(doc, c)?;
                self.arena.add_child(id, TempChild::Temp(cc));
            }
        }
        Ok(id)
    }

    fn deep_copy_temp(&mut self, src: TempId) -> TempId {
        self.stats.ctor_copies += 1;
        let node = self.arena.get(src).clone();
        let id = self.arena.push(TempNode {
            kind: node.kind,
            name: node.name,
            value: node.value,
            children: Vec::new(),
            parent: None,
        });
        for c in node.children {
            match c {
                TempChild::Temp(t) => {
                    let cc = self.deep_copy_temp(t);
                    self.arena.add_child(id, TempChild::Temp(cc));
                }
                TempChild::StoredRef { doc, node } => {
                    // Copying a virtual node materializes it.
                    if let Ok(cc) = self.deep_copy_stored(doc, node) {
                        self.arena.add_child(id, TempChild::Temp(cc));
                    }
                }
            }
        }
        id
    }

    // ==============================================================
    // Built-in functions
    // ==============================================================

    fn eval_builtin(&mut self, name: &str, args: &[Expr]) -> QueryResult<Sequence> {
        // Context-free evaluation of arguments (position/last need the
        // stack untouched, and take no arguments anyway).
        match name {
            "position" => {
                let (_, pos, _) = self
                    .ctx
                    .last()
                    .ok_or_else(|| QueryError::Dynamic("position() outside a predicate".into()))?;
                return Ok(vec![Item::number(*pos as f64)]);
            }
            "last" => {
                let (_, _, size) = self
                    .ctx
                    .last()
                    .ok_or_else(|| QueryError::Dynamic("last() outside a predicate".into()))?;
                return Ok(vec![Item::number(*size as f64)]);
            }
            "true" => return Ok(vec![Item::boolean(true)]),
            "false" => return Ok(vec![Item::boolean(false)]),
            _ => {}
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a)?);
        }
        let arg = |i: usize| -> &Sequence { &vals[i] };
        let ctx_or_arg = |ex: &Self, i: usize| -> QueryResult<Sequence> {
            if vals.len() > i {
                Ok(vals[i].clone())
            } else {
                match ex.ctx.last() {
                    Some((item, _, _)) => Ok(vec![item.clone()]),
                    None => Err(QueryError::Dynamic(format!(
                        "{name}() with no argument requires a context item"
                    ))),
                }
            }
        };
        let one_string = |ex: &Self, seq: &Sequence| -> QueryResult<String> {
            match seq.as_slice() {
                [] => Ok(String::new()),
                [item] => Ok(ex.atomize_item(item)?.to_string_value()),
                _ => Err(QueryError::Dynamic(format!(
                    "{name}() expected at most one item"
                ))),
            }
        };
        match name {
            "doc" | "document" => {
                let d = one_string(self, arg(0))?;
                let idx = self
                    .db
                    .doc_idx(&d)
                    .ok_or_else(|| QueryError::Dynamic(format!("no such document '{d}'")))?;
                let node = self.db.docs[idx].doc.doc_node(self.db.vas)?;
                Ok(vec![Item::Node(NodeId::Stored { doc: idx, node })])
            }
            "count" => Ok(vec![Item::number(arg(0).len() as f64)]),
            "empty" => Ok(vec![Item::boolean(arg(0).is_empty())]),
            "exists" => Ok(vec![Item::boolean(!arg(0).is_empty())]),
            "not" => {
                let b = self.ebv(arg(0))?;
                Ok(vec![Item::boolean(!b)])
            }
            "boolean" => {
                let b = self.ebv(arg(0))?;
                Ok(vec![Item::boolean(b)])
            }
            "string" => {
                let v = ctx_or_arg(self, 0)?;
                Ok(vec![Item::string(one_string(self, &v)?)])
            }
            "number" => {
                let v = ctx_or_arg(self, 0)?;
                let n = match v.as_slice() {
                    [] => f64::NAN,
                    [item] => self.atomize_item(item)?.to_number(),
                    _ => f64::NAN,
                };
                Ok(vec![Item::number(n)])
            }
            "data" => {
                let mut out = Vec::new();
                for item in arg(0) {
                    out.push(Item::Atom(self.atomize_item(item)?));
                }
                Ok(out)
            }
            "name" | "local-name" => {
                let v = ctx_or_arg(self, 0)?;
                match v.as_slice() {
                    [] => Ok(vec![Item::string("")]),
                    [Item::Node(n)] => {
                        let nm = self.node_name(*n)?;
                        Ok(vec![Item::string(nm.map(|n| n.local).unwrap_or_default())])
                    }
                    _ => Err(QueryError::Dynamic(format!("{name}() requires a node"))),
                }
            }
            "string-length" => {
                let v = ctx_or_arg(self, 0)?;
                let s = one_string(self, &v)?;
                Ok(vec![Item::number(s.chars().count() as f64)])
            }
            "concat" => {
                let mut out = String::new();
                for v in &vals {
                    out.push_str(&one_string(self, v)?);
                }
                Ok(vec![Item::string(out)])
            }
            "contains" => {
                let a = one_string(self, arg(0))?;
                let b = one_string(self, arg(1))?;
                Ok(vec![Item::boolean(a.contains(&b))])
            }
            "starts-with" => {
                let a = one_string(self, arg(0))?;
                let b = one_string(self, arg(1))?;
                Ok(vec![Item::boolean(a.starts_with(&b))])
            }
            "ends-with" => {
                let a = one_string(self, arg(0))?;
                let b = one_string(self, arg(1))?;
                Ok(vec![Item::boolean(a.ends_with(&b))])
            }
            "substring" => {
                let s = one_string(self, arg(0))?;
                let start = self.atomize_number(arg(1))?.round() as i64;
                let chars: Vec<char> = s.chars().collect();
                let len = if vals.len() > 2 {
                    self.atomize_number(arg(2))?.round() as i64
                } else {
                    chars.len() as i64 + 1 - start.min(1)
                };
                let from = (start - 1).max(0) as usize;
                let to = ((start - 1 + len).max(0) as usize).min(chars.len());
                let out: String = if from < to {
                    chars[from..to].iter().collect()
                } else {
                    String::new()
                };
                Ok(vec![Item::string(out)])
            }
            "substring-before" => {
                let a = one_string(self, arg(0))?;
                let b = one_string(self, arg(1))?;
                Ok(vec![Item::string(
                    a.find(&b).map(|i| a[..i].to_string()).unwrap_or_default(),
                )])
            }
            "substring-after" => {
                let a = one_string(self, arg(0))?;
                let b = one_string(self, arg(1))?;
                Ok(vec![Item::string(
                    a.find(&b)
                        .map(|i| a[i + b.len()..].to_string())
                        .unwrap_or_default(),
                )])
            }
            "normalize-space" => {
                let v = ctx_or_arg(self, 0)?;
                let s = one_string(self, &v)?;
                Ok(vec![Item::string(
                    s.split_whitespace().collect::<Vec<_>>().join(" "),
                )])
            }
            "upper-case" => {
                let s = one_string(self, arg(0))?;
                Ok(vec![Item::string(s.to_uppercase())])
            }
            "lower-case" => {
                let s = one_string(self, arg(0))?;
                Ok(vec![Item::string(s.to_lowercase())])
            }
            "string-join" => {
                let sep = one_string(self, arg(1))?;
                let mut parts = Vec::new();
                for item in arg(0) {
                    parts.push(self.atomize_item(item)?.to_string_value());
                }
                Ok(vec![Item::string(parts.join(&sep))])
            }
            "sum" => {
                let mut total = 0.0;
                for item in arg(0) {
                    total += self.atomize_item(item)?.to_number();
                }
                Ok(vec![Item::number(total)])
            }
            "avg" => {
                if arg(0).is_empty() {
                    return Ok(vec![]);
                }
                let mut total = 0.0;
                for item in arg(0) {
                    total += self.atomize_item(item)?.to_number();
                }
                Ok(vec![Item::number(total / arg(0).len() as f64)])
            }
            "min" | "max" => {
                if arg(0).is_empty() {
                    return Ok(vec![]);
                }
                let mut best: Option<f64> = None;
                for item in arg(0) {
                    let n = self.atomize_item(item)?.to_number();
                    best = Some(match best {
                        None => n,
                        Some(b) => {
                            if (name == "min") == (n < b) {
                                n
                            } else {
                                b
                            }
                        }
                    });
                }
                Ok(vec![Item::number(best.expect("nonempty"))])
            }
            "round" => {
                let n = self.atomize_number(arg(0))?;
                Ok(vec![Item::number(n.round())])
            }
            "floor" => {
                let n = self.atomize_number(arg(0))?;
                Ok(vec![Item::number(n.floor())])
            }
            "ceiling" => {
                let n = self.atomize_number(arg(0))?;
                Ok(vec![Item::number(n.ceil())])
            }
            "abs" => {
                let n = self.atomize_number(arg(0))?;
                Ok(vec![Item::number(n.abs())])
            }
            "distinct-values" => {
                let mut seen: Vec<Atom> = Vec::new();
                for item in arg(0) {
                    let a = self.atomize_item(item)?;
                    if !seen.iter().any(|s| atoms_equal(s, &a)) {
                        seen.push(a);
                    }
                }
                Ok(seen.into_iter().map(Item::Atom).collect())
            }
            "reverse" => {
                let mut v = arg(0).clone();
                v.reverse();
                Ok(v)
            }
            "subsequence" => {
                let v = arg(0);
                let start = self.atomize_number(arg(1))?.round() as i64;
                let len = if vals.len() > 2 {
                    self.atomize_number(arg(2))?.round() as i64
                } else {
                    i64::MAX
                };
                let from = (start - 1).max(0) as usize;
                let to = (start - 1 + len).clamp(0, v.len() as i64) as usize;
                Ok(if from < to {
                    v[from..to.min(v.len())].to_vec()
                } else {
                    vec![]
                })
            }
            "index-of" => {
                let target = self.atomize_item(&arg(1)[0])?;
                let mut out = Vec::new();
                for (i, item) in arg(0).iter().enumerate() {
                    if atoms_equal(&self.atomize_item(item)?, &target) {
                        out.push(Item::number((i + 1) as f64));
                    }
                }
                Ok(out)
            }
            "deep-equal" => {
                let a = self.serialize_sequence(arg(0))?;
                let b = self.serialize_sequence(arg(1))?;
                Ok(vec![Item::boolean(a == b)])
            }
            "index-scan" => {
                let iname = one_string(self, arg(0))?;
                let key_atom = self.atomize_item(&arg(1)[0])?;
                let key = atom_to_index_key(&key_atom);
                let entry = self.index_entry(&iname)?;
                let handles = entry
                    .index
                    .lookup(self.db.vas, &key)
                    .map_err(|e| QueryError::Dynamic(format!("index error: {e}")))?;
                let doc = entry.doc;
                let mut out = Vec::new();
                for h in handles {
                    let node = NodeRef(indirection::deref_handle(self.db.vas, h)?);
                    out.push(Item::Node(NodeId::Stored { doc, node }));
                }
                Ok(out)
            }
            "index-scan-between" => {
                let iname = one_string(self, arg(0))?;
                let lo = atom_to_index_key(&self.atomize_item(&arg(1)[0])?);
                let hi = atom_to_index_key(&self.atomize_item(&arg(2)[0])?);
                let entry = self.index_entry(&iname)?;
                let handles = entry
                    .index
                    .range(self.db.vas, Some(&lo), true, Some(&hi), true)
                    .map_err(|e| QueryError::Dynamic(format!("index error: {e}")))?;
                let doc = entry.doc;
                let mut out = Vec::new();
                for h in handles {
                    let node = NodeRef(indirection::deref_handle(self.db.vas, h)?);
                    out.push(Item::Node(NodeId::Stored { doc, node }));
                }
                Ok(out)
            }
            other => Err(QueryError::Dynamic(format!(
                "builtin {other} not implemented"
            ))),
        }
    }

    // ==============================================================
    // Serialization
    // ==============================================================

    /// Serializes a result sequence to XML text (nodes serialized,
    /// atoms space-joined).
    pub fn serialize_sequence(&self, seq: &Sequence) -> QueryResult<String> {
        let mut out = String::new();
        let mut prev_atom = false;
        for item in seq {
            match item {
                Item::Atom(a) => {
                    if prev_atom {
                        out.push(' ');
                    }
                    out.push_str(&a.to_string_value());
                    prev_atom = true;
                }
                Item::Node(n) => {
                    self.serialize_node(*n, &mut out)?;
                    prev_atom = false;
                }
            }
        }
        Ok(out)
    }

    /// Serializes one node.
    pub fn serialize_node(&self, node: NodeId, out: &mut String) -> QueryResult<()> {
        match node {
            NodeId::Stored { doc, node } => self.serialize_stored(doc, node, out),
            NodeId::Temp(id) => self.serialize_temp(id, out),
        }
    }

    fn serialize_stored(&self, doc: usize, node: NodeRef, out: &mut String) -> QueryResult<()> {
        let vas = self.db.vas;
        let schema = self.db.docs[doc].schema;
        match node.kind(vas)? {
            NodeKind::Document => {
                for c in node.children(vas)? {
                    self.serialize_stored(doc, c, out)?;
                }
            }
            NodeKind::Element => {
                let sid = node.schema(vas)?;
                let name = schema
                    .node(sid)
                    .name
                    .as_ref()
                    .expect("elements are named")
                    .local
                    .clone();
                out.push('<');
                out.push_str(&name);
                let children = node.children(vas)?;
                let (attrs, others): (Vec<_>, Vec<_>) = children
                    .into_iter()
                    .partition(|c| matches!(c.kind(vas), Ok(NodeKind::Attribute)));
                for a in &attrs {
                    let asid = a.schema(vas)?;
                    out.push(' ');
                    out.push_str(
                        &schema
                            .node(asid)
                            .name
                            .as_ref()
                            .expect("attributes are named")
                            .local,
                    );
                    out.push_str("=\"");
                    out.push_str(&sedna_xml::escape_attr(&a.value_string(vas)?));
                    out.push('"');
                }
                if others.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for c in others {
                        self.serialize_stored(doc, c, out)?;
                    }
                    out.push_str("</");
                    out.push_str(&name);
                    out.push('>');
                }
            }
            NodeKind::Text => out.push_str(&sedna_xml::escape_text(&node.value_string(vas)?)),
            NodeKind::Comment => {
                out.push_str("<!--");
                out.push_str(&node.value_string(vas)?);
                out.push_str("-->");
            }
            NodeKind::ProcessingInstruction => {
                let sid = node.schema(vas)?;
                out.push_str("<?");
                out.push_str(&schema.node(sid).name.as_ref().expect("PIs are named").local);
                let data = node.value_string(vas)?;
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(&data);
                }
                out.push_str("?>");
            }
            NodeKind::Attribute => {
                // A bare attribute serializes as its value.
                out.push_str(&node.value_string(vas)?);
            }
        }
        Ok(())
    }

    fn serialize_temp(&self, id: TempId, out: &mut String) -> QueryResult<()> {
        let node = self.arena.get(id);
        match node.kind {
            NodeKind::Element => {
                let name = node
                    .name
                    .as_ref()
                    .expect("elements are named")
                    .local
                    .clone();
                out.push('<');
                out.push_str(&name);
                let mut content = Vec::new();
                for c in &node.children {
                    match c {
                        TempChild::Temp(t) if self.arena.get(*t).kind == NodeKind::Attribute => {
                            let a = self.arena.get(*t);
                            out.push(' ');
                            out.push_str(&a.name.as_ref().expect("attributes are named").local);
                            out.push_str("=\"");
                            out.push_str(&sedna_xml::escape_attr(&a.value));
                            out.push('"');
                        }
                        other => content.push(other.clone()),
                    }
                }
                if content.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for c in content {
                        match c {
                            TempChild::Temp(t) => self.serialize_temp(t, out)?,
                            TempChild::StoredRef { doc, node } => {
                                self.serialize_stored(doc, node, out)?
                            }
                        }
                    }
                    out.push_str("</");
                    out.push_str(&name);
                    out.push('>');
                }
            }
            NodeKind::Text => out.push_str(&sedna_xml::escape_text(&node.value)),
            NodeKind::Comment => {
                out.push_str("<!--");
                out.push_str(&node.value);
                out.push_str("-->");
            }
            NodeKind::ProcessingInstruction => {
                out.push_str("<?");
                out.push_str(&node.name.as_ref().expect("PIs are named").local);
                if !node.value.is_empty() {
                    out.push(' ');
                    out.push_str(&node.value);
                }
                out.push_str("?>");
            }
            NodeKind::Attribute => out.push_str(&node.value),
            NodeKind::Document => {
                for c in &node.children {
                    match c {
                        TempChild::Temp(t) => self.serialize_temp(*t, out)?,
                        TempChild::StoredRef { doc, node } => {
                            self.serialize_stored(*doc, *node, out)?
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

fn cmp_atoms(op: CmpOp, a: &Atom, b: &Atom) -> bool {
    use std::cmp::Ordering::*;
    // Numeric when either side is numeric, else string comparison.
    let ord = match (a, b) {
        (Atom::Number(_), _) | (_, Atom::Number(_)) => {
            let (x, y) = (a.to_number(), b.to_number());
            if x.is_nan() || y.is_nan() {
                // NaN compares false except for !=.
                return op == CmpOp::Ne;
            }
            x.partial_cmp(&y).expect("no NaN here")
        }
        (Atom::Boolean(x), Atom::Boolean(y)) => x.cmp(y),
        _ => a.to_string_value().cmp(&b.to_string_value()),
    };
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

fn atoms_equal(a: &Atom, b: &Atom) -> bool {
    cmp_atoms(CmpOp::Eq, a, b)
}

fn cmp_order_keys(a: &Option<Atom>, b: &Option<Atom>) -> std::cmp::Ordering {
    match (a, b) {
        (None, None) => std::cmp::Ordering::Equal,
        (None, Some(_)) => std::cmp::Ordering::Less, // empty first
        (Some(_), None) => std::cmp::Ordering::Greater,
        (Some(x), Some(y)) => match (x, y) {
            (Atom::Number(n), Atom::Number(m)) => {
                n.partial_cmp(m).unwrap_or(std::cmp::Ordering::Equal)
            }
            _ => x.to_string_value().cmp(&y.to_string_value()),
        },
    }
}

fn atom_to_index_key(a: &Atom) -> IndexKey {
    match a {
        Atom::Number(n) => IndexKey::number(*n).unwrap_or(IndexKey::Number(0.0)),
        other => IndexKey::string(other.to_string_value()),
    }
}
