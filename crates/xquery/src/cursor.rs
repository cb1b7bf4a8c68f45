//! Pull-based (Volcano-style) item cursors over the executor.
//!
//! [`Plan::compile`] turns a rewritten [`Expr`] into a tree of pull
//! operators; each [`Plan::next`] call produces at most one [`Item`] and
//! touches only the pages that item needs, so a streaming query pins
//! O(pipeline depth) buffer pages instead of O(result size) and the
//! first item surfaces before the scan completes.
//!
//! Operators:
//!
//! * **streaming** — document roots, axis steps (one parent pulled at a
//!   time, its child batch buffered), structural scans (one block-list
//!   page at a time), `last()`-free filters with incremental positions,
//!   unordered FLWOR (binding sequences are materialized — they hold
//!   plain node identities, no page pins — and the `return` clause is
//!   evaluated per binding), integer ranges, and sequence concatenation;
//! * **blocking** — distinct-document-order (sort), `order by` FLWOR,
//!   `last()`-dependent predicates, and every other expression form,
//!   which all fall back to [`OpKind::Materialize`]: full evaluation
//!   behind the same `next()` interface, so callers never observe the
//!   difference except through pin counts.
//!
//! The operators embed their own runtime state, so a plan plus an
//! [`crate::exec::ExecState`] fully captures a suspended query: the host
//! rebuilds the borrowed [`crate::exec::Database`] view around them on
//! every pull (see `sedna` / `QueryCursor`).
//!
//! **Instrumentation.** Every operator carries always-on pull/item
//! counters (two plain `u64` increments per pull — no atomics, no
//! branches beyond the increment itself). Per-operator wall time is
//! opt-in via [`Plan::enable_timing`] (two `Instant` reads per pull per
//! operator), so untraced executions pay nothing for it.
//! [`Plan::profile`] folds the tree into an [`OpProfile`] — the
//! `EXPLAIN ANALYZE` operator tree rendered by [`OpProfile::render`],
//! with self-time computed as cumulative time minus the children's.

use std::collections::VecDeque;
use std::time::Instant;

use sedna_sas::XPtr;
use sedna_schema::SchemaNodeId;

use crate::ast::{Axis, Expr, FlworClause, NodeTest, PathStart, Step};
use crate::error::{QueryError, QueryResult};
use crate::exec::Executor;
use crate::value::{Atom, Item, Sequence};

/// A compiled pull-based plan for one query body.
#[derive(Debug)]
pub struct Plan {
    root: Op,
}

impl Plan {
    /// Compiles an expression into a pull operator tree. Every
    /// expression compiles — forms without a streaming implementation
    /// become a single materializing operator.
    pub fn compile(e: &Expr) -> Plan {
        Plan {
            root: compile_op(e),
        }
    }

    /// The pipeline depth (operators on the longest root-to-leaf path);
    /// the page-pin bound for fully streaming plans is O(this).
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Whether the root operator streams (false when the whole plan is
    /// one materializing fallback).
    pub fn is_streaming(&self) -> bool {
        !matches!(self.root.kind, OpKind::Materialize { .. })
    }

    /// Turns on per-operator wall-clock timing for the whole tree (for
    /// `EXPLAIN ANALYZE` and traced statements). Off by default so the
    /// plain execution path never reads the clock per pull.
    pub fn enable_timing(&mut self) {
        self.root.enable_timing();
    }

    /// The `EXPLAIN ANALYZE` operator tree: per-operator pulls, items
    /// emitted, and (when timing was enabled) cumulative/self time.
    pub fn profile(&self) -> OpProfile {
        self.root.profile()
    }

    /// Stamps the planner's cardinality estimates onto the operator
    /// tree, so `EXPLAIN ANALYZE` can render `est=N act=M` per operator.
    /// `estimate_path` maps a `(document, steps)` path rooted at a
    /// document node to an estimated item count (see
    /// [`crate::cost::estimate_path_cardinality`]); operators whose
    /// cardinality cannot be derived from it stay unannotated.
    pub fn annotate_estimates<F>(&mut self, estimate_path: &F)
    where
        F: Fn(&str, &[Step]) -> Option<u64>,
    {
        annotate_op(&mut self.root, estimate_path);
    }

    /// Pulls the next item, or `None` when the plan is exhausted.
    pub fn next(&mut self, ex: &mut Executor<'_>) -> QueryResult<Option<Item>> {
        self.root.next(ex)
    }
}

/// One pull operator: its kind-specific state plus runtime counters.
#[derive(Debug)]
struct Op {
    kind: OpKind,
    /// `next()` calls on this operator.
    pulls: u64,
    /// Pulls answered with an item.
    items: u64,
    /// Wall time spent inside `next()`, children included; stays 0
    /// unless timing is enabled.
    cum_ns: u64,
    timed: bool,
    /// Planner cardinality estimate ([`Plan::annotate_estimates`]);
    /// `None` when the operator's output is not estimable.
    est: Option<u64>,
}

impl From<OpKind> for Op {
    fn from(kind: OpKind) -> Op {
        Op {
            kind,
            pulls: 0,
            items: 0,
            cum_ns: 0,
            timed: false,
            est: None,
        }
    }
}

/// Operator-kind state. Lives inline so the tree is self-contained.
#[derive(Debug)]
enum OpKind {
    /// `doc('name')` — yields the document node once.
    DocRoot { name: String, done: bool },
    /// One axis step: pulls a parent from `input`, evaluates the full
    /// child batch (with the step's predicates, whose positions are
    /// per-parent exactly as in the materializing path) and yields it
    /// item by item.
    Step {
        input: Box<Op>,
        step: Step,
        buf: VecDeque<Item>,
    },
    /// §5.1.4 structural scan: schema nodes resolved at open, then the
    /// block lists are walked one page per refill.
    StructuralScan {
        doc: String,
        steps: Vec<Step>,
        state: Option<ScanState>,
        buf: VecDeque<Item>,
    },
    /// A `last()`-free predicate with incrementally counted positions
    /// (numeric predicate = positional test, as in `apply_predicate`).
    Filter {
        input: Box<Op>,
        predicate: Expr,
        pos: usize,
    },
    /// Unordered FLWOR: an odometer over the for/let clauses; each
    /// complete binding evaluates `where` and then `ret`, whose items
    /// stream out before the next binding is produced.
    For {
        clauses: Vec<FlworClause>,
        where_: Option<Expr>,
        ret: Expr,
        state: Option<ForState>,
        buf: VecDeque<Item>,
    },
    /// `a to b` with bounds evaluated at open.
    Range {
        lo: Expr,
        hi: Expr,
        state: RangeState,
    },
    /// `(a, b, c)` — children drained left to right.
    Concat { parts: Vec<Op>, idx: usize },
    /// Distinct-document-order. A structural scan over a single
    /// schema-node chain is already distinct and in document order (one
    /// chain, walked in order, each descriptor once), so that case
    /// streams straight through; anything else drains the child, sorts
    /// and dedups once, then streams the result.
    Ddo {
        input: Box<Op>,
        /// Decided on the first pull: `Some(true)` = stream through.
        passthrough: Option<bool>,
        buf: Option<VecDeque<Item>>,
    },
    /// Blocking fallback: full evaluation through `Executor::eval` on
    /// first pull, then drained item by item.
    Materialize {
        expr: Expr,
        buf: Option<VecDeque<Item>>,
    },
}

/// Runtime state of a structural scan.
#[derive(Debug)]
struct ScanState {
    doc: usize,
    sids: Vec<SchemaNodeId>,
    next_sid: usize,
    blk: XPtr,
}

/// Odometer state of a streaming FLWOR: the materialized binding
/// sequence and cursor per clause (`Let` clauses keep an empty vec).
#[derive(Debug)]
struct ForState {
    seqs: Vec<Sequence>,
    idx: Vec<usize>,
    started: bool,
}

#[derive(Debug)]
enum RangeState {
    Unopened,
    Running(i64, i64),
    Done,
}

/// One node of the `EXPLAIN ANALYZE` operator tree — a plan operator's
/// identity plus its observed runtime behaviour.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpProfile {
    /// Operator name (`Step`, `Ddo`, `Materialize`, …).
    pub name: &'static str,
    /// Operator-specific detail (`child::v`, `doc('big')`, …).
    pub detail: String,
    /// `next()` calls the operator received.
    pub pulls: u64,
    /// Pulls it answered with an item.
    pub items: u64,
    /// Wall time inside the operator including its children (0 when
    /// timing was not enabled).
    pub cum_ns: u64,
    /// `cum_ns` minus the children's `cum_ns` — the operator's own
    /// work.
    pub self_ns: u64,
    /// Planner cardinality estimate, when the plan was annotated
    /// ([`Plan::annotate_estimates`]); compare against `items` (the
    /// actual count) to judge the cost model.
    pub est: Option<u64>,
    /// Input operators.
    pub children: Vec<OpProfile>,
}

impl OpProfile {
    /// Renders the tree in the classic indented EXPLAIN shape:
    ///
    /// ```text
    /// Ddo streamed  (pulls=5 items=4 self=1.2us total=40.0us)
    ///   StructuralScan doc('big')/child::v  (pulls=5 items=4 ...)
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(self.name);
        if !self.detail.is_empty() {
            let _ = write!(out, " {}", self.detail);
        }
        let _ = write!(
            out,
            "  (pulls={} items={} self={} total={}",
            self.pulls,
            self.items,
            fmt_ns(self.self_ns),
            fmt_ns(self.cum_ns)
        );
        if let Some(est) = self.est {
            let _ = write!(out, " est={est} act={}", self.items);
        }
        out.push_str(")\n");
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// Human-scaled duration: `640ns`, `12.5us`, `3.1ms`, `1.20s`.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// `axis::test` plus a predicate-count suffix, e.g. `child::v` or
/// `descendant::*[2 predicates]`.
fn step_label(step: &Step) -> String {
    let axis = match step.axis {
        Axis::Child => "child",
        Axis::Descendant => "descendant",
        Axis::DescendantOrSelf => "descendant-or-self",
        Axis::SelfAxis => "self",
        Axis::Parent => "parent",
        Axis::Ancestor => "ancestor",
        Axis::AncestorOrSelf => "ancestor-or-self",
        Axis::FollowingSibling => "following-sibling",
        Axis::PrecedingSibling => "preceding-sibling",
        Axis::Attribute => "attribute",
    };
    let test = match &step.test {
        NodeTest::Name(n) => n.to_string(),
        NodeTest::Wildcard => "*".into(),
        NodeTest::Text => "text()".into(),
        NodeTest::Comment => "comment()".into(),
        NodeTest::Pi(_) => "processing-instruction()".into(),
        NodeTest::AnyKind => "node()".into(),
    };
    if step.predicates.is_empty() {
        format!("{axis}::{test}")
    } else {
        format!("{axis}::{test}[{} predicates]", step.predicates.len())
    }
}

fn compile_op(e: &Expr) -> Op {
    match e {
        Expr::Path { start, steps } => {
            let input = match start {
                PathStart::Doc(name) => Op::from(OpKind::DocRoot {
                    name: name.clone(),
                    done: false,
                }),
                PathStart::Expr(inner) => compile_op(inner),
                // '/' and '.' need the caller's context item, which a
                // top-level cursor does not have a streaming source for.
                PathStart::Root | PathStart::Context => return Op::materialize(e),
            };
            steps.iter().fold(input, |acc, s| {
                Op::from(OpKind::Step {
                    input: Box::new(acc),
                    step: s.clone(),
                    buf: VecDeque::new(),
                })
            })
        }
        Expr::StructuralPath { doc, steps } => Op::from(OpKind::StructuralScan {
            doc: doc.clone(),
            steps: steps.clone(),
            state: None,
            buf: VecDeque::new(),
        }),
        Expr::Filter { input, predicates } => {
            // last() needs the filtered sequence's size up front; any
            // predicate using it forces materialization.
            if predicates.iter().any(contains_last) {
                return Op::materialize(e);
            }
            predicates.iter().fold(compile_op(input), |acc, p| {
                Op::from(OpKind::Filter {
                    input: Box::new(acc),
                    predicate: p.clone(),
                    pos: 0,
                })
            })
        }
        Expr::Sequence(items) => Op::from(OpKind::Concat {
            parts: items.iter().map(compile_op).collect(),
            idx: 0,
        }),
        Expr::Range(a, b) => Op::from(OpKind::Range {
            lo: (**a).clone(),
            hi: (**b).clone(),
            state: RangeState::Unopened,
        }),
        Expr::Ddo(inner) => Op::from(OpKind::Ddo {
            input: Box::new(compile_op(inner)),
            passthrough: None,
            buf: None,
        }),
        Expr::Flwor {
            clauses,
            where_,
            order,
            ret,
        } if order.is_empty() => Op::from(OpKind::For {
            clauses: clauses.clone(),
            where_: where_.as_deref().cloned(),
            ret: (**ret).clone(),
            state: None,
            buf: VecDeque::new(),
        }),
        other => Op::materialize(other),
    }
}

/// Bottom-up estimate annotation: each operator's estimate is derived
/// from its children's and the planner's path-cardinality oracle.
/// Returns the estimate assigned to `op` (for the parent's use).
fn annotate_op<F>(op: &mut Op, f: &F) -> Option<u64>
where
    F: Fn(&str, &[Step]) -> Option<u64>,
{
    let est = match &mut op.kind {
        OpKind::DocRoot { .. } => Some(1),
        OpKind::StructuralScan { doc, steps, .. } => f(doc, steps),
        OpKind::Step { input, .. } => {
            annotate_op(input, f);
            // A pure DocRoot + Step chain is a document-rooted path: ask
            // the oracle about the prefix ending at this step.
            doc_chain(op).and_then(|(doc, steps)| f(&doc, &steps))
        }
        OpKind::Filter {
            input, predicate, ..
        } => {
            let child = annotate_op(input, f);
            child.map(|c| {
                if c == 0 {
                    0
                } else {
                    (crate::cost::filter_estimate(c as f64, predicate).round() as u64).max(1)
                }
            })
        }
        OpKind::Ddo { input, .. } => annotate_op(input, f),
        OpKind::Concat { parts, .. } => parts
            .iter_mut()
            .map(|p| annotate_op(p, f))
            .sum::<Option<u64>>(),
        OpKind::Range { lo, hi, .. } => match (&*lo, &*hi) {
            (Expr::Literal(Atom::Number(a)), Expr::Literal(Atom::Number(b))) if b >= a => {
                Some((*b - *a) as u64 + 1)
            }
            _ => None,
        },
        OpKind::For { .. } | OpKind::Materialize { .. } => None,
    };
    op.est = est;
    est
}

/// The `(document, step prefix)` of a pure DocRoot + Step operator
/// chain, or `None` when any other operator interrupts it.
fn doc_chain(op: &Op) -> Option<(String, Vec<Step>)> {
    match &op.kind {
        OpKind::DocRoot { name, .. } => Some((name.clone(), Vec::new())),
        OpKind::Step { input, step, .. } => {
            let (doc, mut steps) = doc_chain(input)?;
            steps.push(step.clone());
            Some((doc, steps))
        }
        _ => None,
    }
}

impl Op {
    fn materialize(e: &Expr) -> Op {
        Op::from(OpKind::Materialize {
            expr: e.clone(),
            buf: None,
        })
    }

    fn depth(&self) -> usize {
        1 + match &self.kind {
            OpKind::DocRoot { .. }
            | OpKind::StructuralScan { .. }
            | OpKind::Range { .. }
            | OpKind::For { .. }
            | OpKind::Materialize { .. } => 0,
            OpKind::Step { input, .. }
            | OpKind::Filter { input, .. }
            | OpKind::Ddo { input, .. } => input.depth(),
            OpKind::Concat { parts, .. } => parts.iter().map(Op::depth).max().unwrap_or(0),
        }
    }

    fn enable_timing(&mut self) {
        self.timed = true;
        match &mut self.kind {
            OpKind::Step { input, .. }
            | OpKind::Filter { input, .. }
            | OpKind::Ddo { input, .. } => input.enable_timing(),
            OpKind::Concat { parts, .. } => parts.iter_mut().for_each(Op::enable_timing),
            _ => {}
        }
    }

    fn profile(&self) -> OpProfile {
        let (name, detail) = self.kind.label();
        let children: Vec<OpProfile> = match &self.kind {
            OpKind::Step { input, .. }
            | OpKind::Filter { input, .. }
            | OpKind::Ddo { input, .. } => vec![input.profile()],
            OpKind::Concat { parts, .. } => parts.iter().map(Op::profile).collect(),
            _ => Vec::new(),
        };
        let child_ns: u64 = children.iter().map(|c| c.cum_ns).sum();
        OpProfile {
            name,
            detail,
            pulls: self.pulls,
            items: self.items,
            cum_ns: self.cum_ns,
            self_ns: self.cum_ns.saturating_sub(child_ns),
            est: self.est,
            children,
        }
    }

    /// True when this operator is a structural scan that resolves to at
    /// most one schema-node chain: such a scan emits each descriptor
    /// exactly once, in document order, so a `Ddo` above it can stream.
    /// Resolving fills the scan's own open state, which the scan reuses.
    fn single_chain_scan(&mut self, ex: &mut Executor<'_>) -> QueryResult<bool> {
        let OpKind::StructuralScan {
            doc, steps, state, ..
        } = &mut self.kind
        else {
            return Ok(false);
        };
        if state.is_none() {
            let idx = ex
                .db
                .doc_idx(doc)
                .ok_or_else(|| QueryError::Dynamic(format!("no such document '{doc}'")))?;
            let sids = ex.structural_sids(idx, steps);
            *state = Some(ScanState {
                doc: idx,
                sids,
                next_sid: 0,
                blk: XPtr::NULL,
            });
        }
        let Some(st) = state else { unreachable!() };
        Ok(st.sids.len() <= 1)
    }

    /// Counted, optionally timed pull: the kind-specific work happens in
    /// [`OpKind::next`]; this wrapper maintains the operator's stats.
    fn next(&mut self, ex: &mut Executor<'_>) -> QueryResult<Option<Item>> {
        self.pulls += 1;
        let started = self.timed.then(Instant::now);
        let out = self.kind.next(ex);
        if let Some(t) = started {
            self.cum_ns += t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        }
        if matches!(out, Ok(Some(_))) {
            self.items += 1;
        }
        out
    }
}

impl OpKind {
    /// Operator name + detail for the profile tree.
    fn label(&self) -> (&'static str, String) {
        match self {
            OpKind::DocRoot { name, .. } => ("DocRoot", format!("doc('{name}')")),
            OpKind::Step { step, .. } => ("Step", step_label(step)),
            OpKind::StructuralScan { doc, steps, .. } => {
                let path: Vec<String> = steps.iter().map(step_label).collect();
                ("StructuralScan", format!("doc('{doc}')/{}", path.join("/")))
            }
            OpKind::Filter { .. } => ("Filter", "predicate".into()),
            OpKind::For { clauses, .. } => ("For", format!("{} clauses", clauses.len())),
            OpKind::Range { .. } => ("Range", String::new()),
            OpKind::Concat { parts, .. } => ("Concat", format!("{} parts", parts.len())),
            OpKind::Ddo { passthrough, .. } => (
                "Ddo",
                match passthrough {
                    Some(true) => "streamed".into(),
                    Some(false) => "sorted".into(),
                    None => String::new(),
                },
            ),
            OpKind::Materialize { .. } => ("Materialize", "full evaluation".into()),
        }
    }

    fn next(&mut self, ex: &mut Executor<'_>) -> QueryResult<Option<Item>> {
        match self {
            OpKind::DocRoot { name, done } => {
                if *done {
                    return Ok(None);
                }
                *done = true;
                let idx = ex
                    .db
                    .doc_idx(name)
                    .ok_or_else(|| QueryError::Dynamic(format!("no such document '{name}'")))?;
                let node = ex.db.docs[idx].doc.doc_node(ex.db.vas)?;
                Ok(Some(Item::Node(crate::value::NodeId::Stored {
                    doc: idx,
                    node,
                })))
            }
            OpKind::Step { input, step, buf } => loop {
                if let Some(item) = buf.pop_front() {
                    return Ok(Some(item));
                }
                let node = match input.next(ex)? {
                    None => return Ok(None),
                    Some(Item::Node(n)) => n,
                    Some(Item::Atom(_)) => {
                        return Err(QueryError::Dynamic(
                            "path step applied to an atomic value".into(),
                        ))
                    }
                };
                let mut batch = ex.axis_nodes(node, step.axis, &step.test)?;
                ex.stats.nodes_scanned += batch.len() as u64;
                for p in &step.predicates {
                    batch = ex.apply_predicate(batch, p)?;
                }
                buf.extend(batch);
            },
            OpKind::StructuralScan {
                doc,
                steps,
                state,
                buf,
            } => loop {
                if let Some(item) = buf.pop_front() {
                    return Ok(Some(item));
                }
                if state.is_none() {
                    let idx = ex
                        .db
                        .doc_idx(doc)
                        .ok_or_else(|| QueryError::Dynamic(format!("no such document '{doc}'")))?;
                    let sids = ex.structural_sids(idx, steps);
                    *state = Some(ScanState {
                        doc: idx,
                        sids,
                        next_sid: 0,
                        blk: XPtr::NULL,
                    });
                }
                let Some(st) = state else { unreachable!() };
                if st.blk.is_null() {
                    if st.next_sid >= st.sids.len() {
                        return Ok(None);
                    }
                    st.blk = ex.first_block(st.doc, st.sids[st.next_sid]);
                    st.next_sid += 1;
                } else {
                    // One page pinned, for the duration of this refill
                    // only.
                    let mut batch = Vec::new();
                    st.blk = ex.scan_block(st.doc, st.blk, &mut batch)?;
                    buf.extend(batch);
                }
            },
            OpKind::Filter {
                input,
                predicate,
                pos,
            } => loop {
                let item = match input.next(ex)? {
                    None => return Ok(None),
                    Some(i) => i,
                };
                *pos += 1;
                // Size is unknowable without draining; compile_op
                // guarantees the predicate never calls last().
                ex.ctx.push((item.clone(), *pos, 0));
                let v = ex.eval(predicate);
                ex.ctx.pop();
                let v = v?;
                let keep = match v.as_slice() {
                    [Item::Atom(Atom::Number(n))] => (*n == *pos as f64) && n.fract() == 0.0,
                    _ => ex.ebv(&v)?,
                };
                if keep {
                    return Ok(Some(item));
                }
            },
            OpKind::For {
                clauses,
                where_,
                ret,
                state,
                buf,
            } => loop {
                if let Some(item) = buf.pop_front() {
                    return Ok(Some(item));
                }
                let st = state.get_or_insert_with(|| ForState {
                    seqs: vec![Vec::new(); clauses.len()],
                    idx: vec![0; clauses.len()],
                    started: false,
                });
                if !st.next_binding(ex, clauses)? {
                    return Ok(None);
                }
                if let Some(w) = where_ {
                    let c = ex.eval(w)?;
                    if !ex.ebv(&c)? {
                        continue;
                    }
                }
                buf.extend(ex.eval(ret)?);
            },
            OpKind::Range { lo, hi, state } => {
                if let RangeState::Unopened = state {
                    let va = ex.eval(lo)?;
                    let vb = ex.eval(hi)?;
                    *state = if va.is_empty() || vb.is_empty() {
                        RangeState::Done
                    } else {
                        RangeState::Running(
                            ex.atomize_number(&va)? as i64,
                            ex.atomize_number(&vb)? as i64,
                        )
                    };
                }
                match state {
                    RangeState::Running(cur, end) if *cur <= *end => {
                        let n = *cur;
                        *cur += 1;
                        Ok(Some(Item::number(n as f64)))
                    }
                    _ => {
                        *state = RangeState::Done;
                        Ok(None)
                    }
                }
            }
            OpKind::Concat { parts, idx } => {
                while *idx < parts.len() {
                    if let Some(item) = parts[*idx].next(ex)? {
                        return Ok(Some(item));
                    }
                    *idx += 1;
                }
                Ok(None)
            }
            OpKind::Ddo {
                input,
                passthrough,
                buf,
            } => {
                if passthrough.is_none() {
                    *passthrough = Some(input.single_chain_scan(ex)?);
                }
                if *passthrough == Some(true) {
                    return input.next(ex);
                }
                if buf.is_none() {
                    let mut seq = Vec::new();
                    while let Some(item) = input.next(ex)? {
                        seq.push(item);
                    }
                    *buf = Some(ex.ddo(seq)?.into());
                }
                Ok(buf.as_mut().and_then(VecDeque::pop_front))
            }
            OpKind::Materialize { expr, buf } => {
                if buf.is_none() {
                    *buf = Some(ex.eval(expr)?.into());
                }
                Ok(buf.as_mut().and_then(VecDeque::pop_front))
            }
        }
    }
}

impl ForState {
    /// Binds the clause variables to the next complete binding
    /// combination, returning false when the odometer is exhausted.
    /// Binding sequences are materialized per clause level (they carry
    /// node identities, not page pins) and re-evaluated whenever an
    /// outer clause advances, so inner clauses may reference outer
    /// variables.
    fn next_binding(
        &mut self,
        ex: &mut Executor<'_>,
        clauses: &[FlworClause],
    ) -> QueryResult<bool> {
        let n = clauses.len();
        // Down(i): (re-)open clause i; Up(i): backtrack into clause i-1.
        enum Dir {
            Down(usize),
            Up(usize),
        }
        let mut dir = if self.started {
            Dir::Up(n)
        } else {
            self.started = true;
            Dir::Down(0)
        };
        loop {
            match dir {
                Dir::Down(i) if i == n => return Ok(true),
                Dir::Down(i) => match &clauses[i] {
                    FlworClause::Let { slot, expr, .. } => {
                        let v = ex.eval(expr)?;
                        ex.slots[*slot] = Some(v);
                        dir = Dir::Down(i + 1);
                    }
                    FlworClause::For { expr, .. } => {
                        self.seqs[i] = ex.eval(expr)?;
                        self.idx[i] = 0;
                        if self.seqs[i].is_empty() {
                            dir = Dir::Up(i);
                        } else {
                            self.bind(ex, i, clauses);
                            dir = Dir::Down(i + 1);
                        }
                    }
                },
                Dir::Up(0) => return Ok(false),
                Dir::Up(i) => {
                    let k = i - 1;
                    match &clauses[k] {
                        FlworClause::Let { .. } => dir = Dir::Up(k),
                        FlworClause::For { .. } => {
                            self.idx[k] += 1;
                            if self.idx[k] < self.seqs[k].len() {
                                self.bind(ex, k, clauses);
                                dir = Dir::Down(k + 1);
                            } else {
                                dir = Dir::Up(k);
                            }
                        }
                    }
                }
            }
        }
    }

    fn bind(&self, ex: &mut Executor<'_>, i: usize, clauses: &[FlworClause]) {
        if let FlworClause::For { slot, at, .. } = &clauses[i] {
            ex.slots[*slot] = Some(vec![self.seqs[i][self.idx[i]].clone()]);
            if let Some((_, pslot)) = at {
                ex.slots[*pslot] = Some(vec![Item::number((self.idx[i] + 1) as f64)]);
            }
        }
    }
}

/// Whether any subexpression calls `last()` (by name; resolution does
/// not matter — a user function cannot shadow builtins here).
fn contains_last(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |x| found |= matches!(x, Expr::FnCall { name, .. } if name == "last"));
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Axis, FnResolution, NodeTest};

    fn doc_path(doc: &str, names: &[&str]) -> Expr {
        Expr::Path {
            start: PathStart::Doc(doc.into()),
            steps: names
                .iter()
                .map(|n| {
                    Step::plain(
                        Axis::Child,
                        NodeTest::Name(sedna_schema::SchemaName::local(*n)),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn path_compiles_to_streaming_step_chain() {
        let plan = Plan::compile(&doc_path("lib", &["a", "b", "c"]));
        assert!(plan.is_streaming());
        // DocRoot + three steps.
        assert_eq!(plan.depth(), 4);
    }

    #[test]
    fn last_predicate_forces_materialization() {
        let last = Expr::FnCall {
            name: "last".into(),
            args: vec![],
            resolved: FnResolution::Unresolved,
        };
        let filtered = Expr::Filter {
            input: doc_path("lib", &["a"]).boxed(),
            predicates: vec![last],
        };
        let plan = Plan::compile(&filtered);
        assert!(!plan.is_streaming());
        assert_eq!(plan.depth(), 1);
    }

    #[test]
    fn last_free_filter_streams() {
        let filtered = Expr::Filter {
            input: doc_path("lib", &["a"]).boxed(),
            predicates: vec![Expr::Literal(Atom::Number(2.0))],
        };
        let plan = Plan::compile(&filtered);
        assert!(plan.is_streaming());
        assert_eq!(plan.depth(), 3);
    }

    #[test]
    fn ddo_blocks_but_its_input_streams() {
        let plan = Plan::compile(&Expr::Ddo(doc_path("lib", &["a"]).boxed()));
        assert!(plan.is_streaming());
        assert_eq!(plan.depth(), 3);
    }

    #[test]
    fn order_by_flwor_materializes() {
        let flwor = Expr::Flwor {
            clauses: vec![FlworClause::For {
                var: "x".into(),
                slot: 0,
                at: None,
                expr: doc_path("lib", &["a"]),
            }],
            where_: None,
            order: vec![crate::ast::OrderSpec {
                key: Expr::ContextItem,
                descending: false,
            }],
            ret: Expr::ContextItem.boxed(),
        };
        assert!(!Plan::compile(&flwor).is_streaming());
        let unordered = Expr::Flwor {
            clauses: vec![FlworClause::For {
                var: "x".into(),
                slot: 0,
                at: None,
                expr: doc_path("lib", &["a"]),
            }],
            where_: None,
            order: vec![],
            ret: Expr::ContextItem.boxed(),
        };
        assert!(Plan::compile(&unordered).is_streaming());
    }

    #[test]
    fn profile_mirrors_the_operator_tree() {
        let plan = Plan::compile(&Expr::Ddo(doc_path("lib", &["a", "b"]).boxed()));
        let p = plan.profile();
        assert_eq!(p.name, "Ddo");
        assert_eq!(p.children.len(), 1);
        let step_b = &p.children[0];
        assert_eq!(step_b.name, "Step");
        assert_eq!(step_b.detail, "child::b");
        let step_a = &step_b.children[0];
        assert_eq!(step_a.detail, "child::a");
        let root = &step_a.children[0];
        assert_eq!(root.name, "DocRoot");
        assert_eq!(root.detail, "doc('lib')");
        assert!(root.children.is_empty());
        // Fresh plan: all counters zero, rendering still well-formed.
        assert_eq!((p.pulls, p.items, p.cum_ns, p.self_ns), (0, 0, 0, 0));
        let text = p.render();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("Ddo  (pulls=0 items=0"));
        assert!(text.contains("\n      DocRoot doc('lib')  (pulls=0"));
    }

    #[test]
    fn estimates_annotate_the_tree_and_render() {
        let mut plan = Plan::compile(&Expr::Ddo(doc_path("lib", &["a", "b"]).boxed()));
        plan.annotate_estimates(&|doc: &str, steps: &[Step]| {
            assert_eq!(doc, "lib");
            Some(10u64.pow(steps.len() as u32))
        });
        let p = plan.profile();
        // Ddo passes its input's estimate through; each Step got the
        // oracle's answer for its own prefix length.
        assert_eq!(p.est, Some(100));
        assert_eq!(p.children[0].est, Some(100));
        assert_eq!(p.children[0].children[0].est, Some(10));
        assert_eq!(p.children[0].children[0].children[0].est, Some(1));
        let text = p.render();
        assert!(text.contains("est=100 act=0)"), "{text}");
        // An unannotated plan renders exactly as before.
        let plain = Plan::compile(&doc_path("lib", &["a"])).profile().render();
        assert!(!plain.contains("est="), "{plain}");
    }

    #[test]
    fn duration_rendering_scales_units() {
        assert_eq!(fmt_ns(640), "640ns");
        assert_eq!(fmt_ns(12_500), "12.5us");
        assert_eq!(fmt_ns(3_100_000), "3.1ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }
}
