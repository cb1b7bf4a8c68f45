//! The cost-based planner, fed by the descriptive-schema statistics.
//!
//! The rule-based rewriter ([`crate::rewrite`]) implements the paper's
//! §5.1 optimizations, but it is blind to data volume: it always picks
//! the structural scan, and a B-tree index is only used when the query
//! spells out `index-scan(...)` by hand. This module adds the missing
//! half: after the rewriter runs, [`plan_statement`] walks the
//! statement once more and uses the statistics maintained on every
//! [`sedna_schema::SchemaNode`] (descriptor count, block count, fan-out
//! histogram — see [`crate::cost`]) to
//!
//! 1. **choose the access path** for equality-filtered paths: when the
//!    path prefix matches a declared index's `on` path and the
//!    predicate compares the index's `by` path against a literal, the
//!    planner compares the *exact* structural-scan cost against the
//!    estimated B-tree probe cost and, when the index wins, rewrites
//!    the path into the `index-scan` builtin (which the executor, the
//!    lock manager and the trace layer already understand);
//! 2. **reorder conjunctive predicates** — filter/step predicate lists
//!    and `where`-clause `and`-chains — most-selective-first, whenever
//!    no predicate can observe context position or size;
//! 3. **classify** the statement's dominant access path (structural
//!    scan / index / descendant expansion) and estimate its result
//!    cardinality, which the session layer exposes as metrics and as
//!    `est=…` annotations in `EXPLAIN ANALYZE`.
//!
//! There is one client shape — every query is a cursor — so a plan is a
//! function of the statement, the catalog and the statistics alone.

use std::collections::HashMap;

use sedna_schema::SchemaTree;

use crate::ast::{
    Axis, CmpOp, Expr, FlworClause, FnResolution, IndexKeyType, PathStart, Statement,
    StatementKind, Step, UpdateStmt,
};
use crate::cost;
use crate::functions;
use crate::rewrite::may_depend_on_position;
use crate::value::Atom;

/// One declared index, as the planner sees it.
#[derive(Debug, Clone)]
pub struct IndexSpec {
    /// Index name (the first argument of the injected `index-scan`).
    pub name: String,
    /// Document the index covers.
    pub doc: String,
    /// Path from the document root to the indexed nodes.
    pub on: Vec<Step>,
    /// Relative path from an indexed node to its key value.
    pub by: Vec<Step>,
    /// Key type; a literal of the other type never matches this index.
    pub key_type: IndexKeyType,
}

/// The access path the planner chose for a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessPath {
    /// Structural scan of schema-node block lists (§5.1.4).
    #[default]
    Scan,
    /// At least one path was routed through a B-tree index.
    Index,
    /// Descendant-axis expansion over the descriptive schema.
    Descendant,
}

/// What the planner decided for one statement (exposed as metrics, in
/// `EXPLAIN ANALYZE`, and asserted by the ablation benchmark).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanDecision {
    /// Dominant access path of the statement body.
    pub access_path: AccessPath,
    /// Paths rewritten into `index-scan` calls.
    pub index_rewrites: u64,
    /// Predicate lists / `and`-chains reordered by selectivity.
    pub predicates_reordered: u64,
    /// Estimated result cardinality of a query body (`None` when the
    /// body is not estimable from the schema statistics).
    pub estimated_rows: Option<u64>,
    /// Structural-scan cost of the last index candidate considered.
    pub scan_cost: Option<f64>,
    /// Index-access cost of the last index candidate considered.
    pub index_cost: Option<f64>,
}

/// Everything the planner needs from the database: per-document schema
/// trees (which carry the statistics) and the declared indexes.
#[derive(Debug, Default)]
pub struct PlannerInput<'a> {
    /// Document name → its descriptive schema.
    pub docs: HashMap<String, &'a SchemaTree>,
    /// Declared value indexes.
    pub indexes: Vec<IndexSpec>,
}

/// Runs the cost-based planning pass over a rewritten statement,
/// mutating it in place and returning what was decided.
pub fn plan_statement(stmt: &mut Statement, input: &PlannerInput<'_>) -> PlanDecision {
    let mut p = Planner {
        input,
        decision: PlanDecision::default(),
    };
    for v in &mut stmt.vars {
        p.plan_expr(&mut v.init);
    }
    for f in &mut stmt.functions {
        p.plan_expr(&mut f.body);
    }
    match &mut stmt.kind {
        StatementKind::Query(e) => {
            p.plan_expr(e);
            p.decision.estimated_rows = estimate_expr(e, input);
            p.decision.access_path = classify(e, p.decision.index_rewrites);
        }
        StatementKind::Update(u) => {
            match u {
                UpdateStmt::Insert { what, target, .. } => {
                    p.plan_expr(what);
                    p.plan_expr(target);
                }
                UpdateStmt::Delete { target } => p.plan_expr(target),
                UpdateStmt::ReplaceValue { target, with } => {
                    p.plan_expr(target);
                    p.plan_expr(with);
                }
            }
            let target = match u {
                UpdateStmt::Insert { target, .. }
                | UpdateStmt::Delete { target }
                | UpdateStmt::ReplaceValue { target, .. } => target,
            };
            p.decision.access_path = classify(target, p.decision.index_rewrites);
        }
        StatementKind::Ddl(_) => {}
    }
    p.decision
}

/// Estimated result cardinality of an expression, bottoming out in the
/// exact per-schema-node counters for descending paths. `None` means
/// "not estimable" — never a guess.
pub fn estimate_expr(e: &Expr, input: &PlannerInput<'_>) -> Option<u64> {
    match e {
        Expr::Ddo(inner) => estimate_expr(inner, input),
        Expr::Cached { expr, .. } => estimate_expr(expr, input),
        Expr::StructuralPath { doc, steps } => {
            let tree = input.docs.get(doc.as_str())?;
            cost::estimate_path_cardinality(tree, steps)
        }
        Expr::Path {
            start: PathStart::Doc(doc),
            steps,
        } => {
            let tree = input.docs.get(doc.as_str())?;
            cost::estimate_path_cardinality(tree, steps)
        }
        Expr::Filter {
            input: inner,
            predicates,
        } => {
            let base = estimate_expr(inner, input)?;
            let scaled = predicates
                .iter()
                .fold(base as f64, |acc, p| acc * cost::predicate_selectivity(p));
            Some(if base == 0 {
                0
            } else {
                (scaled.round() as u64).max(1)
            })
        }
        Expr::Sequence(items) => items
            .iter()
            .map(|i| estimate_expr(i, input))
            .sum::<Option<u64>>(),
        Expr::FnCall { name, args, .. } if name == "index-scan" => {
            let Some(Expr::Literal(Atom::String(iname))) = args.first() else {
                return None;
            };
            let spec = input.indexes.iter().find(|s| &s.name == iname)?;
            let tree = input.docs.get(spec.doc.as_str())?;
            let stats = cost::path_stats(tree, &spec.on)?;
            Some(cost::index_match_estimate(stats.nodes))
        }
        Expr::Literal(_) => Some(1),
        Expr::Empty => Some(0),
        _ => None,
    }
}

/// The statement's dominant access path: an index rewrite trumps
/// everything, then any descendant-axis step, then the structural scan.
fn classify(e: &Expr, index_rewrites: u64) -> AccessPath {
    if index_rewrites > 0 {
        return AccessPath::Index;
    }
    let mut descendant = false;
    e.visit(&mut |x| {
        let steps = match x {
            Expr::StructuralPath { steps, .. } => steps,
            Expr::Path { steps, .. } => steps,
            _ => return,
        };
        if steps
            .iter()
            .any(|s| matches!(s.axis, Axis::Descendant | Axis::DescendantOrSelf))
        {
            descendant = true;
        }
    });
    if descendant {
        AccessPath::Descendant
    } else {
        AccessPath::Scan
    }
}

struct Planner<'a, 'b> {
    input: &'b PlannerInput<'a>,
    decision: PlanDecision,
}

impl Planner<'_, '_> {
    /// Plans an expression bottom-up: children first, then predicate
    /// reordering, then the index rewrite attempt at this node.
    fn plan_expr(&mut self, e: &mut Expr) {
        match e {
            Expr::Sequence(items) => {
                for i in items {
                    self.plan_expr(i);
                }
            }
            Expr::Flwor {
                clauses,
                where_,
                order,
                ret,
            } => {
                for c in clauses {
                    match c {
                        FlworClause::For { expr, .. } | FlworClause::Let { expr, .. } => {
                            self.plan_expr(expr)
                        }
                    }
                }
                if let Some(w) = where_ {
                    self.plan_expr(w);
                    self.reorder_and_chain(w);
                }
                for o in order {
                    self.plan_expr(&mut o.key);
                }
                self.plan_expr(ret);
            }
            Expr::Quantified {
                within, satisfies, ..
            } => {
                self.plan_expr(within);
                self.plan_expr(satisfies);
            }
            Expr::If { cond, then, els } => {
                self.plan_expr(cond);
                self.plan_expr(then);
                self.plan_expr(els);
            }
            Expr::Or(a, b)
            | Expr::And(a, b)
            | Expr::GeneralCmp(_, a, b)
            | Expr::ValueCmp(_, a, b)
            | Expr::Arith(_, a, b)
            | Expr::Range(a, b)
            | Expr::Union(a, b)
            | Expr::Intersect(a, b)
            | Expr::Except(a, b) => {
                self.plan_expr(a);
                self.plan_expr(b);
            }
            Expr::Neg(a) | Expr::Ddo(a) | Expr::TextCtor(a) => self.plan_expr(a),
            Expr::Cached { expr, .. } => self.plan_expr(expr),
            Expr::Filter { input, predicates } => {
                self.plan_expr(input);
                for p in predicates.iter_mut() {
                    self.plan_expr(p);
                }
                self.reorder_predicates(predicates);
            }
            Expr::Path { start, steps } => {
                if let PathStart::Expr(inner) = start {
                    self.plan_expr(inner);
                }
                for s in steps.iter_mut() {
                    for p in &mut s.predicates {
                        self.plan_expr(p);
                    }
                    self.reorder_predicates(&mut s.predicates);
                }
            }
            Expr::FnCall { args, .. } => {
                for a in args {
                    self.plan_expr(a);
                }
            }
            Expr::ElementCtor {
                attrs, children, ..
            } => {
                for (_, parts) in attrs {
                    for p in parts {
                        self.plan_expr(p);
                    }
                }
                for c in children {
                    self.plan_expr(c);
                }
            }
            _ => {}
        }
        self.try_index_rewrite(e);
    }

    /// Reorders a conjunctive predicate list most-selective-first. Only
    /// legal when no predicate can observe context position or size —
    /// then the list is a pure conjunction and order affects cost only.
    fn reorder_predicates(&mut self, preds: &mut Vec<Expr>) {
        if preds.len() < 2 || preds.iter().any(may_depend_on_position) {
            return;
        }
        let sel: Vec<f64> = preds.iter().map(cost::predicate_selectivity).collect();
        if sel.windows(2).all(|w| w[0] <= w[1]) {
            return;
        }
        let mut order: Vec<usize> = (0..preds.len()).collect();
        // Stable: equal selectivities keep their written order.
        order.sort_by(|&a, &b| sel[a].total_cmp(&sel[b]));
        let mut drained: Vec<Option<Expr>> = preds.drain(..).map(Some).collect();
        preds.extend(
            order
                .into_iter()
                .map(|i| drained[i].take().expect("unique index")),
        );
        self.decision.predicates_reordered += 1;
    }

    /// Reorders a `where`-clause `and`-chain most-selective-first (the
    /// FLWOR counterpart of predicate reordering). `and` operands are
    /// effective-boolean-valued, so the conjunction is order-free.
    fn reorder_and_chain(&mut self, e: &mut Expr) {
        if !matches!(e, Expr::And(..)) {
            return;
        }
        fn flatten(e: Expr, out: &mut Vec<Expr>) {
            if let Expr::And(a, b) = e {
                flatten(*a, out);
                flatten(*b, out);
            } else {
                out.push(e);
            }
        }
        let mut parts = Vec::new();
        flatten(std::mem::replace(e, Expr::Empty), &mut parts);
        let sel: Vec<f64> = parts.iter().map(cost::predicate_selectivity).collect();
        if !sel.windows(2).all(|w| w[0] <= w[1]) {
            let mut order: Vec<usize> = (0..parts.len()).collect();
            order.sort_by(|&a, &b| sel[a].total_cmp(&sel[b]));
            let mut drained: Vec<Option<Expr>> = parts.drain(..).map(Some).collect();
            parts.extend(
                order
                    .into_iter()
                    .map(|i| drained[i].take().expect("unique index")),
            );
            self.decision.predicates_reordered += 1;
        }
        let mut it = parts.into_iter();
        let mut acc = it.next().expect("and-chain has >= 2 parts");
        for part in it {
            acc = Expr::And(acc.boxed(), part.boxed());
        }
        *e = acc;
    }

    /// Rewrites `doc('d')/on-path[by-path = literal]/rest` into
    /// `ddo(index-scan('name', literal)/rest)` when a matching index
    /// exists **and** the statistics say the B-tree probe is cheaper
    /// than scanning the path's block lists.
    fn try_index_rewrite(&mut self, e: &mut Expr) {
        let Expr::Path { start, steps } = e else {
            return;
        };
        let PathStart::Doc(doc) = start else {
            return;
        };
        let Some((k, spec_idx, key)) = self.find_index_candidate(doc, steps) else {
            return;
        };
        let spec = &self.input.indexes[spec_idx];
        let resolved = match functions::lookup("index-scan", 2) {
            Some(idx) => FnResolution::Builtin(idx),
            // The builtin table always has index-scan; stay safe anyway.
            None => return,
        };
        let call = Expr::FnCall {
            name: "index-scan".into(),
            args: vec![
                Expr::Literal(Atom::String(spec.name.clone())),
                Expr::Literal(key),
            ],
            resolved,
        };
        let rest: Vec<Step> = steps[k + 1..].to_vec();
        let inner = if rest.is_empty() {
            call
        } else {
            Expr::Path {
                start: PathStart::Expr(call.boxed()),
                steps: rest,
            }
        };
        // Index output is in key order; restore document order.
        *e = Expr::Ddo(inner.boxed());
        self.decision.index_rewrites += 1;
    }

    /// Finds the first (step index, index spec, key literal) triple
    /// where an index applies and wins the cost comparison. The costs of
    /// the comparison are recorded in the decision either way.
    fn find_index_candidate(&mut self, doc: &str, steps: &[Step]) -> Option<(usize, usize, Atom)> {
        let tree = *self.input.docs.get(doc)?;
        for k in 0..steps.len() {
            // The prefix must be bare except for exactly one predicate
            // on its last step — the one the index can answer.
            if steps[k].predicates.len() != 1 || steps[..k].iter().any(|s| !s.predicates.is_empty())
            {
                continue;
            }
            for (spec_idx, spec) in self.input.indexes.iter().enumerate() {
                if spec.doc != doc || !steps_match(&steps[..=k], &spec.on) {
                    continue;
                }
                let Some(key) = equality_key(&steps[k].predicates[0], &spec.by, &spec.key_type)
                else {
                    continue;
                };
                // Cost the two paths. The scan side is exact: the very
                // blocks and descriptors the structural scan would touch.
                let stats = match cost::path_stats(tree, &spec.on) {
                    Some(s) => s,
                    None => continue,
                };
                let scan = cost::scan_cost(&stats);
                // One key entry per indexed node (upper bound).
                let index = cost::index_cost(stats.nodes);
                self.decision.scan_cost = Some(scan);
                self.decision.index_cost = Some(index);
                if index < scan {
                    return Some((k, spec_idx, key));
                }
            }
        }
        None
    }
}

/// Axis/test equality between a query path prefix and an index's `on`
/// path (predicates already checked by the caller).
fn steps_match(query: &[Step], on: &[Step]) -> bool {
    query.len() == on.len()
        && query
            .iter()
            .zip(on)
            .all(|(a, b)| a.axis == b.axis && a.test == b.test)
}

/// Unwraps planner-transparent wrappers.
fn strip_wrappers(e: &Expr) -> &Expr {
    match e {
        Expr::Ddo(inner) => strip_wrappers(inner),
        Expr::Cached { expr, .. } => strip_wrappers(expr),
        other => other,
    }
}

/// If `pred` is `by-path = literal` (either side order) with the
/// literal's type matching the index key type, returns the key literal.
fn equality_key(pred: &Expr, by: &[Step], key_type: &IndexKeyType) -> Option<Atom> {
    let (Expr::GeneralCmp(CmpOp::Eq, a, b) | Expr::ValueCmp(CmpOp::Eq, a, b)) = pred else {
        return None;
    };
    let extract = |path_side: &Expr, lit_side: &Expr| -> Option<Atom> {
        let Expr::Path {
            start: PathStart::Context,
            steps,
        } = strip_wrappers(path_side)
        else {
            return None;
        };
        if steps.iter().any(|s| !s.predicates.is_empty()) || !steps_match(steps, by) {
            return None;
        }
        let Expr::Literal(atom) = strip_wrappers(lit_side) else {
            return None;
        };
        let type_ok = matches!(
            (atom, key_type),
            (Atom::String(_), IndexKeyType::String) | (Atom::Number(_), IndexKeyType::Number)
        );
        type_ok.then(|| atom.clone())
    };
    extract(a, b).or_else(|| extract(b, a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::NodeTest;
    use crate::parser::parse_statement;
    use crate::rewrite::rewrite_statement;
    use crate::static_ctx::analyze;
    use sedna_schema::{NodeKind, SchemaName};

    /// Schema: r → hot (3 nodes, 1 block), r → cold (`cold` nodes).
    fn tree(cold: u64) -> SchemaTree {
        let mut t = SchemaTree::new();
        let r = t
            .get_or_add_child(
                SchemaTree::ROOT,
                NodeKind::Element,
                Some(SchemaName::local("r")),
            )
            .0;
        let h = t
            .get_or_add_child(r, NodeKind::Element, Some(SchemaName::local("hot")))
            .0;
        let c = t
            .get_or_add_child(r, NodeKind::Element, Some(SchemaName::local("cold")))
            .0;
        t.node_mut(r).node_count = 1;
        t.node_mut(r).block_count = 1;
        t.node_mut(h).node_count = 3;
        t.node_mut(h).block_count = 1;
        t.node_mut(c).node_count = cold;
        t.node_mut(c).block_count = (cold / 100).max(1) as u32;
        t
    }

    fn child(name: &str) -> Step {
        Step::plain(Axis::Child, NodeTest::Name(SchemaName::local(name)))
    }

    fn spec(name: &str, leaf: &str) -> IndexSpec {
        IndexSpec {
            name: name.into(),
            doc: "d".into(),
            on: vec![child("r"), child(leaf)],
            by: vec![child("k")],
            key_type: IndexKeyType::String,
        }
    }

    fn input(tree: &SchemaTree) -> PlannerInput<'_> {
        PlannerInput {
            docs: HashMap::from([("d".to_string(), tree)]),
            indexes: vec![spec("ixc", "cold"), spec("ixh", "hot")],
        }
    }

    fn planned(q: &str, input: &PlannerInput<'_>) -> (Statement, PlanDecision) {
        let mut stmt = rewrite_statement(analyze(parse_statement(q).unwrap()).unwrap());
        let d = plan_statement(&mut stmt, input);
        (stmt, d)
    }

    fn query_expr(stmt: &Statement) -> &Expr {
        match &stmt.kind {
            StatementKind::Query(e) => e,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cold_equality_path_routes_through_the_index() {
        let t = tree(10_000);
        let (stmt, d) = planned("doc('d')/r/cold[k = 'x']", &input(&t));
        assert_eq!(d.index_rewrites, 1, "{d:?}");
        assert_eq!(d.access_path, AccessPath::Index);
        assert!(d.index_cost.unwrap() < d.scan_cost.unwrap());
        match query_expr(&stmt) {
            Expr::Ddo(inner) => match inner.as_ref() {
                Expr::FnCall { name, args, .. } => {
                    assert_eq!(name, "index-scan");
                    assert_eq!(args[0], Expr::Literal(Atom::String("ixc".into())));
                    assert_eq!(args[1], Expr::Literal(Atom::String("x".into())));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hot_equality_path_keeps_the_scan() {
        let t = tree(10_000);
        let (stmt, d) = planned("doc('d')/r/hot[k = 'x']", &input(&t));
        assert_eq!(d.index_rewrites, 0, "{d:?}");
        assert_eq!(d.access_path, AccessPath::Scan);
        assert!(d.scan_cost.unwrap() < d.index_cost.unwrap());
        assert!(!format!("{:?}", query_expr(&stmt)).contains("index-scan"));
    }

    #[test]
    fn trailing_steps_survive_the_rewrite() {
        let t = tree(10_000);
        let (stmt, d) = planned("doc('d')/r/cold[k = 'x']/t", &input(&t));
        assert_eq!(d.index_rewrites, 1);
        match query_expr(&stmt) {
            Expr::Ddo(inner) => match inner.as_ref() {
                Expr::Path {
                    start: PathStart::Expr(call),
                    steps,
                } => {
                    assert!(
                        matches!(call.as_ref(), Expr::FnCall { name, .. } if name == "index-scan")
                    );
                    assert_eq!(steps.len(), 1);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reversed_comparison_and_number_keys_match_types() {
        let t = tree(10_000);
        // Literal on the left works too.
        let (_, d) = planned("doc('d')/r/cold['x' = k]", &input(&t));
        assert_eq!(d.index_rewrites, 1, "{d:?}");
        // A number literal does not match a String-keyed index.
        let (_, d) = planned("doc('d')/r/cold[k = 7]", &input(&t));
        assert_eq!(d.index_rewrites, 0, "{d:?}");
    }

    #[test]
    fn safe_predicates_reorder_most_selective_first() {
        let t = tree(10_000);
        let (stmt, d) = planned("doc('d')/r/cold[t][k = 'x']", &input(&t));
        assert_eq!(d.predicates_reordered, 1, "{d:?}");
        // Two predicates on the step: no index rewrite, but eq now first.
        assert_eq!(d.index_rewrites, 0);
        let mut saw = false;
        query_expr(&stmt).visit(&mut |e| {
            let steps = match e {
                Expr::Path { steps, .. } => steps,
                _ => return,
            };
            if let Some(s) = steps.iter().find(|s| s.predicates.len() == 2) {
                assert!(matches!(s.predicates[0], Expr::GeneralCmp(CmpOp::Eq, ..)));
                saw = true;
            }
        });
        assert!(saw, "expected a two-predicate step: {stmt:?}");
    }

    #[test]
    fn positional_predicates_are_never_reordered() {
        let t = tree(10_000);
        let (_, d) = planned("doc('d')/r/cold[2][k = 'x']", &input(&t));
        assert_eq!(d.predicates_reordered, 0, "{d:?}");
    }

    #[test]
    fn where_clause_and_chain_reorders() {
        let t = tree(10_000);
        let q = "for $x in doc('d')/r/hot where $x/t < 3 and $x/k = 'a' return $x";
        let (stmt, d) = planned(q, &input(&t));
        assert_eq!(d.predicates_reordered, 1, "{d:?}");
        let mut ok = false;
        query_expr(&stmt).visit(&mut |e| {
            if let Expr::And(a, _) = e {
                // The equality moved to the front of the chain.
                if matches!(strip_wrappers(a), Expr::GeneralCmp(CmpOp::Eq, ..)) {
                    ok = true;
                }
            }
        });
        assert!(ok, "{stmt:?}");
    }

    #[test]
    fn descendant_paths_classify_as_descendant() {
        let t = tree(10);
        let (_, d) = planned("doc('d')//cold", &input(&t));
        assert_eq!(d.access_path, AccessPath::Descendant);
    }

    #[test]
    fn estimates_come_from_the_exact_counters() {
        let t = tree(10_000);
        let inp = input(&t);
        let (_, d) = planned("doc('d')/r/cold", &inp);
        assert_eq!(d.estimated_rows, Some(10_000));
        // Equality predicate scales by SEL_EQ — here via the index path.
        let (_, d) = planned("doc('d')/r/hot[k = 'x']", &inp);
        assert_eq!(
            d.estimated_rows,
            Some((3.0f64 * cost::SEL_EQ).round().max(1.0) as u64)
        );
    }
}
