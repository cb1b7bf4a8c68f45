//! The planner's cost model, fed by the descriptive-schema statistics.
//!
//! Sedna's descriptive schema (§4.1) is small enough to keep entirely in
//! main memory, and after this PR each [`sedna_schema::SchemaNode`]
//! carries incrementally maintained statistics: descriptor count, block
//! count, total text length and a child fan-out histogram. That makes
//! per-path-step cardinality estimation *exact* for predicate-free
//! descending paths — the schema nodes a path matches are computed by
//! [`sedna_schema::path::eval_structural_path`] and their counters are
//! simply summed — and cheap: estimation never touches a data page.
//!
//! Costs are unitless "work units" normalized so that visiting one node
//! descriptor in an already-resident block costs [`NODE_VISIT`]. The
//! constants are deliberately coarse (they only need to rank access
//! paths, not predict wall time) and are documented in
//! `docs/planner.md` together with the decision table they induce.

use sedna_schema::{PathStep, SchemaAxis, SchemaTest, SchemaTree};

use crate::ast::{Axis, CmpOp, Expr, NodeTest, Step};
use crate::value::Atom;

/// Cost of touching one data block of a block list (dominated by the
/// buffer-pool lookup and, in the cold case, the read).
pub const BLOCK_READ: f64 = 8.0;
/// Cost of visiting one node descriptor inside a resident block.
pub const NODE_VISIT: f64 = 1.0;
/// Cost of one B-tree probe level (key comparisons + page hop).
pub const BTREE_LEVEL: f64 = 32.0;
/// Cost of dereferencing one index match (indirection-table hop plus the
/// descriptor visit).
pub const INDEX_DEREF: f64 = 4.0;

/// Estimated selectivity of an equality predicate (`[k = 'x']`).
pub const SEL_EQ: f64 = 0.05;
/// Estimated selectivity of a non-equality comparison (`[k < 10]`).
pub const SEL_CMP: f64 = 0.3;
/// Estimated selectivity of an existence test or any opaque predicate.
pub const SEL_OTHER: f64 = 0.5;

/// Aggregate statistics of the schema nodes a structural path matches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathStats {
    /// Schema nodes matched by the path.
    pub sids: usize,
    /// Total node descriptors in their block lists (exact).
    pub nodes: u64,
    /// Total data blocks in their block lists (exact).
    pub blocks: u64,
}

/// Maps an AST step onto its schema-level counterpart, or `None` when
/// the axis is not a descending one (the descriptive schema can only
/// answer descending paths). Predicates are ignored here: the caller
/// estimates the bare path and applies selectivities on top.
pub fn schema_step(step: &Step) -> Option<PathStep> {
    let axis = match step.axis {
        Axis::Child => SchemaAxis::Child,
        Axis::Descendant => SchemaAxis::Descendant,
        Axis::DescendantOrSelf => SchemaAxis::DescendantOrSelf,
        Axis::Attribute => SchemaAxis::Attribute,
        _ => return None,
    };
    let test = match &step.test {
        NodeTest::Name(n) => SchemaTest::Name(n.clone()),
        NodeTest::Wildcard => SchemaTest::AnyName,
        NodeTest::Text => SchemaTest::Text,
        NodeTest::Comment => SchemaTest::Comment,
        NodeTest::Pi(_) => SchemaTest::Pi,
        NodeTest::AnyKind => SchemaTest::AnyKind,
    };
    Some(PathStep { axis, test })
}

/// Resolves a descending path against the schema and sums the matched
/// nodes' statistics. `None` when any step uses a non-descending axis.
pub fn path_stats(tree: &SchemaTree, steps: &[Step]) -> Option<PathStats> {
    let schema_steps: Option<Vec<PathStep>> = steps.iter().map(schema_step).collect();
    let sids = sedna_schema::path::eval_structural_path(tree, &schema_steps?);
    let mut out = PathStats {
        sids: sids.len(),
        ..PathStats::default()
    };
    for sid in sids {
        let n = tree.node(sid);
        out.nodes += n.node_count;
        out.blocks += n.block_count as u64;
    }
    Some(out)
}

/// Estimated selectivity of one predicate expression: the fraction of
/// candidate nodes expected to survive it. Equality is the sharpest
/// filter, ordered comparisons pass more, and anything opaque (existence
/// tests, nested paths, function calls) gets the conservative half.
pub fn predicate_selectivity(p: &Expr) -> f64 {
    match p {
        // A bare numeric literal is a positional test: on a child or
        // attribute step cardinality estimates cap it at one item per
        // parent instead (see `estimate_path_cardinality`); this rank
        // only orders predicates, and a positional one is never
        // reordered.
        Expr::Literal(Atom::Number(_)) => SEL_EQ,
        Expr::GeneralCmp(op, ..) | Expr::ValueCmp(op, ..) => match op {
            CmpOp::Eq => SEL_EQ,
            _ => SEL_CMP,
        },
        _ => SEL_OTHER,
    }
}

/// Whether predicate `p` is a positional test (`[3]`): it keeps at most
/// one item of each sequence it filters.
fn is_positional(p: &Expr) -> bool {
    matches!(p, Expr::Literal(Atom::Number(_)))
}

/// Estimated items left of `est` candidates by filter predicate `p`: at
/// most one for a positional test, else `est` scaled by the predicate's
/// selectivity.
pub fn filter_estimate(est: f64, p: &Expr) -> f64 {
    if is_positional(p) {
        est.min(1.0)
    } else {
        est * predicate_selectivity(p)
    }
}

/// Estimated result cardinality of a descending path *with* its step
/// predicates: the exact bare-path count scaled by each predicate's
/// selectivity, floored at 1 when the bare path is non-empty. A
/// positional predicate on a child or attribute step keeps one node per
/// parent, so it caps its step at the parents owning a node there.
pub fn estimate_path_cardinality(tree: &SchemaTree, steps: &[Step]) -> Option<u64> {
    let schema_steps: Vec<PathStep> = steps.iter().map(schema_step).collect::<Option<_>>()?;
    // The fraction of each step's nodes expected to survive the
    // predicates up to it.
    let mut frac = 1.0;
    for (i, step) in steps.iter().enumerate() {
        let per_parent = matches!(step.axis, Axis::Child | Axis::Attribute)
            && step.predicates.iter().any(is_positional);
        let cap = per_parent.then(|| frac * parent_share(tree, &schema_steps[..=i]));
        for p in &step.predicates {
            match cap {
                Some(cap) if is_positional(p) => frac = f64::min(frac, cap),
                _ => frac *= predicate_selectivity(p),
            }
        }
    }
    let nodes: u64 = sedna_schema::path::eval_structural_path(tree, &schema_steps)
        .into_iter()
        .map(|sid| tree.node(sid).node_count)
        .sum();
    Some(if nodes == 0 {
        0
    } else {
        ((nodes as f64 * frac).round() as u64).max(1)
    })
}

/// Parents owning a node of the schema nodes `steps` match, per such
/// node, as the fan-out histograms count them (1 when there are none).
fn parent_share(tree: &SchemaTree, steps: &[PathStep]) -> f64 {
    let (mut nodes, mut parents) = (0, 0);
    for sid in sedna_schema::path::eval_structural_path(tree, steps) {
        let n = tree.node(sid);
        nodes += n.node_count;
        parents += n.parents_with_children();
    }
    if nodes == 0 {
        1.0
    } else {
        parents as f64 / nodes as f64
    }
}

/// Cost of answering a path by scanning its schema nodes' block lists
/// (the §5.1.4 structural scan): every block is touched once and every
/// descriptor visited once. Exact, not an estimate — both counts come
/// straight from the maintained statistics.
pub fn scan_cost(stats: &PathStats) -> f64 {
    stats.blocks as f64 * BLOCK_READ + stats.nodes as f64 * NODE_VISIT
}

/// Estimated matches of an equality probe into an index with `entries`
/// keys: the classic distinct-values-unknown heuristic `sqrt(entries)`,
/// clamped to at least one so the deref term never vanishes.
pub fn index_match_estimate(entries: u64) -> u64 {
    ((entries as f64).sqrt().round() as u64).clamp(1, entries.max(1))
}

/// Cost of answering an equality predicate through a B-tree index with
/// `entries` keys: a probe of `log2(entries)` levels plus one
/// indirection dereference per estimated match.
pub fn index_cost(entries: u64) -> f64 {
    let probe = ((entries + 2) as f64).log2() * BTREE_LEVEL;
    let deref = index_match_estimate(entries) as f64 * INDEX_DEREF;
    probe + deref
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_schema::{NodeKind, SchemaName};

    fn tree_with_counts(hot: u64, cold: u64) -> SchemaTree {
        let mut t = SchemaTree::new();
        let root = t
            .get_or_add_child(
                SchemaTree::ROOT,
                NodeKind::Element,
                Some(SchemaName::local("r")),
            )
            .0;
        let h = t
            .get_or_add_child(root, NodeKind::Element, Some(SchemaName::local("hot")))
            .0;
        let c = t
            .get_or_add_child(root, NodeKind::Element, Some(SchemaName::local("cold")))
            .0;
        t.node_mut(root).node_count = 1;
        t.node_mut(root).block_count = 1;
        t.node_mut(h).node_count = hot;
        t.node_mut(h).block_count = (hot / 100).max(1) as u32;
        t.node_mut(c).node_count = cold;
        t.node_mut(c).block_count = (cold / 100).max(1) as u32;
        for (sid, count) in [(root, 1), (h, hot), (c, cold)] {
            t.node_mut(sid).fanout_transition(0, count);
        }
        t
    }

    fn child(name: &str) -> Step {
        Step::plain(Axis::Child, NodeTest::Name(SchemaName::local(name)))
    }

    #[test]
    fn path_stats_sum_exact_counters() {
        let t = tree_with_counts(3, 10_000);
        let s = path_stats(&t, &[child("r"), child("cold")]).unwrap();
        assert_eq!(s.sids, 1);
        assert_eq!(s.nodes, 10_000);
        assert_eq!(s.blocks, 100);
        let s = path_stats(&t, &[child("r"), child("hot")]).unwrap();
        assert_eq!(s.nodes, 3);
    }

    #[test]
    fn non_descending_axes_are_not_estimable() {
        let t = tree_with_counts(1, 1);
        let parent = Step::plain(Axis::Parent, NodeTest::AnyKind);
        assert_eq!(path_stats(&t, &[child("r"), parent]), None);
    }

    #[test]
    fn predicates_scale_the_estimate() {
        let t = tree_with_counts(3, 10_000);
        let mut step = child("cold");
        step.predicates.push(Expr::GeneralCmp(
            CmpOp::Eq,
            Expr::ContextItem.boxed(),
            Expr::Literal(Atom::String("x".into())).boxed(),
        ));
        let est = estimate_path_cardinality(&t, &[child("r"), step]).unwrap();
        assert_eq!(est, (10_000.0 * SEL_EQ).round() as u64);
        // Empty bare path stays zero even with predicates.
        let est = estimate_path_cardinality(&t, &[child("nope")]).unwrap();
        assert_eq!(est, 0);
    }

    fn nth(mut step: Step) -> Step {
        step.predicates.push(Expr::Literal(Atom::Number(3.0)));
        step
    }

    #[test]
    fn a_positional_predicate_keeps_one_node_per_parent() {
        let t = tree_with_counts(3, 10_000);
        // One `r`, so `cold[3]` is one node, not a fraction of 10 000.
        let est = estimate_path_cardinality(&t, &[child("r"), nth(child("cold"))]).unwrap();
        assert_eq!(est, 1);
        // On the first step the parent is the document node.
        assert_eq!(
            estimate_path_cardinality(&t, &[nth(child("r"))]).unwrap(),
            1
        );
        // `//cold[3]` keeps its `//` step: the parents are still one `r`.
        let any = Step::plain(Axis::DescendantOrSelf, NodeTest::AnyKind);
        let est = estimate_path_cardinality(&t, &[any, nth(child("cold"))]).unwrap();
        assert_eq!(est, 1);
        // A positional Filter keeps at most one item.
        let p = Expr::Literal(Atom::Number(3.0));
        assert_eq!(filter_estimate(600.0, &p), 1.0);
        assert_eq!(filter_estimate(0.0, &p), 0.0);
    }

    #[test]
    fn a_long_positional_path_estimates_in_one_pass() {
        // `/a[3]/a[3]/…` 64 steps deep; below the first level each level
        // holds two `a` under one parent.
        let mut t = SchemaTree::new();
        let mut sid = SchemaTree::ROOT;
        for depth in 0..64 {
            sid = t
                .get_or_add_child(sid, NodeKind::Element, Some(SchemaName::local("a")))
                .0;
            t.node_mut(sid).node_count = 1 << depth.min(1);
            t.node_mut(sid).fanout_transition(0, 1 << depth.min(1));
        }
        let steps: Vec<Step> = (0..64).map(|_| nth(child("a"))).collect();
        assert_eq!(estimate_path_cardinality(&t, &steps).unwrap(), 1);
    }

    #[test]
    fn index_beats_scan_on_the_cold_path_only() {
        let t = tree_with_counts(3, 10_000);
        let cold = path_stats(&t, &[child("r"), child("cold")]).unwrap();
        let hot = path_stats(&t, &[child("r"), child("hot")]).unwrap();
        assert!(
            index_cost(cold.nodes) < scan_cost(&cold),
            "10k-node path must favor the index"
        );
        assert!(
            index_cost(hot.nodes) > scan_cost(&hot),
            "3-node path must favor the scan"
        );
    }

    #[test]
    fn selectivities_rank_sensibly() {
        let eq = Expr::ValueCmp(
            CmpOp::Eq,
            Expr::ContextItem.boxed(),
            Expr::Literal(Atom::Number(1.0)).boxed(),
        );
        let lt = Expr::ValueCmp(
            CmpOp::Lt,
            Expr::ContextItem.boxed(),
            Expr::Literal(Atom::Number(1.0)).boxed(),
        );
        let exists = Expr::Path {
            start: crate::ast::PathStart::Context,
            steps: vec![child("k")],
        };
        assert!(predicate_selectivity(&eq) < predicate_selectivity(&lt));
        assert!(predicate_selectivity(&lt) < predicate_selectivity(&exists));
    }
}
