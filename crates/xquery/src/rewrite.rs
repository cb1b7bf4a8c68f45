//! The optimizing rewriter (§5.1): "In Sedna, we have implemented a wide
//! set of rule-based query optimization techniques for XQuery."
//!
//! Four rewrites, exactly the ones the paper describes:
//!
//! 1. **Removing unnecessary ordering operations** (§5.1.1): for each
//!    operation the properties *(already in DDO; at most one item; nodes
//!    on a common level)* are inferred recursively; a DDO operation is
//!    removed when its argument is known to be in DDO, or when DDO is not
//!    required for the resulting sequence (aggregation/boolean contexts).
//! 2. **Abbreviated descendant-or-self combination** (§5.1.2):
//!    `//para` → `/descendant::para`, guarded by the counter-example of
//!    the spec — the rewrite is suppressed when the next step's
//!    predicates may depend on context position or size.
//! 3. **Nested for-clause laziness** (§5.1.3): binding expressions inside
//!    a repeated FLWOR that do not depend on outer iteration variables
//!    are marked lazy and evaluated just once.
//! 4. **Structural path extraction** (§5.1.4): paths from a document node
//!    with only descending axes and no predicates become schema-level
//!    access operations executed in main memory.
//! 5. **User-function inlining** — the §5.1 preamble's "inlining for
//!    user-defined XQuery functions" (Grinev & Lizorkin): calls to
//!    non-recursive prolog functions are replaced by let-bound copies of
//!    their bodies, exposing the body to the other rewrites.

use crate::ast::*;

/// Statistics of what the rewriter did (used by the rewrite tests and the
/// E5–E8 benchmarks to verify both variants really differ).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RewriteStats {
    /// DDO operations removed.
    pub ddo_removed: u64,
    /// `//`+step pairs combined into a descendant step.
    pub descendant_combined: u64,
    /// Binding expressions marked lazy.
    pub lazy_marked: u64,
    /// Paths mapped onto the descriptive schema.
    pub structural_extracted: u64,
    /// User-function calls inlined.
    pub functions_inlined: u64,
}

/// Options controlling which rewrites run (benchmarks disable individual
/// rules to measure them).
#[derive(Debug, Clone, Copy)]
pub struct RewriteOptions {
    /// §5.1.1 DDO removal.
    pub remove_ddo: bool,
    /// §5.1.2 descendant combination.
    pub combine_descendant: bool,
    /// §5.1.3 lazy invariants.
    pub lazy_invariants: bool,
    /// §5.1.4 structural paths.
    pub structural_paths: bool,
    /// User-function inlining (§5.1 preamble, reference \[11\]).
    pub inline_functions: bool,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            remove_ddo: true,
            combine_descendant: true,
            lazy_invariants: true,
            structural_paths: true,
            inline_functions: true,
        }
    }
}

/// Rewrites a statement with default options.
pub fn rewrite_statement(stmt: Statement) -> Statement {
    rewrite_with(stmt, RewriteOptions::default()).0
}

/// Rewrites with explicit options, returning the statistics.
pub fn rewrite_with(mut stmt: Statement, opts: RewriteOptions) -> (Statement, RewriteStats) {
    let mut rw = Rewriter {
        opts,
        stats: RewriteStats::default(),
        next_cache: 0,
    };
    if opts.inline_functions {
        inline_functions(&mut stmt, &mut rw.stats);
    }
    for v in &mut stmt.vars {
        rw.rewrite_expr(&mut v.init, false);
    }
    for f in &mut stmt.functions {
        rw.rewrite_expr(&mut f.body, true);
    }
    match &mut stmt.kind {
        StatementKind::Query(e) => rw.rewrite_expr(e, false),
        StatementKind::Update(u) => match u {
            UpdateStmt::Insert { what, target, .. } => {
                rw.rewrite_expr(what, false);
                rw.rewrite_expr(target, false);
            }
            UpdateStmt::Delete { target } => rw.rewrite_expr(target, false),
            UpdateStmt::ReplaceValue { target, with } => {
                rw.rewrite_expr(target, false);
                rw.rewrite_expr(with, false);
            }
        },
        StatementKind::Ddl(_) => {}
    }
    stmt.cache_count = rw.next_cache;
    (stmt, rw.stats)
}

/// Inferred order properties of an expression's result (§5.1.1's three
/// recursive properties).
#[derive(Debug, Clone, Copy, Default)]
pub struct Props {
    /// The sequence is already in distinct document order.
    pub is_ddo: bool,
    /// The sequence has at most one item.
    pub max_one: bool,
    /// All nodes lie on a common level of an XML tree.
    pub single_level: bool,
}

/// Infers the §5.1.1 properties recursively.
pub fn infer_props(e: &Expr) -> Props {
    match e {
        Expr::Literal(_) | Expr::Empty | Expr::ContextItem | Expr::TextCtor(_) => Props {
            is_ddo: true,
            max_one: true,
            single_level: true,
        },
        Expr::ElementCtor { .. } => Props {
            is_ddo: true,
            max_one: true,
            single_level: true,
        },
        Expr::Ddo(inner) => {
            let p = infer_props(inner);
            Props {
                is_ddo: true,
                max_one: p.max_one,
                single_level: p.single_level,
            }
        }
        Expr::Cached { expr, .. } => infer_props(expr),
        Expr::Filter { input, .. } => {
            // Filtering preserves order and level; it can only shrink.
            let p = infer_props(input);
            Props {
                is_ddo: p.is_ddo,
                max_one: p.max_one,
                single_level: p.single_level,
            }
        }
        Expr::Path { start, steps } => {
            let mut p = match start {
                PathStart::Root | PathStart::Doc(_) => Props {
                    is_ddo: true,
                    max_one: true,
                    single_level: true,
                },
                PathStart::Context => Props {
                    is_ddo: true,
                    max_one: true,
                    single_level: true,
                },
                PathStart::Expr(e) => infer_props(e),
            };
            for step in steps {
                p = step_props(p, step);
            }
            p
        }
        Expr::StructuralPath { steps, .. } => {
            // Results are emitted per matched schema node, each list in
            // document order. A chain of child-axis *name* tests matches
            // at most one schema node (names are unique among a schema
            // node's children), so its single list is in DDO; anything
            // with descendant/wildcard steps may span schema nodes.
            let single_schema_node = steps
                .iter()
                .all(|s| s.axis == Axis::Child && matches!(s.test, NodeTest::Name(_)));
            Props {
                is_ddo: single_schema_node,
                max_one: false,
                single_level: single_schema_node,
            }
        }
        Expr::FnCall { name, .. } => {
            // Aggregates and scalar functions yield at most one item.
            const SCALAR: &[&str] = &[
                "count",
                "empty",
                "exists",
                "not",
                "true",
                "false",
                "boolean",
                "string",
                "number",
                "name",
                "local-name",
                "string-length",
                "concat",
                "contains",
                "starts-with",
                "ends-with",
                "substring",
                "substring-before",
                "substring-after",
                "normalize-space",
                "upper-case",
                "lower-case",
                "string-join",
                "sum",
                "avg",
                "min",
                "max",
                "round",
                "floor",
                "ceiling",
                "abs",
                "position",
                "last",
            ];
            if name == "doc" || name == "document" || SCALAR.contains(&name.as_str()) {
                Props {
                    is_ddo: true,
                    max_one: true,
                    single_level: true,
                }
            } else {
                Props::default()
            }
        }
        Expr::If { then, els, .. } => {
            let a = infer_props(then);
            let b = infer_props(els);
            Props {
                is_ddo: a.is_ddo && b.is_ddo,
                max_one: a.max_one && b.max_one,
                single_level: a.single_level && b.single_level,
            }
        }
        Expr::Or(..)
        | Expr::And(..)
        | Expr::GeneralCmp(..)
        | Expr::ValueCmp(..)
        | Expr::Arith(..)
        | Expr::Neg(_)
        | Expr::Quantified { .. } => Props {
            is_ddo: true,
            max_one: true,
            single_level: true,
        },
        Expr::Range(..) => Props {
            is_ddo: true, // atoms: order property vacuous but stable
            max_one: false,
            single_level: true,
        },
        // Unknown producers: conservative.
        Expr::VarRef { .. }
        | Expr::Sequence(_)
        | Expr::Flwor { .. }
        | Expr::Union(..)
        | Expr::Intersect(..)
        | Expr::Except(..) => Props::default(),
    }
}

fn step_props(input: Props, step: &Step) -> Props {
    match step.axis {
        Axis::SelfAxis => input,
        Axis::Child | Axis::Attribute => Props {
            // Children of distinct same-level nodes visited in document
            // order do not interleave: order and level are preserved one
            // level down.
            is_ddo: input.is_ddo && input.single_level,
            max_one: false,
            single_level: input.single_level,
        },
        Axis::Descendant | Axis::DescendantOrSelf => Props {
            // Subtrees of distinct same-level nodes are disjoint and
            // ordered, so the concatenation stays in DDO — but spans
            // levels.
            is_ddo: input.is_ddo && (input.single_level || input.max_one),
            max_one: false,
            single_level: false,
        },
        Axis::Parent => Props {
            // Siblings share parents: duplicates possible.
            is_ddo: input.max_one,
            max_one: input.max_one,
            single_level: input.single_level,
        },
        Axis::Ancestor | Axis::AncestorOrSelf | Axis::PrecedingSibling | Axis::FollowingSibling => {
            Props {
                is_ddo: false,
                max_one: false,
                single_level: false,
            }
        }
    }
}

/// Could evaluating `e` as a predicate depend on context position or size
/// (explicitly via `position()`/`last()`, or implicitly by yielding a
/// number, which XPath treats as a positional test)? Conservative: `true`
/// unless provably not.
pub fn may_depend_on_position(e: &Expr) -> bool {
    match e {
        Expr::Literal(Atom::Number(_)) => true,
        Expr::Literal(_) => false,
        Expr::Empty => false,
        // A node sequence as predicate is an existence test — safe. The
        // context item in a node predicate is a node.
        Expr::Path { .. } | Expr::StructuralPath { .. } | Expr::ContextItem => false,
        Expr::Filter { input, predicates } => {
            may_depend_on_position(input) || predicates.iter().any(may_depend_on_position)
        }
        Expr::Or(a, b) | Expr::And(a, b) => may_depend_on_position(a) || may_depend_on_position(b),
        Expr::GeneralCmp(..) | Expr::ValueCmp(..) | Expr::Quantified { .. } => {
            // Comparisons and quantifiers yield booleans — but their
            // operands may call position()/last() explicitly.
            contains_position_call(e)
        }
        Expr::FnCall { name, args, .. } => {
            if name == "position" || name == "last" {
                return true;
            }
            const BOOLEAN_FNS: &[&str] = &[
                "not",
                "boolean",
                "empty",
                "exists",
                "contains",
                "starts-with",
                "ends-with",
                "deep-equal",
            ];
            if BOOLEAN_FNS.contains(&name.as_str()) {
                return args.iter().any(contains_position_call);
            }
            // Anything else might be numeric.
            true
        }
        Expr::If { cond, then, els } => {
            contains_position_call(cond)
                || may_depend_on_position(then)
                || may_depend_on_position(els)
        }
        // Numbers, variables, everything else: assume positional.
        _ => true,
    }
}

fn contains_position_call(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |x| {
        if let Expr::FnCall { name, .. } = x {
            if name == "position" || name == "last" {
                found = true;
            }
        }
    });
    found
}

/// Free variable slots referenced by `e`.
pub fn free_slots(e: &Expr) -> Vec<usize> {
    let mut out = Vec::new();
    e.visit(&mut |x| {
        if let Expr::VarRef { slot, .. } = x {
            out.push(*slot);
        }
    });
    out.sort_unstable();
    out.dedup();
    out
}

/// Which user functions are (transitively) recursive — those cannot be
/// inlined.
fn recursive_functions(stmt: &Statement) -> Vec<bool> {
    let n = stmt.functions.len();
    // callees[i] = user functions directly called by function i.
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, f) in stmt.functions.iter().enumerate() {
        f.body.visit(&mut |e| {
            if let Expr::FnCall {
                resolved: FnResolution::User(j),
                ..
            } = e
            {
                callees[i].push(*j);
            }
        });
    }
    // A function is recursive if it can reach itself.
    (0..n)
        .map(|start| {
            let mut stack = callees[start].clone();
            let mut seen = vec![false; n];
            while let Some(f) = stack.pop() {
                if f == start {
                    return true;
                }
                if !std::mem::replace(&mut seen[f], true) {
                    stack.extend(callees[f].iter().copied());
                }
            }
            false
        })
        .collect()
}

/// Replaces calls to non-recursive user functions with let-bound copies
/// of their bodies. Parameters become let-clauses over the function's own
/// parameter slots, so the body works unmodified; the executor's slot
/// save/restore makes sibling call sites independent.
fn inline_functions(stmt: &mut Statement, stats: &mut RewriteStats) {
    let recursive = recursive_functions(stmt);
    // Iterate to a fixpoint (inlined bodies may contain further calls),
    // with a depth cap as a safety net.
    for _round in 0..8 {
        let mut changed = false;
        let functions = stmt.functions.clone();
        let mut rewrite_in =
            |e: &mut Expr| inline_in_expr(e, &functions, &recursive, stats, &mut changed);
        match &mut stmt.kind {
            StatementKind::Query(e) => rewrite_in(e),
            StatementKind::Update(u) => match u {
                UpdateStmt::Insert { what, target, .. } => {
                    rewrite_in(what);
                    rewrite_in(target);
                }
                UpdateStmt::Delete { target } => rewrite_in(target),
                UpdateStmt::ReplaceValue { target, with } => {
                    rewrite_in(target);
                    rewrite_in(with);
                }
            },
            StatementKind::Ddl(_) => {}
        }
        for v in &mut stmt.vars {
            inline_in_expr(&mut v.init, &functions, &recursive, stats, &mut changed);
        }
        if !changed {
            break;
        }
    }
}

fn inline_in_expr(
    e: &mut Expr,
    functions: &[UserFn],
    recursive: &[bool],
    stats: &mut RewriteStats,
    changed: &mut bool,
) {
    // Children first (bottom-up), via a small mutable walker.
    match e {
        Expr::Sequence(items) => {
            for i in items {
                inline_in_expr(i, functions, recursive, stats, changed);
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
                        inline_in_expr(expr, functions, recursive, stats, changed)
                    }
                }
            }
            if let Some(w) = where_ {
                inline_in_expr(w, functions, recursive, stats, changed);
            }
            for o in order {
                inline_in_expr(&mut o.key, functions, recursive, stats, changed);
            }
            inline_in_expr(ret, functions, recursive, stats, changed);
        }
        Expr::Quantified {
            within, satisfies, ..
        } => {
            inline_in_expr(within, functions, recursive, stats, changed);
            inline_in_expr(satisfies, functions, recursive, stats, changed);
        }
        Expr::If { cond, then, els } => {
            inline_in_expr(cond, functions, recursive, stats, changed);
            inline_in_expr(then, functions, recursive, stats, changed);
            inline_in_expr(els, functions, recursive, stats, changed);
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
            inline_in_expr(a, functions, recursive, stats, changed);
            inline_in_expr(b, functions, recursive, stats, changed);
        }
        Expr::Neg(a) | Expr::Ddo(a) | Expr::TextCtor(a) => {
            inline_in_expr(a, functions, recursive, stats, changed)
        }
        Expr::Cached { expr, .. } => inline_in_expr(expr, functions, recursive, stats, changed),
        Expr::Path { start, steps } => {
            if let PathStart::Expr(inner) = start {
                inline_in_expr(inner, functions, recursive, stats, changed);
            }
            for s in steps {
                for p in &mut s.predicates {
                    inline_in_expr(p, functions, recursive, stats, changed);
                }
            }
        }
        Expr::Filter { input, predicates } => {
            inline_in_expr(input, functions, recursive, stats, changed);
            for p in predicates {
                inline_in_expr(p, functions, recursive, stats, changed);
            }
        }
        Expr::ElementCtor {
            attrs, children, ..
        } => {
            for (_, parts) in attrs {
                for p in parts {
                    inline_in_expr(p, functions, recursive, stats, changed);
                }
            }
            for c in children {
                inline_in_expr(c, functions, recursive, stats, changed);
            }
        }
        Expr::FnCall { args, .. } => {
            for a in args.iter_mut() {
                inline_in_expr(a, functions, recursive, stats, changed);
            }
        }
        _ => {}
    }
    // The node itself.
    if let Expr::FnCall {
        resolved: FnResolution::User(idx),
        args,
        ..
    } = e
    {
        let idx = *idx;
        if !recursive[idx] {
            let f = &functions[idx];
            let clauses: Vec<FlworClause> = f
                .param_slots
                .iter()
                .zip(f.params.iter())
                .zip(args.drain(..))
                .map(|((&slot, name), arg)| FlworClause::Let {
                    var: name.clone(),
                    slot,
                    expr: arg,
                    lazy: false,
                })
                .collect();
            let body = f.body.clone();
            *e = if clauses.is_empty() {
                body
            } else {
                Expr::Flwor {
                    clauses,
                    where_: None,
                    order: Vec::new(),
                    ret: body.boxed(),
                }
            };
            stats.functions_inlined += 1;
            *changed = true;
        }
    }
}

struct Rewriter {
    opts: RewriteOptions,
    stats: RewriteStats,
    next_cache: usize,
}

impl Rewriter {
    /// Rewrites `e`; `repeated` is true when `e` sits in a context that is
    /// re-evaluated (a for-loop body or a function body).
    fn rewrite_expr(&mut self, e: &mut Expr, repeated: bool) {
        // Bottom-up: children first.
        match e {
            Expr::Sequence(items) => {
                for i in items {
                    self.rewrite_expr(i, repeated);
                }
            }
            Expr::Flwor {
                clauses,
                where_,
                order,
                ret,
            } => {
                let mut inside_loop = repeated;
                for clause in clauses.iter_mut() {
                    match clause {
                        FlworClause::For { expr, .. } => {
                            self.rewrite_expr(expr, inside_loop);
                            // §5.1.3: a binding sequence inside a repeated
                            // context that doesn't use outer variables is
                            // evaluated once.
                            if self.opts.lazy_invariants
                                && inside_loop
                                && free_slots(expr).is_empty()
                                && !matches!(
                                    expr,
                                    Expr::Cached { .. } | Expr::Literal(_) | Expr::Empty
                                )
                            {
                                let inner = std::mem::replace(expr, Expr::Empty);
                                *expr = Expr::Cached {
                                    expr: inner.boxed(),
                                    cache_slot: self.next_cache,
                                };
                                self.next_cache += 1;
                                self.stats.lazy_marked += 1;
                            }
                            inside_loop = true;
                        }
                        FlworClause::Let { expr, lazy, .. } => {
                            self.rewrite_expr(expr, inside_loop);
                            if self.opts.lazy_invariants
                                && inside_loop
                                && free_slots(expr).is_empty()
                                && !matches!(
                                    expr,
                                    Expr::Cached { .. } | Expr::Literal(_) | Expr::Empty
                                )
                            {
                                let inner = std::mem::replace(expr, Expr::Empty);
                                *expr = Expr::Cached {
                                    expr: inner.boxed(),
                                    cache_slot: self.next_cache,
                                };
                                self.next_cache += 1;
                                self.stats.lazy_marked += 1;
                                *lazy = true;
                            }
                        }
                    }
                }
                if let Some(w) = where_ {
                    self.rewrite_expr(w, true);
                    // Order is irrelevant in the where condition.
                    self.strip_ddo(w);
                }
                for spec in order.iter_mut() {
                    self.rewrite_expr(&mut spec.key, true);
                }
                self.rewrite_expr(ret, true);
            }
            Expr::Quantified {
                within, satisfies, ..
            } => {
                self.rewrite_expr(within, repeated);
                // Quantification doesn't care about order.
                self.strip_ddo(within);
                self.rewrite_expr(satisfies, true);
                self.strip_ddo(satisfies);
            }
            Expr::If { cond, then, els } => {
                self.rewrite_expr(cond, repeated);
                self.strip_ddo(cond);
                self.rewrite_expr(then, repeated);
                self.rewrite_expr(els, repeated);
            }
            Expr::Or(a, b) | Expr::And(a, b) => {
                self.rewrite_expr(a, repeated);
                self.rewrite_expr(b, repeated);
                self.strip_ddo(a);
                self.strip_ddo(b);
            }
            Expr::GeneralCmp(_, a, b)
            | Expr::ValueCmp(_, a, b)
            | Expr::Arith(_, a, b)
            | Expr::Range(a, b)
            | Expr::Union(a, b)
            | Expr::Intersect(a, b)
            | Expr::Except(a, b) => {
                self.rewrite_expr(a, repeated);
                self.rewrite_expr(b, repeated);
            }
            Expr::Neg(a) | Expr::TextCtor(a) => self.rewrite_expr(a, repeated),
            Expr::Cached { expr, .. } => self.rewrite_expr(expr, false),
            Expr::Path { start, steps } => {
                if let PathStart::Expr(inner) = start {
                    self.rewrite_expr(inner, repeated);
                }
                for step in steps.iter_mut() {
                    for p in &mut step.predicates {
                        self.rewrite_expr(p, true);
                        if !may_depend_on_position(p) {
                            self.strip_ddo(p);
                        }
                    }
                }
                if self.opts.combine_descendant {
                    self.combine_descendant_steps(steps);
                }
            }
            Expr::Filter { input, predicates } => {
                self.rewrite_expr(input, repeated);
                for p in predicates {
                    self.rewrite_expr(p, true);
                }
            }
            Expr::FnCall { name, args, .. } => {
                for a in args.iter_mut() {
                    self.rewrite_expr(a, repeated);
                }
                // §5.1.1: DDO is not required for aggregation inputs.
                const ORDER_BLIND: &[&str] = &[
                    "count",
                    "empty",
                    "exists",
                    "not",
                    "boolean",
                    "sum",
                    "avg",
                    "min",
                    "max",
                    "distinct-values",
                ];
                if self.opts.remove_ddo && ORDER_BLIND.contains(&name.as_str()) {
                    for a in args.iter_mut() {
                        self.strip_ddo(a);
                    }
                }
            }
            Expr::ElementCtor {
                attrs, children, ..
            } => {
                for (_, parts) in attrs {
                    for p in parts {
                        self.rewrite_expr(p, repeated);
                    }
                }
                for c in children {
                    self.rewrite_expr(c, repeated);
                }
            }
            Expr::Ddo(inner) => {
                self.rewrite_expr(inner, repeated);
            }
            _ => {}
        }
        // Now this node itself.
        if self.opts.structural_paths {
            self.try_structural(e);
        }
        if self.opts.remove_ddo {
            if let Expr::Ddo(inner) = e {
                let p = infer_props(inner);
                if p.is_ddo || p.max_one {
                    let inner = std::mem::replace(inner.as_mut(), Expr::Empty);
                    *e = inner;
                    self.stats.ddo_removed += 1;
                }
            }
        }
    }

    /// Removes a top-level DDO in an order-blind context.
    fn strip_ddo(&mut self, e: &mut Expr) {
        if !self.opts.remove_ddo {
            return;
        }
        if let Expr::Ddo(inner) = e {
            let inner = std::mem::replace(inner.as_mut(), Expr::Empty);
            *e = inner;
            self.stats.ddo_removed += 1;
        }
    }

    /// §5.1.2: collapse `descendant-or-self::node()/child::X` into
    /// `descendant::X` when X's predicates cannot observe position/size.
    fn combine_descendant_steps(&mut self, steps: &mut Vec<Step>) {
        let mut i = 0;
        while i + 1 < steps.len() {
            let combinable = steps[i].axis == Axis::DescendantOrSelf
                && steps[i].test == NodeTest::AnyKind
                && steps[i].predicates.is_empty()
                && steps[i + 1].axis == Axis::Child
                && !steps[i + 1].predicates.iter().any(may_depend_on_position);
            if combinable {
                let next = steps.remove(i + 1);
                steps[i] = Step {
                    axis: Axis::Descendant,
                    test: next.test,
                    predicates: next.predicates,
                };
                self.stats.descendant_combined += 1;
            } else {
                i += 1;
            }
        }
    }

    /// §5.1.4: a path from a document node with only descending axes and
    /// no predicates is mapped to a schema access operation.
    fn try_structural(&mut self, e: &mut Expr) {
        let Expr::Path { start, steps } = e else {
            return;
        };
        let PathStart::Doc(doc) = start else {
            return;
        };
        let structural = !steps.is_empty()
            && steps.iter().all(|s| {
                s.predicates.is_empty()
                    && matches!(
                        s.axis,
                        Axis::Child | Axis::Descendant | Axis::DescendantOrSelf | Axis::Attribute
                    )
            });
        if structural {
            *e = Expr::StructuralPath {
                doc: doc.clone(),
                steps: std::mem::take(steps),
            };
            self.stats.structural_extracted += 1;
        }
    }
}

// Re-export used by infer_props.
use crate::value::Atom;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::static_ctx::analyze;

    fn rewrite(q: &str) -> (Statement, RewriteStats) {
        let stmt = analyze(parse_statement(q).unwrap()).unwrap();
        rewrite_with(stmt, RewriteOptions::default())
    }

    fn query_expr(stmt: &Statement) -> &Expr {
        match &stmt.kind {
            StatementKind::Query(e) => e,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn child_paths_lose_their_ddo() {
        // /library/book/title from a doc root is provably in DDO.
        let (stmt, stats) = rewrite("doc('l')/library/book/title");
        assert!(stats.ddo_removed >= 1, "{stats:?}");
        // And (with structural extraction) became a schema access op.
        assert!(matches!(
            query_expr(&stmt),
            Expr::StructuralPath { .. } | Expr::Path { .. }
        ));
    }

    #[test]
    fn count_argument_needs_no_ddo() {
        let (stmt, stats) = rewrite("count(doc('l')//book/author)");
        assert!(stats.ddo_removed >= 1, "{stats:?}");
        match query_expr(&stmt) {
            Expr::FnCall { args, .. } => {
                assert!(!matches!(&args[0], Expr::Ddo(_)), "{:?}", args[0]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn descendant_combination_applies() {
        let (stmt, stats) = rewrite("doc('l')//para");
        assert_eq!(stats.descendant_combined, 1);
        // A descendant step may span several schema nodes, so the Ddo
        // stays; the path itself must have collapsed to one step.
        match query_expr(&stmt) {
            Expr::Ddo(inner) => match inner.as_ref() {
                Expr::StructuralPath { steps, .. } => {
                    assert_eq!(steps.len(), 1);
                    assert_eq!(steps[0].axis, Axis::Descendant);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn positional_predicate_blocks_combination() {
        // The spec's counter-example: //para[1] ≠ /descendant::para[1].
        let (stmt, stats) = rewrite("doc('l')//para[1]");
        assert_eq!(stats.descendant_combined, 0, "{stats:?}");
        match query_expr(&stmt) {
            Expr::Ddo(inner) => match inner.as_ref() {
                Expr::Path { steps, .. } => {
                    assert_eq!(steps.len(), 2);
                    assert_eq!(steps[0].axis, Axis::DescendantOrSelf);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn position_call_blocks_combination() {
        let (_, stats) = rewrite("doc('l')//para[position() = 2]");
        assert_eq!(stats.descendant_combined, 0);
        let (_, stats) = rewrite("doc('l')//para[last()]");
        assert_eq!(stats.descendant_combined, 0);
    }

    #[test]
    fn safe_predicate_allows_combination() {
        let (_, stats) = rewrite("doc('l')//para[kind = 'x']");
        assert_eq!(stats.descendant_combined, 1);
        let (_, stats) = rewrite("doc('l')//para[@id]");
        assert_eq!(stats.descendant_combined, 1);
    }

    #[test]
    fn invariant_inner_binding_marked_lazy() {
        let q = "for $x in doc('a')/r/x for $y in doc('b')/r/y return $x";
        let (stmt, stats) = rewrite(q);
        assert_eq!(stats.lazy_marked, 1);
        assert_eq!(stmt.cache_count, 1);
        match query_expr(&stmt) {
            Expr::Flwor { clauses, .. } => {
                // First for-binding is top-level: not cached.
                assert!(matches!(
                    &clauses[0],
                    FlworClause::For { expr, .. } if !matches!(expr, Expr::Cached { .. })
                ));
                assert!(matches!(
                    &clauses[1],
                    FlworClause::For {
                        expr: Expr::Cached { .. },
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dependent_inner_binding_not_lazy() {
        let q = "for $x in doc('a')/r/x for $y in $x/y return $y";
        let (_, stats) = rewrite(q);
        assert_eq!(stats.lazy_marked, 0);
    }

    #[test]
    fn structural_extraction_requires_no_predicates() {
        let (_, stats) = rewrite("doc('l')/library/book");
        assert_eq!(stats.structural_extracted, 1);
        let (_, stats) = rewrite("doc('l')/library/book[title = 'x']/title");
        assert_eq!(stats.structural_extracted, 0);
        // Parent axis disqualifies.
        let (_, stats) = rewrite("doc('l')/library/book/..");
        assert_eq!(stats.structural_extracted, 0);
    }

    #[test]
    fn options_disable_rules() {
        let q = "count(doc('l')//para)";
        let stmt = analyze(parse_statement(q).unwrap()).unwrap();
        let (_, stats) = rewrite_with(
            stmt,
            RewriteOptions {
                remove_ddo: false,
                combine_descendant: false,
                lazy_invariants: false,
                structural_paths: false,
                inline_functions: false,
            },
        );
        assert_eq!(stats, RewriteStats::default());
    }

    #[test]
    fn props_inference_cases() {
        use crate::parser::parse_expr;
        // Child chain from root: DDO.
        let e = parse_expr("doc('l')/a/b/c").unwrap();
        let Expr::Ddo(inner) = e else { panic!() };
        assert!(infer_props(&inner).is_ddo);
        // Descendant from root: DDO but multi-level.
        let e = parse_expr("doc('l')/descendant::x").unwrap();
        let Expr::Ddo(inner) = e else { panic!() };
        let p = infer_props(&inner);
        assert!(p.is_ddo);
        assert!(!p.single_level);
        // Child after descendant: not provably DDO.
        let e = parse_expr("doc('l')/descendant::x/child::y/child::z").unwrap();
        let Expr::Ddo(inner) = e else { panic!() };
        assert!(!infer_props(&inner).is_ddo);
        // Variables are unknown.
        assert!(
            !infer_props(&Expr::VarRef {
                name: "v".into(),
                slot: 0
            })
            .is_ddo
        );
    }

    #[test]
    fn non_recursive_functions_inline() {
        let q = "declare function local:price($b) { $b * 2 }; local:price(21)";
        let (stmt, stats) = rewrite(q);
        assert_eq!(stats.functions_inlined, 1);
        // The call is gone from the body.
        fn has_user_call(e: &Expr) -> bool {
            let mut found = false;
            e.visit(&mut |x| {
                if matches!(
                    x,
                    Expr::FnCall {
                        resolved: FnResolution::User(_),
                        ..
                    }
                ) {
                    found = true;
                }
            });
            found
        }
        assert!(!has_user_call(query_expr(&stmt)));
    }

    #[test]
    fn recursive_functions_not_inlined() {
        let q =
            "declare function local:f($n) { if ($n le 0) then 0 else local:f($n - 1) }; local:f(3)";
        let (_, stats) = rewrite(q);
        assert_eq!(stats.functions_inlined, 0);
    }

    #[test]
    fn mutually_recursive_functions_not_inlined() {
        let q = "declare function local:a($n) { local:b($n) }; declare function local:b($n) { local:a($n) }; local:a(1)";
        let (_, stats) = rewrite(q);
        assert_eq!(stats.functions_inlined, 0);
    }

    #[test]
    fn nested_inlining_reaches_fixpoint() {
        let q = "declare function local:one() { 1 }; declare function local:two() { local:one() + local:one() }; local:two()";
        let (stmt, stats) = rewrite(q);
        assert!(stats.functions_inlined >= 3, "{stats:?}");
        fn has_user_call(e: &Expr) -> bool {
            let mut found = false;
            e.visit(&mut |x| {
                if matches!(
                    x,
                    Expr::FnCall {
                        resolved: FnResolution::User(_),
                        ..
                    }
                ) {
                    found = true;
                }
            });
            found
        }
        assert!(!has_user_call(query_expr(&stmt)));
    }

    #[test]
    fn parent_after_children_keeps_ddo_wrapper() {
        // book/.. has duplicates: the Ddo must survive.
        let (stmt, _) = rewrite("doc('l')/library/book/..");
        assert!(matches!(query_expr(&stmt), Expr::Ddo(_)));
    }
}
