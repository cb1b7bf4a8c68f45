//! The uniform operation tree (§3: "the operation tree produced by the
//! parser is designed to provide uniform representation for all the 3
//! query/statement types" — queries, updates, DDL).

use sedna_schema::SchemaName;

use crate::value::Atom;

/// A complete statement: prolog + body.
#[derive(Clone, Debug, PartialEq)]
pub struct Statement {
    /// Prolog-declared global variables, in declaration order.
    pub vars: Vec<VarDecl>,
    /// Prolog-declared user functions.
    pub functions: Vec<UserFn>,
    /// The statement body.
    pub kind: StatementKind,
    /// Total variable slots allocated by static analysis.
    pub slot_count: usize,
    /// Cache slots allocated by the §5.1.3 lazy-evaluation rewrite.
    pub cache_count: usize,
}

/// A prolog variable declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct VarDecl {
    /// Variable name (without `$`).
    pub name: String,
    /// Slot assigned by static analysis.
    pub slot: usize,
    /// Initializer.
    pub init: Expr,
}

/// A prolog function declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct UserFn {
    /// Function name (the `local:` prefix is implied and stripped).
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Parameter slots.
    pub param_slots: Vec<usize>,
    /// Body.
    pub body: Expr,
}

/// The three statement classes of §3.
#[derive(Clone, Debug, PartialEq)]
pub enum StatementKind {
    /// An XQuery query.
    Query(Expr),
    /// An XUpdate statement.
    Update(UpdateStmt),
    /// A DDL statement.
    Ddl(DdlStmt),
}

/// XUpdate statements (§3: "our update language is syntactically close to
/// [Lehti's XUpdate]").
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateStmt {
    /// `UPDATE insert Expr (into|following|preceding) Path`
    Insert {
        /// Content to insert (evaluated once).
        what: Expr,
        /// Placement relative to each target.
        pos: InsertPos,
        /// Target nodes.
        target: Expr,
    },
    /// `UPDATE delete Path`
    Delete {
        /// Target nodes (subtrees deleted).
        target: Expr,
    },
    /// `UPDATE replace value of Path with Expr`
    ReplaceValue {
        /// Target nodes.
        target: Expr,
        /// New value (atomized to a string).
        with: Expr,
    },
}

/// Placement of inserted content.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum InsertPos {
    /// As the last children of the target.
    Into,
    /// As following siblings of the target.
    Following,
    /// As preceding siblings of the target.
    Preceding,
}

/// Data-definition statements.
#[derive(Clone, Debug, PartialEq)]
pub enum DdlStmt {
    /// `CREATE DOCUMENT 'name'`
    CreateDocument(String),
    /// `DROP DOCUMENT 'name'`
    DropDocument(String),
    /// `CREATE INDEX 'name' ON doc('d')/path BY relative/path AS type`
    CreateIndex {
        /// Index name.
        name: String,
        /// Document the index covers.
        doc: String,
        /// Path from the document root selecting the indexed nodes.
        on: Vec<Step>,
        /// Relative path from each indexed node to its key value.
        by: Vec<Step>,
        /// Key type.
        key_type: IndexKeyType,
    },
    /// `DROP INDEX 'name'`
    DropIndex(String),
}

/// Index key types.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IndexKeyType {
    /// `xs:string`
    String,
    /// `xs:double`
    Number,
}

/// XPath axes supported by the executor.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Axis {
    /// `child::`
    Child,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::`
    DescendantOrSelf,
    /// `self::`
    SelfAxis,
    /// `parent::`
    Parent,
    /// `ancestor::`
    Ancestor,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `following-sibling::`
    FollowingSibling,
    /// `preceding-sibling::`
    PrecedingSibling,
    /// `attribute::`
    Attribute,
}

impl Axis {
    /// Whether the axis yields nodes in reverse document order.
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf | Axis::PrecedingSibling
        )
    }
}

/// Node tests.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeTest {
    /// A name test (`para`, `pre:para`).
    Name(SchemaName),
    /// `*`
    Wildcard,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()` with optional target.
    Pi(Option<String>),
    /// `node()`
    AnyKind,
}

/// One path step.
#[derive(Clone, Debug, PartialEq)]
pub struct Step {
    /// The axis.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// Predicates, applied in order.
    pub predicates: Vec<Expr>,
}

impl Step {
    /// A predicate-free step.
    pub fn plain(axis: Axis, test: NodeTest) -> Step {
        Step {
            axis,
            test,
            predicates: Vec::new(),
        }
    }
}

/// Where a path expression starts.
#[derive(Clone, Debug, PartialEq)]
pub enum PathStart {
    /// From the context item.
    Context,
    /// From `doc('name')` / `document('name')`.
    Doc(String),
    /// From `/` — the root of the context item's document.
    Root,
    /// From an arbitrary expression (`expr/step/...`).
    Expr(Box<Expr>),
}

/// Comparison operators.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=` / `eq`
    Eq,
    /// `!=` / `ne`
    Ne,
    /// `<` / `lt`
    Lt,
    /// `<=` / `le`
    Le,
    /// `>` / `gt`
    Gt,
    /// `>=` / `ge`
    Ge,
}

/// Arithmetic operators.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `idiv`
    IDiv,
    /// `mod`
    Mod,
}

/// FLWOR clauses (for/let; where/order/return are on [`Expr::Flwor`]).
#[derive(Clone, Debug, PartialEq)]
pub enum FlworClause {
    /// `for $v [at $p] in Expr`
    For {
        /// Variable name.
        var: String,
        /// Variable slot.
        slot: usize,
        /// Positional variable, if declared.
        at: Option<(String, usize)>,
        /// Binding sequence.
        expr: Expr,
    },
    /// `let $v := Expr`
    Let {
        /// Variable name.
        var: String,
        /// Variable slot.
        slot: usize,
        /// Bound expression.
        expr: Expr,
        /// Marked by the §5.1.3 rewrite: the expression does not depend on
        /// enclosing for-variables and is evaluated once.
        lazy: bool,
    },
}

/// How a function call was resolved by static analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum FnResolution {
    /// Not yet resolved (pre-analysis).
    Unresolved,
    /// A built-in function (index into the registry).
    Builtin(usize),
    /// A prolog-declared function (index into [`Statement::functions`]).
    User(usize),
}

/// An ordering key of `order by`.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderSpec {
    /// Key expression.
    pub key: Expr,
    /// Descending order?
    pub descending: bool,
}

/// The expression tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal atom.
    Literal(Atom),
    /// The empty sequence `()`.
    Empty,
    /// Sequence concatenation `(a, b, c)`.
    Sequence(Vec<Expr>),
    /// `$name`
    VarRef {
        /// Variable name.
        name: String,
        /// Slot (usize::MAX before analysis).
        slot: usize,
    },
    /// `.`
    ContextItem,
    /// FLWOR expression.
    Flwor {
        /// for/let clauses in order.
        clauses: Vec<FlworClause>,
        /// `where`
        where_: Option<Box<Expr>>,
        /// `order by`
        order: Vec<OrderSpec>,
        /// `return`
        ret: Box<Expr>,
    },
    /// `some/every $v in E satisfies P`
    Quantified {
        /// `some` (true) or `every` (false).
        some: bool,
        /// Variable name.
        var: String,
        /// Variable slot.
        slot: usize,
        /// Binding sequence.
        within: Box<Expr>,
        /// Condition.
        satisfies: Box<Expr>,
    },
    /// `if (c) then t else e`
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Then branch.
        then: Box<Expr>,
        /// Else branch.
        els: Box<Expr>,
    },
    /// Logical or.
    Or(Box<Expr>, Box<Expr>),
    /// Logical and.
    And(Box<Expr>, Box<Expr>),
    /// General comparison (existential over sequences).
    GeneralCmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Value comparison (singletons).
    ValueCmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `a to b`
    Range(Box<Expr>, Box<Expr>),
    /// `union` / `|`
    Union(Box<Expr>, Box<Expr>),
    /// `intersect`
    Intersect(Box<Expr>, Box<Expr>),
    /// `except`
    Except(Box<Expr>, Box<Expr>),
    /// A path expression.
    Path {
        /// Where the path starts.
        start: PathStart,
        /// The steps.
        steps: Vec<Step>,
    },
    /// A function call.
    FnCall {
        /// As written.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Filled by static analysis.
        resolved: FnResolution,
    },
    /// Direct element constructor with literal name.
    ElementCtor {
        /// Element name.
        name: SchemaName,
        /// Attributes: name and value parts (concatenated as strings).
        attrs: Vec<(SchemaName, Vec<Expr>)>,
        /// Content in order (literal text arrives as `Literal(String)`).
        children: Vec<Expr>,
    },
    /// `text { expr }` — or literal text inside a constructor.
    TextCtor(Box<Expr>),
    /// Explicit distinct-document-order operation (inserted around path
    /// steps; the §5.1.1 rewrite removes the redundant ones).
    Ddo(Box<Expr>),
    /// Marked by the optimizer: evaluate once and cache in `cache_slot`
    /// (§5.1.3 lazy invariant expressions).
    Cached {
        /// The invariant expression.
        expr: Box<Expr>,
        /// Cache slot.
        cache_slot: usize,
    },
    /// A filter expression: `primary[pred]...` on an arbitrary sequence.
    Filter {
        /// The filtered sequence.
        input: Box<Expr>,
        /// Predicates in order (numeric = positional).
        predicates: Vec<Expr>,
    },
    /// Marked by the §5.1.4 rewrite: a structural location path executed
    /// over the descriptive schema. `doc` names the document; `steps`
    /// hold only descending axes and no predicates.
    StructuralPath {
        /// Document name.
        doc: String,
        /// The structural steps.
        steps: Vec<Step>,
    },
}

impl Expr {
    /// Shorthand for a boxed expression.
    pub fn boxed(self) -> Box<Expr> {
        Box::new(self)
    }

    /// Calls `f` on this expression and then on every subexpression, in
    /// pre-order. The one walk over an expression's children: analyses
    /// (here and in the session layer) state only the pattern they look
    /// for and leave the traversal to this.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Sequence(items) => items.iter().for_each(|i| i.visit(f)),
            Expr::Flwor {
                clauses,
                where_,
                order,
                ret,
            } => {
                for c in clauses {
                    match c {
                        FlworClause::For { expr, .. } | FlworClause::Let { expr, .. } => {
                            expr.visit(f)
                        }
                    }
                }
                if let Some(w) = where_ {
                    w.visit(f);
                }
                for o in order {
                    o.key.visit(f);
                }
                ret.visit(f);
            }
            Expr::Quantified {
                within, satisfies, ..
            } => {
                within.visit(f);
                satisfies.visit(f);
            }
            Expr::If { cond, then, els } => {
                cond.visit(f);
                then.visit(f);
                els.visit(f);
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
                a.visit(f);
                b.visit(f);
            }
            Expr::Neg(a) | Expr::Ddo(a) | Expr::TextCtor(a) => a.visit(f),
            Expr::Cached { expr, .. } => expr.visit(f),
            Expr::Path { start, steps } => {
                if let PathStart::Expr(e) = start {
                    e.visit(f);
                }
                for s in steps {
                    s.predicates.iter().for_each(|p| p.visit(f));
                }
            }
            Expr::Filter { input, predicates } => {
                input.visit(f);
                predicates.iter().for_each(|p| p.visit(f));
            }
            Expr::FnCall { args, .. } => args.iter().for_each(|a| a.visit(f)),
            Expr::ElementCtor {
                attrs, children, ..
            } => {
                for (_, parts) in attrs {
                    parts.iter().for_each(|p| p.visit(f));
                }
                children.iter().for_each(|c| c.visit(f));
            }
            Expr::Literal(_)
            | Expr::Empty
            | Expr::VarRef { .. }
            | Expr::ContextItem
            | Expr::StructuralPath { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_axes_flagged() {
        assert!(Axis::Ancestor.is_reverse());
        assert!(Axis::PrecedingSibling.is_reverse());
        assert!(!Axis::Child.is_reverse());
        assert!(!Axis::Descendant.is_reverse());
    }

    #[test]
    fn step_plain_has_no_predicates() {
        let s = Step::plain(Axis::Child, NodeTest::Wildcard);
        assert!(s.predicates.is_empty());
    }
}
