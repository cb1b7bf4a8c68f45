//! End-to-end query execution: parse → analyse → rewrite → execute over a
//! real schema-clustered document, checking serialized results.

use std::sync::Arc;

use sedna_sas::{Sas, SasConfig, TxnToken, Vas, View};
use sedna_schema::SchemaTree;
use sedna_storage::build::load_xml;
use sedna_storage::{DocStorage, ParentMode};
use sedna_xquery::exec::{ConstructMode, Database, DocEntry, Executor};
use sedna_xquery::{compile, update};

const LIBRARY: &str = r#"<library><book><title>Foundations of Databases</title><author>Abiteboul</author><author>Hull</author><author>Vianu</author></book><book><title>An Introduction to Database Systems</title><author>Date</author><issue><publisher>Addison-Wesley</publisher><year>2004</year></issue></book><paper><title>A Relational Model for Large Shared Data Banks</title><author>Codd</author></paper></library>"#;

struct Fixture {
    _sas: Arc<Sas>,
    vas: Vas,
    schema: SchemaTree,
    doc: DocStorage,
}

fn fixture(xml: &str) -> Fixture {
    let sas = Sas::in_memory(SasConfig {
        page_size: 4096,
        layer_size: 4096 * 1024,
        buffer_frames: 4096,
    })
    .unwrap();
    let vas = sas.session();
    vas.begin(View::LATEST, Some(TxnToken(1)));
    let mut schema = SchemaTree::new();
    let doc = load_xml(&vas, &mut schema, ParentMode::Indirect, xml).unwrap();
    Fixture {
        _sas: sas,
        vas,
        schema,
        doc,
    }
}

fn run_query(fx: &Fixture, q: &str) -> String {
    let stmt = compile(q).unwrap();
    let db = Database {
        vas: &fx.vas,
        docs: vec![DocEntry {
            name: "lib".into(),
            schema: &fx.schema,
            doc: &fx.doc,
        }],
        indexes: vec![],
    };
    let mut ex = Executor::new(&db, &stmt, ConstructMode::Embedded);
    let result = ex.run().unwrap();
    ex.serialize_sequence(&result).unwrap()
}

fn run_update(fx: &mut Fixture, q: &str) -> usize {
    let stmt = compile(q).unwrap();
    let plan = {
        let db = Database {
            vas: &fx.vas,
            docs: vec![DocEntry {
                name: "lib".into(),
                schema: &fx.schema,
                doc: &fx.doc,
            }],
            indexes: vec![],
        };
        update::plan_update(&stmt, &db).unwrap().1
    };
    update::execute_plan(&plan, &fx.vas, &mut fx.schema, &mut fx.doc)
        .unwrap()
        .affected
}

#[test]
fn simple_child_paths() {
    let fx = fixture(LIBRARY);
    assert_eq!(
        run_query(&fx, "doc('lib')/library/book/title"),
        "<title>Foundations of Databases</title><title>An Introduction to Database Systems</title>"
    );
}

#[test]
fn descendant_paths_cross_structure() {
    let fx = fixture(LIBRARY);
    // //title finds book titles and the paper title, in document order.
    let out = run_query(&fx, "doc('lib')//title");
    assert_eq!(
        out,
        "<title>Foundations of Databases</title><title>An Introduction to Database Systems</title><title>A Relational Model for Large Shared Data Banks</title>"
    );
}

#[test]
fn predicates_filter_and_position() {
    let fx = fixture(LIBRARY);
    assert_eq!(
        run_query(&fx, "doc('lib')/library/book[2]/title"),
        "<title>An Introduction to Database Systems</title>"
    );
    assert_eq!(
        run_query(&fx, "doc('lib')/library/book[issue/year = 2004]/author"),
        "<author>Date</author>"
    );
    assert_eq!(
        run_query(&fx, "doc('lib')//author[position() = last()]"),
        // last() per context node: last author of each book/paper.
        "<author>Vianu</author><author>Date</author><author>Codd</author>"
    );
}

#[test]
fn flwor_with_where_and_order() {
    let fx = fixture(LIBRARY);
    let out = run_query(
        &fx,
        "for $a in doc('lib')//author order by string($a) return string($a)",
    );
    assert_eq!(out, "Abiteboul Codd Date Hull Vianu");
    let out = run_query(
        &fx,
        "for $b in doc('lib')/library/book where count($b/author) > 1 return $b/title/text()",
    );
    assert_eq!(out, "Foundations of Databases");
}

#[test]
fn flwor_positional_variable() {
    let fx = fixture(LIBRARY);
    let out = run_query(
        &fx,
        "for $t at $i in doc('lib')//title return concat($i, ':', $t)",
    );
    assert!(out.starts_with("1:Foundations"));
    assert!(out.contains("3:A Relational Model"));
}

#[test]
fn arithmetic_and_functions() {
    let fx = fixture(LIBRARY);
    assert_eq!(run_query(&fx, "1 + 2 * 3"), "7");
    assert_eq!(run_query(&fx, "count(doc('lib')//author)"), "5");
    assert_eq!(run_query(&fx, "sum((1, 2, 3, 4))"), "10");
    assert_eq!(run_query(&fx, "avg((2, 4))"), "3");
    assert_eq!(run_query(&fx, "min((3, 1, 2))"), "1");
    assert_eq!(run_query(&fx, "max((3, 1, 2))"), "3");
    assert_eq!(run_query(&fx, "string-join(('a', 'b', 'c'), '-')"), "a-b-c");
    assert_eq!(run_query(&fx, "substring('hello world', 7)"), "world");
    assert_eq!(run_query(&fx, "substring('hello', 2, 3)"), "ell");
    assert_eq!(run_query(&fx, "normalize-space('  a   b  ')"), "a b");
    assert_eq!(run_query(&fx, "contains('database', 'tab')"), "true");
    assert_eq!(run_query(&fx, "upper-case('sedna')"), "SEDNA");
    assert_eq!(run_query(&fx, "distinct-values((1, 2, 1, 3, 2))"), "1 2 3");
    assert_eq!(run_query(&fx, "reverse((1, 2, 3))"), "3 2 1");
    assert_eq!(run_query(&fx, "subsequence((1,2,3,4,5), 2, 3)"), "2 3 4");
    assert_eq!(run_query(&fx, "index-of((10, 20, 10), 10)"), "1 3");
    assert_eq!(run_query(&fx, "string-length('hello')"), "5");
    assert_eq!(run_query(&fx, "floor(2.7)"), "2");
    assert_eq!(run_query(&fx, "ceiling(2.1)"), "3");
    assert_eq!(run_query(&fx, "abs(-4)"), "4");
    assert_eq!(run_query(&fx, "10 idiv 3"), "3");
    assert_eq!(run_query(&fx, "10 mod 3"), "1");
}

#[test]
fn quantified_expressions() {
    let fx = fixture(LIBRARY);
    assert_eq!(
        run_query(
            &fx,
            "some $a in doc('lib')//author satisfies string($a) = 'Codd'"
        ),
        "true"
    );
    assert_eq!(
        run_query(
            &fx,
            "every $a in doc('lib')//author satisfies string-length(string($a)) > 3"
        ),
        "true"
    );
    assert_eq!(
        run_query(
            &fx,
            "every $a in doc('lib')//author satisfies starts-with(string($a), 'A')"
        ),
        "false"
    );
}

#[test]
fn if_then_else_and_logic() {
    let fx = fixture(LIBRARY);
    assert_eq!(
        run_query(
            &fx,
            "if (count(doc('lib')//book) = 2) then 'two' else 'other'"
        ),
        "two"
    );
    assert_eq!(run_query(&fx, "true() and not(false())"), "true");
    assert_eq!(run_query(&fx, "false() or false()"), "false");
}

#[test]
fn axes_parent_ancestor_siblings() {
    let fx = fixture(LIBRARY);
    assert_eq!(
        run_query(&fx, "doc('lib')//year/../publisher"),
        "<publisher>Addison-Wesley</publisher>"
    );
    assert_eq!(
        run_query(&fx, "count(doc('lib')//year/ancestor::*)"),
        "3" // issue, book, library
    );
    assert_eq!(
        run_query(
            &fx,
            "string(doc('lib')/library/book[1]/author[1]/following-sibling::author[1])"
        ),
        "Hull"
    );
    assert_eq!(
        run_query(
            &fx,
            "string(doc('lib')/library/book[1]/author[2]/preceding-sibling::*[1])"
        ),
        "Abiteboul"
    );
    assert_eq!(run_query(&fx, "count(doc('lib')//title/self::title)"), "3");
}

#[test]
fn attributes_and_wildcards() {
    let fx = fixture(r#"<r><item id="a1" n="1">x</item><item id="a2" n="2">y</item></r>"#);
    assert_eq!(run_query(&fx, "string(doc('lib')/r/item[1]/@id)"), "a1");
    assert_eq!(run_query(&fx, "count(doc('lib')//@*)"), "4");
    assert_eq!(run_query(&fx, "string(doc('lib')/r/item[@n = 2])"), "y");
    assert_eq!(run_query(&fx, "count(doc('lib')/r/*)"), "2");
}

#[test]
fn set_operations() {
    let fx = fixture(LIBRARY);
    assert_eq!(
        run_query(
            &fx,
            "count(doc('lib')//book/title union doc('lib')//paper/title)"
        ),
        "3"
    );
    assert_eq!(
        run_query(
            &fx,
            "count(doc('lib')//title intersect doc('lib')//book/title)"
        ),
        "2"
    );
    assert_eq!(
        run_query(
            &fx,
            "count(doc('lib')//title except doc('lib')//book/title)"
        ),
        "1"
    );
}

#[test]
fn constructors_build_new_nodes() {
    let fx = fixture(LIBRARY);
    let out = run_query(
        &fx,
        r#"<summary count="{count(doc('lib')//book)}">{doc('lib')//paper/title}</summary>"#,
    );
    assert_eq!(
        out,
        r#"<summary count="2"><title>A Relational Model for Large Shared Data Banks</title></summary>"#
    );
    let out = run_query(&fx, "<a><b>{1 + 1}</b></a>");
    assert_eq!(out, "<a><b>2</b></a>");
}

#[test]
fn text_constructor_and_atoms_in_content() {
    let fx = fixture(LIBRARY);
    assert_eq!(run_query(&fx, "text { 'plain' }"), "plain");
    assert_eq!(run_query(&fx, "<x>{(1, 2, 3)}</x>"), "<x>1 2 3</x>");
}

#[test]
fn user_functions_and_variables() {
    let fx = fixture(LIBRARY);
    let out = run_query(
        &fx,
        "declare variable $inc := 10; declare function local:add($x) { $x + $inc }; local:add(5)",
    );
    assert_eq!(out, "15");
    // Recursion.
    let out = run_query(
        &fx,
        "declare function local:fact($n) { if ($n le 1) then 1 else $n * local:fact($n - 1) }; local:fact(6)",
    );
    assert_eq!(out, "720");
}

#[test]
fn general_vs_value_comparison() {
    let fx = fixture(LIBRARY);
    // General comparison is existential over sequences.
    assert_eq!(run_query(&fx, "doc('lib')//author = 'Codd'"), "true");
    assert_eq!(run_query(&fx, "(1, 2, 3) = 3"), "true");
    assert_eq!(run_query(&fx, "(1, 2, 3) = 9"), "false");
    // Value comparison requires singletons.
    assert_eq!(run_query(&fx, "2 eq 2"), "true");
}

#[test]
fn range_and_nested_flwor() {
    let fx = fixture(LIBRARY);
    assert_eq!(run_query(&fx, "count(1 to 100)"), "100");
    assert_eq!(
        run_query(&fx, "for $i in 1 to 3 for $j in 1 to 2 return $i * 10 + $j"),
        "11 12 21 22 31 32"
    );
}

#[test]
fn filter_expressions() {
    let fx = fixture(LIBRARY);
    assert_eq!(run_query(&fx, "(10, 20, 30)[2]"), "20");
    assert_eq!(run_query(&fx, "(1, 2, 3, 4)[. > 2]"), "3 4");
}

#[test]
fn update_insert_into() {
    let mut fx = fixture(LIBRARY);
    let n = run_update(
        &mut fx,
        "UPDATE insert <author>Newcomer</author> into doc('lib')/library/paper",
    );
    assert_eq!(n, 1);
    assert_eq!(
        run_query(&fx, "string(doc('lib')//paper/author[2])"),
        "Newcomer"
    );
}

#[test]
fn update_insert_following_preceding() {
    let mut fx = fixture(LIBRARY);
    run_update(
        &mut fx,
        "UPDATE insert <author>Middle</author> following doc('lib')/library/book[1]/author[1]",
    );
    let out = run_query(&fx, "doc('lib')/library/book[1]/author");
    assert_eq!(
        out,
        "<author>Abiteboul</author><author>Middle</author><author>Hull</author><author>Vianu</author>"
    );
    run_update(
        &mut fx,
        "UPDATE insert <author>First</author> preceding doc('lib')/library/book[1]/author[1]",
    );
    assert_eq!(
        run_query(&fx, "string(doc('lib')/library/book[1]/author[1])"),
        "First"
    );
}

#[test]
fn update_delete() {
    let mut fx = fixture(LIBRARY);
    let n = run_update(&mut fx, "UPDATE delete doc('lib')//book[2]");
    assert_eq!(n, 1);
    assert_eq!(run_query(&fx, "count(doc('lib')//book)"), "1");
    assert_eq!(run_query(&fx, "count(doc('lib')//paper)"), "1");
}

#[test]
fn update_replace_value() {
    let mut fx = fixture(LIBRARY);
    run_update(
        &mut fx,
        "UPDATE replace value of doc('lib')//issue/year with '2005'",
    );
    assert_eq!(run_query(&fx, "string(doc('lib')//issue/year)"), "2005");
}

#[test]
fn update_inserts_subtrees() {
    let mut fx = fixture(LIBRARY);
    run_update(
        &mut fx,
        "UPDATE insert <review score=\"5\"><by>Reader</by><text>Great</text></review> into doc('lib')/library/book[1]",
    );
    assert_eq!(
        run_query(&fx, "doc('lib')//review"),
        r#"<review score="5"><by>Reader</by><text>Great</text></review>"#
    );
    assert_eq!(run_query(&fx, "string(doc('lib')//review/@score)"), "5");
}

#[test]
fn construct_modes_produce_identical_output() {
    let fx = fixture(LIBRARY);
    let q = "<wrap>{doc('lib')//paper}</wrap>";
    let stmt = compile(q).unwrap();
    let db = Database {
        vas: &fx.vas,
        docs: vec![DocEntry {
            name: "lib".into(),
            schema: &fx.schema,
            doc: &fx.doc,
        }],
        indexes: vec![],
    };
    let mut outs = Vec::new();
    let mut copies = Vec::new();
    for mode in [
        ConstructMode::DeepCopy,
        ConstructMode::Embedded,
        ConstructMode::Virtual,
    ] {
        let mut ex = Executor::new(&db, &stmt, mode);
        let r = ex.run().unwrap();
        outs.push(ex.serialize_sequence(&r).unwrap());
        copies.push(ex.stats.ctor_copies);
    }
    assert_eq!(outs[0], outs[1]);
    assert_eq!(outs[1], outs[2]);
    // Virtual never copies; deep copy copies the whole paper subtree.
    assert_eq!(copies[2], 0, "virtual mode must not copy");
    assert!(copies[0] > 0, "deep-copy mode must copy");
}

#[test]
fn structural_path_matches_naive_path() {
    let fx = fixture(LIBRARY);
    // Compiled (structural) vs suppressed-rewrites execution must agree.
    let q = "doc('lib')/library/book/author";
    let stmt_opt = compile(q).unwrap();
    let stmt_raw = {
        let s = sedna_xquery::parser::parse_statement(q).unwrap();
        let s = sedna_xquery::static_ctx::analyze(s).unwrap();
        let (s, _) = sedna_xquery::rewrite::rewrite_with(
            s,
            sedna_xquery::rewrite::RewriteOptions {
                remove_ddo: false,
                combine_descendant: false,
                lazy_invariants: false,
                structural_paths: false,
                inline_functions: false,
            },
        );
        s
    };
    let db = Database {
        vas: &fx.vas,
        docs: vec![DocEntry {
            name: "lib".into(),
            schema: &fx.schema,
            doc: &fx.doc,
        }],
        indexes: vec![],
    };
    let mut ex1 = Executor::new(&db, &stmt_opt, ConstructMode::Embedded);
    let r1 = ex1.run().unwrap();
    let out1 = ex1.serialize_sequence(&r1).unwrap();
    let mut ex2 = Executor::new(&db, &stmt_raw, ConstructMode::Embedded);
    let r2 = ex2.run().unwrap();
    let out2 = ex2.serialize_sequence(&r2).unwrap();
    assert_eq!(out1, out2);
    // And the structural variant touched far fewer nodes.
    assert!(
        ex1.stats.nodes_scanned <= ex2.stats.nodes_scanned,
        "structural {} vs naive {}",
        ex1.stats.nodes_scanned,
        ex2.stats.nodes_scanned
    );
}

#[test]
fn dynamic_errors_reported() {
    let fx = fixture(LIBRARY);
    let stmt = compile("doc('missing')/a").unwrap();
    let db = Database {
        vas: &fx.vas,
        docs: vec![DocEntry {
            name: "lib".into(),
            schema: &fx.schema,
            doc: &fx.doc,
        }],
        indexes: vec![],
    };
    let mut ex = Executor::new(&db, &stmt, ConstructMode::Embedded);
    assert!(ex.run().is_err());
}
