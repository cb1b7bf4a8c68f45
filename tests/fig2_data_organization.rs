//! F2 — Figure 2 invariants: the descriptive schema is the relaxed
//! DataGuide of the document (every document path has exactly one schema
//! path); each schema node heads a bidirectional block list; descriptors
//! are partly ordered across the list.

use std::sync::Arc;

use sedna_numbering::DocOrder;
use sedna_sas::{Sas, SasConfig, TxnToken, Vas, View};
use sedna_schema::{NodeKind, SchemaName, SchemaTree};
use sedna_storage::build::load_xml;
use sedna_storage::{block, DocStorage, NodeRef, ParentMode};

const FIG2: &str = "<library><book><title>Foundations of Databases</title><author>Abiteboul</author><author>Hull</author><author>Vianu</author></book><book><title>An Introduction to Database Systems</title><author>Date</author><issue><publisher>Addison-Wesley</publisher><year>2004</year></issue></book><paper><title>A Relational Model for Large Shared Data Banks</title><author>Codd</author></paper></library>";

fn setup(xml: &str, page_size: usize) -> (Arc<Sas>, Vas, SchemaTree, DocStorage) {
    let sas = Sas::in_memory(SasConfig {
        page_size,
        layer_size: page_size as u64 * 4096,
        buffer_frames: 4096,
    })
    .unwrap();
    let vas = sas.session();
    vas.begin(View::LATEST, Some(TxnToken(1)));
    let mut schema = SchemaTree::new();
    let doc = load_xml(&vas, &mut schema, ParentMode::Indirect, xml).unwrap();
    (sas, vas, schema, doc)
}

/// Every path in the document has exactly one path in the schema: walk
/// the stored tree and check each node's root path maps to its schema
/// node, and that no two schema siblings share (kind, name).
#[test]
fn descriptive_schema_is_a_relaxed_dataguide() {
    let (_sas, vas, schema, doc) = setup(FIG2, 4096);
    // Uniqueness of (kind, name) among every schema node's children.
    for id in schema.ids() {
        let children = &schema.node(id).children;
        for (i, &a) in children.iter().enumerate() {
            for &b in &children[i + 1..] {
                let (na, nb) = (schema.node(a), schema.node(b));
                assert!(
                    na.kind != nb.kind || na.name != nb.name,
                    "duplicate schema path under {id:?}"
                );
            }
        }
    }
    // The Figure-2 point: 2 books + 1 paper in the data, but the library
    // schema node has exactly two element children.
    let lib = schema
        .find_child(
            SchemaTree::ROOT,
            NodeKind::Element,
            Some(&SchemaName::local("library")),
        )
        .unwrap();
    assert_eq!(schema.child_count(lib), 2);
    // Data nodes per schema node, as the figure shows.
    let book = schema
        .find_child(lib, NodeKind::Element, Some(&SchemaName::local("book")))
        .unwrap();
    let author = schema
        .find_child(book, NodeKind::Element, Some(&SchemaName::local("author")))
        .unwrap();
    assert_eq!(schema.node(book).node_count, 2);
    assert_eq!(schema.node(author).node_count, 4);
    let _ = doc;
    let _ = vas;
}

/// "Data blocks related to a common schema node are linked via pointers
/// into a bidirectional list."
#[test]
fn block_lists_are_bidirectional() {
    // Small pages force several blocks per schema node.
    let xml = format!(
        "<r>{}</r>",
        (0..200)
            .map(|i| format!("<item>{i}</item>"))
            .collect::<String>()
    );
    let (_sas, vas, schema, _doc) = setup(&xml, 1024);
    let r = schema
        .find_child(
            SchemaTree::ROOT,
            NodeKind::Element,
            Some(&SchemaName::local("r")),
        )
        .unwrap();
    let item = schema
        .find_child(r, NodeKind::Element, Some(&SchemaName::local("item")))
        .unwrap();
    let snode = schema.node(item);
    assert!(snode.block_count >= 2, "need multiple blocks for the test");
    // Forward walk reaches last_block; backward walk returns to first.
    let mut blk = snode.first_block;
    let mut prev = sedna_sas::XPtr::NULL;
    let mut count = 0;
    while !blk.is_null() {
        let page = vas.read(blk).unwrap();
        assert_eq!(block::prev_block(&page), prev, "backward link broken");
        assert_eq!(
            block::schema_of(&page),
            item,
            "block belongs to its schema node"
        );
        prev = blk;
        blk = block::next_block(&page);
        count += 1;
    }
    assert_eq!(prev, snode.last_block);
    assert_eq!(count, snode.block_count);
}

/// "Every node descriptor in the i-th block precedes every node
/// descriptor in the j-th block in document order, if and only if i < j."
#[test]
fn descriptors_are_partly_ordered() {
    let xml = format!(
        "<r>{}</r>",
        (0..300)
            .map(|i| format!("<item>{i}</item>"))
            .collect::<String>()
    );
    let (_sas, vas, schema, _doc) = setup(&xml, 1024);
    let r = schema
        .find_child(
            SchemaTree::ROOT,
            NodeKind::Element,
            Some(&SchemaName::local("r")),
        )
        .unwrap();
    let item = schema
        .find_child(r, NodeKind::Element, Some(&SchemaName::local("item")))
        .unwrap();
    let mut blk = schema.node(item).first_block;
    let mut prev_block_max: Option<sedna_numbering::Label> = None;
    while !blk.is_null() {
        let (first, dsize, next) = {
            let page = vas.read(blk).unwrap();
            (
                block::first_desc(&page),
                block::block_desc_size(&page),
                block::next_block(&page),
            )
        };
        // Collect this block's labels in chain order.
        let mut labels = Vec::new();
        let mut slot = first;
        while slot != sedna_storage::layout::NO_SLOT {
            let off = block::desc_offset(slot, dsize);
            let node = NodeRef(blk.offset(off as u32));
            labels.push(node.label(&vas).unwrap());
            let page = vas.read(blk).unwrap();
            slot = sedna_storage::descriptor::next_in_block(&page, off);
        }
        // Every label in this block follows every label of prior blocks.
        if let Some(pmax) = &prev_block_max {
            for l in &labels {
                assert_eq!(pmax.doc_cmp(l), DocOrder::Before, "partial order violated");
            }
        }
        prev_block_max = labels.into_iter().last().or(prev_block_max);
        blk = next;
    }
}

/// The descriptive schema is maintained incrementally: new paths appear
/// when updates introduce them, existing slots stay stable.
#[test]
fn schema_maintained_incrementally_on_update() {
    let (_sas, vas, mut schema, mut doc) = setup(FIG2, 4096);
    let lib = schema
        .find_child(
            SchemaTree::ROOT,
            NodeKind::Element,
            Some(&SchemaName::local("library")),
        )
        .unwrap();
    let before = schema.len();
    let book_slot_before = schema.child_slot(
        lib,
        schema
            .find_child(lib, NodeKind::Element, Some(&SchemaName::local("book")))
            .unwrap(),
    );
    // Insert a brand-new element type.
    let root = doc.root_element(&vas).unwrap().unwrap();
    let h = root.handle(&vas).unwrap();
    doc.insert_node(
        &vas,
        &mut schema,
        h,
        None,
        None,
        NodeKind::Element,
        Some(SchemaName::local("journal")),
        None,
    )
    .unwrap();
    assert_eq!(schema.len(), before + 1, "one new schema node");
    // Existing slots unchanged (descriptor layout stability).
    let book_slot_after = schema.child_slot(
        lib,
        schema
            .find_child(lib, NodeKind::Element, Some(&SchemaName::local("book")))
            .unwrap(),
    );
    assert_eq!(book_slot_before, book_slot_after);
    // Re-inserting the same path adds nothing.
    let kids = root.children(&vas).unwrap();
    let last = kids.last().unwrap().handle(&vas).unwrap();
    doc.insert_node(
        &vas,
        &mut schema,
        h,
        Some(last),
        None,
        NodeKind::Element,
        Some(SchemaName::local("journal")),
        None,
    )
    .unwrap();
    assert_eq!(schema.len(), before + 1);
}
