//! F3 — Figure 3 invariants: the node descriptor carries the label, the
//! immutable node handle, left/right sibling direct pointers,
//! next/prev-in-block links, the **indirect** parent pointer, and child
//! pointers only to the first child per child schema node; descriptors
//! are fixed-size within a block with the width in the block header.

use std::sync::Arc;

use sedna_numbering::DocOrder;
use sedna_sas::{Sas, SasConfig, TxnToken, Vas, View};
use sedna_schema::{NodeKind, SchemaName, SchemaTree};
use sedna_storage::build::load_xml;
use sedna_storage::{block, indirection, layout, DocStorage, ParentMode};

const FIG2: &str = "<library><book><title>Foundations of Databases</title><author>Abiteboul</author><author>Hull</author><author>Vianu</author></book><book><title>An Introduction to Database Systems</title><author>Date</author><issue><publisher>Addison-Wesley</publisher><year>2004</year></issue></book><paper><title>A Relational Model for Large Shared Data Banks</title><author>Codd</author></paper></library>";

fn setup(xml: &str) -> (Arc<Sas>, Vas, SchemaTree, DocStorage) {
    let sas = Sas::in_memory(SasConfig {
        page_size: 4096,
        layer_size: 4096 * 4096,
        buffer_frames: 4096,
    })
    .unwrap();
    let vas = sas.session();
    vas.begin(View::LATEST, Some(TxnToken(1)));
    let mut schema = SchemaTree::new();
    let doc = load_xml(&vas, &mut schema, ParentMode::Indirect, xml).unwrap();
    (sas, vas, schema, doc)
}

#[test]
fn descriptor_has_all_figure3_fields() {
    let (_sas, vas, schema, doc) = setup(FIG2);
    let root = doc.root_element(&vas).unwrap().unwrap();
    let books = root.children_by_schema(&vas, 0).unwrap();
    let book1 = books[0];
    // label
    let label = book1.label(&vas).unwrap();
    assert!(root.label(&vas).unwrap().is_ancestor_of(&label));
    // node handle (indirection entry pointing back at the descriptor)
    let handle = book1.handle(&vas).unwrap();
    assert_eq!(
        indirection::deref_handle(&vas, handle).unwrap(),
        book1.ptr()
    );
    // indirect parent: the raw field stores the PARENT'S HANDLE, not its
    // descriptor address.
    let parent_field = book1.parent_handle(&vas).unwrap();
    assert_eq!(parent_field, root.handle(&vas).unwrap());
    assert_ne!(parent_field, root.ptr());
    // left/right siblings are direct pointers.
    let book2 = books[1];
    assert_eq!(
        book1.right_sibling(&vas).unwrap().unwrap().ptr(),
        book2.ptr()
    );
    assert_eq!(
        book2.left_sibling(&vas).unwrap().unwrap().ptr(),
        book1.ptr()
    );
    // children: only the FIRST child per child schema node is pointed to.
    let book_sid = book1.schema(&vas).unwrap();
    let author_sid = schema
        .find_child(
            book_sid,
            NodeKind::Element,
            Some(&SchemaName::local("author")),
        )
        .unwrap();
    let slot = schema.child_slot(book_sid, author_sid).unwrap();
    let head = book1.child_head(&vas, slot).unwrap().unwrap();
    assert_eq!(head.string_value(&vas, &schema).unwrap(), "Abiteboul");
    // The other authors are reached via next-in-block/next-in-list, not
    // via more child pointers.
    let authors = book1.children_by_schema(&vas, slot).unwrap();
    assert_eq!(authors.len(), 3);
}

#[test]
fn descriptors_fixed_size_within_block_width_in_header() {
    let (_sas, vas, schema, doc) = setup(FIG2);
    let root = doc.root_element(&vas).unwrap().unwrap();
    let blk = root.ptr().page(4096);
    let page = vas.read(blk).unwrap();
    let width = block::child_slots(&page);
    let dsize = block::block_desc_size(&page);
    assert_eq!(
        dsize as usize,
        layout::desc_size(width),
        "descriptor size must be the fixed function of the header width"
    );
    // Width covers at least the library's current child schemas.
    let lib_sid = root.schema(&vas).unwrap();
    assert!(width as usize >= schema.child_count(lib_sid));
}

#[test]
fn handle_is_immutable_across_physical_moves() {
    // Force widening relocations by adding many distinct child schemas.
    let (_sas, vas, mut schema, mut doc) = setup("<row/>");
    let row = doc.root_element(&vas).unwrap().unwrap();
    let handle = row.handle(&vas).unwrap();
    let original_ptr = row.ptr();
    let mut last = None;
    for i in 0..10 {
        let h = doc
            .insert_node(
                &vas,
                &mut schema,
                handle,
                last,
                None,
                NodeKind::Element,
                Some(SchemaName::local(format!("c{i}"))),
                None,
            )
            .unwrap();
        last = Some(h);
    }
    let now_ptr = indirection::deref_handle(&vas, handle).unwrap();
    assert_ne!(now_ptr, original_ptr, "the descriptor physically moved");
    // The handle still identifies the same logical node.
    let row_now = doc.root_element(&vas).unwrap().unwrap();
    assert_eq!(row_now.ptr(), now_ptr);
    assert_eq!(row_now.handle(&vas).unwrap(), handle);
    assert_eq!(row_now.children(&vas).unwrap().len(), 10);
}

#[test]
fn in_block_links_reconstruct_document_order() {
    let (_sas, vas, _schema, doc) = setup(FIG2);
    let root = doc.root_element(&vas).unwrap().unwrap();
    let books = root.children_by_schema(&vas, 0).unwrap();
    // next_in_list follows the in-block chain: labels ascend.
    let mut cur = Some(books[0]);
    let mut labels = Vec::new();
    while let Some(n) = cur {
        labels.push(n.label(&vas).unwrap());
        cur = n.next_in_list(&vas).unwrap();
    }
    assert_eq!(labels.len(), 2);
    assert_eq!(labels[0].doc_cmp(&labels[1]), DocOrder::Before);
    // And prev_in_list walks back.
    let back = books[1].prev_in_list(&vas).unwrap().unwrap();
    assert_eq!(back.ptr(), books[0].ptr());
}

#[test]
fn value_is_separated_from_structure() {
    // Text values live in slotted text blocks, not inside descriptors:
    // the descriptor's value field is a pointer into a text block.
    let (_sas, vas, _schema, doc) = setup(FIG2);
    let root = doc.root_element(&vas).unwrap().unwrap();
    let title_text = root.children(&vas).unwrap()[0] // book 1
        .children(&vas)
        .unwrap()[0] // title
        .children(&vas)
        .unwrap()[0]; // text node
    assert_eq!(title_text.kind(&vas).unwrap(), NodeKind::Text);
    let vref = title_text.value_ref(&vas).unwrap();
    assert!(!vref.is_null());
    // The pointed-to page is a text block, different from the node block.
    let vpage = vas.read(vref).unwrap();
    assert_eq!(vpage[16], layout::KIND_TEXT_BLOCK);
    assert_ne!(vref.page(4096), title_text.ptr().page(4096));
    assert_eq!(
        title_text.value_string(&vas).unwrap(),
        "Foundations of Databases"
    );
}
