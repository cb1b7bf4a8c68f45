//! End-to-end tests of the schema-clustered document store: bulk load,
//! navigation, mid-document updates, block splits, delayed widening,
//! label spill, and the direct-parent baseline.

use std::sync::Arc;

use sedna_numbering::DocOrder;
use sedna_sas::{Sas, SasConfig, TxnToken, Vas, View, XPtr};
use sedna_schema::{NodeKind, SchemaName, SchemaTree};
use sedna_storage::build::load_xml;
use sedna_storage::{NodeRef, ParentMode};

const LIBRARY: &str = r#"<library><book><title>Foundations of Databases</title><author>Abiteboul</author><author>Hull</author><author>Vianu</author></book><book><title>An Introduction to Database Systems</title><author>Date</author><issue><publisher>Addison-Wesley</publisher><year>2004</year></issue></book><paper><title>A Relational Model for Large Shared Data Banks</title><author>Codd</author></paper></library>"#;

fn setup(page_size: usize) -> (Arc<Sas>, Vas) {
    let sas = Sas::in_memory(SasConfig {
        page_size,
        layer_size: (page_size * 1024) as u64,
        buffer_frames: 2048,
    })
    .unwrap();
    let vas = sas.session();
    vas.begin(View::LATEST, Some(TxnToken(1)));
    (sas, vas)
}

/// Serializes a stored element back to XML text via NodeRef navigation.
fn serialize(vas: &Vas, schema: &SchemaTree, node: NodeRef) -> String {
    let mut out = String::new();
    write_node(vas, schema, node, &mut out);
    out
}

fn write_node(vas: &Vas, schema: &SchemaTree, node: NodeRef, out: &mut String) {
    let sid = node.schema(vas).unwrap();
    match node.kind(vas).unwrap() {
        NodeKind::Element => {
            let name = schema.node(sid).name.as_ref().unwrap().local.clone();
            out.push('<');
            out.push_str(&name);
            let children = node.children(vas).unwrap();
            let (attrs, others): (Vec<_>, Vec<_>) = children
                .into_iter()
                .partition(|c| c.kind(vas).unwrap() == NodeKind::Attribute);
            for a in &attrs {
                let asid = a.schema(vas).unwrap();
                out.push(' ');
                out.push_str(&schema.node(asid).name.as_ref().unwrap().local);
                out.push_str("=\"");
                out.push_str(&a.value_string(vas).unwrap());
                out.push('"');
            }
            if others.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                for c in others {
                    write_node(vas, schema, c, out);
                }
                out.push_str("</");
                out.push_str(&name);
                out.push('>');
            }
        }
        NodeKind::Text => out.push_str(&node.value_string(vas).unwrap()),
        NodeKind::Comment => {
            out.push_str("<!--");
            out.push_str(&node.value_string(vas).unwrap());
            out.push_str("-->");
        }
        NodeKind::ProcessingInstruction => {
            out.push_str("<?");
            out.push_str(&schema.node(sid).name.as_ref().unwrap().local);
            let data = node.value_string(vas).unwrap();
            if !data.is_empty() {
                out.push(' ');
                out.push_str(&data);
            }
            out.push_str("?>");
        }
        NodeKind::Document => {
            for c in node.children(vas).unwrap() {
                write_node(vas, schema, c, out);
            }
        }
        NodeKind::Attribute => unreachable!("attributes handled by parent"),
    }
}

#[test]
fn figure2_document_round_trips() {
    let (_sas, vas) = setup(4096);
    let mut schema = SchemaTree::new();
    let doc = load_xml(&vas, &mut schema, ParentMode::Indirect, LIBRARY).unwrap();
    let out = serialize(&vas, &schema, doc.doc_node(&vas).unwrap());
    assert_eq!(out, LIBRARY);
}

#[test]
fn figure2_schema_shape() {
    let (_sas, vas) = setup(4096);
    let mut schema = SchemaTree::new();
    let _doc = load_xml(&vas, &mut schema, ParentMode::Indirect, LIBRARY).unwrap();
    // The library element's schema node has exactly two element children
    // (book, paper) — Figure 2's central point.
    let lib = schema
        .find_child(
            SchemaTree::ROOT,
            NodeKind::Element,
            Some(&SchemaName::local("library")),
        )
        .unwrap();
    let elem_children: Vec<_> = schema
        .node(lib)
        .children
        .iter()
        .map(|&c| schema.node(c).name.as_ref().unwrap().local.clone())
        .collect();
    assert_eq!(elem_children, ["book", "paper"]);
    // Two books share one schema node with node_count 2.
    let book = schema
        .find_child(lib, NodeKind::Element, Some(&SchemaName::local("book")))
        .unwrap();
    assert_eq!(schema.node(book).node_count, 2);
    assert!(!schema.node(book).first_block.is_null());
}

#[test]
fn children_by_schema_walks_one_parents_children_only() {
    let (_sas, vas) = setup(4096);
    let mut schema = SchemaTree::new();
    let doc = load_xml(&vas, &mut schema, ParentMode::Indirect, LIBRARY).unwrap();
    let root = doc.root_element(&vas).unwrap().unwrap();
    let books = root.children_by_schema(&vas, 0).unwrap();
    assert_eq!(books.len(), 2);
    // First book: slot for author within book's children.
    let lib = schema
        .find_child(
            SchemaTree::ROOT,
            NodeKind::Element,
            Some(&SchemaName::local("library")),
        )
        .unwrap();
    let book_sid = schema
        .find_child(lib, NodeKind::Element, Some(&SchemaName::local("book")))
        .unwrap();
    let author_sid = schema
        .find_child(
            book_sid,
            NodeKind::Element,
            Some(&SchemaName::local("author")),
        )
        .unwrap();
    let slot = schema.child_slot(book_sid, author_sid).unwrap();
    // Book 1 has 3 authors; book 2 has exactly 1 — the walk must stop at
    // the parent boundary even though all 4 authors share one list.
    let authors1 = books[0].children_by_schema(&vas, slot).unwrap();
    assert_eq!(authors1.len(), 3);
    let authors2 = books[1].children_by_schema(&vas, slot).unwrap();
    assert_eq!(authors2.len(), 1);
    assert_eq!(authors2[0].string_value(&vas, &schema).unwrap(), "Date");
}

#[test]
fn labels_encode_document_order_and_ancestry() {
    let (_sas, vas) = setup(4096);
    let mut schema = SchemaTree::new();
    let doc = load_xml(&vas, &mut schema, ParentMode::Indirect, LIBRARY).unwrap();
    let root = doc.root_element(&vas).unwrap().unwrap();
    let root_label = root.label(&vas).unwrap();
    // Collect all descendants via recursive traversal; labels must be
    // strictly increasing in document order and all under the root label.
    fn collect(vas: &Vas, n: NodeRef, out: &mut Vec<NodeRef>) {
        for c in n.children(vas).unwrap() {
            out.push(c);
            collect(vas, c, out);
        }
    }
    let mut descendants = Vec::new();
    collect(&vas, root, &mut descendants);
    assert!(descendants.len() > 15);
    let labels: Vec<_> = descendants.iter().map(|n| n.label(&vas).unwrap()).collect();
    for w in labels.windows(2) {
        assert_eq!(w[0].doc_cmp(&w[1]), DocOrder::Before);
    }
    for l in &labels {
        assert!(root_label.is_ancestor_of(l));
    }
}

#[test]
fn multi_block_lists_preserve_partial_order() {
    // Tiny pages so that 300 <item> elements need many blocks.
    let (_sas, vas) = setup(1024);
    let mut schema = SchemaTree::new();
    let xml = format!(
        "<root>{}</root>",
        (0..300)
            .map(|i| format!("<item>{i}</item>"))
            .collect::<String>()
    );
    let doc = load_xml(&vas, &mut schema, ParentMode::Indirect, &xml).unwrap();
    let root_sid = schema
        .find_child(
            SchemaTree::ROOT,
            NodeKind::Element,
            Some(&SchemaName::local("root")),
        )
        .unwrap();
    let item_sid = schema
        .find_child(
            root_sid,
            NodeKind::Element,
            Some(&SchemaName::local("item")),
        )
        .unwrap();
    assert!(
        schema.node(item_sid).block_count > 3,
        "expected multiple blocks, got {}",
        schema.node(item_sid).block_count
    );
    // Walk the whole list via next_in_list; labels must ascend.
    let first_blk = schema.node(item_sid).first_block;
    let page = vas.read(first_blk).unwrap();
    let first_slot = {
        use sedna_storage::block;
        let s = block::first_desc(&page);
        let dsz = block::block_desc_size(&page);
        first_blk.offset(block::desc_offset(s, dsz) as u32)
    };
    drop(page);
    let mut cur = Some(NodeRef(first_slot));
    let mut count = 0;
    let mut prev_label: Option<sedna_numbering::Label> = None;
    while let Some(n) = cur {
        let l = n.label(&vas).unwrap();
        if let Some(p) = &prev_label {
            assert_eq!(p.doc_cmp(&l), DocOrder::Before);
        }
        prev_label = Some(l);
        count += 1;
        cur = n.next_in_list(&vas).unwrap();
    }
    assert_eq!(count, 300);
    // And the values are in creation order.
    let root = doc.root_element(&vas).unwrap().unwrap();
    let items = root.children_by_schema(&vas, 0).unwrap();
    assert_eq!(items.len(), 300);
    assert_eq!(items[299].string_value(&vas, &schema).unwrap(), "299");
}

#[test]
fn mid_document_insert_preserves_structure() {
    let (_sas, vas) = setup(4096);
    let mut schema = SchemaTree::new();
    let mut doc = load_xml(&vas, &mut schema, ParentMode::Indirect, LIBRARY).unwrap();
    let root = doc.root_element(&vas).unwrap().unwrap();
    let books = root.children_by_schema(&vas, 0).unwrap();
    let book1 = books[0];
    let kids = book1.children(&vas).unwrap();
    // Insert a new <author>Inserted</author> between Abiteboul and Hull.
    let abiteboul = kids[1];
    let hull = kids[2];
    let parent_handle = book1.handle(&vas).unwrap();
    let new_handle = doc
        .insert_node(
            &vas,
            &mut schema,
            parent_handle,
            Some(abiteboul.handle(&vas).unwrap()),
            Some(hull.handle(&vas).unwrap()),
            NodeKind::Element,
            Some(SchemaName::local("author")),
            None,
        )
        .unwrap();
    // Give it a text child.
    doc.insert_node(
        &vas,
        &mut schema,
        new_handle,
        None,
        None,
        NodeKind::Text,
        None,
        Some(b"Inserted"),
    )
    .unwrap();
    let out = serialize(&vas, &schema, doc.doc_node(&vas).unwrap());
    assert!(
        out.contains("<author>Abiteboul</author><author>Inserted</author><author>Hull</author>"),
        "got: {out}"
    );
    // Document order of the new node sits between its siblings.
    let la = abiteboul.label(&vas).unwrap();
    let ln = NodeRef(sedna_storage::indirection::deref_handle(&vas, new_handle).unwrap())
        .label(&vas)
        .unwrap();
    let lh = hull.label(&vas).unwrap();
    assert_eq!(la.doc_cmp(&ln), DocOrder::Before);
    assert_eq!(ln.doc_cmp(&lh), DocOrder::Before);
}

#[test]
fn insert_new_first_child_updates_parent_slot() {
    let (_sas, vas) = setup(4096);
    let mut schema = SchemaTree::new();
    let mut doc = load_xml(&vas, &mut schema, ParentMode::Indirect, LIBRARY).unwrap();
    let root = doc.root_element(&vas).unwrap().unwrap();
    let books = root.children_by_schema(&vas, 0).unwrap();
    let book2 = books[1];
    // book2 currently starts with <title>; prepend a brand-new <isbn/>
    // element — a NEW schema child of book, so the parent descriptor may
    // need widening (delayed per-block widening path).
    let first = book2.children(&vas).unwrap()[0];
    let h = doc
        .insert_node(
            &vas,
            &mut schema,
            book2.handle(&vas).unwrap(),
            None,
            Some(first.handle(&vas).unwrap()),
            NodeKind::Element,
            Some(SchemaName::local("isbn")),
            None,
        )
        .unwrap();
    doc.insert_node(
        &vas,
        &mut schema,
        h,
        None,
        None,
        NodeKind::Text,
        None,
        Some(b"0-321"),
    )
    .unwrap();
    let out = serialize(&vas, &schema, doc.doc_node(&vas).unwrap());
    assert!(
        out.contains("<book><isbn>0-321</isbn><title>An Introduction"),
        "got: {out}"
    );
    // The other book is untouched.
    assert!(out.contains("<book><title>Foundations"));
}

#[test]
fn widening_relocation_keeps_handles_valid() {
    // Element with many distinct child schemas, added one at a time via
    // updates — every new schema child exercises ensure_child_slot.
    let (_sas, vas) = setup(1024);
    let mut schema = SchemaTree::new();
    let mut doc = load_xml(&vas, &mut schema, ParentMode::Indirect, "<row/>").unwrap();
    let row = doc.root_element(&vas).unwrap().unwrap();
    let row_handle = row.handle(&vas).unwrap();
    let mut last: Option<XPtr> = None;
    for i in 0..12 {
        let h = doc
            .insert_node(
                &vas,
                &mut schema,
                row_handle,
                last,
                None,
                NodeKind::Element,
                Some(SchemaName::local(format!("col{i}"))),
                None,
            )
            .unwrap();
        doc.insert_node(
            &vas,
            &mut schema,
            h,
            None,
            None,
            NodeKind::Text,
            None,
            Some(format!("v{i}").as_bytes()),
        )
        .unwrap();
        last = Some(h);
    }
    // The row element moved several times; its handle still resolves and
    // every child is reachable in order.
    let row = doc.root_element(&vas).unwrap().unwrap();
    assert_eq!(row.handle(&vas).unwrap(), row_handle);
    let kids = row.children(&vas).unwrap();
    assert_eq!(kids.len(), 12);
    for (i, k) in kids.iter().enumerate() {
        assert_eq!(k.string_value(&vas, &schema).unwrap(), format!("v{i}"));
        // Parent pointers (indirect) still reach the row.
        let p = k.parent(&vas, ParentMode::Indirect).unwrap().unwrap();
        assert_eq!(p.handle(&vas).unwrap(), row_handle);
    }
    assert!(doc.stats.descriptors_moved > 0, "widening must relocate");
}

#[test]
fn split_on_full_block_mid_insert() {
    let (_sas, vas) = setup(1024);
    let mut schema = SchemaTree::new();
    let xml = format!(
        "<root>{}</root>",
        (0..40)
            .map(|i| format!("<item>{i}</item>"))
            .collect::<String>()
    );
    let mut doc = load_xml(&vas, &mut schema, ParentMode::Indirect, &xml).unwrap();
    let root = doc.root_element(&vas).unwrap().unwrap();
    let root_handle = root.handle(&vas).unwrap();
    // Repeatedly insert right after item 0 — the first block must split.
    let items = root.children_by_schema(&vas, 0).unwrap();
    let mut left = items[0].handle(&vas).unwrap();
    let right0 = items[1].handle(&vas).unwrap();
    let splits_before = doc.stats.splits;
    for i in 0..30 {
        let h = doc
            .insert_node(
                &vas,
                &mut schema,
                root_handle,
                Some(left),
                Some(right0),
                NodeKind::Element,
                Some(SchemaName::local("item")),
                None,
            )
            .unwrap();
        doc.insert_node(
            &vas,
            &mut schema,
            h,
            None,
            None,
            NodeKind::Text,
            None,
            Some(format!("new{i}").as_bytes()),
        )
        .unwrap();
        left = h;
    }
    assert!(
        doc.stats.splits > splits_before,
        "inserts must split blocks"
    );
    // Structure check: 70 items, values in order.
    let root = doc.root_element(&vas).unwrap().unwrap();
    let items = root.children_by_schema(&vas, 0).unwrap();
    assert_eq!(items.len(), 70);
    assert_eq!(items[0].string_value(&vas, &schema).unwrap(), "0");
    assert_eq!(items[1].string_value(&vas, &schema).unwrap(), "new0");
    assert_eq!(items[30].string_value(&vas, &schema).unwrap(), "new29");
    assert_eq!(items[31].string_value(&vas, &schema).unwrap(), "1");
    assert_eq!(items[69].string_value(&vas, &schema).unwrap(), "39");
    // Labels still strictly ascend.
    let labels: Vec<_> = items.iter().map(|n| n.label(&vas).unwrap()).collect();
    for w in labels.windows(2) {
        assert_eq!(w[0].doc_cmp(&w[1]), DocOrder::Before);
    }
}

#[test]
fn delete_subtree_relinks_and_frees() {
    let (_sas, vas) = setup(4096);
    let mut schema = SchemaTree::new();
    let mut doc = load_xml(&vas, &mut schema, ParentMode::Indirect, LIBRARY).unwrap();
    let root = doc.root_element(&vas).unwrap().unwrap();
    let books = root.children_by_schema(&vas, 0).unwrap();
    let book1_handle = books[0].handle(&vas).unwrap();
    doc.delete_subtree(&vas, &mut schema, book1_handle).unwrap();
    let out = serialize(&vas, &schema, doc.doc_node(&vas).unwrap());
    assert!(!out.contains("Abiteboul"));
    assert!(out.contains("<book><title>An Introduction"));
    assert!(out.contains("<paper>"));
    // Schema counts dropped.
    let lib = schema
        .find_child(
            SchemaTree::ROOT,
            NodeKind::Element,
            Some(&SchemaName::local("library")),
        )
        .unwrap();
    let book_sid = schema
        .find_child(lib, NodeKind::Element, Some(&SchemaName::local("book")))
        .unwrap();
    assert_eq!(schema.node(book_sid).node_count, 1);
    // Deleting the remaining book leaves paper as the only child.
    let root = doc.root_element(&vas).unwrap().unwrap();
    let books = root.children_by_schema(&vas, 0).unwrap();
    assert_eq!(books.len(), 1);
    doc.delete_subtree(&vas, &mut schema, books[0].handle(&vas).unwrap())
        .unwrap();
    assert_eq!(schema.node(book_sid).node_count, 0);
    let out = serialize(&vas, &schema, doc.doc_node(&vas).unwrap());
    assert_eq!(out, "<library><paper><title>A Relational Model for Large Shared Data Banks</title><author>Codd</author></paper></library>");
}

#[test]
fn deep_documents_spill_labels() {
    let (_sas, vas) = setup(4096);
    let mut schema = SchemaTree::new();
    let depth = 40;
    let mut xml = String::new();
    for i in 0..depth {
        xml.push_str(&format!("<d{i}>"));
    }
    xml.push_str("leaf");
    for i in (0..depth).rev() {
        xml.push_str(&format!("</d{i}>"));
    }
    let doc = load_xml(&vas, &mut schema, ParentMode::Indirect, &xml).unwrap();
    // Walk to the leaf text node.
    let mut node = doc.root_element(&vas).unwrap().unwrap();
    let root_label = node.label(&vas).unwrap();
    loop {
        let kids = node.children(&vas).unwrap();
        if kids.is_empty() {
            break;
        }
        node = kids[0];
    }
    assert_eq!(node.kind(&vas).unwrap(), NodeKind::Text);
    let leaf_label = node.label(&vas).unwrap();
    assert!(
        leaf_label.byte_len() > 23,
        "depth-{depth} label should exceed the inline area ({})",
        leaf_label.byte_len()
    );
    assert!(root_label.is_ancestor_of(&leaf_label));
    assert_eq!(node.string_value(&vas, &schema).unwrap(), "leaf");
    // Round trip survives spilled labels.
    let out = serialize(&vas, &schema, doc.doc_node(&vas).unwrap());
    assert!(out.starts_with("<d0><d1>"));
}

#[test]
fn direct_parent_mode_round_trips() {
    let (_sas, vas) = setup(4096);
    let mut schema = SchemaTree::new();
    let doc = load_xml(&vas, &mut schema, ParentMode::Direct, LIBRARY).unwrap();
    let out = serialize(&vas, &schema, doc.doc_node(&vas).unwrap());
    assert_eq!(out, LIBRARY);
    // parent() works in direct mode.
    let root = doc.root_element(&vas).unwrap().unwrap();
    let kid = root.children(&vas).unwrap()[0];
    let p = kid.parent(&vas, ParentMode::Direct).unwrap().unwrap();
    assert_eq!(p.ptr(), root.ptr());
}

#[test]
fn direct_mode_pays_more_pointer_updates_on_moves() {
    // The E4 claim at unit scale: identical split workload, indirect vs
    // direct parent pointers; direct must rewrite each child of every
    // moved element.
    fn run(mode: ParentMode) -> u64 {
        let (_sas, vas) = setup(1024);
        let mut schema = SchemaTree::new();
        // Elements with 8 children each, so moving one costs 8 rewrites in
        // direct mode.
        let xml = format!(
            "<root>{}</root>",
            (0..30)
                .map(|i| format!(
                    "<rec>{}</rec>",
                    (0..8)
                        .map(|j| format!("<f{j}>x{i}</f{j}>"))
                        .collect::<String>()
                ))
                .collect::<String>()
        );
        let mut doc = load_xml(&vas, &mut schema, mode, &xml).unwrap();
        let root = doc.root_element(&vas).unwrap().unwrap();
        let root_handle = root.handle(&vas).unwrap();
        let recs = root.children_by_schema(&vas, 0).unwrap();
        let mut left = recs[0].handle(&vas).unwrap();
        let right = recs[1].handle(&vas).unwrap();
        let base = doc.stats.pointer_updates;
        for _ in 0..20 {
            left = doc
                .insert_node(
                    &vas,
                    &mut schema,
                    root_handle,
                    Some(left),
                    Some(right),
                    NodeKind::Element,
                    Some(SchemaName::local("rec")),
                    None,
                )
                .unwrap();
        }
        assert!(doc.stats.splits > 0);
        doc.stats.pointer_updates - base
    }
    let indirect = run(ParentMode::Indirect);
    let direct = run(ParentMode::Direct);
    assert!(
        direct > indirect,
        "direct parents must cost more pointer updates: direct={direct} indirect={indirect}"
    );
}

#[test]
fn set_value_replaces_text() {
    let (_sas, vas) = setup(4096);
    let mut schema = SchemaTree::new();
    let mut doc = load_xml(&vas, &mut schema, ParentMode::Indirect, "<a><b>old</b></a>").unwrap();
    let root = doc.root_element(&vas).unwrap().unwrap();
    let b = root.children(&vas).unwrap()[0];
    let text = b.children(&vas).unwrap()[0];
    let th = text.handle(&vas).unwrap();
    doc.set_value(
        &vas,
        &mut schema,
        th,
        b"replacement value that is much longer than before",
    )
    .unwrap();
    assert_eq!(
        root.string_value(&vas, &schema).unwrap(),
        "replacement value that is much longer than before"
    );
}

#[test]
fn comments_pis_and_attributes_store_and_navigate() {
    let (_sas, vas) = setup(4096);
    let mut schema = SchemaTree::new();
    let xml = r#"<root a="1" b="two"><!--note--><?pi some data?><x/></root>"#;
    let doc = load_xml(&vas, &mut schema, ParentMode::Indirect, xml).unwrap();
    let out = serialize(&vas, &schema, doc.doc_node(&vas).unwrap());
    assert_eq!(
        out,
        r#"<root a="1" b="two"><!--note--><?pi some data?><x/></root>"#
    );
    let root = doc.root_element(&vas).unwrap().unwrap();
    let kids = root.children(&vas).unwrap();
    assert_eq!(kids.len(), 5); // 2 attrs + comment + pi + x
    assert_eq!(kids[0].kind(&vas).unwrap(), NodeKind::Attribute);
    assert_eq!(kids[2].kind(&vas).unwrap(), NodeKind::Comment);
    assert_eq!(kids[2].value_string(&vas).unwrap(), "note");
    assert_eq!(kids[3].kind(&vas).unwrap(), NodeKind::ProcessingInstruction);
    assert_eq!(kids[3].value_string(&vas).unwrap(), "some data");
}

#[test]
fn sixty_four_kib_pages_work() {
    // Regression: text-block slot offsets are u16; 64 KiB pages must cap
    // the data area rather than wrap to zero.
    let (_sas, vas) = setup(64 * 1024);
    let mut schema = SchemaTree::new();
    let big_text = "x".repeat(50_000);
    let xml = format!("<a><b>{big_text}</b><c>small</c></a>");
    let doc = load_xml(&vas, &mut schema, ParentMode::Indirect, &xml).unwrap();
    let root = doc.root_element(&vas).unwrap().unwrap();
    assert_eq!(root.string_value(&vas, &schema).unwrap().len(), 50_005);
    let out = serialize(&vas, &schema, doc.doc_node(&vas).unwrap());
    assert_eq!(out, xml);
}

#[test]
fn document_node_cannot_be_deleted() {
    let (_sas, vas) = setup(4096);
    let mut schema = SchemaTree::new();
    let mut doc = load_xml(&vas, &mut schema, ParentMode::Indirect, "<a/>").unwrap();
    assert!(doc
        .delete_subtree(&vas, &mut schema, doc.doc_handle)
        .is_err());
}
