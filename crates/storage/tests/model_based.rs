//! Model-based testing of the document store: random sequences of
//! structural updates run against both the schema-clustered storage and a
//! trivial in-memory reference tree; after every operation the two must
//! serialize identically, and the storage invariants (label order, handle
//! stability, child-slot consistency) must hold.

use sedna_sas::{Sas, SasConfig, TxnToken, Vas, View, XPtr};
use sedna_schema::{NodeKind, SchemaName, SchemaTree};
use sedna_storage::{DocStorage, NodeRef, ParentMode};
use sedna_workload::{run_cases, SmallRng};

// ---------------------------------------------------------------------
// Reference model
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct RefNode {
    kind: NodeKind,
    name: Option<String>,
    value: String,
    children: Vec<usize>,
    alive: bool,
}

struct Model {
    nodes: Vec<RefNode>,
}

impl Model {
    fn new() -> Model {
        Model {
            nodes: vec![RefNode {
                kind: NodeKind::Document,
                name: None,
                value: String::new(),
                children: Vec::new(),
                alive: true,
            }],
        }
    }

    fn live_elements(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| {
                self.nodes[i].alive
                    && matches!(self.nodes[i].kind, NodeKind::Element | NodeKind::Document)
            })
            .collect()
    }

    fn live_non_root(&self) -> Vec<usize> {
        (1..self.nodes.len())
            .filter(|&i| self.nodes[i].alive)
            .collect()
    }

    fn live_texts(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].alive && self.nodes[i].kind == NodeKind::Text)
            .collect()
    }

    fn insert(
        &mut self,
        parent: usize,
        pos: usize,
        kind: NodeKind,
        name: Option<String>,
        value: String,
    ) -> usize {
        let id = self.nodes.len();
        self.nodes.push(RefNode {
            kind,
            name,
            value,
            children: Vec::new(),
            alive: true,
        });
        let pos = pos.min(self.nodes[parent].children.len());
        self.nodes[parent].children.insert(pos, id);
        id
    }

    fn delete(&mut self, node: usize) {
        // Remove from its parent and mark the subtree dead.
        for n in self.nodes.iter_mut() {
            n.children.retain(|&c| c != node);
        }
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            self.nodes[n].alive = false;
            stack.extend(self.nodes[n].children.clone());
        }
    }

    fn serialize(&self, node: usize, out: &mut String) {
        let n = &self.nodes[node];
        match n.kind {
            NodeKind::Document => {
                for &c in &n.children {
                    self.serialize(c, out);
                }
            }
            NodeKind::Element => {
                let name = n.name.as_deref().unwrap();
                out.push('<');
                out.push_str(name);
                if n.children.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for &c in &n.children {
                        self.serialize(c, out);
                    }
                    out.push_str("</");
                    out.push_str(name);
                    out.push('>');
                }
            }
            NodeKind::Text => out.push_str(&n.value),
            _ => unreachable!("model uses only document/element/text"),
        }
    }
}

// ---------------------------------------------------------------------
// Storage-side serializer and invariant checks
// ---------------------------------------------------------------------

fn serialize_stored(vas: &Vas, schema: &SchemaTree, node: NodeRef, out: &mut String) {
    match node.kind(vas).unwrap() {
        NodeKind::Document => {
            for c in node.children(vas).unwrap() {
                serialize_stored(vas, schema, c, out);
            }
        }
        NodeKind::Element => {
            let sid = node.schema(vas).unwrap();
            let name = schema.node(sid).name.as_ref().unwrap().local.clone();
            out.push('<');
            out.push_str(&name);
            let kids = node.children(vas).unwrap();
            if kids.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                for c in kids {
                    serialize_stored(vas, schema, c, out);
                }
                out.push_str("</");
                out.push_str(&name);
                out.push('>');
            }
        }
        NodeKind::Text => out.push_str(&node.value_string(vas).unwrap()),
        other => panic!("unexpected kind {other:?}"),
    }
}

/// Labels along any traversal must strictly ascend in document order, and
/// every node's handle must dereference back to it.
fn check_invariants(vas: &Vas, node: NodeRef, prev: &mut Option<sedna_numbering::Label>) {
    let label = node.label(vas).unwrap();
    if let Some(p) = prev {
        assert_eq!(
            p.doc_cmp(&label),
            sedna_numbering::DocOrder::Before,
            "document order violated"
        );
    }
    *prev = Some(label);
    let handle = node.handle(vas).unwrap();
    let back = sedna_storage::indirection::deref_handle(vas, handle).unwrap();
    assert_eq!(back, node.ptr(), "handle must dereference to the node");
    for c in node.children(vas).unwrap() {
        check_invariants(vas, c, prev);
    }
}

// ---------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    /// Insert an element under the i-th live element at child position p.
    InsertElement {
        parent_sel: usize,
        pos: usize,
        name_sel: usize,
    },
    /// Insert a text node under the i-th live element.
    InsertText {
        parent_sel: usize,
        pos: usize,
        value: String,
    },
    /// Delete the i-th live non-root node (whole subtree).
    Delete { node_sel: usize },
    /// Replace the value of the i-th live text node.
    SetValue { node_sel: usize, value: String },
}

/// A random lowercase string of at most `max_len` letters.
fn lowercase(rng: &mut SmallRng, max_len: usize) -> String {
    (0..rng.gen_range(0..=max_len))
        .map(|_| rng.gen_range(b'a'..=b'z') as char)
        .collect()
}

/// One random operation: inserts weigh 3, deletes and value changes 1.
fn arb_op(rng: &mut SmallRng) -> Op {
    let sel = |rng: &mut SmallRng| rng.next_u64() as usize;
    match rng.gen_range(0..8) {
        0..=2 => Op::InsertElement {
            parent_sel: sel(rng),
            pos: rng.gen_range(0..6),
            name_sel: rng.gen_range(0..5),
        },
        3..=5 => Op::InsertText {
            parent_sel: sel(rng),
            pos: rng.gen_range(0..6),
            value: lowercase(rng, 12),
        },
        6 => Op::Delete { node_sel: sel(rng) },
        _ => Op::SetValue {
            node_sel: sel(rng),
            value: lowercase(rng, 20),
        },
    }
}

/// Between 1 and `max_ops - 1` random operations.
fn arb_ops(rng: &mut SmallRng, max_ops: usize) -> Vec<Op> {
    (0..rng.gen_range(1..max_ops))
        .map(|_| arb_op(rng))
        .collect()
}

const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

fn run_model(ops: Vec<Op>, mode: ParentMode, page_size: usize) {
    let sas = Sas::in_memory(SasConfig {
        page_size,
        layer_size: page_size as u64 * 8192,
        buffer_frames: 8192,
    })
    .unwrap();
    let vas = sas.session();
    vas.begin(View::LATEST, Some(TxnToken(1)));
    let mut schema = SchemaTree::new();
    let mut doc = DocStorage::create(&vas, &mut schema, mode).unwrap();
    let mut model = Model::new();
    // model node id -> storage handle
    let mut handles: Vec<Option<XPtr>> = vec![Some(doc.doc_handle)];

    for op in ops {
        match op {
            Op::InsertElement {
                parent_sel,
                pos,
                name_sel,
            } => {
                let parents = model.live_elements();
                let parent = parents[parent_sel % parents.len()];
                let siblings = model.nodes[parent].children.clone();
                let pos = pos.min(siblings.len());
                let name = NAMES[name_sel % NAMES.len()];
                let left = pos.checked_sub(1).map(|i| handles[siblings[i]].unwrap());
                let right = siblings.get(pos).map(|&i| handles[i].unwrap());
                let h = doc
                    .insert_node(
                        &vas,
                        &mut schema,
                        handles[parent].unwrap(),
                        left,
                        right,
                        NodeKind::Element,
                        Some(SchemaName::local(name)),
                        None,
                    )
                    .unwrap();
                let id = model.insert(
                    parent,
                    pos,
                    NodeKind::Element,
                    Some(name.into()),
                    String::new(),
                );
                assert_eq!(id, handles.len());
                handles.push(Some(h));
            }
            Op::InsertText {
                parent_sel,
                pos,
                value,
            } => {
                let parents = model.live_elements();
                let parent = parents[parent_sel % parents.len()];
                // The document node only takes elements in this model.
                if model.nodes[parent].kind == NodeKind::Document {
                    continue;
                }
                let siblings = model.nodes[parent].children.clone();
                let pos = pos.min(siblings.len());
                let left = pos.checked_sub(1).map(|i| handles[siblings[i]].unwrap());
                let right = siblings.get(pos).map(|&i| handles[i].unwrap());
                let h = doc
                    .insert_node(
                        &vas,
                        &mut schema,
                        handles[parent].unwrap(),
                        left,
                        right,
                        NodeKind::Text,
                        None,
                        Some(value.as_bytes()),
                    )
                    .unwrap();
                let id = model.insert(parent, pos, NodeKind::Text, None, value);
                assert_eq!(id, handles.len());
                handles.push(Some(h));
            }
            Op::Delete { node_sel } => {
                let candidates = model.live_non_root();
                if candidates.is_empty() {
                    continue;
                }
                let node = candidates[node_sel % candidates.len()];
                doc.delete_subtree(&vas, &mut schema, handles[node].unwrap())
                    .unwrap();
                model.delete(node);
            }
            Op::SetValue { node_sel, value } => {
                let texts = model.live_texts();
                if texts.is_empty() {
                    continue;
                }
                let node = texts[node_sel % texts.len()];
                doc.set_value(&vas, &mut schema, handles[node].unwrap(), value.as_bytes())
                    .unwrap();
                model.nodes[node].value = value;
            }
        }
        // Compare serializations after every operation.
        let mut want = String::new();
        model.serialize(0, &mut want);
        let mut got = String::new();
        serialize_stored(&vas, &schema, doc.doc_node(&vas).unwrap(), &mut got);
        assert_eq!(got, want, "storage diverged from the model");
    }
    // Final invariant sweep.
    let mut prev = None;
    check_invariants(&vas, doc.doc_node(&vas).unwrap(), &mut prev);
}

#[test]
fn prop_random_updates_match_model_indirect() {
    run_cases(48, |rng| {
        run_model(arb_ops(rng, 60), ParentMode::Indirect, 1024)
    });
}

#[test]
fn prop_random_updates_match_model_direct() {
    run_cases(48, |rng| {
        run_model(arb_ops(rng, 60), ParentMode::Direct, 1024)
    });
}

#[test]
fn prop_random_updates_tiny_pages() {
    // 512-byte pages: every few inserts split a block.
    run_cases(48, |rng| {
        run_model(arb_ops(rng, 40), ParentMode::Indirect, 512)
    });
}

/// A once-failing random case, kept verbatim: nested inserts under
/// fresh elements interleaved with subtree deletes.
#[test]
fn regression_nested_inserts_with_deletes() {
    use Op::{Delete, InsertElement, InsertText};
    #[rustfmt::skip]
    let ops = || vec![
        InsertElement { parent_sel: 0, pos: 1, name_sel: 1 },
        InsertElement { parent_sel: 14628902898811328387, pos: 3, name_sel: 0 },
        InsertElement { parent_sel: 10177479877540594623, pos: 4, name_sel: 3 },
        InsertElement { parent_sel: 264434995549700187, pos: 1, name_sel: 2 },
        InsertText { parent_sel: 2377004585304484287, pos: 0, value: "qattlougcq".into() },
        Delete { node_sel: 2683942946615340687 },
        InsertElement { parent_sel: 11697152541846694589, pos: 2, name_sel: 3 },
        InsertElement { parent_sel: 17517642042663112936, pos: 1, name_sel: 3 },
        InsertElement { parent_sel: 3304823144549848524, pos: 3, name_sel: 4 },
        InsertText { parent_sel: 12186911640823431083, pos: 4, value: "bwpmxmvfbn".into() },
        InsertText { parent_sel: 4602827221008385946, pos: 1, value: "ljxf".into() },
        InsertText { parent_sel: 2977960008106132569, pos: 0, value: "esjgczqxqsw".into() },
        InsertElement { parent_sel: 1451289736312442316, pos: 2, name_sel: 0 },
        Delete { node_sel: 2645027674929702790 },
        InsertElement { parent_sel: 3191159179484695912, pos: 2, name_sel: 4 },
        Delete { node_sel: 6603649958094688790 },
        InsertElement { parent_sel: 10496897158460316558, pos: 1, name_sel: 0 },
        InsertElement { parent_sel: 7415375363238574124, pos: 0, name_sel: 2 },
        Delete { node_sel: 17656060666546855245 },
    ];
    run_model(ops(), ParentMode::Indirect, 1024);
    run_model(ops(), ParentMode::Direct, 1024);
    run_model(ops(), ParentMode::Indirect, 512);
}

/// A long deterministic soak: thousands of mixed operations.
#[test]
fn soak_mixed_operations() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let ops = (0..1500).map(|_| arb_op(&mut rng)).collect();
    run_model(ops, ParentMode::Indirect, 1024);
}
