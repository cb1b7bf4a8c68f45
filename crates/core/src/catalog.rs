//! The database catalog: named documents and value indexes, with the
//! binary codecs used by checkpoint records and commit-time catalog
//! deltas.
//!
//! The published catalog is an immutable value behind an `Arc`: a
//! snapshot is a pointer copy, and a commit publishes a new root that
//! shares every entry it did not write with the root before it. An update
//! transaction keeps its writes in a private [`CatalogWrites`] map over
//! the published root until it commits.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use sedna_index::{BTreeIndex, IndexKey};
use sedna_sas::{Vas, XPtr};
use sedna_schema::{NodeKind, SchemaNodeId, SchemaTree};
use sedna_storage::{block, DocStorage, NodeRef, ParentMode};
use sedna_sync::Arc;
use sedna_xquery::ast::{Axis, IndexKeyType, NodeTest, Step};
use sedna_xquery::cost::schema_step;

use crate::error::{DbError, DbResult};

/// One document: its descriptive schema and its storage anchors.
#[derive(Clone)]
pub struct DocData {
    /// Stable document id (used by the lock manager).
    pub id: u64,
    /// The descriptive schema.
    pub schema: SchemaTree,
    /// The storage anchors.
    pub storage: DocStorage,
}

/// Metadata of a value index (`CREATE INDEX`).
#[derive(Clone, Debug, PartialEq)]
pub struct IndexMeta {
    /// Index name.
    pub name: String,
    /// Covered document.
    pub doc: String,
    /// Path from the document root selecting indexed nodes.
    pub on: Vec<Step>,
    /// Relative path from an indexed node to its key value.
    pub by: Vec<Step>,
    /// Key type.
    pub key_type: IndexKeyType,
}

/// An index: metadata plus the B+-tree.
#[derive(Clone)]
pub struct IndexData {
    /// Metadata.
    pub meta: IndexMeta,
    /// The tree.
    pub tree: BTreeIndex,
}

/// The catalog. Entries are shared: cloning a catalog copies pointers.
#[derive(Default, Clone)]
pub struct Catalog {
    /// Documents by name.
    pub docs: HashMap<String, Arc<DocData>>,
    /// Indexes by name.
    pub indexes: HashMap<String, Arc<IndexData>>,
    /// Next document id.
    pub next_doc_id: u64,
}

/// An update transaction's private catalog: the entries it wrote, by
/// name, over the published root it reads every other entry from. `None`
/// marks a drop. The first write of an entry copies it out of the root
/// (`Arc::make_mut`); commit logs and publishes the map, rollback drops it.
#[derive(Default)]
pub(crate) struct CatalogWrites {
    docs: BTreeMap<String, Option<Arc<DocData>>>,
    indexes: BTreeMap<String, Option<Arc<IndexData>>>,
}

/// Entry `name` of `root` as seen through `writes`.
fn lookup<'a, T>(
    writes: &'a BTreeMap<String, Option<Arc<T>>>,
    root: &'a HashMap<String, Arc<T>>,
    name: &str,
) -> Option<&'a Arc<T>> {
    match writes.get(name) {
        Some(entry) => entry.as_ref(),
        None => root.get(name),
    }
}

/// The transaction's own copy of entry `name`, copied from `root` on the
/// first write.
fn lookup_mut<'a, T: Clone>(
    writes: &'a mut BTreeMap<String, Option<Arc<T>>>,
    root: &HashMap<String, Arc<T>>,
    name: &str,
) -> Option<&'a mut T> {
    if !writes.contains_key(name) {
        writes.insert(name.to_string(), Some(Arc::clone(root.get(name)?)));
    }
    writes.get_mut(name)?.as_mut().map(Arc::make_mut)
}

/// Moves `writes` into `root`, and the entries they displace into `writes`.
fn publish_into<T>(
    root: &mut HashMap<String, Arc<T>>,
    writes: &mut BTreeMap<String, Option<Arc<T>>>,
) {
    for (name, entry) in writes.iter_mut() {
        *entry = match entry.take() {
            Some(new) => root.insert(name.clone(), new),
            None => root.remove(name),
        };
    }
}

fn not_found(what: &str, name: &str) -> DbError {
    DbError::NotFound(format!("{what} '{name}'"))
}

impl CatalogWrites {
    /// Document `name` as the transaction sees it.
    pub(crate) fn doc<'a>(&'a self, root: &'a Catalog, name: &str) -> DbResult<&'a Arc<DocData>> {
        lookup(&self.docs, &root.docs, name).ok_or_else(|| not_found("document", name))
    }

    /// Index `name` as the transaction sees it.
    pub(crate) fn index<'a>(
        &'a self,
        root: &'a Catalog,
        name: &str,
    ) -> DbResult<&'a Arc<IndexData>> {
        lookup(&self.indexes, &root.indexes, name).ok_or_else(|| not_found("index", name))
    }

    /// The transaction's own copy of document `name`.
    pub(crate) fn doc_mut(&mut self, root: &Catalog, name: &str) -> DbResult<&mut DocData> {
        lookup_mut(&mut self.docs, &root.docs, name).ok_or_else(|| not_found("document", name))
    }

    /// The transaction's own copy of index `name`.
    pub(crate) fn index_mut(&mut self, root: &Catalog, name: &str) -> DbResult<&mut IndexData> {
        lookup_mut(&mut self.indexes, &root.indexes, name).ok_or_else(|| not_found("index", name))
    }

    /// Writes document `name`, or drops it with `None`.
    pub(crate) fn put_doc(&mut self, name: &str, doc: Option<DocData>) {
        self.docs.insert(name.to_string(), doc.map(Arc::new));
    }

    /// Writes index `name`, or drops it with `None`.
    pub(crate) fn put_index(&mut self, name: &str, index: Option<IndexData>) {
        self.indexes.insert(name.to_string(), index.map(Arc::new));
    }

    /// Names of the indexes on document `doc`, as the transaction sees them.
    pub(crate) fn indexes_of(&self, root: &Catalog, doc: &str) -> Vec<String> {
        let names: BTreeSet<&String> = root.indexes.keys().chain(self.indexes.keys()).collect();
        names
            .into_iter()
            .filter(|n| self.index(root, n).is_ok_and(|i| i.meta.doc == doc))
            .cloned()
            .collect()
    }

    /// Every document name the transaction sees, sorted.
    pub(crate) fn doc_names(&self, root: &Catalog) -> Vec<String> {
        let names: BTreeSet<&String> = root.docs.keys().chain(self.docs.keys()).collect();
        names
            .into_iter()
            .filter(|n| self.doc(root, n).is_ok())
            .cloned()
            .collect()
    }

    /// The catalog a statement of the transaction reads: the documents
    /// `names` that exist and every index on them.
    pub(crate) fn view(&self, root: &Catalog, names: &[String]) -> Catalog {
        let docs = names
            .iter()
            .filter_map(|n| Some((n.clone(), Arc::clone(self.doc(root, n).ok()?))))
            .collect();
        let indexes = names
            .iter()
            .flat_map(|doc| self.indexes_of(root, doc))
            .filter_map(|n| Some((n.clone(), Arc::clone(self.index(root, &n).ok()?))))
            .collect();
        Catalog {
            docs,
            indexes,
            ..Catalog::default()
        }
    }

    /// The commit's catalog log records, in key order: `(key, Some(payload))`
    /// for a `CatalogPut`, `(key, None)` for a `CatalogDrop`.
    pub(crate) fn records(&self) -> Vec<(String, Option<Vec<u8>>)> {
        let docs = self
            .docs
            .iter()
            .map(|(n, d)| (format!("doc:{n}"), d.as_deref().map(doc_payload)));
        let indexes = self
            .indexes
            .iter()
            .map(|(n, i)| (format!("index:{n}"), i.as_deref().map(index_payload)));
        docs.chain(indexes).collect()
    }

    /// Whether the transaction wrote no catalog entry.
    pub(crate) fn is_empty(&self) -> bool {
        self.docs.is_empty() && self.indexes.is_empty()
    }

    /// Applies the writes to `root`: the entries it did not write stay
    /// shared with the root it was copied from. The entries it replaces
    /// or removes move into `self`, so that they are freed when the
    /// caller drops it, outside its locks.
    pub(crate) fn publish(&mut self, root: &mut Catalog) {
        publish_into(&mut root.docs, &mut self.docs);
        publish_into(&mut root.indexes, &mut self.indexes);
    }
}

// ---------------------------------------------------------------------
// Binary codecs (catalog deltas in the WAL, full catalog in checkpoints)
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Rd<'a> {
    b: &'a [u8],
    p: usize,
}
impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.b.get(self.p..self.p + n)?;
        self.p += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }
}

/// Serializes a document catalog entry.
pub fn doc_payload(d: &DocData) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, d.id);
    out.push(match d.storage.mode {
        ParentMode::Indirect => 0,
        ParentMode::Direct => 1,
    });
    put_u64(&mut out, d.storage.doc_handle.raw());
    put_u64(&mut out, d.storage.overflow_indir.raw());
    put_u32(&mut out, d.storage.text.heads.len() as u32);
    for (&group, &head) in &d.storage.text.heads {
        put_u32(&mut out, group);
        put_u64(&mut out, head.raw());
    }
    let schema = d.schema.to_bytes();
    put_u32(&mut out, schema.len() as u32);
    out.extend_from_slice(&schema);
    out
}

/// Deserializes [`doc_payload`] output.
pub fn doc_from_payload(bytes: &[u8]) -> Option<DocData> {
    let mut r = Rd { b: bytes, p: 0 };
    let id = r.u64()?;
    let mode = match r.u8()? {
        0 => ParentMode::Indirect,
        1 => ParentMode::Direct,
        _ => return None,
    };
    let doc_handle = XPtr::from_raw(r.u64()?);
    let overflow = XPtr::from_raw(r.u64()?);
    let n_heads = r.u32()? as usize;
    let mut heads = std::collections::BTreeMap::new();
    for _ in 0..n_heads {
        let group = r.u32()?;
        heads.insert(group, XPtr::from_raw(r.u64()?));
    }
    let n = r.u32()? as usize;
    let schema = SchemaTree::from_bytes(r.take(n)?)?;
    let mut storage = DocStorage::with_anchors(mode, doc_handle, overflow);
    storage.text.heads = heads;
    Some(DocData {
        id,
        schema,
        storage,
    })
}

fn put_steps(out: &mut Vec<u8>, steps: &[Step]) {
    put_u32(out, steps.len() as u32);
    for s in steps {
        out.push(match s.axis {
            Axis::Child => 0,
            Axis::Descendant => 1,
            Axis::DescendantOrSelf => 2,
            Axis::Attribute => 3,
            _ => 255, // unsupported in index paths; rejected at DDL time
        });
        match &s.test {
            NodeTest::Name(n) => {
                out.push(0);
                put_str(out, n.uri.as_deref().unwrap_or(""));
                out.push(u8::from(n.uri.is_some()));
                put_str(out, &n.local);
            }
            NodeTest::Wildcard => out.push(1),
            NodeTest::Text => out.push(2),
            NodeTest::Comment => out.push(3),
            NodeTest::Pi(_) => out.push(4),
            NodeTest::AnyKind => out.push(5),
        }
    }
}

fn read_steps(r: &mut Rd) -> Option<Vec<Step>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let axis = match r.u8()? {
            0 => Axis::Child,
            1 => Axis::Descendant,
            2 => Axis::DescendantOrSelf,
            3 => Axis::Attribute,
            _ => return None,
        };
        let test = match r.u8()? {
            0 => {
                let uri = r.str()?;
                let has_uri = r.u8()? == 1;
                let local = r.str()?;
                NodeTest::Name(sedna_schema::SchemaName {
                    uri: has_uri.then_some(uri),
                    local,
                })
            }
            1 => NodeTest::Wildcard,
            2 => NodeTest::Text,
            3 => NodeTest::Comment,
            4 => NodeTest::Pi(None),
            5 => NodeTest::AnyKind,
            _ => return None,
        };
        out.push(Step::plain(axis, test));
    }
    Some(out)
}

/// Serializes an index catalog entry.
pub fn index_payload(i: &IndexData) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, &i.meta.name);
    put_str(&mut out, &i.meta.doc);
    put_steps(&mut out, &i.meta.on);
    put_steps(&mut out, &i.meta.by);
    out.push(match i.meta.key_type {
        IndexKeyType::String => 0,
        IndexKeyType::Number => 1,
    });
    put_u64(&mut out, i.tree.root.raw());
    put_u64(&mut out, i.tree.entries);
    out
}

/// Deserializes [`index_payload`] output.
pub fn index_from_payload(bytes: &[u8]) -> Option<IndexData> {
    let mut r = Rd { b: bytes, p: 0 };
    let name = r.str()?;
    let doc = r.str()?;
    let on = read_steps(&mut r)?;
    let by = read_steps(&mut r)?;
    let key_type = match r.u8()? {
        0 => IndexKeyType::String,
        1 => IndexKeyType::Number,
        _ => return None,
    };
    let root = XPtr::from_raw(r.u64()?);
    let entries = r.u64()?;
    Some(IndexData {
        meta: IndexMeta {
            name,
            doc,
            on,
            by,
            key_type,
        },
        tree: BTreeIndex::open(root, entries),
    })
}

/// Serializes the full catalog (checkpoint payload).
pub fn catalog_blob(cat: &Catalog) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, cat.next_doc_id);
    put_u32(&mut out, cat.docs.len() as u32);
    let mut names: Vec<&String> = cat.docs.keys().collect();
    names.sort();
    for name in names {
        put_str(&mut out, name);
        let payload = doc_payload(&cat.docs[name]);
        put_u32(&mut out, payload.len() as u32);
        out.extend_from_slice(&payload);
    }
    put_u32(&mut out, cat.indexes.len() as u32);
    let mut names: Vec<&String> = cat.indexes.keys().collect();
    names.sort();
    for name in names {
        put_str(&mut out, name);
        let payload = index_payload(&cat.indexes[name]);
        put_u32(&mut out, payload.len() as u32);
        out.extend_from_slice(&payload);
    }
    out
}

/// Deserializes [`catalog_blob`] output.
pub fn catalog_from_blob(bytes: &[u8]) -> Option<Catalog> {
    let mut r = Rd { b: bytes, p: 0 };
    let next_doc_id = r.u64()?;
    let mut cat = Catalog {
        next_doc_id,
        ..Default::default()
    };
    let nd = r.u32()? as usize;
    for _ in 0..nd {
        let name = r.str()?;
        let n = r.u32()? as usize;
        let data = doc_from_payload(r.take(n)?)?;
        cat.docs.insert(name, Arc::new(data));
    }
    let ni = r.u32()? as usize;
    for _ in 0..ni {
        let name = r.str()?;
        let n = r.u32()? as usize;
        let data = index_from_payload(r.take(n)?)?;
        cat.indexes.insert(name, Arc::new(data));
    }
    Some(cat)
}

// ---------------------------------------------------------------------
// Index entries: one key derivation, one build, one side of a diff
// ---------------------------------------------------------------------

/// The schema nodes selected by an index's ON path.
pub(crate) fn on_schema_nodes(schema: &SchemaTree, meta: &IndexMeta) -> Vec<SchemaNodeId> {
    // The DDL parser and the catalog codec admit only descending axes.
    let steps: Vec<_> = meta
        .on
        .iter()
        .map(|s| schema_step(s).expect("index paths use descending axes only"))
        .collect();
    sedna_schema::path::eval_structural_path(schema, &steps)
}

/// The key of `node`, an ON node of index `meta` — the only place an
/// entry's key is derived: the BY path's first match, typed. `None` when
/// the path selects nothing or the value does not convert.
pub(crate) fn index_key(
    vas: &Vas,
    doc: &DocData,
    meta: &IndexMeta,
    node: NodeRef,
) -> DbResult<Option<IndexKey>> {
    Ok(eval_by_path(vas, &doc.schema, node, &meta.by)?
        .and_then(|raw| make_key(meta.key_type, &raw)))
}

/// Inserts the entry of every node the ON path selects into `tree`, by
/// scanning the ON schema nodes' block lists: `CREATE INDEX` builds a
/// fresh tree this way, and a bulk load fills the indexes declared on
/// the (empty) document it loads.
pub(crate) fn build_index(
    vas: &Vas,
    doc: &DocData,
    meta: &IndexMeta,
    tree: &mut BTreeIndex,
) -> DbResult<()> {
    for sid in on_schema_nodes(&doc.schema, meta) {
        let mut nodes = Vec::new();
        let mut blk = doc.schema.node(sid).first_block;
        while !blk.is_null() {
            blk = block::scan_block(vas, blk, |n| nodes.push(n))?;
        }
        for node in nodes {
            if let Some(key) = index_key(vas, doc, meta, node)? {
                tree.insert(vas, &key, node.handle(vas)?)?;
            }
        }
    }
    Ok(())
}

/// Handle → key over the ON nodes of index `meta` among `nodes`: one
/// side of an update's before/after diff.
pub(crate) fn index_entries(
    vas: &Vas,
    doc: &DocData,
    meta: &IndexMeta,
    nodes: &[NodeRef],
) -> DbResult<BTreeMap<XPtr, IndexKey>> {
    let on: HashSet<SchemaNodeId> = on_schema_nodes(&doc.schema, meta).into_iter().collect();
    let mut out = BTreeMap::new();
    for &node in nodes {
        if on.contains(&node.schema(vas)?) {
            if let Some(key) = index_key(vas, doc, meta, node)? {
                out.insert(node.handle(vas)?, key);
            }
        }
    }
    Ok(out)
}

/// Evaluates the BY path navigationally from `node`, returning the first
/// matching node's string value (no key when the path selects nothing).
fn eval_by_path(
    vas: &Vas,
    schema: &SchemaTree,
    node: NodeRef,
    steps: &[Step],
) -> DbResult<Option<String>> {
    let mut current = vec![node];
    for step in steps {
        let mut next = Vec::new();
        for n in &current {
            match step.axis {
                Axis::Child | Axis::Attribute => {
                    for c in n.children(vas).map_err(DbError::Storage)? {
                        if test_matches(vas, schema, c, &step.test, step.axis == Axis::Attribute)? {
                            next.push(c);
                        }
                    }
                }
                Axis::Descendant | Axis::DescendantOrSelf => {
                    if step.axis == Axis::DescendantOrSelf
                        && test_matches(vas, schema, *n, &step.test, false)?
                    {
                        next.push(*n);
                    }
                    collect_descendants(vas, schema, *n, &step.test, &mut next)?;
                }
                _ => {
                    return Err(DbError::Conflict(
                        "index BY paths support only descending axes".into(),
                    ))
                }
            }
        }
        current = next;
        if current.is_empty() {
            return Ok(None);
        }
    }
    let first = current[0];
    Ok(Some(
        first.string_value(vas, schema).map_err(DbError::Storage)?,
    ))
}

fn collect_descendants(
    vas: &Vas,
    schema: &SchemaTree,
    node: NodeRef,
    test: &NodeTest,
    out: &mut Vec<NodeRef>,
) -> DbResult<()> {
    for c in node.children(vas).map_err(DbError::Storage)? {
        if c.kind(vas).map_err(DbError::Storage)? == NodeKind::Attribute {
            continue;
        }
        if test_matches(vas, schema, c, test, false)? {
            out.push(c);
        }
        collect_descendants(vas, schema, c, test, out)?;
    }
    Ok(())
}

fn test_matches(
    vas: &Vas,
    schema: &SchemaTree,
    node: NodeRef,
    test: &NodeTest,
    attr_axis: bool,
) -> DbResult<bool> {
    let kind = node.kind(vas).map_err(DbError::Storage)?;
    let sid = node.schema(vas).map_err(DbError::Storage)?;
    let name = schema.node(sid).name.as_ref();
    Ok(match test {
        NodeTest::AnyKind => true,
        NodeTest::Text => kind == NodeKind::Text,
        NodeTest::Comment => kind == NodeKind::Comment,
        NodeTest::Pi(_) => kind == NodeKind::ProcessingInstruction,
        NodeTest::Wildcard => {
            if attr_axis {
                kind == NodeKind::Attribute
            } else {
                kind == NodeKind::Element
            }
        }
        NodeTest::Name(want) => {
            let principal = if attr_axis {
                NodeKind::Attribute
            } else {
                NodeKind::Element
            };
            kind == principal && name == Some(want)
        }
    })
}

/// Converts a raw string value into a typed index key.
fn make_key(key_type: IndexKeyType, raw: &str) -> Option<IndexKey> {
    match key_type {
        IndexKeyType::String => Some(IndexKey::string(raw)),
        IndexKeyType::Number => raw.trim().parse::<f64>().ok().and_then(IndexKey::number),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_schema::SchemaName;

    fn sample_catalog() -> Catalog {
        let mut schema = SchemaTree::new();
        schema.get_or_add_child(
            SchemaTree::ROOT,
            NodeKind::Element,
            Some(SchemaName::local("library")),
        );
        let mut storage =
            DocStorage::with_anchors(ParentMode::Indirect, XPtr::new(0, 4096 + 64), XPtr::NULL);
        storage.text.heads.insert(3, XPtr::new(0, 8192));
        let mut cat = Catalog {
            next_doc_id: 3,
            ..Default::default()
        };
        cat.docs.insert(
            "lib".into(),
            Arc::new(DocData {
                id: 1,
                schema,
                storage,
            }),
        );
        cat.indexes.insert(
            "byyear".into(),
            Arc::new(IndexData {
                meta: IndexMeta {
                    name: "byyear".into(),
                    doc: "lib".into(),
                    on: vec![
                        Step::plain(Axis::Child, NodeTest::Name(SchemaName::local("library"))),
                        Step::plain(Axis::Child, NodeTest::Name(SchemaName::local("book"))),
                    ],
                    by: vec![Step::plain(
                        Axis::Child,
                        NodeTest::Name(SchemaName::local("year")),
                    )],
                    key_type: IndexKeyType::Number,
                },
                tree: BTreeIndex::open(XPtr::new(1, 0), 42),
            }),
        );
        cat
    }

    #[test]
    fn doc_payload_round_trip() {
        let cat = sample_catalog();
        let d = &cat.docs["lib"];
        let back = doc_from_payload(&doc_payload(d)).unwrap();
        assert_eq!(back.id, 1);
        assert_eq!(back.storage.doc_handle, d.storage.doc_handle);
        assert_eq!(back.storage.text.heads, d.storage.text.heads);
        assert_eq!(back.schema.len(), d.schema.len());
    }

    #[test]
    fn index_payload_round_trip() {
        let cat = sample_catalog();
        let i = &cat.indexes["byyear"];
        let back = index_from_payload(&index_payload(i)).unwrap();
        assert_eq!(back.meta, i.meta);
        assert_eq!(back.tree.root, i.tree.root);
        assert_eq!(back.tree.entries, 42);
    }

    #[test]
    fn catalog_blob_round_trip() {
        let cat = sample_catalog();
        let back = catalog_from_blob(&catalog_blob(&cat)).unwrap();
        assert_eq!(back.next_doc_id, 3);
        assert_eq!(back.docs.len(), 1);
        assert_eq!(back.indexes.len(), 1);
        assert!(back.docs.contains_key("lib"));
    }

    #[test]
    fn corrupt_blobs_rejected() {
        assert!(catalog_from_blob(&[1, 2, 3]).is_none());
        let mut good = catalog_blob(&sample_catalog());
        good.truncate(good.len() - 4);
        assert!(catalog_from_blob(&good).is_none());
    }

    #[test]
    fn make_key_types() {
        assert!(matches!(
            make_key(IndexKeyType::Number, " 42 "),
            Some(IndexKey::Number(n)) if n == 42.0
        ));
        assert!(make_key(IndexKeyType::Number, "nope").is_none());
        assert!(matches!(
            make_key(IndexKeyType::String, "x"),
            Some(IndexKey::String(_))
        ));
    }
}
