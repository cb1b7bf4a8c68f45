//! The subtree-based clustering baseline (experiment E1).
//!
//! Section 2: "The first \[approach\] is based on an assumption that an XML
//! element is frequently queried together with its sub-elements, so these
//! should be clustered together [Natix, Timber]. This approach corresponds
//! to dividing a tree of an XML document into subtrees."
//!
//! This store serializes the document in document order into a chain of
//! pages: every element record is immediately followed by its whole
//! subtree, values inline. Consequences the paper predicts and E1
//! measures:
//!
//! * retrieving a **whole element** with heterogeneous children is a
//!   contiguous read — subtree clustering wins;
//! * retrieving **sub-elements of one type** (or evaluating a predicate
//!   over one element type) must scan everything — schema clustering wins
//!   because "unnecessary nodes are not fetched from disk".
//!
//! Record layout: `kind(1) name_id(4) value_len(4) subtree_len(4)`,
//! then `value_len` value bytes, then the children's records
//! (`subtree_len` covers the record and its whole subtree).

use std::collections::HashMap;

use sedna_sas::{Vas, XPtr};
use sedna_xml::{Document, Node};

use crate::error::{StorageError, StorageResult};
use crate::util::{get_u32, put_u32};

/// Record header length.
const REC_HDR: usize = 13;
/// Name id used by unnamed kinds.
const NO_NAME: u32 = u32::MAX;

const KIND_ELEMENT: u8 = 1;
const KIND_ATTRIBUTE: u8 = 2;
const KIND_TEXT: u8 = 3;
const KIND_COMMENT: u8 = 4;
const KIND_PI: u8 = 5;

/// A document stored with subtree clustering.
pub struct SubtreeStore {
    pages: Vec<XPtr>,
    len: u64,
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    payload: usize,
}

impl SubtreeStore {
    /// Serializes a parsed document into page storage.
    pub fn build(vas: &Vas, doc: &Document) -> StorageResult<SubtreeStore> {
        let ps = vas.page_size();
        let mut store = SubtreeStore {
            pages: Vec::new(),
            len: 0,
            names: Vec::new(),
            name_ids: HashMap::new(),
            payload: ps - sedna_sas::PAGE_HEADER_LEN,
        };
        let mut bytes = Vec::new();
        for child in &doc.children {
            store.serialize_node(child, &mut bytes);
        }
        // Write the stream across pages.
        let mut written = 0usize;
        while written < bytes.len() {
            let (page_ptr, mut page) = vas.alloc_page()?;
            store.pages.push(page_ptr);
            let n = store.payload.min(bytes.len() - written);
            let start = sedna_sas::PAGE_HEADER_LEN;
            page[start..start + n].copy_from_slice(&bytes[written..written + n]);
            written += n;
        }
        store.len = bytes.len() as u64;
        Ok(store)
    }

    /// Total serialized bytes.
    pub fn byte_len(&self) -> u64 {
        self.len
    }

    /// Number of pages the document occupies.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    /// Resolves a name id back to the name.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(|s| s.as_str())
    }

    /// The id of `name`, if any node uses it.
    pub fn name_id(&self, name: &str) -> Option<u32> {
        self.name_ids.get(name).copied()
    }

    fn serialize_node(&mut self, node: &Node, out: &mut Vec<u8>) {
        let start = out.len();
        let (kind, name_id, value) = match node {
            Node::Element { name, .. } => (KIND_ELEMENT, self.intern(&name.local), Vec::new()),
            Node::Text(t) => (KIND_TEXT, NO_NAME, t.clone().into_bytes()),
            Node::Comment(c) => (KIND_COMMENT, NO_NAME, c.clone().into_bytes()),
            Node::ProcessingInstruction { target, data } => {
                (KIND_PI, self.intern(target), data.clone().into_bytes())
            }
        };
        out.push(kind);
        let mut hdr = [0u8; 12];
        put_u32(&mut hdr, 0, name_id);
        put_u32(&mut hdr, 4, value.len() as u32);
        put_u32(&mut hdr, 8, 0); // subtree_len patched below
        out.extend_from_slice(&hdr);
        out.extend_from_slice(&value);
        if let Node::Element {
            attributes,
            children,
            ..
        } = node
        {
            for attr in attributes {
                let a_start = out.len();
                out.push(KIND_ATTRIBUTE);
                let mut ahdr = [0u8; 12];
                let aid = self.intern(&attr.name.local);
                put_u32(&mut ahdr, 0, aid);
                put_u32(&mut ahdr, 4, attr.value.len() as u32);
                put_u32(&mut ahdr, 8, (REC_HDR + attr.value.len()) as u32);
                out.extend_from_slice(&ahdr);
                out.extend_from_slice(attr.value.as_bytes());
                debug_assert_eq!(out.len() - a_start, REC_HDR + attr.value.len());
            }
            for child in children {
                self.serialize_node(child, out);
            }
        }
        let total = (out.len() - start) as u32;
        let patch_at = start + 1 + 8;
        put_u32(&mut out[patch_at..patch_at + 4], 0, total);
    }

    /// Reads `buf.len()` bytes of the stream starting at `pos`.
    fn read_at(&self, vas: &Vas, pos: u64, buf: &mut [u8]) -> StorageResult<()> {
        if pos + buf.len() as u64 > self.len {
            return Err(StorageError::Corrupt(format!(
                "subtree read past end: {pos}+{}",
                buf.len()
            )));
        }
        let mut done = 0usize;
        let mut pos = pos as usize;
        while done < buf.len() {
            let page_idx = pos / self.payload;
            let in_page = pos % self.payload;
            let n = (self.payload - in_page).min(buf.len() - done);
            let page = vas.read(self.pages[page_idx])?;
            let start = sedna_sas::PAGE_HEADER_LEN + in_page;
            buf[done..done + n].copy_from_slice(&page[start..start + n]);
            done += n;
            pos += n;
        }
        Ok(())
    }

    fn read_header(&self, vas: &Vas, pos: u64) -> StorageResult<(u8, u32, u32, u32)> {
        let mut hdr = [0u8; REC_HDR];
        self.read_at(vas, pos, &mut hdr)?;
        Ok((hdr[0], get_u32(&hdr, 1), get_u32(&hdr, 5), get_u32(&hdr, 9)))
    }

    /// Full-document scan collecting the string values of every element
    /// named `name` (concatenated text of the subtree). This is the
    /// "retrieve sub-elements of one type" workload where subtree
    /// clustering must fetch every page.
    pub fn scan_element_values(&self, vas: &Vas, name: &str) -> StorageResult<Vec<String>> {
        let Some(target) = self.name_id(name) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        let mut pos = 0u64;
        while pos < self.len {
            let (kind, name_id, value_len, subtree_len) = self.read_header(vas, pos)?;
            if kind == KIND_ELEMENT && name_id == target {
                out.push(self.subtree_text(vas, pos, subtree_len)?);
                pos += subtree_len as u64;
            } else {
                pos += (REC_HDR + value_len as usize) as u64;
            }
        }
        Ok(out)
    }

    /// Offsets of every element named `name` (full scan).
    pub fn find_elements(&self, vas: &Vas, name: &str) -> StorageResult<Vec<u64>> {
        let Some(target) = self.name_id(name) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        let mut pos = 0u64;
        while pos < self.len {
            let (kind, name_id, value_len, _subtree_len) = self.read_header(vas, pos)?;
            if kind == KIND_ELEMENT && name_id == target {
                out.push(pos);
            }
            pos += (REC_HDR + value_len as usize) as u64;
        }
        Ok(out)
    }

    /// Concatenated text of the subtree at `pos` — a contiguous read.
    fn subtree_text(&self, vas: &Vas, pos: u64, subtree_len: u32) -> StorageResult<String> {
        let mut bytes = vec![0u8; subtree_len as usize];
        self.read_at(vas, pos, &mut bytes)?;
        let mut out = String::new();
        let mut p = 0usize;
        while p < bytes.len() {
            let kind = bytes[p];
            let value_len = get_u32(&bytes, p + 5) as usize;
            if kind == KIND_TEXT {
                out.push_str(
                    std::str::from_utf8(&bytes[p + REC_HDR..p + REC_HDR + value_len])
                        .map_err(|_| StorageError::Corrupt("non-UTF-8 text".into()))?,
                );
            }
            p += REC_HDR + value_len;
        }
        Ok(out)
    }

    /// Reconstructs the whole subtree at `pos` as a DOM node — the
    /// "retrieve a whole element" workload where subtree clustering wins:
    /// one contiguous byte range, minimal pages.
    pub fn read_subtree(&self, vas: &Vas, pos: u64) -> StorageResult<Node> {
        let (_, _, _, subtree_len) = self.read_header(vas, pos)?;
        let mut bytes = vec![0u8; subtree_len as usize];
        self.read_at(vas, pos, &mut bytes)?;
        let (node, used) = self.parse_record(&bytes, 0)?;
        debug_assert_eq!(used, bytes.len());
        Ok(node)
    }

    fn parse_record(&self, bytes: &[u8], at: usize) -> StorageResult<(Node, usize)> {
        let kind = bytes[at];
        let name_id = get_u32(bytes, at + 1);
        let value_len = get_u32(bytes, at + 5) as usize;
        let subtree_len = get_u32(bytes, at + 9) as usize;
        let value = std::str::from_utf8(&bytes[at + REC_HDR..at + REC_HDR + value_len])
            .map_err(|_| StorageError::Corrupt("non-UTF-8 value".into()))?
            .to_string();
        let name = || self.name(name_id).unwrap_or("?").to_string();
        match kind {
            KIND_ELEMENT => {
                let mut children = Vec::new();
                let mut attributes = Vec::new();
                let mut p = at + REC_HDR + value_len;
                let end = at + subtree_len;
                while p < end {
                    if bytes[p] == KIND_ATTRIBUTE {
                        let a_name = get_u32(bytes, p + 1);
                        let a_len = get_u32(bytes, p + 5) as usize;
                        let a_val = std::str::from_utf8(&bytes[p + REC_HDR..p + REC_HDR + a_len])
                            .map_err(|_| StorageError::Corrupt("non-UTF-8 attr".into()))?;
                        attributes.push(sedna_xml::Attribute {
                            name: sedna_xml::QName::local(self.name(a_name).unwrap_or("?")),
                            value: a_val.to_string(),
                        });
                        p += REC_HDR + a_len;
                    } else {
                        let (child, next) = self.parse_record(bytes, p)?;
                        children.push(child);
                        p = next;
                    }
                }
                Ok((
                    Node::Element {
                        name: sedna_xml::QName::local(name()),
                        attributes,
                        children,
                    },
                    at + subtree_len,
                ))
            }
            KIND_TEXT => Ok((Node::Text(value), at + subtree_len)),
            KIND_COMMENT => Ok((Node::Comment(value), at + subtree_len)),
            KIND_PI => Ok((
                Node::ProcessingInstruction {
                    target: name(),
                    data: value,
                },
                at + subtree_len,
            )),
            KIND_ATTRIBUTE => Err(StorageError::Corrupt("dangling attribute record".into())),
            other => Err(StorageError::Corrupt(format!("bad record kind {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_sas::{Sas, SasConfig, TxnToken, View};

    fn setup() -> (std::sync::Arc<Sas>, Vas) {
        let sas = Sas::in_memory(SasConfig {
            page_size: 512,
            layer_size: 512 * 256,
            buffer_frames: 256,
        })
        .unwrap();
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        (sas, vas)
    }

    const SAMPLE: &str = r#"<library><book id="1"><title>Foundations of Databases</title><author>Abiteboul</author><author>Hull</author></book><book id="2"><title>An Introduction to Database Systems</title><author>Date</author></book><paper><title>A Relational Model</title><author>Codd</author></paper></library>"#;

    #[test]
    fn build_and_scan_by_name() {
        let (_sas, vas) = setup();
        let dom = sedna_xml::parse(SAMPLE).unwrap();
        let store = SubtreeStore::build(&vas, &dom).unwrap();
        let titles = store.scan_element_values(&vas, "title").unwrap();
        assert_eq!(
            titles,
            [
                "Foundations of Databases",
                "An Introduction to Database Systems",
                "A Relational Model"
            ]
        );
        let authors = store.scan_element_values(&vas, "author").unwrap();
        assert_eq!(authors.len(), 4);
        assert!(store
            .scan_element_values(&vas, "missing")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn whole_subtree_round_trips() {
        let (_sas, vas) = setup();
        let dom = sedna_xml::parse(SAMPLE).unwrap();
        let store = SubtreeStore::build(&vas, &dom).unwrap();
        let books = store.find_elements(&vas, "book").unwrap();
        assert_eq!(books.len(), 2);
        let first = store.read_subtree(&vas, books[0]).unwrap();
        assert_eq!(
            sedna_xml::serialize::node_to_string(&first),
            r#"<book id="1"><title>Foundations of Databases</title><author>Abiteboul</author><author>Hull</author></book>"#
        );
    }

    #[test]
    fn document_spans_multiple_small_pages() {
        let (_sas, vas) = setup();
        let many: String = (0..200)
            .map(|i| format!("<item><k>{i}</k><v>value-{i}</v></item>"))
            .collect();
        let xml = format!("<root>{many}</root>");
        let dom = sedna_xml::parse(&xml).unwrap();
        let store = SubtreeStore::build(&vas, &dom).unwrap();
        assert!(store.page_count() > 3, "pages: {}", store.page_count());
        let ks = store.scan_element_values(&vas, "k").unwrap();
        assert_eq!(ks.len(), 200);
        assert_eq!(ks[77], "77");
        let items = store.find_elements(&vas, "item").unwrap();
        let item5 = store.read_subtree(&vas, items[5]).unwrap();
        assert_eq!(item5.string_value(), "5value-5");
    }
}
