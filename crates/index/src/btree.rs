//! The paged B+-tree.
//!
//! Layout (after the 16-byte SAS page header):
//!
//! ```text
//! 16  u8   page kind (3 = index)
//! 17  u8   node type (0 = leaf, 1 = internal)
//! 18  u16  entry count
//! 20  u64  leaf: next-leaf XPtr / internal: leftmost child XPtr
//! 28  ..   entries, length-prefixed, sorted by encoded key
//!          leaf entry:     key_len u16 | key | handle u64
//!          internal entry: key_len u16 | key | child u64
//! ```
//!
//! Internal entries route: keys `< entry0.key` go to the leftmost child;
//! keys in `[entry_i.key, entry_{i+1}.key)` go to `entry_i.child`.
//! Inserts split full pages bottom-up; deletes do not rebalance (empty
//! pages are reclaimed only when the whole index is dropped), which keeps
//! the structure simple and is the behaviour of several production
//! B-trees' lazy modes.

use sedna_obs::{Counter, Registry};
use sedna_sas::{SasError, Vas, XPtr};

use crate::key::IndexKey;

/// Live metric handles shared by every index of a database
/// (`sedna_index_*`). Cloning shares the underlying counters, so the
/// catalog can attach one set of handles to every [`BTreeIndex`] it
/// holds.
#[derive(Clone, Debug, Default)]
pub struct IndexMetrics {
    /// Point lookups (`lookup`).
    pub lookups: Counter,
    /// Range scans (`range`).
    pub range_scans: Counter,
    /// Entries inserted.
    pub inserts: Counter,
    /// Entries removed.
    pub removes: Counter,
    /// Page splits (including root growth).
    pub splits: Counter,
}

impl IndexMetrics {
    /// Registers every counter under its canonical `sedna_index_*` name
    /// (see `docs/metrics.md`).
    pub fn register_into(&self, reg: &Registry) {
        reg.register_counter(
            "sedna_index_lookups_total",
            "B-tree point lookups",
            &self.lookups,
        );
        reg.register_counter(
            "sedna_index_range_scans_total",
            "B-tree range scans",
            &self.range_scans,
        );
        reg.register_counter(
            "sedna_index_inserts_total",
            "B-tree entries inserted",
            &self.inserts,
        );
        reg.register_counter(
            "sedna_index_removes_total",
            "B-tree entries removed",
            &self.removes,
        );
        reg.register_counter(
            "sedna_index_splits_total",
            "B-tree page splits (including root growth)",
            &self.splits,
        );
    }
}

const IH_KIND: usize = 16;
const IH_NODE_TYPE: usize = 17;
const IH_COUNT: usize = 18;
const IH_LINK: usize = 20;
const IH_ENTRIES: usize = 28;

const KIND_INDEX_BLOCK: u8 = 3;
const TYPE_LEAF: u8 = 0;
const TYPE_INTERNAL: u8 = 1;

/// Errors raised by index operations.
#[derive(Debug)]
pub enum IndexError {
    /// Propagated SAS error.
    Sas(SasError),
    /// A key too large for the page size.
    KeyTooLarge(usize),
    /// Structural corruption.
    Corrupt(String),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Sas(e) => write!(f, "address-space error: {e}"),
            IndexError::KeyTooLarge(n) => write!(f, "index key of {n} bytes exceeds page capacity"),
            IndexError::Corrupt(m) => write!(f, "index corruption: {m}"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<SasError> for IndexError {
    fn from(e: SasError) -> Self {
        IndexError::Sas(e)
    }
}

/// Result alias for index operations.
pub type IndexResult<T> = Result<T, IndexError>;

/// One entry parsed from a page.
#[derive(Clone, Debug)]
struct Entry {
    key: Vec<u8>,
    ptr: u64, // handle (leaf) or child page (internal)
}

fn parse_page(bytes: &[u8]) -> (u8, XPtr, Vec<Entry>) {
    let node_type = bytes[IH_NODE_TYPE];
    let count = u16::from_le_bytes([bytes[IH_COUNT], bytes[IH_COUNT + 1]]) as usize;
    let link = XPtr::read_at(bytes, IH_LINK);
    let mut entries = Vec::with_capacity(count);
    let mut at = IH_ENTRIES;
    for _ in 0..count {
        let klen = u16::from_le_bytes([bytes[at], bytes[at + 1]]) as usize;
        let key = bytes[at + 2..at + 2 + klen].to_vec();
        let ptr = u64::from_le_bytes(bytes[at + 2 + klen..at + 10 + klen].try_into().unwrap());
        entries.push(Entry { key, ptr });
        at += 2 + klen + 8;
    }
    (node_type, link, entries)
}

fn entries_size(entries: &[Entry]) -> usize {
    entries.iter().map(|e| 2 + e.key.len() + 8).sum()
}

fn write_page(bytes: &mut [u8], node_type: u8, link: XPtr, entries: &[Entry]) {
    bytes[IH_KIND] = KIND_INDEX_BLOCK;
    bytes[IH_NODE_TYPE] = node_type;
    bytes[IH_COUNT..IH_COUNT + 2].copy_from_slice(&(entries.len() as u16).to_le_bytes());
    link.write_at(bytes, IH_LINK);
    let mut at = IH_ENTRIES;
    for e in entries {
        bytes[at..at + 2].copy_from_slice(&(e.key.len() as u16).to_le_bytes());
        bytes[at + 2..at + 2 + e.key.len()].copy_from_slice(&e.key);
        bytes[at + 2 + e.key.len()..at + 10 + e.key.len()].copy_from_slice(&e.ptr.to_le_bytes());
        at += 2 + e.key.len() + 8;
    }
}

/// A B+-tree index over `(IndexKey, node handle)` pairs.
#[derive(Clone, Debug)]
pub struct BTreeIndex {
    /// The root page (changes when the root splits).
    pub root: XPtr,
    /// Number of live entries.
    pub entries: u64,
    /// Metric handles (shared across indexes; see [`IndexMetrics`]).
    metrics: IndexMetrics,
}

enum InsertResult {
    Done,
    /// The child split: promote `key` with the new right sibling.
    Split(Vec<u8>, XPtr),
}

impl BTreeIndex {
    /// Creates an empty index.
    pub fn create(vas: &Vas) -> IndexResult<BTreeIndex> {
        let (root, mut page) = vas.alloc_page()?;
        write_page(&mut page, TYPE_LEAF, XPtr::NULL, &[]);
        drop(page);
        Ok(BTreeIndex {
            root,
            entries: 0,
            metrics: IndexMetrics::default(),
        })
    }

    /// Reopens an index from its root pointer and entry count (catalog).
    pub fn open(root: XPtr, entries: u64) -> BTreeIndex {
        BTreeIndex {
            root,
            entries,
            metrics: IndexMetrics::default(),
        }
    }

    /// Attaches metric handles (typically a database-wide shared set).
    pub fn set_metrics(&mut self, metrics: IndexMetrics) {
        self.metrics = metrics;
    }

    /// The index's live metric handles.
    pub fn metrics(&self) -> &IndexMetrics {
        &self.metrics
    }

    fn capacity(vas: &Vas) -> usize {
        vas.page_size() - IH_ENTRIES
    }

    /// Inserts `(key, handle)`. Duplicates (same key and handle) are kept
    /// — callers that need set semantics remove first.
    pub fn insert(&mut self, vas: &Vas, key: &IndexKey, handle: XPtr) -> IndexResult<()> {
        let encoded = key.encode();
        if 2 + encoded.len() + 8 > Self::capacity(vas) / 4 {
            return Err(IndexError::KeyTooLarge(encoded.len()));
        }
        match self.insert_rec(vas, self.root, &encoded, handle.raw())? {
            InsertResult::Done => {}
            InsertResult::Split(sep, right) => {
                // Grow a new root.
                self.metrics.splits.inc();
                let (new_root, mut page) = vas.alloc_page()?;
                let entries = vec![Entry {
                    key: sep,
                    ptr: right.raw(),
                }];
                write_page(&mut page, TYPE_INTERNAL, self.root, &entries);
                drop(page);
                self.root = new_root;
            }
        }
        self.entries += 1;
        self.metrics.inserts.inc();
        Ok(())
    }

    fn insert_rec(
        &mut self,
        vas: &Vas,
        page_ptr: XPtr,
        key: &[u8],
        ptr_val: u64,
    ) -> IndexResult<InsertResult> {
        let (node_type, link, mut entries) = {
            let page = vas.read(page_ptr)?;
            parse_page(&page)
        };
        if node_type == TYPE_LEAF {
            let pos = entries.partition_point(|e| (e.key.as_slice(), e.ptr) < (key, ptr_val));
            entries.insert(
                pos,
                Entry {
                    key: key.to_vec(),
                    ptr: ptr_val,
                },
            );
            return self.store_maybe_split(vas, page_ptr, TYPE_LEAF, link, entries);
        }
        // Internal: route to child.
        let idx = entries.partition_point(|e| e.key.as_slice() <= key);
        let child = if idx == 0 {
            link
        } else {
            XPtr::from_raw(entries[idx - 1].ptr)
        };
        match self.insert_rec(vas, child, key, ptr_val)? {
            InsertResult::Done => Ok(InsertResult::Done),
            InsertResult::Split(sep, right) => {
                let pos = entries.partition_point(|e| e.key.as_slice() <= sep.as_slice());
                entries.insert(
                    pos,
                    Entry {
                        key: sep,
                        ptr: right.raw(),
                    },
                );
                self.store_maybe_split(vas, page_ptr, TYPE_INTERNAL, link, entries)
            }
        }
    }

    fn store_maybe_split(
        &mut self,
        vas: &Vas,
        page_ptr: XPtr,
        node_type: u8,
        link: XPtr,
        entries: Vec<Entry>,
    ) -> IndexResult<InsertResult> {
        let cap = Self::capacity(vas);
        if entries_size(&entries) <= cap {
            let mut page = vas.write(page_ptr)?;
            write_page(&mut page, node_type, link, &entries);
            return Ok(InsertResult::Done);
        }
        // Split in half by entry count.
        self.metrics.splits.inc();
        let mid = entries.len() / 2;
        let (left, right): (Vec<Entry>, Vec<Entry>) = {
            let mut l = entries;
            let r = l.split_off(mid);
            (l, r)
        };
        let (right_ptr, sep, right_link, left_link, right_entries) = if node_type == TYPE_LEAF {
            let (rp, _pg) = vas.alloc_page()?;
            // Leaf chain: left -> right -> old next.
            (rp, right[0].key.clone(), link, rp, right)
        } else {
            // Internal split: the middle key moves up; the right node's
            // leftmost child is the promoted entry's child.
            let mut right = right;
            let promoted = right.remove(0);
            let (rp, _pg) = vas.alloc_page()?;
            (rp, promoted.key, XPtr::from_raw(promoted.ptr), link, right)
        };
        {
            let mut page = vas.write(right_ptr)?;
            write_page(&mut page, node_type, right_link, &right_entries);
        }
        {
            let mut page = vas.write(page_ptr)?;
            let ll = if node_type == TYPE_LEAF {
                left_link
            } else {
                link
            };
            write_page(&mut page, node_type, ll, &left);
        }
        let _ = left_link;
        Ok(InsertResult::Split(sep, right_ptr))
    }

    /// Removes one `(key, handle)` pair; returns whether it was present.
    /// Walks the leaf chain forward past equal keys, since duplicates may
    /// span several leaves.
    pub fn remove(&mut self, vas: &Vas, key: &IndexKey, handle: XPtr) -> IndexResult<bool> {
        let encoded = key.encode();
        let mut leaf = self.find_leaf(vas, &encoded)?;
        loop {
            let (node_type, link, mut entries) = {
                let page = vas.read(leaf)?;
                parse_page(&page)
            };
            debug_assert_eq!(node_type, TYPE_LEAF);
            let target = (encoded.as_slice(), handle.raw());
            if let Some(pos) = entries
                .iter()
                .position(|e| (e.key.as_slice(), e.ptr) == target)
            {
                entries.remove(pos);
                let mut page = vas.write(leaf)?;
                write_page(&mut page, TYPE_LEAF, link, &entries);
                self.entries -= 1;
                self.metrics.removes.inc();
                return Ok(true);
            }
            // Stop once this leaf's keys have moved past the target.
            if entries
                .last()
                .is_some_and(|e| e.key.as_slice() > encoded.as_slice())
                || link.is_null()
            {
                return Ok(false);
            }
            leaf = link;
        }
    }

    /// Descends to the **leftmost** leaf that can contain `key`: equal
    /// separator keys route left, because duplicates of a split separator
    /// live on both sides.
    fn find_leaf(&self, vas: &Vas, key: &[u8]) -> IndexResult<XPtr> {
        let mut cur = self.root;
        loop {
            let (node_type, link, entries) = {
                let page = vas.read(cur)?;
                parse_page(&page)
            };
            if node_type == TYPE_LEAF {
                return Ok(cur);
            }
            let idx = entries.partition_point(|e| e.key.as_slice() < key);
            cur = if idx == 0 {
                link
            } else {
                XPtr::from_raw(entries[idx - 1].ptr)
            };
        }
    }

    /// All handles stored under `key`.
    pub fn lookup(&self, vas: &Vas, key: &IndexKey) -> IndexResult<Vec<XPtr>> {
        self.metrics.lookups.inc();
        let encoded = key.encode();
        self.range_scan(vas, Some(&encoded), true, Some(&encoded), true)
    }

    /// Handles whose keys lie in the given range (encoded-bound form used
    /// internally; `None` = unbounded).
    fn range_scan(
        &self,
        vas: &Vas,
        lo: Option<&[u8]>,
        lo_inclusive: bool,
        hi: Option<&[u8]>,
        hi_inclusive: bool,
    ) -> IndexResult<Vec<XPtr>> {
        let mut out = Vec::new();
        let mut leaf = match lo {
            Some(k) => self.find_leaf(vas, k)?,
            None => {
                // Leftmost leaf.
                let mut cur = self.root;
                loop {
                    let (node_type, link, _) = {
                        let page = vas.read(cur)?;
                        parse_page(&page)
                    };
                    if node_type == TYPE_LEAF {
                        break cur;
                    }
                    cur = link;
                }
            }
        };
        loop {
            let (node_type, next, entries) = {
                let page = vas.read(leaf)?;
                parse_page(&page)
            };
            if node_type != TYPE_LEAF {
                return Err(IndexError::Corrupt(
                    "leaf chain reached an internal page".into(),
                ));
            }
            for e in &entries {
                if let Some(lo) = lo {
                    let below = if lo_inclusive {
                        e.key.as_slice() < lo
                    } else {
                        e.key.as_slice() <= lo
                    };
                    if below {
                        continue;
                    }
                }
                if let Some(hi) = hi {
                    let above = if hi_inclusive {
                        e.key.as_slice() > hi
                    } else {
                        e.key.as_slice() >= hi
                    };
                    if above {
                        return Ok(out);
                    }
                }
                out.push(XPtr::from_raw(e.ptr));
            }
            if next.is_null() {
                return Ok(out);
            }
            leaf = next;
        }
    }

    /// Handles with `lo <= key <= hi` (either bound optional; `inclusive`
    /// flags control strictness).
    pub fn range(
        &self,
        vas: &Vas,
        lo: Option<&IndexKey>,
        lo_inclusive: bool,
        hi: Option<&IndexKey>,
        hi_inclusive: bool,
    ) -> IndexResult<Vec<XPtr>> {
        self.metrics.range_scans.inc();
        let lo_enc = lo.map(|k| k.encode());
        let hi_enc = hi.map(|k| k.encode());
        self.range_scan(
            vas,
            lo_enc.as_deref(),
            lo_inclusive,
            hi_enc.as_deref(),
            hi_inclusive,
        )
    }

    /// Frees every page of the index (DROP INDEX). The tree must not be
    /// used afterwards.
    pub fn destroy(self, vas: &Vas) -> IndexResult<()> {
        let mut stack = vec![self.root];
        while let Some(p) = stack.pop() {
            let (node_type, link, entries) = {
                let page = vas.read(p)?;
                parse_page(&page)
            };
            if node_type == TYPE_INTERNAL {
                stack.push(link);
                for e in &entries {
                    stack.push(XPtr::from_raw(e.ptr));
                }
            }
            vas.free_page(p)?;
        }
        Ok(())
    }

    /// Every `(key, handle)` pair in key order (test/diagnostic support).
    pub fn scan_all(&self, vas: &Vas) -> IndexResult<Vec<(IndexKey, XPtr)>> {
        let mut out = Vec::new();
        let mut cur = self.root;
        loop {
            let (node_type, link, entries) = {
                let page = vas.read(cur)?;
                parse_page(&page)
            };
            if node_type == TYPE_LEAF {
                let mut leaf = cur;
                loop {
                    let (_, next, entries) = {
                        let page = vas.read(leaf)?;
                        parse_page(&page)
                    };
                    for e in entries {
                        let key = IndexKey::decode(&e.key)
                            .ok_or_else(|| IndexError::Corrupt("bad key bytes".into()))?;
                        out.push((key, XPtr::from_raw(e.ptr)));
                    }
                    if next.is_null() {
                        return Ok(out);
                    }
                    leaf = next;
                }
            }
            let _ = entries;
            cur = link;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_sas::{Sas, SasConfig, TxnToken, View};
    use std::sync::Arc;

    fn setup() -> (Arc<Sas>, Vas) {
        let sas = Sas::in_memory(SasConfig {
            page_size: 512,
            layer_size: 512 * 4096,
            buffer_frames: 4096,
        })
        .unwrap();
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        (sas, vas)
    }

    fn h(i: u64) -> XPtr {
        XPtr::from_raw(0x1000 + i * 8)
    }

    #[test]
    fn insert_and_lookup_small() {
        let (_sas, vas) = setup();
        let mut idx = BTreeIndex::create(&vas).unwrap();
        idx.insert(&vas, &IndexKey::string("b"), h(2)).unwrap();
        idx.insert(&vas, &IndexKey::string("a"), h(1)).unwrap();
        idx.insert(&vas, &IndexKey::string("c"), h(3)).unwrap();
        assert_eq!(
            idx.lookup(&vas, &IndexKey::string("a")).unwrap(),
            vec![h(1)]
        );
        assert_eq!(
            idx.lookup(&vas, &IndexKey::string("b")).unwrap(),
            vec![h(2)]
        );
        assert!(idx
            .lookup(&vas, &IndexKey::string("zz"))
            .unwrap()
            .is_empty());
        assert_eq!(idx.entries, 3);
    }

    #[test]
    fn many_inserts_split_pages() {
        let (_sas, vas) = setup();
        let mut idx = BTreeIndex::create(&vas).unwrap();
        let n = 2000u64;
        // Insert in a scrambled order.
        for i in 0..n {
            let k = (i * 7919) % n;
            idx.insert(&vas, &IndexKey::Number(k as f64), h(k)).unwrap();
        }
        assert_eq!(idx.entries, n);
        for probe in [0u64, 1, 500, 1234, n - 1] {
            assert_eq!(
                idx.lookup(&vas, &IndexKey::Number(probe as f64)).unwrap(),
                vec![h(probe)],
                "probe {probe}"
            );
        }
        // Full scan is sorted.
        let all = idx.scan_all(&vas).unwrap();
        assert_eq!(all.len(), n as usize);
        for w in all.windows(2) {
            assert!(w[0].0.encode() <= w[1].0.encode());
        }
    }

    #[test]
    fn duplicate_keys_accumulate() {
        let (_sas, vas) = setup();
        let mut idx = BTreeIndex::create(&vas).unwrap();
        for i in 0..50 {
            idx.insert(&vas, &IndexKey::string("dup"), h(i)).unwrap();
        }
        let handles = idx.lookup(&vas, &IndexKey::string("dup")).unwrap();
        assert_eq!(handles.len(), 50);
        // Sorted by handle (insertion used (key, handle) order).
        for w in handles.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn remove_specific_pairs() {
        let (_sas, vas) = setup();
        let mut idx = BTreeIndex::create(&vas).unwrap();
        for i in 0..10 {
            idx.insert(&vas, &IndexKey::Number(i as f64), h(i)).unwrap();
        }
        assert!(idx.remove(&vas, &IndexKey::Number(4.0), h(4)).unwrap());
        assert!(!idx.remove(&vas, &IndexKey::Number(4.0), h(4)).unwrap());
        assert!(idx.lookup(&vas, &IndexKey::Number(4.0)).unwrap().is_empty());
        assert_eq!(idx.entries, 9);
        // Removing one duplicate leaves the others.
        idx.insert(&vas, &IndexKey::string("x"), h(100)).unwrap();
        idx.insert(&vas, &IndexKey::string("x"), h(101)).unwrap();
        assert!(idx.remove(&vas, &IndexKey::string("x"), h(100)).unwrap());
        assert_eq!(
            idx.lookup(&vas, &IndexKey::string("x")).unwrap(),
            vec![h(101)]
        );
    }

    #[test]
    fn range_queries() {
        let (_sas, vas) = setup();
        let mut idx = BTreeIndex::create(&vas).unwrap();
        for i in 0..100u64 {
            idx.insert(&vas, &IndexKey::Number(i as f64), h(i)).unwrap();
        }
        let mid = idx
            .range(
                &vas,
                Some(&IndexKey::Number(10.0)),
                true,
                Some(&IndexKey::Number(20.0)),
                false,
            )
            .unwrap();
        assert_eq!(mid.len(), 10);
        assert_eq!(mid[0], h(10));
        assert_eq!(mid[9], h(19));
        let from = idx
            .range(&vas, Some(&IndexKey::Number(95.0)), false, None, true)
            .unwrap();
        assert_eq!(from.len(), 4);
        let all = idx.range(&vas, None, true, None, true).unwrap();
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn mixed_types_partition() {
        let (_sas, vas) = setup();
        let mut idx = BTreeIndex::create(&vas).unwrap();
        idx.insert(&vas, &IndexKey::Number(5.0), h(1)).unwrap();
        idx.insert(&vas, &IndexKey::string("5"), h(2)).unwrap();
        assert_eq!(
            idx.lookup(&vas, &IndexKey::Number(5.0)).unwrap(),
            vec![h(1)]
        );
        assert_eq!(
            idx.lookup(&vas, &IndexKey::string("5")).unwrap(),
            vec![h(2)]
        );
    }

    #[test]
    fn oversized_keys_rejected() {
        let (_sas, vas) = setup();
        let mut idx = BTreeIndex::create(&vas).unwrap();
        let huge = "k".repeat(4096);
        assert!(matches!(
            idx.insert(&vas, &IndexKey::string(huge), h(1)),
            Err(IndexError::KeyTooLarge(_))
        ));
    }

    #[test]
    fn string_keys_with_long_values_split_correctly() {
        let (_sas, vas) = setup();
        let mut idx = BTreeIndex::create(&vas).unwrap();
        for i in 0..300 {
            let key = format!("prefix-{:04}-{}", i, "pad".repeat(3));
            idx.insert(&vas, &IndexKey::string(key), h(i)).unwrap();
        }
        for i in [0, 123, 299] {
            let key = format!("prefix-{:04}-{}", i, "pad".repeat(3));
            assert_eq!(
                idx.lookup(&vas, &IndexKey::string(key)).unwrap(),
                vec![h(i)]
            );
        }
    }
}
