//! Slotted-page text storage.
//!
//! "In our storage we separate the structural part of an XML node (i.e.
//! markup) and text value. [...] Due to unrestricted length support
//! required for text values, they are stored in blocks according to the
//! well-known slotted-page structure method developed specifically for
//! data of variable length." (Section 4.1)
//!
//! A stored string is addressed by an [`XPtr`] to its **slot-directory
//! entry**; the directory never moves, so the reference stays valid across
//! in-page compaction. Values longer than a page are chained across
//! chunks.

use sedna_sas::{Vas, XPtr};
use sedna_schema as _; // (crate linkage; schema types not needed here)

use crate::error::{StorageError, StorageResult};
use crate::layout::*;
use crate::util::*;

/// Per-document text storage anchors.
///
/// Text values are clustered by **group** (the schema node of the owning
/// XML node): every group has its own chain of slotted text blocks, so a
/// typed scan that reads the values of one schema node touches only that
/// group's pages — the schema-driven clustering principle applied to the
/// value part of nodes, matching the structural clustering of §4.1.
/// Allocation targets a group's chain head; a full head gets a fresh
/// block prepended.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TextStore {
    /// Chain heads per group (`schema node id` → head block).
    pub heads: std::collections::BTreeMap<u32, XPtr>,
}

/// Number of chain blocks probed for free space before a new block is
/// prepended.
const ALLOC_PROBE: usize = 4;

impl TextStore {
    /// Creates an empty text store.
    pub fn new() -> TextStore {
        TextStore::default()
    }

    /// The chain head of `group` (`XPtr::NULL` when the group has no
    /// text yet).
    pub fn head_of(&self, group: u32) -> XPtr {
        self.heads.get(&group).copied().unwrap_or(XPtr::NULL)
    }

    /// Top of the data area: offsets in the slot directory are 16-bit, so
    /// pages larger than 64 KiB address at most the first 65 535 bytes for
    /// text data (one byte of a 64 KiB page goes unused).
    fn data_top(page_size: usize) -> usize {
        page_size.min(u16::MAX as usize)
    }

    /// Largest single-chunk payload for the given page size.
    fn max_chunk(page_size: usize) -> usize {
        // Worst-case per-chunk overhead: slot entry + flags + next pointer.
        Self::data_top(page_size) - TEXT_HEADER_LEN - TEXT_SLOT_LEN - TEXT_CHUNK_HDR - 8
    }

    /// Stores `bytes` in `group`'s chain, returning the stable text
    /// reference.
    pub fn alloc(&mut self, vas: &Vas, group: u32, bytes: &[u8]) -> StorageResult<XPtr> {
        let max = Self::max_chunk(vas.page_size());
        // Build the chunk chain from the tail so each chunk knows its
        // successor.
        if bytes.len() <= max {
            return self.alloc_chunk(vas, group, bytes, XPtr::NULL);
        }
        let mut chunks: Vec<&[u8]> = bytes.chunks(max).collect();
        let mut next = XPtr::NULL;
        while let Some(chunk) = chunks.pop() {
            next = self.alloc_chunk(vas, group, chunk, next)?;
        }
        Ok(next)
    }

    /// Reads the full value behind `text_ref`.
    pub fn read(vas: &Vas, text_ref: XPtr) -> StorageResult<Vec<u8>> {
        let mut out = Vec::new();
        let mut cur = text_ref;
        while !cur.is_null() {
            let page = vas.read(cur)?;
            if page[TH_KIND] != KIND_TEXT_BLOCK {
                return Err(StorageError::BadPointer(cur, "text block"));
            }
            let ps = vas.page_size();
            let slot_at = cur.offset_in_page(ps);
            let data_off = get_u16(&page, slot_at) as usize;
            let len = get_u16(&page, slot_at + 2) as usize;
            if data_off == 0 {
                return Err(StorageError::BadPointer(cur, "live text slot"));
            }
            let chunk = &page[data_off..data_off + len];
            let flags = chunk[0];
            if flags & TEXT_CHUNK_CONTINUED != 0 {
                cur = XPtr::read_at(chunk, TEXT_CHUNK_HDR);
                out.extend_from_slice(&chunk[TEXT_CHUNK_HDR + 8..]);
            } else {
                cur = XPtr::NULL;
                out.extend_from_slice(&chunk[TEXT_CHUNK_HDR..]);
            }
        }
        Ok(out)
    }

    /// Frees the value behind `text_ref` (every chunk in the chain).
    pub fn free(vas: &Vas, text_ref: XPtr) -> StorageResult<()> {
        let mut cur = text_ref;
        while !cur.is_null() {
            let ps = vas.page_size();
            let slot_at = cur.offset_in_page(ps);
            let mut page = vas.write(cur)?;
            if page[TH_KIND] != KIND_TEXT_BLOCK {
                return Err(StorageError::BadPointer(cur, "text block"));
            }
            let data_off = get_u16(&page, slot_at) as usize;
            let len = get_u16(&page, slot_at + 2) as usize;
            if data_off == 0 {
                return Err(StorageError::BadPointer(cur, "live text slot"));
            }
            let chunk_flags = page[data_off];
            let next = if chunk_flags & TEXT_CHUNK_CONTINUED != 0 {
                XPtr::read_at(&page, data_off + TEXT_CHUNK_HDR)
            } else {
                XPtr::NULL
            };
            // Mark the slot free and thread it on the free list.
            let slot_idx = ((slot_at - TEXT_HEADER_LEN) / TEXT_SLOT_LEN) as u16;
            let free_head = get_u16(&page, TH_FREE_SLOT_HEAD);
            put_u16(&mut page, slot_at, 0);
            put_u16(&mut page, slot_at + 2, free_head);
            put_u16(&mut page, TH_FREE_SLOT_HEAD, slot_idx);
            let live = get_u16(&page, TH_LIVE_COUNT) - 1;
            put_u16(&mut page, TH_LIVE_COUNT, live);
            let dead = get_u16(&page, TH_DEAD_BYTES) as usize + len;
            put_u16(&mut page, TH_DEAD_BYTES, dead.min(u16::MAX as usize) as u16);
            drop(page);
            cur = next;
        }
        Ok(())
    }

    /// Replaces the value behind `text_ref` — frees the old chain and
    /// allocates anew (the node's value pointer must be updated to the
    /// returned reference).
    pub fn replace(
        &mut self,
        vas: &Vas,
        group: u32,
        text_ref: XPtr,
        bytes: &[u8],
    ) -> StorageResult<XPtr> {
        Self::free(vas, text_ref)?;
        self.alloc(vas, group, bytes)
    }

    fn alloc_chunk(
        &mut self,
        vas: &Vas,
        group: u32,
        payload: &[u8],
        next: XPtr,
    ) -> StorageResult<XPtr> {
        let chunk_len = if next.is_null() {
            TEXT_CHUNK_HDR + payload.len()
        } else {
            TEXT_CHUNK_HDR + 8 + payload.len()
        };
        // Probe a few of the group's chain blocks for space.
        let head = self.head_of(group);
        let mut cur = head;
        let mut probed = 0;
        while !cur.is_null() && probed < ALLOC_PROBE {
            if let Some(r) = self.try_alloc_in(vas, cur, payload, next, chunk_len)? {
                return Ok(r);
            }
            let page = vas.read(cur)?;
            cur = get_xptr(&page, TH_NEXT);
            probed += 1;
        }
        // Prepend a fresh text block to the group's chain.
        let (block, mut page) = vas.alloc_page()?;
        page[TH_KIND] = KIND_TEXT_BLOCK;
        put_u16(&mut page, TH_SLOT_COUNT, 0);
        put_u16(
            &mut page,
            TH_DATA_START,
            Self::data_top(vas.page_size()) as u16,
        );
        put_u16(&mut page, TH_FREE_SLOT_HEAD, NO_SLOT);
        put_u16(&mut page, TH_LIVE_COUNT, 0);
        put_u16(&mut page, TH_DEAD_BYTES, 0);
        put_xptr(&mut page, TH_NEXT, head);
        drop(page);
        self.heads.insert(group, block);
        self.try_alloc_in(vas, block, payload, next, chunk_len)?
            .ok_or_else(|| {
                StorageError::TooLarge(format!(
                    "text chunk of {} bytes does not fit an empty block",
                    chunk_len
                ))
            })
    }

    /// Attempts allocation inside `block`; `Ok(None)` = no room.
    fn try_alloc_in(
        &mut self,
        vas: &Vas,
        block: XPtr,
        payload: &[u8],
        next: XPtr,
        chunk_len: usize,
    ) -> StorageResult<Option<XPtr>> {
        let ps = vas.page_size();
        let mut page = vas.write(block)?;
        debug_assert_eq!(page[TH_KIND], KIND_TEXT_BLOCK);
        let slot_count = get_u16(&page, TH_SLOT_COUNT) as usize;
        let free_head = get_u16(&page, TH_FREE_SLOT_HEAD);
        let need_new_slot = free_head == NO_SLOT;
        let dir_end = TEXT_HEADER_LEN
            + slot_count * TEXT_SLOT_LEN
            + if need_new_slot { TEXT_SLOT_LEN } else { 0 };
        let mut data_start = get_u16(&page, TH_DATA_START) as usize;
        if data_start < dir_end + chunk_len {
            // Try in-page compaction if enough dead space exists.
            let dead = get_u16(&page, TH_DEAD_BYTES) as usize;
            if dead == 0 || data_start + dead < dir_end + chunk_len {
                return Ok(None);
            }
            Self::compact(&mut page, ps);
            data_start = get_u16(&page, TH_DATA_START) as usize;
            if data_start < dir_end + chunk_len {
                return Ok(None);
            }
        }
        // Claim a slot.
        let slot_idx = if need_new_slot {
            put_u16(&mut page, TH_SLOT_COUNT, (slot_count + 1) as u16);
            slot_count as u16
        } else {
            let idx = free_head;
            let at = TEXT_HEADER_LEN + idx as usize * TEXT_SLOT_LEN;
            let next_free = get_u16(&page, at + 2);
            put_u16(&mut page, TH_FREE_SLOT_HEAD, next_free);
            idx
        };
        // Place the data.
        let off = data_start - chunk_len;
        {
            let chunk = &mut page[off..off + chunk_len];
            if next.is_null() {
                chunk[0] = 0;
                chunk[TEXT_CHUNK_HDR..].copy_from_slice(payload);
            } else {
                chunk[0] = TEXT_CHUNK_CONTINUED;
                next.write_at(chunk, TEXT_CHUNK_HDR);
                chunk[TEXT_CHUNK_HDR + 8..].copy_from_slice(payload);
            }
        }
        put_u16(&mut page, TH_DATA_START, off as u16);
        let slot_at = TEXT_HEADER_LEN + slot_idx as usize * TEXT_SLOT_LEN;
        put_u16(&mut page, slot_at, off as u16);
        put_u16(&mut page, slot_at + 2, chunk_len as u16);
        let live = get_u16(&page, TH_LIVE_COUNT) + 1;
        put_u16(&mut page, TH_LIVE_COUNT, live);
        Ok(Some(block.offset(slot_at as u32)))
    }

    /// In-page compaction: repacks live chunks against the page end,
    /// keeping slot indices (and therefore external references) stable.
    fn compact(page: &mut [u8], page_size: usize) {
        let page_size = Self::data_top(page_size);
        let slot_count = get_u16(page, TH_SLOT_COUNT) as usize;
        // Collect live slots ordered by current data offset, descending,
        // so we can repack from the end without overlap.
        let mut live: Vec<(usize, usize, usize)> = (0..slot_count)
            .filter_map(|i| {
                let at = TEXT_HEADER_LEN + i * TEXT_SLOT_LEN;
                let off = get_u16(page, at) as usize;
                let len = get_u16(page, at + 2) as usize;
                (off != 0).then_some((i, off, len))
            })
            .collect();
        live.sort_by_key(|&(_, off, _)| std::cmp::Reverse(off));
        let mut write_end = page_size;
        for (slot, off, len) in live {
            let new_off = write_end - len;
            if new_off != off {
                page.copy_within(off..off + len, new_off);
                let at = TEXT_HEADER_LEN + slot * TEXT_SLOT_LEN;
                put_u16(page, at, new_off as u16);
            }
            write_end = new_off;
        }
        put_u16(page, TH_DATA_START, write_end as u16);
        put_u16(page, TH_DEAD_BYTES, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_sas::{Sas, SasConfig, TxnToken, View};
    use std::sync::Arc;

    fn setup() -> (Arc<Sas>, Vas) {
        let sas = Sas::in_memory(SasConfig {
            page_size: 1024,
            layer_size: 64 * 1024,
            buffer_frames: 64,
        })
        .unwrap();
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        (sas, vas)
    }

    #[test]
    fn small_value_round_trip() {
        let (_sas, vas) = setup();
        let mut ts = TextStore::new();
        let r = ts.alloc(&vas, 0, b"Foundations of Databases").unwrap();
        assert_eq!(
            TextStore::read(&vas, r).unwrap(),
            b"Foundations of Databases"
        );
    }

    #[test]
    fn empty_value_round_trip() {
        let (_sas, vas) = setup();
        let mut ts = TextStore::new();
        let r = ts.alloc(&vas, 0, b"").unwrap();
        assert_eq!(TextStore::read(&vas, r).unwrap(), b"");
    }

    #[test]
    fn many_values_share_blocks() {
        let (_sas, vas) = setup();
        let mut ts = TextStore::new();
        let refs: Vec<(XPtr, Vec<u8>)> = (0..100)
            .map(|i| {
                let v = format!("value number {i}").into_bytes();
                (ts.alloc(&vas, 0, &v).unwrap(), v)
            })
            .collect();
        for (r, v) in &refs {
            assert_eq!(&TextStore::read(&vas, *r).unwrap(), v);
        }
    }

    #[test]
    fn unrestricted_length_values_chain() {
        let (_sas, vas) = setup();
        let mut ts = TextStore::new();
        // 10 KiB value on 1 KiB pages: must chain across ≥10 chunks.
        let big: Vec<u8> = (0..10_240u32).map(|i| (i % 251) as u8).collect();
        let r = ts.alloc(&vas, 0, &big).unwrap();
        assert_eq!(TextStore::read(&vas, r).unwrap(), big);
        TextStore::free(&vas, r).unwrap();
    }

    #[test]
    fn free_then_realloc_reuses_space() {
        let (_sas, vas) = setup();
        let mut ts = TextStore::new();
        let r1 = ts.alloc(&vas, 0, &[b'x'; 300]).unwrap();
        let first_block = r1.page(1024);
        TextStore::free(&vas, r1).unwrap();
        // Freed slot + compaction leave room in the same block.
        let r2 = ts.alloc(&vas, 0, &[b'y'; 300]).unwrap();
        assert_eq!(r2.page(1024), first_block, "block was reused");
        assert_eq!(TextStore::read(&vas, r2).unwrap(), vec![b'y'; 300]);
    }

    #[test]
    fn compaction_keeps_references_valid() {
        let (_sas, vas) = setup();
        let mut ts = TextStore::new();
        // Fill a block with alternating values, free half to fragment it,
        // then allocate something that only fits after compaction.
        let keep: Vec<XPtr> = (0..6)
            .map(|i| {
                ts.alloc(&vas, 0, format!("keeper-{i}-{}", "k".repeat(50)).as_bytes())
                    .unwrap()
            })
            .collect();
        let drop_refs: Vec<XPtr> = (0..6)
            .map(|i| {
                ts.alloc(&vas, 0, format!("dropme-{i}-{}", "d".repeat(50)).as_bytes())
                    .unwrap()
            })
            .collect();
        for r in drop_refs {
            TextStore::free(&vas, r).unwrap();
        }
        let big = ts.alloc(&vas, 0, &[b'z'; 350]).unwrap();
        assert_eq!(TextStore::read(&vas, big).unwrap(), vec![b'z'; 350]);
        for (i, r) in keep.iter().enumerate() {
            let v = TextStore::read(&vas, *r).unwrap();
            assert!(v.starts_with(format!("keeper-{i}").as_bytes()));
        }
    }

    #[test]
    fn replace_returns_fresh_reference() {
        let (_sas, vas) = setup();
        let mut ts = TextStore::new();
        let r1 = ts.alloc(&vas, 0, b"old").unwrap();
        let r2 = ts.replace(&vas, 0, r1, b"brand new value").unwrap();
        assert_eq!(TextStore::read(&vas, r2).unwrap(), b"brand new value");
    }

    #[test]
    fn reading_freed_slot_errors() {
        let (_sas, vas) = setup();
        let mut ts = TextStore::new();
        let r = ts.alloc(&vas, 0, b"gone").unwrap();
        TextStore::free(&vas, r).unwrap();
        assert!(matches!(
            TextStore::read(&vas, r),
            Err(StorageError::BadPointer(_, _))
        ));
    }
}
