//! Node-block management: header access, descriptor-slot and
//! indirection-entry allocation within a page.
//!
//! Descriptor slots grow upward from [`BLOCK_HEADER_LEN`]; indirection
//! entries grow downward from the page end; allocation fails when the two
//! areas would collide. Both areas recycle freed slots through in-page
//! free lists, so descriptors never shift — "fixed size facilitates more
//! efficient management of free space in blocks" (Section 4.1).

use sedna_sas::{Vas, XPtr};
use sedna_schema::SchemaNodeId;

use crate::descriptor::next_in_block;
use crate::error::{StorageError, StorageResult};
use crate::layout::*;
use crate::node::NodeRef;
use crate::util::*;

/// Initializes a zeroed page as a node block for `schema` with
/// `child_slots` child pointers per descriptor.
pub fn init_node_block(page: &mut [u8], schema: SchemaNodeId, child_slots: u16) {
    page[BH_KIND] = KIND_NODE_BLOCK;
    page[BH_FLAGS] = 0;
    put_u16(page, BH_CHILD_SLOTS, child_slots);
    put_u32(page, BH_SCHEMA_NODE, schema.0);
    put_xptr(page, BH_NEXT_BLOCK, XPtr::NULL);
    put_xptr(page, BH_PREV_BLOCK, XPtr::NULL);
    put_u16(page, BH_DESC_SIZE, desc_size(child_slots) as u16);
    put_u16(page, BH_DESC_SLOTS, 0);
    put_u16(page, BH_DESC_COUNT, 0);
    put_u16(page, BH_FIRST_DESC, NO_SLOT);
    put_u16(page, BH_LAST_DESC, NO_SLOT);
    put_u16(page, BH_FREE_HEAD, NO_SLOT);
    put_u16(page, BH_INDIR_COUNT, 0);
    put_u16(page, BH_INDIR_FREE_HEAD, NO_SLOT);
    put_u16(page, BH_INDIR_SLOTS, 0);
}

/// The schema node a block belongs to.
pub fn schema_of(page: &[u8]) -> SchemaNodeId {
    SchemaNodeId(get_u32(page, BH_SCHEMA_NODE))
}

/// The per-descriptor child-pointer count of this block.
pub fn child_slots(page: &[u8]) -> u16 {
    get_u16(page, BH_CHILD_SLOTS)
}

/// Bytes per descriptor in this block.
pub fn block_desc_size(page: &[u8]) -> u16 {
    get_u16(page, BH_DESC_SIZE)
}

/// Next block in the schema node's list.
pub fn next_block(page: &[u8]) -> XPtr {
    get_xptr(page, BH_NEXT_BLOCK)
}

/// Previous block in the schema node's list.
pub fn prev_block(page: &[u8]) -> XPtr {
    get_xptr(page, BH_PREV_BLOCK)
}

/// Live descriptors in this block.
pub fn desc_count(page: &[u8]) -> u16 {
    get_u16(page, BH_DESC_COUNT)
}

/// Live indirection entries in this block.
pub fn indir_count(page: &[u8]) -> u16 {
    get_u16(page, BH_INDIR_COUNT)
}

/// Slot index of the first descriptor in document order.
pub fn first_desc(page: &[u8]) -> u16 {
    get_u16(page, BH_FIRST_DESC)
}

/// Slot index of the last descriptor in document order.
pub fn last_desc(page: &[u8]) -> u16 {
    get_u16(page, BH_LAST_DESC)
}

/// Byte offset of descriptor slot `slot` within the page.
#[inline]
pub fn desc_offset(slot: u16, desc_size: u16) -> usize {
    BLOCK_HEADER_LEN + slot as usize * desc_size as usize
}

/// Byte offset of indirection entry `idx` within the page (entries grow
/// from the page end downward).
#[inline]
pub fn indir_offset(page_size: usize, idx: u16) -> usize {
    page_size - 8 * (idx as usize + 1)
}

/// Walks one block of a schema node's list: calls `visit` with each
/// descriptor in in-block chain (document) order and returns the next
/// block of the list (null at the end). One page read for the header,
/// then one per descriptor — the structural scan's hot loop. A chain
/// longer than the block's descriptor count is a cycle and fails.
pub fn scan_block(vas: &Vas, blk: XPtr, mut visit: impl FnMut(NodeRef)) -> StorageResult<XPtr> {
    let (mut slot, dsize, next, count) = {
        let page = vas.read(blk)?;
        (
            first_desc(&page),
            block_desc_size(&page),
            next_block(&page),
            desc_count(&page),
        )
    };
    let mut walked = 0u16;
    while slot != NO_SLOT {
        if walked > count {
            return Err(StorageError::Corrupt(format!(
                "corrupt in-block chain in {blk} (cycle suspected)"
            )));
        }
        walked += 1;
        let off = desc_offset(slot, dsize);
        visit(NodeRef(blk.offset(off as u32)));
        let page = vas.read(blk)?;
        slot = next_in_block(&page, off);
    }
    Ok(next)
}

/// Whether a page currently has room for one more descriptor.
pub fn has_desc_room(page: &[u8], page_size: usize) -> bool {
    if get_u16(page, BH_FREE_HEAD) != NO_SLOT {
        return true;
    }
    let slots = get_u16(page, BH_DESC_SLOTS) as usize;
    let size = get_u16(page, BH_DESC_SIZE) as usize;
    let indir_slots = get_u16(page, BH_INDIR_SLOTS) as usize;
    BLOCK_HEADER_LEN + (slots + 1) * size <= page_size - 8 * indir_slots
}

/// Allocates a descriptor slot, zeroing its bytes. Returns `None` when the
/// descriptor area would collide with the indirection area.
pub fn alloc_desc_slot(page: &mut [u8], page_size: usize) -> Option<u16> {
    let size = get_u16(page, BH_DESC_SIZE);
    let free = get_u16(page, BH_FREE_HEAD);
    let slot = if free != NO_SLOT {
        // Pop the free list (next link lives in the slot's
        // next-in-block field while free).
        let off = desc_offset(free, size);
        let next = get_u16(page, off + ND_NEXT_IN_BLOCK);
        put_u16(page, BH_FREE_HEAD, next);
        free
    } else {
        let slots = get_u16(page, BH_DESC_SLOTS);
        let indir_slots = get_u16(page, BH_INDIR_SLOTS) as usize;
        let end = BLOCK_HEADER_LEN + (slots as usize + 1) * size as usize;
        if end > page_size - 8 * indir_slots {
            return None;
        }
        put_u16(page, BH_DESC_SLOTS, slots + 1);
        slots
    };
    let off = desc_offset(slot, size);
    page[off..off + size as usize].fill(0);
    put_u16(page, BH_DESC_COUNT, get_u16(page, BH_DESC_COUNT) + 1);
    Some(slot)
}

/// Returns a descriptor slot to the block's free list.
pub fn free_desc_slot(page: &mut [u8], slot: u16) {
    let size = get_u16(page, BH_DESC_SIZE);
    let off = desc_offset(slot, size);
    // Poison the kind byte and thread the free list.
    page[off + ND_KIND] = 0xFF;
    let head = get_u16(page, BH_FREE_HEAD);
    put_u16(page, off + ND_NEXT_IN_BLOCK, head);
    put_u16(page, BH_FREE_HEAD, slot);
    put_u16(page, BH_DESC_COUNT, get_u16(page, BH_DESC_COUNT) - 1);
}

/// Whether a page has room for one more indirection entry.
pub fn has_indir_room(page: &[u8], page_size: usize) -> bool {
    if get_u16(page, BH_INDIR_FREE_HEAD) != NO_SLOT {
        return true;
    }
    let slots = get_u16(page, BH_DESC_SLOTS) as usize;
    let size = get_u16(page, BH_DESC_SIZE) as usize;
    let indir_slots = get_u16(page, BH_INDIR_SLOTS) as usize;
    BLOCK_HEADER_LEN + slots * size <= page_size - 8 * (indir_slots + 1)
}

/// Allocates an indirection entry pointing at `target`; returns the
/// entry's page offset, or `None` when the areas would collide.
pub fn alloc_indir_entry(page: &mut [u8], page_size: usize, target: XPtr) -> Option<usize> {
    let free = get_u16(page, BH_INDIR_FREE_HEAD);
    let idx = if free != NO_SLOT {
        let off = indir_offset(page_size, free);
        let raw = get_u64(page, off);
        debug_assert_eq!(raw & FREE_ENTRY_TAG, FREE_ENTRY_TAG);
        put_u16(page, BH_INDIR_FREE_HEAD, (raw & 0xFFFF) as u16);
        free
    } else {
        let slots = get_u16(page, BH_INDIR_SLOTS);
        let desc_slots = get_u16(page, BH_DESC_SLOTS) as usize;
        let size = get_u16(page, BH_DESC_SIZE) as usize;
        if BLOCK_HEADER_LEN + desc_slots * size > page_size - 8 * (slots as usize + 1) {
            return None;
        }
        put_u16(page, BH_INDIR_SLOTS, slots + 1);
        slots
    };
    let off = indir_offset(page_size, idx);
    put_xptr(page, off, target);
    put_u16(page, BH_INDIR_COUNT, get_u16(page, BH_INDIR_COUNT) + 1);
    Some(off)
}

/// Frees the indirection entry at page offset `entry_off`.
pub fn free_indir_entry(page: &mut [u8], page_size: usize, entry_off: usize) {
    let idx = ((page_size - entry_off) / 8 - 1) as u16;
    let head = get_u16(page, BH_INDIR_FREE_HEAD);
    put_u64(page, entry_off, FREE_ENTRY_TAG | head as u64);
    put_u16(page, BH_INDIR_FREE_HEAD, idx);
    put_u16(page, BH_INDIR_COUNT, get_u16(page, BH_INDIR_COUNT) - 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = 1024;

    fn fresh_block(child_slots: u16) -> Vec<u8> {
        let mut page = vec![0u8; PS];
        init_node_block(&mut page, SchemaNodeId(7), child_slots);
        page
    }

    #[test]
    fn header_round_trip() {
        let page = fresh_block(3);
        assert_eq!(schema_of(&page), SchemaNodeId(7));
        assert_eq!(child_slots(&page), 3);
        assert_eq!(block_desc_size(&page) as usize, desc_size(3));
        assert_eq!(desc_count(&page), 0);
        assert_eq!(first_desc(&page), NO_SLOT);
        assert!(next_block(&page).is_null());
    }

    #[test]
    fn desc_alloc_free_recycle() {
        let mut page = fresh_block(0);
        let a = alloc_desc_slot(&mut page, PS).unwrap();
        let b = alloc_desc_slot(&mut page, PS).unwrap();
        assert_ne!(a, b);
        assert_eq!(desc_count(&page), 2);
        free_desc_slot(&mut page, a);
        assert_eq!(desc_count(&page), 1);
        let c = alloc_desc_slot(&mut page, PS).unwrap();
        assert_eq!(c, a, "freed slot is reused first");
        // Reused slot is zeroed.
        let off = desc_offset(c, block_desc_size(&page));
        assert!(page[off..off + desc_size(0)].iter().all(|&b| b == 0));
    }

    #[test]
    fn desc_area_capacity_is_bounded() {
        let mut page = fresh_block(0);
        let mut n = 0;
        while alloc_desc_slot(&mut page, PS).is_some() {
            n += 1;
        }
        let expect = (PS - BLOCK_HEADER_LEN) / desc_size(0);
        assert_eq!(n, expect);
        assert!(!has_desc_room(&page, PS));
        free_desc_slot(&mut page, 3);
        assert!(has_desc_room(&page, PS));
    }

    #[test]
    fn indir_entries_grow_from_end() {
        let mut page = fresh_block(0);
        let t1 = XPtr::new(1, 64);
        let t2 = XPtr::new(1, 128);
        let o1 = alloc_indir_entry(&mut page, PS, t1).unwrap();
        let o2 = alloc_indir_entry(&mut page, PS, t2).unwrap();
        assert_eq!(o1, PS - 8);
        assert_eq!(o2, PS - 16);
        assert_eq!(get_xptr(&page, o1), t1);
        assert_eq!(get_xptr(&page, o2), t2);
        assert_eq!(indir_count(&page), 2);
        free_indir_entry(&mut page, PS, o1);
        assert_eq!(indir_count(&page), 1);
        let o3 = alloc_indir_entry(&mut page, PS, t2).unwrap();
        assert_eq!(o3, o1, "freed entry index reused");
    }

    #[test]
    fn areas_collide_gracefully() {
        let mut page = fresh_block(0);
        // Fill descriptors fully; the leftover tail still fits a few
        // indirection entries, after which both allocators must refuse.
        while alloc_desc_slot(&mut page, PS).is_some() {}
        let mut entries = 0;
        while alloc_indir_entry(&mut page, PS, XPtr::new(1, 0)).is_some() {
            entries += 1;
        }
        let leftover =
            PS - BLOCK_HEADER_LEN - (get_u16(&page, BH_DESC_SLOTS) as usize) * desc_size(0);
        assert_eq!(entries, leftover / 8);
        assert!(!has_indir_room(&page, PS));
        assert!(!has_desc_room(&page, PS));
        // Freeing an indirection entry reopens exactly one entry.
        free_indir_entry(&mut page, PS, indir_offset(PS, 0));
        assert!(has_indir_room(&page, PS));
    }

    #[test]
    fn wide_descriptors_reduce_capacity() {
        let mut narrow = fresh_block(0);
        let mut wide = fresh_block(8);
        let mut n_narrow = 0;
        while alloc_desc_slot(&mut narrow, PS).is_some() {
            n_narrow += 1;
        }
        let mut n_wide = 0;
        while alloc_desc_slot(&mut wide, PS).is_some() {
            n_wide += 1;
        }
        assert!(n_wide < n_narrow);
    }
}
