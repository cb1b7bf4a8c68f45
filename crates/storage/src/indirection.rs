//! The indirection table (Section 4.1.2): node handles.
//!
//! "The node handle in Sedna is implemented as an entry of the indirection
//! table that holds a pointer to that node. Actually indirection table
//! lays in the same blocks the nodes lay. While a node can change its
//! physical location, entries of the indirection table are guaranteed to
//! preserve their position during the lifetime of the XML nodes they
//! point to."
//!
//! A handle is simply the [`XPtr`] of the entry; dereferencing a handle is
//! one extra pointer hop. The parent pointer of every node descriptor goes
//! through a handle, which is what makes node moves O(1) (experiment E4).

use sedna_sas::{Vas, XPtr};

use crate::error::{StorageError, StorageResult};
use crate::layout::{FREE_ENTRY_TAG, KIND_NODE_BLOCK};
use crate::util::get_u64;

/// Dereferences a node handle to the node descriptor's current address.
pub fn deref_handle(vas: &Vas, handle: XPtr) -> StorageResult<XPtr> {
    let page = vas.read(handle)?;
    if page[crate::layout::BH_KIND] != KIND_NODE_BLOCK {
        return Err(StorageError::BadPointer(handle, "node block"));
    }
    let raw = get_u64(&page, handle.offset_in_page(vas.page_size()));
    if raw & FREE_ENTRY_TAG == FREE_ENTRY_TAG {
        return Err(StorageError::BadPointer(handle, "live indirection entry"));
    }
    Ok(XPtr::from_raw(raw))
}

/// Redirects a handle to a node's new physical location — the single
/// pointer update that replaces per-child parent rewrites when a node
/// moves.
pub fn retarget_handle(vas: &Vas, handle: XPtr, new_target: XPtr) -> StorageResult<()> {
    let off = handle.offset_in_page(vas.page_size());
    let mut page = vas.write(handle)?;
    if page[crate::layout::BH_KIND] != KIND_NODE_BLOCK {
        return Err(StorageError::BadPointer(handle, "node block"));
    }
    new_target.write_at(&mut page, off);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block;
    use sedna_sas::{Sas, SasConfig, TxnToken, View};
    use sedna_schema::SchemaNodeId;

    #[test]
    fn handle_deref_and_retarget() {
        let sas = Sas::in_memory(SasConfig {
            page_size: 1024,
            layer_size: 64 * 1024,
            buffer_frames: 16,
        })
        .unwrap();
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));

        let (blk, mut page) = vas.alloc_page().unwrap();
        block::init_node_block(&mut page, SchemaNodeId(1), 0);
        let target1 = XPtr::new(5, 64);
        let entry_off = block::alloc_indir_entry(&mut page, 1024, target1).unwrap();
        drop(page);
        let handle = blk.offset(entry_off as u32);

        assert_eq!(deref_handle(&vas, handle).unwrap(), target1);
        let target2 = XPtr::new(6, 128);
        retarget_handle(&vas, handle, target2).unwrap();
        assert_eq!(deref_handle(&vas, handle).unwrap(), target2);
    }

    #[test]
    fn freed_entry_rejected() {
        let sas = Sas::in_memory(SasConfig {
            page_size: 1024,
            layer_size: 64 * 1024,
            buffer_frames: 16,
        })
        .unwrap();
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        let (blk, mut page) = vas.alloc_page().unwrap();
        block::init_node_block(&mut page, SchemaNodeId(1), 0);
        let entry_off = block::alloc_indir_entry(&mut page, 1024, XPtr::new(5, 64)).unwrap();
        block::free_indir_entry(&mut page, 1024, entry_off);
        drop(page);
        let handle = blk.offset(entry_off as u32);
        assert!(matches!(
            deref_handle(&vas, handle),
            Err(StorageError::BadPointer(_, _))
        ));
    }
}
