//! Pointer-swizzling baseline for experiment E2.
//!
//! Section 2 of the paper surveys techniques (QuickStore, ObjectStore) that
//! bridge the database address space and the process VAS by **pointer
//! swizzling**: database pointers are translated to in-memory pointers
//! through a relocation structure, and "the disadvantage of all of the
//! techniques is that the pointer representations in DAS and VAS are
//! different that makes the conversion expensive".
//!
//! [`SwizzleSpace`] reproduces that class of designs over the same buffer
//! pool and page store: every dereference performs a translation-table
//! lookup (page address → resident frame) under a lock, which is exactly
//! the per-access cost the Sedna equality-basis mapping removes. E2
//! compares `Vas::read` (slot index + tag check) against
//! `SwizzleSpace::read` (hash lookup) and a raw in-memory baseline.

use sedna_sync::{Arc, Mutex};
use std::collections::HashMap;

use crate::buffer::{FrameRef, PageRead};
use crate::error::{SasError, SasResult};
use crate::resolver::View;
use crate::store::PhysId;
use crate::xptr::XPtr;
use crate::Sas;

/// A swizzling-table address space over a shared [`Sas`].
pub struct SwizzleSpace {
    sas: Arc<Sas>,
    view: View,
    /// The swizzle (relocation) table: raw page address → resident frame.
    table: Mutex<HashMap<u64, (PhysId, FrameRef)>>,
}

impl SwizzleSpace {
    /// Creates a swizzling space reading at `view`.
    pub fn new(sas: Arc<Sas>, view: View) -> Self {
        SwizzleSpace {
            sas,
            view,
            table: Mutex::new(HashMap::new()),
        }
    }

    /// Dereferences `ptr` for reading through the swizzle table.
    pub fn read(&self, ptr: XPtr) -> SasResult<PageRead> {
        let page = ptr.page(self.sas.config().page_size);
        // Every dereference pays a table lookup — this is the conversion
        // cost the paper's equality mapping eliminates.
        let cached = self.table.lock().get(&page.raw()).cloned();
        if let Some((phys, fref)) = cached {
            if let Some(guard) = self.sas.pool().try_read(&fref, phys) {
                return Ok(guard);
            }
        }
        let phys = self.sas.resolver().resolve_read(page, self.view)?;
        let fref = self
            .sas
            .pool()
            .acquire(page, phys, self.sas.store().as_ref())?;
        let guard = self
            .sas
            .pool()
            .try_read(&fref, phys)
            .ok_or(SasError::PoolExhausted)?;
        self.table.lock().insert(page.raw(), (phys, fref));
        Ok(guard)
    }

    /// Number of entries in the swizzle table.
    pub fn table_len(&self) -> usize {
        self.table.lock().len()
    }

    /// Drops all translations (transaction boundary).
    pub fn clear(&self) {
        self.table.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::TxnToken;
    use crate::{SasConfig, PAGE_HEADER_LEN};

    #[test]
    fn swizzle_reads_same_bytes_as_vas() {
        let sas = Sas::in_memory(SasConfig {
            page_size: 512,
            layer_size: 16 * 512,
            buffer_frames: 8,
        })
        .unwrap();
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        let (page, mut w) = vas.alloc_page().unwrap();
        w.bytes_mut()[PAGE_HEADER_LEN] = 0x55;
        drop(w);

        let sw = SwizzleSpace::new(Arc::clone(&sas), View::LATEST);
        let r = sw.read(page).unwrap();
        assert_eq!(r[PAGE_HEADER_LEN], 0x55);
        assert_eq!(sw.table_len(), 1);
        // Second read goes through the table.
        let r2 = sw.read(page.offset(10)).unwrap();
        assert_eq!(r2[PAGE_HEADER_LEN], 0x55);
        sw.clear();
        assert_eq!(sw.table_len(), 0);
    }

    #[test]
    fn swizzle_survives_frame_recycling() {
        let sas = Sas::in_memory(SasConfig {
            page_size: 512,
            layer_size: 16 * 512,
            buffer_frames: 1,
        })
        .unwrap();
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        let (p1, mut w) = vas.alloc_page().unwrap();
        w.bytes_mut()[PAGE_HEADER_LEN] = 1;
        drop(w);
        let (p2, mut w) = vas.alloc_page().unwrap();
        w.bytes_mut()[PAGE_HEADER_LEN] = 2;
        drop(w);

        let sw = SwizzleSpace::new(Arc::clone(&sas), View::LATEST);
        assert_eq!(sw.read(p1).unwrap()[PAGE_HEADER_LEN], 1);
        assert_eq!(sw.read(p2).unwrap()[PAGE_HEADER_LEN], 2); // evicts p1
        assert_eq!(sw.read(p1).unwrap()[PAGE_HEADER_LEN], 1); // stale entry refreshed
    }
}
