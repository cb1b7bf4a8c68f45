//! Translation of SAS page addresses to physical page versions.
//!
//! In Sedna (Section 6.1) each page may exist in several versions; which
//! physical image a dereference reaches depends on who is asking: an
//! updating transaction sees its own working version, everyone else sees
//! the last committed version, and a read-only transaction sees the version
//! belonging to its snapshot. The [`PageResolver`] trait is that decision
//! point; the buffer manager consults it only on a VAS fault, so the
//! fast path stays a slot lookup.

use sedna_sync::{Arc, Mutex};
use std::collections::HashMap;

use crate::error::{SasError, SasResult};
use crate::store::{PageStore, PhysId};
use crate::xptr::XPtr;

/// The version-visibility context of a dereference.
///
/// `View::LATEST` designates the last committed state; other values are
/// interpreted by the installed resolver (the transaction manager encodes
/// snapshot timestamps and transaction identifiers in them).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct View(pub u64);

impl View {
    /// The last-committed-state view.
    pub const LATEST: View = View(0);
}

/// Identifier of a write transaction, handed to [`PageResolver::resolve_write`]
/// so the resolver can create/find that transaction's working version.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TxnToken(pub u64);

/// The resolver's answer to a write fault.
#[derive(Copy, Clone, Debug)]
pub struct WritePlan {
    /// Physical slot the write must target (the working version).
    pub phys: PhysId,
    /// When `Some(old)`, the caller is creating a **new version**: the
    /// current frame content corresponds to physical slot `old` and must be
    /// flushed there if dirty before the frame is retargeted to `phys`,
    /// so that readers of the old version keep seeing consistent bytes.
    pub copy_from: Option<PhysId>,
}

/// Resolves SAS page addresses to physical page slots for a given view.
pub trait PageResolver: Send + Sync {
    /// Gives the resolver access to the buffer pool so it can drop frames
    /// of physical slots it frees. Called once by `Sas::new`.
    fn attach_pool(&self, _pool: Arc<crate::BufferPool>) {}

    /// Physical location of the version of `page` visible to `view`.
    fn resolve_read(&self, page: XPtr, view: View) -> SasResult<PhysId>;

    /// Physical location transaction `txn` must write `page` at, creating a
    /// working version if necessary. Must be idempotent within one
    /// transaction.
    fn resolve_write(&self, page: XPtr, txn: TxnToken) -> SasResult<WritePlan>;

    /// Registers a brand-new page allocated by `txn`; returns its physical
    /// slot.
    fn on_page_alloc(&self, page: XPtr, txn: Option<TxnToken>) -> SasResult<PhysId>;

    /// Releases `page` (all its versions become garbage once unreferenced).
    fn on_page_free(&self, page: XPtr, txn: Option<TxnToken>) -> SasResult<()>;

    /// Takes the addresses of the pages no view can read any more — each
    /// free final and every snapshot and branch that read the page gone —
    /// so the allocator can hand them out again.
    fn take_reclaimed(&self) -> Vec<XPtr> {
        Vec::new()
    }
}

/// A resolver with no versioning: each SAS page maps to exactly one
/// physical slot. This is the configuration of a database without
/// multiversioning, and the substrate for unit tests and the in-memory
/// query engine.
pub struct DirectResolver {
    store: Arc<dyn PageStore>,
    map: Mutex<HashMap<u64, PhysId>>,
    pool: Mutex<Option<Arc<crate::BufferPool>>>,
}

impl DirectResolver {
    /// Creates a resolver allocating from `store`.
    pub fn new(store: Arc<dyn PageStore>) -> Self {
        DirectResolver {
            store,
            map: Mutex::new(HashMap::new()),
            pool: Mutex::new(None),
        }
    }

    /// Number of pages currently mapped.
    pub fn mapped_pages(&self) -> usize {
        self.map.lock().len()
    }

    /// A snapshot of the full page table (used by checkpointing).
    pub fn page_table(&self) -> Vec<(XPtr, PhysId)> {
        self.map
            .lock()
            .iter()
            .map(|(&raw, &phys)| (XPtr::from_raw(raw), phys))
            .collect()
    }

    /// Restores a page-table entry (used by recovery).
    pub fn install(&self, page: XPtr, phys: PhysId) {
        self.map.lock().insert(page.raw(), phys);
    }
}

impl PageResolver for DirectResolver {
    fn resolve_read(&self, page: XPtr, _view: View) -> SasResult<PhysId> {
        self.map
            .lock()
            .get(&page.raw())
            .copied()
            .ok_or(SasError::NoSuchPage(page))
    }

    fn resolve_write(&self, page: XPtr, _txn: TxnToken) -> SasResult<WritePlan> {
        let phys = self
            .map
            .lock()
            .get(&page.raw())
            .copied()
            .ok_or(SasError::NoSuchPage(page))?;
        Ok(WritePlan {
            phys,
            copy_from: None,
        })
    }

    fn on_page_alloc(&self, page: XPtr, _txn: Option<TxnToken>) -> SasResult<PhysId> {
        let phys = self.store.alloc()?;
        let prev = self.map.lock().insert(page.raw(), phys);
        debug_assert!(prev.is_none(), "double allocation of page {page}");
        Ok(phys)
    }

    fn on_page_free(&self, page: XPtr, _txn: Option<TxnToken>) -> SasResult<()> {
        if let Some(phys) = self.map.lock().remove(&page.raw()) {
            if let Some(pool) = self.pool.lock().as_ref() {
                pool.invalidate(phys);
            }
            self.store.free(phys)?;
        }
        Ok(())
    }

    fn attach_pool(&self, pool: Arc<crate::BufferPool>) {
        *self.pool.lock() = Some(pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;

    fn resolver() -> DirectResolver {
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(512));
        DirectResolver::new(store)
    }

    #[test]
    fn alloc_then_resolve() {
        let r = resolver();
        let page = XPtr::new(1, 0);
        let phys = r.on_page_alloc(page, None).unwrap();
        assert_eq!(r.resolve_read(page, View::LATEST).unwrap(), phys);
        let plan = r.resolve_write(page, TxnToken(9)).unwrap();
        assert_eq!(plan.phys, phys);
        assert!(plan.copy_from.is_none());
    }

    #[test]
    fn unknown_page_errors() {
        let r = resolver();
        let page = XPtr::new(1, 4096);
        assert!(matches!(
            r.resolve_read(page, View::LATEST),
            Err(SasError::NoSuchPage(_))
        ));
        assert!(matches!(
            r.resolve_write(page, TxnToken(1)),
            Err(SasError::NoSuchPage(_))
        ));
    }

    #[test]
    fn free_unmaps() {
        let r = resolver();
        let page = XPtr::new(2, 0);
        r.on_page_alloc(page, None).unwrap();
        assert_eq!(r.mapped_pages(), 1);
        r.on_page_free(page, None).unwrap();
        assert_eq!(r.mapped_pages(), 0);
        assert!(r.resolve_read(page, View::LATEST).is_err());
    }

    #[test]
    fn page_table_round_trip() {
        let r = resolver();
        let page = XPtr::new(3, 512);
        let phys = r.on_page_alloc(page, None).unwrap();
        let table = r.page_table();
        assert_eq!(table, vec![(page, phys)]);

        let r2 = resolver();
        for (p, ph) in table {
            r2.install(p, ph);
        }
        assert_eq!(r2.resolve_read(page, View::LATEST).unwrap(), phys);
    }
}
