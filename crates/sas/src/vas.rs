//! The per-session virtual-address-space emulation with **equality-basis**
//! mapping (Section 4.2, Figure 4).
//!
//! A [`Vas`] owns one slot table with `layer_size / page_size` entries. The
//! slot of a SAS address is `addr_within_layer / page_size` — the same
//! arithmetic the paper uses when it maps an address within a layer to the
//! process VAS "on the equality basis". Dereferencing is therefore:
//!
//! 1. index the slot table (the analogue of using an ordinary pointer),
//! 2. compare the cached page tag (the analogue of the hardware TLB/page
//!    table hit),
//! 3. on mismatch — the analogue of a memory fault — ask the resolver and
//!    buffer manager for the page, and install the mapping.
//!
//! Two pages at the same within-layer address but in different layers
//! compete for one slot, exactly as the paper describes ("the system checks
//! whether the page that is currently in main memory belongs to the layer
//! addressed by `layer_num`"); such replacements are counted as
//! `layer_conflicts`.
//!
//! A `Vas` is bound to one [`View`] (and optionally one write transaction)
//! at a time; [`Vas::begin`] resets the mapping, which keeps cached
//! translations valid for the whole transaction (locking and snapshot
//! isolation guarantee the page-version assignment cannot change underneath
//! a running transaction).

use sedna_sync::Arc;
use std::cell::{Cell, RefCell};

use crate::buffer::{BufferPool, FrameRef, PageRead, PageWrite};
use crate::error::{SasError, SasResult};
use crate::resolver::{TxnToken, View};
use crate::store::PhysId;
use crate::xptr::XPtr;
use crate::Sas;

/// Dereference counters for experiment E2 and the Figure-4 invariant tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VasStats {
    /// Fast-path dereferences (slot hit, tag match).
    pub hits: u64,
    /// Faults that consulted the resolver and buffer manager.
    pub faults: u64,
    /// Slot hits whose frame had been recycled by the pool (re-acquired
    /// without consulting the resolver).
    pub stale_refreshes: u64,
    /// Slot replacements caused by two layers sharing a within-layer
    /// address.
    pub layer_conflicts: u64,
}

#[derive(Clone)]
struct Slot {
    page: XPtr,
    phys: PhysId,
    fref: Option<FrameRef>,
    writable: bool,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            page: XPtr::NULL,
            phys: PhysId::INVALID,
            fref: None,
            writable: false,
        }
    }
}

/// How often a dereference re-acquires a frame that another session's
/// eviction recycled between `acquire` and the frame lock before it gives
/// up. One retry already needs the victim clock to come full circle within
/// a few instructions; this many in a row means the pool is too small for
/// the sessions sharing it.
const LOCK_RETRIES: usize = 8;

/// A session's emulated process virtual address space.
pub struct Vas {
    sas: Arc<Sas>,
    view: Cell<View>,
    txn: Cell<Option<TxnToken>>,
    slots: RefCell<Vec<Slot>>,
    page_shift: u32,
    hits: Cell<u64>,
    faults: Cell<u64>,
    stale_refreshes: Cell<u64>,
    layer_conflicts: Cell<u64>,
}

impl Vas {
    pub(crate) fn new(sas: Arc<Sas>) -> Self {
        let cfg = sas.config();
        let slots = cfg.slots_per_layer();
        let page_shift = cfg.page_size.trailing_zeros();
        Vas {
            sas,
            view: Cell::new(View::LATEST),
            txn: Cell::new(None),
            slots: RefCell::new(vec![Slot::default(); slots]),
            page_shift,
            hits: Cell::new(0),
            faults: Cell::new(0),
            stale_refreshes: Cell::new(0),
            layer_conflicts: Cell::new(0),
        }
    }

    /// The shared SAS this session belongs to.
    pub fn sas(&self) -> &Arc<Sas> {
        &self.sas
    }

    /// The page size of this address space.
    #[inline]
    pub fn page_size(&self) -> usize {
        1usize << self.page_shift
    }

    /// Binds the session to a view (and optional write transaction),
    /// clearing all cached translations.
    pub fn begin(&self, view: View, txn: Option<TxnToken>) {
        self.view.set(view);
        self.txn.set(txn);
        self.slots.borrow_mut().fill_with(Slot::default);
    }

    /// The view the session currently reads at.
    pub fn view(&self) -> View {
        self.view.get()
    }

    /// The current write transaction, if any.
    pub fn txn(&self) -> Option<TxnToken> {
        self.txn.get()
    }

    /// Current dereference counters.
    pub fn stats(&self) -> VasStats {
        VasStats {
            hits: self.hits.get(),
            faults: self.faults.get(),
            stale_refreshes: self.stale_refreshes.get(),
            layer_conflicts: self.layer_conflicts.get(),
        }
    }

    /// Resets the dereference counters.
    pub fn reset_stats(&self) {
        self.hits.set(0);
        self.faults.set(0);
        self.stale_refreshes.set(0);
        self.layer_conflicts.set(0);
    }

    #[inline]
    fn slot_of(&self, page: XPtr) -> usize {
        let idx = (page.addr() >> self.page_shift) as usize;
        // Equality-basis round trip (Section 4.2): a page-aligned
        // within-layer address and its slot index must be interchangeable
        // representations — `slot * page_size` recovers the address
        // exactly, which is what lets a database pointer double as the
        // in-memory location without swizzling.
        debug_assert_eq!(
            (idx as u64) << self.page_shift,
            u64::from(page.addr()),
            "slot index does not round-trip to the within-layer address \
             (non-page-aligned XPtr reached slot_of?)"
        );
        debug_assert!(
            idx < self.slots.borrow().len(),
            "within-layer address {:#x} exceeds the layer's slot table",
            page.addr()
        );
        idx
    }

    /// Locks the frame holding `phys` with `lock` (`try_read`/`try_write`),
    /// starting from `first` when the caller already made the page resident
    /// (retarget, fresh page). Between the pool handing out a frame and the
    /// lock being taken, another session's miss may evict that frame — its
    /// content, if dirty, is then in the store — so a lock that finds the
    /// frame recycled re-acquires instead of failing. An exhausted pool
    /// still surfaces as the `acquire`'s own [`SasError::PoolExhausted`].
    fn lock_frame<G>(
        &self,
        page: XPtr,
        phys: PhysId,
        first: Option<FrameRef>,
        lock: impl Fn(&BufferPool, &FrameRef, PhysId) -> Option<G>,
    ) -> SasResult<(FrameRef, G)> {
        let pool = self.sas.pool();
        let mut fref = first;
        for _ in 0..LOCK_RETRIES {
            let f = match fref.take() {
                Some(f) => f,
                None => pool.acquire(page, phys, self.sas.store().as_ref())?,
            };
            if let Some(guard) = lock(pool, &f, phys) {
                return Ok((f, guard));
            }
        }
        Err(SasError::PoolExhausted)
    }

    /// Dereferences `ptr` for reading: returns a read guard over the whole
    /// page containing `ptr`.
    pub fn read(&self, ptr: XPtr) -> SasResult<PageRead> {
        debug_assert!(!ptr.is_null(), "dereference of null XPtr");
        let page = ptr.page(self.page_size());
        let idx = self.slot_of(page);
        // Fast path: slot hit with matching tag.
        let cached = {
            let slots = self.slots.borrow();
            let slot = &slots[idx];
            if slot.page == page {
                slot.fref.clone().map(|f| (f, slot.phys))
            } else {
                None
            }
        };
        if let Some((fref, phys)) = cached {
            if let Some(guard) = self.sas.pool().try_read(&fref, phys) {
                self.hits.set(self.hits.get() + 1);
                return Ok(guard);
            }
            // Frame recycled by the pool: re-acquire, translation unchanged.
            self.stale_refreshes.set(self.stale_refreshes.get() + 1);
            let (fref, guard) = self.lock_frame(page, phys, None, BufferPool::try_read)?;
            self.slots.borrow_mut()[idx].fref = Some(fref);
            return Ok(guard);
        }
        // Fault: consult resolver + buffer manager, install mapping.
        self.fault_read(page, idx)
    }

    #[cold]
    fn fault_read(&self, page: XPtr, idx: usize) -> SasResult<PageRead> {
        self.faults.set(self.faults.get() + 1);
        {
            let slots = self.slots.borrow();
            let old = &slots[idx];
            if !old.page.is_null() && old.page.layer() != page.layer() {
                self.layer_conflicts.set(self.layer_conflicts.get() + 1);
            }
        }
        let phys = self.sas.resolver().resolve_read(page, self.view.get())?;
        let (fref, guard) = self.lock_frame(page, phys, None, BufferPool::try_read)?;
        self.slots.borrow_mut()[idx] = Slot {
            page,
            phys,
            fref: Some(fref),
            writable: false,
        };
        Ok(guard)
    }

    /// Dereferences `ptr` for writing: returns a write guard over the whole
    /// page containing `ptr`, creating the transaction's working version on
    /// first touch.
    pub fn write(&self, ptr: XPtr) -> SasResult<PageWrite> {
        debug_assert!(!ptr.is_null(), "write through null XPtr");
        let txn = self.txn.get().ok_or(SasError::NoWriteTxn)?;
        let page = ptr.page(self.page_size());
        let idx = self.slot_of(page);
        let cached = {
            let slots = self.slots.borrow();
            let slot = &slots[idx];
            if slot.page == page && slot.writable {
                slot.fref.clone().map(|f| (f, slot.phys))
            } else {
                None
            }
        };
        if let Some((fref, phys)) = cached {
            if let Some(guard) = self.sas.pool().try_write(&fref, phys) {
                self.hits.set(self.hits.get() + 1);
                return Ok(guard);
            }
            self.stale_refreshes.set(self.stale_refreshes.get() + 1);
            let (fref, guard) = self.lock_frame(page, phys, None, BufferPool::try_write)?;
            self.slots.borrow_mut()[idx].fref = Some(fref);
            return Ok(guard);
        }
        self.fault_write(page, idx, txn)
    }

    #[cold]
    fn fault_write(&self, page: XPtr, idx: usize, txn: TxnToken) -> SasResult<PageWrite> {
        self.faults.set(self.faults.get() + 1);
        {
            let slots = self.slots.borrow();
            let old = &slots[idx];
            if !old.page.is_null() && old.page.layer() != page.layer() {
                self.layer_conflicts.set(self.layer_conflicts.get() + 1);
            }
        }
        let plan = self.sas.resolver().resolve_write(page, txn)?;
        let store = self.sas.store().as_ref();
        let retargeted = match plan.copy_from {
            Some(old) if old != plan.phys => {
                Some(self.sas.pool().retarget(page, old, plan.phys, store)?)
            }
            _ => None,
        };
        let (fref, guard) = self.lock_frame(page, plan.phys, retargeted, BufferPool::try_write)?;
        self.slots.borrow_mut()[idx] = Slot {
            page,
            phys: plan.phys,
            fref: Some(fref),
            writable: true,
        };
        Ok(guard)
    }

    /// Allocates a fresh page in the current write transaction, returning
    /// its SAS address and a write guard over the zeroed page (SAS header
    /// pre-filled).
    pub fn alloc_page(&self) -> SasResult<(XPtr, PageWrite)> {
        let txn = self.txn.get();
        if txn.is_none() {
            return Err(SasError::NoWriteTxn);
        }
        let page = self.sas.alloc_address();
        let phys = self.sas.resolver().on_page_alloc(page, txn)?;
        let fresh = self
            .sas
            .pool()
            .acquire_fresh(page, phys, self.sas.store().as_ref())?;
        let (fref, guard) = self.lock_frame(page, phys, Some(fresh), BufferPool::try_write)?;
        let idx = self.slot_of(page);
        self.slots.borrow_mut()[idx] = Slot {
            page,
            phys,
            fref: Some(fref),
            writable: true,
        };
        Ok((page, guard))
    }

    /// Frees `page` in the current write transaction.
    pub fn free_page(&self, page: XPtr) -> SasResult<()> {
        let txn = self.txn.get();
        if txn.is_none() {
            return Err(SasError::NoWriteTxn);
        }
        let idx = self.slot_of(page);
        {
            let mut slots = self.slots.borrow_mut();
            if slots[idx].page == page {
                // Drop only the translation; the frame (and its possibly
                // dirty committed content) stays — a deferred free may be
                // rolled back, and the resolver invalidates frames itself
                // at the moment it actually reclaims physical slots.
                slots[idx] = Slot::default();
            }
        }
        // The address is not recycled here: the free is final only at
        // commit, and even then snapshots and forks may still read the
        // page. The resolver reclaims it once none can
        // (`PageResolver::take_reclaimed`).
        self.sas.resolver().on_page_free(page, txn)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SasConfig, PAGE_HEADER_LEN};

    fn tiny_sas(frames: usize) -> Arc<Sas> {
        Sas::in_memory(SasConfig {
            page_size: 512,
            layer_size: 8 * 512,
            buffer_frames: frames,
        })
        .unwrap()
    }

    #[test]
    fn alloc_write_read_round_trip() {
        let sas = tiny_sas(8);
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        let (page, mut w) = vas.alloc_page().unwrap();
        w.bytes_mut()[PAGE_HEADER_LEN] = 0xEE;
        drop(w);
        let r = vas.read(page).unwrap();
        assert_eq!(r[PAGE_HEADER_LEN], 0xEE);
        assert_eq!(XPtr::read_at(&r, 0), page);
    }

    #[test]
    fn second_read_is_fast_path_hit() {
        let sas = tiny_sas(8);
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        let (page, w) = vas.alloc_page().unwrap();
        drop(w);
        vas.reset_stats();
        for _ in 0..10 {
            let _ = vas.read(page).unwrap();
        }
        let stats = vas.stats();
        assert_eq!(stats.hits, 10);
        assert_eq!(stats.faults, 0);
    }

    #[test]
    fn read_without_txn_is_allowed_write_is_not() {
        let sas = tiny_sas(8);
        let writer = sas.session();
        writer.begin(View::LATEST, Some(TxnToken(1)));
        let (page, w) = writer.alloc_page().unwrap();
        drop(w);

        let reader = sas.session();
        reader.begin(View::LATEST, None);
        assert!(reader.read(page).is_ok());
        assert!(matches!(reader.write(page), Err(SasError::NoWriteTxn)));
        assert!(matches!(reader.alloc_page(), Err(SasError::NoWriteTxn)));
    }

    #[test]
    fn layer_conflict_replaces_slot_and_is_counted() {
        let sas = tiny_sas(8);
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        // Fill layer 0 (7 usable pages) and spill into layer 1; page (1, 512)
        // shares slot 1 with page (0, 512).
        let mut pages = Vec::new();
        for _ in 0..9 {
            let (p, w) = vas.alloc_page().unwrap();
            drop(w);
            pages.push(p);
        }
        let in_layer0 = pages.iter().find(|p| p.layer() == 0 && p.addr() == 512);
        let in_layer1 = pages.iter().find(|p| p.layer() == 1 && p.addr() == 512);
        let (a, b) = (*in_layer0.unwrap(), *in_layer1.unwrap());
        vas.reset_stats();
        let _ = vas.read(a).unwrap();
        let _ = vas.read(b).unwrap(); // displaces a's mapping
        let _ = vas.read(a).unwrap(); // displaces b's mapping again
        let stats = vas.stats();
        assert!(stats.layer_conflicts >= 2, "stats: {stats:?}");
    }

    #[test]
    fn stale_frame_is_refreshed_without_resolver() {
        let sas = tiny_sas(1); // single frame: every other access evicts
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        let (p1, w) = vas.alloc_page().unwrap();
        drop(w);
        let (p2, w) = vas.alloc_page().unwrap();
        drop(w);
        vas.reset_stats();
        // p2 is resident; reading p1 faults p2 out, then reading p1 again is
        // a hit, then p2 again must detect the stale frame and refresh.
        let _ = vas.read(p1).unwrap();
        let _ = vas.read(p2).unwrap();
        let _ = vas.read(p1).unwrap();
        let stats = vas.stats();
        assert!(
            stats.stale_refreshes >= 1,
            "expected stale refresh, stats: {stats:?}"
        );
    }

    #[test]
    fn frame_recycled_between_acquire_and_lock_is_reacquired() {
        // One frame, two sessions: whatever one session makes resident,
        // the other's next miss evicts.
        let sas = tiny_sas(1);
        let writer = sas.session();
        writer.begin(View::LATEST, Some(TxnToken(1)));
        let mut pages = Vec::new();
        for fill in [0xA1u8, 0xB2] {
            let (p, mut w) = writer.alloc_page().unwrap();
            w.bytes_mut()[PAGE_HEADER_LEN] = fill;
            drop(w);
            pages.push(p);
        }
        let (p1, p2) = (pages[0], pages[1]);
        let reader = sas.session();
        reader.begin(View::LATEST, None);
        let evictor = sas.session();
        evictor.begin(View::LATEST, None);
        let phys1 = sas.resolver().resolve_read(p1, View::LATEST).unwrap();

        // The other session's miss lands exactly between this session's
        // `acquire` and its frame lock, `evictions` times in a row.
        let read_with_evictions = |evictions: usize| {
            let calls = Cell::new(0);
            reader.lock_frame(p1, phys1, None, |pool, fref, phys| {
                calls.set(calls.get() + 1);
                if calls.get() <= evictions {
                    assert_eq!(evictor.read(p2).unwrap()[PAGE_HEADER_LEN], 0xB2);
                }
                pool.try_read(fref, phys)
            })
        };
        for evictions in [1, 3, LOCK_RETRIES - 1] {
            let (_, guard) = read_with_evictions(evictions)
                .unwrap_or_else(|e| panic!("{evictions} evictions reported as {e}"));
            assert_eq!(guard[PAGE_HEADER_LEN], 0xA1);
        }
        // Only a frame lost on every single attempt gives up.
        assert!(matches!(
            read_with_evictions(LOCK_RETRIES),
            Err(SasError::PoolExhausted)
        ));

        // The same through the public dereference: the reader's cached
        // translation goes stale while the evictor has the frame, and
        // every read still succeeds.
        for _ in 0..50 {
            assert_eq!(reader.read(p1).unwrap()[PAGE_HEADER_LEN], 0xA1);
            assert_eq!(evictor.read(p2).unwrap()[PAGE_HEADER_LEN], 0xB2);
        }
        assert!(reader.stats().stale_refreshes > 0);
    }

    #[test]
    fn begin_clears_translations() {
        let sas = tiny_sas(8);
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        let (page, w) = vas.alloc_page().unwrap();
        drop(w);
        let _ = vas.read(page).unwrap();
        vas.begin(View::LATEST, None);
        vas.reset_stats();
        let _ = vas.read(page).unwrap();
        assert_eq!(vas.stats().faults, 1, "mapping should have been cleared");
    }

    #[test]
    fn freed_page_is_unreachable_and_not_recycled() {
        let sas = tiny_sas(8);
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        let (page, w) = vas.alloc_page().unwrap();
        drop(w);
        vas.free_page(page).unwrap();
        assert!(matches!(vas.read(page), Err(SasError::NoSuchPage(_))));
        // The free may still roll back, and a committed one may still be
        // read by a snapshot or a fork: the address is not handed out
        // again.
        let (page2, w) = vas.alloc_page().unwrap();
        drop(w);
        assert_ne!(page2, page);
    }

    #[test]
    fn writes_survive_eviction_pressure() {
        let sas = tiny_sas(2);
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        let mut pages = Vec::new();
        for i in 0..6 {
            let (p, mut w) = vas.alloc_page().unwrap();
            w.bytes_mut()[PAGE_HEADER_LEN] = i as u8 + 1;
            drop(w);
            pages.push(p);
        }
        for (i, p) in pages.iter().enumerate() {
            let r = vas.read(*p).unwrap();
            assert_eq!(r[PAGE_HEADER_LEN], i as u8 + 1);
        }
    }
}
