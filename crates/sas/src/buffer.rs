//! The Sedna buffer manager: main-memory page frames with clock
//! (second-chance) replacement, dirty-page write-back under the WAL
//! protocol, and version-retargeting support for copy-on-write page
//! versioning (Section 6.1 of the paper).
//!
//! The pool indexes frames by **physical** slot ([`PhysId`]), not by SAS
//! address, so that several versions of one SAS page can be resident
//! simultaneously (an updater's working version next to the snapshot
//! version a read-only transaction is scanning).
//!
//! ## One page table and the read-locked hit path
//!
//! One `RwLock` guards the page table (`phys → frame`), the clock hand
//! and the free list for every frame, as in the single buffer manager of
//! the paper's Figure 4.
//!
//! A **hit** takes that lock in *read* mode — a shared acquisition that
//! concurrent readers never serialize on — and flips the frame's atomic
//! reference bit. Pinning is the frame `RwLock` itself (the clock's
//! `try_write` probe refuses frames with readers or a writer), and the
//! reference bit is a per-frame atomic, so a hot read-only scan performs
//! **zero exclusive acquisitions** of pool state. Only misses,
//! evictions, retargets and invalidations write-lock the table.
//!
//! ## Model-checkable protocol state
//!
//! Every lock and atomic here — the page-table lock, the frame content
//! locks whose owned `read_arc`/`write_arc` guards pin pages, the
//! per-frame reference bits, the metric counters and the stats-reset
//! seqlock — goes through the `sedna-sync` shim, so the `loom_models`
//! suite can exhaustively interleave it under `--cfg loom` (see
//! `docs/correctness.md`).

use std::collections::HashMap;

use sedna_obs::{Counter, Gauge, Registry};
use sedna_sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use sedna_sync::{Arc, ArcRwLockReadGuard, ArcRwLockWriteGuard, Mutex, RwLock};

use crate::error::{SasError, SasResult};
use crate::store::{PageStore, PhysId};
use crate::xptr::XPtr;
use crate::PAGE_LSN_OFFSET;

/// Hook consulted before a dirty frame is flushed, implementing the WAL
/// rule "force the log up to the page LSN before forcing the page".
pub trait WriteBarrier: Send + Sync {
    /// Called with the page's SAS address and the LSN stored in its header.
    fn before_flush(&self, page: XPtr, lsn: u64) -> SasResult<()>;
}

/// The pool's live metric handles (`sedna_buffer_*`). Cloning shares the
/// underlying counters; [`BufferMetrics::register_into`] hands read
/// handles to an observability registry.
#[derive(Clone, Debug, Default)]
pub struct BufferMetrics {
    /// Lookups satisfied by a resident frame.
    pub hits: Counter,
    /// Hits that completed without any exclusive pool-state acquisition
    /// (page table read-locked only). A subset of `hits`: a lookup that
    /// loses the read-probe race and re-finds the page under the table
    /// write lock counts as a hit but not as a lock-free hit.
    pub lockfree_hits: Counter,
    /// Lookups that had to load the page from the store.
    pub misses: Counter,
    /// Frames evicted to make room.
    pub evictions: Counter,
    /// Dirty frames written back to the store.
    pub writebacks: Counter,
    /// Copy-on-write retargets.
    pub retargets: Counter,
    /// Pages currently pinned: frames with a live [`PageRead`] or
    /// [`PageWrite`] guard outstanding. This is the quantity the
    /// streaming executor bounds to O(pipeline depth); the clock can
    /// never evict a pinned frame (`try_write_arc` refuses it).
    pub pinned: Gauge,
    /// High-water mark of `pinned` since pool creation or the last
    /// [`BufferPool::reset_pinned_peak`].
    pub pinned_peak: Gauge,
    /// Reset seqlock (Linux `seqcount` style): odd while a
    /// [`BufferMetrics::reset`] is in progress, even when stable. The
    /// writer enters with an `AcqRel` increment and leaves with a
    /// `Release` increment; [`BufferMetrics::stats`] sweeps only accept
    /// an even generation observed unchanged (`Acquire` before the
    /// sweep, `Acquire` fence after), so a sweep can never mix pre- and
    /// post-reset counters — the bug the previous generation-as-plain-
    /// counter scheme admitted when both agreement sweeps landed inside
    /// one paused reset.
    generation: Arc<AtomicU64>,
}

impl BufferMetrics {
    /// Registers every counter under its canonical `sedna_buffer_*` name
    /// (see `docs/metrics.md`).
    pub fn register_into(&self, reg: &Registry) {
        reg.register_counter(
            "sedna_buffer_hits_total",
            "Buffer-pool lookups satisfied by a resident frame",
            &self.hits,
        );
        reg.register_counter(
            "sedna_buffer_lockfree_hits_total",
            "Hits resolved with the page table read-locked only (no exclusive acquisition)",
            &self.lockfree_hits,
        );
        reg.register_counter(
            "sedna_buffer_misses_total",
            "Buffer-pool lookups that loaded the page from the store",
            &self.misses,
        );
        reg.register_counter(
            "sedna_buffer_evictions_total",
            "Frames evicted by clock replacement",
            &self.evictions,
        );
        reg.register_counter(
            "sedna_buffer_writebacks_total",
            "Dirty frames written back to the store",
            &self.writebacks,
        );
        reg.register_counter(
            "sedna_buffer_retargets_total",
            "Copy-on-write page-version retargets",
            &self.retargets,
        );
        reg.register_gauge(
            "sedna_buffer_pinned_pages",
            "Pages currently pinned by live read/write guards",
            &self.pinned,
        );
        reg.register_gauge(
            "sedna_buffer_pinned_pages_peak",
            "High-water mark of pinned pages since the last peak reset",
            &self.pinned_peak,
        );
    }

    /// A torn-read-free [`BufferStats`] view, in two layers:
    ///
    /// 1. **Seqlock vs resets.** A sweep only counts when the reset
    ///    generation was even before it and unchanged after it (see
    ///    [`BufferMetrics::clean_sweep`]), so a sweep overlapping a
    ///    [`BufferMetrics::reset`] — even a paused, half-finished one —
    ///    is always discarded. This is checked exhaustively by the
    ///    `stats_never_observe_a_half_reset` loom model.
    /// 2. **Agreement vs in-flight increments.** Two consecutive clean
    ///    sweeps must agree before a value is returned, bounding the
    ///    window where, e.g., `hits` and `misses` drift apart
    ///    mid-snapshot under concurrent load.
    ///
    /// The retry loop is bounded; under a pathological reset storm the
    /// last sweep (clean if any was, raw otherwise) is returned as-is —
    /// a benchmark-only contract, see `docs/metrics.md`.
    pub fn stats(&self) -> BufferStats {
        const ATTEMPTS: usize = 16;
        let mut prev: Option<BufferStats> = None;
        for _ in 0..ATTEMPTS {
            if let Some(s) = self.clean_sweep() {
                if prev == Some(s) {
                    return s;
                }
                prev = Some(s);
            }
            // A resetter or writer moved under us; hint that progress
            // depends on it finishing (a real pause on SMT, a
            // deprioritizing yield in model executions).
            sedna_sync::hint::spin_loop();
        }
        prev.unwrap_or_else(|| self.raw_sweep())
    }

    /// One seqlock-validated counter sweep, or `None` if a reset was in
    /// progress (odd generation) or completed across the sweep (changed
    /// generation).
    pub(crate) fn clean_sweep(&self) -> Option<BufferStats> {
        // Acquire: a generation value published by a reset's exit
        // increment orders the counter zeroes before our counter loads.
        let g1 = self.generation.load(Ordering::Acquire);
        if g1 & 1 == 1 {
            return None; // reset in progress
        }
        let s = self.raw_sweep();
        // Load-load barrier between the counter sweep and the
        // generation re-check (the `smp_rmb` of a Linux seqlock
        // reader): if the re-check still sees g1, no reset's entry
        // increment became visible during the sweep.
        fence(Ordering::Acquire);
        // relaxed: the fence above provides the ordering; this load only
        // needs the value.
        let g2 = self.generation.load(Ordering::Relaxed);
        (g1 == g2).then_some(s)
    }

    /// One unvalidated sweep of the six counters.
    fn raw_sweep(&self) -> BufferStats {
        BufferStats {
            hits: self.hits.get(),
            lockfree_hits: self.lockfree_hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            writebacks: self.writebacks.get(),
            retargets: self.retargets.get(),
        }
    }

    /// Resets every counter. **Benchmark-only plumbing**: callers must not
    /// run concurrent resets; a reset concurrent with [`BufferMetrics::stats`]
    /// makes the reader retry (it observes either the pre- or post-reset
    /// values, never a mixture — increments racing the reset may
    /// individually survive or vanish, which is inherent to resetting
    /// live counters). The pin gauges track live pool state and are not
    /// touched.
    pub fn reset(&self) {
        // Seqlock writer entry: generation becomes odd. AcqRel so the
        // counter zeroes below cannot be reordered before the entry
        // increment (readers that saw the old even value must not see
        // any of our zeroes without also being able to see the odd
        // generation on re-check).
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.hits.reset();
        self.lockfree_hits.reset();
        self.misses.reset();
        self.evictions.reset();
        self.writebacks.reset();
        self.retargets.reset();
        // Seqlock writer exit: generation even again. Release publishes
        // the zeroed counters to any reader whose next sweep starts
        // from this generation value.
        self.generation.fetch_add(1, Ordering::Release);
    }
}

/// Counters describing buffer-pool behaviour; used by experiment E2 and
/// the end-to-end benchmark. At any quiescent point `hits + misses`
/// equals the lookups made (`acquire`, `acquire_fresh`, `retarget`).
/// This is a point-in-time **view** of [`BufferMetrics`], taken through
/// the seqlock-validated sweep path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    /// Lookups satisfied by a resident frame.
    pub hits: u64,
    /// Hits resolved with the page table read-locked only (subset of `hits`).
    pub lockfree_hits: u64,
    /// Lookups that had to load the page from the store.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back to the store.
    pub writebacks: u64,
    /// Copy-on-write retargets (new page version created in place).
    pub retargets: u64,
}

/// Contents of one buffer frame.
pub struct FrameInner {
    /// SAS page currently held (null if the frame is empty).
    pub page: XPtr,
    /// Physical slot backing the content ([`PhysId::INVALID`] if empty).
    pub phys: PhysId,
    /// Whether the content differs from the store.
    pub dirty: bool,
    data: Box<[u8]>,
}

struct Frame {
    lock: Arc<RwLock<FrameInner>>,
    /// Second-chance reference bit. Atomic so the lock-free hit path can
    /// set it without owning any pool-state lock; the clock (which holds
    /// the page table write-locked) races against it benignly.
    referenced: AtomicBool,
}

/// Mutable pool state: the page table, clock hand and free list.
struct PoolState {
    /// phys -> frame index, for every resident page.
    map: HashMap<PhysId, usize>,
    /// Clock hand over the frame array.
    hand: usize,
    /// Never-used or invalidated frames, consumed before the clock starts
    /// evicting.
    free: Vec<usize>,
}

/// Pin accounting attached to every page guard: counts one pinned page
/// while alive and releases it on drop, so `sedna_buffer_pinned_pages`
/// tracks exactly the frames the clock cannot evict right now.
struct PinToken {
    live: Gauge,
}

impl Drop for PinToken {
    fn drop(&mut self) {
        self.live.sub(1);
    }
}

/// A shared read guard over a resident page.
pub struct PageRead {
    guard: ArcRwLockReadGuard<FrameInner>,
    _pin: PinToken,
}

impl PageRead {
    /// The page image (full page, including the 16-byte SAS header).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.guard.data
    }

    /// The page LSN from the SAS header.
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(
            self.guard.data[PAGE_LSN_OFFSET..PAGE_LSN_OFFSET + 8]
                .try_into()
                .expect("page shorter than SAS header"),
        )
    }

    /// The SAS address of the held page.
    pub fn page(&self) -> XPtr {
        self.guard.page
    }
}

impl std::ops::Deref for PageRead {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.guard.data
    }
}

/// An exclusive write guard over a resident page. Creating the guard marks
/// the frame dirty.
pub struct PageWrite {
    guard: ArcRwLockWriteGuard<FrameInner>,
    _pin: PinToken,
}

impl PageWrite {
    /// The page image.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.guard.data
    }

    /// The page image, mutably.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.guard.data
    }

    /// The SAS address of the held page.
    pub fn page(&self) -> XPtr {
        self.guard.page
    }

    /// Sets the page LSN in the SAS header (WAL protocol).
    pub fn set_lsn(&mut self, lsn: u64) {
        self.guard.data[PAGE_LSN_OFFSET..PAGE_LSN_OFFSET + 8].copy_from_slice(&lsn.to_le_bytes());
    }

    /// The page LSN from the SAS header.
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(
            self.guard.data[PAGE_LSN_OFFSET..PAGE_LSN_OFFSET + 8]
                .try_into()
                .expect("page shorter than SAS header"),
        )
    }
}

impl std::ops::Deref for PageWrite {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.guard.data
    }
}

impl std::ops::DerefMut for PageWrite {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.guard.data
    }
}

/// The buffer pool.
pub struct BufferPool {
    page_size: usize,
    frames: Vec<Frame>,
    /// Shim lock so the hit/miss/eviction protocol is model-checkable;
    /// see the module docs and `loom_models`.
    state: RwLock<PoolState>,
    barrier: Mutex<Option<Arc<dyn WriteBarrier>>>,
    metrics: BufferMetrics,
}

/// A resident frame handle: the frame's lock plus the identity expected by
/// the caller. [`Vas`](crate::Vas) caches these in its slot table.
#[derive(Clone)]
pub struct FrameRef {
    // Note: no Debug derive — Debug is implemented manually below to avoid
    // locking the frame.
    pub(crate) lock: Arc<RwLock<FrameInner>>,
    pub(crate) frame_idx: usize,
}

impl std::fmt::Debug for FrameRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameRef")
            .field("frame_idx", &self.frame_idx)
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool of `frames` frames of `page_size` bytes each.
    pub fn new(frames: usize, page_size: usize) -> Self {
        BufferPool {
            page_size,
            frames: (0..frames)
                .map(|_| Frame {
                    lock: Arc::new(RwLock::new(FrameInner {
                        page: XPtr::NULL,
                        phys: PhysId::INVALID,
                        dirty: false,
                        data: vec![0u8; page_size].into_boxed_slice(),
                    })),
                    referenced: AtomicBool::new(false),
                })
                .collect(),
            state: RwLock::new(PoolState {
                map: HashMap::new(),
                hand: 0,
                free: (0..frames).rev().collect(),
            }),
            barrier: Mutex::new(None),
            metrics: BufferMetrics::default(),
        }
    }

    /// The page size frames were created with.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Installs the WAL write barrier.
    pub fn set_write_barrier(&self, barrier: Arc<dyn WriteBarrier>) {
        *self.barrier.lock() = Some(barrier);
    }

    /// The live metric handles (for registry wiring).
    pub fn metrics(&self) -> &BufferMetrics {
        &self.metrics
    }

    /// Current counters, read through the seqlock-validated sweep path
    /// (no torn `hits`/`misses` pairs, no half-reset values, under
    /// concurrent load).
    pub fn stats(&self) -> BufferStats {
        self.metrics.stats()
    }

    /// Resets the counters (benchmark plumbing; see [`BufferMetrics::reset`]).
    pub fn reset_stats(&self) {
        self.metrics.reset();
    }

    fn frame_ref(&self, idx: usize) -> FrameRef {
        FrameRef {
            lock: Arc::clone(&self.frames[idx].lock),
            frame_idx: idx,
        }
    }

    /// Sets the frame's second-chance reference bit.
    fn touch(&self, idx: usize) {
        // relaxed: second-chance hint only; a racing hit whose set the
        // clock misses costs at most one premature eviction, never
        // correctness (stale FrameRefs are caught by the phys check in
        // try_read/try_write).
        self.frames[idx].referenced.store(true, Ordering::Relaxed);
    }

    fn flush_inner(&self, inner: &mut FrameInner, store: &dyn PageStore) -> SasResult<()> {
        if inner.dirty {
            let lsn = u64::from_le_bytes(
                inner.data[PAGE_LSN_OFFSET..PAGE_LSN_OFFSET + 8]
                    .try_into()
                    .expect("page shorter than SAS header"),
            );
            if let Some(barrier) = self.barrier.lock().clone() {
                barrier.before_flush(inner.page, lsn)?;
            }
            store.write(inner.phys, &inner.data)?;
            inner.dirty = false;
            self.metrics.writebacks.inc();
        }
        Ok(())
    }

    /// Picks an evictable frame (free list first, then second chance).
    /// The caller must hold the page table write-locked; the victim is
    /// returned write-locked with its old content flushed and its map
    /// entry removed.
    fn claim_victim(
        &self,
        state: &mut PoolState,
        store: &dyn PageStore,
    ) -> SasResult<(usize, ArcRwLockWriteGuard<FrameInner>)> {
        // Free frames (never used, or invalidated) first — no eviction.
        while let Some(idx) = state.free.pop() {
            if let Some(guard) = self.frames[idx].lock.try_write_arc() {
                if guard.phys == PhysId::INVALID {
                    return Ok((idx, guard));
                }
                // Stale entry: the clock reused this frame after it was
                // freed; drop the entry and keep popping.
                continue;
            }
            // Someone still holds a stale guard on the freed frame; it
            // stays usable, so keep it in the free list for next time and
            // fall through to the clock.
            state.free.push(idx);
            break;
        }
        let n = self.frames.len();
        if n == 0 {
            return Err(SasError::PoolExhausted);
        }
        // Two full sweeps: the first clears reference bits, the second
        // takes any unreferenced, unlocked frame.
        for _ in 0..2 * n + 1 {
            let idx = state.hand;
            state.hand = (state.hand + 1) % n;
            let frame = &self.frames[idx];
            // relaxed: the reference bit is a replacement heuristic (see
            // `touch`).
            if frame.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            if let Some(mut guard) = frame.lock.try_write_arc() {
                if guard.phys != PhysId::INVALID {
                    self.flush_inner(&mut guard, store)?;
                    state.map.remove(&guard.phys);
                    self.metrics.evictions.inc();
                } else {
                    // An empty frame may still be listed as free (the
                    // earlier pop skipped it while a stale guard was
                    // held); claiming it here must unlist it.
                    state.free.retain(|&i| i != idx);
                }
                return Ok((idx, guard));
            }
        }
        Err(SasError::PoolExhausted)
    }

    /// Gives the write-locked frame `idx` the identity `(page, phys)`,
    /// maps it, and hands out its handle. The caller holds the page table
    /// write-locked and has already filled the frame's bytes.
    fn install(
        &self,
        state: &mut PoolState,
        idx: usize,
        mut guard: ArcRwLockWriteGuard<FrameInner>,
        page: XPtr,
        phys: PhysId,
        dirty: bool,
    ) -> FrameRef {
        guard.page = page;
        guard.phys = phys;
        guard.dirty = dirty;
        state.map.insert(phys, idx);
        self.touch(idx);
        drop(guard);
        self.frame_ref(idx)
    }

    /// Makes the page at physical slot `phys` resident, loading it from the
    /// store if needed, and returns a handle to its frame.
    ///
    /// The hot path — the page is resident — takes the page table in
    /// **read** mode only and touches nothing but the frame's atomic
    /// reference bit: concurrent hits, even across all sessions, perform no
    /// exclusive pool-state acquisition.
    pub fn acquire(&self, page: XPtr, phys: PhysId, store: &dyn PageStore) -> SasResult<FrameRef> {
        if let Some(&idx) = self.state.read().map.get(&phys) {
            self.touch(idx);
            self.metrics.hits.inc();
            self.metrics.lockfree_hits.inc();
            return Ok(self.frame_ref(idx));
        }
        // Miss path: exclusive.
        let mut state = self.state.write();
        // Another thread may have loaded the page between the read probe
        // and the write acquisition.
        if let Some(&idx) = state.map.get(&phys) {
            self.touch(idx);
            self.metrics.hits.inc();
            return Ok(self.frame_ref(idx));
        }
        self.metrics.misses.inc();
        let (idx, mut guard) = self.claim_victim(&mut state, store)?;
        store.read(phys, &mut guard.data)?;
        Ok(self.install(&mut state, idx, guard, page, phys, false))
    }

    /// Makes a brand-new zeroed page resident without touching the store.
    /// The SAS header is initialized (self-pointer `page`, LSN 0) and the
    /// frame is marked dirty.
    pub fn acquire_fresh(
        &self,
        page: XPtr,
        phys: PhysId,
        store: &dyn PageStore,
    ) -> SasResult<FrameRef> {
        let mut state = self.state.write();
        debug_assert!(!state.map.contains_key(&phys), "fresh page already mapped");
        self.metrics.misses.inc();
        let (idx, mut guard) = self.claim_victim(&mut state, store)?;
        guard.data.fill(0);
        guard.data[0..8].copy_from_slice(&page.to_bytes());
        Ok(self.install(&mut state, idx, guard, page, phys, true))
    }

    /// Copy-on-write retarget: the resident content of `old_phys` becomes
    /// the working version at `new_phys`. The old version's bytes are
    /// flushed to `old_phys` first if dirty, so snapshot readers keep a
    /// consistent on-disk image. If the old version is not resident it is
    /// loaded first. Returns the (write-locked-and-released) frame handle.
    pub fn retarget(
        &self,
        page: XPtr,
        old_phys: PhysId,
        new_phys: PhysId,
        store: &dyn PageStore,
    ) -> SasResult<FrameRef> {
        self.metrics.retargets.inc();
        let mut state = self.state.write();
        if let Some(idx) = state.map.remove(&old_phys) {
            // Resident: retarget the frame in place.
            self.metrics.hits.inc();
            let mut guard = self.frames[idx].lock.write_arc();
            self.flush_inner(&mut guard, store)?;
            return Ok(self.install(&mut state, idx, guard, page, new_phys, true));
        }
        // Old version not resident: load its bytes under new_phys.
        self.metrics.misses.inc();
        let (idx, mut guard) = self.claim_victim(&mut state, store)?;
        store.read(old_phys, &mut guard.data)?;
        Ok(self.install(&mut state, idx, guard, page, new_phys, true))
    }

    /// Empties frame `idx` without write-back and returns it to the free
    /// list. The caller holds the page table write-locked and has
    /// already unmapped the frame.
    fn release(&self, state: &mut PoolState, idx: usize) {
        let mut guard = self.frames[idx].lock.write_arc();
        guard.page = XPtr::NULL;
        guard.phys = PhysId::INVALID;
        guard.dirty = false;
        drop(guard);
        state.free.push(idx);
    }

    /// Drops the frame holding `phys`, if resident, without writing it back
    /// (used when a page version is discarded: rollback or version purge).
    pub fn invalidate(&self, phys: PhysId) {
        self.invalidate_many(&[phys]);
    }

    /// Drops the frames of several physical slots under one page-table
    /// acquisition (the version manager's commit/rollback/purge paths
    /// discard whole batches).
    pub fn invalidate_many(&self, phys: &[PhysId]) {
        let mut state = self.state.write();
        for p in phys {
            if let Some(idx) = state.map.remove(p) {
                self.release(&mut state, idx);
            }
        }
    }

    /// Flushes every dirty frame to the store (checkpoint support). The
    /// page table is frozen for the duration.
    pub fn flush_all(&self, store: &dyn PageStore) -> SasResult<()> {
        let state = self.state.write();
        for &idx in state.map.values() {
            let mut guard = self.frames[idx].lock.write_arc();
            self.flush_inner(&mut guard, store)?;
        }
        Ok(())
    }

    /// Drops every resident frame without write-back (crash simulation).
    pub fn drop_all(&self) {
        let mut state = self.state.write();
        let dropped: Vec<usize> = state.map.drain().map(|(_, idx)| idx).collect();
        for idx in dropped {
            self.release(&mut state, idx);
        }
    }

    /// Read-locks the frame in `fref` if it still holds `phys`; returns
    /// `None` when the frame was reused for another page (the caller then
    /// re-acquires through the pool).
    pub fn try_read(&self, fref: &FrameRef, phys: PhysId) -> Option<PageRead> {
        let guard = fref.lock.read_arc();
        if guard.phys == phys {
            self.touch(fref.frame_idx);
            Some(PageRead {
                guard,
                _pin: self.pin_token(),
            })
        } else {
            None
        }
    }

    /// Write-locks the frame in `fref` if it still holds `phys`, marking it
    /// dirty; returns `None` when the frame was reused.
    pub fn try_write(&self, fref: &FrameRef, phys: PhysId) -> Option<PageWrite> {
        let mut guard = fref.lock.write_arc();
        if guard.phys == phys {
            guard.dirty = true;
            self.touch(fref.frame_idx);
            Some(PageWrite {
                guard,
                _pin: self.pin_token(),
            })
        } else {
            None
        }
    }

    /// Copies the current bytes of slot `phys` into `buf` without making
    /// the page resident: from its frame when it has one, else from the
    /// store, which is current for every page that has no frame (eviction
    /// writes dirty frames back first). For one-off reads of a version no
    /// session will dereference again — the committed base a commit diffs
    /// its working page against — which would otherwise evict a frame
    /// someone is using.
    pub fn read_into(&self, phys: PhysId, store: &dyn PageStore, buf: &mut [u8]) -> SasResult<()> {
        let resident = self
            .state
            .read()
            .map
            .get(&phys)
            .map(|&idx| self.frame_ref(idx));
        // A frame recycled since the probe was flushed before it was reused.
        match resident.and_then(|fref| self.try_read(&fref, phys)) {
            Some(guard) => buf.copy_from_slice(&guard),
            None => store.read(phys, buf)?,
        }
        Ok(())
    }

    /// Counts one new pin and refreshes the high-water mark; the token
    /// releases the pin when the guard drops.
    fn pin_token(&self) -> PinToken {
        let n = self.metrics.pinned.add_get(1);
        self.metrics.pinned_peak.fetch_max(n);
        PinToken {
            live: self.metrics.pinned.clone(),
        }
    }

    /// Pages currently pinned by live guards.
    pub fn pinned(&self) -> i64 {
        self.metrics.pinned.get()
    }

    /// High-water mark of pinned pages since pool creation or the last
    /// [`BufferPool::reset_pinned_peak`].
    pub fn pinned_peak(&self) -> i64 {
        self.metrics.pinned_peak.get()
    }

    /// Restarts the pinned-pages high-water mark from the current live
    /// value (benchmark/test plumbing, like [`BufferPool::reset_stats`]).
    pub fn reset_pinned_peak(&self) {
        self.metrics.pinned_peak.set(self.metrics.pinned.get());
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.state.read().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;
    use crate::PAGE_HEADER_LEN;

    const PS: usize = 512;

    fn setup(frames: usize) -> (BufferPool, Arc<MemPageStore>) {
        (BufferPool::new(frames, PS), Arc::new(MemPageStore::new(PS)))
    }

    #[test]
    fn fresh_page_has_header_and_is_dirty() {
        let (pool, store) = setup(4);
        let page = XPtr::new(0, 4096);
        let phys = store.alloc().unwrap();
        let fref = pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
        let r = pool.try_read(&fref, phys).unwrap();
        assert_eq!(XPtr::read_at(r.bytes(), 0), page);
        assert_eq!(r.lsn(), 0);
        assert_eq!(r.page(), page);
    }

    #[test]
    fn write_then_evict_then_reload() {
        let (pool, store) = setup(2);
        let mut ids = Vec::new();
        // Create 2 pages, write a marker into each.
        for i in 0..2u32 {
            let page = XPtr::new(0, (i + 1) * PS as u32);
            let phys = store.alloc().unwrap();
            ids.push((page, phys));
            let fref = pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
            let mut w = pool.try_write(&fref, phys).unwrap();
            w.bytes_mut()[PAGE_HEADER_LEN] = i as u8 + 1;
        }
        // Touch 2 more pages to force evictions of the first two.
        for i in 2..4u32 {
            let page = XPtr::new(0, (i + 1) * PS as u32);
            let phys = store.alloc().unwrap();
            pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
        }
        assert!(pool.stats().evictions >= 2);
        assert!(pool.stats().writebacks >= 2);
        // Reload the first page; the marker must have survived eviction.
        let (page, phys) = ids[0];
        let fref = pool.acquire(page, phys, store.as_ref()).unwrap();
        let r = pool.try_read(&fref, phys).unwrap();
        assert_eq!(r.bytes()[PAGE_HEADER_LEN], 1);
        assert_eq!(XPtr::read_at(r.bytes(), 0), page);
    }

    #[test]
    fn stale_frame_ref_detected() {
        let (pool, store) = setup(1);
        let p1 = XPtr::new(0, PS as u32);
        let ph1 = store.alloc().unwrap();
        let fref1 = pool.acquire_fresh(p1, ph1, store.as_ref()).unwrap();
        // Evict p1 by bringing in p2 (pool has a single frame).
        let p2 = XPtr::new(0, 2 * PS as u32);
        let ph2 = store.alloc().unwrap();
        pool.acquire_fresh(p2, ph2, store.as_ref()).unwrap();
        // The cached ref for p1 must now miss.
        assert!(pool.try_read(&fref1, ph1).is_none());
        assert!(pool.try_write(&fref1, ph1).is_none());
        // Re-acquiring works.
        let fref1b = pool.acquire(p1, ph1, store.as_ref()).unwrap();
        assert!(pool.try_read(&fref1b, ph1).is_some());
    }

    #[test]
    fn retarget_flushes_old_version() {
        let (pool, store) = setup(4);
        let page = XPtr::new(1, 0);
        let old = store.alloc().unwrap();
        let fref = pool.acquire_fresh(page, old, store.as_ref()).unwrap();
        {
            let mut w = pool.try_write(&fref, old).unwrap();
            w.bytes_mut()[PAGE_HEADER_LEN] = 42;
        }
        let new = store.alloc().unwrap();
        let fref2 = pool.retarget(page, old, new, store.as_ref()).unwrap();
        // Old physical slot holds the flushed old-version bytes.
        let mut buf = vec![0u8; PS];
        store.read(old, &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER_LEN], 42);
        // The frame now answers for the new version and carries the content.
        let mut w = pool.try_write(&fref2, new).unwrap();
        assert_eq!(w.bytes()[PAGE_HEADER_LEN], 42);
        w.bytes_mut()[PAGE_HEADER_LEN] = 43;
        drop(w);
        // Old version on disk is unaffected by new-version writes.
        store.read(old, &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER_LEN], 42);
    }

    #[test]
    fn retarget_of_nonresident_old_version_loads_it() {
        let (pool, store) = setup(1);
        let page = XPtr::new(1, 0);
        let old = store.alloc().unwrap();
        {
            let fref = pool.acquire_fresh(page, old, store.as_ref()).unwrap();
            let mut w = pool.try_write(&fref, old).unwrap();
            w.bytes_mut()[PAGE_HEADER_LEN] = 11;
        }
        // Evict it.
        let other = XPtr::new(1, PS as u32);
        let other_phys = store.alloc().unwrap();
        pool.acquire_fresh(other, other_phys, store.as_ref())
            .unwrap();
        // Retarget while old version lives only on disk.
        let new = store.alloc().unwrap();
        let fref = pool.retarget(page, old, new, store.as_ref()).unwrap();
        let r = pool.try_read(&fref, new).unwrap();
        assert_eq!(r.bytes()[PAGE_HEADER_LEN], 11);
    }

    #[test]
    fn lockfree_hits_counted_on_hot_path() {
        let (pool, store) = setup(4);
        let page = XPtr::new(0, PS as u32);
        let phys = store.alloc().unwrap();
        pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
        for _ in 0..10 {
            pool.acquire(page, phys, store.as_ref()).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits, 10);
        assert_eq!(s.lockfree_hits, 10);
    }

    #[test]
    fn lookups_are_hits_plus_misses() {
        let (pool, store) = setup(8);
        let mut pages = Vec::new();
        for i in 0..32u32 {
            let page = XPtr::new(0, (i + 1) * PS as u32);
            let phys = store.alloc().unwrap();
            pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
            pages.push((page, phys));
        }
        for &(page, phys) in &pages {
            let _ = pool.acquire(page, phys, store.as_ref()).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 64);
        assert_eq!(pool.resident(), 8, "every frame holds exactly one page");
    }

    #[test]
    fn stats_reject_half_reset_sweeps() {
        // A reset between the generation reads forces a retry; a clean
        // sweep straddling no reset is accepted unchanged.
        let (pool, store) = setup(2);
        let page = XPtr::new(0, PS as u32);
        let phys = store.alloc().unwrap();
        pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
        pool.acquire(page, phys, store.as_ref()).unwrap();
        let before = pool.stats();
        assert_eq!(before.hits, 1);
        assert_eq!(before.misses, 1);
        pool.reset_stats();
        let after = pool.stats();
        assert_eq!(after, BufferStats::default());
    }

    #[test]
    fn read_into_sees_dirty_frames_and_evicted_pages_without_loading() {
        let (pool, store) = setup(1);
        let (a, b) = (store.alloc().unwrap(), store.alloc().unwrap());
        let fref = pool
            .acquire_fresh(XPtr::new(0, 512), a, store.as_ref())
            .unwrap();
        pool.try_write(&fref, a).unwrap()[PAGE_HEADER_LEN] = 0x5A;
        let mut buf = vec![0u8; PS];
        // Resident and dirty: the store still holds zeros.
        pool.read_into(a, store.as_ref(), &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER_LEN], 0x5A);
        // Evicted (written back) by the next page: read from the store,
        // and the single frame stays with its current page.
        pool.acquire_fresh(XPtr::new(0, 1024), b, store.as_ref())
            .unwrap();
        let misses = pool.stats().misses;
        buf.fill(0);
        pool.read_into(a, store.as_ref(), &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER_LEN], 0x5A);
        assert_eq!(pool.stats().misses, misses);
        assert_eq!(pool.resident(), 1);
        assert_eq!(pool.pinned(), 0);
    }

    #[test]
    fn invalidate_discards_without_writeback() {
        let (pool, store) = setup(2);
        let page = XPtr::new(0, PS as u32);
        let phys = store.alloc().unwrap();
        let fref = pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
        {
            let mut w = pool.try_write(&fref, phys).unwrap();
            w.bytes_mut()[PAGE_HEADER_LEN] = 99;
        }
        pool.invalidate(phys);
        assert!(pool.try_read(&fref, phys).is_none());
        // The store never saw the bytes.
        let mut buf = vec![0u8; PS];
        store.read(phys, &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER_LEN], 0);
    }

    #[test]
    fn invalidate_many_discards_batch() {
        let (pool, store) = setup(8);
        let mut physes = Vec::new();
        for i in 0..6u32 {
            let page = XPtr::new(0, (i + 1) * PS as u32);
            let phys = store.alloc().unwrap();
            pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
            physes.push(phys);
        }
        assert_eq!(pool.resident(), 6);
        pool.invalidate_many(&physes);
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn flush_all_writes_dirty_frames() {
        let (pool, store) = setup(4);
        let page = XPtr::new(0, PS as u32);
        let phys = store.alloc().unwrap();
        let fref = pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
        {
            let mut w = pool.try_write(&fref, phys).unwrap();
            w.bytes_mut()[PAGE_HEADER_LEN] = 5;
        }
        pool.flush_all(store.as_ref()).unwrap();
        let mut buf = vec![0u8; PS];
        store.read(phys, &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER_LEN], 5);
        // Second flush writes nothing (no longer dirty).
        let before = pool.stats().writebacks;
        pool.flush_all(store.as_ref()).unwrap();
        assert_eq!(pool.stats().writebacks, before);
    }

    #[test]
    fn pool_exhausted_when_all_frames_locked() {
        let (pool, store) = setup(1);
        let page = XPtr::new(0, PS as u32);
        let phys = store.alloc().unwrap();
        let fref = pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
        let _guard = pool.try_read(&fref, phys).unwrap();
        let p2 = XPtr::new(0, 2 * PS as u32);
        let ph2 = store.alloc().unwrap();
        let err = pool.acquire(p2, ph2, store.as_ref()).unwrap_err();
        assert!(matches!(err, SasError::PoolExhausted));
    }

    #[test]
    fn write_barrier_sees_page_lsn() {
        struct Capture(Mutex<Vec<(XPtr, u64)>>);
        impl WriteBarrier for Capture {
            fn before_flush(&self, page: XPtr, lsn: u64) -> SasResult<()> {
                self.0.lock().push((page, lsn));
                Ok(())
            }
        }
        let (pool, store) = setup(2);
        let capture = Arc::new(Capture(Mutex::new(Vec::new())));
        pool.set_write_barrier(Arc::clone(&capture) as Arc<dyn WriteBarrier>);
        let page = XPtr::new(0, PS as u32);
        let phys = store.alloc().unwrap();
        let fref = pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
        {
            let mut w = pool.try_write(&fref, phys).unwrap();
            w.set_lsn(777);
        }
        pool.flush_all(store.as_ref()).unwrap();
        assert_eq!(capture.0.lock().as_slice(), &[(page, 777)]);
    }

    #[test]
    fn drop_all_simulates_crash() {
        let (pool, store) = setup(2);
        let page = XPtr::new(0, PS as u32);
        let phys = store.alloc().unwrap();
        let fref = pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
        {
            let mut w = pool.try_write(&fref, phys).unwrap();
            w.bytes_mut()[PAGE_HEADER_LEN] = 1;
        }
        pool.drop_all();
        assert_eq!(pool.resident(), 0);
        let mut buf = vec![0u8; PS];
        store.read(phys, &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER_LEN], 0, "dirty bytes were not persisted");
    }

    #[test]
    fn concurrent_readers_on_warm_pool() {
        let (pool, store) = setup(64);
        let pool = Arc::new(pool);
        let mut pages = Vec::new();
        for i in 0..32u32 {
            let page = XPtr::new(0, (i + 1) * PS as u32);
            let phys = store.alloc().unwrap();
            let fref = pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
            let mut w = pool.try_write(&fref, phys).unwrap();
            w.bytes_mut()[PAGE_HEADER_LEN] = i as u8;
            drop(w);
            pages.push((page, phys));
        }
        let pages = Arc::new(pages);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                let store = Arc::clone(&store);
                let pages = Arc::clone(&pages);
                std::thread::spawn(move || {
                    for round in 0..50 {
                        for (i, &(page, phys)) in pages.iter().enumerate() {
                            if (i + round + t) % 2 == 0 {
                                let fref = pool.acquire(page, phys, store.as_ref()).unwrap();
                                let r = pool.try_read(&fref, phys).unwrap();
                                assert_eq!(r.bytes()[PAGE_HEADER_LEN], i as u8);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits, s.lockfree_hits, "warm pool: every hit lock-free");
        assert_eq!(s.misses, 32, "only the initial loads missed");
    }

    #[test]
    fn pin_gauge_follows_guard_lifetimes() {
        let (pool, store) = setup(4);
        let page = XPtr::new(0, PS as u32);
        let phys = store.alloc().unwrap();
        let fref = pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
        assert_eq!(pool.pinned(), 0, "acquire hands out no guard");
        {
            let _r1 = pool.try_read(&fref, phys).unwrap();
            let _r2 = pool.try_read(&fref, phys).unwrap();
            assert_eq!(pool.pinned(), 2, "each live guard is one pin");
            assert_eq!(pool.pinned_peak(), 2);
        }
        assert_eq!(pool.pinned(), 0, "drops release the pins");
        assert_eq!(pool.pinned_peak(), 2, "the peak survives the drops");
        pool.reset_pinned_peak();
        assert_eq!(pool.pinned_peak(), 0);
        {
            let _w = pool.try_write(&fref, phys).unwrap();
            assert_eq!(pool.pinned(), 1);
        }
        assert_eq!(pool.pinned(), 0);
        assert_eq!(pool.pinned_peak(), 1);
    }

    #[test]
    fn concurrent_pins_balance_and_never_exceed_peak() {
        // Exercised under TSan in CI (name matches the `concurrent`
        // filter): guards taken and dropped from racing threads must
        // leave the live pin gauge at zero and a sane peak.
        let (pool, store) = setup(16);
        let pool = Arc::new(pool);
        let mut pages = Vec::new();
        for i in 0..8u32 {
            let page = XPtr::new(0, (i + 1) * PS as u32);
            let phys = store.alloc().unwrap();
            pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
            pages.push((page, phys));
        }
        let pages = Arc::new(pages);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                let store = Arc::clone(&store);
                let pages = Arc::clone(&pages);
                std::thread::spawn(move || {
                    for round in 0..100 {
                        let (page, phys) = pages[(t + round) % pages.len()];
                        let fref = pool.acquire(page, phys, store.as_ref()).unwrap();
                        let r = pool.try_read(&fref, phys).unwrap();
                        assert!(pool.pinned() >= 1, "own pin is visible");
                        drop(r);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.pinned(), 0, "all pins released");
        let peak = pool.pinned_peak();
        assert!((1..=4).contains(&peak), "peak {peak} within thread count");
    }
}
