//! # Sedna Address Space (SAS)
//!
//! This crate implements the memory-management technique described in
//! Section 4.2 of *"Sedna: Native XML Database Management System (Internals
//! Overview)"* (SIGMOD 2010): a 64-bit database address space divided into
//! **layers** of equal size, where an address within a layer is mapped to a
//! process-virtual address **on equality basis**, so that a database pointer
//! and an in-memory pointer share one representation and **no pointer
//! swizzling** is ever required.
//!
//! The paper realizes the mapping with `mmap`/`MapViewOfFile` and hardware
//! page faults; this reproduction realizes the identical control flow in
//! safe Rust:
//!
//! * [`XPtr`] is the 64-bit SAS address: the upper 32 bits select a layer,
//!   the lower 32 bits are the address within the layer.
//! * [`Vas`] is a per-session/per-transaction emulation of the process
//!   virtual address space: a slot table indexed by
//!   `addr_within_layer / page_size` — the *equality basis*. A dereference
//!   is a slot-array index plus a tag comparison; a tag mismatch is the
//!   analogue of a hardware page fault and enters the buffer manager.
//! * [`BufferPool`] owns the main-memory page frames and performs
//!   clock (second-chance) replacement with write-back of dirty frames,
//!   mirroring the Sedna buffer manager of Figure 4.
//! * [`PageStore`] abstracts the data file (secondary memory); both an
//!   on-disk ([`FilePageStore`]) and an in-memory ([`MemPageStore`])
//!   implementation are provided.
//! * [`PageResolver`] translates a SAS page address into the physical
//!   location of the page *version* visible to the caller's [`View`]; the
//!   multiversioning transaction manager (crate `sedna-txn`) plugs in here.
//! * [`swizzle::SwizzleSpace`] is the **baseline** the paper argues
//!   against: every dereference goes through a translation table (pointer
//!   swizzling), exactly the class of techniques of QuickStore/ObjectStore
//!   cited in Section 2. Experiment E2 compares the two.
//!
//! ## Page layout contract
//!
//! Every page begins with a 16-byte SAS header: the page's own [`XPtr`]
//! (8 bytes, little-endian) followed by the page LSN (8 bytes,
//! little-endian). The buffer manager reads the LSN to honor the WAL
//! protocol before flushing a dirty frame; everything after byte 16 belongs
//! to the next layer up (crate `sedna-storage`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod buffer;
mod error;
mod resolver;
mod store;
pub mod swizzle;
mod vas;
mod xptr;

#[cfg(all(test, loom))]
mod loom_models;

pub use alloc::{AddressAllocator, AllocState};
pub use buffer::{BufferMetrics, BufferPool, BufferStats, PageRead, PageWrite, WriteBarrier};
pub use error::{SasError, SasResult};
pub use resolver::{DirectResolver, PageResolver, TxnToken, View, WritePlan};
pub use store::{FilePageStore, MemPageStore, PageStore, PhysId};
pub use vas::{Vas, VasStats};
pub use xptr::XPtr;

use sedna_sync::Arc;

/// Size, in bytes, of the SAS header at the start of every page:
/// the page's own [`XPtr`] followed by the page LSN.
pub const PAGE_HEADER_LEN: usize = 16;

/// Byte offset of the page LSN within the SAS page header.
pub const PAGE_LSN_OFFSET: usize = 8;

/// Configuration of a SAS instance.
#[derive(Debug, Clone)]
pub struct SasConfig {
    /// Page (block) size in bytes. Must be a power of two and at least 256.
    pub page_size: usize,
    /// Layer size in bytes. Must be a power-of-two multiple of `page_size`
    /// and at most 4 GiB (a layer address is 32 bits).
    pub layer_size: u64,
    /// Number of main-memory frames owned by the buffer pool.
    pub buffer_frames: usize,
}

impl Default for SasConfig {
    fn default() -> Self {
        SasConfig {
            page_size: 16 * 1024,
            layer_size: 16 * 1024 * 1024,
            buffer_frames: 1024,
        }
    }
}

impl SasConfig {
    /// Validates the configuration invariants.
    pub fn validate(&self) -> SasResult<()> {
        if !self.page_size.is_power_of_two() || self.page_size < 256 {
            return Err(SasError::Config(format!(
                "page_size must be a power of two >= 256, got {}",
                self.page_size
            )));
        }
        if self.layer_size > u32::MAX as u64 + 1 {
            return Err(SasError::Config(format!(
                "layer_size must fit a 32-bit layer address, got {}",
                self.layer_size
            )));
        }
        if !self.layer_size.is_power_of_two() || self.layer_size < self.page_size as u64 {
            return Err(SasError::Config(format!(
                "layer_size must be a power-of-two multiple of page_size, got {}",
                self.layer_size
            )));
        }
        if self.buffer_frames == 0 {
            return Err(SasError::Config("buffer_frames must be > 0".into()));
        }
        Ok(())
    }

    /// Number of VAS slots per session (`layer_size / page_size`).
    pub fn slots_per_layer(&self) -> usize {
        (self.layer_size / self.page_size as u64) as usize
    }
}

/// The shared half of a SAS instance: buffer pool, page store, resolver and
/// address allocator. Per-session state lives in [`Vas`] handles created
/// with [`Sas::session`].
pub struct Sas {
    cfg: SasConfig,
    pool: Arc<BufferPool>,
    store: Arc<dyn PageStore>,
    resolver: Arc<dyn PageResolver>,
    allocator: AddressAllocator,
}

impl Sas {
    /// Creates a SAS over the given page store and version resolver.
    pub fn new(
        cfg: SasConfig,
        store: Arc<dyn PageStore>,
        resolver: Arc<dyn PageResolver>,
    ) -> SasResult<Arc<Self>> {
        cfg.validate()?;
        let pool = Arc::new(BufferPool::new(cfg.buffer_frames, cfg.page_size));
        resolver.attach_pool(Arc::clone(&pool));
        Ok(Arc::new(Sas {
            cfg,
            pool,
            store,
            resolver,
            allocator: AddressAllocator::new(),
        }))
    }

    /// Convenience constructor: an entirely in-memory SAS with a direct
    /// (non-versioned) page resolver. Useful for tests and for query-engine
    /// components that do not need durability.
    pub fn in_memory(cfg: SasConfig) -> SasResult<Arc<Self>> {
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(cfg.page_size));
        let resolver: Arc<dyn PageResolver> = Arc::new(DirectResolver::new(Arc::clone(&store)));
        Sas::new(cfg, store, resolver)
    }

    /// The configuration this SAS was created with.
    pub fn config(&self) -> &SasConfig {
        &self.cfg
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The underlying page store (secondary memory).
    pub fn store(&self) -> &Arc<dyn PageStore> {
        &self.store
    }

    /// The page-version resolver.
    pub fn resolver(&self) -> &Arc<dyn PageResolver> {
        &self.resolver
    }

    /// The SAS address allocator.
    pub fn allocator(&self) -> &AddressAllocator {
        &self.allocator
    }

    /// Opens a new session mapping (an emulated process VAS).
    pub fn session(self: &Arc<Self>) -> Vas {
        Vas::new(Arc::clone(self))
    }

    /// Installs the WAL write barrier consulted before dirty-page flushes.
    pub fn set_write_barrier(&self, barrier: Arc<dyn WriteBarrier>) {
        self.pool.set_write_barrier(barrier);
    }

    /// Flushes every dirty frame to the store (used by checkpoints).
    pub fn flush_all(&self) -> SasResult<()> {
        self.pool.flush_all(self.store.as_ref())
    }
}

impl std::fmt::Debug for Sas {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sas").field("cfg", &self.cfg).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SasConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_non_power_of_two_page_size() {
        let cfg = SasConfig {
            page_size: 3000,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_tiny_page_size() {
        let cfg = SasConfig {
            page_size: 128,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_layer_smaller_than_page() {
        let cfg = SasConfig {
            page_size: 16 * 1024,
            layer_size: 8 * 1024,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_frames() {
        let cfg = SasConfig {
            buffer_frames: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn slots_per_layer_matches_ratio() {
        let cfg = SasConfig {
            page_size: 4096,
            layer_size: 1 << 20,
            buffer_frames: 16,
        };
        assert_eq!(cfg.slots_per_layer(), 256);
    }
}
