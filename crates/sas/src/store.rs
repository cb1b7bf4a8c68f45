//! Physical page stores: the "Data Base (Secondary Memory)" box of Figure 4.
//!
//! A [`PageStore`] is an array of fixed-size physical page slots addressed
//! by [`PhysId`]. The mapping from SAS page addresses to physical slots is
//! the job of the [`crate::PageResolver`]; keeping the two separate is what
//! lets the multiversioning transaction manager place several versions of
//! one SAS page in distinct physical slots (Section 6.1 of the paper).

use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

use sedna_sync::Mutex;

use crate::error::{SasError, SasResult};

/// Identifier of a physical page slot in a [`PageStore`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PhysId(pub u64);

impl PhysId {
    /// A sentinel id that no allocated slot ever receives.
    pub const INVALID: PhysId = PhysId(u64::MAX);
}

/// Abstraction over the data file holding physical page images.
pub trait PageStore: Send + Sync {
    /// Page size in bytes; every read/write transfers exactly this much.
    fn page_size(&self) -> usize;

    /// Reads the slot `id` into `buf` (`buf.len() == page_size`).
    fn read(&self, id: PhysId, buf: &mut [u8]) -> SasResult<()>;

    /// Writes `buf` (`buf.len() == page_size`) into slot `id`.
    fn write(&self, id: PhysId, buf: &[u8]) -> SasResult<()>;

    /// Allocates a fresh slot. Its contents are unspecified until written.
    fn alloc(&self) -> SasResult<PhysId>;

    /// Returns slot `id` to the free pool.
    fn free(&self, id: PhysId) -> SasResult<()>;

    /// Number of currently allocated slots.
    fn allocated(&self) -> u64;

    /// Highest slot index ever allocated plus one (the store's extent).
    fn extent(&self) -> u64;

    /// Forces written data to durable storage (no-op for memory stores).
    fn sync(&self) -> SasResult<()>;
}

#[derive(Default)]
struct SlotAllocator {
    next: u64,
    free: BTreeSet<u64>,
}

impl SlotAllocator {
    fn alloc(&mut self) -> u64 {
        if let Some(&id) = self.free.iter().next() {
            self.free.remove(&id);
            id
        } else {
            let id = self.next;
            self.next += 1;
            id
        }
    }

    fn free_slot(&mut self, id: u64) {
        debug_assert!(id < self.next);
        self.free.insert(id);
    }

    fn allocated(&self) -> u64 {
        self.next - self.free.len() as u64
    }
}

/// An in-memory page store, used by tests and by transient query-engine
/// structures that do not need durability.
pub struct MemPageStore {
    page_size: usize,
    inner: Mutex<MemInner>,
}

struct MemInner {
    pages: Vec<Box<[u8]>>,
    alloc: SlotAllocator,
}

impl MemPageStore {
    /// Creates an empty in-memory store with the given page size.
    pub fn new(page_size: usize) -> Self {
        MemPageStore {
            page_size,
            inner: Mutex::new(MemInner {
                pages: Vec::new(),
                alloc: SlotAllocator::default(),
            }),
        }
    }
}

impl PageStore for MemPageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read(&self, id: PhysId, buf: &mut [u8]) -> SasResult<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        let inner = self.inner.lock();
        let page = inner
            .pages
            .get(id.0 as usize)
            .ok_or_else(|| SasError::Corrupt(format!("read of unallocated slot {id:?}")))?;
        buf.copy_from_slice(page);
        Ok(())
    }

    fn write(&self, id: PhysId, buf: &[u8]) -> SasResult<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        let mut inner = self.inner.lock();
        if id.0 as usize >= inner.pages.len() {
            return Err(SasError::Corrupt(format!(
                "write of unallocated slot {id:?}"
            )));
        }
        inner.pages[id.0 as usize].copy_from_slice(buf);
        Ok(())
    }

    fn alloc(&self) -> SasResult<PhysId> {
        let mut inner = self.inner.lock();
        let id = inner.alloc.alloc();
        while inner.pages.len() <= id as usize {
            let page = vec![0u8; self.page_size].into_boxed_slice();
            inner.pages.push(page);
        }
        Ok(PhysId(id))
    }

    fn free(&self, id: PhysId) -> SasResult<()> {
        let mut inner = self.inner.lock();
        inner.alloc.free_slot(id.0);
        Ok(())
    }

    fn allocated(&self) -> u64 {
        self.inner.lock().alloc.allocated()
    }

    fn extent(&self) -> u64 {
        self.inner.lock().alloc.next
    }

    fn sync(&self) -> SasResult<()> {
        Ok(())
    }
}

/// A page store backed by a file on disk: the Sedna data file.
///
/// Slot `i` lives at byte offset `i * page_size`. The free-slot set is kept
/// in memory; it is reconstructed on restart by the recovery/catalog layer,
/// which re-registers live slots via [`FilePageStore::mark_allocated`].
pub struct FilePageStore {
    page_size: usize,
    file: File,
    alloc: Mutex<SlotAllocator>,
}

impl FilePageStore {
    /// Creates a new data file, truncating any existing one.
    pub fn create(path: &Path, page_size: usize) -> SasResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FilePageStore {
            page_size,
            file,
            alloc: Mutex::new(SlotAllocator::default()),
        })
    }

    /// Opens an existing data file. All slots covered by the file length are
    /// initially considered allocated; the caller frees the genuinely unused
    /// ones (or simply leaves them — they are reclaimed at the next
    /// checkpoint truncation).
    pub fn open(path: &Path, page_size: usize) -> SasResult<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        let next = len / page_size as u64;
        Ok(FilePageStore {
            page_size,
            file,
            alloc: Mutex::new(SlotAllocator {
                next,
                free: BTreeSet::new(),
            }),
        })
    }

    /// Declares slot `id` allocated (used during recovery to rebuild the
    /// allocation state from the checkpoint's page table).
    pub fn mark_allocated(&self, id: PhysId) {
        let mut alloc = self.alloc.lock();
        if id.0 >= alloc.next {
            alloc.next = id.0 + 1;
        }
        alloc.free.remove(&id.0);
    }

    /// Declares every slot in `[0, extent)` free except those in `live`
    /// (used after recovery to rebuild the free list).
    pub fn rebuild_free_list(&self, live: &BTreeSet<u64>) {
        let mut alloc = self.alloc.lock();
        let next = alloc.next;
        alloc.free = (0..next).filter(|s| !live.contains(s)).collect();
    }
}

impl PageStore for FilePageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read(&self, id: PhysId, buf: &mut [u8]) -> SasResult<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        let off = id.0 * self.page_size as u64;
        match self.file.read_exact_at(buf, off) {
            Ok(()) => Ok(()),
            // A slot may have been allocated but never written (fresh page
            // created in the buffer and lost in a crash); treat short reads
            // as zero pages so recovery can redo into them.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                buf.fill(0);
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    fn write(&self, id: PhysId, buf: &[u8]) -> SasResult<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        let off = id.0 * self.page_size as u64;
        self.file.write_all_at(buf, off)?;
        Ok(())
    }

    fn alloc(&self) -> SasResult<PhysId> {
        Ok(PhysId(self.alloc.lock().alloc()))
    }

    fn free(&self, id: PhysId) -> SasResult<()> {
        self.alloc.lock().free_slot(id.0);
        Ok(())
    }

    fn allocated(&self) -> u64 {
        self.alloc.lock().allocated()
    }

    fn extent(&self) -> u64 {
        self.alloc.lock().next
    }

    fn sync(&self) -> SasResult<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn PageStore) {
        let ps = store.page_size();
        let a = store.alloc().unwrap();
        let b = store.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(store.allocated(), 2);

        let mut page = vec![0u8; ps];
        page[0] = 0xAB;
        page[ps - 1] = 0xCD;
        store.write(a, &page).unwrap();

        let mut out = vec![0u8; ps];
        store.read(a, &mut out).unwrap();
        assert_eq!(out, page);

        store.free(a).unwrap();
        assert_eq!(store.allocated(), 1);
        // Freed slot is reused.
        let c = store.alloc().unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn mem_store_round_trip() {
        let store = MemPageStore::new(4096);
        exercise(&store);
    }

    #[test]
    fn file_store_round_trip() {
        let dir = std::env::temp_dir().join(format!("sedna-sas-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.sedna");
        {
            let store = FilePageStore::create(&path, 4096).unwrap();
            exercise(&store);
            store.sync().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_reopen_preserves_pages() {
        let dir = std::env::temp_dir().join(format!("sedna-sas-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.sedna");
        let ps = 1024;
        {
            let store = FilePageStore::create(&path, ps).unwrap();
            let a = store.alloc().unwrap();
            let page = vec![7u8; ps];
            store.write(a, &page).unwrap();
            store.sync().unwrap();
        }
        {
            let store = FilePageStore::open(&path, ps).unwrap();
            assert_eq!(store.extent(), 1);
            let mut out = vec![0u8; ps];
            store.read(PhysId(0), &mut out).unwrap();
            assert_eq!(out, vec![7u8; ps]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_short_read_is_zero_page() {
        let dir = std::env::temp_dir().join(format!("sedna-sas-test3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.sedna");
        let ps = 512;
        let store = FilePageStore::create(&path, ps).unwrap();
        let id = store.alloc().unwrap(); // allocated but never written
        let mut out = vec![9u8; ps];
        store.read(id, &mut out).unwrap();
        assert_eq!(out, vec![0u8; ps]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebuild_free_list_frees_dead_slots() {
        let dir = std::env::temp_dir().join(format!("sedna-sas-test4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.sedna");
        let ps = 512;
        {
            let store = FilePageStore::create(&path, ps).unwrap();
            for _ in 0..4 {
                let id = store.alloc().unwrap();
                store.write(id, &vec![1u8; ps]).unwrap();
            }
            store.sync().unwrap();
        }
        let store = FilePageStore::open(&path, ps).unwrap();
        let live: BTreeSet<u64> = [1u64, 3].into_iter().collect();
        store.rebuild_free_list(&live);
        assert_eq!(store.allocated(), 2);
        // Allocation reuses dead slots 0 and 2 first.
        assert_eq!(store.alloc().unwrap(), PhysId(0));
        assert_eq!(store.alloc().unwrap(), PhysId(2));
        assert_eq!(store.alloc().unwrap(), PhysId(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
