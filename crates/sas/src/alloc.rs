//! Allocation of SAS page addresses (layer number + address within layer).

use sedna_sync::Mutex;

use crate::xptr::XPtr;

/// Hands out page-aligned SAS addresses.
///
/// Layers are filled sequentially; when the current layer is exhausted, the
/// allocator moves to the next layer. Addresses handed back through
/// [`AddressAllocator::free_page`] are recycled first: those the page
/// resolver reclaims once no view can read the page (see
/// [`crate::Sas::alloc_address`]), never a page whose free may still roll
/// back or that a snapshot or fork may still read. Page `XPtr(0:0)` is
/// never produced — it is the null pointer.
///
/// The allocator's state is part of the database catalog: it is saved by
/// checkpoints and restored on recovery via [`AddressAllocator::state`] /
/// [`AddressAllocator::restore`].
pub struct AddressAllocator {
    inner: Mutex<AllocInner>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
/// Serializable allocator state: `(next_layer, next_addr, free list)`.
pub struct AllocState {
    /// Layer the next fresh page comes from.
    pub next_layer: u32,
    /// Address within that layer of the next fresh page.
    pub next_addr: u32,
    /// Recycled page addresses, consumed before fresh ones.
    pub free: Vec<XPtr>,
}

struct AllocInner {
    next_layer: u32,
    next_addr: u32,
    free: Vec<XPtr>,
}

impl AddressAllocator {
    /// Creates an allocator whose first page is `XPtr(0, page_size)`
    /// (page 0:0 is reserved for the null pointer).
    pub fn new() -> Self {
        AddressAllocator {
            inner: Mutex::new(AllocInner {
                next_layer: 0,
                next_addr: u32::MAX, // sentinel: "skip the null page" lazily
                free: Vec::new(),
            }),
        }
    }

    /// Allocates a page-aligned SAS address.
    pub fn alloc_page(&self, page_size: usize, layer_size: u64) -> XPtr {
        let mut inner = self.inner.lock();
        if let Some(p) = inner.free.pop() {
            return p;
        }
        if inner.next_addr == u32::MAX {
            // First allocation ever: skip the null page of layer 0.
            inner.next_layer = 0;
            inner.next_addr = page_size as u32;
        }
        let ptr = XPtr::new(inner.next_layer, inner.next_addr);
        let next = inner.next_addr as u64 + page_size as u64;
        if next >= layer_size {
            inner.next_layer += 1;
            inner.next_addr = 0;
        } else {
            inner.next_addr = next as u32;
        }
        ptr
    }

    /// Recycles a page address.
    pub fn free_page(&self, page: XPtr) {
        debug_assert!(!page.is_null());
        self.inner.lock().free.push(page);
    }

    /// Captures the allocator state for checkpointing.
    pub fn state(&self) -> AllocState {
        let inner = self.inner.lock();
        AllocState {
            next_layer: inner.next_layer,
            next_addr: inner.next_addr,
            free: inner.free.clone(),
        }
    }

    /// Restores a previously captured state.
    pub fn restore(&self, state: AllocState) {
        let mut inner = self.inner.lock();
        inner.next_layer = state.next_layer;
        inner.next_addr = state.next_addr;
        inner.free = state.free;
    }
}

impl Default for AddressAllocator {
    fn default() -> Self {
        AddressAllocator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_returns_null_page() {
        let a = AddressAllocator::new();
        let p = a.alloc_page(4096, 1 << 20);
        assert!(!p.is_null());
        assert_eq!(p, XPtr::new(0, 4096));
    }

    #[test]
    fn fills_layer_then_advances() {
        let a = AddressAllocator::new();
        let page = 4096usize;
        let layer = 4 * 4096u64;
        // Layer 0 yields pages at 4096, 8192, 12288 (page 0 reserved).
        assert_eq!(a.alloc_page(page, layer), XPtr::new(0, 4096));
        assert_eq!(a.alloc_page(page, layer), XPtr::new(0, 8192));
        assert_eq!(a.alloc_page(page, layer), XPtr::new(0, 12288));
        // Next allocation moves to layer 1, which can use address 0.
        assert_eq!(a.alloc_page(page, layer), XPtr::new(1, 0));
        assert_eq!(a.alloc_page(page, layer), XPtr::new(1, 4096));
    }

    #[test]
    fn recycles_freed_pages_first() {
        let a = AddressAllocator::new();
        let p1 = a.alloc_page(4096, 1 << 20);
        let _p2 = a.alloc_page(4096, 1 << 20);
        a.free_page(p1);
        assert_eq!(a.alloc_page(4096, 1 << 20), p1);
    }

    #[test]
    fn state_round_trip() {
        let a = AddressAllocator::new();
        let p1 = a.alloc_page(4096, 1 << 20);
        a.alloc_page(4096, 1 << 20);
        a.free_page(p1);
        let st = a.state();

        let b = AddressAllocator::new();
        b.restore(st.clone());
        assert_eq!(b.state(), st);
        assert_eq!(b.alloc_page(4096, 1 << 20), p1);
    }
}
