//! F4 — Figure 4 invariants: the storage manager maps DAS layers onto the
//! session VAS on the equality basis; dereferences of resident pages take
//! the fast path; a missing page faults into the buffer manager; pages
//! (not layers) are the unit of disk interaction, so frames hold pages
//! from multiple layers at once.

use sedna_sas::{Sas, SasConfig, TxnToken, View, XPtr};

fn tiny_sas(frames: usize) -> std::sync::Arc<Sas> {
    Sas::in_memory(SasConfig {
        page_size: 512,
        layer_size: 8 * 512,
        buffer_frames: frames,
    })
    .unwrap()
}

#[test]
fn das_address_is_layer_plus_offset() {
    // "The 64-bit address of an object in SAS consists of the layer number
    // (the first 32 bits) and the address within the layer."
    let p = XPtr::new(0x0102_0304, 0x0506_0708);
    assert_eq!(p.raw() >> 32, 0x0102_0304);
    assert_eq!(p.raw() & 0xFFFF_FFFF, 0x0506_0708);
}

#[test]
fn equality_basis_mapping_no_translation_structure() {
    // Two pages at the SAME within-layer address in different layers
    // compete for the same VAS slot (that is what "equality basis" means);
    // pages at different offsets never conflict.
    let sas = tiny_sas(16);
    let vas = sas.session();
    vas.begin(View::LATEST, Some(TxnToken(1)));
    let mut pages = Vec::new();
    for _ in 0..10 {
        let (p, w) = vas.alloc_page().unwrap();
        drop(w);
        pages.push(p);
    }
    let a = *pages
        .iter()
        .find(|p| p.layer() == 0 && p.addr() == 512)
        .unwrap();
    let b = *pages
        .iter()
        .find(|p| p.layer() == 1 && p.addr() == 512)
        .unwrap();
    vas.reset_stats();
    let _ = vas.read(a).unwrap();
    let _ = vas.read(b).unwrap(); // same slot, different layer → conflict
    let _ = vas.read(a).unwrap();
    assert!(vas.stats().layer_conflicts >= 2);
    // Distinct offsets in one layer: pure fast-path hits after first touch.
    let c = *pages
        .iter()
        .find(|p| p.layer() == 0 && p.addr() == 1024)
        .unwrap();
    let _ = vas.read(c).unwrap();
    vas.reset_stats();
    for _ in 0..5 {
        let _ = vas.read(c).unwrap();
    }
    assert_eq!(vas.stats().hits, 5);
    assert_eq!(vas.stats().faults, 0);
}

#[test]
fn fault_path_goes_through_buffer_manager() {
    // "If there is no page in main memory by this address of PVAS, then
    // dereferencing results in a memory fault. In this case the buffer
    // manager reads the required page from disk."
    let sas = tiny_sas(1); // single frame: every switch evicts
    let vas = sas.session();
    vas.begin(View::LATEST, Some(TxnToken(1)));
    let (p1, mut w) = vas.alloc_page().unwrap();
    w.bytes_mut()[16] = 1;
    drop(w);
    let (p2, mut w) = vas.alloc_page().unwrap();
    w.bytes_mut()[16] = 2;
    drop(w);
    sas.pool().reset_stats();
    // Ping-pong between the two pages: each read evicts the other.
    for _ in 0..4 {
        assert_eq!(vas.read(p1).unwrap()[16], 1);
        assert_eq!(vas.read(p2).unwrap()[16], 2);
    }
    let stats = sas.pool().stats();
    assert!(stats.evictions >= 7, "stats: {stats:?}");
    assert!(stats.writebacks >= 1, "dirty pages were forced to disk");
}

#[test]
fn unit_of_disk_interaction_is_the_page_not_the_layer() {
    // "Main memory generally contains pages from multiple layers at a
    // time."
    let sas = tiny_sas(16);
    let vas = sas.session();
    vas.begin(View::LATEST, Some(TxnToken(1)));
    let mut pages = Vec::new();
    for _ in 0..12 {
        let (p, w) = vas.alloc_page().unwrap();
        drop(w);
        pages.push(p);
    }
    // Touch pages from layer 0 and layer 1 at distinct offsets.
    let l0 = *pages
        .iter()
        .find(|p| p.layer() == 0 && p.addr() == 1024)
        .unwrap();
    let l1 = *pages
        .iter()
        .find(|p| p.layer() == 1 && p.addr() == 2048)
        .unwrap();
    let _ = vas.read(l0).unwrap();
    let _ = vas.read(l1).unwrap();
    vas.reset_stats();
    let _ = vas.read(l0).unwrap();
    let _ = vas.read(l1).unwrap();
    // Both resident simultaneously: no faults.
    assert_eq!(vas.stats().faults, 0);
    assert_eq!(vas.stats().hits, 2);
}

#[test]
fn same_pointer_representation_in_memory_and_on_disk() {
    // "Costly pointer swizzling is avoided by using the same pointer
    // representation in main and secondary memory": a pointer stored into
    // a page round-trips through eviction byte-identical and remains
    // directly dereferenceable.
    let sas = tiny_sas(1);
    let vas = sas.session();
    vas.begin(View::LATEST, Some(TxnToken(1)));
    let (p1, w) = vas.alloc_page().unwrap();
    drop(w);
    let (p2, mut w) = vas.alloc_page().unwrap();
    // Store p1's address INSIDE p2.
    p1.write_at(&mut w, 16);
    drop(w);
    // Evict both by touching other pages.
    for _ in 0..3 {
        let (_, w) = vas.alloc_page().unwrap();
        drop(w);
    }
    // Read the pointer back from disk and dereference it as-is.
    let stored = {
        let page = vas.read(p2).unwrap();
        XPtr::read_at(&page, 16)
    };
    assert_eq!(stored, p1, "bit-identical representation");
    let page = vas.read(stored).unwrap();
    assert_eq!(
        XPtr::read_at(&page, 0),
        p1,
        "self-pointer in the SAS header"
    );
}
