//! Concurrency stress: many sessions mixing snapshot reads, locked
//! updates, rollbacks, checkpoints, and a final crash/recovery — the
//! whole §6 machinery under load; plus a pool-level eviction-pressure
//! phase driving the buffer manager directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sedna::{Database, DbConfig};
use sedna_sas::{BufferPool, MemPageStore, PageStore, XPtr, PAGE_HEADER_LEN};
use sedna_workload::SmallRng;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sedna-stress-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn mixed_sessions_stress_then_recover() {
    let dir = tmpdir("mixed");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    {
        let mut s = db.session();
        s.execute("CREATE DOCUMENT 'lib'").unwrap();
        s.load_xml("lib", &sedna_workload::library(150, 77))
            .unwrap();
    }
    let committed = Arc::new(AtomicU64::new(0));
    let reads = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    // 3 writers: each commits some inserts and rolls back others.
    for w in 0..3u64 {
        let db = db.clone();
        let committed = Arc::clone(&committed);
        handles.push(std::thread::spawn(move || {
            let mut s = db.session();
            for i in 0..12 {
                s.begin_update().unwrap();
                s.execute(&format!(
                    "UPDATE insert <author>W{w}N{i}</author> into doc('lib')/library/paper[1]"
                ))
                .unwrap();
                if i % 3 == 0 {
                    s.rollback().unwrap();
                } else {
                    s.commit().unwrap();
                    committed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    // 4 snapshot readers hammering concurrently.
    for _ in 0..4 {
        let db = db.clone();
        let reads = Arc::clone(&reads);
        handles.push(std::thread::spawn(move || {
            let mut s = db.session();
            for _ in 0..40 {
                s.begin_read_only().unwrap();
                let n: u64 = s
                    .query("count(doc('lib')//paper[1]/author)")
                    .unwrap()
                    .parse()
                    .unwrap();
                // A snapshot is internally consistent: counting twice in
                // one transaction gives the same answer.
                let again: u64 = s
                    .query("count(doc('lib')//paper[1]/author)")
                    .unwrap()
                    .parse()
                    .unwrap();
                assert_eq!(n, again);
                s.commit().unwrap();
                reads.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    // A checkpointer running alongside.
    {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..4 {
                db.checkpoint().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let committed = committed.load(Ordering::Relaxed);
    assert!(reads.load(Ordering::Relaxed) >= 160);

    // Exactly the committed inserts are visible (1 original author).
    let mut s = db.session();
    let n: u64 = s
        .query("count(doc('lib')//paper[1]/author)")
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(n, committed + 1, "rolled-back work must not surface");
    drop(s);

    // Crash and recover: the same state must come back.
    db.crash();
    let db = Database::open(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    let after: u64 = s
        .query("count(doc('lib')//paper[1]/author)")
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(after, committed + 1);
    // Structure still fully navigable.
    assert_eq!(s.query("count(doc('lib')//book)").unwrap(), "150");
    drop(s);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn pool_eviction_pressure_readers_and_writer() {
    // Pool-level stress on the buffer manager: the pool (16 frames) is
    // much smaller than the working set (64 pages), so every thread
    // continuously fights the clock for victims. Asserts: the run
    // terminates (no deadlock), no write-back is lost, and the pool's
    // accounting stays exact (hits + misses == the lookups made).
    const PS: usize = 512;
    const FRAMES: usize = 16;
    const PAGES: usize = 64;
    const READERS: usize = 4;

    let pool = Arc::new(BufferPool::new(FRAMES, PS));
    let store = Arc::new(MemPageStore::new(PS));
    let mut pages = Vec::new();
    for i in 0..PAGES {
        let page = XPtr::new(0, ((i + 1) * PS) as u32);
        let phys = store.alloc().unwrap();
        let fref = pool.acquire_fresh(page, phys, store.as_ref()).unwrap();
        let mut w = pool.try_write(&fref, phys).unwrap();
        // Per-page marker (verified by readers) + write counter
        // (verified against the writer's tally at the end).
        w.bytes_mut()[PAGE_HEADER_LEN + 8] = i as u8;
        drop(w);
        pages.push((page, phys));
    }
    let pages = Arc::new(pages);

    let mut handles = Vec::new();
    for t in 0..READERS {
        let pool = Arc::clone(&pool);
        let store = Arc::clone(&store);
        let pages = Arc::clone(&pages);
        handles.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(t as u64 + 1);
            let mut acquires = 0u64;
            for _ in 0..800 {
                // A random walk over the working set.
                let i = rng.gen_range(0..PAGES);
                let (page, phys) = pages[i];
                // Under eviction pressure the frame can be stolen between
                // acquire and try_read; re-acquire until the read lands.
                loop {
                    let fref = pool.acquire(page, phys, store.as_ref()).unwrap();
                    acquires += 1;
                    if let Some(r) = pool.try_read(&fref, phys) {
                        assert_eq!(r.bytes()[PAGE_HEADER_LEN + 8], i as u8);
                        break;
                    }
                }
            }
            acquires
        }));
    }
    let writer = {
        let pool = Arc::clone(&pool);
        let store = Arc::clone(&store);
        let pages = Arc::clone(&pages);
        std::thread::spawn(move || {
            let mut tally = vec![0u64; PAGES];
            let mut rng = SmallRng::seed_from_u64(0xDEAD_BEEF);
            let mut acquires = 0u64;
            for _ in 0..800 {
                let i = rng.gen_range(0..PAGES);
                let (page, phys) = pages[i];
                loop {
                    let fref = pool.acquire(page, phys, store.as_ref()).unwrap();
                    acquires += 1;
                    if let Some(mut w) = pool.try_write(&fref, phys) {
                        let off = PAGE_HEADER_LEN;
                        let mut c = u64::from_le_bytes(w.bytes()[off..off + 8].try_into().unwrap());
                        c += 1;
                        w.bytes_mut()[off..off + 8].copy_from_slice(&c.to_le_bytes());
                        tally[i] += 1;
                        break;
                    }
                }
            }
            (tally, acquires)
        })
    };
    // The setup's acquire_fresh calls are lookups too.
    let mut lookups = PAGES as u64;
    for h in handles {
        lookups += h.join().unwrap();
    }
    let (tally, writer_acquires) = writer.join().unwrap();
    lookups += writer_acquires;

    // No lost write-backs: after flushing, the store holds exactly the
    // writer's count for every page (evictions in between wrote back
    // every intermediate state consistently).
    pool.flush_all(store.as_ref()).unwrap();
    let mut buf = vec![0u8; PS];
    for (i, &(_, phys)) in pages.iter().enumerate() {
        store.read(phys, &mut buf).unwrap();
        let off = PAGE_HEADER_LEN;
        let c = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        assert_eq!(c, tally[i], "page {i}: store must hold the final count");
        assert_eq!(buf[off + 8], i as u8, "page {i}: marker survived churn");
    }

    // Pool-wide accounting is exact and the capacity bound holds.
    let totals = pool.stats();
    assert_eq!(
        totals.hits + totals.misses,
        lookups,
        "every acquire is exactly one hit or one miss"
    );
    assert!(pool.resident() <= FRAMES, "resident within frames");
    assert!(totals.evictions > 0, "the workload must have evicted");
    assert!(totals.writebacks > 0, "dirty evictions must write back");
}

#[test]
fn deadlock_victim_can_retry() {
    let dir = tmpdir("deadlock");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    {
        let mut s = db.session();
        s.execute("CREATE DOCUMENT 'a'").unwrap();
        s.load_xml("a", "<r><v>0</v></r>").unwrap();
        s.execute("CREATE DOCUMENT 'b'").unwrap();
        s.load_xml("b", "<r><v>0</v></r>").unwrap();
    }
    // Session 1: X(a) then X(b); session 2: X(b) then X(a) — classic
    // cross deadlock. One of them must be chosen as victim, roll back,
    // and succeed on retry.
    let db1 = db.clone();
    let t1 = std::thread::spawn(move || {
        let mut s = db1.session();
        loop {
            s.begin_update().unwrap();
            if s.execute("UPDATE replace value of doc('a')//v with '1'")
                .is_err()
            {
                let _ = s.rollback();
                continue;
            }
            std::thread::sleep(std::time::Duration::from_millis(30));
            match s.execute("UPDATE replace value of doc('b')//v with '1'") {
                Ok(_) => {
                    s.commit().unwrap();
                    return;
                }
                Err(_) => {
                    let _ = s.rollback();
                }
            }
        }
    });
    let db2 = db.clone();
    let t2 = std::thread::spawn(move || {
        let mut s = db2.session();
        loop {
            s.begin_update().unwrap();
            if s.execute("UPDATE replace value of doc('b')//v with '2'")
                .is_err()
            {
                let _ = s.rollback();
                continue;
            }
            std::thread::sleep(std::time::Duration::from_millis(30));
            match s.execute("UPDATE replace value of doc('a')//v with '2'") {
                Ok(_) => {
                    s.commit().unwrap();
                    return;
                }
                Err(_) => {
                    let _ = s.rollback();
                }
            }
        }
    });
    t1.join().unwrap();
    t2.join().unwrap();
    // Both transactions eventually committed; whoever was second wins
    // both values (serializability).
    let mut s = db.session();
    let va = s.query("string(doc('a')//v)").unwrap();
    let vb = s.query("string(doc('b')//v)").unwrap();
    assert!(va == "1" || va == "2");
    assert!(vb == "1" || vb == "2");
    drop(s);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn repeated_crash_recovery_cycles() {
    // Recovery must be idempotent and composable: crash, recover, write
    // more, crash again, recover again.
    let dir = tmpdir("cycles");
    {
        let db = Database::create(&dir, DbConfig::small()).unwrap();
        let mut s = db.session();
        s.execute("CREATE DOCUMENT 'log'").unwrap();
        s.load_xml("log", "<log/>").unwrap();
        drop(s);
        db.crash();
    }
    for round in 0..5 {
        let db = Database::open(&dir, DbConfig::small()).unwrap();
        let mut s = db.session();
        let n: u64 = s.query("count(doc('log')/log/e)").unwrap().parse().unwrap();
        assert_eq!(n, round, "round {round}");
        s.execute(&format!(
            "UPDATE insert <e>round {round}</e> into doc('log')/log"
        ))
        .unwrap();
        drop(s);
        db.crash();
    }
    let db = Database::open(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    assert_eq!(s.query("count(doc('log')/log/e)").unwrap(), "5");
    assert_eq!(s.query("string(doc('log')/log/e[3])").unwrap(), "round 2");
    drop(s);
    std::fs::remove_dir_all(dir).unwrap();
}
