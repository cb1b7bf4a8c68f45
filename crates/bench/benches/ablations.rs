//! Design-choice ablations called out in DESIGN.md:
//! page size, buffer-pool size, and lock granularity (document vs the
//! finer-granularity subtree extension).
//!
//! Run with `cargo bench -p sedna-bench --bench ablations`; each line is
//! the mean wall time of one iteration.

use std::hint::black_box;

use sedna_bench::{fixture, optimized, run, time_avg};
use sedna_sas::XPtr;
use sedna_storage::ParentMode;
use sedna_txn::{LockManager, LockMode, TxnId};
use sedna_xquery::exec::ConstructMode;

/// Prints the mean wall time of one of `iters` calls of `f`.
fn bench(group: &str, name: &str, iters: u32, f: impl FnMut()) {
    let mean = time_avg(iters, f);
    println!("{group}/{name}: {mean:?} per iteration ({iters} iterations)");
}

fn page_size() {
    let xml = sedna_workload::library(800, 21);
    let q = optimized("count(doc('lib')/library/book[issue/year > 1995])");
    for &ps in &[4096usize, 16 * 1024, 64 * 1024] {
        let fx = fixture(
            &xml,
            ps,
            1 << 26 >> ps.trailing_zeros(),
            ParentMode::Indirect,
        );
        bench(
            "ablation_page_size",
            &format!("predicate_query/{ps}"),
            10,
            || {
                black_box(run(&fx, &q, ConstructMode::Embedded));
            },
        );
    }
}

fn buffer_frames() {
    let xml = sedna_workload::library(800, 22);
    let q = optimized("count(doc('lib')//author)");
    for &frames in &[32usize, 128, 2048] {
        let fx = fixture(&xml, 4096, frames, ParentMode::Indirect);
        bench(
            "ablation_buffer_frames",
            &format!("descendant_count/{frames}"),
            10,
            || {
                black_box(run(&fx, &q, ConstructMode::Embedded));
            },
        );
    }
}

fn lock_granularity() {
    // Two writers on disjoint subtrees of one document: document-level
    // locks serialize them; subtree locks (the paper's future-work
    // extension) let both proceed. Measured as lock acquire+release cost
    // per scheme (the blocking effect is shown in the lock-manager tests).
    let lm = LockManager::default();
    let s1 = XPtr::new(1, 4096);
    bench(
        "ablation_lock_granularity",
        "document_level",
        100_000,
        || {
            lm.lock_document(TxnId(1), 7, LockMode::X).unwrap();
            lm.release_all(TxnId(1));
        },
    );
    bench(
        "ablation_lock_granularity",
        "subtree_level",
        100_000,
        || {
            lm.lock_subtree(TxnId(1), 7, s1, LockMode::X).unwrap();
            lm.release_all(TxnId(1));
        },
    );
}

fn main() {
    page_size();
    buffer_frames();
    lock_granularity();
}
