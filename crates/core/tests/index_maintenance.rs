//! Value-index maintenance under updates.
//!
//! An index entry maps a key to a node *handle*, and handles survive every
//! update (§4.1's indirection table), so after any statement the index must
//! agree with a scan of the document. The oracle, for every key `k` in
//! 10..120: `count(index-scan('byprice','k'))` equals
//! `count(doc('lib')/library/book[string(price[1])='k'])` — `BY price`
//! keys a book by its *first* price.
//!
//! The second half checks that maintenance writes only the difference:
//! the `sedna_index_{inserts,removes}_total` deltas of one statement are
//! exactly the entries whose key it changed.

use sedna::{Database, DbConfig, Session};
use sedna_workload::{library, update_statements};

const KEYS: std::ops::Range<u32> = 10..120;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sedna-idxmaint-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A database holding `library(40, 7)` as `lib`, indexed by price.
fn setup(dir: &std::path::Path, cfg: DbConfig) -> Database {
    let db = Database::create(dir, cfg).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'lib'").unwrap();
    s.load_xml("lib", &library(40, 7)).unwrap();
    s.execute("CREATE INDEX 'byprice' ON doc('lib')/library/book BY price AS xs:string")
        .unwrap();
    drop(s);
    db
}

/// The index's entry count for every key, checked against the scan.
fn checked_counts(s: &mut Session, ctx: &str) -> Vec<String> {
    KEYS.map(|k| {
        let indexed = s
            .query(&format!("count(index-scan('byprice','{k}'))"))
            .unwrap_or_else(|e| panic!("{ctx}: index-scan of key {k} failed: {e}"));
        let scanned = s
            .query(&format!(
                "count(doc('lib')/library/book[string(price[1])='{k}'])"
            ))
            .unwrap();
        assert_eq!(indexed, scanned, "{ctx}: key {k} is {indexed} vs {scanned}");
        indexed
    })
    .collect()
}

#[test]
fn index_matches_scan_after_every_divergence_statement() {
    let dir = tmpdir("stream");
    let db = setup(&dir, DbConfig::default());
    let mut s = db.session();
    checked_counts(&mut s, "after load");
    for (i, stmt) in update_statements(60, 11).iter().enumerate() {
        s.execute(stmt).unwrap();
        checked_counts(&mut s, &format!("statement #{i} `{stmt}`"));
    }
    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn index_matches_scan_after_each_update_shape() {
    let shapes = [
        // A node off the BY path must not re-add its ancestor's entry.
        "UPDATE insert <note>n</note> into doc('lib')/library/book[9]",
        "UPDATE insert <x/> following doc('lib')/library/book[5]/price",
        // A second price does not change the first.
        "UPDATE insert <price>55</price> into doc('lib')/library/book[4]",
        // Deleting under an indexed node removes its entry.
        "UPDATE delete doc('lib')/library/book[3]/price",
        "UPDATE delete doc('lib')/library/book[8]/price/text()",
        // A new first price replaces the old key.
        "UPDATE insert <price>55</price> preceding doc('lib')/library/book[4]/price",
        "UPDATE delete doc('lib')/library/book[6]",
        "UPDATE replace value of doc('lib')/library/book[7] with 'gone'",
        "UPDATE insert <book><title>New</title><price>77</price></book> into doc('lib')/library",
        // Many targets in one statement.
        "UPDATE delete doc('lib')/library/book/price",
        // The second target deletes the first one's parent.
        "UPDATE delete (doc('lib')/library/book[2]/price, doc('lib')/library/book[2])",
    ];
    for (i, stmt) in shapes.iter().enumerate() {
        let dir = tmpdir(&format!("shape{i}"));
        let db = setup(&dir, DbConfig::default());
        let mut s = db.session();
        s.execute(stmt).unwrap();
        checked_counts(&mut s, stmt);
        drop(s);
        db.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn rolled_back_root_growth_leaves_the_index_as_it_was() {
    let dir = tmpdir("rollback");
    let db = setup(&dir, DbConfig::small());
    let mut s = db.session();
    let before = checked_counts(&mut s, "before the transaction");
    s.begin_update().unwrap();
    // Enough entries on 4 KiB pages to split the leaf and grow a new root.
    for i in 0..400 {
        s.execute(&format!(
            "UPDATE insert <book><price>{}</price></book> into doc('lib')/library",
            10 + i % 110
        ))
        .unwrap();
    }
    assert!(db.metrics_snapshot().counter("sedna_index_splits_total") > 0);
    s.rollback().unwrap();
    assert_eq!(checked_counts(&mut s, "after rollback"), before);
    s.execute("UPDATE insert <book><price>42</price></book> into doc('lib')/library")
        .unwrap();
    checked_counts(&mut s, "after a later insert");
    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn index_matches_scan_after_crash_and_reopen() {
    let dir = tmpdir("crash");
    let db = setup(&dir, DbConfig::default());
    let mut s = db.session();
    for stmt in update_statements(20, 11) {
        s.execute(&stmt).unwrap();
    }
    s.execute("UPDATE delete doc('lib')/library/book[2]/price")
        .unwrap();
    let before = checked_counts(&mut s, "before the crash");
    drop(s);
    db.crash();

    let db = Database::open(&dir, DbConfig::default()).unwrap();
    let mut s = db.session();
    assert_eq!(checked_counts(&mut s, "after reopen"), before);
    s.execute("UPDATE insert <price>12</price> preceding doc('lib')/library/book[1]/price")
        .unwrap();
    checked_counts(&mut s, "after an update on the reopened database");
    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `(inserts, removes)` the statement made in the index.
fn index_writes(db: &Database, s: &mut Session, stmt: &str) -> (u64, u64) {
    let count = |db: &Database| {
        let m = db.metrics_snapshot();
        (
            m.counter("sedna_index_inserts_total"),
            m.counter("sedna_index_removes_total"),
        )
    };
    let (ins, rem) = count(db);
    s.execute(stmt).unwrap();
    let (ins2, rem2) = count(db);
    (ins2 - ins, rem2 - rem)
}

#[test]
fn maintenance_writes_only_the_changed_entries() {
    let dir = tmpdir("writes");
    let db = setup(&dir, DbConfig::default());
    let mut s = db.session();
    let book = "doc('lib')/library/book[3]";
    let price = s.query(&format!("string({book}/price[1])")).unwrap();
    let other = if price == "99" { "98" } else { "99" };

    let unrelated = format!("UPDATE insert <note>n</note> into {book}");
    assert_eq!(index_writes(&db, &mut s, &unrelated), (0, 0));
    let same = format!("UPDATE replace value of {book}/price with '{price}'");
    assert_eq!(index_writes(&db, &mut s, &same), (0, 0));
    let changed = format!("UPDATE replace value of {book}/price with '{other}'");
    assert_eq!(index_writes(&db, &mut s, &changed), (1, 1));
    let deleted = format!("UPDATE delete {book}");
    assert_eq!(index_writes(&db, &mut s, &deleted), (0, 1));
    checked_counts(&mut s, "after the counted statements");
    drop(s);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
