//! Full-system integration tests: DDL, loading, queries, transactions,
//! crash recovery, checkpoints, hot backup, indexes, and concurrency.

use std::path::PathBuf;
use std::sync::Arc;

use sedna::{Database, DbConfig, ExecOutcome};

const LIBRARY: &str = r#"<library><book><title>Foundations of Databases</title><author>Abiteboul</author><author>Hull</author><author>Vianu</author></book><book><title>An Introduction to Database Systems</title><author>Date</author><issue><publisher>Addison-Wesley</publisher><year>2004</year></issue></book><paper><title>A Relational Model for Large Shared Data Banks</title><author>Codd</author></paper></library>"#;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sedna-core-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn library_db(name: &str) -> (Database, PathBuf) {
    let dir = tmpdir(name);
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'lib'").unwrap();
    s.load_xml("lib", LIBRARY).unwrap();
    (db, dir)
}

#[test]
fn create_load_query_lifecycle() {
    let (db, dir) = library_db("lifecycle");
    let mut s = db.session();
    assert_eq!(
        s.query("doc('lib')/library/book[1]/title/text()").unwrap(),
        "Foundations of Databases"
    );
    assert_eq!(s.query("count(doc('lib')//author)").unwrap(), "5");
    assert_eq!(db.document_names(), ["lib"]);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn updates_auto_commit_and_persist_in_memory() {
    let (db, dir) = library_db("updates");
    let mut s = db.session();
    let out = s
        .execute("UPDATE insert <author>Fresh</author> into doc('lib')/library/paper")
        .unwrap();
    assert_eq!(out, ExecOutcome::Updated(1));
    assert_eq!(s.query("count(doc('lib')//paper/author)").unwrap(), "2");
    let out = s.execute("UPDATE delete doc('lib')//book[2]").unwrap();
    assert_eq!(out, ExecOutcome::Updated(1));
    assert_eq!(s.query("count(doc('lib')//book)").unwrap(), "1");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn explicit_transaction_commit_and_rollback() {
    let (db, dir) = library_db("txn");
    let mut s = db.session();
    // Rolled-back work disappears.
    s.begin_update().unwrap();
    s.execute("UPDATE delete doc('lib')//book").unwrap();
    assert_eq!(s.query("count(doc('lib')//book)").unwrap(), "0");
    s.rollback().unwrap();
    assert_eq!(s.query("count(doc('lib')//book)").unwrap(), "2");
    // Committed work stays.
    s.begin_update().unwrap();
    s.execute("UPDATE delete doc('lib')//paper").unwrap();
    s.commit().unwrap();
    assert_eq!(s.query("count(doc('lib')//paper)").unwrap(), "0");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn read_only_txn_rejects_updates() {
    let (db, dir) = library_db("ro");
    let mut s = db.session();
    s.begin_read_only().unwrap();
    let err = s.execute("UPDATE delete doc('lib')//book");
    assert!(err.is_err());
    assert_eq!(s.query("count(doc('lib')//book)").unwrap(), "2");
    s.commit().unwrap();
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn crash_recovery_replays_committed_work() {
    let dir = tmpdir("recovery");
    {
        let db = Database::create(&dir, DbConfig::small()).unwrap();
        let mut s = db.session();
        s.execute("CREATE DOCUMENT 'lib'").unwrap();
        s.load_xml("lib", LIBRARY).unwrap();
        s.execute("UPDATE insert <author>Recovered</author> into doc('lib')/library/paper")
            .unwrap();
        drop(s);
        // Crash: dirty pages are dropped without write-back.
        db.crash();
    }
    let db = Database::open(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    assert_eq!(s.query("count(doc('lib')//book)").unwrap(), "2");
    assert_eq!(
        s.query("string(doc('lib')//paper/author[2])").unwrap(),
        "Recovered"
    );
    // The recovered database accepts further updates.
    s.execute("UPDATE delete doc('lib')//book[1]").unwrap();
    assert_eq!(s.query("count(doc('lib')//book)").unwrap(), "1");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn uncommitted_work_lost_on_crash() {
    let dir = tmpdir("losers");
    {
        let db = Database::create(&dir, DbConfig::small()).unwrap();
        let mut s = db.session();
        s.execute("CREATE DOCUMENT 'lib'").unwrap();
        s.load_xml("lib", LIBRARY).unwrap();
        // An open transaction whose work must NOT survive.
        s.begin_update().unwrap();
        s.execute("UPDATE delete doc('lib')//book").unwrap();
        std::mem::forget(s); // crash mid-transaction (skip Drop rollback)
        db.crash();
    }
    let db = Database::open(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    assert_eq!(s.query("count(doc('lib')//book)").unwrap(), "2");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn checkpoint_bounds_redo_and_preserves_state() {
    let dir = tmpdir("checkpoint");
    {
        let db = Database::create(&dir, DbConfig::small()).unwrap();
        let mut s = db.session();
        s.execute("CREATE DOCUMENT 'lib'").unwrap();
        s.load_xml("lib", LIBRARY).unwrap();
        drop(s);
        db.checkpoint().unwrap();
        let mut s = db.session();
        s.execute("UPDATE insert <author>PostCp</author> into doc('lib')/library/paper")
            .unwrap();
        drop(s);
        db.crash();
    }
    let db = Database::open(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    assert_eq!(s.query("count(doc('lib')//paper/author)").unwrap(), "2");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn reopen_after_clean_shutdown() {
    let dir = tmpdir("reopen");
    {
        let db = Database::create(&dir, DbConfig::small()).unwrap();
        let mut s = db.session();
        s.execute("CREATE DOCUMENT 'a'").unwrap();
        s.load_xml("a", "<r><x>1</x></r>").unwrap();
        s.execute("CREATE DOCUMENT 'b'").unwrap();
        s.load_xml("b", "<r><y>2</y></r>").unwrap();
        drop(s);
        db.checkpoint().unwrap();
    }
    let db = Database::open(&dir, DbConfig::small()).unwrap();
    assert_eq!(db.document_names(), ["a", "b"]);
    let mut s = db.session();
    assert_eq!(s.query("string(doc('a')//x)").unwrap(), "1");
    assert_eq!(s.query("string(doc('b')//y)").unwrap(), "2");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn drop_document_and_recovery() {
    let dir = tmpdir("dropdoc");
    {
        let db = Database::create(&dir, DbConfig::small()).unwrap();
        let mut s = db.session();
        s.execute("CREATE DOCUMENT 'lib'").unwrap();
        s.load_xml("lib", LIBRARY).unwrap();
        s.execute("CREATE DOCUMENT 'other'").unwrap();
        s.load_xml("other", "<r>keep</r>").unwrap();
        s.execute("DROP DOCUMENT 'lib'").unwrap();
        assert!(s.query("doc('lib')//book").is_err());
        drop(s);
        db.crash();
    }
    let db = Database::open(&dir, DbConfig::small()).unwrap();
    assert_eq!(db.document_names(), ["other"]);
    let mut s = db.session();
    assert_eq!(s.query("string(doc('other')/r)").unwrap(), "keep");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn hot_backup_full_and_incremental() {
    let dir = tmpdir("backup");
    let backup_dir = tmpdir("backup-dest");
    let restore1 = tmpdir("backup-r1");
    let restore2 = tmpdir("backup-r2");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'lib'").unwrap();
    s.load_xml("lib", LIBRARY).unwrap();
    drop(s);

    // Full backup now.
    db.backup(&backup_dir).unwrap();

    // More work + incremental backup.
    let mut s = db.session();
    s.execute("UPDATE insert <author>AfterFull</author> into doc('lib')/library/paper")
        .unwrap();
    drop(s);
    db.backup_incremental(&backup_dir).unwrap();

    // Restore the full backup only: pre-increment state.
    let r1 = Database::restore(&backup_dir, &restore1, DbConfig::small(), Some(0), None).unwrap();
    let mut s1 = r1.session();
    assert_eq!(s1.query("count(doc('lib')//paper/author)").unwrap(), "1");
    drop(s1);

    // Restore with the increment: post-update state.
    let r2 = Database::restore(&backup_dir, &restore2, DbConfig::small(), None, None).unwrap();
    let mut s2 = r2.session();
    assert_eq!(s2.query("count(doc('lib')//paper/author)").unwrap(), "2");
    assert_eq!(
        s2.query("string(doc('lib')//paper/author[2])").unwrap(),
        "AfterFull"
    );
    drop(s2);

    // The original database is unaffected.
    let mut s = db.session();
    assert_eq!(s.query("count(doc('lib')//paper/author)").unwrap(), "2");
    drop(s);
    for d in [dir, backup_dir, restore1, restore2] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

#[test]
fn value_index_lifecycle_and_maintenance() {
    let (db, dir) = library_db("indexes");
    let mut s = db.session();
    s.execute("CREATE INDEX 'bytitle' ON doc('lib')/library/book BY title AS xs:string")
        .unwrap();
    assert_eq!(db.index_names(), ["bytitle"]);
    // Index lookup finds the book node.
    assert_eq!(
        s.query("count(index-scan('bytitle', 'Foundations of Databases'))")
            .unwrap(),
        "1"
    );
    assert_eq!(
        s.query("string(index-scan('bytitle', 'Foundations of Databases')/author[1])")
            .unwrap(),
        "Abiteboul"
    );
    // Insert a new book: index must pick it up.
    s.execute("UPDATE insert <book><title>Transaction Processing</title><author>Gray</author></book> into doc('lib')/library")
        .unwrap();
    assert_eq!(
        s.query("string(index-scan('bytitle', 'Transaction Processing')/author)")
            .unwrap(),
        "Gray"
    );
    // Delete a book: its entry must disappear.
    s.execute("UPDATE delete doc('lib')//book[title = 'Foundations of Databases']")
        .unwrap();
    assert_eq!(
        s.query("count(index-scan('bytitle', 'Foundations of Databases'))")
            .unwrap(),
        "0"
    );
    // Replace a title value: old key out, new key in.
    s.execute("UPDATE replace value of doc('lib')//book[1]/title with 'Renamed Classic'")
        .unwrap();
    assert_eq!(
        s.query("count(index-scan('bytitle', 'An Introduction to Database Systems'))")
            .unwrap(),
        "0"
    );
    assert_eq!(
        s.query("count(index-scan('bytitle', 'Renamed Classic'))")
            .unwrap(),
        "1"
    );
    // Numeric range index.
    s.execute("CREATE INDEX 'byyear' ON doc('lib')//issue BY year AS xs:double")
        .unwrap();
    assert_eq!(
        s.query("count(index-scan-between('byyear', 2000, 2010))")
            .unwrap(),
        "1"
    );
    // A key argument that is not exactly one item is a query error, not a
    // panic that would take a server worker down with it.
    for q in [
        "index-of((1, 2), ())",
        "index-scan('bytitle', ())",
        "index-scan-between('byyear', (), 2010)",
        "index-scan-between('byyear', 2000, ())",
    ] {
        let err = s.query(q).unwrap_err().to_string();
        assert!(err.contains("single key value"), "{q}: {err}");
    }
    // Drop.
    s.execute("DROP INDEX 'bytitle'").unwrap();
    assert!(s.query("index-scan('bytitle', 'x')").is_err());
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn index_survives_recovery() {
    let dir = tmpdir("index-recovery");
    {
        let db = Database::create(&dir, DbConfig::small()).unwrap();
        let mut s = db.session();
        s.execute("CREATE DOCUMENT 'lib'").unwrap();
        s.load_xml("lib", LIBRARY).unwrap();
        s.execute("CREATE INDEX 'bytitle' ON doc('lib')/library/book BY title AS xs:string")
            .unwrap();
        drop(s);
        db.crash();
    }
    let db = Database::open(&dir, DbConfig::small()).unwrap();
    assert_eq!(db.index_names(), ["bytitle"]);
    let mut s = db.session();
    assert_eq!(
        s.query("string(index-scan('bytitle', 'Foundations of Databases')/author[1])")
            .unwrap(),
        "Abiteboul"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn governor_registry() {
    let dir = tmpdir("governor");
    let gov = sedna::Governor::new();
    gov.create_database("main", &dir, DbConfig::small())
        .unwrap();
    assert_eq!(gov.database_names(), ["main"]);
    let mut s = gov.connect("main").unwrap();
    s.execute("CREATE DOCUMENT 'd'").unwrap();
    drop(s);
    assert!(gov.connect("missing").is_err());
    gov.shutdown_database("main").unwrap();
    assert!(gov.database_names().is_empty());
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn concurrent_readers_do_not_block_on_writer() {
    // E10's mechanism at test scale: a writer holds the document X lock
    // mid-transaction while snapshot readers proceed.
    let (db, dir) = library_db("mvcc");
    let mut writer = db.session();
    writer.begin_update().unwrap();
    writer
        .execute("UPDATE insert <author>InFlight</author> into doc('lib')/library/paper")
        .unwrap();
    // Uncommitted: a read-only session sees the pre-update state without
    // blocking (it would deadlock here if it had to wait for the X lock).
    let db2 = db.clone();
    let reader = std::thread::spawn(move || {
        let mut r = db2.session();
        r.begin_read_only().unwrap();
        let n = r.query("count(doc('lib')//paper/author)").unwrap();
        r.commit().unwrap();
        n
    });
    let seen = reader.join().unwrap();
    assert_eq!(seen, "1", "snapshot reader must see the committed state");
    writer.commit().unwrap();
    let mut s = db.session();
    assert_eq!(s.query("count(doc('lib')//paper/author)").unwrap(), "2");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn snapshot_reader_keeps_old_state_across_commit() {
    let (db, dir) = library_db("snapshot");
    let mut reader = db.session();
    reader.begin_read_only().unwrap();
    assert_eq!(reader.query("count(doc('lib')//book)").unwrap(), "2");
    // A writer commits a delete meanwhile.
    let mut writer = db.session();
    writer.execute("UPDATE delete doc('lib')//book[2]").unwrap();
    drop(writer);
    // The pinned snapshot still sees both books.
    assert_eq!(reader.query("count(doc('lib')//book)").unwrap(), "2");
    reader.commit().unwrap();
    // A fresh transaction sees the new state.
    let mut fresh = db.session();
    assert_eq!(fresh.query("count(doc('lib')//book)").unwrap(), "1");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn writers_serialize_via_locks() {
    let (db, dir) = library_db("locks");
    let mut w1 = db.session();
    w1.begin_update().unwrap();
    w1.execute("UPDATE insert <author>W1</author> into doc('lib')/library/paper")
        .unwrap();
    // Second writer must block until w1 commits.
    let db2 = db.clone();
    let h = std::thread::spawn(move || {
        let mut w2 = db2.session();
        w2.execute("UPDATE insert <author>W2</author> into doc('lib')/library/paper")
            .unwrap();
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(!h.is_finished(), "second writer should be blocked");
    w1.commit().unwrap();
    h.join().unwrap();
    let mut s = db.session();
    assert_eq!(s.query("count(doc('lib')//paper/author)").unwrap(), "3");
    // Document order of the two inserts reflects commit order.
    let authors = s
        .query("string-join(doc('lib')//paper/author/text(), ' ')")
        .unwrap();
    assert_eq!(authors, "Codd W1 W2");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn multi_statement_transaction_is_atomic() {
    let (db, dir) = library_db("atomic");
    let mut s = db.session();
    s.begin_update().unwrap();
    s.execute("UPDATE insert <genre>CS</genre> into doc('lib')/library/book[1]")
        .unwrap();
    s.execute("UPDATE insert <genre>CS</genre> into doc('lib')/library/book[2]")
        .unwrap();
    s.rollback().unwrap();
    assert_eq!(s.query("count(doc('lib')//genre)").unwrap(), "0");

    s.begin_update().unwrap();
    s.execute("UPDATE insert <genre>CS</genre> into doc('lib')/library/book[1]")
        .unwrap();
    s.execute("UPDATE insert <genre>DB</genre> into doc('lib')/library/book[2]")
        .unwrap();
    s.commit().unwrap();
    assert_eq!(s.query("count(doc('lib')//genre)").unwrap(), "2");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn queries_across_multiple_documents() {
    let dir = tmpdir("multidoc");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'd1'").unwrap();
    s.load_xml("d1", "<r><v>10</v></r>").unwrap();
    s.execute("CREATE DOCUMENT 'd2'").unwrap();
    s.load_xml("d2", "<r><v>32</v></r>").unwrap();
    assert_eq!(
        s.query("number(doc('d1')//v) + number(doc('d2')//v)")
            .unwrap(),
        "42"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn large_document_spans_many_pages_and_recovers() {
    let dir = tmpdir("large");
    let xml = format!(
        "<log>{}</log>",
        (0..2000)
            .map(|i| format!("<entry id=\"{i}\"><msg>event number {i}</msg></entry>"))
            .collect::<String>()
    );
    {
        let db = Database::create(&dir, DbConfig::small()).unwrap();
        let mut s = db.session();
        s.execute("CREATE DOCUMENT 'log'").unwrap();
        let nodes = s.load_xml("log", &xml).unwrap();
        assert!(nodes > 8000);
        assert_eq!(s.query("count(doc('log')//entry)").unwrap(), "2000");
        assert_eq!(
            s.query("string(doc('log')//entry[1500]/msg)").unwrap(),
            "event number 1499"
        );
        drop(s);
        db.crash();
    }
    let db = Database::open(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    assert_eq!(s.query("count(doc('log')//entry)").unwrap(), "2000");
    assert_eq!(
        s.query("string(doc('log')//entry[777]/@id)").unwrap(),
        "776"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn duplicate_ddl_rejected() {
    let (db, dir) = library_db("dup");
    let mut s = db.session();
    assert!(s.execute("CREATE DOCUMENT 'lib'").is_err());
    assert!(s.execute("DROP DOCUMENT 'missing'").is_err());
    assert!(s.execute("DROP INDEX 'missing'").is_err());
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn many_sessions_share_a_database() {
    let (db, dir) = library_db("sessions");
    let db = Arc::new(db);
    let mut handles = Vec::new();
    for _ in 0..8 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut s = db.session();
            for _ in 0..5 {
                assert_eq!(s.query("count(doc('lib')//author)").unwrap(), "5");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn log_rotation_bounds_recovery_and_guards_incrementals() {
    let dir = tmpdir("rotation");
    let backup_dir = tmpdir("rotation-backup");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'lib'").unwrap();
    s.load_xml("lib", LIBRARY).unwrap();
    drop(s);
    db.backup(&backup_dir).unwrap();

    // Incrementals are fine while no rotation happened.
    let mut s = db.session();
    s.execute("UPDATE insert <author>A</author> into doc('lib')/library/paper")
        .unwrap();
    drop(s);
    db.backup_incremental(&backup_dir).unwrap();

    // A checkpoint rotates the log (default config) — the old base can no
    // longer be extended.
    db.checkpoint().unwrap();
    let mut s = db.session();
    s.execute("UPDATE insert <author>B</author> into doc('lib')/library/paper")
        .unwrap();
    drop(s);
    let err = db.backup_incremental(&backup_dir);
    assert!(matches!(err, Err(sedna::DbError::Conflict(_))));

    // A fresh full backup restores incrementability.
    let backup2 = tmpdir("rotation-backup2");
    db.backup(&backup2).unwrap();
    let mut s = db.session();
    s.execute("UPDATE insert <author>C</author> into doc('lib')/library/paper")
        .unwrap();
    drop(s);
    db.backup_incremental(&backup2).unwrap();

    // Rotation keeps crash recovery correct (and small).
    db.crash();
    let db = Database::open(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    assert_eq!(s.query("count(doc('lib')//paper/author)").unwrap(), "4");
    drop(s);
    for d in [dir, backup_dir, backup2] {
        std::fs::remove_dir_all(d).unwrap();
    }
}
