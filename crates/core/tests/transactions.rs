//! Transaction-semantics edge cases: DDL under rollback, index
//! maintenance atomicity, construct-mode configuration, and statistics
//! exposure.

use sedna::{ConstructMode, Database, DbConfig};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sedna-txn2-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn create_document_rolls_back() {
    let dir = tmpdir("ddl-rollback");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.begin_update().unwrap();
    s.execute("CREATE DOCUMENT 'temp'").unwrap();
    s.load_xml("temp", "<r>data</r>").unwrap();
    assert_eq!(s.query("string(doc('temp')/r)").unwrap(), "data");
    s.rollback().unwrap();
    // The document is gone from the catalog.
    assert!(db.document_names().is_empty());
    assert!(s.query("doc('temp')/r").is_err());
    // And can be re-created cleanly.
    s.execute("CREATE DOCUMENT 'temp'").unwrap();
    s.load_xml("temp", "<r>second</r>").unwrap();
    assert_eq!(s.query("string(doc('temp')/r)").unwrap(), "second");
    drop(s);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn drop_document_rolls_back() {
    let dir = tmpdir("drop-rollback");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'keep'").unwrap();
    s.load_xml("keep", "<r><x>7</x></r>").unwrap();
    s.begin_update().unwrap();
    s.execute("DROP DOCUMENT 'keep'").unwrap();
    assert!(s.query("doc('keep')/r").is_err());
    s.rollback().unwrap();
    // Back, with content intact (pages freed under the aborted txn were
    // never reclaimed for other use).
    assert_eq!(db.document_names(), ["keep"]);
    assert_eq!(s.query("string(doc('keep')//x)").unwrap(), "7");
    drop(s);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn create_index_rolls_back() {
    let dir = tmpdir("index-rollback");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'd'").unwrap();
    s.load_xml("d", "<r><e><k>alpha</k></e><e><k>beta</k></e></r>")
        .unwrap();
    s.begin_update().unwrap();
    s.execute("CREATE INDEX 'byk' ON doc('d')/r/e BY k AS xs:string")
        .unwrap();
    assert_eq!(s.query("count(index-scan('byk', 'alpha'))").unwrap(), "1");
    s.rollback().unwrap();
    assert!(db.index_names().is_empty());
    assert!(s.query("index-scan('byk', 'alpha')").is_err());
    drop(s);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn index_updates_roll_back_with_the_data() {
    let dir = tmpdir("index-atomic");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'd'").unwrap();
    s.load_xml("d", "<r><e><k>alpha</k></e></r>").unwrap();
    s.execute("CREATE INDEX 'byk' ON doc('d')/r/e BY k AS xs:string")
        .unwrap();
    // Insert + rollback: neither the node nor its index entry survive.
    s.begin_update().unwrap();
    s.execute("UPDATE insert <e><k>gamma</k></e> into doc('d')/r")
        .unwrap();
    assert_eq!(s.query("count(index-scan('byk', 'gamma'))").unwrap(), "1");
    s.rollback().unwrap();
    assert_eq!(s.query("count(index-scan('byk', 'gamma'))").unwrap(), "0");
    assert_eq!(s.query("count(doc('d')//e)").unwrap(), "1");
    // Delete + rollback: the entry is back.
    s.begin_update().unwrap();
    s.execute("UPDATE delete doc('d')//e[k = 'alpha']").unwrap();
    assert_eq!(s.query("count(index-scan('byk', 'alpha'))").unwrap(), "0");
    s.rollback().unwrap();
    assert_eq!(s.query("count(index-scan('byk', 'alpha'))").unwrap(), "1");
    drop(s);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn construct_mode_is_configurable() {
    for mode in [
        ConstructMode::DeepCopy,
        ConstructMode::Embedded,
        ConstructMode::Virtual,
    ] {
        let dir = tmpdir(&format!("mode-{mode:?}"));
        let cfg = DbConfig {
            construct_mode: mode,
            ..DbConfig::small()
        };
        let db = Database::create(&dir, cfg).unwrap();
        let mut s = db.session();
        s.execute("CREATE DOCUMENT 'd'").unwrap();
        s.load_xml("d", "<r><a>1</a><b>2</b></r>").unwrap();
        // All modes produce identical serialized output.
        assert_eq!(
            s.query("<wrap>{doc('d')/r/a}</wrap>").unwrap(),
            "<wrap><a>1</a></wrap>"
        );
        drop(s);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn session_exposes_exec_stats() {
    let dir = tmpdir("stats");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'd'").unwrap();
    s.load_xml("d", &sedna_workload::library(50, 3)).unwrap();
    s.query("count(doc('d')//author)").unwrap();
    assert!(s.last_stats.nodes_scanned > 0);
    drop(s);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn user_function_queries_through_session() {
    // Exercises inlining + execution through the full stack.
    let dir = tmpdir("udf");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'd'").unwrap();
    s.load_xml("d", "<r><v>3</v><v>4</v></r>").unwrap();
    let out = s
        .query(
            "declare function local:square($x) { $x * $x }; \
             sum(for $v in doc('d')//v return local:square(number($v)))",
        )
        .unwrap();
    assert_eq!(out, "25");
    // Recursive functions still run (not inlined).
    let out = s
        .query(
            "declare function local:sum-to($n) { if ($n le 0) then 0 else $n + local:sum-to($n - 1) }; \
             local:sum-to(10)",
        )
        .unwrap();
    assert_eq!(out, "55");
    drop(s);
    std::fs::remove_dir_all(dir).unwrap();
}

/// A database holding the committed document `keep` = `xml`.
fn keep_db(name: &str, xml: &str) -> (Database, std::path::PathBuf) {
    let dir = tmpdir(name);
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'keep'").unwrap();
    s.load_xml("keep", xml).unwrap();
    (db, dir)
}

/// Asserts that `query` fails because its document does not exist.
fn assert_no_document(s: &mut sedna::Session, query: &str) {
    let err = s.query(query).unwrap_err().to_string();
    assert!(err.contains("no such document"), "{query}: {err}");
}

#[test]
fn uncommitted_create_is_invisible_to_other_sessions() {
    let (db, dir) = keep_db("iso-create", "<r><x>7</x></r>");
    let (mut a, mut b, mut ro) = (db.session(), db.session(), db.session());
    a.begin_update().unwrap();
    a.execute("CREATE DOCUMENT 'temp'").unwrap();
    a.load_xml("temp", "<r>data</r>").unwrap();
    // Another session, auto-commit and in a read-only transaction begun
    // now, sees the catalog as it was before the transaction.
    assert_no_document(&mut b, "string(doc('temp')/r)");
    assert_eq!(db.document_names(), ["keep"]);
    ro.begin_read_only().unwrap();
    assert_no_document(&mut ro, "string(doc('temp')/r)");
    a.commit().unwrap();
    assert_eq!(b.query("string(doc('temp')/r)").unwrap(), "data");
    assert_eq!(db.document_names(), ["keep", "temp"]);
    // The read-only transaction keeps the snapshot it began with.
    assert_no_document(&mut ro, "string(doc('temp')/r)");
    ro.commit().unwrap();
    drop((a, b, ro));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn uncommitted_drop_is_invisible_to_other_sessions() {
    let (db, dir) = keep_db("iso-drop", "<r><x>7</x></r>");
    let (mut a, mut b, mut ro) = (db.session(), db.session(), db.session());
    a.begin_update().unwrap();
    a.execute("DROP DOCUMENT 'keep'").unwrap();
    assert_eq!(b.query("string(doc('keep')//x)").unwrap(), "7");
    assert_eq!(db.document_names(), ["keep"]);
    ro.begin_read_only().unwrap();
    assert_eq!(ro.query("string(doc('keep')//x)").unwrap(), "7");
    a.rollback().unwrap();
    assert_eq!(b.query("string(doc('keep')//x)").unwrap(), "7");
    assert_eq!(ro.query("string(doc('keep')//x)").unwrap(), "7");
    ro.commit().unwrap();
    drop((a, b, ro));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn uncommitted_inserts_are_invisible_to_other_sessions() {
    let (db, dir) = keep_db("iso-insert", "<r><x>7</x></r>");
    let (mut a, mut b, mut ro) = (db.session(), db.session(), db.session());
    a.begin_update().unwrap();
    for _ in 0..50 {
        a.execute("UPDATE insert <y/> into doc('keep')/r").unwrap();
    }
    assert_eq!(b.query("count(doc('keep')//y)").unwrap(), "0");
    ro.begin_read_only().unwrap();
    assert_eq!(ro.query("count(doc('keep')//y)").unwrap(), "0");
    a.commit().unwrap();
    assert_eq!(b.query("count(doc('keep')//y)").unwrap(), "50");
    assert_eq!(ro.query("count(doc('keep')//y)").unwrap(), "0");
    ro.commit().unwrap();
    drop((a, b, ro));
    std::fs::remove_dir_all(dir).unwrap();
}

/// Runs `first` in an open transaction, then `second` in another
/// transaction on a second thread, and ends the first transaction —
/// committing it when `commit_first` — while the second is (most likely)
/// waiting. Returns whether the second transaction committed.
fn second_of_two(db: &Database, first: &str, second: &'static str, commit_first: bool) -> bool {
    let mut a = db.session();
    a.begin_update().unwrap();
    a.execute(first).unwrap();
    let other = db.clone();
    let racer = std::thread::spawn(move || {
        let mut b = other.session();
        b.begin_update()?;
        b.execute(second)?;
        b.commit()
    });
    std::thread::sleep(std::time::Duration::from_millis(200));
    if commit_first {
        a.commit().unwrap();
    } else {
        a.rollback().unwrap();
    }
    racer.join().unwrap().is_ok()
}

#[test]
fn same_name_create_document_commits_exactly_once() {
    for commit_first in [true, false] {
        let (db, dir) = keep_db(&format!("race-doc-{commit_first}"), "<r/>");
        let second = second_of_two(
            &db,
            "CREATE DOCUMENT 'x'",
            "CREATE DOCUMENT 'x'",
            commit_first,
        );
        // The second creator waits for the first to finish, then sees its
        // outcome: it fails after a commit and succeeds after a rollback.
        assert_eq!(second, !commit_first);
        assert_eq!(db.document_names(), ["keep", "x"]);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn same_name_create_index_commits_exactly_once() {
    for commit_first in [true, false] {
        let (db, dir) = keep_db(&format!("race-index-{commit_first}"), "<r><x>7</x></r>");
        let second = second_of_two(
            &db,
            "CREATE INDEX 'byx' ON doc('keep')/r BY x AS xs:string",
            "CREATE INDEX 'byx' ON doc('keep')/r BY x AS xs:string",
            commit_first,
        );
        assert_eq!(second, !commit_first);
        assert_eq!(db.index_names(), ["byx"]);
        assert_eq!(
            db.session().query("count(index-scan('byx', '7'))").unwrap(),
            "1"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn document_ids_come_from_a_counter_that_never_rolls_back() {
    let (db, dir) = keep_db("doc-ids", "<r/>");
    let (mut a, mut b) = (db.session(), db.session());
    a.begin_update().unwrap();
    a.execute("CREATE DOCUMENT 'p'").unwrap();
    // A second creator takes the next id and does not wait for the first.
    b.begin_update().unwrap();
    b.execute("CREATE DOCUMENT 'q'").unwrap();
    a.rollback().unwrap();
    b.commit().unwrap();
    a.execute("CREATE DOCUMENT 'r'").unwrap();
    // Distinct ids lock apart: writers on two documents do not wait on
    // each other (a shared id would time out the second lock).
    let both_at_once = |db: &Database, one: &str, two: &str| {
        let (mut a, mut b) = (db.session(), db.session());
        a.begin_update().unwrap();
        a.load_xml(one, "<v/>").unwrap();
        b.begin_update().unwrap();
        b.load_xml(two, "<v/>").unwrap();
        a.commit().unwrap();
        b.commit().unwrap();
    };
    both_at_once(&db, "q", "r");
    drop((a, b));
    db.close().unwrap();
    drop(db);
    // Recovery resumes the counter past every logged id.
    let db = Database::open(&dir, DbConfig::small()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 's'").unwrap();
    s.begin_update().unwrap();
    s.load_xml("s", "<v/>").unwrap();
    let mut other = db.session();
    for doc in ["keep", "q", "r"] {
        other
            .execute(&format!("UPDATE insert <w/> into doc('{doc}')/*"))
            .unwrap();
    }
    s.commit().unwrap();
    assert_eq!(db.document_names(), ["keep", "q", "r", "s"]);
    drop((s, other));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn rolled_back_delete_keeps_its_page_addresses() {
    let (db, dir) = keep_db("free-delete", "<r><x>7</x><y>1</y><y>2</y></r>");
    let mut s = db.session();
    s.begin_update().unwrap();
    s.execute("UPDATE delete doc('keep')/r/y").unwrap();
    s.rollback().unwrap();
    s.execute("UPDATE insert <z>9</z> into doc('keep')/r")
        .unwrap();
    assert_eq!(
        s.query("doc('keep')/r").unwrap(),
        "<r><x>7</x><y>1</y><y>2</y><z>9</z></r>"
    );
    drop(s);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn rolled_back_drop_keeps_its_page_addresses() {
    let (db, dir) = keep_db("free-drop", "<r><x>7</x></r>");
    let mut s = db.session();
    s.begin_update().unwrap();
    s.execute("DROP DOCUMENT 'keep'").unwrap();
    s.rollback().unwrap();
    // A new element name needs a new block page.
    s.execute("UPDATE insert <z>9</z> into doc('keep')/r")
        .unwrap();
    assert_eq!(s.query("doc('keep')/r").unwrap(), "<r><x>7</x><z>9</z></r>");
    assert_eq!(s.query("count(doc('keep')//x)").unwrap(), "1");
    drop(s);
    db.close().unwrap();
    drop(db);
    let db = Database::open(&dir, DbConfig::small()).unwrap();
    assert_eq!(
        db.session().query("doc('keep')/r").unwrap(),
        "<r><x>7</x><z>9</z></r>"
    );
    drop(db);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn fork_commit_keeps_the_root_branch_pages() {
    let (db, dir) = keep_db("free-fork", "<r><x>7</x><y>1</y><y>2</y></r>");
    let fork = db.fork("f").unwrap();
    fork.session()
        .execute("UPDATE delete doc('keep')/r/y")
        .unwrap();
    let mut s = db.session();
    s.execute("UPDATE insert <z>9</z> into doc('keep')/r")
        .unwrap();
    assert_eq!(
        s.query("doc('keep')/r").unwrap(),
        "<r><x>7</x><y>1</y><y>2</y><z>9</z></r>"
    );
    assert_eq!(
        fork.session().query("doc('keep')/r").unwrap(),
        "<r><x>7</x></r>"
    );
    drop((s, fork));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn an_update_planned_onto_an_index_runs_on_the_index() {
    let dir = tmpdir("update-on-index");
    let db = Database::create(&dir, DbConfig::default()).unwrap();
    let mut s = db.session();
    s.execute("CREATE DOCUMENT 'd'").unwrap();
    let items: String = (0..600)
        .map(|i| format!("<item><k>v{i}</k></item>"))
        .collect();
    s.load_xml("d", &format!("<r>{items}</r>")).unwrap();
    s.execute("CREATE INDEX 'byk' ON doc('d')/r/item BY k AS xs:string")
        .unwrap();
    // The planner rewrites the target onto the index, so the update's
    // view of the catalog must carry the index.
    s.execute("UPDATE delete doc('d')/r/item[k = \"v500\"]")
        .unwrap();
    assert_eq!(
        s.last_plan_decision().unwrap().access_path,
        sedna::AccessPath::Index
    );
    assert_eq!(s.query("count(doc('d')/r/item)").unwrap(), "599");
    assert_eq!(s.query("count(index-scan('byk', 'v500'))").unwrap(), "0");
    drop(s);
    std::fs::remove_dir_all(dir).unwrap();
}
