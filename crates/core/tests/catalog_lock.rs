//! Committers on indexed documents beside DDL: `run_update` used to hold
//! the catalog's read lock while index maintenance took it a second time,
//! so a DDL statement queued for the write lock in between blocked the
//! inner read forever (read locks are not re-entrant once a writer
//! waits). Every statement here must finish; a watchdog turns a hang into
//! a failure.

use std::path::PathBuf;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use sedna::{Database, DbConfig};

const ROUNDS: usize = 150;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sedna-catlock-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn indexed_committers_and_ddl_do_not_deadlock_on_the_catalog() {
    let dir = tmpdir("ddl");
    let db = Database::create(&dir, DbConfig::small()).unwrap();
    {
        let mut s = db.session();
        for doc in ["a", "b"] {
            s.execute(&format!("CREATE DOCUMENT '{doc}'")).unwrap();
            s.load_xml(doc, "<r><item><v>0</v></item><item><v>1</v></item></r>")
                .unwrap();
            s.execute(&format!(
                "CREATE INDEX 'by_v_{doc}' ON doc('{doc}')/r/item BY v AS xs:string"
            ))
            .unwrap();
        }
    }

    let start = Arc::new(Barrier::new(3));
    let (done_tx, done_rx) = mpsc::channel::<&'static str>();
    let mut workers = Vec::new();
    for doc in ["a", "b"] {
        let (db, start, done) = (db.clone(), Arc::clone(&start), done_tx.clone());
        workers.push(std::thread::spawn(move || {
            let mut s = db.session();
            start.wait();
            for i in 0..ROUNDS {
                // `replace value of` on an indexed path: index maintenance
                // walks the target's ancestors under the catalog guard.
                s.execute(&format!(
                    "UPDATE replace value of doc('{doc}')/r/item[1]/v with 'x{i}'"
                ))
                .unwrap();
            }
            done.send(doc).unwrap();
        }));
    }
    {
        let (db, start, done) = (db.clone(), Arc::clone(&start), done_tx.clone());
        workers.push(std::thread::spawn(move || {
            let mut s = db.session();
            start.wait();
            for i in 0..ROUNDS {
                // Each takes the catalog's write lock.
                s.execute(&format!("CREATE DOCUMENT 'tmp{i}'")).unwrap();
                s.execute(&format!("DROP DOCUMENT 'tmp{i}'")).unwrap();
            }
            done.send("ddl").unwrap();
        }));
    }
    drop(done_tx);

    // Watchdog: a deadlocked worker never reports; its thread is left
    // behind and the test fails instead of hanging the suite.
    for _ in 0..workers.len() {
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a committer or the DDL thread is stuck on the catalog lock");
    }
    for w in workers {
        w.join().unwrap();
    }

    let mut s = db.session();
    let last = format!("x{}", ROUNDS - 1);
    for doc in ["a", "b"] {
        assert_eq!(
            s.query(&format!("string(doc('{doc}')/r/item[1]/v)"))
                .unwrap(),
            last
        );
        assert_eq!(
            s.query(&format!("count(index-scan('by_v_{doc}', '{last}'))"))
                .unwrap(),
            "1"
        );
    }
    assert_eq!(db.document_names(), vec!["a".to_string(), "b".to_string()]);
    drop(s);
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
