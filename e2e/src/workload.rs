//! The four workloads: what each loads, how its clients connect, and the
//! set-up that is timed as `setup_s`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sedna::{Database, DbConfig, ExecOutcome, Governor, SamplingPolicy, Session, StreamOutcome};
use sedna_net::{NetConfig, SednaClient, Server, ServerHandle};

use crate::gen::{Mix, Stmt};
use crate::oracle::Oracle;
use crate::Error;

/// Name the wire workload's database is registered under.
pub const WIRE_DB: &str = "bench";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadEmbedded,
    ReadWire,
    UpdateCommit,
    MixedCold,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadEmbedded,
        Workload::ReadWire,
        Workload::UpdateCommit,
        Workload::MixedCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadEmbedded => "read_embedded",
            Workload::ReadWire => "read_wire",
            Workload::UpdateCommit => "update_commit",
            Workload::MixedCold => "mixed_cold",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists, as recorded in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReadEmbedded => {
                "read mix on 2 in-process sessions taking turns on one core, document resident: \
                 parse, plan cache, planner, cursor and storage do all the work; net and wal do none"
            }
            Workload::ReadWire => {
                "the same read mix and seed over 2 TCP connections taking turns to an in-process \
                 server, all on one core: the gap to read_embedded is the net layer"
            }
            Workload::UpdateCommit => {
                "update mix on 2 paced auto-commit committers, one document each: lock, undo, page \
                 image, CRC, log append and one fsync per commit dominate"
            }
            Workload::MixedCold => {
                "one point/path reader beside one paced committer on a document 8 times the \
                 buffer pool: misses, evictions, write-backs and MVCC versions do the work"
            }
        }
    }

    /// Whether set-up builds the `person_id` index.
    ///
    /// `update_commit` goes without. With an index on the document,
    /// `Session::run_update` holds the catalog's read lock while
    /// `collect_affected_entries` takes it again for a `replace value of`;
    /// a second committer waiting for the write lock in between blocks the
    /// inner read (the lock prefers writers, as `parking_lot`'s does) and
    /// both hang. The engine is not this change's to fix; `mixed_cold` has
    /// one committer, cannot hang, and keeps index maintenance measured.
    pub fn has_person_index(self) -> bool {
        self != Workload::UpdateCommit
    }

    pub fn writes(self) -> bool {
        matches!(self, Workload::UpdateCommit | Workload::MixedCold)
    }

    /// Whether the two clients run one after the other instead of side by
    /// side.
    ///
    /// Two readers side by side on this engine share the cache lines of the
    /// pool's counters, the page pins and the frames' locks: together they
    /// complete fewer statements than one does alone, and how many fewer
    /// moves by a sixth within a run as the hypervisor moves the two virtual
    /// processors about. That is a finding (see the README), not a number a
    /// gate can hold, so the read workloads keep two sessions open and give
    /// each half the window to itself. With one statement outstanding there
    /// is one thread with work to do, and the whole run, server included, is
    /// kept on one processor: see [`crate::pin`].
    pub fn clients_take_turns(self) -> bool {
        matches!(self, Workload::ReadEmbedded | Workload::ReadWire)
    }

    /// The mix each of the two timed clients draws from.
    pub fn client_mixes(self) -> [Mix; 2] {
        match self {
            Workload::ReadEmbedded | Workload::ReadWire => [Mix::Read, Mix::Read],
            Workload::UpdateCommit => [Mix::Update, Mix::Update],
            Workload::MixedCold => [Mix::ColdRead, Mix::Update],
        }
    }

    /// The mix of the traced run's single client.
    pub fn traced_mix(self) -> Mix {
        match self {
            Workload::ReadEmbedded | Workload::ReadWire => Mix::Read,
            Workload::UpdateCommit => Mix::Update,
            Workload::MixedCold => Mix::ColdBoth,
        }
    }
}

/// Everything about a run's size that is not the seed. `full` is the
/// benchmark; `smoke` is the same code on inputs a test can afford.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `auction(items)` of the two read workloads.
    pub read_items: usize,
    /// `auction(items)` of each committer's document in `update_commit`.
    pub update_items: usize,
    /// `auction(items)` of `mixed_cold`.
    pub cold_items: usize,
    /// Frames of the pool that must hold a document entirely.
    pub resident_frames: usize,
    /// Frames of `mixed_cold`'s pool.
    pub cold_frames: usize,
    /// Whether the gates that take a document of the benchmark's size apply:
    /// `mixed_cold` loads at least 8 pages per frame and misses its pool,
    /// `q_point` is planned as an index probe. On the smoke documents a scan
    /// is the cheaper plan, and a pool an eighth of one fails statements with
    /// "no evictable frame" (README, findings) too often for a test.
    pub size_gates: bool,
    /// Warm-up of each client before its measured window.
    pub warmup: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Mean of the least time between two updates of one committer; see
    /// [`crate::gen::Stream::think_time`] for the jitter.
    ///
    /// Unpaced, one committer logs 100 MB/s of page images; the sandbox's
    /// disk sustains 65 MB/s after a burst allowance of a few seconds, so an
    /// unpaced window measures where in it the allowance ran out. At 100
    /// commits a second per committer the log stays at half the sustained
    /// rate and a commit's latency is the engine's.
    pub commit_cycle: Duration,
    /// Statements of the traced run (and of its untraced twin).
    pub traced_stmts: usize,
    /// Iterations of each probe's loop, see [`crate::probes::run`].
    pub probe_loops: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            read_items: 2_000,
            update_items: 1_000,
            cold_items: 8_000,
            resident_frames: 8_192,
            cold_frames: 320,
            size_gates: true,
            warmup: Duration::from_secs(2),
            setups: 5,
            commit_cycle: Duration::from_millis(10),
            traced_stmts: 2_000,
            probe_loops: 400,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            read_items: 100,
            update_items: 100,
            cold_items: 100,
            resident_frames: 512,
            cold_frames: 512,
            size_gates: false,
            warmup: Duration::from_millis(20),
            setups: 1,
            commit_cycle: Duration::ZERO,
            traced_stmts: 60,
            probe_loops: 40,
        }
    }

    fn items(&self, w: Workload) -> usize {
        match w {
            Workload::ReadEmbedded | Workload::ReadWire => self.read_items,
            Workload::UpdateCommit => self.update_items,
            Workload::MixedCold => self.cold_items,
        }
    }

    fn frames(&self, w: Workload) -> usize {
        match w {
            Workload::MixedCold => self.cold_frames,
            _ => self.resident_frames,
        }
    }
}

/// A generated document and the oracle built from it.
pub struct Doc {
    pub name: String,
    pub xml: String,
    pub oracle: Oracle,
}

/// The documents of a run, made from its seed before anything is timed.
pub struct Inputs {
    pub workload: Workload,
    pub items: usize,
    pub docs: Vec<Doc>,
}

impl Inputs {
    pub fn generate(w: Workload, scale: &Scale, seed: u64) -> Result<Inputs, Error> {
        let items = scale.items(w);
        // Each committer of `update_commit` owns a document, so document locks
        // do not serialise them and the log does.
        let names: &[&str] = match w {
            Workload::UpdateCommit => &["site0", "site1"],
            _ => &["site"],
        };
        let mut docs = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let xml = sedna_workload::auction(items, seed.wrapping_add(i as u64));
            let oracle = Oracle::build(&xml)?;
            docs.push(Doc {
                name: name.to_string(),
                xml,
                oracle,
            });
        }
        Ok(Inputs {
            workload: w,
            items,
            docs,
        })
    }

    pub fn xml_bytes(&self) -> u64 {
        self.docs.iter().map(|d| d.xml.len() as u64).sum()
    }

    /// The document client `c` works on.
    pub fn doc_of(&self, client: usize) -> &Doc {
        &self.docs[client % self.docs.len()]
    }
}

/// A directory under the build directory that holds a run's databases and
/// is removed with them when the run ends.
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    /// `<build dir>/e2e-data/<pid>-<n>`, beside the `release/` directory the
    /// binary runs from: inside the checkout, and already ignored by git.
    pub fn new() -> Result<Scratch, Error> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        // relaxed: the counter only hands out distinct numbers.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let exe = std::env::current_exe()?;
        let build = exe
            .ancestors()
            .find(|p| {
                p.file_name()
                    .is_some_and(|n| n == "release" || n == "debug")
            })
            .and_then(Path::parent)
            .ok_or("the benchmark binary is not under a cargo build directory")?;
        let root = build
            .join("e2e-data")
            .join(format!("{}-{n}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("db{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Sizes of a loaded database, recorded beside every result.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sizes {
    pub items: usize,
    pub nodes: u64,
    pub xml_bytes: u64,
    pub page_size: usize,
    /// Pages of the data file after the set-up checkpoint.
    pub data_pages: u64,
    /// Data file plus log after the set-up checkpoint.
    pub stored_bytes: u64,
    pub buffer_frames: usize,
}

/// A database set up for a run.
pub struct Loaded {
    pub workload: Workload,
    pub db: Database,
    pub dir: PathBuf,
    pub cfg: DbConfig,
    /// Registered with a governor only where a server needs one.
    pub governor: Option<Arc<Governor>>,
    pub sizes: Sizes,
    /// Create, load, index, checkpoint (and server start on the wire).
    pub setup_s: f64,
    /// The `Session::load_xml` calls alone.
    pub load_s: f64,
    pub server: Option<ServerHandle>,
}

fn dir_files(dir: &Path) -> Result<Vec<u64>, Error> {
    let mut sizes = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            sizes.push(meta.len());
        }
    }
    Ok(sizes)
}

impl Loaded {
    /// Sets a database up from `inputs`: create, bulk load, build the
    /// `person_id` index where the workload has one, checkpoint; on the wire
    /// also start the server. The timed part is engine work only; generating XML
    /// and building the oracle happen before.
    pub fn set_up(inputs: &Inputs, scale: &Scale, scratch: &mut Scratch) -> Result<Loaded, Error> {
        let w = inputs.workload;
        let dir = scratch.fresh();
        let cfg = DbConfig {
            buffer_frames: scale.frames(w),
            trace_sample: SamplingPolicy::Off,
            ..DbConfig::default()
        };
        let started = Instant::now();
        let (db, governor) = if w == Workload::ReadWire {
            let governor = Governor::new();
            let db = governor.create_database(WIRE_DB, &dir, cfg.clone())?;
            (db, Some(governor))
        } else {
            (Database::create(&dir, cfg.clone())?, None)
        };
        let mut nodes = 0;
        let mut load_s = 0.0;
        {
            let mut s = db.session();
            for doc in &inputs.docs {
                s.execute(&format!("CREATE DOCUMENT '{}'", doc.name))?;
                let t = Instant::now();
                nodes += s.load_xml(&doc.name, &doc.xml)?;
                load_s += t.elapsed().as_secs_f64();
                if w.has_person_index() {
                    s.execute(&format!(
                        "CREATE INDEX 'person_id_{0}' ON doc('{0}')/site/people/person \
                         BY @id AS xs:string",
                        doc.name
                    ))?;
                }
            }
        }
        db.checkpoint()?;
        let server = match &governor {
            Some(g) => Some(Server::start(Arc::clone(g), NetConfig::default())?),
            None => None,
        };
        let setup_s = started.elapsed().as_secs_f64();

        let files = dir_files(&dir)?;
        let sizes = Sizes {
            items: inputs.items,
            nodes,
            xml_bytes: inputs.xml_bytes(),
            page_size: cfg.page_size,
            data_pages: files.iter().max().copied().unwrap_or(0) / cfg.page_size as u64,
            stored_bytes: files.iter().sum(),
            buffer_frames: cfg.buffer_frames,
        };
        let loaded = Loaded {
            workload: w,
            db,
            dir,
            cfg,
            governor,
            sizes,
            setup_s,
            load_s,
            server,
        };
        loaded.check_pool(scale)?;
        Ok(loaded)
    }

    /// The pool either holds the document or is an eighth of it, as the
    /// workload says.
    fn check_pool(&self, scale: &Scale) -> Result<(), Error> {
        let (pages, frames) = (self.sizes.data_pages, self.sizes.buffer_frames as u64);
        let ok = match self.workload {
            Workload::MixedCold => !scale.size_gates || pages >= 8 * frames,
            _ => pages <= frames,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: {pages} loaded pages against {frames} frames",
                self.workload.name()
            )
            .into())
        }
    }

    /// A connection for one client: a session in process, or a TCP
    /// connection where the workload has a server.
    pub fn connect(&self) -> Result<Box<dyn Conn + Send>, Error> {
        Ok(match &self.server {
            Some(server) => Box::new(Wire(SednaClient::connect(server.addr(), WIRE_DB)?)),
            None => Box::new(Embedded(self.db.session())),
        })
    }

    /// Stops the server, if any, drops the database and removes its files.
    pub fn tear_down(self) -> Result<(), Error> {
        if let Some(server) = self.server {
            server.shutdown()?;
        }
        drop(self.db);
        std::fs::remove_dir_all(&self.dir)?;
        Ok(())
    }
}

/// A statement's reply, in the one form both connection kinds produce.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    Items(Vec<String>),
    Updated(u64),
}

/// One client's connection. Closed loop: `run` returns when the whole reply
/// has arrived.
pub trait Conn {
    fn run(&mut self, stmt: &Stmt) -> Result<Reply, Error>;
}

pub struct Embedded(pub Session);

impl Conn for Embedded {
    fn run(&mut self, stmt: &Stmt) -> Result<Reply, Error> {
        if !stmt.class.is_read() {
            return match self.0.execute(&stmt.text)? {
                ExecOutcome::Updated(n) => Ok(Reply::Updated(n as u64)),
                other => Err(format!("update answered {other:?}").into()),
            };
        }
        query_items(&mut self.0, &stmt.text).map(Reply::Items)
    }
}

/// Runs one query over a session and pulls its cursor to the end.
pub fn query_items(session: &mut Session, text: &str) -> Result<Vec<String>, Error> {
    match session.execute_stream(text)? {
        StreamOutcome::Cursor(mut cursor) => {
            let mut items = Vec::new();
            while let Some(item) = cursor.next_item()? {
                items.push(item);
            }
            Ok(items)
        }
        StreamOutcome::Items(items) => Ok(items),
        other => Err(format!("query answered {other:?}").into()),
    }
}

pub struct Wire(pub SednaClient);

impl Conn for Wire {
    fn run(&mut self, stmt: &Stmt) -> Result<Reply, Error> {
        if !stmt.class.is_read() {
            return Err("the wire workload sends reads only".into());
        }
        // Execute, then FetchBatch until the result ends.
        Ok(Reply::Items(self.0.query(&stmt.text)?))
    }
}
