//! `sednad` — the standalone Sedna server process.
//!
//! Opens (or creates) one or more databases under the governor, starts
//! the network listener, and serves until SIGTERM/SIGINT or a client's
//! `Shutdown` request, then drains: the listener stops accepting,
//! in-flight requests finish, and every database is closed with a WAL
//! flush and a final checkpoint.
//!
//! ```text
//! sednad --dir ./data --db mydb --create --addr 127.0.0.1:5050
//! sednad --dir ./data --db a,b,c --create --auth admin:s3cret
//! ```
//!
//! With a single `--db name` the database lives directly in `--dir`;
//! with a comma-separated list each database gets its own subdirectory
//! `<dir>/<name>`, and clients pick one at `StartSession`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use sedna::{DbConfig, Governor, SamplingPolicy};
use sedna_net::{Credentials, NetConfig, Server};

/// Flipped by the signal handler; the main loop polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: libc::c_int) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

struct Args {
    dir: PathBuf,
    dbs: Vec<String>,
    addr: String,
    create: bool,
    workers: usize,
    pipeline_depth: usize,
    max_conns: usize,
    auth: Option<Credentials>,
    max_sessions: usize,
    slow_query_ms: u64,
    trace_sample: SamplingPolicy,
    retain_snapshots: usize,
    retain_ms: u64,
}

const USAGE: &str = "\
sednad — Sedna server

USAGE:
    sednad [OPTIONS]

OPTIONS:
    --dir <PATH>          Data directory (default: ./sedna-data)
    --db <NAMES>          Database name, or a comma-separated list to
                          serve several databases from one process; each
                          of a list gets its own <dir>/<name>
                          subdirectory (default: db)
    --addr <HOST:PORT>    Listen address (default: 127.0.0.1:5050)
    --create              Create the database(s) instead of opening
                          (implied when a database's directory is missing)
    --workers <N>         Worker threads, i.e. concurrently executing
                          requests; idle connections cost no thread
                          (default: 8)
    --pipeline-depth <N>  Requests a client may pipeline on one
                          connection before the server stops reading
                          from it (default: 16)
    --max-conns <N>       Connections the server will carry; beyond this
                          new connections are rejected with `overloaded`
                          (default: 4096)
    --auth <USER:PASS>    Require these credentials at StartSession
    --max-sessions <N>    Per-database session limit, 0 = unlimited (default: 0)
    --slow-query-ms <N>   Slow-query threshold in ms; offenders land in the
                          slow-query log with their trace. 0 = off (default: 0)
    --trace-sample <P>    Query-trace sampling policy: off, slow, always,
                          or 1-in-<N> (default: off)
    --retain-snapshots <N> Committed snapshots retained per database for
                          AS OF time-travel reads. 0 = off (default: 0)
    --retain-ms <N>       Age cap in ms on retained snapshots. 0 = no
                          age cap (default: 0)
    --help                Show this help
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dir: PathBuf::from("./sedna-data"),
        dbs: vec!["db".to_string()],
        addr: "127.0.0.1:5050".to_string(),
        create: false,
        workers: 8,
        pipeline_depth: 16,
        max_conns: 4096,
        auth: None,
        max_sessions: 0,
        slow_query_ms: 0,
        trace_sample: SamplingPolicy::Off,
        retain_snapshots: 0,
        retain_ms: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--dir" => args.dir = PathBuf::from(value("--dir")?),
            "--db" => {
                args.dbs = value("--db")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if args.dbs.is_empty() {
                    return Err("--db: expected at least one database name".into());
                }
            }
            "--addr" => args.addr = value("--addr")?,
            "--create" => args.create = true,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--pipeline-depth" => {
                args.pipeline_depth = value("--pipeline-depth")?
                    .parse()
                    .map_err(|e| format!("--pipeline-depth: {e}"))?;
            }
            "--max-conns" => {
                args.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--auth" => {
                let v = value("--auth")?;
                let (user, password) = v
                    .split_once(':')
                    .ok_or_else(|| "--auth: expected USER:PASS".to_string())?;
                args.auth = Some(Credentials {
                    user: user.to_string(),
                    password: password.to_string(),
                });
            }
            "--max-sessions" => {
                args.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|e| format!("--max-sessions: {e}"))?;
            }
            "--slow-query-ms" => {
                args.slow_query_ms = value("--slow-query-ms")?
                    .parse()
                    .map_err(|e| format!("--slow-query-ms: {e}"))?;
            }
            "--trace-sample" => {
                let v = value("--trace-sample")?;
                args.trace_sample = SamplingPolicy::parse(&v)
                    .ok_or_else(|| format!("--trace-sample: unknown policy '{v}'"))?;
            }
            "--retain-snapshots" => {
                args.retain_snapshots = value("--retain-snapshots")?
                    .parse()
                    .map_err(|e| format!("--retain-snapshots: {e}"))?;
            }
            "--retain-ms" => {
                args.retain_ms = value("--retain-ms")?
                    .parse()
                    .map_err(|e| format!("--retain-ms: {e}"))?;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn run(args: Args) -> Result<(), String> {
    let governor = Governor::new();
    let cfg = DbConfig {
        max_sessions: args.max_sessions,
        slow_query_ms: args.slow_query_ms,
        trace_sample: args.trace_sample,
        retain_snapshots: args.retain_snapshots,
        retain_ms: args.retain_ms,
        ..DbConfig::default()
    };
    for db in &args.dbs {
        // One database lives directly in --dir (the historical layout);
        // several share it through per-database subdirectories.
        let dir = if args.dbs.len() == 1 {
            args.dir.clone()
        } else {
            args.dir.join(db)
        };
        let create = args.create || !dir.exists();
        if create {
            governor
                .create_database(db, &dir, cfg.clone())
                .map_err(|e| format!("creating database '{db}': {e}"))?;
            eprintln!("sednad: created database '{db}' in {}", dir.display());
        } else {
            governor
                .open_database(db, &dir, cfg.clone())
                .map_err(|e| format!("opening database '{db}': {e}"))?;
            eprintln!("sednad: opened database '{db}' from {}", dir.display());
        }
    }

    let net = NetConfig {
        addr: args.addr,
        workers: args.workers,
        pipeline_depth: args.pipeline_depth,
        max_conns: args.max_conns,
        auth: args.auth,
        ..NetConfig::default()
    };
    let handle = Server::start(governor, net).map_err(|e| format!("starting listener: {e}"))?;
    eprintln!("sednad: listening on {}", handle.addr());

    // SAFETY: installing a signal handler that only stores to an atomic.
    unsafe {
        libc::signal(libc::SIGTERM, on_signal as *const () as libc::sighandler_t);
        libc::signal(libc::SIGINT, on_signal as *const () as libc::sighandler_t);
    }

    while !SHUTDOWN.load(Ordering::SeqCst) && !handle.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }

    eprintln!("sednad: draining (flushing WAL, final checkpoint)");
    handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    eprintln!("sednad: stopped");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("sednad: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sednad: {msg}");
            ExitCode::FAILURE
        }
    }
}
