//! Probes: small fixed loops over one layer's public function, for costs the
//! spans cannot see from outside (a codec call, a page dereference, a
//! checksum). Each runs for a few tens of milliseconds on inputs drawn from
//! the run's seed.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sedna_index::{BTreeIndex, IndexKey};
use sedna_net::{Request, Response};
use sedna_sas::{Sas, SasConfig, TxnToken, View, XPtr};

use crate::gen::{Mix, Stmt, Stream};
use crate::stats::{us, Summary};
use crate::workload::Inputs;
use crate::Error;

/// Client number of the probes' statement streams; no run's client uses it.
const PROBE_CLIENT: u32 = 1_000;
/// Lookups, reads or frames timed together, to stay well above the clock's
/// resolution.
const BATCH: usize = 64;

fn sample(inputs: &Inputs, seed: u64, mix: Mix, n: usize) -> Vec<Stmt> {
    let doc = inputs.doc_of(0);
    let mut stream = Stream::new(seed, PROBE_CLIENT, mix, &doc.name, &doc.oracle.shape());
    (0..n).map(|_| stream.next_stmt()).collect()
}

/// `xquery.compile_p50_us.<class>` for every class of `mix`: parse, analyse
/// and rewrite, no cache.
fn compile(mix: Mix, stmts: &[Stmt], out: &mut Vec<(String, f64)>) -> Result<(), Error> {
    for &(class, _) in mix.weights() {
        let mut ns = Vec::new();
        for stmt in stmts.iter().filter(|s| s.class == class) {
            let t = Instant::now();
            let compiled = sedna_xquery::compile(black_box(&stmt.text));
            ns.push(t.elapsed().as_nanos() as u64);
            compiled.map_err(|e| format!("{}: {e}", class.name()))?;
        }
        out.push((
            format!("xquery.compile_p50_us.{}", class.name()),
            us(Summary::of(&mut ns).p50_ns),
        ));
    }
    Ok(())
}

/// `net.codec_ns_per_frame`: encode and decode of the frames the read mix
/// puts on the wire, replies sized by the oracle's answers.
fn codec(inputs: &Inputs, reads: &[Stmt]) -> Result<f64, Error> {
    let oracle = &inputs.doc_of(0).oracle;
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for stmt in reads {
        requests.push(Request::Execute {
            stmt: stmt.text.clone(),
            trace: false,
        });
        responses.push(Response::QueryOk(u64::MAX));
        let items = oracle.expected(&stmt.key)?;
        let batches: Vec<&[String]> = items.chunks(BATCH).collect();
        for (i, batch) in batches.iter().enumerate() {
            requests.push(Request::FetchBatch { max: BATCH as u32 });
            responses.push(Response::ItemBatch {
                items: batch.to_vec(),
                done: i + 1 == batches.len(),
            });
        }
    }
    let frames = requests.len() + responses.len();
    let t = Instant::now();
    for r in &requests {
        let body = black_box(r).encode_body();
        black_box(Request::decode(r.code(), &body)?);
    }
    for r in &responses {
        let body = black_box(r).encode_body();
        black_box(Response::decode(r.code(), &body)?);
    }
    Ok(t.elapsed().as_nanos() as f64 / frames as f64)
}

fn in_memory_sas(frames: usize) -> Result<Arc<Sas>, Error> {
    Ok(Sas::in_memory(SasConfig {
        buffer_frames: frames,
        ..SasConfig::default()
    })?)
}

/// `index.lookup_p50_us`: point lookups in a B-tree holding the document's
/// `person{k}` keys. The loaded index is not reachable through the public
/// API, so the probe builds its own over an in-memory address space.
fn index_lookup(inputs: &Inputs, points: &[Stmt]) -> Result<f64, Error> {
    let sas = in_memory_sas(4_096)?;
    let vas = sas.session();
    vas.begin(View::LATEST, Some(TxnToken(1)));
    let mut index = BTreeIndex::create(&vas)?;
    let persons = u64::from(inputs.doc_of(0).oracle.shape().persons);
    for k in 0..persons {
        let handle = XPtr::from_raw(0x1000 + k * 8);
        index.insert(&vas, &IndexKey::String(format!("person{k}")), handle)?;
    }
    let keys: Vec<IndexKey> = points
        .iter()
        .filter_map(|s| match s.key {
            crate::gen::Key::Point(k) => Some(IndexKey::String(format!("person{k}"))),
            _ => None,
        })
        .collect();
    let mut per_lookup = Vec::new();
    for batch in keys.chunks_exact(BATCH.min(keys.len().max(1))) {
        let t = Instant::now();
        for key in batch {
            if index.lookup(&vas, black_box(key))?.len() != 1 {
                return Err("index probe: a loaded key was not found once".into());
            }
        }
        per_lookup.push(t.elapsed().as_nanos() as u64 / batch.len() as u64);
    }
    Ok(us(Summary::of(&mut per_lookup).p50_ns))
}

/// `sas.read_ns_per_page.t<threads>`: `Vas::read` of resident pages, each
/// thread through its own session.
fn page_reads(threads: usize, rounds: usize) -> Result<f64, Error> {
    const PAGES: usize = 256;
    let sas = in_memory_sas(1_024)?;
    let pages: Vec<XPtr> = {
        let vas = sas.session();
        vas.begin(View::LATEST, Some(TxnToken(1)));
        let mut pages = Vec::new();
        for _ in 0..PAGES {
            pages.push(vas.alloc_page()?.0);
        }
        pages
    };
    let elapsed: Vec<Result<f64, Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| -> Result<f64, Error> {
                    let vas = sas.session();
                    vas.begin(View::LATEST, None);
                    let t = Instant::now();
                    for _ in 0..rounds {
                        for page in &pages {
                            black_box(vas.read(*page)?.bytes()[0]);
                        }
                    }
                    Ok(t.elapsed().as_nanos() as f64 / (rounds * PAGES) as f64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a probe thread panicked"))
            .collect()
    });
    let mut sum = 0.0;
    for ns in elapsed {
        sum += ns?;
    }
    Ok(sum / threads as f64)
}

/// `wal.crc32_mib_s`: the log's checksum over 4 KiB blocks.
fn crc32_rate(seed: u64, blocks: usize) -> f64 {
    let block: Vec<u8> = (0..4_096u64)
        .map(|i| (i.wrapping_mul(seed | 1) >> 3) as u8)
        .collect();
    let t = Instant::now();
    for _ in 0..blocks {
        black_box(sedna_wal::record::crc32(black_box(&block)));
    }
    (blocks * block.len()) as f64 / (1 << 20) as f64 / t.elapsed().as_secs_f64()
}

/// `xml.parse_mib_s`: the parser over the run's own document.
fn parse_rate(inputs: &Inputs) -> Result<f64, Error> {
    let xml = &inputs.doc_of(0).xml;
    let t = Instant::now();
    black_box(sedna_xml::parse(black_box(xml)).map_err(|e| e.to_string())?);
    Ok(xml.len() as f64 / (1 << 20) as f64 / t.elapsed().as_secs_f64())
}

/// Runs every probe, each looping `loops` times over its input (statements,
/// rounds over the pages, five checksummed blocks). The same probes run on
/// every workload: they depend on the seed and the document, not on the
/// traffic.
pub fn run(inputs: &Inputs, seed: u64, loops: usize) -> Result<Vec<(String, f64)>, Error> {
    let reads = sample(inputs, seed, Mix::Read, loops);
    let mut out = Vec::new();
    compile(Mix::Read, &reads, &mut out)?;
    let updates = sample(inputs, seed, Mix::Update, loops);
    compile(Mix::Update, &updates, &mut out)?;
    out.push(("net.codec_ns_per_frame".into(), codec(inputs, &reads)?));
    out.push(("index.lookup_p50_us".into(), index_lookup(inputs, &reads)?));
    out.push(("sas.read_ns_per_page.t1".into(), page_reads(1, loops)?));
    out.push(("sas.read_ns_per_page.t2".into(), page_reads(2, loops)?));
    out.push(("wal.crc32_mib_s".into(), crc32_rate(seed, 5 * loops)));
    out.push(("xml.parse_mib_s".into(), parse_rate(inputs)?));
    Ok(out)
}
