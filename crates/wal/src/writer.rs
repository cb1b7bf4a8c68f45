//! Appending to and scanning log files.
//!
//! Frame format per record: `len: u32 | crc32(body): u32 | body`. A
//! record whose frame is short or whose CRC mismatches marks the torn
//! tail of a crashed log; scanning stops there.
//!
//! The writer encodes frames into one in-memory commit buffer; a
//! [`WalWriter::flush`] hands the whole buffer to a single `write_all`
//! followed by `sync_data`, so an ordinary commit costs one `write(2)` and
//! one `fsync` however many records it logged. Records appended but never
//! flushed are lost with the process, exactly like an unflushed suffix in
//! the operating system's cache is lost with the machine.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

use sedna_obs::{Counter, Histogram, Registry};
use sedna_sas::XPtr;

use crate::delta;
use crate::record::{crc32, encode_page_delta, encode_page_image, WalError, WalRecord, WalResult};

/// Once the commit buffer holds this much, an append writes it out (without
/// syncing) so that a bulk load's page images never accumulate in memory.
/// Far above what an ordinary commit logs, so those still reach the file in
/// one write at flush time.
const SPILL_BYTES: usize = 256 << 10;

/// Live metric handles for one log (`sedna_wal_*`). Cloning shares the
/// underlying counters and histograms.
#[derive(Clone, Debug, Default)]
pub struct WalMetrics {
    /// Records appended.
    pub appends: Counter,
    /// Bytes appended (frame bytes, including the len/crc header).
    pub append_bytes: Counter,
    /// Page records logged as byte-range deltas.
    pub delta_records: Counter,
    /// Page records logged as full after-images.
    pub image_records: Counter,
    /// `fsync` (sync_data) calls issued.
    pub fsyncs: Counter,
    /// Per-record encode + checksum latency, nanoseconds.
    pub append_ns: Histogram,
    /// Latency of the `write` that hands the commit buffer to the file,
    /// nanoseconds.
    pub write_ns: Histogram,
    /// Per-fsync latency (`sync_data` only), nanoseconds.
    pub fsync_ns: Histogram,
}

impl WalMetrics {
    /// Registers every metric under its canonical `sedna_wal_*` name
    /// (see `docs/metrics.md`).
    pub fn register_into(&self, reg: &Registry) {
        reg.register_counter(
            "sedna_wal_appends_total",
            "WAL records appended",
            &self.appends,
        );
        reg.register_counter(
            "sedna_wal_append_bytes_total",
            "WAL bytes appended (framed)",
            &self.append_bytes,
        );
        reg.register_counter(
            "sedna_wal_delta_records_total",
            "WAL page records logged as byte-range deltas",
            &self.delta_records,
        );
        reg.register_counter(
            "sedna_wal_image_records_total",
            "WAL page records logged as full page images",
            &self.image_records,
        );
        reg.register_counter("sedna_wal_fsyncs_total", "WAL fsync calls", &self.fsyncs);
        reg.register_histogram(
            "sedna_wal_append_ns",
            "WAL per-record encode + checksum latency (ns)",
            &self.append_ns,
        );
        reg.register_histogram(
            "sedna_wal_write_ns",
            "WAL commit-buffer write latency (ns)",
            &self.write_ns,
        );
        reg.register_histogram(
            "sedna_wal_fsync_ns",
            "WAL fsync latency (ns)",
            &self.fsync_ns,
        );
    }
}

/// Appends records to a log file.
pub struct WalWriter {
    file: File,
    /// Next LSN (= byte offset of the next record frame).
    lsn: u64,
    /// LSN up to which the log is known durable.
    flushed: u64,
    /// Frames encoded but not yet written to `file`; they end at `lsn`.
    buf: Vec<u8>,
    metrics: WalMetrics,
}

impl WalWriter {
    /// Creates a fresh log (truncates an existing file).
    pub fn create(path: &Path) -> WalResult<WalWriter> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(WalWriter {
            file,
            lsn: 0,
            flushed: 0,
            buf: Vec::new(),
            metrics: WalMetrics::default(),
        })
    }

    /// Opens an existing log for appending at `end`, the end of its last
    /// intact record as a scan found it ([`crate::RecoveryPlan::end_lsn`],
    /// [`WalReader::end_lsn`]); any torn tail beyond `end` is dropped.
    pub fn open(path: &Path, end: u64) -> WalResult<WalWriter> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(end)?;
        file.seek(SeekFrom::Start(end))?;
        Ok(WalWriter {
            file,
            lsn: end,
            flushed: end,
            buf: Vec::new(),
            metrics: WalMetrics::default(),
        })
    }

    /// Appends a record, returning its LSN. Not yet durable — call
    /// [`WalWriter::flush`].
    pub fn append(&mut self, rec: &WalRecord) -> WalResult<u64> {
        match rec {
            WalRecord::PageImage { .. } => self.metrics.image_records.inc(),
            WalRecord::PageDelta { .. } => self.metrics.delta_records.inc(),
            _ => {}
        }
        self.append_frame(|out| rec.encode_into(out))
    }

    /// Logs what `txn` did to `page`: the byte ranges in which `image`
    /// differs from `base`, or the full image when there is no base or the
    /// ranges would take more than half a page. `base` is the committed
    /// version of the page on the same branch that the transaction's
    /// working copy was made from; redo applies the ranges to that same
    /// version (see [`crate::delta`] for why that is idempotent).
    pub fn append_page(
        &mut self,
        txn: u64,
        branch: u32,
        page: XPtr,
        base: Option<&[u8]>,
        image: &[u8],
    ) -> WalResult<u64> {
        let ranges = base
            .map(|base| delta::changed_ranges(base, image))
            .filter(|ranges| delta::encoded_len(ranges) <= image.len() / 2);
        match ranges {
            Some(ranges) => {
                self.metrics.delta_records.inc();
                self.append_frame(|out| {
                    let ranges = ranges.iter().map(|r| (r.start as u32, &image[r.clone()]));
                    encode_page_delta(out, txn, branch, page, ranges)
                })
            }
            None => {
                self.metrics.image_records.inc();
                self.append_frame(|out| encode_page_image(out, txn, branch, page, image))
            }
        }
    }

    /// Frames one record body, written by `encode`, at the end of the
    /// commit buffer.
    fn append_frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> WalResult<u64> {
        let span = self.metrics.append_ns.span();
        let lsn = self.lsn;
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 8]);
        encode(&mut self.buf);
        let body = &self.buf[start + 8..];
        let Ok(len) = u32::try_from(body.len()) else {
            self.buf.truncate(start);
            return Err(WalError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "log record body exceeds the frame's 4 GiB limit",
            )));
        };
        let crc = crc32(body);
        self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        let framed = (self.buf.len() - start) as u64;
        self.lsn += framed;
        self.metrics.appends.inc();
        self.metrics.append_bytes.add(framed);
        span.finish();
        if self.buf.len() >= SPILL_BYTES {
            self.write_out()?;
        }
        Ok(lsn)
    }

    /// Hands the commit buffer to the file in one write.
    fn write_out(&mut self) -> WalResult<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let span = self.metrics.write_ns.span();
        self.file.write_all(&self.buf)?;
        self.buf.clear();
        span.finish();
        Ok(())
    }

    /// Forces appended records to durable storage (the WAL rule's "force
    /// the log" step): one write of everything appended since the last
    /// flush, then one `sync_data`.
    pub fn flush(&mut self) -> WalResult<()> {
        self.write_out()?;
        let span = self.metrics.fsync_ns.span();
        self.file.sync_data()?;
        self.flushed = self.lsn;
        self.metrics.fsyncs.inc();
        span.finish();
        Ok(())
    }

    /// The next LSN.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Drops every record before `keep_from` (log rotation after a
    /// checkpoint: the checkpoint record carries the full base state, so
    /// older records can never be needed again). `keep_from` must be a
    /// record boundary (an LSN previously returned by
    /// [`WalWriter::append`]). LSNs restart at zero afterwards.
    pub fn truncate_prefix(&mut self, keep_from: u64) -> WalResult<()> {
        if keep_from == 0 {
            return Ok(());
        }
        self.write_out()?;
        let mut tail = Vec::new();
        self.file.seek(SeekFrom::Start(keep_from))?;
        self.file.read_to_end(&mut tail)?;
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&tail)?;
        self.file.sync_data()?;
        self.lsn = tail.len() as u64;
        self.flushed = self.lsn;
        Ok(())
    }

    /// The durable prefix of the log.
    pub fn flushed_lsn(&self) -> u64 {
        self.flushed
    }

    /// The writer's live metric handles.
    pub fn metrics(&self) -> &WalMetrics {
        &self.metrics
    }

    /// Replaces the writer's metric handles (so a database can hand the
    /// writer handles already registered with its observability
    /// registry).
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = metrics;
    }
}

/// Sequentially reads a log file, one record in memory at a time, stopping
/// cleanly at a torn tail.
pub struct WalReader {
    file: BufReader<File>,
    /// Length of the file when it was opened; a frame claiming to extend
    /// beyond it is torn.
    len: u64,
    /// Offset of the next frame (= end of the last intact record).
    pos: u64,
    /// The current record's body.
    body: Vec<u8>,
}

impl WalReader {
    /// Opens a log for scanning.
    pub fn open(path: &Path) -> WalResult<WalReader> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(WalReader {
            file: BufReader::with_capacity(64 * 1024, file),
            len,
            pos: 0,
            body: Vec::new(),
        })
    }

    /// Returns the next intact record and its LSN, or `None` at the end
    /// (or at a torn/corrupt tail, which is treated as the end — the
    /// crash semantics of an unflushed suffix).
    pub fn next_record(&mut self) -> WalResult<Option<(u64, WalRecord)>> {
        if self.pos + 8 > self.len {
            return Ok(None);
        }
        let mut header = [0u8; 8];
        self.file.read_exact(&mut header)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let torn = self.pos + 8 + len > self.len || {
            self.body.resize(len as usize, 0);
            self.file.read_exact(&mut self.body)?;
            crc32(&self.body) != crc
        };
        if torn {
            // The log ends here; later calls keep saying so.
            self.len = self.pos;
            return Ok(None);
        }
        let Some(rec) = WalRecord::decode(&self.body) else {
            return Err(WalError::Corrupt {
                at: self.pos,
                msg: "valid checksum but undecodable body".into(),
            });
        };
        let lsn = self.pos;
        self.pos += 8 + len;
        Ok(Some((lsn, rec)))
    }

    /// Offset just past the last intact record returned so far: once
    /// [`WalReader::next_record`] has returned `None`, where appending
    /// resumes.
    pub fn end_lsn(&self) -> u64 {
        self.pos
    }

    /// Reads every intact record with its LSN.
    pub fn read_all(path: &Path) -> WalResult<Vec<(u64, WalRecord)>> {
        let mut reader = WalReader::open(path)?;
        let mut out = Vec::new();
        while let Some(item) = reader.next_record()? {
            out.push(item);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_sas::XPtr;

    /// `name` in a directory of its own: tests run in parallel, so each
    /// removes its directory without racing another's files.
    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sedna-wal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Removes the directory [`tmpfile`] made for `path`.
    fn remove_tmp(path: &std::path::Path) {
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn append_flush_scan() {
        let path = tmpfile("basic.log");
        let recs = vec![
            WalRecord::Begin { txn: 1 },
            WalRecord::PageImage {
                txn: 1,
                branch: 0,
                page: XPtr::new(0, 4096),
                image: vec![9u8; 128],
            },
            WalRecord::Commit { txn: 1, ts: 5 },
        ];
        {
            let mut w = WalWriter::create(&path).unwrap();
            let mut lsns = Vec::new();
            for r in &recs {
                lsns.push(w.append(r).unwrap());
            }
            assert!(lsns.windows(2).all(|w| w[0] < w[1]));
            w.flush().unwrap();
            assert_eq!(w.flushed_lsn(), w.lsn());
        }
        let back: Vec<WalRecord> = WalReader::read_all(&path)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(back, recs);
        remove_tmp(&path);
    }

    #[test]
    fn records_reach_the_file_in_one_write_at_flush() {
        let path = tmpfile("buffered.log");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(&WalRecord::Begin { txn: 1 }).unwrap();
        w.append_page(1, 0, XPtr::new(0, 4096), None, &[7u8; 512])
            .unwrap();
        w.append(&WalRecord::Commit { txn: 1, ts: 1 }).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert_eq!(w.flushed_lsn(), 0);
        w.flush().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), w.lsn());
        let snap = w.metrics();
        assert_eq!(snap.write_ns.snapshot().count, 1);
        assert_eq!(snap.fsyncs.get(), 1);
        assert_eq!(snap.appends.get(), 3);
        assert_eq!(snap.append_bytes.get(), w.lsn());
        // A bulk load's images spill before the flush instead of piling up.
        let image = vec![3u8; 64 * 1024];
        let images = 2 * SPILL_BYTES / image.len();
        for _ in 0..images {
            w.append_page(2, 0, XPtr::new(0, 8192), None, &image)
                .unwrap();
        }
        assert!(std::fs::metadata(&path).unwrap().len() >= SPILL_BYTES as u64);
        assert!(w.buf.len() < SPILL_BYTES);
        w.flush().unwrap();
        assert_eq!(WalReader::read_all(&path).unwrap().len(), 3 + images);
        remove_tmp(&path);
    }

    #[test]
    fn page_logged_as_delta_or_image_by_size() {
        let path = tmpfile("pages.log");
        let mut w = WalWriter::create(&path).unwrap();
        let page = XPtr::new(0, 4096);
        let base = vec![0u8; 4096];
        let mut small = base.clone();
        small[100..108].fill(1);
        let mut large = base.clone();
        large[..2100].fill(2);
        w.append_page(1, 0, page, Some(&base), &small).unwrap();
        w.append_page(1, 0, page, Some(&base), &large).unwrap();
        w.append_page(1, 0, page, None, &small).unwrap();
        w.append_page(1, 0, page, Some(&base), &base).unwrap();
        w.flush().unwrap();
        assert_eq!(w.metrics().delta_records.get(), 2);
        assert_eq!(w.metrics().image_records.get(), 2);
        let recs: Vec<WalRecord> = WalReader::read_all(&path)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(
            recs,
            vec![
                WalRecord::PageDelta {
                    txn: 1,
                    branch: 0,
                    page,
                    // Bytes 100..108 straddle two words.
                    ranges: vec![(96, small[96..112].to_vec())],
                },
                WalRecord::PageImage {
                    txn: 1,
                    branch: 0,
                    page,
                    image: large.clone(),
                },
                WalRecord::PageImage {
                    txn: 1,
                    branch: 0,
                    page,
                    image: small.clone(),
                },
                WalRecord::PageDelta {
                    txn: 1,
                    branch: 0,
                    page,
                    ranges: Vec::new(),
                },
            ]
        );
        remove_tmp(&path);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let path = tmpfile("torn.log");
        {
            let mut w = WalWriter::create(&path).unwrap();
            w.append(&WalRecord::Begin { txn: 1 }).unwrap();
            w.append(&WalRecord::Commit { txn: 1, ts: 1 }).unwrap();
            w.flush().unwrap();
        }
        // Simulate a crash mid-append: half a frame of garbage.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[200, 0, 0, 0, 1, 2]).unwrap();
        }
        let back = WalReader::read_all(&path).unwrap();
        assert_eq!(back.len(), 2);
        // Re-opening for append truncates the tail and continues cleanly.
        {
            let end = crate::plan_recovery(&path, None).unwrap().end_lsn;
            let mut w = WalWriter::open(&path, end).unwrap();
            w.append(&WalRecord::Abort { txn: 2 }).unwrap();
            w.flush().unwrap();
        }
        let back = WalReader::read_all(&path).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[2].1, WalRecord::Abort { txn: 2 });
        remove_tmp(&path);
    }

    #[test]
    fn corrupted_record_midstream_stops_scan() {
        let path = tmpfile("corrupt.log");
        {
            let mut w = WalWriter::create(&path).unwrap();
            w.append(&WalRecord::Begin { txn: 1 }).unwrap();
            w.append(&WalRecord::Commit { txn: 1, ts: 1 }).unwrap();
            w.flush().unwrap();
        }
        // Flip a byte in the second record's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let back = WalReader::read_all(&path).unwrap();
        assert_eq!(back.len(), 1, "scan stops at the corrupt record");
        remove_tmp(&path);
    }
}
