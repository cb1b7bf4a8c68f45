//! Log-record types and their binary codec.

use sedna_sas::{PhysId, XPtr};

/// Errors from log encoding/decoding and I/O.
#[derive(Debug)]
pub enum WalError {
    /// I/O failure.
    Io(std::io::Error),
    /// A record failed its checksum or is structurally invalid. Expected
    /// at the crash-torn tail of a log; fatal anywhere else.
    Corrupt {
        /// Byte offset of the bad record.
        at: u64,
        /// Description.
        msg: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "log I/O error: {e}"),
            WalError::Corrupt { at, msg } => write!(f, "corrupt log record at {at}: {msg}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Result alias for WAL operations.
pub type WalResult<T> = Result<T, WalError>;

/// Serialized allocator state carried by checkpoints (mirrors
/// `sedna_sas::alloc::AllocState` without depending on its layout).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Next fresh layer.
    pub next_layer: u32,
    /// Next fresh address within the layer.
    pub next_addr: u32,
    /// Recycled page addresses.
    pub free: Vec<XPtr>,
}

/// Per-fork metadata carried by checkpoints so forks survive restart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchMeta {
    /// The fork's branch id.
    pub branch: u32,
    /// The branch it was forked from.
    pub parent: u32,
    /// Commit timestamp of the fork point.
    pub fork_ts: u64,
    /// The fork's database name.
    pub name: String,
    /// Opaque serialized catalog of the fork at checkpoint time.
    pub catalog: Vec<u8>,
}

/// Payload of a checkpoint record: the persistent snapshot.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CheckpointData {
    /// Commit timestamp the snapshot is consistent with.
    pub ts: u64,
    /// Page table of the persistent snapshot: SAS page → physical slot,
    /// tagged with the branch that owns the version and its commit
    /// timestamp (so fork lineage resolution survives restart).
    pub page_table: Vec<(XPtr, PhysId, u32, u64)>,
    /// Pages dropped on a branch while still visible to an ancestor or
    /// descendant: `(page, branch, drop_ts)`.
    pub drops: Vec<(XPtr, u32, u64)>,
    /// SAS address-allocator state.
    pub alloc: AllocSnapshot,
    /// Opaque serialized catalog of the root branch (schemas, document
    /// anchors, indexes).
    pub catalog: Vec<u8>,
    /// Live forks at checkpoint time, parents before children.
    pub branches: Vec<BranchMeta>,
}

/// One write-ahead-log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// Transaction start.
    Begin {
        /// Transaction id.
        txn: u64,
    },
    /// Full after-image of a page written by `txn` (logged at commit,
    /// before the commit record).
    PageImage {
        /// Transaction id.
        txn: u64,
        /// Branch the write happened on.
        branch: u32,
        /// The SAS page.
        page: XPtr,
        /// The page bytes.
        image: Vec<u8>,
    },
    /// The byte ranges of a page that `txn` changed, relative to the
    /// committed version of the same page on the same branch that the
    /// transaction's working copy was made from (see [`crate::delta`]).
    /// Logged instead of a [`WalRecord::PageImage`] when such a base exists
    /// and the ranges are small.
    PageDelta {
        /// Transaction id.
        txn: u64,
        /// Branch the write happened on.
        branch: u32,
        /// The SAS page.
        page: XPtr,
        /// `(offset in the page, new bytes)`, ascending and disjoint.
        ranges: Vec<(u32, Vec<u8>)>,
    },
    /// A page freed by `txn`.
    PageFree {
        /// Transaction id.
        txn: u64,
        /// Branch the free happened on.
        branch: u32,
        /// The freed SAS page.
        page: XPtr,
    },
    /// A catalog entry (document schema + storage anchors, or index
    /// metadata) as of this transaction's commit. Logged with the page
    /// images so recovery can restore the in-memory catalog consistent
    /// with the redone pages.
    CatalogPut {
        /// Transaction id.
        txn: u64,
        /// Branch whose catalog the entry belongs to.
        branch: u32,
        /// Namespaced key (`doc:<name>` / `index:<name>`).
        key: String,
        /// Opaque payload owned by the database core.
        payload: Vec<u8>,
    },
    /// Removal of a catalog entry (DROP DOCUMENT / DROP INDEX).
    CatalogDrop {
        /// Transaction id.
        txn: u64,
        /// Branch whose catalog the entry belongs to.
        branch: u32,
        /// Namespaced key.
        key: String,
    },
    /// Transaction commit; `ts` is the commit timestamp.
    Commit {
        /// Transaction id.
        txn: u64,
        /// Commit timestamp.
        ts: u64,
    },
    /// Transaction abort (its versions were discarded; nothing to redo).
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// A checkpoint: the persistent snapshot.
    Checkpoint(CheckpointData),
    /// A database fork: `branch` splits off `parent` at commit
    /// timestamp `ts`, sharing all pages copy-on-write.
    Fork {
        /// The new branch id.
        branch: u32,
        /// The branch being forked.
        parent: u32,
        /// Commit timestamp of the fork point.
        ts: u64,
        /// The fork's database name.
        name: String,
    },
    /// A fork dropped: its branch-private versions are garbage.
    DropFork {
        /// The dropped branch id.
        branch: u32,
    },
}

const T_BEGIN: u8 = 1;
const T_PAGE_IMAGE: u8 = 2;
const T_PAGE_FREE: u8 = 3;
const T_COMMIT: u8 = 4;
const T_ABORT: u8 = 5;
const T_CHECKPOINT: u8 = 6;
const T_CATALOG_PUT: u8 = 7;
const T_CATALOG_DROP: u8 = 8;
const T_FORK: u8 = 9;
const T_DROP_FORK: u8 = 10;
const T_PAGE_DELTA: u8 = 11;

/// Reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables: `CRC_TABLES[k][b]` is the CRC state after
/// byte `b` followed by `k` zero bytes, so eight input bytes fold into the
/// state with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG/Ethernet checksum),
/// table-driven, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.u32()? as usize;
        Some(self.take(n)?.to_vec())
    }
}

/// Encodes a [`WalRecord::PageImage`] body from borrowed page bytes.
pub(crate) fn encode_page_image(
    out: &mut Vec<u8>,
    txn: u64,
    branch: u32,
    page: XPtr,
    image: &[u8],
) {
    out.push(T_PAGE_IMAGE);
    put_u64(out, txn);
    put_u32(out, branch);
    put_u64(out, page.raw());
    put_bytes(out, image);
}

/// Encodes a [`WalRecord::PageDelta`] body from borrowed ranges.
pub(crate) fn encode_page_delta<'a>(
    out: &mut Vec<u8>,
    txn: u64,
    branch: u32,
    page: XPtr,
    ranges: impl ExactSizeIterator<Item = (u32, &'a [u8])>,
) {
    out.push(T_PAGE_DELTA);
    put_u64(out, txn);
    put_u32(out, branch);
    put_u64(out, page.raw());
    put_u32(out, ranges.len() as u32);
    for (offset, bytes) in ranges {
        put_u32(out, offset);
        put_bytes(out, bytes);
    }
}

impl WalRecord {
    /// Encodes the record body (without the length/CRC frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the record body (without the length/CRC frame) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Begin { txn } => {
                out.push(T_BEGIN);
                put_u64(out, *txn);
            }
            WalRecord::PageImage {
                txn,
                branch,
                page,
                image,
            } => encode_page_image(out, *txn, *branch, *page, image),
            WalRecord::PageDelta {
                txn,
                branch,
                page,
                ranges,
            } => encode_page_delta(
                out,
                *txn,
                *branch,
                *page,
                ranges.iter().map(|(o, b)| (*o, b.as_slice())),
            ),
            WalRecord::PageFree { txn, branch, page } => {
                out.push(T_PAGE_FREE);
                put_u64(out, *txn);
                put_u32(out, *branch);
                put_u64(out, page.raw());
            }
            WalRecord::CatalogPut {
                txn,
                branch,
                key,
                payload,
            } => {
                out.push(T_CATALOG_PUT);
                put_u64(out, *txn);
                put_u32(out, *branch);
                put_bytes(out, key.as_bytes());
                put_bytes(out, payload);
            }
            WalRecord::CatalogDrop { txn, branch, key } => {
                out.push(T_CATALOG_DROP);
                put_u64(out, *txn);
                put_u32(out, *branch);
                put_bytes(out, key.as_bytes());
            }
            WalRecord::Commit { txn, ts } => {
                out.push(T_COMMIT);
                put_u64(out, *txn);
                put_u64(out, *ts);
            }
            WalRecord::Abort { txn } => {
                out.push(T_ABORT);
                put_u64(out, *txn);
            }
            WalRecord::Checkpoint(cp) => {
                out.push(T_CHECKPOINT);
                put_u64(out, cp.ts);
                put_u32(out, cp.page_table.len() as u32);
                for (page, phys, branch, ts) in &cp.page_table {
                    put_u64(out, page.raw());
                    put_u64(out, phys.0);
                    put_u32(out, *branch);
                    put_u64(out, *ts);
                }
                put_u32(out, cp.drops.len() as u32);
                for (page, branch, ts) in &cp.drops {
                    put_u64(out, page.raw());
                    put_u32(out, *branch);
                    put_u64(out, *ts);
                }
                put_u32(out, cp.alloc.next_layer);
                put_u32(out, cp.alloc.next_addr);
                put_u32(out, cp.alloc.free.len() as u32);
                for p in &cp.alloc.free {
                    put_u64(out, p.raw());
                }
                put_bytes(out, &cp.catalog);
                put_u32(out, cp.branches.len() as u32);
                for b in &cp.branches {
                    put_u32(out, b.branch);
                    put_u32(out, b.parent);
                    put_u64(out, b.fork_ts);
                    put_bytes(out, b.name.as_bytes());
                    put_bytes(out, &b.catalog);
                }
            }
            WalRecord::Fork {
                branch,
                parent,
                ts,
                name,
            } => {
                out.push(T_FORK);
                put_u32(out, *branch);
                put_u32(out, *parent);
                put_u64(out, *ts);
                put_bytes(out, name.as_bytes());
            }
            WalRecord::DropFork { branch } => {
                out.push(T_DROP_FORK);
                put_u32(out, *branch);
            }
        }
    }

    /// Decodes a record body.
    pub fn decode(buf: &[u8]) -> Option<WalRecord> {
        let mut c = Cursor { buf, pos: 0 };
        let rec = match c.u8()? {
            T_BEGIN => WalRecord::Begin { txn: c.u64()? },
            T_PAGE_IMAGE => WalRecord::PageImage {
                txn: c.u64()?,
                branch: c.u32()?,
                page: XPtr::from_raw(c.u64()?),
                image: c.bytes()?,
            },
            T_PAGE_DELTA => {
                let txn = c.u64()?;
                let branch = c.u32()?;
                let page = XPtr::from_raw(c.u64()?);
                let n = c.u32()? as usize;
                // Every range takes at least its 8-byte header.
                let mut ranges = Vec::with_capacity(n.min(buf.len() / 8));
                for _ in 0..n {
                    ranges.push((c.u32()?, c.bytes()?));
                }
                WalRecord::PageDelta {
                    txn,
                    branch,
                    page,
                    ranges,
                }
            }
            T_PAGE_FREE => WalRecord::PageFree {
                txn: c.u64()?,
                branch: c.u32()?,
                page: XPtr::from_raw(c.u64()?),
            },
            T_CATALOG_PUT => WalRecord::CatalogPut {
                txn: c.u64()?,
                branch: c.u32()?,
                key: String::from_utf8(c.bytes()?).ok()?,
                payload: c.bytes()?,
            },
            T_CATALOG_DROP => WalRecord::CatalogDrop {
                txn: c.u64()?,
                branch: c.u32()?,
                key: String::from_utf8(c.bytes()?).ok()?,
            },
            T_COMMIT => WalRecord::Commit {
                txn: c.u64()?,
                ts: c.u64()?,
            },
            T_ABORT => WalRecord::Abort { txn: c.u64()? },
            T_CHECKPOINT => {
                let ts = c.u64()?;
                let n = c.u32()? as usize;
                let mut page_table = Vec::with_capacity(n);
                for _ in 0..n {
                    let page = XPtr::from_raw(c.u64()?);
                    let phys = PhysId(c.u64()?);
                    let branch = c.u32()?;
                    let vts = c.u64()?;
                    page_table.push((page, phys, branch, vts));
                }
                let nd = c.u32()? as usize;
                let mut drops = Vec::with_capacity(nd);
                for _ in 0..nd {
                    let page = XPtr::from_raw(c.u64()?);
                    let branch = c.u32()?;
                    let dts = c.u64()?;
                    drops.push((page, branch, dts));
                }
                let next_layer = c.u32()?;
                let next_addr = c.u32()?;
                let nf = c.u32()? as usize;
                let mut free = Vec::with_capacity(nf);
                for _ in 0..nf {
                    free.push(XPtr::from_raw(c.u64()?));
                }
                let catalog = c.bytes()?;
                let nb = c.u32()? as usize;
                let mut branches = Vec::with_capacity(nb);
                for _ in 0..nb {
                    branches.push(BranchMeta {
                        branch: c.u32()?,
                        parent: c.u32()?,
                        fork_ts: c.u64()?,
                        name: String::from_utf8(c.bytes()?).ok()?,
                        catalog: c.bytes()?,
                    });
                }
                WalRecord::Checkpoint(CheckpointData {
                    ts,
                    page_table,
                    drops,
                    alloc: AllocSnapshot {
                        next_layer,
                        next_addr,
                        free,
                    },
                    catalog,
                    branches,
                })
            }
            T_FORK => WalRecord::Fork {
                branch: c.u32()?,
                parent: c.u32()?,
                ts: c.u64()?,
                name: String::from_utf8(c.bytes()?).ok()?,
            },
            T_DROP_FORK => WalRecord::DropFork { branch: c.u32()? },
            _ => return None,
        };
        (c.pos == buf.len()).then_some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bit-at-a-time definition the table-driven `crc32` replaced.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_bitwise_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(32);
        let data: Vec<u8> = (0..70_008).map(|_| rng.gen_range(0..=255u8)).collect();
        // Every short length (all tail sizes, no-word and one-word inputs),
        // then random lengths up to 70 000, each at all 8 alignments.
        let lengths = (0..=64usize).chain((0..40).map(|_| rng.gen_range(65..=70_000)));
        for len in lengths.chain([70_000]) {
            for align in 0..8 {
                let slice = &data[align..align + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "len {len} align {align}"
                );
            }
        }
    }

    #[test]
    fn all_record_types_round_trip() {
        let records = vec![
            WalRecord::Begin { txn: 7 },
            WalRecord::PageImage {
                txn: 7,
                branch: 0,
                page: XPtr::new(2, 4096),
                image: vec![1, 2, 3, 4, 5],
            },
            WalRecord::PageDelta {
                txn: 7,
                branch: 1,
                page: XPtr::new(2, 4096),
                ranges: vec![(0, vec![1, 2, 3]), (4000, vec![9; 96])],
            },
            WalRecord::PageDelta {
                txn: 7,
                branch: 0,
                page: XPtr::new(2, 4096),
                ranges: Vec::new(),
            },
            WalRecord::PageFree {
                txn: 7,
                branch: 3,
                page: XPtr::new(2, 8192),
            },
            WalRecord::CatalogPut {
                txn: 7,
                branch: 1,
                key: "doc:lib".into(),
                payload: vec![9, 9],
            },
            WalRecord::CatalogDrop {
                txn: 7,
                branch: 1,
                key: "index:by-author".into(),
            },
            WalRecord::Commit { txn: 7, ts: 99 },
            WalRecord::Abort { txn: 8 },
            WalRecord::Checkpoint(CheckpointData {
                ts: 42,
                page_table: vec![
                    (XPtr::new(0, 4096), PhysId(0), 0, 10),
                    (XPtr::new(1, 0), PhysId(5), 2, 41),
                ],
                drops: vec![(XPtr::new(0, 8192), 2, 40)],
                alloc: AllocSnapshot {
                    next_layer: 1,
                    next_addr: 8192,
                    free: vec![XPtr::new(0, 12288)],
                },
                catalog: b"catalog-bytes".to_vec(),
                branches: vec![BranchMeta {
                    branch: 2,
                    parent: 0,
                    fork_ts: 17,
                    name: "staging".into(),
                    catalog: b"fork-catalog".to_vec(),
                }],
            }),
            WalRecord::Fork {
                branch: 2,
                parent: 0,
                ts: 17,
                name: "staging".into(),
            },
            WalRecord::DropFork { branch: 2 },
        ];
        for rec in records {
            let enc = rec.encode();
            assert_eq!(WalRecord::decode(&enc), Some(rec));
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = WalRecord::Begin { txn: 1 }.encode();
        enc.push(0);
        assert_eq!(WalRecord::decode(&enc), None);
        assert_eq!(WalRecord::decode(&[]), None);
        assert_eq!(WalRecord::decode(&[99]), None);
    }
}
