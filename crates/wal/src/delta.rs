//! Byte-range page deltas: what a commit changed in a page, relative to
//! the committed version its working copy was made from.
//!
//! A delta is a list of `(offset, new bytes)` ranges, ascending and
//! disjoint. [`changed_ranges`] finds them by comparing the two images a
//! word at a time and coalesces ranges separated by at most [`MERGE_GAP`]
//! bytes, so a run of scattered one-word changes (a block header's
//! counters, a descriptor's sibling pointers) costs one range, not one per
//! word. [`apply`] overwrites the ranges onto a base image.
//!
//! # Why replaying deltas is idempotent
//!
//! Let `S0` be a page's image in the persistent snapshot and `d1 … dn` the
//! deltas (and full images, which are deltas covering the whole page)
//! logged for it since, in log order, so that `Sk = apply(dk, Sk-1)`.
//! Every `dk` covers every byte in which `Sk` differs from `Sk-1`, and
//! carries `Sk`'s value for each byte it covers. Take any byte `i` of a
//! slot whose every byte holds the value of *some* state of the chain —
//! `S0` after a clean checkpoint, `Sn` after a completed recovery that
//! crashed before its own checkpoint, or a sector-wise mixture after a
//! torn page write. Replaying `d1 … dn` in order leaves byte `i` equal to
//! `Sj[i]` for the last `dj` that covers `i`; no later delta touches `i`,
//! so `Sj[i] = Sn[i]`. If no delta covers `i`, all states agree on it and
//! it already equals `Sn[i]`. So replaying from the checkpoint converges
//! to `Sn` whether it runs once, twice, or onto a slot that already holds
//! a later state — provided the whole chain is replayed in log order (the
//! log is truncated only at a checkpoint) and the slot is never reused for
//! another page in between (the persistent snapshot pins the slots a
//! checkpoint names, on every branch, until the next checkpoint).

use std::ops::Range;

/// Two changed runs closer than this are logged as one range: a range
/// costs 8 bytes of header (offset + length), so bridging a gap of up to
/// twice that is at worst a wash in bytes and halves the range count.
pub const MERGE_GAP: usize = 16;

const WORD: usize = 8;

/// The byte ranges in which `new` differs from `base`, ascending,
/// disjoint, word-granular, and coalesced across gaps of at most
/// [`MERGE_GAP`] bytes. Both images must have the same length.
pub fn changed_ranges(base: &[u8], new: &[u8]) -> Vec<Range<usize>> {
    assert_eq!(base.len(), new.len(), "delta of images of unequal length");
    let mut out: Vec<Range<usize>> = Vec::new();
    let mut push = |start: usize, end: usize| match out.last_mut() {
        Some(last) if start - last.end <= MERGE_GAP => last.end = end,
        _ => out.push(start..end),
    };
    let words = base.len() / WORD;
    for (w, (a, b)) in base
        .chunks_exact(WORD)
        .zip(new.chunks_exact(WORD))
        .enumerate()
    {
        if a != b {
            push(w * WORD, (w + 1) * WORD);
        }
    }
    let tail = words * WORD;
    if base[tail..] != new[tail..] {
        push(tail, base.len());
    }
    out
}

/// Bytes a delta made of `ranges` takes in a log record body, beyond the
/// fixed record header: 8 bytes of range header plus the range's bytes.
pub fn encoded_len(ranges: &[Range<usize>]) -> usize {
    ranges.iter().map(|r| 8 + r.len()).sum()
}

/// Overwrites `ranges` onto `page`. Returns `false` (leaving `page`
/// partly written) when a range does not fit the page, which only a
/// record from a database with a larger page size can cause.
#[must_use]
pub fn apply(page: &mut [u8], ranges: &[(u32, Vec<u8>)]) -> bool {
    for (offset, bytes) in ranges {
        let start = *offset as usize;
        let Some(dst) = start
            .checked_add(bytes.len())
            .and_then(|end| page.get_mut(start..end))
        else {
            return false;
        };
        dst.copy_from_slice(bytes);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The delta turning `base` into `new`, in the owned form a
    /// [`crate::WalRecord::PageDelta`] carries and [`apply`] takes.
    fn diff(base: &[u8], new: &[u8]) -> Vec<(u32, Vec<u8>)> {
        changed_ranges(base, new)
            .into_iter()
            .map(|r| (r.start as u32, new[r].to_vec()))
            .collect()
    }

    fn check(base: &[u8], new: &[u8]) -> Vec<(u32, Vec<u8>)> {
        let delta = diff(base, new);
        let mut page = base.to_vec();
        assert!(apply(&mut page, &delta));
        assert_eq!(page, new);
        // Applying again, or onto the result, changes nothing.
        assert!(apply(&mut page, &delta));
        assert_eq!(page, new);
        // Ascending and disjoint, gaps wider than MERGE_GAP.
        for pair in delta.windows(2) {
            let end = pair[0].0 as usize + pair[0].1.len();
            assert!(pair[1].0 as usize > end + MERGE_GAP);
        }
        delta
    }

    #[test]
    fn empty_whole_page_and_coalescing() {
        let base = vec![7u8; 4096];
        assert!(check(&base, &base).is_empty());

        let new = vec![9u8; 4096];
        let whole = check(&base, &new);
        assert_eq!(whole, vec![(0, new.clone())]);

        // Two changed words 16 bytes apart become one range; a third one
        // 24 bytes further stays separate.
        let mut new = base.clone();
        new[64] = 1;
        new[64 + 8 + MERGE_GAP] = 2;
        new[64 + 8 + MERGE_GAP + 8 + MERGE_GAP + 8] = 3;
        let delta = check(&base, &new);
        assert_eq!(delta.len(), 2);
        assert_eq!(delta[0].0, 64);
        assert_eq!(delta[0].1.len(), 8 + MERGE_GAP + 8);
        assert_eq!(delta[1].1.len(), 8);

        // Adjacent changed words are one range.
        let mut new = base.clone();
        new[128..144].fill(0);
        assert_eq!(check(&base, &new), vec![(128, vec![0u8; 16])]);
    }

    #[test]
    fn apply_of_delta_restores_the_new_image() {
        let mut rng = SmallRng::seed_from_u64(0x5EDA);
        for round in 0..300 {
            // Odd lengths exercise the sub-word tail.
            let len = match round % 3 {
                0 => 4096,
                1 => 16 * 1024,
                _ => rng.gen_range(1..600),
            };
            let base: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            let mut new = base.clone();
            for _ in 0..rng.gen_range(0..12) {
                let at = rng.gen_range(0..len);
                let run = rng.gen_range(1..=64usize).min(len - at);
                for b in &mut new[at..at + run] {
                    *b = rng.gen_range(0..=255u8);
                }
            }
            let delta = check(&base, &new);
            let ranges = changed_ranges(&base, &new);
            assert_eq!(
                encoded_len(&ranges),
                delta.iter().map(|(_, b)| 8 + b.len()).sum::<usize>()
            );
        }
    }

    #[test]
    fn replay_converges_from_any_state_of_the_chain() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let len = 2048;
        let mut states: Vec<Vec<u8>> = vec![(0..len).map(|_| rng.gen_range(0..=255u8)).collect()];
        let mut deltas = Vec::new();
        for _ in 0..8 {
            let mut next = states.last().unwrap().clone();
            for _ in 0..4 {
                let at = rng.gen_range(0..len - 32);
                for b in &mut next[at..at + 32] {
                    *b = rng.gen_range(0..=255u8);
                }
            }
            deltas.push(diff(states.last().unwrap(), &next));
            states.push(next);
        }
        let last = states.last().unwrap();
        // A slot holding, sector by sector, arbitrary states of the chain.
        let mut slot = vec![0u8; len];
        for (i, sector) in slot.chunks_mut(512).enumerate() {
            let k = rng.gen_range(0..states.len());
            sector.copy_from_slice(&states[k][i * 512..(i + 1) * 512]);
        }
        for d in &deltas {
            assert!(apply(&mut slot, d));
        }
        assert_eq!(&slot, last);
    }

    #[test]
    fn out_of_range_delta_is_refused() {
        let mut page = vec![0u8; 64];
        assert!(!apply(&mut page, &[(60, vec![1; 8])]));
        assert!(!apply(&mut page, &[(u32::MAX, vec![1])]));
        assert!(apply(&mut page, &[(56, vec![1; 8])]));
    }
}
