//! Session admission control: the lock-free protocol of the database
//! manager, extracted so the `loom_models` suite can exhaustively
//! interleave it under `--cfg loom` (see `docs/correctness.md`).

use sedna_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Admission control for sessions: a bounded concurrent counter with a
/// compare-and-swap admission path.
///
/// Invariant (checked by the `admission_gate_*` loom models and by
/// `debug_assert`s below): `opened == closed + active` at every
/// quiescent point, and with a non-zero bound `active` never exceeds it
/// — the CAS loop claims a slot atomically, so two racing admissions
/// can never both squeeze into the last slot.
#[derive(Debug, Default)]
pub(crate) struct SessionGate {
    /// Currently live sessions.
    active: AtomicUsize,
    /// Total sessions ever admitted.
    opened: AtomicU64,
    /// Total sessions released.
    closed: AtomicU64,
}

impl SessionGate {
    pub(crate) fn new() -> SessionGate {
        SessionGate::default()
    }

    /// Claims one session slot. With `max == 0` admission is unlimited;
    /// otherwise the claim fails (returning `false`) once `max` sessions
    /// are live. The matching [`SessionGate::release`] happens when the
    /// session drops.
    pub(crate) fn try_admit(&self, max: usize) -> bool {
        if max == 0 {
            // relaxed would do for the counter itself, but AcqRel keeps
            // the limited and unlimited paths symmetrical: a release
            // publishes session teardown to the next admission.
            self.active.fetch_add(1, Ordering::AcqRel);
        } else {
            // relaxed: just a hint for the CAS below, which re-validates;
            // a stale value costs one extra loop iteration.
            let mut cur = self.active.load(Ordering::Relaxed);
            loop {
                if cur >= max {
                    return false;
                }
                // AcqRel on success: acquire pairs with a releasing
                // `release()` (the slot we claim may have just been
                // vacated); release publishes the claim to later
                // admissions.
                match self.active.compare_exchange_weak(
                    cur,
                    cur + 1,
                    Ordering::AcqRel,
                    // relaxed: the failure value only re-seeds the loop.
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
        }
        // relaxed: lifetime accounting, ordered by the slot claim above
        // at every point a reader can also observe `active`.
        self.opened.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Returns a session slot claimed by [`SessionGate::try_admit`].
    pub(crate) fn release(&self) {
        // Release publishes the departing session's effects to the
        // admission that re-claims this slot.
        let prev = self.active.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "session release without a matching admit");
        // relaxed: lifetime accounting (see try_admit).
        self.closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Currently live sessions.
    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Total sessions ever admitted (diagnostics and model assertions).
    #[cfg_attr(not(all(test, loom)), allow(dead_code))]
    pub(crate) fn opened(&self) -> u64 {
        self.opened.load(Ordering::Acquire)
    }

    /// Total sessions released (diagnostics and model assertions).
    #[cfg_attr(not(all(test, loom)), allow(dead_code))]
    pub(crate) fn closed(&self) -> u64 {
        self.closed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_admission_never_fails() {
        let g = SessionGate::new();
        for _ in 0..10 {
            assert!(g.try_admit(0));
        }
        assert_eq!(g.active(), 10);
        for _ in 0..10 {
            g.release();
        }
        assert_eq!(g.active(), 0);
        assert_eq!(g.opened(), 10);
        assert_eq!(g.closed(), 10);
    }

    #[test]
    fn bounded_admission_enforces_the_limit() {
        let g = SessionGate::new();
        assert!(g.try_admit(2));
        assert!(g.try_admit(2));
        assert!(!g.try_admit(2), "third admission must be rejected");
        g.release();
        assert!(g.try_admit(2), "a released slot is reusable");
        assert_eq!(g.opened(), g.closed() + g.active() as u64);
    }
}
