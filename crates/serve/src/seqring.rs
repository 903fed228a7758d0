//! The seqlock ring both forensic recorders publish into: the flight
//! recorder's span rings ([`crate::trace`], `W = 8`) and the event
//! journal ([`crate::events`], `W = 6`).
//!
//! A record is `W` plain atomic words. Writers claim a slot with one
//! `fetch_add` ticket, flip the slot's sequence odd with a CAS, store
//! the words, and publish by storing the next even sequence; a writer
//! that loses the odd-flip race (a lap collision: someone `capacity`
//! records ahead already owns the slot) drops its record and reports
//! `false` instead of spinning. Readers copy the words and keep the
//! copy only when the sequence was even and unchanged around the read.
//! No locks anywhere, so recording can sit on the admission path and
//! inside completion callbacks without ever stalling them.

use pcnn_sync::atomic::{fence, AtomicU64, Ordering};

/// One seqlock slot: an even, nonzero sequence publishes the words.
struct Slot<const W: usize> {
    seq: AtomicU64,
    words: [AtomicU64; W],
}

/// A bounded ring of `W`-word records; the oldest are overwritten.
pub(crate) struct SeqRing<const W: usize> {
    /// Total slots ever claimed; `head % capacity` is the next slot.
    head: AtomicU64,
    slots: Vec<Slot<W>>,
}

impl<const W: usize> SeqRing<W> {
    pub(crate) fn new(capacity: usize) -> Self {
        SeqRing {
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    /// Publishes one record. Returns `false` when the slot was lost to
    /// a lap-racing writer (the record is dropped, never waited for).
    pub(crate) fn push(&self, record: [u64; W]) -> bool {
        // ordering: ticket distribution only — the CAS below is what
        // transfers slot ownership, so the counter itself needs no
        // synchronization.
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(ticket % cap) as usize];
        // The slot's sequence after its previous publish (lap L - 1
        // published 2L; a never-written slot holds 0 = lap 0's expected
        // value). Claim it by flipping odd; losing the race means a
        // writer `capacity` records ahead already owns the slot.
        let expected = 2 * (ticket / cap);
        // ordering: AcqRel on success — Acquire to see the previous
        // lap's words before overwriting, Release to order our claim
        // after any prior writes. Relaxed on failure: a lost claim
        // touches nothing.
        if slot
            .seq
            .compare_exchange(expected, expected + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        // ordering: this Release fence pairs with the readers' Acquire
        // fence in `for_each`. Without it the relaxed word stores below
        // are not ordered after the odd-sequence claim from the
        // reader's point of view, so a reader could observe fresh words
        // yet still see the old even sequence on its re-check and
        // validate a torn record. (Found by the model checker's seqlock
        // test; the claim CAS's AcqRel does not order *later* relaxed
        // stores for remote observers.)
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(record) {
            // ordering: plain data words; the surrounding fence/Release
            // seq protocol publishes them, per-word ordering is not
            // needed.
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(expected + 2, Ordering::Release);
        true
    }

    /// Calls `visit` with every currently published record, in slot
    /// order; empty, mid-write and torn slots are skipped.
    pub(crate) fn for_each(&self, mut visit: impl FnMut(&[u64; W])) {
        for slot in &self.slots {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // empty or mid-write
            }
            let mut words = [0u64; W];
            for (v, w) in words.iter_mut().zip(&slot.words) {
                // ordering: speculative snapshot; the Acquire fence +
                // sequence re-check below discards it if a writer
                // intervened, so the loads themselves can be relaxed.
                *v = w.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            // ordering: the fence above pairs with the writer's Release
            // fence/store, so this re-check load needs no ordering of
            // its own — an unchanged even sequence proves the snapshot.
            if slot.seq.load(Ordering::Relaxed) == before {
                visit(&words);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records<const W: usize>(ring: &SeqRing<W>) -> Vec<[u64; W]> {
        let mut out = Vec::new();
        ring.for_each(|w| out.push(*w));
        out
    }

    #[test]
    fn records_round_trip_in_slot_order() {
        let ring = SeqRing::<3>::new(4);
        assert!(records(&ring).is_empty(), "never-written slots are skipped");
        for i in 0..3u64 {
            assert!(ring.push([i, i * 10, u64::MAX - i]));
        }
        let want: Vec<[u64; 3]> = (0..3).map(|i| [i, i * 10, u64::MAX - i]).collect();
        assert_eq!(records(&ring), want);
    }

    #[test]
    fn a_full_ring_overwrites_its_oldest_records() {
        let ring = SeqRing::<1>::new(4);
        for i in 0..10u64 {
            assert!(ring.push([i]), "a lone writer never loses a lap race");
        }
        let mut got = records(&ring);
        got.sort_unstable();
        assert_eq!(got, vec![[6], [7], [8], [9]]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one_slot() {
        let ring = SeqRing::<2>::new(0);
        assert!(ring.push([1, 2]));
        assert!(ring.push([3, 4]));
        assert_eq!(records(&ring), vec![[3, 4]]);
    }
}

/// The seqlock under the deterministic model checker, including its
/// simulated weak memory: the writer's Release fence between the
/// odd-sequence claim and the word stores is load-bearing (the reduced
/// shape lives in `pcnn-sync`'s self-tests). Compiled only under the
/// `model-check` facade.
#[cfg(all(test, any(pcnn_model_check, feature = "model-check")))]
mod model_tests {
    use super::*;
    use pcnn_sync::model::{check, CheckOptions};
    use pcnn_sync::{thread, Arc};

    /// One slot, two writers, one concurrent reader: maximum
    /// contention on the seq protocol.
    fn never_validates_a_torn_record_at<const W: usize>(name: &str) {
        let opts = CheckOptions {
            exhaustive_schedules: 2_000,
            random_schedules: 1_000,
            ..CheckOptions::default()
        };
        let report = check(name, opts, || {
            let ring = Arc::new(SeqRing::<W>::new(1));
            let (a, b) = ([1u64; W], [2u64; W]);
            let writers = [a, b].map(|record| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || ring.push(record))
            });
            let reader = {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    let mut out = Vec::new();
                    ring.for_each(|w| out.push(*w));
                    out
                })
            };
            // Anything the racing reader validated is one of the two
            // records in full — never a mix of their words.
            for r in reader.join().unwrap() {
                assert!(r == a || r == b, "reader validated a torn record: {r:?}");
            }
            let published = writers.map(|w| w.join().unwrap());
            // The ticket-0 writer's claim always lands; a quiescent
            // read decodes the last publisher's record intact.
            assert!(published.contains(&true), "no writer claimed the slot");
            let mut fin = Vec::new();
            ring.for_each(|w| fin.push(*w));
            assert_eq!(fin.len(), 1, "slot published exactly one record");
            assert!(fin[0] == a || fin[0] == b);
        });
        assert!(report.schedules_run > 0);
    }

    #[test]
    fn never_validates_a_torn_record() {
        never_validates_a_torn_record_at::<6>("seqring-6-words");
        never_validates_a_torn_record_at::<8>("seqring-8-words");
    }
}
