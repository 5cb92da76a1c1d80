//! A deterministic time-ordered event queue.
//!
//! Simultaneous events pop in the order they were scheduled (FIFO
//! tie-breaking), which keeps runs reproducible even when many devices act
//! on the same millisecond tick.
//!
//! # Storage
//!
//! The queue is an *unsorted* vector, not a binary heap. The simulation
//! drains every due event once per tick, so the dominant operation is
//! "remove the whole due prefix in `(at, seq)` order", and a
//! partition-and-sort over a ~tens-of-entries vector beats paying heap
//! percolation on every push and pop. `pop`/`peek_time` degrade to a
//! linear minimum scan, which at these queue depths is still cheaper
//! than maintaining heap order — and the scalar-reference path that
//! leans on `pop_due` is a correctness oracle, not a speed path.

use bz_state::Persist;

use crate::time::SimTime;

/// An entry in the queue; ordered by time, then by insertion sequence.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// A deterministic priority queue of timed events.
///
/// # Example
///
/// ```
/// use bz_simcore::{EventQueue, SimTime};
///
/// let mut queue = EventQueue::new();
/// queue.schedule(SimTime::from_secs(1), "first");
/// queue.schedule(SimTime::from_secs(1), "second");
/// assert_eq!(queue.pop().unwrap().1, "first"); // FIFO among ties
/// assert_eq!(queue.pop().unwrap().1, "second");
/// assert!(queue.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    entries: Vec<Entry<E>>,
    next_seq: u64,
    obs: bz_obs::Handle,
    scheduled: bz_obs::CounterKey,
    popped: bz_obs::CounterKey,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with telemetry off (a private, disabled
    /// `bz_obs` handle); see [`EventQueue::with_obs`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_obs(bz_obs::Handle::default())
    }

    /// Creates an empty queue recording against `obs` (per-run metric
    /// isolation for parallel embeddings).
    #[must_use]
    pub fn with_obs(obs: bz_obs::Handle) -> Self {
        Self {
            entries: Vec::new(),
            next_seq: 0,
            obs,
            scheduled: bz_obs::CounterKey::from_static("simcore.event_queue.scheduled"),
            popped: bz_obs::CounterKey::from_static("simcore.event_queue.popped"),
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.obs.counter_inc_key(&self.scheduled);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Entry { at, seq, event });
    }

    /// Index of the earliest entry by `(at, seq)`, or `None` when empty.
    fn min_index(&self) -> Option<usize> {
        let mut iter = self.entries.iter().enumerate();
        let (mut best, first) = iter.next()?;
        let mut best_key = (first.at, first.seq);
        for (i, entry) in iter {
            let key = (entry.at, entry.seq);
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        Some(best)
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let i = self.min_index()?;
        let entry = self.entries.swap_remove(i);
        self.obs.counter_inc_key(&self.popped);
        Some((entry.at, entry.event))
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `now`; leaves the queue untouched otherwise.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        let i = self.min_index()?;
        if self.entries[i].at > now {
            return None;
        }
        let entry = self.entries.swap_remove(i);
        self.obs.counter_inc_key(&self.popped);
        Some((entry.at, entry.event))
    }

    /// Drains every event firing at or before `now` into `out`, in the
    /// exact order a `pop_due` loop would return them, and returns how
    /// many were drained.
    ///
    /// `out` is appended to (clear it between ticks to reuse its
    /// allocation). The throughput counter advances by the drained count
    /// in one step, so counter totals match the equivalent `pop_due`
    /// loop at any point between calls. The one semantic difference from
    /// a `pop_due` loop is deliberate: events the *handlers* schedule
    /// are not visible to the current drain — callers must only use this
    /// when handlers reschedule strictly beyond `now`, as the control
    /// tick loop does.
    pub fn drain_due_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        // Partition the due entries into the tail of the vector, then
        // sort just that tail: one pass plus a ~dozen-element sort per
        // tick, no per-event percolation.
        let mut i = 0;
        let mut end = self.entries.len();
        while i < end {
            if self.entries[i].at <= now {
                end -= 1;
                self.entries.swap(i, end);
            } else {
                i += 1;
            }
        }
        let due = &mut self.entries[end..];
        if due.is_empty() {
            return 0;
        }
        due.sort_unstable_by_key(|entry| (entry.at, entry.seq));
        let drained = due.len();
        for entry in self.entries.drain(end..) {
            out.push((entry.at, entry.event));
        }
        self.obs.counter_add_key(&self.popped, drained as u64);
        drained
    }

    /// The firing time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.min_index().map(|i| self.entries[i].at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: bz_state::Persist> EventQueue<E> {
    /// Serializes the queue contents — every pending `(at, seq, event)`
    /// triple plus the sequence allocator — in `(at, seq)` order, so the
    /// bytes are independent of the vector's insertion order.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        w.put_u64(self.next_seq);
        let mut entries: Vec<&Entry<E>> = self.entries.iter().collect();
        entries.sort_by_key(|entry| (entry.at, entry.seq));
        w.put_len(entries.len());
        for entry in entries {
            entry.at.save(w);
            w.put_u64(entry.seq);
            entry.event.save(w);
        }
    }

    /// Replaces the queue contents with previously saved state. The obs
    /// handle is untouched — it is wiring, not state.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        let next_seq = r.take_u64()?;
        let n = r.take_len()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let at = SimTime::load(r)?;
            let seq = r.take_u64()?;
            if seq >= next_seq {
                return Err(bz_state::StateError::Invalid {
                    what: "EventQueue entry",
                    reason: format!("seq {seq} >= next_seq {next_seq}"),
                });
            }
            let event = E::load(r)?;
            entries.push(Entry { at, seq, event });
        }
        self.entries = entries;
        self.next_seq = next_seq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "later");
        assert!(q.pop_due(SimTime::from_secs(9)).is_none());
        assert_eq!(q.len(), 1);
        let (t, e) = q.pop_due(SimTime::from_secs(10)).unwrap();
        assert_eq!(t, SimTime::from_secs(10));
        assert_eq!(e, "later");
        assert!(q.is_empty());
    }

    #[test]
    fn drain_due_into_matches_a_pop_due_loop() {
        let build = || {
            let mut q = EventQueue::with_obs(bz_obs::Handle::isolated());
            q.schedule(SimTime::from_secs(2), "b");
            q.schedule(SimTime::from_secs(1), "a");
            q.schedule(SimTime::from_secs(2), "c");
            q.schedule(SimTime::from_secs(5), "late");
            q
        };
        let now = SimTime::from_secs(2);
        let mut looped = Vec::new();
        let mut reference = build();
        while let Some(item) = reference.pop_due(now) {
            looped.push(item);
        }
        let mut drained = Vec::new();
        let mut queue = build();
        assert_eq!(queue.drain_due_into(now, &mut drained), 3);
        assert_eq!(drained, looped);
        assert_eq!(queue.len(), 1);
        // Reuse without clearing appends.
        assert_eq!(queue.drain_due_into(SimTime::from_secs(5), &mut drained), 1);
        assert_eq!(drained.len(), 4);
    }

    #[test]
    fn drain_due_into_counts_pops_in_one_step() {
        let obs = bz_obs::Handle::isolated();
        let mut q = EventQueue::with_obs(obs.clone());
        for i in 0..5 {
            q.schedule(SimTime::from_secs(i), i);
        }
        let mut out = Vec::new();
        q.drain_due_into(SimTime::from_secs(3), &mut out);
        assert_eq!(obs.snapshot().counters["simcore.event_queue.popped"], 4);
        // An empty drain records nothing.
        q.drain_due_into(SimTime::from_secs(3), &mut out);
        assert_eq!(obs.snapshot().counters["simcore.event_queue.popped"], 4);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
    }

    #[test]
    fn with_obs_counts_into_the_supplied_registry() {
        let obs = bz_obs::Handle::isolated();
        let mut q = EventQueue::with_obs(obs.clone());
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        let _ = q.pop();
        let counters = obs.snapshot().counters;
        assert_eq!(counters["simcore.event_queue.scheduled"], 2);
        assert_eq!(counters["simcore.event_queue.popped"], 1);
    }

    #[test]
    fn interleaved_schedule_and_drain_keeps_global_order() {
        // Drains interleaved with fresh schedules must still pop every
        // batch in (at, seq) order — the partition leaves later events
        // in arbitrary vector positions, so this exercises the re-sort.
        let mut q = EventQueue::with_obs(bz_obs::Handle::isolated());
        for i in 0..10u64 {
            q.schedule(SimTime::from_millis(1000 - i * 50), i);
        }
        let mut out = Vec::new();
        q.drain_due_into(SimTime::from_millis(700), &mut out);
        for i in 10..16u64 {
            q.schedule(SimTime::from_millis(600 + i * 30), i);
        }
        q.drain_due_into(SimTime::from_millis(2000), &mut out);
        let times: Vec<u64> = out.iter().map(|(t, _)| t.as_millis()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "drained batches must be time-ordered");
        assert_eq!(out.len(), 16);
        assert!(q.is_empty());
    }

    #[test]
    fn save_and_load_round_trip_preserves_order_and_seq() {
        let mut q = EventQueue::with_obs(bz_obs::Handle::isolated());
        q.schedule(SimTime::from_secs(3), 30u64);
        q.schedule(SimTime::from_secs(1), 10u64);
        q.schedule(SimTime::from_secs(1), 11u64);
        let mut w = bz_state::Writer::new();
        q.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = EventQueue::with_obs(bz_obs::Handle::isolated());
        let mut r = bz_state::Reader::new(&bytes);
        restored.load_state(&mut r).expect("load");
        let order: Vec<u64> = std::iter::from_fn(|| restored.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![10, 11, 30]);
        // The sequence allocator continues past the restored entries.
        restored.schedule(SimTime::from_secs(1), 99);
        let mut w2 = bz_state::Writer::new();
        restored.save_state(&mut w2);
        let bytes2 = w2.into_bytes();
        let mut r2 = bz_state::Reader::new(&bytes2);
        let next_seq = r2.take_u64().expect("next_seq");
        assert_eq!(next_seq, 4);
    }
}
