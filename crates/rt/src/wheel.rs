//! A hashed timer wheel for the worker-pool runtime.
//!
//! Each worker owns one wheel shard holding the pending timers of every
//! logical node assigned to that worker, replacing the per-node
//! `BinaryHeap` + `recv_timeout` loop of the thread-per-node runtime.
//! The wheel is a ring of `SLOTS` buckets, `TICK` wide each
//! (~1 s of total span); timers further out sit in an overflow heap and
//! migrate into the ring as the cursor advances. An occupancy bitmask
//! makes `TimerWheel::next_deadline` a couple of word scans, so the
//! worker can park on `recv_deadline` against the exact next due
//! `Instant` — timers fire by absolute deadline, never by a recomputed
//! relative wait (the drift bug of the old loop).
//!
//! Cancellation is handled above the wheel: entries carry the owning
//! node's timer `epoch`, and the worker drops fired entries whose epoch
//! is stale (node crashed, was killed, or restarted) or whose id is in
//! the node's cancelled set. The wheel itself never removes entries
//! early, which keeps inserts O(1).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Bucket width. 1 ms keeps firing granularity well under the
/// millisecond-scale protocol timers while bounding ring memory.
const TICK: Duration = Duration::from_millis(1);
/// Ring size; must be a multiple of 64 for the occupancy bitmask.
const SLOTS: usize = 1024;
/// Occupancy bitmask words.
const WORDS: usize = SLOTS / 64;

/// One armed timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimerEntry {
    /// Absolute deadline.
    pub due: Instant,
    /// Dense index of the owning node.
    pub node: u32,
    /// The owning node's timer epoch at arm time; a mismatch at fire
    /// time means the node crashed/restarted since and the timer is
    /// dead.
    pub epoch: u32,
    /// Driver-assigned timer id (for the cancelled set).
    pub id: u64,
    /// The node-chosen tag passed back to `on_timer`.
    pub tag: u64,
}

/// Orders overflow entries earliest-first under `Reverse`.
#[derive(Debug, PartialEq, Eq)]
struct OverflowEntry(TimerEntry);

impl Ord for OverflowEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.due.cmp(&other.0.due).then(self.0.id.cmp(&other.0.id))
    }
}
impl PartialOrd for OverflowEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One worker's shard of the deployment-wide timer state.
#[derive(Debug)]
pub(crate) struct TimerWheel {
    /// Time zero; ticks are measured from here.
    origin: Instant,
    /// The ring. Entries in slot `t % SLOTS` have tick `t` in
    /// `[cursor, cursor + SLOTS)`.
    slots: Vec<Vec<TimerEntry>>,
    /// One bit per slot: set when the slot is non-empty.
    occupied: [u64; WORDS],
    /// First tick not yet fully elapsed and drained.
    cursor: u64,
    /// Timers due beyond the ring span.
    overflow: BinaryHeap<Reverse<OverflowEntry>>,
    /// Entries already matured out of the ring, sorted by (due, id),
    /// consumed front to back.
    due: Vec<TimerEntry>,
    /// Index of the next unconsumed entry in `due`.
    due_next: usize,
    /// Total armed entries across ring + overflow + matured buffer.
    len: usize,
}

impl TimerWheel {
    /// An empty wheel with its tick origin at `origin`.
    pub fn new(origin: Instant) -> Self {
        TimerWheel {
            origin,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            cursor: 0,
            overflow: BinaryHeap::new(),
            due: Vec::new(),
            due_next: 0,
            len: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.origin).as_nanos() / TICK.as_nanos()) as u64
    }

    /// Whether no timers are armed at all.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arms a timer.
    pub fn insert(&mut self, entry: TimerEntry) {
        self.len += 1;
        let tick = self.tick_of(entry.due);
        if tick < self.cursor {
            // Already elapsed: mature it straight into the due buffer.
            let at = self
                .due
                .iter()
                .skip(self.due_next)
                .position(|e| (e.due, e.id) > (entry.due, entry.id))
                .map(|p| self.due_next + p)
                .unwrap_or(self.due.len());
            self.due.insert(at, entry);
        } else if tick - self.cursor < SLOTS as u64 {
            let slot = (tick % SLOTS as u64) as usize;
            self.slots[slot].push(entry);
            self.occupied[slot / 64] |= 1u64 << (slot % 64);
        } else {
            self.overflow.push(Reverse(OverflowEntry(entry)));
        }
    }

    /// Matures every entry due at or before `now` into the due buffer,
    /// advancing the cursor and pulling overflow timers into the ring as
    /// their ticks come within span.
    fn advance(&mut self, now: Instant) {
        let now_tick = self.tick_of(now);
        // Fully-elapsed slots drain wholesale.
        while self.cursor < now_tick {
            let slot = (self.cursor % SLOTS as u64) as usize;
            if !self.slots[slot].is_empty() {
                let drained = std::mem::take(&mut self.slots[slot]);
                // Same-slot entries from a future lap go back.
                for e in drained {
                    let tick = self.tick_of(e.due);
                    if tick <= self.cursor {
                        self.due.push(e);
                    } else {
                        self.slots[slot].push(e);
                    }
                }
                if self.slots[slot].is_empty() {
                    self.occupied[slot / 64] &= !(1u64 << (slot % 64));
                }
            }
            self.cursor += 1;
            // Overflow entries whose tick just came within span join the
            // ring lazily, one span edge at a time.
            let edge = self.cursor + SLOTS as u64 - 1;
            while let Some(Reverse(OverflowEntry(e))) = self.overflow.peek() {
                if self.tick_of(e.due) > edge {
                    break;
                }
                let Reverse(OverflowEntry(e)) = self.overflow.pop().expect("peeked");
                let slot = (self.tick_of(e.due).max(self.cursor) % SLOTS as u64) as usize;
                self.slots[slot].push(e);
                self.occupied[slot / 64] |= 1u64 << (slot % 64);
            }
        }
        // The partial slot containing `now`: extract only what is due.
        let slot = (self.cursor % SLOTS as u64) as usize;
        if self.slots[slot].iter().any(|e| e.due <= now) {
            let bucket = std::mem::take(&mut self.slots[slot]);
            for e in bucket {
                if e.due <= now {
                    self.due.push(e);
                } else {
                    self.slots[slot].push(e);
                }
            }
            if self.slots[slot].is_empty() {
                self.occupied[slot / 64] &= !(1u64 << (slot % 64));
            }
        }
        // Keep the matured buffer deterministic within this worker.
        if self.due.len() > self.due_next + 1 {
            self.due[self.due_next..].sort_by_key(|e| (e.due, e.id));
        }
    }

    /// Takes the next timer due at or before `now`, earliest (due, id)
    /// first.
    pub fn pop_due(&mut self, now: Instant) -> Option<TimerEntry> {
        if self.due_next >= self.due.len() {
            self.due.clear();
            self.due_next = 0;
            if self.len == 0 {
                return None;
            }
            self.advance(now);
        }
        if self.due_next < self.due.len() {
            let entry = self.due[self.due_next];
            self.due_next += 1;
            self.len -= 1;
            return Some(entry);
        }
        None
    }

    /// The earliest armed deadline, for the worker's parked wait.
    pub fn next_deadline(&self) -> Option<Instant> {
        let mut best: Option<Instant> = None;
        if let Some(e) = self.due.get(self.due_next) {
            best = Some(e.due);
        }
        // First occupied slot at or after the cursor (two laps of the
        // bitmask cover the wrap).
        let start = (self.cursor % SLOTS as u64) as usize;
        'scan: for step in 0..=WORDS {
            let word_index = (start / 64 + step) % WORDS;
            let mut word = self.occupied[word_index];
            if step == 0 {
                word &= !0u64 << (start % 64);
            }
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                let slot = word_index * 64 + bit;
                for e in &self.slots[slot] {
                    if best.is_none_or(|b| e.due < b) {
                        best = Some(e.due);
                    }
                }
                word &= word - 1;
                // One non-empty slot bounds the search: anything in a
                // later slot of this scan can still be earlier only
                // within the same lap ambiguity, so keep scanning the
                // current word but stop after it.
            }
            if best.is_some() && step > 0 {
                break 'scan;
            }
        }
        if let Some(Reverse(OverflowEntry(e))) = self.overflow.peek() {
            if best.is_none_or(|b| e.due < b) {
                best = Some(e.due);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(due: Instant, id: u64) -> TimerEntry {
        TimerEntry { due, node: 0, epoch: 0, id, tag: id }
    }

    #[test]
    fn fires_in_due_order_across_slots_and_overflow() {
        let origin = Instant::now();
        let mut wheel = TimerWheel::new(origin);
        // Deliberately out of order: far overflow, near ring, elapsed.
        wheel.insert(entry(origin + Duration::from_secs(3), 1));
        wheel.insert(entry(origin + Duration::from_millis(5), 2));
        wheel.insert(entry(origin, 3));
        wheel.insert(entry(origin + Duration::from_millis(5), 4));

        let now = origin + Duration::from_millis(10);
        assert_eq!(wheel.pop_due(now).map(|e| e.id), Some(3));
        assert_eq!(wheel.pop_due(now).map(|e| e.id), Some(2));
        assert_eq!(wheel.pop_due(now).map(|e| e.id), Some(4));
        assert_eq!(wheel.pop_due(now), None, "the 3s timer is not due yet");
        assert!(!wheel.is_empty());

        let later = origin + Duration::from_secs(4);
        assert_eq!(wheel.pop_due(later).map(|e| e.id), Some(1));
        assert!(wheel.is_empty());
        assert_eq!(wheel.pop_due(later), None);
    }

    #[test]
    fn next_deadline_tracks_the_earliest_timer() {
        let origin = Instant::now();
        let mut wheel = TimerWheel::new(origin);
        assert_eq!(wheel.next_deadline(), None);
        let far = origin + Duration::from_secs(9);
        wheel.insert(entry(far, 1));
        assert_eq!(wheel.next_deadline(), Some(far), "overflow peeks through");
        let near = origin + Duration::from_millis(7);
        wheel.insert(entry(near, 2));
        assert_eq!(wheel.next_deadline(), Some(near));
        // Consuming the near timer restores the far deadline.
        assert_eq!(wheel.pop_due(origin + Duration::from_millis(8)).map(|e| e.id), Some(2));
        assert_eq!(wheel.next_deadline(), Some(far));
    }

    #[test]
    fn lap_wrap_does_not_fire_future_timers_early() {
        let origin = Instant::now();
        let mut wheel = TimerWheel::new(origin);
        // Two timers hash to the same slot, one lap apart (1.024s span).
        let near = origin + Duration::from_millis(100);
        let lap = near + Duration::from_millis(1024);
        wheel.insert(entry(near, 1));
        wheel.insert(entry(lap, 2));
        let mid = origin + Duration::from_millis(200);
        assert_eq!(wheel.pop_due(mid).map(|e| e.id), Some(1));
        assert_eq!(wheel.pop_due(mid), None, "the next-lap timer must wait");
        assert_eq!(wheel.pop_due(lap + Duration::from_millis(1)).map(|e| e.id), Some(2));
    }

    #[test]
    fn thousands_of_timers_drain_completely() {
        let origin = Instant::now();
        let mut wheel = TimerWheel::new(origin);
        for i in 0..5_000u64 {
            wheel.insert(entry(origin + Duration::from_micros(i * 997), i));
        }
        let mut fired = Vec::new();
        let mut now = origin;
        while !wheel.is_empty() {
            now += Duration::from_millis(50);
            while let Some(e) = wheel.pop_due(now) {
                assert!(e.due <= now, "never fires early");
                fired.push(e.id);
            }
        }
        assert_eq!(fired.len(), 5_000);
        let mut sorted = fired.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5_000, "every timer fires exactly once");
    }
}
