//! The time-ordered queue both executors run on.
//!
//! The simulator's hot loop is dominated by event-queue traffic: every
//! message hop, timer, crash, and recovery passes through one priority
//! queue ordered by `(time, seq)`. A single global `BinaryHeap` makes each
//! push/pop `O(log n)` over the *whole* pending set — at planet scale
//! (tens of thousands of hosts, millions of in-flight events) the heap's
//! pointer-chasing comparisons become the profile's hottest frames.
//!
//! [`Calendar`] replaces it with a **bucketed calendar queue**: near-future
//! events are spread across fixed-width time buckets, far-future events
//! wait in an unsorted overflow list and are redistributed when the
//! scanning window catches up. Pops scan a bitmask of occupied buckets,
//! so the common case touches only the events that share a ~4 ms slice
//! of time. As in Brown's calendar queue (CACM 1988), the ordered
//! structures hold only keys: each bucket is a small heap of 24-byte
//! `(time, seq, slot, generation)` keys, and the items themselves stay
//! put in a slab from push to pop, so a sift moves a key, never an item.
//! The same queue holds the simulated world's events, each live runtime
//! worker's timers and the live chaos transport's delayed deliveries; the
//! live users key it by nanoseconds since their epoch.
//!
//! **A cancel frees its item at once.** A push returns a [`Handle`]: the
//! item's slot and the slot's generation, which each pop or cancel
//! bumps. [`Calendar::cancel`] takes the item out of its slot in `O(1)`,
//! as a hashed timing wheel does (Varghese and Lauck, SOSP 1987); its key
//! stays behind, dead, until a pop or a rebase meets it or the dead keys
//! outnumber both the live items and a floor, when one pass drops them
//! all. A stale handle — its item popped, cancelled, or its slot reused —
//! cancels nothing.
//!
//! **Ordering is bit-identical to the naive heap.** The calendar pops in
//! strict `(time, seq)` order — buckets partition the timeline, so the first
//! occupied bucket always holds the globally minimal event, and within a
//! bucket the per-bucket heap restores the total order. The overflow need
//! not be sorted: a rebase scans it for its minimum and moves every key
//! inside the new window into its bucket's heap. The naive heap survives
//! only in this module's tests, as the parity reference.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::time::SimTime;

/// Log2 of the bucket width in nanoseconds (2^22 ns ≈ 4.19 ms).
const WIDTH_SHIFT: u32 = 22;
/// Number of buckets in the scanning window (must be a multiple of 64).
const NBUCKETS: usize = 1024;
/// Bitmask words covering `NBUCKETS` buckets.
const WORDS: usize = NBUCKETS / 64;
/// The window span in nanoseconds (~4.3 seconds).
const WINDOW_NS: u64 = (NBUCKETS as u64) << WIDTH_SHIFT;
/// Dead keys the queue may hold beyond its live items before one pass
/// drops them all.
const DEAD_FLOOR: usize = 1024;

/// A queued item's place in the order, and the slab slot holding it in
/// the generation it was pushed in. Fields compare in declaration order:
/// time first, then push order (FIFO among simultaneous items); `seq` is
/// unique, so `slot` and `gen` never decide.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

/// Names one pushed item for [`Calendar::cancel`]. It goes stale when
/// the item pops or is cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handle {
    slot: u32,
    gen: u32,
}

/// One slab slot: its item while a live key names it, and its
/// generation, which moves on when the item leaves.
struct Slot<T> {
    gen: u32,
    item: Option<T>,
}

type MinHeap = BinaryHeap<Reverse<Key>>;

/// Pops the heap's minimum if it is due at or before `limit`.
fn pop_if_due(heap: &mut MinHeap, limit: SimTime) -> Option<Key> {
    let top = heap.peek_mut()?;
    if top.0.at > limit {
        return None;
    }
    Some(PeekMut::pop(top).0)
}

/// A time-ordered queue: a sliding window of 1024 buckets ~4.2 ms wide
/// starting at `base`, an overflow list for items beyond the window and
/// a rarely-used `front` heap for items before `base` (possible right
/// after a window rebase jumped forward). Items pop in `(time, push
/// order)` order.
///
/// # Examples
///
/// ```
/// use wanacl_sim::queue::Calendar;
/// use wanacl_sim::time::SimTime;
///
/// let mut q = Calendar::new();
/// q.push(SimTime::from_millis(20), "late");
/// let never = q.push(SimTime::from_millis(1), "cancelled");
/// q.push(SimTime::from_millis(5), "early");
/// assert_eq!(q.cancel(never), Some("cancelled"));
/// assert_eq!(q.next_time(), Some(SimTime::from_millis(5)));
/// assert_eq!(q.pop_due(SimTime::from_millis(10)), Some((SimTime::from_millis(5), "early")));
/// assert_eq!(q.pop_due(SimTime::from_millis(10)), None, "not due yet");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(20), "late")));
/// assert_eq!(q.cancel(never), None, "a stale handle");
/// ```
pub struct Calendar<T> {
    /// Window start in nanoseconds, aligned down to the bucket width.
    base: u64,
    /// Bucket index to start pop scans from; no bucket before it is
    /// occupied.
    cursor: usize,
    buckets: Vec<MinHeap>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Keys at or beyond `base + WINDOW_NS`, in no order.
    overflow: Vec<Key>,
    /// Keys before `base`. Non-empty only between a forward rebase and
    /// the next bucket pop; always drained first.
    front: MinHeap,
    /// The items, each in the slot its key names until it pops or is
    /// cancelled.
    slots: Vec<Slot<T>>,
    /// The empty slots, reused before the slab grows.
    free: Vec<u32>,
    /// Keys still queued whose item was cancelled.
    dead: usize,
    /// Push counter: the tie-break among items due at the same time.
    seq: u64,
}

impl<T> std::fmt::Debug for Calendar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Calendar").field("len", &self.len()).finish_non_exhaustive()
    }
}

impl<T> Default for Calendar<T> {
    fn default() -> Self {
        let mut buckets = Vec::with_capacity(NBUCKETS);
        buckets.resize_with(NBUCKETS, BinaryHeap::new);
        Calendar {
            base: 0,
            cursor: 0,
            buckets,
            occupied: [0; WORDS],
            overflow: Vec::new(),
            front: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            dead: 0,
            seq: 0,
        }
    }
}

impl<T> Calendar<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued items; a cancelled one is gone.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no item is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queues `item` at time `at`; among items at the same time, the
    /// earlier push pops first. The handle cancels it.
    pub fn push(&mut self, at: SimTime, item: T) -> Handle {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].item = Some(item);
                slot
            }
            None => {
                // Slots count the most items ever queued at once, far
                // below 2^32.
                self.slots.push(Slot { gen: 0, item: Some(item) });
                (self.slots.len() - 1) as u32
            }
        };
        let handle = Handle { slot, gen: self.slots[slot as usize].gen };
        let key = Key { at, seq: self.seq, slot, gen: handle.gen };
        self.seq += 1;
        let t = at.as_nanos();
        if t < self.base {
            self.front.push(Reverse(key));
            return handle;
        }
        let off = (t - self.base) >> WIDTH_SHIFT;
        if off >= NBUCKETS as u64 {
            self.overflow.push(key);
        } else {
            let idx = off as usize;
            self.file(idx, key);
            // A live queue's pushes are stamped on other threads and may
            // precede the last pop: the scan moves back to them.
            self.cursor = self.cursor.min(idx);
        }
        handle
    }

    /// Takes the item out of the queue now, if the handle is not stale.
    pub fn cancel(&mut self, handle: Handle) -> Option<T> {
        let item = self.take(handle.slot, handle.gen)?;
        self.dead += 1;
        self.collect();
        Some(item)
    }

    /// Takes the item in `slot` if it is still in generation `gen`; the
    /// slot moves to the next generation and is freed.
    fn take(&mut self, slot: u32, gen: u32) -> Option<T> {
        let s = self.slots.get_mut(slot as usize).filter(|s| s.gen == gen)?;
        s.gen = s.gen.wrapping_add(1);
        let item = s.item.take();
        self.free.push(slot);
        item
    }

    /// Whether `key`'s item is still queued.
    fn live(slots: &[Slot<T>], key: &Key) -> bool {
        slots[key.slot as usize].gen == key.gen
    }

    /// Drops every dead key once they outnumber both the live items and
    /// [`DEAD_FLOOR`], so the keys held stay within twice the items (or
    /// the floor), and each cancel pays for the pass in `O(1)`.
    fn collect(&mut self) {
        if self.dead <= DEAD_FLOOR || self.dead <= self.len() {
            return;
        }
        let slots = &self.slots;
        for (idx, bucket) in self.buckets.iter_mut().enumerate() {
            bucket.retain(|Reverse(k)| Self::live(slots, k));
            if bucket.is_empty() {
                self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
            }
        }
        self.overflow.retain(|k| Self::live(slots, k));
        self.front.retain(|Reverse(k)| Self::live(slots, k));
        self.dead = 0;
    }

    /// Puts `key` in bucket `idx` and marks the bucket occupied.
    fn file(&mut self, idx: usize, key: Key) {
        self.buckets[idx].push(Reverse(key));
        self.occupied[idx >> 6] |= 1u64 << (idx & 63);
    }

    /// First occupied bucket at or after `from`, via the bitmask.
    fn first_occupied(&self, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        if w >= WORDS {
            return None;
        }
        let mut word = self.occupied[w] & (!0u64 << (from & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= WORDS {
                return None;
            }
            word = self.occupied[w];
        }
    }

    /// Drops the overflow's dead keys, then slides the window forward so
    /// the overflow minimum lands in a bucket, moving every overflow key
    /// that now fits into its bucket. Callers guarantee the buckets and
    /// `front` are empty.
    fn rebase(&mut self) {
        debug_assert!(self.front.is_empty());
        let held = self.overflow.len();
        let slots = &self.slots;
        self.overflow.retain(|k| Self::live(slots, k));
        self.dead -= held - self.overflow.len();
        let Some(min) = self.overflow.iter().map(|k| k.at.as_nanos()).min() else { return };
        self.base = min >> WIDTH_SHIFT << WIDTH_SHIFT;
        self.cursor = 0;
        let end = self.base.saturating_add(WINDOW_NS);
        let mut i = 0;
        while let Some(&key) = self.overflow.get(i) {
            let t = key.at.as_nanos();
            if t < end {
                self.overflow.swap_remove(i);
                self.file(((t - self.base) >> WIDTH_SHIFT) as usize, key);
            } else {
                i += 1;
            }
        }
    }

    /// Index of the bucket holding the next key, rebasing the window if
    /// it has been exhausted. `None` when only `front` has keys (or the
    /// queue holds none).
    fn next_bucket(&mut self) -> Option<usize> {
        if let Some(idx) = self.first_occupied(self.cursor) {
            return Some(idx);
        }
        if self.front.is_empty() && !self.overflow.is_empty() {
            self.rebase();
            return self.first_occupied(self.cursor);
        }
        None
    }

    /// The next key, live or dead, without removing it.
    fn peek_key(&mut self) -> Option<Key> {
        // `front` keys are strictly earlier than anything in a bucket or
        // the overflow (all ≥ base), so they win unconditionally.
        if let Some(Reverse(k)) = self.front.peek() {
            return Some(*k);
        }
        let idx = self.next_bucket()?;
        self.buckets[idx].peek().map(|Reverse(k)| *k)
    }

    /// Removes the next key, live or dead, if it is due at or before
    /// `limit`, in one scan.
    fn pop_key(&mut self, limit: SimTime) -> Option<Key> {
        if !self.front.is_empty() {
            return pop_if_due(&mut self.front, limit);
        }
        let idx = self.next_bucket()?;
        let key = pop_if_due(&mut self.buckets[idx], limit)?;
        if self.buckets[idx].is_empty() {
            self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
        }
        self.cursor = idx;
        Some(key)
    }

    /// The time of the next item, without removing it.
    pub fn next_time(&mut self) -> Option<SimTime> {
        loop {
            let key = self.peek_key()?;
            if Self::live(&self.slots, &key) {
                return Some(key.at);
            }
            self.pop_key(key.at);
            self.dead -= 1;
        }
    }

    /// Removes and returns the next item if it is due at or before
    /// `limit`.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, T)> {
        loop {
            let key = self.pop_key(limit)?;
            match self.take(key.slot, key.gen) {
                Some(item) => {
                    self.collect();
                    return Some((key.at, item));
                }
                None => self.dead -= 1,
            }
        }
    }

    /// Removes and returns the next item.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_due(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parity reference: one global heap in `(time, push order)`.
    #[derive(Default)]
    struct NaiveHeap {
        heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
        seq: u64,
    }

    impl NaiveHeap {
        fn push(&mut self, at: SimTime, kind: u32) {
            self.heap.push(Reverse((at, self.seq, kind)));
            self.seq += 1;
        }

        fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, u32)> {
            let Reverse((at, _, kind)) = *self.heap.peek()?;
            if at > limit {
                return None;
            }
            self.heap.pop();
            Some((at, kind))
        }

        fn pop(&mut self) -> Option<(SimTime, u32)> {
            self.pop_due(SimTime::MAX)
        }

        fn next_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((at, _, _))| *at)
        }

        /// Takes out the item pushed as `kind`, if it is still queued.
        fn remove(&mut self, kind: u32) -> Option<u32> {
            let held = self.heap.len();
            self.heap.retain(|Reverse((_, _, k))| *k != kind);
            (self.heap.len() < held).then_some(kind)
        }
    }

    impl<T> Calendar<T> {
        /// Keys held, live and dead.
        fn keys(&self) -> usize {
            self.buckets.iter().map(BinaryHeap::len).sum::<usize>() + self.overflow.len() + self.front.len()
        }
    }

    fn drain(mut pop: impl FnMut() -> Option<(SimTime, u32)>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, kind)) = pop() {
            out.push((at.as_nanos(), kind));
        }
        out
    }

    /// The calendar and the naive heap must agree with a reference sort
    /// on a mixed near/far/simultaneous schedule.
    #[test]
    fn calendar_matches_heap_order() {
        let times: Vec<u64> = vec![
            0,
            1,
            5_000_000,
            5_000_000, // simultaneous: FIFO by seq
            WINDOW_NS + 17,
            3 * WINDOW_NS + 999,
            42,
            WINDOW_NS - 1,
            WINDOW_NS,
            1_000,
        ];
        let mut cal = Calendar::new();
        let mut heap = NaiveHeap::default();
        for (seq, &t) in times.iter().enumerate() {
            cal.push(SimTime::from_nanos(t), seq as u32);
            heap.push(SimTime::from_nanos(t), seq as u32);
        }
        let mut expect: Vec<(u64, u32)> =
            times.iter().enumerate().map(|(s, &t)| (t, s as u32)).collect();
        expect.sort_by_key(|&(t, s)| (t, s));
        assert_eq!(drain(|| cal.pop()), expect);
        assert_eq!(drain(|| heap.pop()), expect);
    }

    /// Pushes after a forward rebase may land before the new window base;
    /// the front heap must keep them first.
    #[test]
    fn push_before_base_after_rebase_stays_ordered() {
        let mut q = Calendar::new();
        // Far-future event forces a rebase on first peek.
        q.push(SimTime::from_nanos(10 * WINDOW_NS), 0u32);
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(10 * WINDOW_NS)));
        // Now schedule something earlier than the rebased window.
        q.push(SimTime::from_nanos(5), 1);
        q.push(SimTime::from_nanos(7), 2);
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(drain(|| q.pop()), vec![(5, 1), (7, 2), (10 * WINDOW_NS, 0)]);
    }

    /// Randomized interleaving of pushes, pops and cancels must match
    /// the naive heap exactly, including FIFO among equal timestamps and
    /// items tens of windows out, which wait in the overflow heap and
    /// drain through forward rebases past empty stretches of the
    /// timeline. A cancel names any item pushed so far, popped and
    /// cancelled ones too.
    #[test]
    fn randomized_parity_with_heap() {
        use crate::rng::SimRng;
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut cal = Calendar::new();
            let mut heap = NaiveHeap::default();
            let mut handles = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut popped = Vec::new();
            for _ in 0..2_000 {
                if seq > 0 && rng.chance(0.2) {
                    let kind = rng.range(0, seq) as u32;
                    assert_eq!(cal.cancel(handles[kind as usize]), heap.remove(kind), "seed {seed}");
                } else if rng.chance(0.6) || cal.is_empty() {
                    // Push at now + a delay spanning near & far future,
                    // with plenty of exact collisions.
                    let delay = match rng.range(0, 5) {
                        0 => 0,
                        1 => rng.range(0, 1_000_000),
                        2 => rng.range(0, WINDOW_NS),
                        3 => rng.range(0, 4 * WINDOW_NS),
                        _ => rng.range(10 * WINDOW_NS, 100 * WINDOW_NS),
                    };
                    let at = SimTime::from_nanos(now + delay);
                    handles.push(cal.push(at, seq as u32));
                    heap.push(at, seq as u32);
                    seq += 1;
                } else {
                    let a = cal.pop().expect("non-empty");
                    let b = heap.pop().expect("same length");
                    assert_eq!((a.0, a.1), (b.0, b.1), "seed {seed}");
                    now = a.0.as_nanos();
                    popped.push(a);
                }
            }
            // Drain the rest.
            while let Some(a) = cal.pop() {
                let b = heap.pop().expect("same length");
                assert_eq!((a.0, a.1), (b.0, b.1), "seed {seed}");
                popped.push(a);
            }
            assert!(heap.pop().is_none());
            // The merged sequence must be sorted by (time, seq).
            for pair in popped.windows(2) {
                assert!(
                    (pair[0].0, pair[0].1) <= (pair[1].0, pair[1].1),
                    "out of order at seed {seed}"
                );
            }
        }
    }

    /// The live pattern: pushes are stamped on other threads and may
    /// precede the last pop, pops take only what a clock says is due,
    /// handlers cancel timers they armed, and an idle loop parks on
    /// `next_time`. The calendar must stay in step with the naive heap
    /// throughout (due order across buckets and overflow, `next_time`
    /// the earliest live item), never hand out an item past its limit,
    /// and drain every item it was not told to cancel.
    #[test]
    fn live_pattern_parity_with_heap() {
        use crate::rng::SimRng;
        let ms = SimTime::from_millis;
        let mut q = Calendar::new();
        q.push(ms(10), 0u32);
        assert_eq!(q.pop(), Some((ms(10), 0)));
        q.push(ms(1), 1);
        q.push(ms(20), 2);
        assert_eq!(q.pop(), Some((ms(1), 1)), "a push behind the last pop comes first");
        assert_eq!(q.pop(), Some((ms(20), 2)));

        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut cal = Calendar::new();
            let mut heap = NaiveHeap::default();
            let mut handles = Vec::new();
            let (mut pushed, mut popped, mut cancelled, mut clock) = (0u32, 0u32, 0u32, 0u64);
            for _ in 0..6_000 {
                match rng.range(0, 4) {
                    0 => {
                        let at = match rng.range(0, 3) {
                            0 => clock.saturating_sub(rng.range(0, 50_000_000)),
                            1 => clock + rng.range(0, 100_000_000),
                            _ => clock + rng.range(0, 3 * WINDOW_NS),
                        };
                        handles.push(cal.push(SimTime::from_nanos(at), pushed));
                        heap.push(SimTime::from_nanos(at), pushed);
                        pushed += 1;
                    }
                    1 if pushed > 0 => {
                        let kind = rng.range(0, u64::from(pushed)) as u32;
                        let gone = cal.cancel(handles[kind as usize]);
                        assert_eq!(gone, heap.remove(kind), "seed {seed}");
                        cancelled += u32::from(gone.is_some());
                    }
                    2 => {
                        clock += rng.range(0, 20_000_000);
                        let limit = SimTime::from_nanos(clock);
                        while let Some(item) = cal.pop_due(limit) {
                            assert!(item.0 <= limit, "seed {seed}: popped past the limit");
                            assert_eq!(Some(item), heap.pop_due(limit), "seed {seed}");
                            popped += 1;
                        }
                        assert!(heap.next_time().is_none_or(|t| t > limit), "seed {seed}");
                    }
                    _ => assert_eq!(cal.next_time(), heap.next_time(), "seed {seed}"),
                }
            }
            while let Some(item) = cal.pop() {
                assert_eq!(Some(item), heap.pop(), "seed {seed}");
                popped += 1;
            }
            assert!(heap.heap.is_empty() && pushed > 1_000 && cancelled > 100);
            assert_eq!(popped + cancelled, pushed, "seed {seed}: every item drains or is cancelled");
        }
    }

    /// Sifts move keys, not items: a key that grows past 24 bytes gives
    /// back what keeping items in the slab saved.
    #[test]
    fn heap_key_is_24_bytes() {
        assert!(std::mem::size_of::<Reverse<Key>>() <= 24);
    }

    /// The campaign's shape: each request arms a timeout 5 s out,
    /// beyond the ~4.3 s window, and its reply comes 10–60 ms later and
    /// sends the client's next request. Thousands of timeouts wait in
    /// the overflow list across several rebases; the calendar must pop
    /// exactly what the naive heap pops.
    #[test]
    fn request_timeouts_beyond_the_window_pop_in_heap_order() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from(7);
        let mut cal = Calendar::new();
        let mut heap = NaiveHeap::default();
        // Item `i` is a client's next request iff `requests[i]`.
        let mut requests = Vec::new();
        let push = |cal: &mut Calendar<u32>, heap: &mut NaiveHeap, requests: &mut Vec<bool>, at, request| {
            cal.push(SimTime::from_nanos(at), requests.len() as u32);
            heap.push(SimTime::from_nanos(at), requests.len() as u32);
            requests.push(request);
        };
        for client in 0..20 {
            push(&mut cal, &mut heap, &mut requests, client * 1_000_000, true);
        }
        let (mut popped, mut bases, mut overflow_peak) = (0, vec![0], 0);
        while let Some((at, item)) = cal.pop() {
            assert_eq!(Some((at, item)), heap.pop(), "item {item}");
            popped += 1;
            let now = at.as_nanos();
            if requests[item as usize] && now < 30_000_000_000 {
                push(&mut cal, &mut heap, &mut requests, now + 5_000_000_000 + rng.range(0, 1_000_000), false);
                push(&mut cal, &mut heap, &mut requests, now + rng.range(10_000_000, 60_000_000), true);
            }
            overflow_peak = overflow_peak.max(cal.overflow.len());
            if bases.last() != Some(&cal.base) {
                bases.push(cal.base);
            }
        }
        assert!(heap.pop().is_none());
        assert_eq!(popped, requests.len());
        let timeouts = requests.iter().filter(|&&r| !r).count();
        assert!(timeouts > 5_000 && overflow_peak > 1_000, "{timeouts} timeouts, overflow peak {overflow_peak}");
        assert!(bases.len() > 5, "rebases: {bases:?}");
    }

    /// Every pushed item is dropped exactly once: by its pop, by its
    /// cancel, or with the queue.
    #[test]
    fn each_item_is_dropped_once_popped_or_with_the_queue() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Counted(u32, Rc<RefCell<Vec<u32>>>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.1.borrow_mut().push(self.0);
            }
        }
        let dropped = Rc::new(RefCell::new(Vec::new()));
        let mut q = Calendar::new();
        // Near, far (overflow) and, after the rebase below, behind the
        // window (front).
        for (i, t) in [3, 1, 2 * WINDOW_NS, 5 * WINDOW_NS, 5 * WINDOW_NS, 7].into_iter().enumerate() {
            q.push(SimTime::from_nanos(t), Counted(i as u32, dropped.clone()));
        }
        let (at, first) = q.pop().expect("queued");
        assert_eq!((at.as_nanos(), first.0), (1, 1));
        assert!(dropped.borrow().is_empty(), "a popped item belongs to the caller");
        drop(first);
        assert_eq!(q.pop().map(|(_, c)| c.0), Some(0));
        assert_eq!(q.pop().map(|(_, c)| c.0), Some(5));
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(2 * WINDOW_NS)), "rebased");
        let front = q.push(SimTime::from_nanos(9), Counted(6, dropped.clone()));
        let near = q.push(SimTime::from_nanos(3 * WINDOW_NS), Counted(7, dropped.clone()));
        let far = q.push(SimTime::from_nanos(9 * WINDOW_NS), Counted(8, dropped.clone()));
        for handle in [front, near, far] {
            let item = q.cancel(handle).expect("queued");
            assert!(!dropped.borrow().contains(&item.0), "a cancelled item belongs to the caller");
        }
        assert_eq!(dropped.borrow()[3..], [6, 7, 8], "each dropped by its cancel");
        assert_eq!(q.len(), 3);
        drop(q);
        let mut seen = dropped.borrow().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..9).collect::<Vec<_>>());
    }

    /// The slab keeps no more slots than the most items ever queued at
    /// once: a pop's slot is reused by the next push.
    #[test]
    fn the_slab_never_outgrows_the_most_items_held() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from(3);
        let mut q = Calendar::new();
        let mut now = 0;
        for k in [1, 16, 300] {
            for i in 0..20_000u64 {
                if q.len() < k && (q.is_empty() || rng.chance(0.5)) {
                    q.push(SimTime::from_nanos(now + rng.range(0, 2 * WINDOW_NS)), i);
                } else {
                    now = q.pop().expect("non-empty").0.as_nanos();
                }
                assert!(q.slots.len() <= k, "{} slots for at most {k} items", q.slots.len());
            }
        }
    }

    /// A handle goes stale when its item pops, when it is cancelled and
    /// when its slot holds a later item: it then cancels nothing.
    #[test]
    fn a_stale_handle_cancels_nothing() {
        let ms = SimTime::from_millis;
        let mut q = Calendar::new();
        let popped = q.push(ms(1), 'a');
        assert_eq!(q.pop(), Some((ms(1), 'a')));
        assert_eq!(q.cancel(popped), None, "after its pop");

        let reused = q.push(ms(2), 'b');
        assert_eq!(reused.slot, popped.slot, "the slot is reused in its next generation");
        assert_eq!(q.cancel(popped), None, "after its slot was reused");
        assert_eq!(q.cancel(reused), Some('b'));
        assert_eq!(q.cancel(reused), None, "after its cancel");

        let held = q.push(ms(3), 'c');
        for stale in [popped, reused] {
            assert_eq!(q.cancel(stale), None);
        }
        assert_eq!((q.len(), q.next_time()), (1, Some(ms(3))), "the slot's item stays");
        assert_eq!(q.pop(), Some((ms(3), 'c')));
        assert_eq!((q.cancel(held), q.pop(), q.is_empty()), (None, None, true));
    }

    /// The live shape: each check arms a timeout and its reply cancels
    /// it, so nearly every key goes dead. The dead keys never outnumber
    /// both the live items and the floor, and when every timer is gone
    /// the queue holds nothing.
    #[test]
    fn dead_keys_never_exceed_the_live_items_or_the_floor() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from(11);
        let mut q = Calendar::new();
        let mut pending = Vec::new();
        let (mut now, mut passes) = (0u64, 0);
        for _ in 0..50_000 {
            now += rng.range(0, 200_000);
            if rng.chance(0.5) {
                // A timeout 500 ms out, or past the window.
                let out = if rng.chance(0.9) { 500_000_000 } else { 2 * WINDOW_NS };
                pending.push(q.push(SimTime::from_nanos(now + out), ()));
            } else if !pending.is_empty() {
                // Most replies come soon; some much later.
                let newest = pending.len() - 1;
                let i = if rng.chance(0.9) { newest } else { rng.range(0, newest as u64 + 1) as usize };
                let keys = q.keys();
                q.cancel(pending.swap_remove(i));
                passes += usize::from(q.keys() < keys);
            }
            while q.pop_due(SimTime::from_nanos(now)).is_some() {}
            let dead = q.keys() - q.len();
            assert!(dead <= q.len().max(DEAD_FLOOR), "{dead} dead keys beside {} items", q.len());
            assert_eq!(dead, q.dead);
        }
        assert!(passes > 3, "a cancel dropped the dead keys {passes} times");
        while let Some(handle) = pending.pop() {
            q.cancel(handle);
        }
        assert_eq!((q.next_time(), q.pop(), q.keys()), (None, None, 0), "the dead keys went with the last look");
    }
}
