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
//! `(time, seq, slot)` keys, and the items themselves stay put in a slab
//! from push to pop, so a sift moves a key, never an item. The same queue
//! holds the simulated world's events, each live runtime worker's timers
//! and the live chaos transport's delayed deliveries; the live users key
//! it by nanoseconds since their epoch.
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

/// A queued item's place in the order, and the slab slot holding it.
/// Fields compare in declaration order: time first, then push order
/// (FIFO among simultaneous items); `seq` is unique, so `slot` never
/// decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: usize,
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
/// q.push(SimTime::from_millis(5), "early");
/// assert_eq!(q.next_time(), Some(SimTime::from_millis(5)));
/// assert_eq!(q.pop_due(SimTime::from_millis(10)), Some((SimTime::from_millis(5), "early")));
/// assert_eq!(q.pop_due(SimTime::from_millis(10)), None, "not due yet");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(20), "late")));
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
    /// The items, each in the slot its key names until it pops.
    slots: Vec<Option<T>>,
    /// The empty slots, reused before the slab grows.
    free: Vec<usize>,
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
            seq: 0,
        }
    }
}

impl<T> Calendar<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued items.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Queues `item` at time `at`; among items at the same time, the
    /// earlier push pops first.
    pub fn push(&mut self, at: SimTime, item: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(item);
                slot
            }
            None => {
                self.slots.push(Some(item));
                self.slots.len() - 1
            }
        };
        let key = Key { at, seq: self.seq, slot };
        self.seq += 1;
        let t = at.as_nanos();
        if t < self.base {
            self.front.push(Reverse(key));
            return;
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

    /// Slides the window forward so the overflow minimum lands in a
    /// bucket, moving every overflow key that now fits into its bucket.
    /// Callers guarantee the buckets and `front` are empty.
    fn rebase(&mut self) {
        debug_assert!(self.front.is_empty());
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

    /// Index of the bucket holding the next item, rebasing the window if
    /// it has been exhausted. `None` when only `front` has items (or the
    /// queue is empty).
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

    /// The time of the next item, without removing it.
    pub fn next_time(&mut self) -> Option<SimTime> {
        // `front` items are strictly earlier than anything in a bucket
        // or the overflow (all ≥ base), so they win unconditionally.
        if let Some(Reverse(k)) = self.front.peek() {
            return Some(k.at);
        }
        let idx = self.next_bucket()?;
        self.buckets[idx].peek().map(|Reverse(k)| k.at)
    }

    /// Removes and returns the next item if it is due at or before
    /// `limit`, in one scan.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, T)> {
        let key = if self.front.is_empty() {
            let idx = self.next_bucket()?;
            let key = pop_if_due(&mut self.buckets[idx], limit)?;
            if self.buckets[idx].is_empty() {
                self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
            }
            self.cursor = idx;
            key
        } else {
            pop_if_due(&mut self.front, limit)?
        };
        let Some(item) = self.slots[key.slot].take() else {
            unreachable!("slot {} is held by its key until the key pops", key.slot)
        };
        self.free.push(key.slot);
        Some((key.at, item))
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

    /// Randomized interleaving of pushes and pops must match the naive
    /// heap exactly, including FIFO among equal timestamps and items
    /// tens of windows out, which wait in the overflow heap and drain
    /// through forward rebases past empty stretches of the timeline.
    #[test]
    fn randomized_parity_with_heap() {
        use crate::rng::SimRng;
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut cal = Calendar::new();
            let mut heap = NaiveHeap::default();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut popped = Vec::new();
            for _ in 0..2_000 {
                if rng.chance(0.6) || cal.len() == 0 {
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
                    cal.push(at, seq as u32);
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
    /// and an idle loop parks on `next_time`. The calendar must stay in
    /// step with the naive heap throughout (due order across buckets and
    /// overflow, `next_time` the earliest item), never hand out an item
    /// past its limit, and drain every item.
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
            let (mut pushed, mut popped, mut clock) = (0u32, 0u32, 0u64);
            for _ in 0..6_000 {
                match rng.range(0, 3) {
                    0 => {
                        let at = match rng.range(0, 3) {
                            0 => clock.saturating_sub(rng.range(0, 50_000_000)),
                            1 => clock + rng.range(0, 100_000_000),
                            _ => clock + rng.range(0, 3 * WINDOW_NS),
                        };
                        cal.push(SimTime::from_nanos(at), pushed);
                        heap.push(SimTime::from_nanos(at), pushed);
                        pushed += 1;
                    }
                    1 => {
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
            assert!(heap.heap.is_empty() && pushed > 1_000);
            assert_eq!(popped, pushed, "seed {seed}: every item drains");
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

    /// Every pushed item is dropped exactly once: by its pop, or with
    /// the queue.
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
        q.push(SimTime::from_nanos(9), Counted(6, dropped.clone()));
        assert_eq!(q.len(), 4);
        drop(q);
        let mut seen = dropped.borrow().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
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
                if q.len() < k && (q.len() == 0 || rng.chance(0.5)) {
                    q.push(SimTime::from_nanos(now + rng.range(0, 2 * WINDOW_NS)), i);
                } else {
                    now = q.pop().expect("non-empty").0.as_nanos();
                }
                assert!(q.slots.len() <= k, "{} slots for at most {k} items", q.slots.len());
            }
        }
    }
}
