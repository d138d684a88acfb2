//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel` with the subset of the crossbeam-channel
//! API that `wanacl-rt` uses: [`channel::unbounded`] and
//! [`channel::bounded`], cloneable + `Sync` [`channel::Sender`]s, and
//! receivers with `recv_timeout` / `try_recv` / `try_iter`. Built on a
//! mutex + condvar queue — slower than the real lock-free implementation
//! but semantically identical for the runtime's node-per-thread message
//! loop.
//!
//! One deliberate divergence from upstream crossbeam: on a bounded
//! channel, [`channel::Sender::send`] never blocks and never fails on a
//! full queue — only [`channel::Sender::try_send`] observes the capacity.
//! The runtime routes data-plane traffic through `try_send` (so overflow
//! is an explicit, countable drop) and reserves the always-enqueue `send`
//! as a control lane for lifecycle envelopes, which must not be lost and
//! must not deadlock a sender that holds other locks.

#![warn(missing_docs)]

pub mod channel {
    //! Multi-producer single-consumer channels (crossbeam-channel subset).

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver_alive: bool,
        /// Receivers parked on `available` right now. A sender that finds
        /// it zero skips the condvar notify (a `futex_wake` syscall): a
        /// receiver that is not parked checks the queue under this same
        /// mutex before it parks, so it cannot miss the value.
        waiting: usize,
        /// Queue capacity enforced by [`Sender::try_send`]; `None` for
        /// unbounded channels.
        capacity: Option<usize>,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        available: Condvar,
    }

    impl<T> Shared<T> {
        /// Queues `value` and wakes the receiver only if it is parked.
        fn enqueue(&self, mut inner: MutexGuard<'_, Inner<T>>, value: T) {
            inner.queue.push_back(value);
            let parked = inner.waiting > 0;
            drop(inner);
            if parked {
                self.available.notify_one();
            }
        }

        /// Parks on `available` until notified or `timeout` elapses,
        /// counted in `waiting` for exactly as long as the mutex is
        /// released.
        fn park<'a>(
            &self,
            mut inner: MutexGuard<'a, Inner<T>>,
            timeout: Option<Duration>,
        ) -> MutexGuard<'a, Inner<T>> {
            inner.waiting += 1;
            let mut inner = match timeout {
                Some(t) => {
                    self.available.wait_timeout(inner, t).unwrap_or_else(|e| e.into_inner()).0
                }
                None => self.available.wait(inner).unwrap_or_else(|e| e.into_inner()),
            };
            inner.waiting -= 1;
            inner
        }
    }

    /// The sending half; cloneable and shareable across threads.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Returned by [`Sender::send`] when the receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Why [`Sender::try_send`] refused a value.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded queue is at capacity; the value is handed back.
        Full(T),
        /// The receiver was dropped; the value is handed back.
        Disconnected(T),
    }

    /// Why [`Receiver::try_recv`] returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is empty right now.
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// Why [`Receiver::recv_timeout`] returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with the channel still empty.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    fn channel_with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receiver_alive: true,
                waiting: 0,
                capacity,
            }),
            available: Condvar::new(),
        });
        (Sender { shared: shared.clone() }, Receiver { shared })
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel_with_capacity(None)
    }

    /// Creates a bounded channel holding at most `capacity` queued items.
    ///
    /// The bound is enforced only by [`Sender::try_send`]; see the crate
    /// docs for why [`Sender::send`] stays an always-enqueue control
    /// lane.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        channel_with_capacity(Some(capacity))
    }

    impl<T> Sender<T> {
        /// Enqueues `value` regardless of capacity; fails only if the
        /// receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            if !inner.receiver_alive {
                return Err(SendError(value));
            }
            self.shared.enqueue(inner, value);
            Ok(())
        }

        /// Enqueues `value` unless the bounded queue is full or the
        /// receiver was dropped; never blocks.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            if !inner.receiver_alive {
                return Err(TrySendError::Disconnected(value));
            }
            if inner.capacity.is_some_and(|cap| inner.queue.len() >= cap) {
                return Err(TrySendError::Full(value));
            }
            self.shared.enqueue(inner, value);
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.senders += 1;
            drop(inner);
            Sender { shared: self.shared.clone() }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.senders -= 1;
            let last = inner.senders == 0;
            drop(inner);
            if last {
                self.shared.available.notify_all();
            }
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Takes the next message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            match inner.queue.pop_front() {
                Some(v) => Ok(v),
                None if inner.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Waits up to `timeout` for the next message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(Instant::now() + timeout)
        }

        /// Waits until the absolute `deadline` for the next message.
        ///
        /// Unlike a relative `recv_timeout` recomputed around spurious
        /// wakeups, the deadline never drifts: the wait is re-derived
        /// from the same `Instant` on every pass through the condvar.
        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                inner = self.shared.park(inner, Some(deadline - now));
            }
        }

        /// Blocks until a message arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvTimeoutError> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                inner = self.shared.park(inner, None);
            }
        }

        /// A non-blocking draining iterator over currently queued messages.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }
    }

    #[cfg(test)]
    impl<T> Receiver<T> {
        /// Spins until a receiver thread is parked on the condvar, so a
        /// test can force the send-to-a-sleeper interleaving.
        pub(crate) fn wait_until_parked(&self) {
            while self.shared.inner.lock().unwrap_or_else(|e| e.into_inner()).waiting == 0 {
                std::thread::yield_now();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.receiver_alive = false;
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// See [`Receiver::try_iter`].
    #[derive(Debug)]
    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.try_recv().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn send_and_try_recv() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn recv_deadline_honours_an_absolute_instant() {
        use std::time::Instant;
        let (tx, rx) = unbounded::<u32>();
        let deadline = Instant::now() + Duration::from_millis(30);
        assert_eq!(rx.recv_deadline(deadline), Err(RecvTimeoutError::Timeout));
        assert!(Instant::now() >= deadline, "must not return before the deadline");
        // An already-elapsed deadline returns immediately (no hang).
        let past = Instant::now() - Duration::from_millis(5);
        assert_eq!(rx.recv_deadline(past), Err(RecvTimeoutError::Timeout));
        tx.send(1).unwrap();
        assert_eq!(rx.recv_deadline(past), Ok(1), "queued data beats the deadline");
    }

    #[test]
    fn recv_timeout_times_out_when_empty() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn cross_thread_delivery_wakes_blocked_receiver() {
        let (tx, rx) = unbounded();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(99).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(99));
        t.join().unwrap();
    }

    #[test]
    fn cloned_senders_all_count() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(7).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn send_after_receiver_drop_errors() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    #[test]
    fn bounded_try_send_observes_capacity_but_send_does_not() {
        let (tx, rx) = bounded(2);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Ok(()));
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        // The control lane still enqueues past the bound.
        tx.send(4).unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![1, 2, 4]);
        // Draining frees capacity for try_send again.
        assert_eq!(tx.try_send(5), Ok(()));
        drop(rx);
        assert_eq!(tx.try_send(6), Err(TrySendError::Disconnected(6)));
    }

    /// Runs `body` on a thread of its own and fails the test if it has
    /// not finished within ten seconds — a lost wakeup shows up as a
    /// hang, not as a wrong value.
    fn within_ten_seconds(body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("channel test hung: a wakeup was lost");
        worker.join().unwrap();
    }

    #[test]
    fn conditional_notify_loses_no_token_under_a_producer_storm() {
        const PRODUCERS: u64 = 4;
        const TOKENS: u64 = 100_000;
        within_ten_seconds(|| {
            let (tx, rx) = unbounded::<u64>();
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..TOKENS {
                            tx.send(p * TOKENS + i).unwrap();
                            // Let the consumer run dry and park now and then.
                            if i % 1_024 == 0 {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            drop(tx);
            // The worker loop's three ways of taking a token, in rotation.
            let (mut received, mut sum, mut turn) = (0u64, 0u64, 0u32);
            while received < PRODUCERS * TOKENS {
                turn = turn.wrapping_add(1);
                let got = match turn % 3 {
                    0 => rx.try_recv().ok(),
                    1 => rx.recv().ok(),
                    _ => rx.recv_timeout(Duration::from_micros(50)).ok(),
                };
                if let Some(v) = got {
                    received += 1;
                    sum += v;
                }
            }
            let n = PRODUCERS * TOKENS;
            assert_eq!(sum, n * (n - 1) / 2, "every token exactly once");
            for p in producers {
                p.join().unwrap();
            }
            assert_eq!(rx.recv(), Err(RecvTimeoutError::Disconnected));
        });
    }

    #[test]
    fn last_sender_drop_wakes_a_parked_recv_with_disconnected() {
        within_ten_seconds(|| {
            let (tx, rx) = unbounded::<u32>();
            std::thread::scope(|scope| {
                let blocked = scope.spawn(|| rx.recv());
                rx.wait_until_parked();
                drop(tx);
                assert_eq!(blocked.join().unwrap(), Err(RecvTimeoutError::Disconnected));
            });
        });
    }

    #[test]
    fn sends_to_a_parked_receiver_wake_it() {
        within_ten_seconds(|| {
            let (tx, rx) = bounded::<u32>(1);
            let rx = &rx;
            std::thread::scope(|scope| {
                let blocked = scope.spawn(|| rx.recv());
                rx.wait_until_parked();
                assert_eq!(tx.try_send(7), Ok(()));
                assert_eq!(blocked.join().unwrap(), Ok(7));

                let far = std::time::Instant::now() + Duration::from_secs(60);
                let blocked = scope.spawn(move || rx.recv_deadline(far));
                rx.wait_until_parked();
                tx.send(8).unwrap();
                assert_eq!(blocked.join().unwrap(), Ok(8));
            });
        });
    }
}
