//! Offline shim for `crossbeam 0.8`: an MPMC channel with the semantics the
//! cluster transports rely on — cloneable `Sender`/`Receiver` that are both
//! `Sync`, `recv_timeout`, and disconnect detection when either side is
//! fully dropped. Backed by `Mutex<VecDeque>` + `Condvar`; throughput is
//! plenty for the message rates involved. A send signals the condvar only
//! when a receiver is blocked on it: a wake with nobody waiting is still a
//! `futex_wake` system call on Linux.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Chan<T> {
        queue: Mutex<Queue<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// The values in flight, and how many receivers are blocked waiting
    /// for one.
    struct Queue<T> {
        items: VecDeque<T>,
        blocked: usize,
    }

    /// Sending half; cloneable, shared across threads.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// Receiving half; cloneable, shared across threads.
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// The error returned by [`Sender::send`] when no receiver remains.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Errors from [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// All senders dropped and the queue is drained.
        Disconnected,
    }

    /// Error from [`Receiver::recv`] when all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                blocked: 0,
            }),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(chan.clone()), Receiver(chan))
    }

    /// Create a "bounded" channel. The shim does not enforce the capacity
    /// (the workspace only uses `bounded(1)` as a one-shot mailbox, where
    /// overflow cannot occur), so sends never block.
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }

    impl<T> Chan<T> {
        fn lock(&self) -> MutexGuard<'_, Queue<T>> {
            self.queue.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T> Sender<T> {
        /// Enqueue a message; fails if every receiver is gone. Wakes one
        /// blocked receiver, if any is.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.0.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            let mut q = self.0.lock();
            q.items.push_back(value);
            let wake = q.blocked > 0;
            drop(q);
            if wake {
                self.0.ready.notify_one();
            }
            Ok(())
        }

        /// True if no message is waiting in the channel.
        pub fn is_empty(&self) -> bool {
            self.0.lock().items.is_empty()
        }

        /// Receivers blocked on the channel right now.
        #[cfg(test)]
        pub(crate) fn blocked(&self) -> usize {
            self.0.lock().blocked
        }
    }

    impl<T> Receiver<T> {
        /// Wait up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(Instant::now() + timeout)
        }

        /// Wait until `deadline` for a message.
        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            let mut q = self.0.lock();
            loop {
                if let Some(v) = q.items.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                q.blocked += 1;
                let (guard, _res) = self
                    .0
                    .ready
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
                q.blocked -= 1;
            }
        }

        /// Block until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.0.lock();
            loop {
                if let Some(v) = q.items.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                q.blocked += 1;
                q = self.0.ready.wait(q).unwrap_or_else(|e| e.into_inner());
                q.blocked -= 1;
            }
        }

        /// Non-blocking poll.
        pub fn try_recv(&self) -> Result<T, RecvTimeoutError> {
            if let Some(v) = self.0.lock().items.pop_front() {
                return Ok(v);
            }
            if self.0.senders.load(Ordering::SeqCst) == 0 {
                Err(RecvTimeoutError::Disconnected)
            } else {
                Err(RecvTimeoutError::Timeout)
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::SeqCst);
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender gone: wake blocked receivers so they observe
                // the disconnect.
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvTimeoutError};
    use std::time::Duration;

    #[test]
    fn send_recv_in_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(50)), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::from_millis(50)), Ok(2));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn disconnect_detected_both_ways() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());

        let (tx, rx) = unbounded::<u32>();
        tx.send(9).unwrap();
        drop(tx);
        // Queued message still delivered, then disconnect.
        assert_eq!(rx.recv_timeout(Duration::from_millis(50)), Ok(9));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn wakes_a_blocked_receiver() {
        let (tx, rx) = bounded(1);
        let h = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        tx.send(42u8).unwrap();
        assert_eq!(h.join().unwrap(), Ok(42));
    }

    #[test]
    fn every_blocked_receiver_is_woken_and_an_unawaited_send_waits() {
        let (tx, rx) = unbounded();
        let blocked: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)))
            })
            .collect();
        // Both receivers are parked on the condvar before either send.
        while tx.blocked() < 2 {
            std::thread::yield_now();
        }
        tx.send(1u8).unwrap();
        tx.send(2u8).unwrap();
        let mut got: Vec<u8> = blocked
            .into_iter()
            .map(|h| h.join().unwrap().expect("woken with a value"))
            .collect();
        got.sort();
        assert_eq!(got, vec![1, 2]);
        // Nobody waits now: the send signals nothing, and the value stays
        // queued for a later receive.
        assert!(tx.is_empty());
        tx.send(3u8).unwrap();
        assert!(!tx.is_empty());
        assert_eq!(rx.recv_timeout(Duration::from_millis(50)), Ok(3));
        assert!(tx.is_empty());
    }

    #[test]
    fn cross_thread_drop_unblocks() {
        let (tx, rx) = unbounded::<u8>();
        let h = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvTimeoutError::Disconnected));
    }
}
