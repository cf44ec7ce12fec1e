//! Randomized cross-thread stress tests for [`superfe_net::ring`].
//!
//! The unit tests in the module cover the protocol mechanics (wraparound,
//! doorbell thresholds, full/empty transitions) on deterministic schedules;
//! these properties hammer a real producer thread against a real consumer
//! thread under randomized capacities, doorbell batches, send-flavor mixes,
//! and artificial stalls, asserting the SPSC contract end to end: every
//! frame arrives exactly once, in send order. A bare-waiter ping-pong
//! checks that the park/notify handshake never loses a wakeup.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use proptest::prelude::*;
use superfe_net::ring;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Blocking sends against a concurrent consumer: no frame is lost,
    /// duplicated, or reordered, for any capacity/doorbell/flavor mix. The
    /// consumer stalls on a random subset of receives to force the ring
    /// through full (producer backpressure) and empty (consumer park)
    /// transitions.
    #[test]
    fn blocking_sends_arrive_exactly_once_in_order(
        capacity in 2usize..12,
        batch in 1usize..6,
        items in 0usize..300,
        eager in proptest::collection::vec(proptest::bool::ANY, 300),
        stall in proptest::collection::vec(proptest::bool::ANY, 300),
    ) {
        let batch = batch.min(capacity);
        let (mut tx, mut rx) = ring::channel::<usize>(capacity, batch);
        let producer = thread::spawn(move || {
            for (i, &eager) in eager.iter().enumerate().take(items) {
                let r = if eager { tx.send_now(i) } else { tx.send(i) };
                r.expect("consumer lives until disconnect");
            }
            // Dropping the producer must flush any staged frames.
        });
        let mut got = Vec::with_capacity(items);
        while let Ok(v) = rx.recv() {
            if stall[got.len().min(stall.len() - 1)] {
                thread::yield_now();
            }
            got.push(v);
        }
        producer.join().expect("producer thread");
        prop_assert_eq!(got, (0..items).collect::<Vec<_>>());
    }

    /// Non-blocking sends (the recycle-path flavor): frames may be dropped
    /// when the ring is full, but every *accepted* frame arrives exactly
    /// once and in order — the received stream is exactly the accepted
    /// subsequence.
    #[test]
    fn try_sends_deliver_exactly_the_accepted_subsequence(
        capacity in 2usize..10,
        items in 0usize..300,
        stall in proptest::collection::vec(proptest::bool::ANY, 300),
    ) {
        let (mut tx, mut rx) = ring::channel::<usize>(capacity, 1);
        let producer = thread::spawn(move || {
            let mut accepted = Vec::new();
            for i in 0..items {
                match tx.try_send(i) {
                    Ok(()) => accepted.push(i),
                    Err(ring::TrySendError::Full(_)) => {}
                    Err(ring::TrySendError::Disconnected(_)) => {
                        panic!("consumer lives until disconnect")
                    }
                }
            }
            accepted
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            if stall[got.len().min(stall.len() - 1)] {
                thread::yield_now();
            }
            got.push(v);
        }
        let accepted = producer.join().expect("producer thread");
        prop_assert_eq!(got, accepted);
    }

    /// Shutdown drain: the producer stages frames below the doorbell
    /// threshold and exits without an explicit flush. Its `Drop` must
    /// publish the staged tail and wake the consumer, which then drains
    /// every frame before observing the disconnect — never the other way
    /// around.
    #[test]
    fn producer_drop_drains_then_terminates(
        capacity in 4usize..12,
        staged in 1usize..4,
    ) {
        // A doorbell batch larger than the staged count guarantees the
        // frames are still unpublished when the producer drops.
        let (mut tx, mut rx) = ring::channel::<usize>(capacity, capacity);
        let producer = thread::spawn(move || {
            for i in 0..staged {
                tx.send(i).expect("ring has room below capacity");
            }
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        // recv() returned Err only after yielding every staged frame.
        prop_assert_eq!(got, (0..staged).collect::<Vec<_>>());
        producer.join().expect("producer thread");
        prop_assert!(matches!(rx.try_recv(), Err(ring::TryRecvError::Disconnected)));
    }
}

/// A consumer that drops mid-stream disconnects the producer: blocking
/// sends return the frame instead of wedging, matching the drain/shutdown
/// handshake the NIC executor relies on.
#[test]
fn consumer_drop_unblocks_the_producer() {
    let (mut tx, rx) = ring::channel::<usize>(2, 1);
    let consumer = thread::spawn(move || {
        let mut rx = rx;
        let first = rx.recv().expect("one frame arrives");
        drop(rx);
        first
    });
    let mut disconnected = false;
    for i in 0..10_000 {
        if tx.send(i).is_err() {
            disconnected = true;
            break;
        }
    }
    assert!(disconnected, "producer must observe the consumer's exit");
    assert_eq!(consumer.join().expect("consumer thread"), 0);
}

/// Park/notify ping-pong on two bare waiters: each side publishes its
/// turn, notifies the peer, then registers, re-checks and parks without
/// spinning, so both sides park on every handoff the peer has not already
/// made. A lost wakeup leaves both threads parked for good; the bounded
/// wait turns that into a failure instead of a hung test.
#[test]
fn park_notify_ping_pong_never_loses_a_wakeup() {
    const ROUNDS: u64 = 100_000;
    // Even values are side 0's move, odd values side 1's.
    let turn = Arc::new(AtomicU64::new(0));
    let waiters = [
        Arc::new(ring::Waiter::default()),
        Arc::new(ring::Waiter::default()),
    ];
    let (done_tx, done_rx) = mpsc::channel();
    let mut sides = Vec::new();
    for me in 0..2u64 {
        let turn = turn.clone();
        let mine = waiters[me as usize].clone();
        let peer = waiters[1 - me as usize].clone();
        let done = done_tx.clone();
        sides.push(thread::spawn(move || {
            for round in 0..ROUNDS {
                let my_turn = 2 * round + me;
                while turn.load(Ordering::Acquire) != my_turn {
                    mine.register_current();
                    if turn.load(Ordering::Acquire) == my_turn {
                        mine.cancel();
                        break;
                    }
                    mine.park();
                }
                turn.store(my_turn + 1, Ordering::Release);
                peer.notify();
            }
            let _ = done.send(me);
        }));
    }
    for _ in 0..2 {
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| {
                panic!(
                    "ping-pong stalled at turn {}: a wakeup was lost",
                    turn.load(Ordering::Acquire)
                )
            });
    }
    for side in sides {
        side.join().expect("ping-pong side");
    }
    assert_eq!(turn.load(Ordering::Acquire), 2 * ROUNDS);
}
