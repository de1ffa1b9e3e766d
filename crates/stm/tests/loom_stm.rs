//! Loom permutation tests for the STM hot path: the TVar version/clock
//! handshake under concurrent commits. Build with
//! `RUSTFLAGS="--cfg loom" cargo test -p proust-stm --test loom_stm`
//! (or `cargo xtask loom`); the regular suites skip this file entirely.
//!
//! The vendored loom shim explores schedules by seeded randomized
//! perturbation rather than exhaustive DPOR — see `shims/loom`.
#![cfg(loom)]

use std::sync::Arc;

use proust_stm::{ConflictDetection, Stm, StmConfig, TVar, TxError};

/// Two transactions racing read-modify-write on one TVar: commit-time
/// version validation must serialize them (no lost update), on every
/// conflict-detection backend.
#[test]
fn concurrent_increments_never_lose_an_update() {
    for &detection in ConflictDetection::ALL.iter() {
        loom::model(move || {
            let stm = Stm::new(StmConfig::with_detection(detection));
            let tvar = Arc::new(TVar::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let stm = stm.clone();
                    let tvar = Arc::clone(&tvar);
                    loom::thread::spawn(move || {
                        stm.atomically(|tx| tvar.modify(tx, |v| v + 1)).unwrap();
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }
            assert_eq!(tvar.load(), 2, "lost update under {detection:?}");
        });
    }
}

/// A writer keeps the invariant `x == y`; a reader snapshotting both
/// mid-race must never observe a torn pair (the global-clock half of the
/// handshake: reads validate against the version captured at first
/// access).
#[test]
fn readers_never_observe_a_torn_write() {
    loom::model(|| {
        let stm = Stm::new(StmConfig::default());
        let x = Arc::new(TVar::new(0u64));
        let y = Arc::new(TVar::new(0u64));

        let writer = {
            let stm = stm.clone();
            let x = Arc::clone(&x);
            let y = Arc::clone(&y);
            loom::thread::spawn(move || {
                for _ in 0..3 {
                    stm.atomically(|tx| {
                        let v = x.read(tx)?;
                        x.write(tx, v + 1)?;
                        loom::thread::yield_now();
                        y.write(tx, v + 1)
                    })
                    .unwrap();
                }
            })
        };
        let reader = {
            let stm = stm.clone();
            let x = Arc::clone(&x);
            let y = Arc::clone(&y);
            loom::thread::spawn(move || {
                for _ in 0..3 {
                    let (seen_x, seen_y) = stm
                        .atomically(|tx| {
                            let seen_x = x.read(tx)?;
                            loom::thread::yield_now();
                            let seen_y = y.read(tx)?;
                            Ok((seen_x, seen_y))
                        })
                        .unwrap();
                    assert_eq!(seen_x, seen_y, "torn read: x={seen_x} y={seen_y}");
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(x.load(), 3);
        assert_eq!(y.load(), 3);
    });
}

/// The blocking-retry wait/notify handshake: a consumer `retry`s on an
/// empty slot while a producer fills it. The producer's commit may land at
/// any point relative to the consumer's watch-list snapshot and its
/// block-for-change wait — including exactly between them, the classic
/// lost-wakeup window. Every permuted schedule must end with the consumer
/// woken and holding the value; a hang here is the lost wakeup.
#[test]
fn retry_handshake_never_loses_the_wakeup() {
    loom::model(|| {
        let stm = Stm::new(StmConfig::default());
        let slot: Arc<TVar<Option<u64>>> = Arc::new(TVar::new(None));

        let consumer = {
            let stm = stm.clone();
            let slot = Arc::clone(&slot);
            loom::thread::spawn(move || {
                stm.atomically(|tx| match slot.read(tx)? {
                    Some(value) => {
                        slot.write(tx, None)?;
                        Ok(value)
                    }
                    None => Err(TxError::Retry),
                })
                .unwrap()
            })
        };
        let producer = {
            let stm = stm.clone();
            let slot = Arc::clone(&slot);
            loom::thread::spawn(move || {
                loom::thread::yield_now();
                stm.atomically(|tx| slot.write(tx, Some(5))).unwrap();
            })
        };
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), 5, "consumer must wake with the produced value");
        assert_eq!(slot.load(), None, "consumer must have consumed the slot");
    });
}

/// Contention-observatory interval sanity under permuted schedules:
/// wait intervals are `u64` nanoseconds from a saturating clock pair —
/// never negative — and each wait is recorded exactly once in *both*
/// sinks (the cumulative stats counters and the per-site histogram), so
/// the two must agree exactly however commits, aborts, and ownership
/// handoffs interleave. Hold intervals close exactly once per attempt
/// that took ownership: every committing writer contributes one, and no
/// attempt can contribute more than one (no overlap double-counting).
#[test]
fn wait_and_hold_intervals_never_double_count() {
    let tracer = proust_stm::obs::Tracer::global();
    tracer.set_sample_every(1);
    tracer.enable();
    loom::model(|| {
        let stm = Stm::new(StmConfig::default());
        let tvar = Arc::new(TVar::new(0u64));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let stm = stm.clone();
                let tvar = Arc::clone(&tvar);
                loom::thread::spawn(move || {
                    for _ in 0..2 {
                        stm.atomically(|tx| {
                            let v = tvar.read(tx)?;
                            loom::thread::yield_now();
                            tvar.write(tx, v + 1)
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(tvar.load(), 4);

        let stats = stm.stats();
        let metrics = stm.metrics();
        assert_eq!(
            metrics.lock_wait.count(),
            stats.lock_waits,
            "every wait must land exactly once in the per-site histogram and the counters"
        );
        assert_eq!(
            metrics.lock_wait.total_ns(),
            stats.lock_wait_ns,
            "both sinks must see the same measured nanoseconds"
        );
        assert!(
            metrics.lock_hold.count() >= stats.commits,
            "every sampled committing writer closes exactly one hold interval \
             (holds {} < commits {})",
            metrics.lock_hold.count(),
            stats.commits
        );
        assert!(
            metrics.lock_hold.count() <= stats.starts,
            "an attempt can never close more than one hold interval \
             (holds {} > attempts {})",
            metrics.lock_hold.count(),
            stats.starts
        );
    });
    tracer.disable();
    tracer.clear();
}

/// Version capture across a concurrent commit: a transaction that read a
/// TVar before a competing commit must either abort-and-retry onto the
/// new value or have serialized entirely before it — its increment can
/// never resurrect the old value.
#[test]
fn stale_reads_are_invalidated_by_the_clock() {
    loom::model(|| {
        let stm = Stm::new(StmConfig::default());
        let tvar = Arc::new(TVar::new(0u64));

        let bumper = {
            let stm = stm.clone();
            let tvar = Arc::clone(&tvar);
            loom::thread::spawn(move || {
                stm.atomically(|tx| tvar.write(tx, 10)).unwrap();
            })
        };
        let adder = {
            let stm = stm.clone();
            let tvar = Arc::clone(&tvar);
            loom::thread::spawn(move || {
                stm.atomically(|tx| {
                    let v = tvar.read(tx)?;
                    loom::thread::yield_now();
                    tvar.write(tx, v + 1)
                })
                .unwrap();
            })
        };
        bumper.join().unwrap();
        adder.join().unwrap();
        let value = tvar.load();
        assert!(
            value == 11 || value == 10,
            "serializable outcomes are 11 (add after bump) or 10 (bump after add), got {value}"
        );
    });
}
