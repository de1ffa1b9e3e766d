//! Contention-counter consistency under injected `LockAcquire` faults
//! (compiled only with `--features chaos`; `cargo xtask chaos` runs
//! it).
//!
//! The fault injector forces spurious conflicts at the abstract-lock
//! acquisition boundary — exactly where the contention observatory does
//! its wait timing and time-weighted attribution. However the injected
//! aborts interleave with real lock waits, the observatory's sinks must
//! stay mutually consistent:
//!
//! * every recorded wait lands exactly once in the cumulative stats
//!   counters *and* the per-site wait histogram (same count, same
//!   nanoseconds);
//! * the time-weighted conflict matrix agrees with the conflict
//!   counters on the number of conflicts;
//! * nanoseconds attributed as "lost" to (aborter, victim) pairs never
//!   exceed the lock-wait time actually measured — attribution can only
//!   charge time that was spent.

#![cfg(feature = "chaos")]

use std::sync::Arc;

use proust_core::structures::EagerMap;
use proust_core::{PessimisticLap, TxMap};
use proust_stm::chaos::{self, ChaosConfig};
use proust_stm::{Stm, StmConfig};

const KEYS: u64 = 4;
const THREADS: u64 = 4;
const OPS_PER_THREAD: u64 = 200;

#[test]
fn contention_counters_stay_consistent_under_lock_acquire_faults() {
    let _guard = chaos::lock();
    // Conflicts only (no delays, no panics), hot enough that a healthy
    // share of acquisitions abort at the LockAcquire injection point.
    chaos::install(ChaosConfig {
        conflict_per_mille: 250,
        delay_per_mille: 0,
        panic_per_mille: 0,
        ..ChaosConfig::with_seed(0xC0_47E4)
    });

    let stm = Stm::new(StmConfig::default());
    let lap: Arc<PessimisticLap<u64>> = Arc::new(PessimisticLap::new(8));
    let map: Arc<EagerMap<u64, u64>> = Arc::new(EagerMap::new(lap as _));
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let stm = stm.clone();
            let map = Arc::clone(&map);
            scope.spawn(move || {
                for op in 0..OPS_PER_THREAD {
                    let key = (thread + op) % KEYS;
                    stm.atomically(|tx| {
                        let v = map.get(tx, &key)?.unwrap_or(0);
                        map.put(tx, key, v + 1)
                    })
                    .expect("injected conflicts must be retried, not surfaced");
                }
            });
        }
    });
    chaos::uninstall();

    let stats = stm.stats();
    let metrics = stm.metrics();
    assert!(
        stats.conflicts > 0,
        "the seed must actually inject LockAcquire conflicts for this test to mean anything"
    );
    assert_eq!(stats.commits, THREADS * OPS_PER_THREAD, "every op must eventually commit");

    // Dual-sink wait consistency: one record per wait, on both sides.
    assert_eq!(
        metrics.lock_wait.count(),
        stats.lock_waits,
        "per-site wait histogram and cumulative counters disagree on wait count"
    );
    assert_eq!(
        metrics.lock_wait.total_ns(),
        stats.lock_wait_ns,
        "per-site wait histogram and cumulative counters disagree on wait time"
    );

    // The time-weighted matrix counts every conflict (injected ones are
    // attributed to SiteId::UNKNOWN with zero loss) ...
    assert_eq!(
        metrics.conflicts.total(),
        stats.conflicts,
        "conflict matrix and conflict counters disagree"
    );
    // ... and can only charge time that the wait clocks measured.
    assert!(
        metrics.conflicts.total_ns_lost() <= stats.lock_wait_ns,
        "attributed loss ({} ns) exceeds measured lock-wait time ({} ns)",
        metrics.conflicts.total_ns_lost(),
        stats.lock_wait_ns
    );

    // The injected aborts must not have stranded lock-table entries —
    // otherwise later wait measurements would be of phantom contention.
    let leftover = stm.atomically(|tx| map.get(tx, &0)).unwrap();
    assert!(leftover.is_some(), "runtime must stay usable after the fault storm");
}
