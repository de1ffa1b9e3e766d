//! Randomized exponential backoff for the retry loop.

use std::cell::Cell;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Busy-spin iterations for the first retry.
const MIN_SPINS: u64 = 32;
/// Cap on spin iterations; the window doubles per consecutive conflict
/// until it reaches this.
const MAX_SPINS: u64 = 1 << 14;
/// After this many consecutive conflicts the loop yields the thread to the
/// scheduler between attempts instead of pure spinning.
const YIELD_AFTER: u32 = 8;

/// Per-`atomically` backoff state. Uses a xorshift PRNG (no external
/// dependencies) to jitter the spin window so colliding transactions
/// desynchronize.
///
/// Public because [`ContentionManager::backoff`](crate::cm::ContentionManager)
/// receives it as the mutable accumulator; it cannot be constructed outside
/// the runtime.
#[derive(Debug)]
pub struct Backoff {
    rng: u64,
}

impl Backoff {
    pub(crate) fn new(seed: u64) -> Self {
        // Avoid the all-zero xorshift fixed point.
        Backoff { rng: seed | 1 }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Wait before retry attempt number `attempt` (1-based count of
    /// *failures* so far).
    pub fn wait(&mut self, attempt: u32) {
        let shift = attempt.saturating_sub(1).min(20);
        let window = MIN_SPINS.saturating_mul(1u64 << shift).min(MAX_SPINS);
        let spins = self.next_rand() % window + 1;
        if attempt > YIELD_AFTER {
            std::thread::yield_now();
        }
        for _ in 0..spins {
            std::hint::spin_loop();
        }
    }
}

thread_local! {
    // Per-thread stream state, initialized from the thread id so two threads
    // starting transactions in the same clock tick still draw from different
    // streams, and advanced per call so two same-tick transactions on one
    // thread differ too.
    static SEED_STREAM: Cell<u64> = Cell::new({
        RandomState::new().hash_one(std::thread::current().id()) | 1
    });
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derive a backoff seed for a transaction born at clock value `birth`.
///
/// Mixing only `birth` would hand identical jitter streams to every
/// transaction born in the same clock tick — exactly the colliding
/// transactions backoff exists to desynchronize. Folding in a per-thread
/// counter makes the streams diverge even for same-tick births.
pub(crate) fn decorrelated_seed(birth: u64) -> u64 {
    let stream = SEED_STREAM.with(|cell| {
        let next = splitmix64(cell.get());
        cell.set(next);
        next
    });
    splitmix64(birth ^ stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_terminates_even_for_huge_attempts() {
        let mut b = Backoff::new(42);
        for attempt in [1, 2, 10, 100, u32::MAX] {
            b.wait(attempt);
        }
    }

    #[test]
    fn rng_produces_varied_values() {
        let mut b = Backoff::new(7);
        let a = b.next_rand();
        let c = b.next_rand();
        assert_ne!(a, c);
    }

    #[test]
    fn zero_seed_is_coerced_nonzero() {
        let mut b = Backoff::new(0);
        assert_ne!(b.next_rand(), 0);
    }

    #[test]
    fn same_tick_seeds_diverge_on_one_thread() {
        // Two transactions born in the same clock tick on the same thread
        // must not share a jitter stream (the correlated-seed bug).
        let birth = 17u64;
        let a = decorrelated_seed(birth);
        let b = decorrelated_seed(birth);
        assert_ne!(a, b, "same-tick seeds must diverge");
        let mut ba = Backoff::new(a);
        let mut bb = Backoff::new(b);
        assert_ne!(ba.next_rand(), bb.next_rand());
    }

    #[test]
    fn same_tick_seeds_diverge_across_threads() {
        let birth = 23u64;
        let here = decorrelated_seed(birth);
        let there = std::thread::spawn(move || decorrelated_seed(birth))
            .join()
            .expect("seed thread panicked");
        assert_ne!(here, there, "seeds from different threads must diverge");
    }
}
