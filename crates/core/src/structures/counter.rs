//! The non-negative counter of §3 — the paper's running example of a
//! conflict abstraction.
//!
//! The counter has `incr()` (no return value) and `decr()` (returns an
//! error flag on an attempt to decrement below 0). The conflict
//! abstraction uses a *single* STM location ℓ₀:
//!
//! * `incr()`: **read** ℓ₀ whenever the counter is below 2;
//! * `decr()`: **write** ℓ₀ whenever the counter is below 2.
//!
//! So at value 52, concurrent `incr`/`decr` touch nothing and proceed in
//! parallel; at value 0 two `incr`s both *read* ℓ₀ (no conflict — they
//! commute); at value 1 two `decr`s both *write* ℓ₀ and the STM reports a
//! conflict, which is correct because one of them must observe the error.
//!
//! ## On "the counter is below 2"
//!
//! The paper states the rule over "the current state σ". With eager
//! updates, a transaction can observe values perturbed by concurrent
//! *uncommitted* operations, and with several in-flight operations either
//! the instantaneous or the committed view alone can miss a conflict. We
//! therefore touch ℓ₀ when **either** view is below the threshold, which is
//! sound for arbitrarily many in-flight operations and degenerates to the
//! paper's rule when transactions are short. (`proust-verify` checks the
//! sequential Definition 3.1 obligation for this abstraction and exhibits
//! a counterexample if the threshold is lowered to 1.)

use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use proust_stm::{TxResult, Txn};

use crate::conflict::AccessSet;
use crate::region::StmRegion;

/// The value threshold below which operations touch ℓ₀.
pub const COUNTER_THRESHOLD: i64 = 2;

/// Counter operations, as seen by the conflict abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterOpKind {
    /// `incr()`.
    Incr,
    /// `decr()`.
    Decr,
}

/// The §3 counter conflict abstraction as a pure function: the accesses a
/// counter operation performs on the one-location region, given the
/// observed value and the threshold.
///
/// This is the *live* abstraction — [`ProustCounter::incr`]/
/// [`ProustCounter::decr`] apply exactly what this function returns, and
/// `cargo xtask analyze` checks the same function against the bounded
/// counter model (Definition 3.1). Weakening the threshold to 1 makes the
/// analysis produce the paper's decr/decr-at-1 counterexample.
pub fn counter_access(op: CounterOpKind, observed: i64, threshold: i64) -> AccessSet {
    if observed >= threshold {
        return AccessSet::empty();
    }
    match op {
        CounterOpKind::Incr => AccessSet::reading([0]),
        CounterOpKind::Decr => AccessSet::writing([0]),
    }
}

/// The thread-safe base counter (the "existing linearizable object" being
/// wrapped): a non-negative counter with CAS-loop decrement.
#[derive(Debug, Default)]
pub struct ConcCounter {
    value: AtomicI64,
}

impl ConcCounter {
    /// Create a counter with the given initial value.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is negative.
    pub fn new(initial: i64) -> Self {
        assert!(initial >= 0, "counter is non-negative");
        ConcCounter { value: AtomicI64::new(initial) }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Acquire)
    }

    /// Increment.
    pub fn incr(&self) {
        self.value.fetch_add(1, Ordering::AcqRel);
    }

    /// Decrement unless the value is 0; returns whether the decrement
    /// happened (`false` is the paper's error flag).
    pub fn try_decr(&self) -> bool {
        let mut current = self.value.load(Ordering::Acquire);
        loop {
            if current <= 0 {
                return false;
            }
            match self.value.compare_exchange_weak(
                current,
                current - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }

    /// Unconditional decrement, used only as the inverse of `incr` during
    /// rollback (an `incr` being undone is always backed by a real
    /// increment, so this cannot drive a consistent counter negative).
    fn undo_incr(&self) {
        self.value.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The Proustian (transactional) non-negative counter: eager updates with
/// inverses, optimistic conflict abstraction over one STM location.
pub struct ProustCounter {
    base: Arc<ConcCounter>,
    committed: Arc<AtomicI64>,
    region: Arc<StmRegion>,
    threshold: i64,
}

impl fmt::Debug for ProustCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProustCounter")
            .field("value", &self.value_now())
            .field("threshold", &self.threshold)
            .finish()
    }
}

impl ProustCounter {
    /// Create a counter with the given initial value and the paper's
    /// threshold of 2.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is negative.
    pub fn new(initial: i64) -> Self {
        Self::with_threshold(initial, COUNTER_THRESHOLD)
    }

    /// Create a counter with a custom conflict-abstraction threshold.
    /// Exposed so tests (and `proust-verify`) can demonstrate that
    /// threshold 1 is an *incorrect* conflict abstraction.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is negative.
    pub fn with_threshold(initial: i64, threshold: i64) -> Self {
        ProustCounter {
            base: Arc::new(ConcCounter::new(initial)),
            committed: Arc::new(AtomicI64::new(initial)),
            region: Arc::new(StmRegion::labelled(1, "counter.l0")),
            threshold,
        }
    }

    /// The conservative value view the abstraction consults: the smaller
    /// of the instantaneous and committed values (see the module docs on
    /// "the counter is below 2" — touching ℓ₀ when *either* view is below
    /// the threshold stays sound with in-flight operations).
    fn observed_floor(&self) -> i64 {
        self.base.get().min(self.committed.load(Ordering::Acquire))
    }

    /// Apply `delta` to the committed tally at the serialization point,
    /// while the transaction still holds its STM accesses. An `on_end`
    /// handler would run after the reader registrations are released,
    /// letting a dependent `decr` commit its −1 before this +1 lands.
    fn record_committed_delta(&self, tx: &mut Txn, delta: i64) {
        let committed = Arc::clone(&self.committed);
        tx.on_commit_locked(move || {
            committed.fetch_add(delta, Ordering::AcqRel);
        });
    }

    /// Transactionally increment the counter (eager, with a registered
    /// inverse).
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts on ℓ₀.
    pub fn incr(&self, tx: &mut Txn) -> TxResult<()> {
        crate::op_site!(tx, "counter.incr");
        let accesses = counter_access(CounterOpKind::Incr, self.observed_floor(), self.threshold);
        self.region.apply(tx, &accesses)?;
        self.base.incr();
        let base = Arc::clone(&self.base);
        tx.on_abort(move || base.undo_incr());
        self.record_committed_delta(tx, 1);
        Ok(())
    }

    /// Transactionally decrement the counter. Returns `false` (the error
    /// flag) if the counter was 0.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts on ℓ₀.
    pub fn decr(&self, tx: &mut Txn) -> TxResult<bool> {
        crate::op_site!(tx, "counter.decr");
        let accesses = counter_access(CounterOpKind::Decr, self.observed_floor(), self.threshold);
        self.region.apply(tx, &accesses)?;
        let succeeded = self.base.try_decr();
        if succeeded {
            let base = Arc::clone(&self.base);
            tx.on_abort(move || base.incr());
            self.record_committed_delta(tx, -1);
        }
        Ok(succeeded)
    }

    /// The last-committed value (non-transactional observer).
    pub fn value_now(&self) -> i64 {
        self.committed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proust_stm::{ConflictDetection, Stm, StmConfig, TxError};

    #[test]
    fn counter_access_matches_the_paper_rule() {
        // Below threshold: incr reads ℓ₀, decr writes it; above: nothing.
        let incr = counter_access(CounterOpKind::Incr, 1, COUNTER_THRESHOLD);
        let decr = counter_access(CounterOpKind::Decr, 1, COUNTER_THRESHOLD);
        assert_eq!(incr, AccessSet::reading([0]));
        assert_eq!(decr, AccessSet::writing([0]));
        assert!(decr.conflicts_with(&decr));
        assert!(!incr.conflicts_with(&incr));
        assert!(counter_access(CounterOpKind::Incr, 52, COUNTER_THRESHOLD).is_empty());
        assert!(counter_access(CounterOpKind::Decr, 52, COUNTER_THRESHOLD).is_empty());
    }

    #[test]
    fn base_counter_never_goes_negative() {
        let c = ConcCounter::new(1);
        assert!(c.try_decr());
        assert!(!c.try_decr());
        assert_eq!(c.get(), 0);
        c.incr();
        assert_eq!(c.get(), 1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_initial_panics() {
        let _ = ConcCounter::new(-1);
    }

    #[test]
    fn incr_decr_roundtrip() {
        let stm = Stm::new(StmConfig::default());
        let counter = ProustCounter::new(0);
        stm.atomically(|tx| {
            counter.incr(tx)?;
            counter.incr(tx)
        })
        .unwrap();
        assert_eq!(counter.value_now(), 2);
        let ok = stm.atomically(|tx| counter.decr(tx)).unwrap();
        assert!(ok);
        assert_eq!(counter.value_now(), 1);
    }

    #[test]
    fn decr_at_zero_reports_error_flag() {
        let stm = Stm::new(StmConfig::default());
        let counter = ProustCounter::new(0);
        let ok = stm.atomically(|tx| counter.decr(tx)).unwrap();
        assert!(!ok);
        assert_eq!(counter.value_now(), 0);
    }

    #[test]
    fn abort_rolls_back_eager_updates() {
        let stm = Stm::new(StmConfig::default());
        let counter = ProustCounter::new(5);
        let result: Result<(), _> = stm.atomically(|tx| {
            counter.incr(tx)?;
            counter.incr(tx)?;
            assert!(counter.decr(tx)?);
            Err(TxError::abort("undo all"))
        });
        assert!(result.is_err());
        assert_eq!(counter.value_now(), 5);
        assert_eq!(counter.base.get(), 5, "inverses must restore the base structure");
    }

    #[test]
    fn high_value_ops_do_not_conflict() {
        // Case (1) of §3: at value 52, concurrent incr and decr touch no
        // STM locations at all.
        let stm = Stm::new(StmConfig::default());
        let counter = std::sync::Arc::new(ProustCounter::new(52));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stm = stm.clone();
                let counter = std::sync::Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..100 {
                        stm.atomically(|tx| counter.incr(tx)).unwrap();
                        stm.atomically(|tx| counter.decr(tx).map(|ok| assert!(ok))).unwrap();
                    }
                });
            }
        });
        assert_eq!(counter.value_now(), 52);
        assert_eq!(stm.stats().conflicts, 0, "no conflicts far from zero");
    }

    #[test]
    fn dependent_decr_cannot_drive_committed_value_negative() {
        // The incrementing transaction parks in an end handler registered
        // before `incr`, so it runs ahead of anything `incr` registers
        // there. By then its reader registration on ℓ₀ is released, and a
        // `decr` that consumes the increment can commit in the gap.
        use std::sync::Barrier;
        let stm = Stm::new(StmConfig::with_detection(ConflictDetection::EagerAll));
        let counter = Arc::new(ProustCounter::new(0));
        let parked = Arc::new(Barrier::new(2));
        let resume = Arc::new(Barrier::new(2));
        std::thread::scope(|s| {
            let incrementer = s.spawn(|| {
                stm.atomically(|tx| {
                    let (parked, resume) = (Arc::clone(&parked), Arc::clone(&resume));
                    tx.on_end(move |outcome| {
                        if outcome == proust_stm::TxnOutcome::Committed {
                            parked.wait();
                            resume.wait();
                        }
                    });
                    counter.incr(tx)
                })
                .unwrap();
            });
            parked.wait();
            let ok = stm.atomically(|tx| counter.decr(tx)).unwrap();
            let during = counter.value_now();
            resume.wait();
            incrementer.join().unwrap();
            assert!(ok, "the decr consumes the committed increment");
            assert!(during >= 0, "committed value went negative: {during}");
        });
        assert_eq!(counter.value_now(), 0);
    }

    #[test]
    fn counter_never_observed_negative_under_contention() {
        // Hammer the counter near zero from many threads, under the fully
        // eager backend (the regime where eager/optimistic Proust is
        // opaque, Theorem 5.2). The non-negativity invariant and the
        // committed-value accounting must both hold.
        let stm = Stm::new(StmConfig::with_detection(ConflictDetection::EagerAll));
        let counter = std::sync::Arc::new(ProustCounter::new(1));
        let successes = std::sync::atomic::AtomicI64::new(0);
        std::thread::scope(|s| {
            for t in 0..6usize {
                let stm = stm.clone();
                let counter = std::sync::Arc::clone(&counter);
                let successes = &successes;
                s.spawn(move || {
                    for i in 0..200 {
                        if (t + i) % 2 == 0 {
                            stm.atomically(|tx| counter.incr(tx)).unwrap();
                            successes.fetch_add(1, Ordering::Relaxed);
                        } else {
                            let ok = stm.atomically(|tx| counter.decr(tx)).unwrap();
                            if ok {
                                successes.fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                        assert!(counter.value_now() >= 0);
                    }
                });
            }
        });
        assert_eq!(counter.value_now(), 1 + successes.load(Ordering::Relaxed));
        assert_eq!(counter.value_now(), counter.base.get());
    }
}
