//! Lock allocator policies (LAPs): the concrete end of a conflict
//! abstraction.
//!
//! From §2 of the paper: "programmers are responsible for providing a lock
//! allocator policy (LAP), which allocates concurrency control primitives
//! as needed. The LAP is either optimistic or pessimistic. A pessimistic
//! LAP allocates standard re-entrant read-write locks, while an optimistic
//! LAP returns an object which maps lock invocations to operations on
//! standard STM memory locations, allowing the STM to detect and manage
//! synchronization conflicts."

use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::Arc;

use parking_lot::Mutex;
use proust_stm::obs::{EventKind, Tracer};
use proust_stm::{CmArbitration, ConflictKind, SiteId, TxResult, Txn, TxnHandle, TxnOutcome};

use crate::mode::{Compat, LockRequest, Mode};
use crate::region::StmRegion;

/// A lock allocator policy over abstract-state elements of type `K`.
///
/// Implementations perform the synchronization for one [`LockRequest`] on
/// behalf of a transaction: a pessimistic LAP blocks conflicting
/// transactions by acquiring real locks (released via
/// [`Txn::on_end`]); an optimistic LAP translates the request into STM
/// reads/writes so the underlying STM detects the conflict.
pub trait LockAllocatorPolicy<K>: Send + Sync {
    /// Synchronize `request` before the operation runs.
    ///
    /// # Errors
    ///
    /// Returns a conflict when the request cannot be granted (pessimistic)
    /// or when the STM accesses it maps to conflict (optimistic).
    fn acquire(&self, tx: &mut Txn, request: &LockRequest<K>) -> TxResult<()>;

    /// Re-validate `request` after the operation ran (the trailing half of
    /// the Theorem 5.3 bracket, used by lazy update strategies).
    ///
    /// # Errors
    ///
    /// Returns a conflict if a concurrent commit invalidated the
    /// transaction's view. Pessimistic policies never fail here.
    fn post_validate(&self, tx: &mut Txn, request: &LockRequest<K>) -> TxResult<()>;

    /// Whether this policy resolves conflicts optimistically.
    fn is_optimistic(&self) -> bool;
}

// ---------------------------------------------------------------------
// Optimistic LAP
// ---------------------------------------------------------------------

/// The optimistic policy: lock invocations become reads/writes of an
/// [`StmRegion`] of `M` locations, striped by key hash (§3's
/// `k mod M` scheme). Conflict detection and recovery are inherited from
/// the underlying STM — this is the generalization of transactional
/// predication.
pub struct OptimisticLap<K, S = RandomState> {
    region: Arc<StmRegion>,
    hasher: S,
    /// Optional explicit key → slot mapping, for small enumerated
    /// abstract-state spaces where hash striping could collide distinct
    /// elements (e.g. `PQueueMin` vs `PQueueMultiSet`).
    slot_fn: Option<SlotFn<K>>,
}

/// Explicit key → slot mapping shared by both policies.
type SlotFn<K> = Arc<dyn Fn(&K) -> usize + Send + Sync>;

impl<K, S> fmt::Debug for OptimisticLap<K, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OptimisticLap")
            .field("locations", &self.region.size())
            .field("explicit_slots", &self.slot_fn.is_some())
            .finish()
    }
}

impl<K: Hash> OptimisticLap<K, RandomState> {
    /// Create a policy over a fresh region of `locations` STM cells,
    /// striping keys by hash (§3's `k mod M`).
    pub fn new(locations: usize) -> Self {
        OptimisticLap {
            region: Arc::new(StmRegion::new(locations)),
            hasher: RandomState::new(),
            slot_fn: None,
        }
    }

    /// Like [`new`](Self::new), but the backing region carries a static
    /// site label (e.g. `"map.key-region"`) so conflicts on its locations
    /// are attributed even when the enclosing operation never labelled the
    /// transaction.
    pub fn labelled(locations: usize, label: &'static str) -> Self {
        OptimisticLap {
            region: Arc::new(StmRegion::labelled(locations, label)),
            hasher: RandomState::new(),
            slot_fn: None,
        }
    }

    /// Create a policy with an explicit key → slot mapping (reduced modulo
    /// `locations`). Collision-free when the abstract-state space is small
    /// and enumerable.
    pub fn with_slot_fn(
        locations: usize,
        slot_fn: impl Fn(&K) -> usize + Send + Sync + 'static,
    ) -> Self {
        OptimisticLap {
            region: Arc::new(StmRegion::new(locations)),
            hasher: RandomState::new(),
            slot_fn: Some(Arc::new(slot_fn)),
        }
    }
}

impl<K: Hash, S: BuildHasher> OptimisticLap<K, S> {
    fn slot(&self, key: &K) -> usize {
        match &self.slot_fn {
            Some(slot_fn) => slot_fn(key) % self.region.size(),
            None => (self.hasher.hash_one(key) % self.region.size() as u64) as usize,
        }
    }

    /// The shared region (exposed so tests can inspect sizing).
    pub fn region(&self) -> &StmRegion {
        &self.region
    }
}

impl<K, S> LockAllocatorPolicy<K> for OptimisticLap<K, S>
where
    K: Hash + Send + Sync,
    S: BuildHasher + Send + Sync,
{
    fn acquire(&self, tx: &mut Txn, request: &LockRequest<K>) -> TxResult<()> {
        let slot = self.slot(&request.key);
        // Read first even for writes: recording the location's version in
        // the read set is what lets commit-time validation catch a
        // conflicting transaction that committed after we observed state
        // (the shadow copy consults the live structure, §4).
        self.region.read(tx, slot)?;
        if request.mode.is_write() {
            self.region.write(tx, slot)?;
        }
        Ok(())
    }

    fn post_validate(&self, tx: &mut Txn, request: &LockRequest<K>) -> TxResult<()> {
        // "foreach α ∈ CA(mi) do read(α)" — re-reading triggers the STM's
        // incremental revalidation if any conflicting commit landed while
        // the operation ran.
        self.region.read(tx, self.slot(&request.key))
    }

    fn is_optimistic(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// Pessimistic LAP
// ---------------------------------------------------------------------

/// How many times a blocked acquisition with priority re-polls the lock
/// before giving up and aborting anyway.
const WAIT_POLLS: u32 = 256;

/// Poll budget granted by a [`CmArbitration::Wound`] verdict, independent
/// of the configured `patience`. The wounded holder aborts at its next STM
/// operation or lock poll; the wounder must out-wait that release even
/// when `patience` models an uncoupled `tryLock` (zero), or wounding could
/// not break the upgrade livelock it exists to break.
const WOUND_WAIT_POLLS: u32 = 4096;

#[derive(Debug)]
struct Holder {
    txn: u64,
    /// Handle onto the holding transaction, so a blocked transaction can
    /// arbitrate against (and possibly wound) it.
    handle: TxnHandle,
    read: bool,
    write: bool,
    /// Interned site label of the operation that acquired the lock
    /// (`SiteId::UNKNOWN` when tracing is off or the op is unlabelled);
    /// reported as the *aborter* when this holder blocks someone.
    site: u32,
}

impl Holder {
    fn holds(&self, mode: Mode) -> bool {
        match mode {
            Mode::Read => self.read,
            Mode::Write => self.write,
        }
    }

    fn modes(&self) -> impl Iterator<Item = Mode> + '_ {
        [Mode::Read, Mode::Write].into_iter().filter(|&m| self.holds(m))
    }
}

#[derive(Debug, Default)]
struct Slot {
    holders: Vec<Holder>,
}

struct LockTable {
    slots: Box<[Mutex<Slot>]>,
    mask: usize,
}

impl LockTable {
    fn release(&self, slot: usize, txn: u64) {
        self.slots[slot].lock().holders.retain(|h| h.txn != txn);
    }
}

/// The pessimistic policy: striped, re-entrant abstract locks acquired
/// explicitly before base-object operations and released implicitly when
/// the transaction commits or aborts — transactional boosting's conflict
/// abstraction, with two refinements over the paper's prototype:
///
/// * the compatibility protocol is pluggable ([`Compat`]), so rules like
///   `PQueueMultiSet`'s "multiple writers *or* multiple readers" are
///   expressed exactly instead of approximated by a read/write lock;
/// * blocked acquisitions are arbitrated by the runtime's pluggable
///   [`ContentionManager`](proust_stm::ContentionManager) (via
///   [`Txn::arbitrate`]) and never block indefinitely — losers convert to
///   STM conflicts, and wounding policies (`Greedy`, `Karma`) doom the
///   younger/poorer *holder*, which breaks the two-transaction upgrade
///   livelock the paper reports for its weakly-coupled CCSTM experiments
///   in §7.
pub struct PessimisticLap<K, S = RandomState> {
    table: Arc<LockTable>,
    hasher: S,
    /// How many times a blocked-with-priority acquisition re-polls before
    /// dying anyway. Zero models an uncoupled `tryLock` (classic
    /// boosting); the default couples lock waits to wound-wait priority.
    patience: u32,
    /// Per-element compatibility protocol (the paper's per-abstract-state
    /// rules: `PQueueMin` is read/write while `PQueueMultiSet` is
    /// group-exclusive).
    compat_fn: Arc<dyn Fn(&K) -> Compat + Send + Sync>,
    /// Optional explicit key → slot mapping. **Required** whenever
    /// `compat_fn` is non-uniform: keys with different protocols must not
    /// share a striped slot, or the weaker protocol could grant holders
    /// the stricter one would refuse.
    slot_fn: Option<SlotFn<K>>,
}

impl<K, S> fmt::Debug for PessimisticLap<K, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PessimisticLap")
            .field("slots", &self.table.slots.len())
            .field("patience", &self.patience)
            .field("explicit_slots", &self.slot_fn.is_some())
            .finish()
    }
}

impl<K: Hash + Send + Sync> PessimisticLap<K, RandomState> {
    /// Create a policy with `slots` striped locks (rounded up to a power of
    /// two) under the classic read/write protocol.
    pub fn new(slots: usize) -> Self {
        Self::with_compat(slots, Compat::ReadWrite)
    }

    /// Create a policy with a custom compatibility protocol.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn with_compat(slots: usize, compat: Compat) -> Self {
        Self::with_patience(slots, compat, WAIT_POLLS)
    }

    /// Create a policy with a custom compatibility protocol and wait
    /// patience. `patience == 0` never waits — every blocked acquisition
    /// aborts immediately, modelling a lock manager that is not coupled to
    /// the STM's contention manager (classic boosting).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn with_patience(slots: usize, compat: Compat, patience: u32) -> Self {
        assert!(slots > 0, "lock table needs at least one slot");
        let count = slots.next_power_of_two();
        PessimisticLap {
            table: Arc::new(LockTable {
                slots: (0..count).map(|_| Mutex::new(Slot::default())).collect(),
                mask: count - 1,
            }),
            hasher: RandomState::new(),
            patience,
            compat_fn: Arc::new(move |_| compat),
            slot_fn: None,
        }
    }

    /// Create a policy with **per-element** protocols and an explicit
    /// key → slot mapping. This is how Listing 3's rules are expressed
    /// exactly: "`PQueueMin` allows multiple readers and a single writer,
    /// whereas `PQueueMultiSet` allows multiple writers or multiple
    /// readers (but not both simultaneously)":
    ///
    /// ```
    /// use proust_core::structures::PQueueState;
    /// use proust_core::{Compat, PessimisticLap};
    ///
    /// let lap = PessimisticLap::with_protocols(
    ///     2,
    ///     |state: &PQueueState| match state {
    ///         PQueueState::Min => 0,
    ///         PQueueState::MultiSet => 1,
    ///     },
    ///     |state| match state {
    ///         PQueueState::Min => Compat::ReadWrite,
    ///         PQueueState::MultiSet => Compat::GroupExclusive,
    ///     },
    /// );
    /// # let _ = lap;
    /// ```
    ///
    /// The slot mapping must keep keys with different protocols on
    /// different slots (trivial for small enumerated state spaces).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn with_protocols(
        slots: usize,
        slot_fn: impl Fn(&K) -> usize + Send + Sync + 'static,
        compat_fn: impl Fn(&K) -> Compat + Send + Sync + 'static,
    ) -> Self {
        assert!(slots > 0, "lock table needs at least one slot");
        let count = slots.next_power_of_two();
        PessimisticLap {
            table: Arc::new(LockTable {
                slots: (0..count).map(|_| Mutex::new(Slot::default())).collect(),
                mask: count - 1,
            }),
            hasher: RandomState::new(),
            patience: WAIT_POLLS,
            compat_fn: Arc::new(compat_fn),
            slot_fn: Some(Arc::new(slot_fn)),
        }
    }
}

impl<K: Hash, S: BuildHasher> PessimisticLap<K, S> {
    fn slot_index(&self, key: &K) -> usize {
        match &self.slot_fn {
            Some(slot_fn) => slot_fn(key) & self.table.mask,
            None => (self.hasher.hash_one(key) as usize) & self.table.mask,
        }
    }
}

enum TryOutcome {
    /// Granted; `true` means a new holder entry was created (so a release
    /// handler must be registered).
    Granted(bool),
    /// Blocked. Carries a handle onto the oldest conflicting holder (the
    /// opponent the contention manager arbitrates against) and that
    /// holder's interned site for attribution.
    Blocked { opponent: TxnHandle, site: u32 },
}

impl<K, S> PessimisticLap<K, S>
where
    K: Hash + Send + Sync,
    S: BuildHasher + Send + Sync,
{
    fn try_acquire(
        &self,
        slot: usize,
        requester: &TxnHandle,
        site: u32,
        mode: Mode,
        compat: Compat,
    ) -> TryOutcome {
        let txn = requester.id();
        let mut guard = self.table.slots[slot].lock();
        // Re-entrant fast path: if we already hold this mode nothing can
        // have invalidated it (grants are mutually compatible).
        if guard.holders.iter().any(|h| h.txn == txn && h.holds(mode)) {
            return TryOutcome::Granted(false);
        }
        // Surface the oldest conflicting holder as the opponent: it is the
        // one wound-wait semantics arbitrate against, and waiting out the
        // oldest implies waiting out the rest.
        let mut oldest_conflicting: Option<((u64, u64), &Holder)> = None;
        for holder in guard.holders.iter().filter(|h| h.txn != txn) {
            if holder.modes().any(|held| !compat.compatible(held, mode)) {
                let stamp = (holder.handle.birth(), holder.txn);
                if oldest_conflicting.is_none_or(|(prev, _)| stamp < prev) {
                    oldest_conflicting = Some((stamp, holder));
                }
            }
        }
        if let Some((_, holder)) = oldest_conflicting {
            return TryOutcome::Blocked { opponent: holder.handle.clone(), site: holder.site };
        }
        // Grant: extend an existing entry (upgrade) or create one.
        if let Some(holder) = guard.holders.iter_mut().find(|h| h.txn == txn) {
            match mode {
                Mode::Read => holder.read = true,
                Mode::Write => holder.write = true,
            }
            TryOutcome::Granted(false)
        } else {
            guard.holders.push(Holder {
                txn,
                handle: requester.clone(),
                read: mode == Mode::Read,
                write: mode == Mode::Write,
                site,
            });
            TryOutcome::Granted(true)
        }
    }

    /// Total holder entries across all slots. Diagnostic: once every
    /// transaction has finished this must be zero (all abstract locks
    /// released), which the chaos harness asserts after each run.
    pub fn outstanding(&self) -> usize {
        self.table.slots.iter().map(|slot| slot.lock().holders.len()).sum()
    }
}

impl<K, S> LockAllocatorPolicy<K> for PessimisticLap<K, S>
where
    K: Hash + Send + Sync,
    S: BuildHasher + Send + Sync,
{
    fn acquire(&self, tx: &mut Txn, request: &LockRequest<K>) -> TxResult<()> {
        // Chaos injection sits before the first try: a panic or spurious
        // conflict here never strands a granted-but-unregistered entry.
        #[cfg(feature = "chaos")]
        if let Err(kind) = proust_stm::chaos::inject(proust_stm::chaos::InjectionPoint::LockAcquire)
        {
            return tx.conflict(kind);
        }
        let slot = self.slot_index(&request.key);
        let compat = (self.compat_fn)(&request.key);
        let requester = tx.handle();
        let txn = tx.id();
        let site = tx.op_site();
        let mut polls = 0;
        // Wait timing is always-on but lazy: the stopwatch only starts on
        // the first `Blocked` verdict, so an uncontended grant never reads
        // the clock.
        let mut wait_start: Option<std::time::Instant> = None;
        loop {
            // A wounded waiter must abort promptly: it may itself hold
            // locks (the upgrade scenario) that its wounder is waiting on.
            tx.check_wounded()?;
            match self.try_acquire(slot, &requester, site.as_u32(), request.mode, compat) {
                TryOutcome::Granted(new_entry) => {
                    if let Some(start) = wait_start {
                        tx.note_lock_wait(site, start.elapsed().as_nanos() as u64);
                    }
                    if new_entry {
                        let sampled = tx.is_sampled();
                        if sampled {
                            Tracer::global().emit(txn, EventKind::LockAcquire, site, slot as u64);
                        }
                        // `None` unless this call was sampled, so the
                        // common path carries no stopwatch.
                        let hold_timer = tx.lock_hold_timer();
                        let table = Arc::clone(&self.table);
                        tx.on_end(move |_outcome: TxnOutcome| {
                            table.release(slot, txn);
                            if let Some(timer) = hold_timer {
                                timer.finish();
                            }
                            if sampled {
                                Tracer::global().emit(
                                    txn,
                                    EventKind::LockRelease,
                                    site,
                                    slot as u64,
                                );
                            }
                        });
                    }
                    return Ok(());
                }
                TryOutcome::Blocked { opponent, site: blocker } => {
                    let started = *wait_start.get_or_insert_with(std::time::Instant::now);
                    // Budget is re-derived each poll: the opponent can
                    // change as holders come and go.
                    let budget = match tx.arbitrate(&opponent) {
                        CmArbitration::Die => 0,
                        CmArbitration::Wait => self.patience,
                        CmArbitration::Wound => self.patience.max(WOUND_WAIT_POLLS),
                    };
                    if polls < budget {
                        polls += 1;
                        std::thread::yield_now();
                    } else {
                        // Charge the fruitless wait to the blocked site and
                        // to the (aborter, victim) pair — the nanoseconds
                        // this conflict actually cost the victim.
                        let lost_ns = started.elapsed().as_nanos() as u64;
                        tx.note_lock_wait(site, lost_ns);
                        return tx.conflict_attributed_with_loss(
                            ConflictKind::AbstractLock,
                            SiteId::from_u32(blocker),
                            lost_ns,
                        );
                    }
                }
            }
        }
    }

    fn post_validate(&self, _tx: &mut Txn, _request: &LockRequest<K>) -> TxResult<()> {
        // Locks are held until the transaction ends; nothing can have been
        // invalidated.
        Ok(())
    }

    fn is_optimistic(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proust_stm::{Stm, StmConfig};

    fn acquire_all<K: Clone>(
        lap: &dyn LockAllocatorPolicy<K>,
        stm: &Stm,
        requests: Vec<LockRequest<K>>,
    ) {
        stm.atomically(|tx| {
            for request in &requests {
                lap.acquire(tx, request)?;
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn optimistic_readers_never_conflict() {
        let stm = Stm::new(StmConfig::default());
        let lap: Arc<OptimisticLap<u32>> = Arc::new(OptimisticLap::new(8));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stm = stm.clone();
                let lap = Arc::clone(&lap);
                s.spawn(move || {
                    for k in 0..100u32 {
                        acquire_all(&*lap, &stm, vec![LockRequest::read(k)]);
                    }
                });
            }
        });
        assert_eq!(stm.stats().conflicts, 0);
    }

    #[test]
    fn optimistic_writers_on_same_key_conflict_but_commit() {
        let stm = Stm::new(StmConfig::default());
        let lap: Arc<OptimisticLap<u32>> = Arc::new(OptimisticLap::new(4));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stm = stm.clone();
                let lap = Arc::clone(&lap);
                s.spawn(move || {
                    for _ in 0..200 {
                        acquire_all(&*lap, &stm, vec![LockRequest::write(7u32)]);
                    }
                });
            }
        });
        assert_eq!(stm.stats().commits, 800);
    }

    #[test]
    fn pessimistic_is_reentrant_and_upgradable() {
        let stm = Stm::new(StmConfig::default());
        let lap: PessimisticLap<u32> = PessimisticLap::new(8);
        stm.atomically(|tx| {
            lap.acquire(tx, &LockRequest::read(1))?;
            lap.acquire(tx, &LockRequest::read(1))?; // re-entrant
            lap.acquire(tx, &LockRequest::write(1))?; // upgrade (sole holder)
            lap.acquire(tx, &LockRequest::write(1)) // re-entrant write
        })
        .unwrap();
        // All locks released at commit: a fresh writer gets in immediately.
        stm.atomically(|tx| lap.acquire(tx, &LockRequest::write(1))).unwrap();
    }

    #[test]
    fn pessimistic_writers_exclude_but_all_commit() {
        let stm = Stm::new(StmConfig::default());
        let lap: Arc<PessimisticLap<u32>> = Arc::new(PessimisticLap::new(4));
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stm = stm.clone();
                let lap = Arc::clone(&lap);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..200 {
                        stm.atomically(|tx| {
                            lap.acquire(tx, &LockRequest::write(3u32))?;
                            // Unsynchronized-looking increment, protected
                            // by the abstract lock.
                            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 800);
        assert_eq!(stm.stats().commits, 800);
    }

    #[test]
    fn group_exclusive_lets_writers_share() {
        let stm = Stm::new(StmConfig::default());
        let lap: Arc<PessimisticLap<&'static str>> =
            Arc::new(PessimisticLap::with_compat(4, Compat::GroupExclusive));
        // Many concurrent writers to the same abstract element: under
        // GroupExclusive they co-hold, so no abstract-lock conflicts at all
        // when only writers run.
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stm = stm.clone();
                let lap = Arc::clone(&lap);
                s.spawn(move || {
                    for _ in 0..100 {
                        acquire_all(&*lap, &stm, vec![LockRequest::write("multiset")]);
                    }
                });
            }
        });
        assert_eq!(stm.stats().abstract_lock, 0);
    }

    #[test]
    fn exclusive_blocks_even_readers() {
        let stm = Stm::new(StmConfig::with_detection(proust_stm::ConflictDetection::Mixed));
        let lap: PessimisticLap<u8> = PessimisticLap::with_compat(1, Compat::Exclusive);
        // Single-threaded sanity: read then read re-enters fine.
        stm.atomically(|tx| {
            lap.acquire(tx, &LockRequest::read(0))?;
            lap.acquire(tx, &LockRequest::read(0))
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let _ = PessimisticLap::<u8>::with_compat(0, Compat::ReadWrite);
    }

    /// A blocked pessimistic acquisition must name the holder's op site as
    /// the aborter in the conflict matrix.
    #[test]
    fn abstract_lock_conflicts_are_attributed_to_the_holder() {
        use proust_stm::SiteId;

        let stm = Stm::new(StmConfig::default());
        // patience 0: a blocked acquisition converts to a conflict at once.
        let lap: Arc<PessimisticLap<u32>> =
            Arc::new(PessimisticLap::with_patience(1, Compat::ReadWrite, 0));
        let holder_site = SiteId::intern("lap-test.holder");
        let victim_site = SiteId::intern("lap-test.victim");
        let held = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            {
                let stm = stm.clone();
                let lap = Arc::clone(&lap);
                let held = &held;
                s.spawn(move || {
                    stm.atomically(|tx| {
                        tx.set_op_site(holder_site);
                        lap.acquire(tx, &LockRequest::write(0))?;
                        held.wait(); // lock is held; let the victim run
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(())
                    })
                    .unwrap();
                });
            }
            held.wait();
            // The victim is younger (born after the holder acquired), so
            // wound-wait sends it straight to Die → AbstractLock conflict.
            stm.atomically(|tx| {
                tx.set_op_site(victim_site);
                lap.acquire(tx, &LockRequest::write(0))
            })
            .unwrap();
        });
        assert!(stm.stats().abstract_lock >= 1);
        assert!(stm.stats().lock_waits >= 1, "the blocked wait must hit the cumulative counter");
        assert!(stm.metrics().lock_wait.count() >= 1, "the wait must land in a per-site cell");
        let attributed = stm
            .metrics()
            .conflicts
            .cells()
            .into_iter()
            .any(|cell| cell.aborter == holder_site && cell.victim == victim_site);
        assert!(attributed, "expected (holder, victim) cell in {:?}", stm.metrics().conflicts);
    }
}
