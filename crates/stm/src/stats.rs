//! Commit/abort/conflict counters for observability.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::ConflictKind;

/// Aggregate statistics for one [`Stm`](crate::Stm) runtime.
///
/// All counters are monotone and updated with relaxed atomics; they are
/// intended for benchmarking and diagnostics, not for synchronization.
#[derive(Debug, Default)]
pub struct StmStats {
    starts: AtomicU64,
    commits: AtomicU64,
    user_aborts: AtomicU64,
    conflicts: AtomicU64,
    read_invalid: AtomicU64,
    read_too_new: AtomicU64,
    write_locked: AtomicU64,
    read_locked: AtomicU64,
    visible_readers: AtomicU64,
    wounded: AtomicU64,
    abstract_lock: AtomicU64,
    external: AtomicU64,
    retries_requested: AtomicU64,
    exhausted: AtomicU64,
    serial_escalations: AtomicU64,
    wounds_issued: AtomicU64,
    lock_waits: AtomicU64,
    lock_wait_ns: AtomicU64,
    parks: AtomicU64,
    park_ns: AtomicU64,
    serial_held_ns: AtomicU64,
}

/// A point-in-time copy of [`StmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StmStatsSnapshot {
    /// Transaction attempts started (including retries).
    pub starts: u64,
    /// Successful commits.
    pub commits: u64,
    /// Permanent user aborts.
    pub user_aborts: u64,
    /// Total conflicts of any kind.
    pub conflicts: u64,
    /// Conflicts where a read-set entry was invalidated at commit.
    pub read_invalid: u64,
    /// Conflicts where a read observed a too-new version.
    pub read_too_new: u64,
    /// Conflicts on encounter-time write ownership.
    pub write_locked: u64,
    /// Conflicts where a read hit a locked location.
    pub read_locked: u64,
    /// Eager writers blocked by visible readers.
    pub visible_readers: u64,
    /// Transactions wounded by older transactions.
    pub wounded: u64,
    /// Abstract-lock acquisition failures (pessimistic Proust).
    pub abstract_lock: u64,
    /// Conflicts raised by code layered above the STM.
    pub external: u64,
    /// User-requested retries.
    pub retries_requested: u64,
    /// Transactions that exhausted `max_retries` and gave up (only under
    /// the opt-in give-up exhaustion policy).
    pub exhausted: u64,
    /// Escalations into the global serial-irrevocable mode.
    pub serial_escalations: u64,
    /// Wounds issued by contention-management arbitration (each one dooms
    /// an opponent; the victim's abort shows up under `wounded`).
    pub wounds_issued: u64,
    /// Contended lock acquisitions (TVar ownership or abstract lock)
    /// that actually waited — uncontended fast-path grants don't count.
    pub lock_waits: u64,
    /// Cumulative nanoseconds spent waiting in contended lock
    /// acquisitions (the numerator of time-weighted contention).
    pub lock_wait_ns: u64,
    /// Condvar parks taken by blocking `retry` waiters (the Harris
    /// `wait_for_change` slow path past the spin phase).
    pub parks: u64,
    /// Cumulative nanoseconds spent parked waiting for a commit signal.
    pub park_ns: u64,
    /// Cumulative nanoseconds the serial-irrevocable gate was held (the
    /// window where all other commits are frozen).
    pub serial_held_ns: u64,
}

impl StmStatsSnapshot {
    /// Fraction of started attempts that committed, in `[0, 1]`.
    pub fn commit_rate(&self) -> f64 {
        if self.starts == 0 {
            1.0
        } else {
            self.commits as f64 / self.starts as f64
        }
    }

    /// Field-wise difference `self - before`, saturating at zero.
    ///
    /// The counters are monotone, so for two snapshots of the same runtime
    /// taken in order this yields exactly the activity between them;
    /// saturation only matters if snapshots are mixed up, where a nonsense
    /// negative count would otherwise wrap to ~2^64.
    pub fn delta(&self, before: &StmStatsSnapshot) -> StmStatsSnapshot {
        StmStatsSnapshot {
            starts: self.starts.saturating_sub(before.starts),
            commits: self.commits.saturating_sub(before.commits),
            user_aborts: self.user_aborts.saturating_sub(before.user_aborts),
            conflicts: self.conflicts.saturating_sub(before.conflicts),
            read_invalid: self.read_invalid.saturating_sub(before.read_invalid),
            read_too_new: self.read_too_new.saturating_sub(before.read_too_new),
            write_locked: self.write_locked.saturating_sub(before.write_locked),
            read_locked: self.read_locked.saturating_sub(before.read_locked),
            visible_readers: self.visible_readers.saturating_sub(before.visible_readers),
            wounded: self.wounded.saturating_sub(before.wounded),
            abstract_lock: self.abstract_lock.saturating_sub(before.abstract_lock),
            external: self.external.saturating_sub(before.external),
            retries_requested: self.retries_requested.saturating_sub(before.retries_requested),
            exhausted: self.exhausted.saturating_sub(before.exhausted),
            serial_escalations: self.serial_escalations.saturating_sub(before.serial_escalations),
            wounds_issued: self.wounds_issued.saturating_sub(before.wounds_issued),
            lock_waits: self.lock_waits.saturating_sub(before.lock_waits),
            lock_wait_ns: self.lock_wait_ns.saturating_sub(before.lock_wait_ns),
            parks: self.parks.saturating_sub(before.parks),
            park_ns: self.park_ns.saturating_sub(before.park_ns),
            serial_held_ns: self.serial_held_ns.saturating_sub(before.serial_held_ns),
        }
    }

    /// Field-wise sum `self + other`, for aggregating snapshots taken from
    /// several runtimes (e.g. one per benchmark repetition).
    pub fn merged(&self, other: &StmStatsSnapshot) -> StmStatsSnapshot {
        StmStatsSnapshot {
            starts: self.starts + other.starts,
            commits: self.commits + other.commits,
            user_aborts: self.user_aborts + other.user_aborts,
            conflicts: self.conflicts + other.conflicts,
            read_invalid: self.read_invalid + other.read_invalid,
            read_too_new: self.read_too_new + other.read_too_new,
            write_locked: self.write_locked + other.write_locked,
            read_locked: self.read_locked + other.read_locked,
            visible_readers: self.visible_readers + other.visible_readers,
            wounded: self.wounded + other.wounded,
            abstract_lock: self.abstract_lock + other.abstract_lock,
            external: self.external + other.external,
            retries_requested: self.retries_requested + other.retries_requested,
            exhausted: self.exhausted + other.exhausted,
            serial_escalations: self.serial_escalations + other.serial_escalations,
            wounds_issued: self.wounds_issued + other.wounds_issued,
            lock_waits: self.lock_waits + other.lock_waits,
            lock_wait_ns: self.lock_wait_ns + other.lock_wait_ns,
            parks: self.parks + other.parks,
            park_ns: self.park_ns + other.park_ns,
            serial_held_ns: self.serial_held_ns + other.serial_held_ns,
        }
    }

    /// Sum of the per-kind conflict counters. Always equals
    /// [`conflicts`](Self::conflicts) for snapshots of a single runtime.
    pub fn conflict_kind_sum(&self) -> u64 {
        self.read_invalid
            + self.read_too_new
            + self.write_locked
            + self.read_locked
            + self.visible_readers
            + self.wounded
            + self.abstract_lock
            + self.external
    }
}

impl fmt::Display for StmStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "starts={} commits={} conflicts={} (rd-inval={} rd-new={} wr-lock={} rd-lock={} vis-rd={} wounded={} abs-lock={} ext={}) user-aborts={} retries={} exhausted={} serial={} wounds={} lock-waits={} lock-wait-ns={} parks={} park-ns={} serial-held-ns={}",
            self.starts,
            self.commits,
            self.conflicts,
            self.read_invalid,
            self.read_too_new,
            self.write_locked,
            self.read_locked,
            self.visible_readers,
            self.wounded,
            self.abstract_lock,
            self.external,
            self.user_aborts,
            self.retries_requested,
            self.exhausted,
            self.serial_escalations,
            self.wounds_issued,
            self.lock_waits,
            self.lock_wait_ns,
            self.parks,
            self.park_ns,
            self.serial_held_ns,
        )
    }
}

impl StmStats {
    pub(crate) fn record_start(&self) {
        self.starts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_commit(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_user_abort(&self) {
        self.user_aborts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_retry_requested(&self) {
        self.retries_requested.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_exhausted(&self) {
        self.exhausted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_serial_escalation(&self) {
        self.serial_escalations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_wound(&self) {
        self.wounds_issued.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_lock_wait(&self, ns: u64) {
        self.lock_waits.fetch_add(1, Ordering::Relaxed);
        self.lock_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn record_park(&self, ns: u64) {
        self.parks.fetch_add(1, Ordering::Relaxed);
        self.park_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn record_serial_held(&self, ns: u64) {
        self.serial_held_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn record_conflict(&self, kind: ConflictKind) {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
        let counter = match kind {
            ConflictKind::ReadInvalid => &self.read_invalid,
            ConflictKind::ReadTooNew => &self.read_too_new,
            ConflictKind::WriteLocked => &self.write_locked,
            ConflictKind::ReadLocked => &self.read_locked,
            ConflictKind::VisibleReaders => &self.visible_readers,
            ConflictKind::Wounded => &self.wounded,
            ConflictKind::AbstractLock => &self.abstract_lock,
            ConflictKind::External(_) => &self.external,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current counter values.
    pub fn snapshot(&self) -> StmStatsSnapshot {
        StmStatsSnapshot {
            starts: self.starts.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            user_aborts: self.user_aborts.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            read_invalid: self.read_invalid.load(Ordering::Relaxed),
            read_too_new: self.read_too_new.load(Ordering::Relaxed),
            write_locked: self.write_locked.load(Ordering::Relaxed),
            read_locked: self.read_locked.load(Ordering::Relaxed),
            visible_readers: self.visible_readers.load(Ordering::Relaxed),
            wounded: self.wounded.load(Ordering::Relaxed),
            abstract_lock: self.abstract_lock.load(Ordering::Relaxed),
            external: self.external.load(Ordering::Relaxed),
            retries_requested: self.retries_requested.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            serial_escalations: self.serial_escalations.load(Ordering::Relaxed),
            wounds_issued: self.wounds_issued.load(Ordering::Relaxed),
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
            lock_wait_ns: self.lock_wait_ns.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            park_ns: self.park_ns.load(Ordering::Relaxed),
            serial_held_ns: self.serial_held_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_kinds_route_to_their_counter() {
        let stats = StmStats::default();
        stats.record_conflict(ConflictKind::WriteLocked);
        stats.record_conflict(ConflictKind::WriteLocked);
        stats.record_conflict(ConflictKind::ReadInvalid);
        stats.record_conflict(ConflictKind::External("abstract"));
        let snap = stats.snapshot();
        assert_eq!(snap.conflicts, 4);
        assert_eq!(snap.write_locked, 2);
        assert_eq!(snap.read_invalid, 1);
        assert_eq!(snap.external, 1);
    }

    #[test]
    fn commit_rate_handles_zero_starts() {
        assert_eq!(StmStats::default().snapshot().commit_rate(), 1.0);
    }

    #[test]
    fn display_mentions_all_counters() {
        let stats = StmStats::default();
        stats.record_start();
        stats.record_commit();
        let text = stats.snapshot().to_string();
        assert!(text.contains("starts=1"));
        assert!(text.contains("commits=1"));
    }

    #[test]
    fn delta_subtracts_fieldwise_and_saturates() {
        let stats = StmStats::default();
        stats.record_start();
        stats.record_conflict(ConflictKind::WriteLocked);
        let before = stats.snapshot();
        stats.record_start();
        stats.record_start();
        stats.record_commit();
        stats.record_conflict(ConflictKind::WriteLocked);
        stats.record_conflict(ConflictKind::Wounded);
        stats.record_retry_requested();
        let after = stats.snapshot();
        let delta = after.delta(&before);
        assert_eq!(delta.starts, 2);
        assert_eq!(delta.commits, 1);
        assert_eq!(delta.conflicts, 2);
        assert_eq!(delta.write_locked, 1);
        assert_eq!(delta.wounded, 1);
        assert_eq!(delta.retries_requested, 1);
        assert_eq!(delta.user_aborts, 0);
        // Snapshots passed in the wrong order saturate instead of wrapping.
        let nonsense = before.delta(&after);
        assert_eq!(nonsense.starts, 0);
        assert_eq!(nonsense.conflicts, 0);
    }

    #[test]
    fn cm_counters_record_and_merge() {
        let stats = StmStats::default();
        stats.record_exhausted();
        stats.record_serial_escalation();
        stats.record_serial_escalation();
        stats.record_wound();
        let snap = stats.snapshot();
        assert_eq!(snap.exhausted, 1);
        assert_eq!(snap.serial_escalations, 2);
        assert_eq!(snap.wounds_issued, 1);
        // Wounds/escalations are not conflicts; the kind sum is untouched.
        assert_eq!(snap.conflict_kind_sum(), 0);
        let doubled = snap.merged(&snap);
        assert_eq!(doubled.exhausted, 2);
        assert_eq!(doubled.serial_escalations, 4);
        assert_eq!(doubled.wounds_issued, 2);
    }

    #[test]
    fn contention_counters_record_delta_and_merge() {
        let stats = StmStats::default();
        stats.record_lock_wait(1_000);
        stats.record_lock_wait(2_000);
        stats.record_park(50_000);
        stats.record_serial_held(7_000);
        let snap = stats.snapshot();
        assert_eq!(snap.lock_waits, 2);
        assert_eq!(snap.lock_wait_ns, 3_000);
        assert_eq!(snap.parks, 1);
        assert_eq!(snap.park_ns, 50_000);
        assert_eq!(snap.serial_held_ns, 7_000);
        stats.record_lock_wait(500);
        let delta = stats.snapshot().delta(&snap);
        assert_eq!(delta.lock_waits, 1);
        assert_eq!(delta.lock_wait_ns, 500);
        assert_eq!(delta.parks, 0);
        let doubled = snap.merged(&snap);
        assert_eq!(doubled.lock_wait_ns, 6_000);
        assert_eq!(doubled.serial_held_ns, 14_000);
        let text = snap.to_string();
        assert!(text.contains("lock-wait-ns=3000"), "{text}");
        assert!(text.contains("parks=1"), "{text}");
    }

    #[test]
    fn conflict_kind_breakdown_sums_to_total() {
        let stats = StmStats::default();
        let kinds = [
            ConflictKind::ReadInvalid,
            ConflictKind::ReadTooNew,
            ConflictKind::WriteLocked,
            ConflictKind::ReadLocked,
            ConflictKind::VisibleReaders,
            ConflictKind::Wounded,
            ConflictKind::AbstractLock,
            ConflictKind::External("x"),
        ];
        for (i, kind) in kinds.iter().enumerate() {
            for _ in 0..=i {
                stats.record_conflict(*kind);
            }
        }
        let snap = stats.snapshot();
        assert_eq!(snap.conflict_kind_sum(), snap.conflicts);
        assert_eq!(snap.conflicts, (1..=kinds.len() as u64).sum::<u64>());
    }

    #[test]
    fn concurrent_recording_loses_no_counts() {
        let stats = std::sync::Arc::new(StmStats::default());
        let threads = 8u64;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let stats = std::sync::Arc::clone(&stats);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        stats.record_start();
                        if i % 3 == 0 {
                            stats.record_conflict(match (t + i) % 4 {
                                0 => ConflictKind::ReadInvalid,
                                1 => ConflictKind::WriteLocked,
                                2 => ConflictKind::AbstractLock,
                                _ => ConflictKind::Wounded,
                            });
                        } else {
                            stats.record_commit();
                        }
                    }
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.starts, threads * per_thread);
        let expected_conflicts = threads * per_thread.div_ceil(3);
        assert_eq!(snap.conflicts, expected_conflicts);
        assert_eq!(snap.commits, threads * per_thread - expected_conflicts);
        assert_eq!(snap.conflict_kind_sum(), snap.conflicts);
    }
}
