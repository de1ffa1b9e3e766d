//! Latency histograms and conflict attribution for one runtime.
//!
//! Every runtime records into these. The contention group
//! (`lock_wait`, `park`) only fires on paths that are already blocked — a
//! thread that is spinning on someone else's ownership word or parked on
//! the commit condvar pays nothing measurable for two extra clock reads.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use proust_obs::{ConflictMatrix, Histogram, SiteId};

/// Per-site wait-time aggregation: one [`Histogram`] per op site that
/// has ever waited on a contended lock (TVar ownership or abstract
/// lock). Uncontended sites never appear, so the map stays small — the
/// sites that show up are exactly the contended ones worth exporting as
/// `proust_lock_wait_ns{site=...}` series.
///
/// Recording takes a short mutex, which is acceptable because the
/// recording thread just finished waiting anyway; the lock is never on
/// an uncontended fast path.
#[derive(Debug, Default)]
pub struct SiteWaits {
    cells: Mutex<HashMap<SiteId, Arc<Histogram>>>,
}

impl Clone for SiteWaits {
    fn clone(&self) -> SiteWaits {
        let copy = SiteWaits::default();
        copy.merge(self);
        copy
    }
}

impl SiteWaits {
    /// Record `ns` of wait time attributed to `site`.
    pub fn record(&self, site: SiteId, ns: u64) {
        let hist = Arc::clone(self.cells.lock().entry(site).or_default());
        hist.record(ns);
    }

    /// Every site that has waited, with its wait-time histogram, sorted
    /// by descending total nanoseconds waited (deterministic ties by
    /// site name).
    pub fn cells(&self) -> Vec<(SiteId, Arc<Histogram>)> {
        let mut out: Vec<(SiteId, Arc<Histogram>)> =
            self.cells.lock().iter().map(|(&site, hist)| (site, Arc::clone(hist))).collect();
        out.sort_by(|a, b| b.1.sum().cmp(&a.1.sum()).then_with(|| a.0.name().cmp(b.0.name())));
        out
    }

    /// Total wait samples across all sites.
    pub fn count(&self) -> u64 {
        self.cells.lock().values().map(|h| h.count()).sum()
    }

    /// Total nanoseconds waited across all sites.
    pub fn total_ns(&self) -> u64 {
        self.cells.lock().values().map(|h| h.sum()).sum()
    }

    /// Fold another aggregation into this one.
    pub fn merge(&self, other: &SiteWaits) {
        let theirs: Vec<(SiteId, Arc<Histogram>)> =
            other.cells.lock().iter().map(|(&site, hist)| (site, Arc::clone(hist))).collect();
        for (site, hist) in theirs {
            let mine = Arc::clone(self.cells.lock().entry(site).or_default());
            mine.merge(&hist);
        }
    }

    /// Drop every per-site histogram.
    pub fn clear(&self) {
        self.cells.lock().clear();
    }
}

/// Observability aggregates owned by one [`Stm`](crate::Stm) runtime.
///
/// * `txn_latency` — wall time of committed transactions, from the first
///   attempt's start to commit (retries included).
/// * `validation` — commit-time read-set validation.
/// * `lock_writeback` — commit-time ownership acquisition plus buffered
///   write publication (the serialization window).
/// * `replay` — lazy update replay (`on_commit_locked` handlers) at the
///   serialization point; empty for eager-only workloads.
/// * `conflicts` — per-site `(aborter-op, victim-op)` abort attribution,
///   time-weighted by nanoseconds lost; see
///   [`ConflictMatrix::false_conflict_rate`].
/// * `lock_wait` — per-site contended-acquisition wait time (always-on).
/// * `lock_hold` — ownership hold duration of sampled transactions,
///   first acquisition to release.
/// * `park` — condvar park latency of blocking `retry` waiters
///   (always-on; parks are milliseconds-scale by construction).
///
/// All values are nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct StmMetrics {
    /// Whole-transaction latency of commits.
    pub txn_latency: Histogram,
    /// Commit-phase: read-set validation.
    pub validation: Histogram,
    /// Commit-phase: ownership + write-back.
    pub lock_writeback: Histogram,
    /// Commit-phase: lazy replay of update logs.
    pub replay: Histogram,
    /// Conflict attribution matrix (time-weighted).
    pub conflicts: ConflictMatrix,
    /// Per-site contended lock/ownership wait time.
    pub lock_wait: SiteWaits,
    /// Ownership hold duration (sampled transactions only).
    pub lock_hold: Histogram,
    /// Condvar park/wake latency of blocked retry waiters.
    pub park: Histogram,
}

impl StmMetrics {
    /// Fresh, empty metrics.
    pub fn new() -> StmMetrics {
        StmMetrics::default()
    }

    /// Accumulate every histogram and the conflict matrix of `other` into
    /// `self`.
    pub fn merge(&self, other: &StmMetrics) {
        self.txn_latency.merge(&other.txn_latency);
        self.validation.merge(&other.validation);
        self.lock_writeback.merge(&other.lock_writeback);
        self.replay.merge(&other.replay);
        self.conflicts.merge(&other.conflicts);
        self.lock_wait.merge(&other.lock_wait);
        self.lock_hold.merge(&other.lock_hold);
        self.park.merge(&other.park);
    }

    /// Reset every histogram and the conflict matrix.
    pub fn clear(&self) {
        self.txn_latency.clear();
        self.validation.clear();
        self.lock_writeback.clear();
        self.replay.clear();
        self.conflicts.clear();
        self.lock_wait.clear();
        self.lock_hold.clear();
        self.park.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_waits_aggregate_rank_and_merge() {
        let waits = SiteWaits::default();
        let hot = SiteId::intern("metrics-test.hot");
        let cool = SiteId::intern("metrics-test.cool");
        waits.record(cool, 100);
        waits.record(hot, 1_000_000);
        waits.record(hot, 2_000_000);
        assert_eq!(waits.count(), 3);
        assert_eq!(waits.total_ns(), 3_000_100);
        let cells = waits.cells();
        assert_eq!(cells[0].0, hot, "ranking is by total ns waited");
        assert_eq!(cells[0].1.count(), 2);
        let other = SiteWaits::default();
        other.record(cool, 900);
        waits.merge(&other);
        assert_eq!(waits.total_ns(), 3_001_000);
        waits.clear();
        assert_eq!(waits.count(), 0);
        assert!(waits.cells().is_empty());
    }

    #[test]
    fn metrics_merge_and_clear_cover_contention_group() {
        let a = StmMetrics::new();
        let b = StmMetrics::new();
        let site = SiteId::intern("metrics-test.merge");
        b.lock_wait.record(site, 500);
        b.lock_hold.record(800);
        b.park.record(1_000_000);
        b.conflicts.record_loss(site, site, 500);
        a.merge(&b);
        assert_eq!(a.lock_wait.count(), 1);
        assert_eq!(a.lock_hold.count(), 1);
        assert_eq!(a.park.count(), 1);
        assert_eq!(a.conflicts.total_ns_lost(), 500);
        a.clear();
        assert_eq!(a.lock_wait.count(), 0);
        assert_eq!(a.lock_hold.count(), 0);
        assert_eq!(a.park.count(), 0);
        assert_eq!(a.conflicts.total(), 0);
    }
}
