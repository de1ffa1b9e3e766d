//! The STM-managed memory region that conflict abstractions map into.
//!
//! Section 3 of the paper: "we start with an underlying STM, and allocate
//! an array of STM-managed memory locations `mem` of size M, a parameter to
//! be tuned later. [...] A conflict abstraction assigns to each operation
//! of abstract type one or more memory locations to be read or written in
//! such a way that non-commuting operations trigger conflicting memory
//! accesses."
//!
//! The values stored in the region do not matter as long as writes store
//! *unique* values (the paper suggests sequence numbers); [`StmRegion`]
//! writes a global sequence number.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use proust_stm::{SiteId, TVar, TxResult, Txn};

use crate::conflict::AccessSet;

/// Source of unique tokens for conflict-abstraction writes.
static TOKENS: AtomicU64 = AtomicU64::new(1);

/// An array of `M` STM-managed locations used purely for synchronization.
///
/// # Examples
///
/// ```
/// use proust_core::StmRegion;
/// use proust_stm::{Stm, StmConfig};
///
/// let stm = Stm::new(StmConfig::default());
/// let region = StmRegion::new(16);
/// stm.atomically(|tx| {
///     region.read(tx, 3)?; // announce interest in location 3
///     region.write(tx, 7)  // announce a conflicting update to location 7
/// })
/// .unwrap();
/// ```
pub struct StmRegion {
    locations: Vec<TVar<u64>>,
    /// Static site label for conflict attribution; `SiteId::UNKNOWN` for
    /// unlabelled regions.
    label: SiteId,
}

impl fmt::Debug for StmRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StmRegion")
            .field("size", &self.locations.len())
            .field("label", &self.label.name())
            .finish()
    }
}

impl StmRegion {
    /// Allocate a region of `size` locations.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "region size must be positive");
        StmRegion { locations: (0..size).map(|_| TVar::new(0)).collect(), label: SiteId::UNKNOWN }
    }

    /// Allocate a region carrying a static site label (e.g.
    /// `"map.key-region"`). When tracing is enabled, accesses through an
    /// otherwise-unlabelled transaction adopt this label, so conflict
    /// attribution can name the region instead of reporting `unknown`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn labelled(size: usize, label: &'static str) -> Self {
        let mut region = Self::new(size);
        region.label = SiteId::intern(label);
        region
    }

    /// The region's site label (`SiteId::UNKNOWN` when unlabelled).
    pub fn site(&self) -> SiteId {
        self.label
    }

    /// Stamp the region label onto transactions that carry no op label of
    /// their own, so the attribution machinery has *something* to report.
    fn default_site(&self, tx: &mut Txn) {
        if self.label != SiteId::UNKNOWN && tx.op_site() == SiteId::UNKNOWN {
            tx.set_op_site(self.label);
        }
    }

    /// Number of locations (the paper's `M`).
    pub fn size(&self) -> usize {
        self.locations.len()
    }

    /// Number of locations currently owned by some transaction.
    ///
    /// Diagnostic only (inherently racy): once every transaction has
    /// finished it must be zero, which the chaos harness asserts after
    /// each run.
    pub fn owned_count(&self) -> usize {
        self.locations.iter().filter(|location| location.is_owned()).count()
    }

    /// Transactionally read location `index` (announces a read-mode
    /// interest; the value itself carries no meaning).
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn read(&self, tx: &mut Txn, index: usize) -> TxResult<()> {
        self.default_site(tx);
        self.locations[index].read(tx)?;
        Ok(())
    }

    /// Transactionally write a fresh unique token to location `index`
    /// (announces a write-mode, i.e. conflicting, interest).
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn write(&self, tx: &mut Txn, index: usize) -> TxResult<()> {
        self.default_site(tx);
        let token = TOKENS.fetch_add(1, Ordering::Relaxed);
        self.locations[index].write(tx, token)
    }

    /// Perform every access in `set`: reads first, then writes, matching
    /// the "announce before operating" discipline of Theorems 5.2/5.3.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub fn apply(&self, tx: &mut Txn, set: &AccessSet) -> TxResult<()> {
        for &i in &set.reads {
            self.read(tx, i)?;
        }
        for &i in &set.writes {
            self.write(tx, i)?;
        }
        Ok(())
    }

    /// Re-read every location in `set` (both read- and write-designated).
    ///
    /// This is the trailing half of the Theorem 5.3 bracket: after the
    /// operation runs against a shadow copy, re-reading the conflict
    /// abstraction locations ensures the shadow has not been invalidated by
    /// a concurrent committer (the read triggers the STM's incremental
    /// revalidation if any location moved).
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub fn reread(&self, tx: &mut Txn, set: &AccessSet) -> TxResult<()> {
        for &i in set.reads.iter().chain(&set.writes) {
            self.read(tx, i)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proust_stm::{Stm, StmConfig};

    #[test]
    #[should_panic(expected = "region size must be positive")]
    fn zero_size_panics() {
        let _ = StmRegion::new(0);
    }

    #[test]
    fn reads_do_not_conflict() {
        let stm = Stm::new(StmConfig::default());
        let region = std::sync::Arc::new(StmRegion::new(4));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stm = stm.clone();
                let region = region.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        stm.atomically(|tx| region.read(tx, 1)).unwrap();
                    }
                });
            }
        });
        assert_eq!(stm.stats().conflicts, 0);
    }

    #[test]
    fn writes_to_same_location_conflict() {
        let stm = Stm::new(StmConfig::default());
        let region = std::sync::Arc::new(StmRegion::new(1));
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stm = stm.clone();
                let region = region.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for _ in 0..500 {
                        stm.atomically(|tx| region.write(tx, 0)).unwrap();
                    }
                });
            }
        });
        // All committed despite contention; conflicts were retried.
        assert_eq!(stm.stats().commits, 2000);
    }

    #[test]
    fn apply_touches_reads_then_writes() {
        let stm = Stm::new(StmConfig::default());
        let region = StmRegion::new(8);
        let set = AccessSet { reads: vec![0, 1], writes: vec![2] };
        stm.atomically(|tx| region.apply(tx, &set)).unwrap();
        stm.atomically(|tx| region.reread(tx, &set)).unwrap();
        assert_eq!(region.size(), 8);
    }
}
