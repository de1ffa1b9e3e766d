//! Transactional variables: the STM-managed memory locations of the paper.
//!
//! A [`TVar<T>`] is a versioned cell. Transactions read and write `TVar`s
//! through a [`Txn`](crate::Txn) context; the runtime guarantees that
//! committed transactions appear to execute atomically and that running
//! transactions only ever observe consistent states (opacity).

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use crate::clock;

/// Transaction lifecycle states shared with reader registries.
pub(crate) const TXN_ACTIVE: u8 = 0;
pub(crate) const TXN_COMMITTED: u8 = 1;
pub(crate) const TXN_ABORTED: u8 = 2;

/// The part of a transaction's identity that outlives its borrow of the
/// `Txn` struct: visible-reader registries hold weak references to this so
/// writers can inspect (and wound) concurrent readers.
#[derive(Debug)]
pub(crate) struct TxnShared {
    /// Unique nonzero id; doubles as the ownership token in `TVarMeta`.
    pub id: u64,
    /// Clock value at first attempt; older (smaller) transactions win
    /// wound-wait arbitration.
    pub birth: u64,
    /// One of `TXN_ACTIVE` / `TXN_COMMITTED` / `TXN_ABORTED`.
    pub status: AtomicU8,
    /// Set by an older conflicting writer; the victim aborts at its next
    /// operation or at commit validation.
    pub doomed: AtomicBool,
    /// Whether this transaction holds the global serial-irrevocable token.
    /// Wound-immune: [`TxnHandle::wound`](crate::TxnHandle::wound) refuses
    /// serial targets and arbitration degrades `Wound` verdicts against
    /// them to `Wait`, so the irrevocability guarantee survives opponents
    /// running wounding policies (Greedy, Karma).
    pub serial: AtomicBool,
    /// STM operations performed, accumulated across retries of the same
    /// `atomically` call. Karma-style contention managers use this as the
    /// transaction's priority.
    pub work: AtomicU64,
    /// Site label (raw [`proust_obs::SiteId`]) of the op this transaction
    /// is currently executing; read cross-thread by transactions it forces
    /// to abort (e.g. an eager writer blocked by this visible reader).
    pub op_site: std::sync::atomic::AtomicU32,
}

impl TxnShared {
    pub(crate) fn new(id: u64, birth: u64) -> Self {
        TxnShared {
            id,
            birth,
            status: AtomicU8::new(TXN_ACTIVE),
            doomed: AtomicBool::new(false),
            serial: AtomicBool::new(false),
            work: AtomicU64::new(0),
            op_site: std::sync::atomic::AtomicU32::new(0),
        }
    }

    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.status.load(Ordering::Acquire) == TXN_ACTIVE
    }
}

/// Version-and-ownership metadata common to every `TVar` regardless of its
/// value type. The type-erased read/write sets in [`Txn`](crate::Txn) work
/// against this.
pub(crate) struct TVarMeta {
    /// Unique id; gives the deterministic ordering used to avoid deadlock
    /// when iterating write sets.
    pub id: u64,
    /// Version stamp of the commit that last wrote this variable.
    pub version: AtomicU64,
    /// Id of the transaction holding encounter-time write ownership, or 0.
    pub owner: AtomicU64,
    /// Site label (raw [`proust_obs::SiteId`]) of the op that last took
    /// write ownership of this location; names the *aborter* when another
    /// transaction conflicts here.
    pub last_writer_site: std::sync::atomic::AtomicU32,
    /// Visible readers (only populated under the `EagerAll` backend).
    pub readers: Mutex<Vec<(u64, Weak<TxnShared>)>>,
}

static TVAR_IDS: AtomicU64 = AtomicU64::new(1);

impl TVarMeta {
    fn new() -> Self {
        TVarMeta {
            id: TVAR_IDS.fetch_add(1, Ordering::Relaxed),
            version: AtomicU64::new(0),
            owner: AtomicU64::new(0),
            last_writer_site: std::sync::atomic::AtomicU32::new(0),
            readers: Mutex::new(Vec::new()),
        }
    }

    /// Register `txn` as a visible reader (idempotent per transaction).
    pub(crate) fn register_reader(&self, txn: &Arc<TxnShared>) {
        let mut readers = self.readers.lock();
        if readers.iter().any(|(id, _)| *id == txn.id) {
            return;
        }
        // Opportunistically drop entries for finished transactions.
        readers.retain(|(_, w)| w.upgrade().is_some_and(|t| t.is_active()));
        readers.push((txn.id, Arc::downgrade(txn)));
    }

    /// Remove `txn_id` from the visible-reader registry.
    pub(crate) fn deregister_reader(&self, txn_id: u64) {
        self.readers.lock().retain(|(id, _)| *id != txn_id);
    }

    /// Active visible readers other than `self_id`.
    pub(crate) fn foreign_readers(&self, self_id: u64) -> Vec<Arc<TxnShared>> {
        self.readers
            .lock()
            .iter()
            .filter(|(id, _)| *id != self_id)
            .filter_map(|(_, w)| w.upgrade())
            .filter(|t| t.is_active())
            .collect()
    }
}

/// Type-erased view of a `TVar` used by transaction read/write sets.
pub(crate) trait AnyTVar: Send + Sync {
    fn meta(&self) -> &TVarMeta;
    /// Store a buffered value during commit write-back, then publish
    /// `new_version` and release ownership.
    fn commit_write(&self, value: Box<dyn Any + Send>, new_version: u64);
}

pub(crate) struct TVarData<T> {
    pub(crate) meta: TVarMeta,
    pub(crate) cell: RwLock<T>,
}

impl<T: Clone + Send + Sync + 'static> AnyTVar for TVarData<T> {
    fn meta(&self) -> &TVarMeta {
        &self.meta
    }

    fn commit_write(&self, value: Box<dyn Any + Send>, new_version: u64) {
        let value = value.downcast::<T>().expect("write-set entry type matches its TVar");
        {
            let mut cell = self.cell.write();
            *cell = *value;
        }
        // Publish the new version *after* the value so concurrent
        // double-check readers never pair a new value with an old version
        // undetected.
        self.meta.version.store(new_version, Ordering::Release);
        self.meta.owner.store(0, Ordering::Release);
    }
}

/// A transactional variable holding a value of type `T`.
///
/// Values are cloned out on read, so `T` is typically either cheap to copy
/// (counters, the `u64` tokens of conflict abstractions) or structurally
/// shared (persistent data structures behind `Arc`).
///
/// # Examples
///
/// ```
/// use proust_stm::{Stm, StmConfig, TVar};
///
/// let stm = Stm::new(StmConfig::default());
/// let x = TVar::new(41);
/// let seen = stm
///     .atomically(|tx| {
///         let v = x.read(tx)?;
///         x.write(tx, v + 1)?;
///         x.read(tx)
///     })
///     .unwrap();
/// assert_eq!(seen, 42);
/// ```
pub struct TVar<T> {
    inner: Arc<TVarData<T>>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar { inner: Arc::clone(&self.inner) }
    }
}

impl<T: fmt::Debug + Clone + Send + Sync + 'static> fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TVar")
            .field("id", &self.inner.meta.id)
            .field("version", &self.inner.meta.version.load(Ordering::Relaxed))
            .field("value", &self.load())
            .finish()
    }
}

impl<T: Clone + Send + Sync + Default + 'static> Default for TVar<T> {
    fn default() -> Self {
        TVar::new(T::default())
    }
}

impl<T: Clone + Send + Sync + 'static> TVar<T> {
    /// Create a new transactional variable with the given initial value.
    ///
    /// The variable starts at version 0, which every transaction can read
    /// regardless of when it started.
    pub fn new(value: T) -> Self {
        TVar { inner: Arc::new(TVarData { meta: TVarMeta::new(), cell: RwLock::new(value) }) }
    }

    /// Stable unique id of this variable (used for lock ordering and
    /// diagnostics).
    pub fn id(&self) -> u64 {
        self.inner.meta.id
    }

    /// Read the variable inside a transaction.
    ///
    /// # Errors
    ///
    /// Returns a conflict if the variable is locked by another transaction,
    /// if the observed version postdates the transaction's read version and
    /// revalidation fails, or if this transaction has been wounded.
    pub fn read(&self, tx: &mut crate::Txn) -> crate::TxResult<T> {
        tx.read_tvar(&self.inner)
    }

    /// Write the variable inside a transaction. The write is buffered and
    /// becomes visible at commit.
    ///
    /// # Errors
    ///
    /// Returns a conflict if encounter-time ownership cannot be acquired
    /// (eager backends) or if this transaction has been wounded.
    pub fn write(&self, tx: &mut crate::Txn, value: T) -> crate::TxResult<()> {
        tx.write_tvar(&self.inner, value)
    }

    /// Read-modify-write inside a transaction.
    ///
    /// # Errors
    ///
    /// Propagates the same conflicts as [`read`](Self::read) and
    /// [`write`](Self::write).
    pub fn modify(&self, tx: &mut crate::Txn, f: impl FnOnce(T) -> T) -> crate::TxResult<()> {
        let current = self.read(tx)?;
        self.write(tx, f(current))
    }

    /// Read the current committed value outside of any transaction.
    ///
    /// Uses the version double-check protocol, so it always returns a value
    /// some committed state actually contained (it never observes a torn or
    /// speculative write).
    pub fn load(&self) -> T {
        loop {
            let meta = &self.inner.meta;
            let v1 = meta.version.load(Ordering::Acquire);
            let value = self.inner.cell.read().clone();
            let v2 = meta.version.load(Ordering::Acquire);
            if v1 == v2 && meta.owner.load(Ordering::Acquire) == 0 {
                return value;
            }
            std::hint::spin_loop();
        }
    }

    /// Overwrite the value outside of any transaction.
    ///
    /// This behaves like a tiny committing transaction: it bumps the global
    /// clock so concurrent transactions that already read this variable
    /// will fail validation rather than observe an inconsistency. Intended
    /// for initialization and tests; heavy non-transactional mutation of
    /// shared `TVar`s defeats the purpose of the STM.
    pub fn store_now(&self, value: T) {
        let meta = &self.inner.meta;
        // Spin until we can take ownership, mimicking a writer commit.
        loop {
            if meta.owner.compare_exchange(0, u64::MAX, Ordering::AcqRel, Ordering::Acquire).is_ok()
            {
                break;
            }
            std::hint::spin_loop();
        }
        {
            let mut cell = self.inner.cell.write();
            *cell = value;
        }
        meta.version.store(clock::tick(), Ordering::Release);
        meta.owner.store(0, Ordering::Release);
        crate::wake::notify_commit();
    }

    /// Whether some transaction currently holds encounter-time or
    /// commit-time ownership of this variable.
    ///
    /// Diagnostic only — inherently racy between the load and any use of
    /// the answer. The chaos harness uses it to assert that ownership is
    /// cleared once all transactions have finished.
    pub fn is_owned(&self) -> bool {
        self.inner.meta.owner.load(Ordering::Acquire) != 0
    }

    #[cfg(test)]
    pub(crate) fn data(&self) -> &Arc<TVarData<T>> {
        &self.inner
    }
}

/// Internal read protocol shared by `Txn` and `load`: returns
/// `(version, value)` for a consistent observation, or `None` if the
/// variable is currently owned by a transaction other than `self_id`.
pub(crate) fn observe<T: Clone>(data: &TVarData<T>, self_id: u64) -> Option<(u64, T)> {
    for _ in 0..64 {
        let owner = data.meta.owner.load(Ordering::Acquire);
        if owner != 0 && owner != self_id {
            return None;
        }
        let v1 = data.meta.version.load(Ordering::Acquire);
        let value = data.cell.read().clone();
        let v2 = data.meta.version.load(Ordering::Acquire);
        let owner2 = data.meta.owner.load(Ordering::Acquire);
        if v1 == v2 && (owner2 == 0 || owner2 == self_id) {
            return Some((v1, value));
        }
        std::hint::spin_loop();
    }
    None
}

pub(crate) type DynTVar = Arc<dyn AnyTVar>;

pub(crate) fn as_dyn<T: Clone + Send + Sync + 'static>(data: &Arc<TVarData<T>>) -> DynTVar {
    Arc::clone(data) as DynTVar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_returns_initial_value() {
        let v = TVar::new("hello".to_string());
        assert_eq!(v.load(), "hello");
    }

    #[test]
    fn store_now_bumps_version() {
        let v = TVar::new(1u64);
        let before = v.inner.meta.version.load(Ordering::Relaxed);
        v.store_now(2);
        let after = v.inner.meta.version.load(Ordering::Relaxed);
        assert!(after > before);
        assert_eq!(v.load(), 2);
    }

    #[test]
    fn ids_are_unique() {
        let a = TVar::new(0u8);
        let b = TVar::new(0u8);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn default_uses_type_default() {
        let v: TVar<i32> = TVar::default();
        assert_eq!(v.load(), 0);
    }

    #[test]
    fn reader_registry_registers_once_and_deregisters() {
        let v = TVar::new(0u8);
        let txn = Arc::new(TxnShared::new(7, 1));
        v.inner.meta.register_reader(&txn);
        v.inner.meta.register_reader(&txn);
        assert_eq!(v.inner.meta.readers.lock().len(), 1);
        assert_eq!(v.inner.meta.foreign_readers(8).len(), 1);
        assert!(v.inner.meta.foreign_readers(7).is_empty());
        v.inner.meta.deregister_reader(7);
        assert!(v.inner.meta.readers.lock().is_empty());
    }

    #[test]
    fn foreign_readers_skips_finished_transactions() {
        let v = TVar::new(0u8);
        let txn = Arc::new(TxnShared::new(9, 1));
        v.inner.meta.register_reader(&txn);
        txn.status.store(TXN_COMMITTED, Ordering::Release);
        assert!(v.inner.meta.foreign_readers(1).is_empty());
    }

    #[test]
    fn observe_refuses_foreign_ownership() {
        let v = TVar::new(5u32);
        v.inner.meta.owner.store(42, Ordering::Release);
        assert!(observe(v.data(), 7).is_none());
        assert_eq!(observe(v.data(), 42), Some((0, 5)));
        v.inner.meta.owner.store(0, Ordering::Release);
        assert_eq!(observe(v.data(), 7), Some((0, 5)));
    }

    #[test]
    fn concurrent_load_store_never_tears() {
        let v = TVar::new((0u64, 0u64));
        std::thread::scope(|s| {
            let writer = &v;
            s.spawn(move || {
                for i in 1..2000u64 {
                    writer.store_now((i, i.wrapping_mul(31)));
                }
            });
            for _ in 0..2000 {
                let (a, b) = v.load();
                assert_eq!(b, a.wrapping_mul(31));
            }
        });
    }
}
