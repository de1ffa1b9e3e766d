//! Replay logs and shadow copies — the lazy update strategy of §4.
//!
//! Lazy Proustian wrappers never mutate the shared structure during the
//! transaction. Instead each operation is (a) applied to a transaction-
//! private *shadow copy* so the transaction can observe its own speculative
//! results, and (b) appended to a *replay log* that is applied atomically
//! at the STM's serialization point (via
//! [`Txn::on_commit_locked`]) once the transaction is known to commit. If
//! the transaction aborts, the log is simply dropped.
//!
//! Two shadow-copy constructions are provided, matching §4:
//!
//! * [`SnapshotReplay`] — for base structures with fast snapshots
//!   ([`SnapshotSource`]); the first update clones a snapshot and all
//!   further operations run against it (used by `LazyTrieMap` and
//!   `LazyPriorityQueue`).
//! * [`MemoReplay`] — for maps, where every operation's result is
//!   computable from the backing map plus the transaction's own pending
//!   operations on the same key; a transaction-local overlay memoizes
//!   per-key state. Supports the §7 *log-combining* optimization: replay
//!   only the final state of each key instead of every logged operation.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use proust_conc::{
    CowHeap, CowQueue, Hamt, OrdMap, PairingHeap, PersistentQueue, SnapMap, StripedHashMap, Treap,
};
use proust_stm::{Txn, TxnLocal};

// ---------------------------------------------------------------------
// Snapshot-based shadow copies
// ---------------------------------------------------------------------

/// A shared structure that supports O(1) snapshots and atomic batched
/// updates — what §4 calls "the fast-snapshot semantics provided by many
/// concurrent data structures".
pub trait SnapshotSource: Send + Sync {
    /// The persistent snapshot type (cheap to clone, structurally shared).
    type Snap: 'static;

    /// Take a point-in-time snapshot.
    fn snapshot(&self) -> Self::Snap;

    /// Atomically apply a batch of committed operations to the shared
    /// state. Called from the STM's serialization point.
    fn apply_batch(&self, replay: &mut dyn FnMut(&mut Self::Snap));
}

impl<K, V> SnapshotSource for SnapMap<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Snap = Hamt<K, V>;

    fn snapshot(&self) -> Hamt<K, V> {
        SnapMap::snapshot(self)
    }

    fn apply_batch(&self, replay: &mut dyn FnMut(&mut Hamt<K, V>)) {
        self.update_root(|root| replay(root));
    }
}

impl<V> SnapshotSource for OrdMap<V>
where
    V: Clone + Send + Sync + 'static,
{
    type Snap = Treap<V>;

    fn snapshot(&self) -> Treap<V> {
        OrdMap::snapshot(self)
    }

    fn apply_batch(&self, replay: &mut dyn FnMut(&mut Treap<V>)) {
        self.update_root(|root| replay(root));
    }
}

impl<T> SnapshotSource for CowHeap<T>
where
    T: Ord + Clone + Send + Sync + 'static,
{
    type Snap = PairingHeap<T>;

    fn snapshot(&self) -> PairingHeap<T> {
        CowHeap::snapshot(self)
    }

    fn apply_batch(&self, replay: &mut dyn FnMut(&mut PairingHeap<T>)) {
        self.update(|heap| replay(heap));
    }
}

impl<T> SnapshotSource for CowQueue<T>
where
    T: Clone + Send + Sync + 'static,
{
    type Snap = PersistentQueue<T>;

    fn snapshot(&self) -> PersistentQueue<T> {
        CowQueue::snapshot(self)
    }

    fn apply_batch(&self, replay: &mut dyn FnMut(&mut PersistentQueue<T>)) {
        self.update(|queue| replay(queue));
    }
}

/// One logged speculative operation, replayed against the live structure
/// at commit.
type LoggedOp<P> = Box<dyn Fn(&mut P)>;

struct SnapshotState<P> {
    shadow: Option<P>,
    ops: Vec<LoggedOp<P>>,
}

/// The replay log for snapshot-based shadow copies (`ReplayLog` +
/// `SnapshotReplay` in Figure 2b).
///
/// One `SnapshotReplay` belongs to one wrapped structure; the
/// transaction-local state (shadow + log) is allocated the first time a
/// transaction *updates* the structure. Reads before the first update go
/// straight to the live structure (the `readOnly` optimization of
/// Figure 2b).
pub struct SnapshotReplay<S: SnapshotSource> {
    source: Arc<S>,
    local: TxnLocal<SnapshotState<S::Snap>>,
}

impl<S: SnapshotSource> fmt::Debug for SnapshotReplay<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotReplay").finish_non_exhaustive()
    }
}

impl<S: SnapshotSource> Clone for SnapshotReplay<S> {
    fn clone(&self) -> Self {
        SnapshotReplay { source: Arc::clone(&self.source), local: self.local.clone() }
    }
}

impl<S: SnapshotSource + 'static> SnapshotReplay<S> {
    /// Create a replay log over `source`.
    pub fn new(source: Arc<S>) -> Self {
        SnapshotReplay {
            source,
            local: TxnLocal::new(|| SnapshotState { shadow: None, ops: Vec::new() }),
        }
    }

    /// The shared structure this log replays into.
    pub fn source(&self) -> &Arc<S> {
        &self.source
    }

    /// Whether the current transaction has already written (and therefore
    /// holds a shadow copy).
    pub fn has_shadow(&self, tx: &Txn) -> bool {
        self.local.get_existing(tx).is_some_and(|cell| cell.borrow().shadow.is_some())
    }

    /// Read through the shadow copy if this transaction has one, otherwise
    /// from the live structure via `live`.
    pub fn read<R>(
        &self,
        tx: &mut Txn,
        live: impl FnOnce(&S) -> R,
        shadow: impl FnOnce(&S::Snap) -> R,
    ) -> R {
        if let Some(cell) = self.local.get_existing(tx) {
            let state = cell.borrow();
            if let Some(snap) = &state.shadow {
                return shadow(snap);
            }
        }
        live(&self.source)
    }

    /// Apply a speculative update: snapshots the live structure on first
    /// use, runs `op` against the shadow copy, logs it for commit-time
    /// replay, and returns its result.
    pub fn update<R>(&self, tx: &mut Txn, op: impl Fn(&mut S::Snap) -> R + 'static) -> R {
        let cell = self.local.get(tx);
        let mut state = cell.borrow_mut();
        if state.shadow.is_none() {
            state.shadow = Some(self.source.snapshot());
            // First write: register the commit-time replay exactly once.
            let log = cell.clone();
            let source = Arc::clone(&self.source);
            tx.on_commit_locked(move || {
                let state = log.borrow();
                source.apply_batch(&mut |shared| {
                    for op in &state.ops {
                        op(shared);
                    }
                });
            });
        }
        let result = op(state.shadow.as_mut().expect("shadow was just ensured"));
        state.ops.push(Box::new(move |shared: &mut S::Snap| {
            op(shared);
        }));
        result
    }
}

// ---------------------------------------------------------------------
// Memoizing shadow copies
// ---------------------------------------------------------------------

/// One logged map operation (the replay-log entry type for memoizing
/// wrappers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapOp<K, V> {
    /// `put(key, value)`.
    Put(K, V),
    /// `remove(key)`.
    Remove(K),
}

struct MemoState<K, V> {
    /// Per-key speculative state: `Some(v)` = the transaction's latest
    /// value; `None` = the transaction removed the key.
    overlay: HashMap<K, Option<V>>,
    ops: Vec<MapOp<K, V>>,
    registered: bool,
}

/// The replay log for memoizing shadow copies (the paper's `LazyHashMap`
/// construction over `ConcurrentHashMap`).
///
/// Results of every operation — including updates — are computed from the
/// backing map plus a transaction-local per-key overlay, so no snapshot of
/// the whole structure is needed.
pub struct MemoReplay<K, V> {
    backing: Arc<StripedHashMap<K, V>>,
    local: TxnLocal<MemoState<K, V>>,
    combine: bool,
}

impl<K, V> fmt::Debug for MemoReplay<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoReplay").field("combine", &self.combine).finish_non_exhaustive()
    }
}

impl<K, V> Clone for MemoReplay<K, V> {
    fn clone(&self) -> Self {
        MemoReplay {
            backing: Arc::clone(&self.backing),
            local: self.local.clone(),
            combine: self.combine,
        }
    }
}

impl<K, V> MemoReplay<K, V> {
    /// The backing map this log replays into.
    pub fn backing(&self) -> &Arc<StripedHashMap<K, V>> {
        &self.backing
    }

    /// Whether log-combining is enabled.
    pub fn combines(&self) -> bool {
        self.combine
    }
}

impl<K, V> MemoReplay<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create a replay log over `backing`. With `combine` set, commit-time
    /// replay applies only the *final* state of each key (the §7
    /// log-combining optimization — "replay synthetic updates to apply
    /// only the final state of each abstract state element"); otherwise
    /// every logged operation is replayed in order.
    pub fn new(backing: Arc<StripedHashMap<K, V>>, combine: bool) -> Self {
        MemoReplay {
            backing,
            local: TxnLocal::new(|| MemoState {
                overlay: HashMap::new(),
                ops: Vec::new(),
                registered: false,
            }),
            combine,
        }
    }

    /// Speculative lookup: the overlay answers for keys this transaction
    /// touched; otherwise the backing map does.
    pub fn get(&self, tx: &mut Txn, key: &K) -> Option<V> {
        if let Some(cell) = self.local.get_existing(tx) {
            if let Some(entry) = cell.borrow().overlay.get(key) {
                return entry.clone();
            }
        }
        self.backing.get(key)
    }

    /// Log a `put`, returning the speculative previous value.
    pub fn put(&self, tx: &mut Txn, key: K, value: V) -> Option<V> {
        let previous = self.get(tx, &key);
        self.record(tx, key.clone(), Some(value.clone()), MapOp::Put(key, value));
        previous
    }

    /// Log a `remove`, returning the speculative previous value.
    pub fn remove(&self, tx: &mut Txn, key: K) -> Option<V> {
        let previous = self.get(tx, &key);
        self.record(tx, key.clone(), None, MapOp::Remove(key));
        previous
    }

    fn record(&self, tx: &mut Txn, key: K, state: Option<V>, op: MapOp<K, V>) {
        let cell = self.local.get(tx);
        let mut local = cell.borrow_mut();
        local.overlay.insert(key, state);
        local.ops.push(op);
        if !local.registered {
            local.registered = true;
            let log = cell.clone();
            let backing = Arc::clone(&self.backing);
            let combine = self.combine;
            tx.on_commit_locked(move || {
                let state = log.borrow();
                if combine {
                    // Log-combining: one synthetic update per key.
                    for (key, value) in &state.overlay {
                        match value {
                            Some(v) => {
                                backing.insert(key.clone(), v.clone());
                            }
                            None => {
                                backing.remove(key);
                            }
                        }
                    }
                } else {
                    // Faithful replay, proportional to the number of
                    // logged operations.
                    for op in &state.ops {
                        match op {
                            MapOp::Put(k, v) => {
                                backing.insert(k.clone(), v.clone());
                            }
                            MapOp::Remove(k) => {
                                backing.remove(k);
                            }
                        }
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proust_stm::{Stm, StmConfig, TxError};

    #[test]
    fn snapshot_replay_defers_updates_to_commit() {
        let stm = Stm::new(StmConfig::default());
        let shared = Arc::new(SnapMap::<u32, u32>::new());
        shared.insert(1, 10);
        let log = SnapshotReplay::new(Arc::clone(&shared));
        stm.atomically(|tx| {
            // Read-only fast path: no shadow yet.
            let before = log.read(tx, |live| live.get(&1), |snap| snap.get(&1).cloned());
            assert_eq!(before, Some(10));
            assert!(!log.has_shadow(tx));
            // First update takes the snapshot.
            let old = log.update(tx, |snap| snap.insert(1, 20));
            assert_eq!(old, Some(10));
            assert!(log.has_shadow(tx));
            // Speculative read sees the shadow...
            let specul = log.read(tx, |live| live.get(&1), |snap| snap.get(&1).cloned());
            assert_eq!(specul, Some(20));
            // ...but the shared structure is untouched until commit.
            assert_eq!(shared.get(&1), Some(10));
            Ok(())
        })
        .unwrap();
        assert_eq!(shared.get(&1), Some(20));
    }

    #[test]
    fn snapshot_replay_drops_log_on_abort() {
        let stm = Stm::new(StmConfig::default());
        let shared = Arc::new(SnapMap::<u32, u32>::new());
        let log = SnapshotReplay::new(Arc::clone(&shared));
        let result: Result<(), _> = stm.atomically(|tx| {
            log.update(tx, |snap| snap.insert(5, 50));
            Err(TxError::abort("discard"))
        });
        assert!(result.is_err());
        assert!(shared.is_empty());
    }

    #[test]
    fn snapshot_replay_on_cow_heap() {
        let stm = Stm::new(StmConfig::default());
        let shared = Arc::new(CowHeap::<u64>::new());
        shared.push(9);
        let log = SnapshotReplay::new(Arc::clone(&shared));
        stm.atomically(|tx| {
            log.update(tx, |heap| heap.push(3));
            let min = log.read(tx, |live| live.peek_min(), |snap| snap.peek_min().cloned());
            assert_eq!(min, Some(3));
            assert_eq!(shared.peek_min(), Some(9)); // not yet shared
            Ok(())
        })
        .unwrap();
        assert_eq!(shared.peek_min(), Some(3));
        assert_eq!(shared.len(), 2);
    }

    fn memo_fixture(
        combine: bool,
    ) -> (Stm, Arc<StripedHashMap<u32, String>>, MemoReplay<u32, String>) {
        let stm = Stm::new(StmConfig::default());
        let backing = Arc::new(StripedHashMap::new());
        let log = MemoReplay::new(Arc::clone(&backing), combine);
        (stm, backing, log)
    }

    #[test]
    fn memo_replay_read_your_writes() {
        for combine in [false, true] {
            let (stm, backing, log) = memo_fixture(combine);
            backing.insert(1, "base".to_string());
            stm.atomically(|tx| {
                assert_eq!(log.get(tx, &1).as_deref(), Some("base"));
                assert_eq!(log.put(tx, 1, "mine".into()).as_deref(), Some("base"));
                assert_eq!(log.get(tx, &1).as_deref(), Some("mine"));
                assert_eq!(log.remove(tx, 1).as_deref(), Some("mine"));
                assert_eq!(log.get(tx, &1), None);
                // Backing untouched until commit.
                assert_eq!(backing.get(&1).as_deref(), Some("base"));
                Ok(())
            })
            .unwrap();
            assert_eq!(backing.get(&1), None, "combine={combine}");
        }
    }

    #[test]
    fn memo_replay_combining_matches_full_replay() {
        // The same operation sequence must produce the same committed state
        // whether or not log-combining is enabled.
        let states: Vec<Vec<(u32, Option<String>)>> = [false, true]
            .into_iter()
            .map(|combine| {
                let (stm, backing, log) = memo_fixture(combine);
                stm.atomically(|tx| {
                    log.put(tx, 1, "a".into());
                    log.put(tx, 1, "b".into());
                    log.put(tx, 2, "c".into());
                    log.remove(tx, 2);
                    log.put(tx, 3, "d".into());
                    Ok(())
                })
                .unwrap();
                (1u32..=3).map(|k| (k, backing.get(&k))).collect()
            })
            .collect();
        assert_eq!(states[0], states[1]);
    }

    #[test]
    fn memo_replay_abort_discards_everything() {
        let (stm, backing, log) = memo_fixture(true);
        let result: Result<(), _> = stm.atomically(|tx| {
            log.put(tx, 9, "x".into());
            Err(TxError::abort("drop"))
        });
        assert!(result.is_err());
        assert!(backing.is_empty());
    }
}
