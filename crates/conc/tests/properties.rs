//! Property-based tests for the persistent substrates: the HAMT and the
//! pairing heap must agree with their `std` models on arbitrary operation
//! sequences, and snapshots must be immune to later mutation.

use std::collections::{BTreeMap, BinaryHeap};
use std::hash::{BuildHasher, Hasher};

use proptest::prelude::*;
use proust_conc::{Hamt, PairingHeap, SnapMap};

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| MapOp::Insert(k % 128, v)),
        any::<u16>().prop_map(|k| MapOp::Remove(k % 128)),
        any::<u16>().prop_map(|k| MapOp::Get(k % 128)),
    ]
}

/// An update stream interleaved with taking and releasing clones.
#[derive(Debug, Clone)]
enum CloneOp {
    Insert(u16, u32),
    Remove(u16),
    /// Take a clone and keep it.
    Take,
    /// Drop the held clone at this index (modulo the number held).
    Release(usize),
}

fn clone_op() -> impl Strategy<Value = CloneOp> {
    prop_oneof![
        4 => (any::<u16>(), any::<u32>()).prop_map(|(k, v)| CloneOp::Insert(k % 64, v)),
        3 => any::<u16>().prop_map(|k| CloneOp::Remove(k % 64)),
        1 => Just(CloneOp::Take),
        1 => any::<usize>().prop_map(CloneOp::Release),
    ]
}

/// Hashes a key to one of `buckets` values that agree on their low 40
/// bits. `buckets == 1` makes every key collide; a few buckets give deep
/// single-child branch chains over collision nodes, which `remove`
/// collapses again.
#[derive(Clone)]
struct Coarse {
    buckets: u64,
}

struct CoarseHasher {
    buckets: u64,
    acc: u64,
}

impl Hasher for CoarseHasher {
    fn finish(&self) -> u64 {
        (self.acc % self.buckets) << 40
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.acc = self.acc.wrapping_mul(31).wrapping_add(u64::from(b));
        }
    }
}

impl BuildHasher for Coarse {
    type Hasher = CoarseHasher;
    fn build_hasher(&self) -> CoarseHasher {
        CoarseHasher { buckets: self.buckets, acc: 0 }
    }
}

fn contents<S: BuildHasher>(map: &Hamt<u16, u32, S>) -> BTreeMap<u16, u32> {
    map.iter().map(|(k, v)| (*k, *v)).collect()
}

/// Run `ops` on a map while holding clones taken at random points. No
/// update may reach a node a held clone can see, so each clone must still
/// equal the model captured when it was taken.
fn held_clones_stay_frozen<S: BuildHasher + Clone>(
    hasher: S,
    ops: Vec<CloneOp>,
) -> Result<(), TestCaseError> {
    let mut hamt: Hamt<u16, u32, S> = Hamt::with_hasher(hasher);
    let mut model: BTreeMap<u16, u32> = BTreeMap::new();
    let mut held = Vec::new();
    for op in ops {
        match op {
            CloneOp::Insert(k, v) => prop_assert_eq!(hamt.insert(k, v), model.insert(k, v)),
            CloneOp::Remove(k) => prop_assert_eq!(hamt.remove(&k), model.remove(&k)),
            CloneOp::Take => held.push((hamt.clone(), model.clone())),
            CloneOp::Release(i) => {
                if !held.is_empty() {
                    let (clone, taken) = held.swap_remove(i % held.len());
                    prop_assert_eq!(contents(&clone), taken);
                }
            }
        }
        prop_assert_eq!(hamt.len(), model.len());
    }
    prop_assert_eq!(contents(&hamt), model);
    for (clone, taken) in &held {
        prop_assert_eq!(clone.len(), taken.len());
        prop_assert_eq!(&contents(clone), taken);
        for (k, v) in taken {
            prop_assert_eq!(clone.get(k), Some(v));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hamt_held_clones_survive_in_place_updates(
        ops in prop::collection::vec(clone_op(), 0..300)
    ) {
        held_clones_stay_frozen(std::collections::hash_map::RandomState::new(), ops)?;
    }

    #[test]
    fn hamt_held_clones_survive_in_place_updates_colliding(
        ops in prop::collection::vec(clone_op(), 0..300)
    ) {
        held_clones_stay_frozen(Coarse { buckets: 1 }, ops.clone())?;
        held_clones_stay_frozen(Coarse { buckets: 3 }, ops)?;
    }

    #[test]
    fn hamt_agrees_with_btreemap(ops in prop::collection::vec(map_op(), 0..200)) {
        let mut hamt: Hamt<u16, u32> = Hamt::new();
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => prop_assert_eq!(hamt.insert(k, v), model.insert(k, v)),
                MapOp::Remove(k) => prop_assert_eq!(hamt.remove(&k), model.remove(&k)),
                MapOp::Get(k) => prop_assert_eq!(hamt.get(&k), model.get(&k)),
            }
            prop_assert_eq!(hamt.len(), model.len());
        }
        // Iteration covers exactly the model's entries.
        let mut collected: Vec<(u16, u32)> = hamt.iter().map(|(k, v)| (*k, *v)).collect();
        collected.sort_unstable();
        let expected: Vec<(u16, u32)> = model.into_iter().collect();
        prop_assert_eq!(collected, expected);
    }

    #[test]
    fn hamt_clone_is_a_stable_snapshot(
        before in prop::collection::vec(map_op(), 0..100),
        after in prop::collection::vec(map_op(), 0..100),
    ) {
        let mut hamt: Hamt<u16, u32> = Hamt::new();
        for op in before {
            match op {
                MapOp::Insert(k, v) => { hamt.insert(k, v); }
                MapOp::Remove(k) => { hamt.remove(&k); }
                MapOp::Get(_) => {}
            }
        }
        let frozen = hamt.clone();
        let reference: BTreeMap<u16, u32> =
            frozen.iter().map(|(k, v)| (*k, *v)).collect();
        for op in after {
            match op {
                MapOp::Insert(k, v) => { hamt.insert(k, v); }
                MapOp::Remove(k) => { hamt.remove(&k); }
                MapOp::Get(_) => {}
            }
        }
        // The snapshot still reflects exactly the pre-mutation state.
        prop_assert_eq!(frozen.len(), reference.len());
        for (k, v) in &reference {
            prop_assert_eq!(frozen.get(k), Some(v));
        }
    }

    #[test]
    fn pairing_heap_agrees_with_binary_heap(
        ops in prop::collection::vec(prop_oneof![
            (0u32..1000).prop_map(Some),
            Just(None),
        ], 0..300)
    ) {
        let mut heap: PairingHeap<u32> = PairingHeap::new();
        let mut model: BinaryHeap<std::cmp::Reverse<u32>> = BinaryHeap::new();
        for op in ops {
            match op {
                Some(v) => {
                    heap.push(v);
                    model.push(std::cmp::Reverse(v));
                }
                None => {
                    prop_assert_eq!(heap.pop_min(), model.pop().map(|r| r.0));
                }
            }
            prop_assert_eq!(heap.len(), model.len());
            prop_assert_eq!(heap.peek_min().copied(), model.peek().map(|r| r.0));
        }
        let sorted = heap.into_sorted_vec();
        prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn pairing_heap_snapshot_is_stable(
        values in prop::collection::vec(0u32..1000, 1..100),
        pops in 0usize..50,
    ) {
        let mut heap: PairingHeap<u32> = values.iter().copied().collect();
        let frozen = heap.clone();
        for _ in 0..pops {
            heap.pop_min();
        }
        let mut expected = values;
        expected.sort_unstable();
        prop_assert_eq!(frozen.into_sorted_vec(), expected);
    }

    #[test]
    fn snapmap_snapshot_and_live_diverge_correctly(
        keys in prop::collection::vec(0u16..64, 1..50)
    ) {
        let map = SnapMap::new();
        for (i, k) in keys.iter().enumerate() {
            map.insert(*k, i);
        }
        let snap = map.snapshot();
        for k in &keys {
            map.remove(k);
        }
        prop_assert!(map.is_empty());
        // Snapshot retains the final pre-removal binding of every key.
        for k in &keys {
            let last = keys.iter().enumerate().rev().find(|(_, key)| *key == k).map(|(i, _)| i);
            prop_assert_eq!(snap.get(k).copied(), last);
        }
    }
}
