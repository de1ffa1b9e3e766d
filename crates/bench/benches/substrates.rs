//! Criterion microbenchmarks for the `proust-conc` substrates: the
//! persistent HAMT and pairing heap against their `std` counterparts, and
//! the O(1) snapshot costs the lazy wrappers rely on.

use std::collections::{BinaryHeap, HashMap};

use criterion::{criterion_group, criterion_main, Criterion};
use proust_conc::{CowHeap, Hamt, PairingHeap, SnapMap, StripedHashMap};

fn bench_maps(c: &mut Criterion) {
    let mut group = c.benchmark_group("map_substrates");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("hamt_insert_1k", |b| {
        b.iter(|| {
            let mut map = Hamt::new();
            for i in 0..1_000u32 {
                map.insert(i, i);
            }
            map
        });
    });
    group.bench_function("std_hashmap_insert_1k", |b| {
        b.iter(|| {
            let mut map = HashMap::new();
            for i in 0..1_000u32 {
                map.insert(i, i);
            }
            map
        });
    });

    let mut hamt = Hamt::new();
    let mut std_map = HashMap::new();
    for i in 0..10_000u32 {
        hamt.insert(i, i);
        std_map.insert(i, i);
    }
    let mut key = 0u32;
    group.bench_function("hamt_get", |b| {
        b.iter(|| {
            key = (key + 37) % 10_000;
            hamt.get(&key).copied()
        });
    });
    group.bench_function("std_hashmap_get", |b| {
        b.iter(|| {
            key = (key + 37) % 10_000;
            std_map.get(&key).copied()
        });
    });

    // The two paths of a HAMT update: with no clone held every node on the
    // path is edited in place; a clone taken first forces the path to be
    // copied (the snapshot is dropped only after the insert).
    group.bench_function("hamt_insert_unique", |b| {
        b.iter(|| {
            key = (key + 37) % 10_000;
            hamt.insert(key, key)
        });
    });
    group.bench_function("hamt_insert_after_snapshot", |b| {
        b.iter(|| {
            key = (key + 37) % 10_000;
            let snapshot = hamt.clone();
            hamt.insert(key, key);
            snapshot
        });
    });

    // The property everything hinges on: snapshots are O(1) regardless of
    // size.
    let snap_map = SnapMap::new();
    for i in 0..50_000u32 {
        snap_map.insert(i, i);
    }
    group.bench_function("snapmap_snapshot_50k", |b| {
        b.iter(|| snap_map.snapshot());
    });

    let striped = StripedHashMap::new();
    for i in 0..10_000u32 {
        striped.insert(i, i);
    }
    group.bench_function("striped_get", |b| {
        b.iter(|| {
            key = (key + 37) % 10_000;
            striped.get(&key)
        });
    });
    group.finish();
}

fn bench_heaps(c: &mut Criterion) {
    let mut group = c.benchmark_group("heap_substrates");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("pairing_push_pop_1k", |b| {
        b.iter(|| {
            let mut heap = PairingHeap::new();
            for i in (0..1_000u32).rev() {
                heap.push(i);
            }
            let mut sum = 0u64;
            while let Some(v) = heap.pop_min() {
                sum += u64::from(v);
            }
            sum
        });
    });
    group.bench_function("binary_heap_push_pop_1k", |b| {
        b.iter(|| {
            let mut heap = BinaryHeap::new();
            for i in (0..1_000u32).rev() {
                heap.push(std::cmp::Reverse(i));
            }
            let mut sum = 0u64;
            while let Some(std::cmp::Reverse(v)) = heap.pop() {
                sum += u64::from(v);
            }
            sum
        });
    });

    let cow = CowHeap::new();
    for i in 0..50_000u64 {
        cow.push(i);
    }
    group.bench_function("cowheap_snapshot_50k", |b| {
        b.iter(|| cow.snapshot());
    });
    group.finish();
}

criterion_group!(benches, bench_maps, bench_heaps);
criterion_main!(benches);
