//! Seeded input generation. Everything a run feeds the program derives
//! from the `--seed` argument through these functions, so one seed gives
//! one input stream.
//!
//! The served workloads are driven by `proust_loadgen::run`, which draws
//! its requests from `LoadConfig::seed`; the layer cells (codec, engine)
//! need the same stream as values, so [`kv_units`] draws it with the
//! loadgen's mix rules from the same `LoadConfig`.

use proust_bench::workload::{ActionStream, MapAction, WorkloadSpec};
use proust_loadgen::zipf::Zipf;
use proust_loadgen::{KeyDist, LoadConfig};
use proust_server::proto::Cmd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Operations per `txn-map` transaction (the paper's o).
pub const TXN_OPS: usize = 4;
/// Worker threads of the `txn-map` workload.
pub const TXN_THREADS: usize = 2;

/// The `txn-map` transaction mix: Figure 4 of the paper at o=4, u=0.5,
/// 1024 uniform keys, 2 threads.
pub fn txn_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec { seed, ..WorkloadSpec::paper_cell(TXN_THREADS, TXN_OPS, 0.5) }
}

/// Mix a run seed with a stream index so sub-streams never coincide.
pub fn derive(seed: u64, index: u64) -> u64 {
    seed ^ (index + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// `count` request units drawn from `mix` with seed `seed`. A unit is one
/// request, or the members of one `MULTI` batch.
pub fn kv_units(mix: &LoadConfig, seed: u64, count: usize) -> Vec<Vec<Cmd>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = match mix.dist {
        KeyDist::Zipfian(theta) => Some(Zipf::new(mix.keys, theta)),
        KeyDist::Uniform => None,
    };
    let structures = mix.structures as u64;
    let key = |rng: &mut StdRng| match &zipf {
        Some(zipf) => zipf.next(rng),
        None => rng.gen_range(0..mix.keys),
    };
    let map_cmd = |rng: &mut StdRng| {
        let name = format!("m{}", rng.gen_range(0..structures));
        let key = key(rng);
        let r: f64 = rng.gen();
        if r < mix.read_frac {
            Cmd::MapGet { name, key }
        } else if r < mix.read_frac + 0.8 * (1.0 - mix.read_frac) {
            Cmd::MapPut { name, key, value: rng.gen_range(0..1_000_000u64) }
        } else {
            Cmd::MapDel { name, key }
        }
    };
    (0..count)
        .map(|_| {
            let pick: f64 = rng.gen();
            let inc = mix.multi_frac + mix.inc_frac;
            let queue = inc + mix.queue_frac;
            let scan = queue + mix.scan_frac;
            if pick < mix.multi_frac {
                (0..mix.multi_size.max(1)).map(|_| map_cmd(&mut rng)).collect()
            } else if pick < inc {
                let name = format!("c{}", rng.gen_range(0..structures));
                vec![Cmd::CounterInc { name, delta: rng.gen_range(1..4u64) }]
            } else if pick < queue {
                let name = format!("q{}", rng.gen_range(0..structures));
                if rng.gen::<f64>() < 0.5 {
                    vec![Cmd::QueueEnq { name, value: rng.gen_range(0..1_000_000u64) }]
                } else {
                    vec![Cmd::QueueDeq { name }]
                }
            } else if pick < scan {
                let name = format!("o{}", rng.gen_range(0..structures));
                let lo = key(&mut rng);
                if rng.gen::<f64>() < 0.25 {
                    vec![Cmd::OrdPut { name, key: lo, value: rng.gen_range(0..1_000_000u64) }]
                } else {
                    vec![Cmd::OrdScan { name, lo, hi: lo.saturating_add(mix.scan_span.max(1)) }]
                }
            } else {
                vec![map_cmd(&mut rng)]
            }
        })
        .collect()
}

/// The first `txns` transactions of thread `thread` of the `txn-map`
/// stream, `ops_per_txn` actions each.
fn txn_actions(seed: u64, thread: usize, txns: usize) -> Vec<Vec<MapAction>> {
    let spec = txn_spec(seed);
    let mut stream = ActionStream::new(&spec, thread);
    (0..txns).map(|_| (0..TXN_OPS).map(|_| stream.next_action()).collect()).collect()
}

/// The `txn-map` stream as server request units: each transaction becomes
/// one `MULTI` batch on map `m0`, so the codec and engine cells see the
/// workload's own operations.
pub fn txn_units(seed: u64, count: usize) -> Vec<Vec<Cmd>> {
    let name = || "m0".to_string();
    txn_actions(seed, 0, count)
        .into_iter()
        .map(|txn| {
            txn.into_iter()
                .map(|action| match action {
                    MapAction::Put(key, value) => Cmd::MapPut { name: name(), key, value },
                    MapAction::Remove(key) => Cmd::MapDel { name: name(), key },
                    MapAction::Get(key) => Cmd::MapGet { name: name(), key },
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{mix, KvKind};

    #[test]
    fn same_seed_gives_identical_request_streams() {
        for kind in [KvKind::Mem, KvKind::Wal] {
            let mix = mix(kind);
            assert_eq!(kv_units(&mix, 7, 2000), kv_units(&mix, 7, 2000));
            assert_ne!(kv_units(&mix, 7, 2000), kv_units(&mix, 8, 2000));
        }
    }

    #[test]
    fn same_seed_gives_identical_transaction_streams() {
        assert_eq!(txn_actions(7, 1, 500), txn_actions(7, 1, 500));
        assert_ne!(txn_actions(7, 1, 500), txn_actions(8, 1, 500));
        assert_eq!(txn_units(7, 500), txn_units(7, 500));
        assert_ne!(txn_units(7, 500), txn_units(8, 500));
    }

    #[test]
    fn request_stream_follows_the_mix() {
        let units = kv_units(&mix(KvKind::Wal), 3, 20_000);
        let incs =
            units.iter().filter(|unit| matches!(unit.as_slice(), [Cmd::CounterInc { .. }])).count()
                as f64;
        let multis = units.iter().filter(|unit| unit.len() == 4).count() as f64;
        assert!((incs / 20_000.0 - 0.2).abs() < 0.02, "inc share {}", incs / 20_000.0);
        assert!((multis / 20_000.0 - 0.1).abs() < 0.02, "multi share {}", multis / 20_000.0);
    }
}
