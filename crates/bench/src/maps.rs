//! The registry of map implementations swept by the Figure 4 harness.

use std::fmt;
use std::sync::Arc;

use proust_baselines::{BoostedMap, CoarseMap, PredMap, StmHashMap};
use proust_core::structures::{EagerMap, MemoMap, SnapTrieMap};
use proust_core::{OptimisticLap, PessimisticLap, TxMap};
use proust_stm::{CmPolicy, ConflictDetection, RetryExhaustion, Stm, StmConfig};

/// Size of the optimistic lock-allocator region / pessimistic lock table.
/// Matches the paper's fixed key range so distinct keys rarely collide.
pub const LAP_SIZE: usize = 1024;

/// The map implementations in the evaluation, named as in our Figure 4
/// reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapKind {
    /// Traditional STM map (read/write-set conflicts on concrete memory).
    StmMap,
    /// Transactional predication (Bronson et al.).
    Predication,
    /// Proust, eager updates + optimistic LAP (ScalaProust's
    /// eager/optimistic configuration; benched on the mixed backend as in
    /// §7 despite the opacity caveat).
    ProustEagerOpt,
    /// Proust, lazy updates (snapshot shadow copies) + optimistic LAP —
    /// the `LazyTrieMap` of Figure 2b.
    ProustLazySnap,
    /// Proust, lazy updates (memoizing shadow copies) + optimistic LAP —
    /// the `LazyHashMap` of §4.
    ProustLazyMemo,
    /// Memoizing with the §7 log-combining optimization.
    ProustMemoCombining,
    /// Proust, eager updates + pessimistic LAP (boosting integrated with
    /// the STM's contention management).
    ProustPessimistic,
    /// Classic stand-alone boosting (uncoupled try-locks).
    Boosted,
    /// Single global exclusive lock.
    Coarse,
}

impl MapKind {
    /// Every implementation, in presentation order.
    pub const ALL: [MapKind; 9] = [
        MapKind::StmMap,
        MapKind::Predication,
        MapKind::ProustEagerOpt,
        MapKind::ProustLazySnap,
        MapKind::ProustLazyMemo,
        MapKind::ProustMemoCombining,
        MapKind::ProustPessimistic,
        MapKind::Boosted,
        MapKind::Coarse,
    ];

    /// The series shown in the top block of Figure 4 (the pessimistic
    /// series only appears in the o = 1 charts, per §7's livelock note).
    pub fn figure4_series(ops_per_txn: usize) -> Vec<MapKind> {
        let mut series = vec![
            MapKind::StmMap,
            MapKind::Predication,
            MapKind::ProustEagerOpt,
            MapKind::ProustLazySnap,
        ];
        if ops_per_txn == 1 {
            series.push(MapKind::ProustPessimistic);
        }
        series
    }

    /// The memoizing series of the bottom block of Figure 4.
    pub fn memo_series() -> Vec<MapKind> {
        vec![MapKind::ProustLazyMemo, MapKind::ProustMemoCombining]
    }

    /// Short stable name used in CSV output.
    pub fn name(self) -> &'static str {
        match self {
            MapKind::StmMap => "stm-map",
            MapKind::Predication => "predication",
            MapKind::ProustEagerOpt => "proust-eager-opt",
            MapKind::ProustLazySnap => "proust-lazy-snap",
            MapKind::ProustLazyMemo => "proust-lazy-memo",
            MapKind::ProustMemoCombining => "proust-memo-combine",
            MapKind::ProustPessimistic => "proust-pessimistic",
            MapKind::Boosted => "boosted",
            MapKind::Coarse => "coarse",
        }
    }

    /// Build a fresh `(runtime, map)` pair for one benchmark run, with the
    /// default contention-management policy.
    pub fn build(self) -> (Stm, Arc<dyn TxMap<u64, u64>>) {
        self.build_with(CmPolicy::default())
    }

    /// Build a fresh `(runtime, map)` pair with an explicit CM policy (the
    /// `--cm` sweep axis of the benchmark binaries).
    pub fn build_with(self, cm: CmPolicy) -> (Stm, Arc<dyn TxMap<u64, u64>>) {
        // §7 benches everything on the CCSTM-like mixed backend; we do the
        // same, with a retry bound so livelock-prone configurations
        // degrade measurably instead of hanging. The opt-in give-up policy
        // (rather than the default serial fallback) keeps the paper's
        // methodology: livelock must show up as `gave_ups` in the data,
        // not be silently rescued by the irrevocable path.
        let stm = Stm::new(StmConfig {
            detection: ConflictDetection::Mixed,
            cm,
            max_retries: Some(1_000_000),
            on_exhaustion: RetryExhaustion::GiveUp,
        });
        let map: Arc<dyn TxMap<u64, u64>> = match self {
            MapKind::StmMap => Arc::new(StmHashMap::new()),
            MapKind::Predication => Arc::new(PredMap::new()),
            MapKind::ProustEagerOpt => {
                Arc::new(EagerMap::new(Arc::new(OptimisticLap::new(LAP_SIZE))))
            }
            MapKind::ProustLazySnap => {
                Arc::new(SnapTrieMap::new(Arc::new(OptimisticLap::new(LAP_SIZE))))
            }
            MapKind::ProustLazyMemo => {
                Arc::new(MemoMap::new(Arc::new(OptimisticLap::new(LAP_SIZE))))
            }
            MapKind::ProustMemoCombining => {
                Arc::new(MemoMap::combining(Arc::new(OptimisticLap::new(LAP_SIZE))))
            }
            MapKind::ProustPessimistic => {
                Arc::new(EagerMap::new(Arc::new(PessimisticLap::new(LAP_SIZE))))
            }
            MapKind::Boosted => Arc::new(BoostedMap::new(LAP_SIZE)),
            MapKind::Coarse => Arc::new(CoarseMap::new()),
        };
        (stm, map)
    }
}

impl fmt::Display for MapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_runs() {
        for kind in MapKind::ALL {
            let (stm, map) = kind.build();
            stm.atomically(|tx| {
                map.put(tx, 1, 10)?;
                assert_eq!(map.get(tx, &1)?, Some(10), "{kind}");
                map.remove(tx, &1)
            })
            .unwrap();
        }
    }

    #[test]
    fn pessimistic_only_in_o1_series() {
        assert!(MapKind::figure4_series(1).contains(&MapKind::ProustPessimistic));
        assert!(!MapKind::figure4_series(16).contains(&MapKind::ProustPessimistic));
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> = MapKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), MapKind::ALL.len());
    }
}
