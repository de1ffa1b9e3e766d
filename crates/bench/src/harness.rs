//! The timing harness: run a workload cell against one map implementation
//! and report wall-clock time plus STM statistics.
//!
//! Mirrors §7's methodology: warm-up executions followed by timed
//! executions, reporting mean and standard deviation. (We run natively
//! rather than on a JVM, so the warm-up mostly serves to touch memory and
//! populate the map's steady state.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proust_core::TxMap;
use proust_stm::{Stm, StmMetrics, StmStatsSnapshot};

use crate::workload::{ActionStream, MapAction, WorkloadSpec};

/// The outcome of one timed execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall-clock time for the whole execution.
    pub elapsed: Duration,
    /// STM statistics accumulated during the execution (a delta over the
    /// run, not cumulative runtime totals).
    pub stats: StmStatsSnapshot,
    /// Latency histograms and conflict attribution accumulated during the
    /// execution.
    pub metrics: StmMetrics,
    /// How many transactions exhausted their retry budget (livelock
    /// indicator; the paper *hung* in this regime — we count it instead).
    pub gave_ups: u64,
}

impl RunResult {
    /// Whether any transaction hit the retry bound.
    pub fn gave_up(&self) -> bool {
        self.gave_ups > 0
    }
}

/// Mean/stddev over the timed executions of one cell.
#[derive(Debug, Clone)]
pub struct CellMeasurement {
    /// Mean wall-clock milliseconds.
    pub mean_ms: f64,
    /// Standard deviation of wall-clock milliseconds.
    pub std_ms: f64,
    /// Total commits across timed executions.
    pub commits: u64,
    /// Total conflicts across timed executions.
    pub conflicts: u64,
    /// Total retry-budget exhaustions across timed executions.
    pub gave_ups: u64,
    /// Full STM statistics summed across timed executions — the per-kind
    /// conflict counters drive the report's abort-cause breakdown.
    pub stats: StmStatsSnapshot,
    /// Merged latency histograms and conflict attribution across timed
    /// executions.
    pub metrics: StmMetrics,
}

impl CellMeasurement {
    /// Throughput in operations per millisecond for a given op count.
    pub fn ops_per_ms(&self, total_ops: usize) -> f64 {
        total_ops as f64 / self.mean_ms
    }

    /// Whether any execution hit the retry bound.
    pub fn gave_up(&self) -> bool {
        self.gave_ups > 0
    }
}

/// Execute one run of `spec` against `map` under `stm`.
///
/// The runtime's metrics are reset at the start of the run so the returned
/// [`RunResult::metrics`] covers exactly this execution (stats, which
/// support snapshot deltas, are left accumulating).
pub fn run_once(stm: &Stm, map: &Arc<dyn TxMap<u64, u64>>, spec: &WorkloadSpec) -> RunResult {
    let before = stm.stats();
    stm.metrics().clear();
    let gave_ups = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..spec.threads {
            let stm = stm.clone();
            let map = Arc::clone(map);
            let gave_ups = &gave_ups;
            let spec = *spec;
            scope.spawn(move || {
                let mut stream = ActionStream::new(&spec, thread);
                let mut remaining = spec.ops_per_thread();
                while remaining > 0 {
                    let batch = remaining.min(spec.ops_per_txn.max(1));
                    // Pre-draw the transaction's actions so retries replay
                    // the same logical transaction.
                    let actions: Vec<MapAction> =
                        (0..batch).map(|_| stream.next_action()).collect();
                    let result = stm.atomically(|tx| {
                        for action in &actions {
                            match action {
                                MapAction::Put(k, v) => {
                                    map.put(tx, *k, *v)?;
                                }
                                MapAction::Remove(k) => {
                                    map.remove(tx, k)?;
                                }
                                MapAction::Get(k) => {
                                    map.get(tx, k)?;
                                }
                            }
                        }
                        Ok(())
                    });
                    if let Err(err) = result {
                        // Only retry-budget exhaustion is an acceptable
                        // failure: record it and move on so the run
                        // terminates (livelock shows as data). Anything
                        // else is a harness bug, not a measurement.
                        assert!(
                            err.is_exhausted(),
                            "benchmark transaction failed for a non-exhaustion reason: {err}"
                        );
                        gave_ups.fetch_add(1, Ordering::Relaxed);
                    }
                    remaining -= batch;
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let after = stm.stats();
    RunResult {
        elapsed,
        stats: after.delta(&before),
        metrics: stm.metrics().clone(),
        gave_ups: gave_ups.load(Ordering::Relaxed),
    }
}

/// Run `warmups` untimed then `runs` timed executions of `spec` against a
/// fresh map from `factory`, reporting mean ± stddev. The same map
/// instance persists across executions (as in the paper, where the shared
/// map lives across the 10 + 10 executions).
pub fn measure_cell(
    factory: impl Fn() -> (Stm, Arc<dyn TxMap<u64, u64>>),
    spec: &WorkloadSpec,
    warmups: usize,
    runs: usize,
) -> CellMeasurement {
    let (stm, map) = factory();
    for _ in 0..warmups {
        run_once(&stm, &map, spec);
    }
    let mut samples_ms = Vec::with_capacity(runs);
    let mut gave_ups = 0;
    let mut stats = StmStatsSnapshot::default();
    let metrics = StmMetrics::new();
    for _ in 0..runs.max(1) {
        let result = run_once(&stm, &map, spec);
        samples_ms.push(result.elapsed.as_secs_f64() * 1e3);
        stats = stats.merged(&result.stats);
        gave_ups += result.gave_ups;
        metrics.merge(&result.metrics);
    }
    let mean = samples_ms.iter().sum::<f64>() / samples_ms.len() as f64;
    let variance =
        samples_ms.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples_ms.len() as f64;
    CellMeasurement {
        mean_ms: mean,
        std_ms: variance.sqrt(),
        commits: stats.commits,
        conflicts: stats.conflicts,
        gave_ups,
        stats,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::MapKind;

    fn tiny_spec(threads: usize, ops_per_txn: usize) -> WorkloadSpec {
        WorkloadSpec {
            total_ops: 2_000,
            threads,
            ops_per_txn,
            write_fraction: 0.5,
            key_range: 64,
            seed: 42,
        }
    }

    #[test]
    fn every_map_kind_survives_a_contended_cell() {
        for kind in MapKind::ALL {
            let spec = tiny_spec(4, 4);
            let measurement = measure_cell(|| kind.build(), &spec, 0, 1);
            assert!(measurement.mean_ms > 0.0, "{kind}: no time elapsed?");
            assert!(measurement.commits > 0, "{kind}: nothing committed");
            assert!(!measurement.gave_up(), "{kind}: retry budget exhausted in a tiny cell");
        }
    }

    #[test]
    fn implementations_agree_on_final_state_single_thread() {
        // With one thread the workload is deterministic, so every
        // implementation must produce the same final map contents.
        let spec = WorkloadSpec { threads: 1, ..tiny_spec(1, 8) };
        let mut reference: Option<Vec<Option<u64>>> = None;
        for kind in MapKind::ALL {
            let (stm, map) = kind.build();
            run_once(&stm, &map, &spec);
            let contents: Vec<Option<u64>> = (0..spec.key_range)
                .map(|k| stm.atomically(|tx| map.get(tx, &k)).unwrap())
                .collect();
            match &reference {
                None => reference = Some(contents),
                Some(expected) => {
                    assert_eq!(expected, &contents, "{kind} diverged from reference final state");
                }
            }
        }
    }

    #[test]
    fn stats_deltas_are_positive() {
        let (stm, map) = MapKind::Predication.build();
        let result = run_once(&stm, &map, &tiny_spec(2, 2));
        assert!(result.stats.commits >= (2_000 / 2) as u64);
    }

    #[test]
    fn run_once_reports_per_run_deltas_not_cumulative_totals() {
        // Regression test for the old snapshot arithmetic, which patched
        // three fields and spread the rest (`..after`) from the cumulative
        // snapshot: every field of the second run's stats must be a
        // per-run delta.
        let (stm, map) = MapKind::Predication.build();
        let spec = tiny_spec(2, 2);
        let first = run_once(&stm, &map, &spec);
        let second = run_once(&stm, &map, &spec);
        let per_run = (spec.total_ops / spec.ops_per_txn) as u64;
        for result in [&first, &second] {
            assert!(result.stats.starts >= per_run);
            assert!(result.stats.starts < 2 * per_run + result.stats.conflicts);
            assert_eq!(
                result.stats.commits, per_run,
                "commits must count one run, not the runtime's lifetime"
            );
            assert_eq!(result.stats.conflicts, result.stats.conflict_kind_sum());
        }
    }

    #[test]
    fn run_once_captures_metrics_for_the_run() {
        let (stm, map) = MapKind::ProustLazySnap.build();
        let spec = tiny_spec(2, 2);
        let result = run_once(&stm, &map, &spec);
        assert_eq!(result.metrics.txn_latency.count(), result.stats.commits);
        assert_eq!(result.metrics.conflicts.total(), result.stats.conflicts);
        // Lazy update strategy: replay happened at the serialization point.
        assert!(result.metrics.replay.count() > 0);
    }
}
