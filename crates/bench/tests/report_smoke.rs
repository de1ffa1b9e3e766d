//! End-to-end observability smoke test: run a tiny instrumented cell with
//! tracing enabled, serialize the report cell to JSON, parse it back, and
//! check the numbers survived the round trip.

use proust_bench::harness::measure_cell;
use proust_bench::maps::MapKind;
use proust_bench::report::{cell_json, report_json};
use proust_bench::workload::WorkloadSpec;
use proust_stm::obs::JsonValue;

#[test]
fn instrumented_cell_report_round_trips_through_json() {
    // Small key range + high write fraction + several threads: enough
    // contention that the conflict matrix is non-empty in practice, while
    // the cell still finishes in well under a second.
    let spec = WorkloadSpec {
        total_ops: 8_000,
        threads: 4,
        ops_per_txn: 4,
        write_fraction: 0.9,
        key_range: 8,
        seed: 7,
    };
    let cell = measure_cell(|| MapKind::ProustEagerOpt.build(), &spec, 0, 1);
    assert!(cell.commits > 0, "nothing committed");

    let json = cell_json(
        [
            ("impl", JsonValue::str("proust-eager-opt")),
            ("threads", JsonValue::u64(spec.threads as u64)),
        ],
        &cell,
    );
    let parsed = JsonValue::parse(&json.to_json_pretty()).expect("report cell must parse back");

    // Scalar fields survive.
    assert_eq!(parsed.get("impl").and_then(JsonValue::as_str), Some("proust-eager-opt"));
    assert_eq!(parsed.get("commits").and_then(JsonValue::as_u64), Some(cell.commits));
    assert_eq!(parsed.get("conflicts").and_then(JsonValue::as_u64), Some(cell.conflicts));
    assert_eq!(parsed.get("gave_ups").and_then(JsonValue::as_u64), Some(cell.gave_ups));

    // The whole-transaction latency histogram round-trips percentile by
    // percentile against the live histogram.
    let latency = parsed.get("txn_latency").expect("txn_latency present");
    let hist = &cell.metrics.txn_latency;
    assert_eq!(latency.get("count").and_then(JsonValue::as_u64), Some(hist.count()));
    assert_eq!(latency.get("p50_ns").and_then(JsonValue::as_u64), Some(hist.p50()));
    assert_eq!(latency.get("p95_ns").and_then(JsonValue::as_u64), Some(hist.p95()));
    assert_eq!(latency.get("p99_ns").and_then(JsonValue::as_u64), Some(hist.p99()));
    assert_eq!(hist.count(), cell.commits, "one latency sample per commit");

    // Commit phases are present with per-phase percentiles.
    let phases = parsed.get("phases").expect("phases present");
    for phase in ["validation", "lock_writeback", "replay"] {
        let obj = phases.get(phase).unwrap_or_else(|| panic!("{phase} present"));
        assert!(obj.get("p50_ns").and_then(JsonValue::as_u64).is_some());
    }

    // Conflict attribution: totals agree with the stats counter, and when
    // the contended cell did conflict the matrix carries labelled
    // (aborter, victim) pairs.
    let attribution = parsed.get("conflict_attribution").expect("attribution present");
    assert_eq!(
        attribution.get("total").and_then(JsonValue::as_u64),
        Some(cell.metrics.conflicts.total())
    );
    assert_eq!(cell.metrics.conflicts.total(), cell.conflicts);
    if cell.conflicts > 0 {
        match attribution.get("matrix").expect("matrix array") {
            JsonValue::Arr(entries) => {
                assert!(!entries.is_empty(), "contended cell produced an empty matrix");
                for entry in entries {
                    assert!(entry.get("aborter").and_then(JsonValue::as_str).is_some());
                    assert!(entry.get("victim").and_then(JsonValue::as_str).is_some());
                    assert!(entry.get("count").and_then(JsonValue::as_u64).unwrap_or(0) > 0);
                }
            }
            other => panic!("matrix should be an array, got {other:?}"),
        }
    }

    // The full envelope carries the statically predicted false-conflict
    // rate for the exercised structures next to the measured rate above,
    // and both land in [0, 1].
    let envelope = report_json("figure4", JsonValue::obj([]), vec![json]);
    let envelope = JsonValue::parse(&envelope.to_json_pretty()).expect("envelope must parse back");
    let predicted = envelope
        .get("predicted_false_conflict_rate")
        .expect("envelope predicts false-conflict rates");
    for structure in ["eager-map", "memo-map", "snap-map"] {
        let rate = predicted
            .get(structure)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("{structure} prediction present"));
        assert!((0.0..=1.0).contains(&rate), "{structure} predicted rate {rate} out of range");
    }
    let measured = envelope
        .get("cells")
        .and_then(JsonValue::as_array)
        .and_then(|cells| cells.first())
        .and_then(|cell| cell.get("conflict_attribution"))
        .and_then(|attribution| attribution.get("false_conflict_rate"))
        .and_then(JsonValue::as_f64)
        .expect("measured false-conflict rate present");
    assert!((0.0..=1.0).contains(&measured), "measured rate {measured} out of range");
}
