//! End-to-end checks of the sampling flight recorder and the
//! slow-transaction forensics record.

use proust_stm::obs::{JsonValue, Phase, Tracer};
use proust_stm::{take_forensics, ConflictKind, Stm, StmConfig, TVar};

/// One test body so the process-global tracer is never toggled
/// concurrently.
#[test]
fn sampled_transactions_record_spans_forensics_and_chrome_trace() {
    let tracer = Tracer::global();
    tracer.clear();
    tracer.enable();
    tracer.set_sample_every(1);

    let stm = Stm::new(StmConfig::default());
    let v = TVar::new(0u64);
    let mut attempts = 0u32;
    stm.atomically(|tx| {
        attempts += 1;
        if attempts == 1 {
            // One named conflict so the forensics record has a site pair.
            return tx.conflict_attributed(
                ConflictKind::External("flight-test"),
                proust_stm::SiteId::intern("flight-test.aborter"),
            );
        }
        let x = v.read(tx)?;
        v.write(tx, x + 1)
    })
    .expect("second attempt commits");

    // --- forensics ---
    let record = take_forensics().expect("forensics recorded under trace");
    assert_eq!(record.outcome, "committed");
    assert_eq!(record.attempts, 2);
    assert!(record.sampled, "1-in-1 sampling must mark the call sampled");
    assert!(record.elapsed_ns > 0);
    assert_eq!(record.conflicts.len(), 1);
    assert_eq!(record.conflicts[0].kind, "external");
    assert_eq!(record.conflicts[0].aborter, "flight-test.aborter");
    let phases: Vec<&str> = record.spans.iter().map(|s| s.phase).collect();
    assert!(phases.contains(&Phase::Body.name()), "missing body span in {phases:?}");
    assert!(phases.contains(&Phase::Validate.name()), "missing validation span in {phases:?}");
    assert!(phases.contains(&Phase::Txn.name()), "missing whole-txn span in {phases:?}");
    let txn_span = record.spans.iter().find(|s| s.phase == Phase::Txn.name()).expect("txn span");
    assert_eq!(txn_span.dur_ns, record.elapsed_ns);
    // The slot is destructive.
    assert!(take_forensics().is_none());

    // --- the forensics JSON line parses ---
    let line = record.to_json().to_json();
    let parsed = JsonValue::parse(&line).expect("forensics line is valid JSON");
    assert_eq!(parsed.get("outcome").and_then(JsonValue::as_str), Some("committed"));

    // --- chrome trace export ---
    let doc = tracer.to_chrome_trace();
    tracer.disable();
    tracer.set_sample_every(0);
    tracer.clear();
    let events = doc.get("traceEvents").and_then(JsonValue::as_array).expect("traceEvents");
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    assert!(
        span_names.contains(&Phase::Body.name()) && span_names.contains(&Phase::Txn.name()),
        "chrome trace lacks per-phase spans: {span_names:?}"
    );
    // Perfetto requires ts/dur on complete events; make sure they decode.
    for event in events {
        if event.get("ph").and_then(JsonValue::as_str) == Some("X") {
            assert!(event.get("ts").and_then(JsonValue::as_f64).is_some());
            assert!(event.get("dur").and_then(JsonValue::as_f64).is_some());
        }
    }

    // --- unsampled calls still leave a (span-free) forensics record ---
    stm.atomically(|tx| v.modify(tx, |x| x + 1)).expect("commits");
    let record = take_forensics().expect("record exists even when unsampled");
    assert!(!record.sampled, "sampler is off again");
    assert!(record.spans.is_empty(), "no spans without sampling");
    assert_eq!(record.outcome, "committed");
}
