//! Observability invariants: lifecycle events, phase histograms and
//! conflict attribution recorded by the STM runtime.

use proust_stm::obs::{EventKind, Tracer};
use proust_stm::{ConflictDetection, SiteId, Stm, StmConfig, TVar};

/// Run a deliberately contended counter workload and return the runtime.
fn contended_counter(detection: ConflictDetection) -> Stm {
    let stm = Stm::new(StmConfig::with_detection(detection));
    let v = TVar::new(0u64);
    let site_inc = SiteId::intern("trace-metrics.counter.increment");
    let site_read = SiteId::intern("trace-metrics.counter.read");
    std::thread::scope(|s| {
        for t in 0..4 {
            let stm = stm.clone();
            let v = v.clone();
            s.spawn(move || {
                for i in 0..300 {
                    if (t + i) % 4 == 0 {
                        stm.atomically(|tx| {
                            tx.set_op_site(site_read);
                            v.read(tx)
                        })
                        .unwrap();
                    } else {
                        stm.atomically(|tx| {
                            tx.set_op_site(site_inc);
                            v.modify(tx, |x| x + 1)
                        })
                        .unwrap();
                    }
                }
            });
        }
    });
    stm
}

#[test]
fn histograms_track_commits_and_matrix_tracks_conflicts() {
    for detection in ConflictDetection::ALL {
        let stm = contended_counter(detection);
        let stats = stm.stats();
        let metrics = stm.metrics();
        assert_eq!(stats.commits, 1200, "backend {detection:?}");
        // One whole-txn latency sample per commit.
        assert_eq!(metrics.txn_latency.count(), stats.commits, "backend {detection:?}");
        assert!(metrics.txn_latency.p99() >= metrics.txn_latency.p50());
        // Validation runs at least once per commit (also on attempts that
        // fail validation), so the sample count can only exceed commits.
        assert!(
            metrics.validation.count() >= stats.commits,
            "backend {detection:?}: validation {} < commits {}",
            metrics.validation.count(),
            stats.commits
        );
        assert!(metrics.lock_writeback.count() >= stats.commits);
        // Every recorded conflict is attributed: the matrix total equals
        // the stats conflict counter exactly.
        assert_eq!(metrics.conflicts.total(), stats.conflicts, "backend {detection:?}");
        if stats.conflicts > 0 {
            let cells = metrics.conflicts.cells();
            assert!(!cells.is_empty());
            // Under contention on a single counter the increment op is
            // party to every abort (it is the only writer) — sometimes as
            // the aborter, sometimes as the victim of a visible reader.
            // Attribution must surface its label on at least one axis.
            assert!(
                cells.iter().any(|c| {
                    c.aborter.name() == "trace-metrics.counter.increment"
                        || c.victim.name() == "trace-metrics.counter.increment"
                }),
                "backend {detection:?}: increment op missing from attribution in {cells:?}"
            );
            // Every attributed site must be one of the two labelled ops:
            // victims always carry their op label, and aborters are either
            // a labelled op or explicitly unknown.
            let labelled = ["trace-metrics.counter.increment", "trace-metrics.counter.read"];
            for c in cells.iter() {
                assert!(
                    labelled.contains(&c.victim.name()),
                    "backend {detection:?}: unlabelled victim in {c:?}"
                );
                assert!(
                    c.aborter == SiteId::UNKNOWN || labelled.contains(&c.aborter.name()),
                    "backend {detection:?}: mislabelled aborter in {c:?}"
                );
            }
        }
    }
}

#[test]
fn replay_histogram_counts_commit_locked_handlers() {
    let stm = Stm::default();
    let before = stm.metrics().replay.count();
    stm.atomically(|tx| {
        tx.on_commit_locked(|| std::hint::black_box(()));
        Ok(())
    })
    .unwrap();
    assert_eq!(stm.metrics().replay.count(), before + 1);
}

#[test]
fn tracer_records_lifecycle_events() {
    let tracer = Tracer::global();
    tracer.clear();
    // Lifecycle events are recorded for *sampled* transactions only, so
    // pin the rate: sample everything for the duration of this test.
    tracer.set_sample_every(1);
    tracer.enable();
    let stm = Stm::default();
    let v = TVar::new(1u32);
    let site = SiteId::intern("trace-metrics.lifecycle.bump");
    stm.atomically(|tx| {
        tx.set_op_site(site);
        v.modify(tx, |x| x + 1)
    })
    .unwrap();
    tracer.disable();
    tracer.set_sample_every(0);
    let events = tracer.drain();
    tracer.clear();
    let bumps: Vec<_> = events.iter().filter(|e| e.site == site).collect();
    assert!(
        bumps.iter().any(|e| e.kind == EventKind::Read),
        "no read event for the labelled op in {events:?}"
    );
    assert!(bumps.iter().any(|e| e.kind == EventKind::Write));
    assert!(bumps.iter().any(|e| e.kind == EventKind::Commit));
    let txn = bumps[0].txn;
    assert!(events.iter().any(|e| e.txn == txn && e.kind == EventKind::TxnStart));
    assert!(events.iter().any(|e| e.txn == txn && e.kind == EventKind::CommitValidate));
}
