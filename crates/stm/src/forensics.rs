//! Slow-transaction forensics.
//!
//! Every `atomically` call leaves a compact
//! post-mortem record in a thread-local slot: total attempts, elapsed
//! time, outcome, the bounded log of conflicts it suffered (as named
//! `(kind, aborter, victim)` site triples), and — when the call was
//! picked by the 1-in-N flight-recorder sampler — its per-phase span
//! tree. A server that notices a request blew through its
//! `--slow-threshold` calls [`take_forensics`] *after* the transaction
//! returns and logs the record as one structured JSON line, so a single
//! tail-latency outlier is explainable without rerunning anything.
//!
//! The slot holds only the most recent call per thread; reading it is
//! destructive.

use proust_obs::JsonValue;
use std::cell::RefCell;

/// One measured phase of a sampled transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForensicSpan {
    /// Phase name from [`proust_obs::Phase::name`].
    pub phase: &'static str,
    /// Span start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// One conflict suffered by a transaction, with both sides named.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForensicConflict {
    /// Conflict kind name from [`crate::ConflictKind::name`].
    pub kind: &'static str,
    /// Op site of the transaction that caused the conflict.
    pub aborter: &'static str,
    /// Op site this transaction was executing when it was hit.
    pub victim: &'static str,
}

/// Post-mortem record of one `atomically` call.
#[derive(Debug, Clone)]
pub struct TxnForensics {
    /// Transaction id of the call's final attempt.
    pub txn_id: u64,
    /// Total attempts the call took (1 = committed first try).
    pub attempts: u32,
    /// Whether the flight-recorder sampler picked this call (spans are
    /// only present when it did).
    pub sampled: bool,
    /// Wall-clock duration of the whole call, first attempt to outcome.
    pub elapsed_ns: u64,
    /// `"committed"`, `"aborted"` (user abort), or `"exhausted"`.
    pub outcome: &'static str,
    /// Conflicts suffered across all attempts (bounded; oldest first).
    pub conflicts: Vec<ForensicConflict>,
    /// Per-phase spans across all attempts (sampled calls only).
    pub spans: Vec<ForensicSpan>,
}

impl TxnForensics {
    /// Encode the record as a JSON object, ready to be logged as one
    /// structured line.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("txn_id", JsonValue::u64(self.txn_id)),
            ("attempts", JsonValue::u64(self.attempts as u64)),
            ("sampled", JsonValue::Bool(self.sampled)),
            ("elapsed_ns", JsonValue::u64(self.elapsed_ns)),
            ("outcome", JsonValue::str(self.outcome)),
            (
                "conflicts",
                JsonValue::Arr(
                    self.conflicts
                        .iter()
                        .map(|c| {
                            JsonValue::obj(vec![
                                ("kind", JsonValue::str(c.kind)),
                                ("aborter_site", JsonValue::str(c.aborter)),
                                ("victim_site", JsonValue::str(c.victim)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                JsonValue::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            JsonValue::obj(vec![
                                ("phase", JsonValue::str(s.phase)),
                                ("start_ns", JsonValue::u64(s.start_ns)),
                                ("dur_ns", JsonValue::u64(s.dur_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

thread_local! {
    static LAST: RefCell<Option<TxnForensics>> = const { RefCell::new(None) };
}

/// Store the record for the `atomically` call that just finished on this
/// thread, replacing any previous one.
pub(crate) fn record(forensics: TxnForensics) {
    LAST.with(|slot| *slot.borrow_mut() = Some(forensics));
}

/// Take the forensics record of the most recent `atomically` call on the
/// calling thread, if any. Destructive: a second call returns `None`
/// until another transaction finishes.
pub fn take_forensics() -> Option<TxnForensics> {
    LAST.with(|slot| slot.borrow_mut().take())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_json_has_the_expected_shape() {
        let record = TxnForensics {
            txn_id: 42,
            attempts: 3,
            sampled: true,
            elapsed_ns: 1_500_000,
            outcome: "committed",
            conflicts: vec![ForensicConflict {
                kind: "write_locked",
                aborter: "map.put",
                victim: "map.get",
            }],
            spans: vec![ForensicSpan { phase: "validation", start_ns: 100, dur_ns: 50 }],
        };
        let json = record.to_json();
        assert_eq!(json.get("txn_id").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(json.get("attempts").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(json.get("outcome").and_then(JsonValue::as_str), Some("committed"));
        let conflicts = json.get("conflicts").and_then(JsonValue::as_array).expect("conflicts");
        assert_eq!(conflicts[0].get("aborter_site").and_then(JsonValue::as_str), Some("map.put"));
        let spans = json.get("spans").and_then(JsonValue::as_array).expect("spans");
        assert_eq!(spans[0].get("phase").and_then(JsonValue::as_str), Some("validation"));
        // The document must survive serialization for log scraping.
        assert!(JsonValue::parse(&json.to_json()).is_ok());
    }
}
