//! Runtime configuration: conflict-detection backend selection and
//! contention-management policy.

/// Which conflict-detection strategy the runtime uses.
///
/// This is the right-hand table of Figure 1 in the paper, which classifies
/// STMs by *when* they detect read/write and write/write conflicts:
///
/// | Backend | W/W detection | R/W detection | Closest published STM |
/// |---|---|---|---|
/// | [`Mixed`](ConflictDetection::Mixed) | eager (encounter-time ownership) | lazy (commit-time validation) | CCSTM / ScalaSTM default, TL2 with encounter-time write locking |
/// | [`EagerAll`](ConflictDetection::EagerAll) | eager | eager (visible readers) | eager HTM-like / "early detection" STMs |
/// | [`LazyAll`](ConflictDetection::LazyAll) | lazy | lazy | NOrec-style commit-time validation |
///
/// The choice matters for the Proust design space: per Theorem 5.2 of the
/// paper, *eager/optimistic* Proustian objects are only opaque when the STM
/// detects **both** kinds of conflict eagerly — i.e. under
/// [`EagerAll`](ConflictDetection::EagerAll).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConflictDetection {
    /// Eager write/write detection via encounter-time ownership, lazy
    /// read/write detection via commit-time validation. This is the
    /// default because it mirrors CCSTM, the backend used by the paper's
    /// ScalaProust prototype.
    #[default]
    Mixed,
    /// Fully eager detection: writers take encounter-time ownership *and*
    /// readers are visible, so read/write conflicts surface at the moment
    /// the second access happens. Required for opaque eager/optimistic
    /// Proustian objects (Theorem 5.2).
    EagerAll,
    /// Fully lazy detection: all conflicts surface at commit time under a
    /// global commit lock (NOrec-style). Writers never take ownership
    /// during execution.
    LazyAll,
}

impl ConflictDetection {
    /// All backends, for exhaustive design-space sweeps.
    pub const ALL: [ConflictDetection; 3] =
        [ConflictDetection::Mixed, ConflictDetection::EagerAll, ConflictDetection::LazyAll];

    /// Whether write/write conflicts are detected eagerly.
    pub fn eager_write_write(self) -> bool {
        !matches!(self, ConflictDetection::LazyAll)
    }

    /// Whether read/write conflicts are detected eagerly.
    pub fn eager_read_write(self) -> bool {
        matches!(self, ConflictDetection::EagerAll)
    }

    /// Short stable name used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            ConflictDetection::Mixed => "mixed",
            ConflictDetection::EagerAll => "eager-all",
            ConflictDetection::LazyAll => "lazy-all",
        }
    }
}

/// What `atomically` does when [`StmConfig::max_retries`] is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RetryExhaustion {
    /// Escalate to the global serial-irrevocable mode: the transaction takes
    /// the serial token, new attempts by other transactions park until it
    /// finishes, and in-flight transactions drain naturally. A body that can
    /// commit when run alone therefore always commits, which is why this is
    /// the default. Serial mode is itself bounded: a body that *still* keeps
    /// failing while holding the token — i.e. one that can never commit —
    /// eventually (after `max_retries` more failures, floored generously to
    /// tolerate in-flight transactions draining past the gate) surfaces as
    /// [`AbortError::exhausted`](crate::AbortError::exhausted) rather than
    /// parking every other transaction behind the gate forever.
    #[default]
    SerialFallback,
    /// Give up: surface the last conflict as
    /// [`AbortError::exhausted`](crate::AbortError::exhausted). Benchmarks
    /// opt into this so livelock shows up as data rather than a hang (the
    /// paper reports exactly this failure mode for pessimistic coupling
    /// in §7).
    GiveUp,
}

/// Configuration for an [`Stm`](crate::Stm) runtime instance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StmConfig {
    /// Conflict-detection backend (Figure 1, right-hand table).
    pub detection: ConflictDetection,
    /// Contention-management policy consulted at every conflict raise site.
    pub cm: crate::cm::CmPolicy,
    /// If set, `atomically` stops optimistic retrying after this many failed
    /// attempts and applies [`StmConfig::on_exhaustion`]. `None` retries
    /// forever, the conventional STM contract.
    pub max_retries: Option<u32>,
    /// Policy applied when `max_retries` is exhausted. Irrelevant while
    /// `max_retries` is `None`.
    pub on_exhaustion: RetryExhaustion,
}

impl StmConfig {
    /// Configuration with the given detection backend and defaults
    /// otherwise.
    pub fn with_detection(detection: ConflictDetection) -> Self {
        StmConfig { detection, ..StmConfig::default() }
    }

    /// Configuration with the given contention-management policy and
    /// defaults otherwise.
    pub fn with_cm(cm: crate::cm::CmPolicy) -> Self {
        StmConfig { cm, ..StmConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_prototype() {
        let config = StmConfig::default();
        assert_eq!(config.detection, ConflictDetection::Mixed);
        assert_eq!(config.cm, crate::cm::CmPolicy::Backoff);
        assert_eq!(config.on_exhaustion, RetryExhaustion::SerialFallback);
    }

    #[test]
    fn eagerness_classification() {
        assert!(ConflictDetection::Mixed.eager_write_write());
        assert!(!ConflictDetection::Mixed.eager_read_write());
        assert!(ConflictDetection::EagerAll.eager_write_write());
        assert!(ConflictDetection::EagerAll.eager_read_write());
        assert!(!ConflictDetection::LazyAll.eager_write_write());
        assert!(!ConflictDetection::LazyAll.eager_read_write());
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            ConflictDetection::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(names.len(), 3);
    }
}
