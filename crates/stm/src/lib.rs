//! # proust-stm
//!
//! A software transactional memory with pluggable conflict-detection
//! backends, built as the substrate for the Proust transactional data
//! structure framework (Dickerson, Gazzillo, Herlihy & Koskinen,
//! *Proust: A Design Space for Highly-Concurrent Transactional Data
//! Structures*, PODC 2017).
//!
//! The design follows TL2: a global version clock, per-[`TVar`] version
//! stamps, buffered writes, and commit-time validation — with the twist
//! that *when* conflicts are detected is configurable per
//! [`ConflictDetection`], reproducing the right-hand table of the paper's
//! Figure 1:
//!
//! * [`ConflictDetection::Mixed`] — eager write/write (encounter-time
//!   ownership), lazy read/write (commit-time validation). This mirrors
//!   CCSTM, the backend under the paper's ScalaProust prototype.
//! * [`ConflictDetection::EagerAll`] — adds visible readers so read/write
//!   conflicts also surface eagerly; the regime Theorem 5.2 requires for
//!   opaque eager/optimistic Proustian objects.
//! * [`ConflictDetection::LazyAll`] — NOrec-style: all conflicts surface
//!   at commit time under a global commit lock.
//!
//! All backends guarantee **opacity** for plain transactional memory:
//! running transactions revalidate their read set whenever they observe a
//! version newer than their read version, so no transaction — not even one
//! that will later abort — observes an inconsistent state.
//!
//! Beyond reads and writes, the crate exposes the three lifecycle hooks the
//! Proust framework builds on: [`Txn::on_abort`] (inverse operations for
//! eager updates), [`Txn::on_commit_locked`] (replay logs applied at the
//! serialization point), and [`Txn::on_end`] (pessimistic abstract-lock
//! release), plus [`TxnLocal`] transaction-local storage for replay logs.
//!
//! ## Example
//!
//! ```
//! use proust_stm::{Stm, StmConfig, TVar};
//!
//! let stm = Stm::new(StmConfig::default());
//! let x = TVar::new(10);
//! let y = TVar::new(20);
//! // Swap two variables atomically.
//! stm.atomically(|tx| {
//!     let a = x.read(tx)?;
//!     let b = y.read(tx)?;
//!     x.write(tx, b)?;
//!     y.write(tx, a)
//! })
//! .unwrap();
//! assert_eq!((x.load(), y.load()), (20, 10));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backoff;
#[cfg(feature = "chaos")]
pub mod chaos;
mod clock;
pub mod cm;
mod config;
mod error;
pub mod forensics;
mod local;
mod metrics;
mod runtime;
mod stats;
mod tvar;
mod txn;
mod wake;

pub use backoff::Backoff;
pub use cm::{CmArbitration, CmPolicy, Contender, ContentionManager, TxnHandle};
pub use config::{ConflictDetection, RetryExhaustion, StmConfig};
pub use error::{AbortError, AbortKind, ConflictKind, TxError, TxResult};
pub use forensics::{take_forensics, TxnForensics};
pub use local::TxnLocal;
pub use metrics::{SiteWaits, StmMetrics};
pub use runtime::{last_attempts, CommitHook, Stm};
pub use stats::{StmStats, StmStatsSnapshot};
pub use tvar::TVar;
pub use txn::{LockHoldTimer, Txn, TxnOutcome};

// Re-export the observability layer so downstream crates can name sites,
// drain traces, and read histograms without depending on `proust-obs`
// directly.
pub use proust_obs as obs;
pub use proust_obs::SiteId;
