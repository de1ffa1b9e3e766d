//! # proust-bench
//!
//! The benchmark harness that regenerates the Proust paper's evaluation:
//!
//! * [`workload`] — the §7 map workload (1M ops, `t` threads, `o` ops per
//!   transaction, write fraction `u`, keys uniform over 1024);
//! * [`maps`] — the registry of implementations swept in Figure 4
//!   (traditional STM map, predication, the Proust configurations, and
//!   extra baselines);
//! * [`harness`] — warmup + timed executions with mean/stddev reporting,
//!   plus per-run latency histograms and conflict attribution;
//! * [`table`] — aligned-table and CSV output;
//! * [`report`] — the JSON report schema shared by every binary
//!   (`--json PATH`, collected under `results/` by
//!   `scripts/run_experiments.sh`);
//! * [`args`] — shared flag parsing: unknown flags or enum values
//!   (`--cm`, `--lap`, `--update`) print usage and exit 2.
//!
//! Binaries (run with `--release`):
//!
//! * `figure4` — the full Figure 4 grid (`--quick` for a reduced pass);
//! * `design_space` — the Figure 1 compatibility litmus (which
//!   LAP × update-strategy quadrants are safe on which STM backends);
//! * `counter_bench` — the §3 counter conflict-abstraction ablation;
//! * `pqueue_bench` — the §6 priority-queue comparison, including the
//!   exact `GroupExclusive` protocol vs. the read/write approximation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod harness;
pub mod maps;
pub mod report;
pub mod table;
pub mod workload;
