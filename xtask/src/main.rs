//! The workspace analysis driver. Invoked as `cargo xtask <command>`
//! (see `.cargo/config.toml`).
//!
//! * `analyze` — the static gate: Definition 3.1 soundness of the live
//!   conflict abstractions, source lints, concurrency wiring. Exits
//!   non-zero (printing counterexamples) on any failure. `--report PATH`
//!   writes the machine-readable JSON report; the fault-injection flags
//!   exist to demonstrate the gate can fail and are used by CI's
//!   self-test.
//! * `loom` — runs the loom permutation tests with `--cfg loom`.
//! * `chaos` — runs the fault-injection suites (`--features chaos`): the
//!   STM-internal chaos tests once, the facade invariant matrix across a
//!   fixed seed list (plus `--randomized` for one fresh seed, printed so
//!   failures are reproducible, or `--seed N` for exactly one), and the
//!   leak self-test twice — once green, once under `CHAOS_LEAK=1`
//!   expecting the invariant checks to go red.
//! * `miri` / `tsan` — runs the pointer-provenance / data-race jobs when
//!   the toolchain supports them; `--allow-missing` turns an absent tool
//!   into a skip (the containers this repo builds in have no crates.io
//!   mirror or rustup components; CI installs the real tools).
//! * `overhead` — the telemetry overhead guard: runs the same in-process
//!   STM counter workload with the flight recorder off and again sampling
//!   1-in-64, repeats the comparison end-to-end over the binary server
//!   wire, and writes both throughput deltas to
//!   `results/telemetry_overhead.json`. The budget is <3% per arm;
//!   `--enforce` turns a blown budget into a non-zero exit.
//! * `bench` — the benchmark-regression pipeline: runs the pinned suite
//!   (Figure 4 map cells + a loadgen server run), writes a versioned
//!   envelope to `results/bench_history/BENCH_<n>.json`, and exits
//!   non-zero when a cell regresses past a noise-aware threshold against
//!   the lowest-numbered (baseline) envelope. See `bench.rs`.

mod analyze;
mod bench;
mod lint;

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use proust_verify::FaultInjection;

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the root is the manifest's parent.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits inside the workspace")
        .to_path_buf()
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => {
            eprintln!("usage: cargo xtask <analyze|loom|chaos|miri|tsan|overhead|bench> [options]");
            return ExitCode::FAILURE;
        }
    };
    match command {
        "analyze" => run_analyze(rest),
        "loom" => run_loom(),
        "chaos" => run_chaos(rest),
        "miri" => run_miri(rest),
        "tsan" => run_tsan(rest),
        "overhead" => run_overhead(rest),
        "bench" => bench::run(rest),
        other => {
            eprintln!(
                "unknown command {other:?}; expected analyze, loom, chaos, miri, tsan, \
                 overhead, or bench"
            );
            ExitCode::FAILURE
        }
    }
}

fn run_analyze(args: &[String]) -> ExitCode {
    let mut faults = FaultInjection::none();
    let mut report: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--report" => match iter.next() {
                Some(path) => report = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--report needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--weaken-counter-threshold" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(threshold) => faults.counter_threshold = threshold,
                None => {
                    eprintln!("--weaken-counter-threshold needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--mislabel-striped-update" => faults.mislabel_striped_update = true,
            "--weaken-range-scan" => faults.weaken_range_scan = true,
            "--drop-boundary-conflict" => faults.drop_boundary_conflict = true,
            other => {
                eprintln!("unknown analyze option {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = workspace_root();
    let analysis = analyze::run(&root, faults);
    analyze::print_summary(&analysis);

    if let Some(path) = report {
        let json = analyze::to_json(&analysis).to_json_pretty();
        if let Some(parent) = path.parent() {
            let _ = fs::create_dir_all(parent);
        }
        if let Err(error) = fs::write(&path, json + "\n") {
            eprintln!("failed to write report {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
        println!("report: {}", path.display());
    }

    if analysis.ok() {
        println!("analyze: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("analyze: FAILED");
        ExitCode::FAILURE
    }
}

/// `cargo test` invocations for the loom permutation tests. The loom cfg
/// is opt-in (`RUSTFLAGS="--cfg loom"`), so the regular suites never pay
/// for it.
fn run_loom() -> ExitCode {
    let root = workspace_root();
    for (package, test) in [("proust-stm", "loom_stm"), ("proust-core", "loom_lock")] {
        println!("loom: {package} --test {test}");
        let status = Command::new("cargo")
            .current_dir(&root)
            .args(["test", "-p", package, "--test", test, "--release"])
            .env("RUSTFLAGS", "--cfg loom")
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(_) => {
                eprintln!("loom: {package}/{test} failed");
                return ExitCode::FAILURE;
            }
            Err(error) => {
                eprintln!("loom: could not spawn cargo: {error}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("loom: OK");
    ExitCode::SUCCESS
}

/// The fixed seed matrix every `chaos` run covers. Failures print the
/// seed, so any red cell reproduces with `cargo xtask chaos --seed N`.
const CHAOS_SEEDS: [u64; 4] = [0xC0FFEE, 1, 42, 31337];

/// One `cargo test` invocation for the chaos suites, with extra
/// environment. Returns whether the run passed.
fn chaos_test(root: &Path, envs: &[(&str, &str)], extra: &[&str]) -> Result<bool, ExitCode> {
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root);
    cmd.args(["test", "--features", "chaos"]);
    cmd.args(extra);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    match cmd.status() {
        Ok(status) => Ok(status.success()),
        Err(error) => {
            eprintln!("chaos: could not spawn cargo: {error}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// The deterministic fault-injection gate.
fn run_chaos(args: &[String]) -> ExitCode {
    let mut seeds: Vec<u64> = CHAOS_SEEDS.to_vec();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(seed) => seeds = vec![seed],
                None => {
                    eprintln!("--seed needs a u64");
                    return ExitCode::FAILURE;
                }
            },
            "--randomized" => {
                // Entropy from the clock is plenty: the point is a seed
                // nobody has run before, printed so it can be rerun.
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0);
                let seed = nanos ^ (std::process::id() as u64).rotate_left(32);
                println!("chaos: randomized seed {seed} (rerun: cargo xtask chaos --seed {seed})");
                seeds.push(seed);
            }
            other => {
                eprintln!("unknown chaos option {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = workspace_root();
    macro_rules! step {
        ($ok:expr, $what:expr) => {
            match $ok {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("chaos: {} failed", $what);
                    return ExitCode::FAILURE;
                }
                Err(code) => return code,
            }
        };
    }

    // The STM-internal windows (retry gap, panic rollback, leak mode) use
    // their own fixed seeds; one run covers them.
    println!("chaos: proust-stm internal suite");
    step!(chaos_test(&root, &[], &["-p", "proust-stm", "--test", "chaos"]), "proust-stm suite");

    // Contention-observatory consistency under LockAcquire faults: the
    // wait/attribution sinks must agree however injected aborts land.
    println!("chaos: contention-counter consistency (LockAcquire faults)");
    step!(
        chaos_test(&root, &[], &["-p", "proust-core", "--test", "chaos_contention"]),
        "contention-counter consistency"
    );

    // The facade invariant matrix (3 backends x 2 LAPs), per seed.
    for seed in &seeds {
        println!("chaos: invariant matrix, seed {seed}");
        step!(
            chaos_test(
                &root,
                &[("CHAOS_SEED", &seed.to_string())],
                &["-p", "proust", "--test", "chaos"],
            ),
            format_args!("invariant matrix at seed {seed}")
        );
    }

    // Leak self-test: green as shipped, red with the rollback disabled.
    println!("chaos: leak probe (expecting green)");
    step!(
        chaos_test(&root, &[], &["-p", "proust", "--test", "chaos", "--", "--ignored"]),
        "leak probe"
    );
    println!("chaos: leak probe under CHAOS_LEAK=1 (expecting red)");
    match chaos_test(
        &root,
        &[("CHAOS_LEAK", "1")],
        &["-p", "proust", "--test", "chaos", "--", "--ignored"],
    ) {
        Ok(false) => {}
        Ok(true) => {
            eprintln!(
                "chaos: leak probe PASSED under CHAOS_LEAK=1 — the invariant checks \
                 cannot detect a leaked transaction"
            );
            return ExitCode::FAILURE;
        }
        Err(code) => return code,
    }

    // Kill-recover durability gate: SIGKILL a WAL-backed server mid-load,
    // restart, and hold recovery to the loadgen's ack-journal bounds —
    // once at the first fixed seed, once at a fresh seed that prints its
    // own reproduction command.
    let random_seed = {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        nanos ^ (std::process::id() as u64).rotate_left(32)
    };
    for seed in [seeds[0], random_seed] {
        println!("chaos: kill-recover, seed {seed}");
        step!(kill_recover(&root, seed), format_args!("kill-recover at seed {seed}"));
    }

    println!("chaos: OK ({} seeds)", seeds.len());
    ExitCode::SUCCESS
}

/// One `scripts/server_smoke.sh --kill-recover` run at the given timing
/// seed. Returns whether it passed.
fn kill_recover(root: &Path, seed: u64) -> Result<bool, ExitCode> {
    let mut cmd = Command::new("bash");
    cmd.current_dir(root);
    cmd.arg("scripts/server_smoke.sh").arg("--kill-recover");
    cmd.env("KILL_SEED", seed.to_string());
    match cmd.status() {
        Ok(status) => Ok(status.success()),
        Err(error) => {
            eprintln!("chaos: could not spawn kill-recover script: {error}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn allow_missing(args: &[String]) -> bool {
    args.iter().any(|a| a == "--allow-missing")
}

fn tool_skip(name: &str, allow: bool, detail: &str) -> ExitCode {
    if allow {
        println!("{name}: skipped ({detail})");
        ExitCode::SUCCESS
    } else {
        eprintln!("{name}: unavailable ({detail}); pass --allow-missing to skip");
        ExitCode::FAILURE
    }
}

/// Miri over the STM/core/conc unit suites, scoped small: Miri is ~100x
/// slower than native, so CI keeps it to the `stm` crate's lib tests plus
/// the concurrency substrate.
fn run_miri(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let probe = Command::new("cargo").args(["miri", "--version"]).output();
    let present = probe.map(|out| out.status.success()).unwrap_or(false);
    if !present {
        return tool_skip("miri", allow_missing(args), "cargo miri not installed");
    }
    let status = Command::new("cargo")
        .current_dir(&root)
        .args(["miri", "test", "-p", "proust-stm", "-p", "proust-conc", "--lib"])
        .env("MIRIFLAGS", "-Zmiri-ignore-leaks")
        .status();
    match status {
        Ok(status) if status.success() => {
            println!("miri: OK");
            ExitCode::SUCCESS
        }
        Ok(_) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("miri: could not spawn cargo: {error}");
            ExitCode::FAILURE
        }
    }
}

/// ThreadSanitizer over the concurrency-heavy lib tests. Needs nightly
/// (`-Zsanitizer=thread`) and a rebuilt std (`-Zbuild-std`), so this only
/// runs where rustup can provide both (CI).
fn run_tsan(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let probe = Command::new("rustup").args(["run", "nightly", "rustc", "--version"]).output();
    let nightly = probe.map(|out| out.status.success()).unwrap_or(false);
    let src_probe = Command::new("rustup")
        .args(["component", "list", "--toolchain", "nightly", "--installed"])
        .output();
    let has_src = src_probe
        .map(|out| String::from_utf8_lossy(&out.stdout).contains("rust-src"))
        .unwrap_or(false);
    if !nightly || !has_src {
        return tool_skip("tsan", allow_missing(args), "nightly with rust-src not installed");
    }
    let status = Command::new("cargo")
        .current_dir(&root)
        .args([
            "+nightly",
            "test",
            "-p",
            "proust-stm",
            "-p",
            "proust-conc",
            "--lib",
            "-Zbuild-std",
            "--target",
            host_triple(),
        ])
        .env("RUSTFLAGS", "-Zsanitizer=thread")
        .status();
    match status {
        Ok(status) if status.success() => {
            println!("tsan: OK");
            ExitCode::SUCCESS
        }
        Ok(_) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("tsan: could not spawn cargo: {error}");
            ExitCode::FAILURE
        }
    }
}

/// One timed pass of the overhead workload: `threads` workers spend
/// `secs` incrementing their own striped `TVar` counters through full
/// `atomically` calls, with every 16th transaction also bumping one
/// *shared* counter. The stripes keep the bulk of the measurement
/// conflict-free, while the shared-counter minority makes transactions
/// contend for ownership — so the off-vs-sampled delta covers the
/// contention-observatory hooks (lock-wait timing, time-weighted
/// conflict attribution), not just the flight recorder. Returns
/// committed ops per second.
fn overhead_pass(threads: usize, secs: f64) -> f64 {
    use proust_stm::{Stm, StmConfig, TVar};

    let stm = Stm::new(StmConfig::default());
    let counters: Vec<TVar<u64>> = (0..threads).map(|_| TVar::new(0u64)).collect();
    let shared = TVar::new(0u64);
    let deadline = std::time::Duration::from_secs_f64(secs);
    let start = std::time::Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = counters
            .iter()
            .map(|counter| {
                let stm = stm.clone();
                let shared = &shared;
                scope.spawn(move || {
                    let mut ops = 0u64;
                    while start.elapsed() < deadline {
                        // Batch the deadline check: Instant::now is not
                        // free and would otherwise dominate short txns.
                        for _ in 0..256 {
                            let hot = ops.is_multiple_of(16);
                            stm.atomically(|tx| {
                                let v = counter.read(tx)?;
                                counter.write(tx, v + 1)?;
                                if hot {
                                    let s = shared.read(tx)?;
                                    shared.write(tx, s + 1)?;
                                }
                                Ok(())
                            })
                            .expect("overhead increment commits");
                            ops += 1;
                        }
                    }
                    ops
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panics")).sum()
    });
    total as f64 / start.elapsed().as_secs_f64()
}

/// One timed pass of the end-to-end overhead workload: an in-process
/// `proust-server` driven closed-loop over the binary wire. Returns
/// committed ops per second. A fresh server per pass keeps the INC
/// expected-value check valid (counters start at zero each time).
///
/// `trace_sample` is the server's flight-recorder rate; starting a server
/// reprograms the process-global tracer, so the baseline pass must pass
/// 0 here or it samples like the other passes do.
fn overhead_server_pass(
    threads: usize,
    secs: f64,
    trace_sample: u64,
    waterfall_sample: usize,
) -> Result<f64, String> {
    use proust_loadgen::LoadConfig;
    use proust_server::{Server, ServerConfig};

    let handle = Server::start(ServerConfig { trace_sample, ..ServerConfig::default() })
        .map_err(|err| err.to_string())?;
    if trace_sample == 0 && proust_obs::Tracer::global().is_enabled() {
        handle.shutdown();
        return Err("baseline pass started with the tracer enabled".to_string());
    }
    let config = LoadConfig {
        addr: handle.addr().to_string(),
        threads,
        duration: std::time::Duration::from_secs_f64(secs),
        binary: true,
        quiet: true,
        waterfall_sample,
        ..LoadConfig::default()
    };
    let report = proust_loadgen::run(&config)?;
    handle.shutdown();
    if report.protocol_errors > 0 || report.lost_updates > 0 {
        return Err(format!(
            "overhead server pass is not a valid measurement: {} protocol errors, {} lost updates",
            report.protocol_errors, report.lost_updates
        ));
    }
    Ok(report.throughput_rps)
}

/// The telemetry overhead guard. Budget: sampling 1-in-64 must cost <3%
/// throughput on the hottest path we have (tiny uncontended txns — the
/// worst case for fixed per-txn overhead, since there is no real work to
/// amortise it against). A second arm repeats the comparison end-to-end
/// over the binary server wire, so the budget also covers the reactor's
/// per-request accounting (wakeup counters, ready-batch histogram,
/// connection gauges) rather than only the STM-internal hooks.
fn run_overhead(args: &[String]) -> ExitCode {
    const TARGET_FRAC: f64 = 0.03;

    let mut sample_every = 64u64;
    let mut out = workspace_root().join("results/telemetry_overhead.json");
    let mut secs = 2.0f64;
    let mut threads = 4usize;
    let mut enforce = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--sample-every" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(value) => sample_every = value,
                None => {
                    eprintln!("--sample-every needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match iter.next() {
                Some(path) => out = PathBuf::from(path),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--secs" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(value) => secs = value,
                None => {
                    eprintln!("--secs needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(value) => threads = value,
                None => {
                    eprintln!("--threads needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--enforce" => enforce = true,
            other => {
                eprintln!("unknown overhead option {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let tracer = proust_obs::Tracer::global();

    // Warm up allocators, the version clock, and the thread pool once so
    // neither timed pass pays first-run costs.
    overhead_pass(threads, (secs / 4.0).min(0.5));

    // Scheduler noise between runs is on the order of the signal, so
    // interleave the two modes and compare best-of: the peak each mode
    // reaches is the right estimator for a small fixed per-txn cost.
    const ROUNDS: usize = 5;
    let mut baseline = 0.0f64;
    let mut sampled = 0.0f64;
    for _ in 0..ROUNDS {
        tracer.disable();
        tracer.clear();
        baseline = baseline.max(overhead_pass(threads, secs));
        tracer.set_sample_every(sample_every);
        tracer.enable();
        sampled = sampled.max(overhead_pass(threads, secs));
    }
    tracer.disable();
    tracer.clear();

    let delta_frac = (baseline - sampled) / baseline;
    let within = delta_frac < TARGET_FRAC;
    println!(
        "overhead: baseline {baseline:.0} ops/s, sampled(1/{sample_every}) {sampled:.0} ops/s, \
         delta {:.2}% (budget {:.0}%)",
        delta_frac * 100.0,
        TARGET_FRAC * 100.0
    );

    // Binary-wire arm: same off-vs-sampled comparison, but through a full
    // in-process server (reactor, codec, commit batching). Fewer rounds
    // than the STM arm — each pass spins up a server — but still enough
    // best-of interleaving to shed scheduler noise on small runners.
    const SERVER_ROUNDS: usize = 4;
    let server_threads = 4usize;
    if let Err(err) = overhead_server_pass(server_threads, (secs / 4.0).min(0.5), 0, 0) {
        eprintln!("overhead: binary-wire warmup failed: {err}");
        return ExitCode::FAILURE;
    }
    let mut wire_baseline = 0.0f64;
    let mut wire_sampled = 0.0f64;
    let mut wire_waterfall = 0.0f64;
    for _ in 0..SERVER_ROUNDS {
        tracer.disable();
        tracer.clear();
        match overhead_server_pass(server_threads, secs, 0, 0) {
            Ok(rps) => wire_baseline = wire_baseline.max(rps),
            Err(err) => {
                eprintln!("overhead: binary-wire baseline pass failed: {err}");
                return ExitCode::FAILURE;
            }
        }
        match overhead_server_pass(server_threads, secs, sample_every, 0) {
            Ok(rps) => wire_sampled = wire_sampled.max(rps),
            Err(err) => {
                eprintln!("overhead: binary-wire sampled pass failed: {err}");
                return ExitCode::FAILURE;
            }
        }
        // Waterfall arm: flight recorder still sampling 1/N, plus every
        // Nth request carries the TRACE flag — the request's waterfall is
        // rendered to JSON and echoed as an extra INFO frame. This is the
        // full request-anatomy telemetry path switched on at once.
        match overhead_server_pass(server_threads, secs, sample_every, sample_every as usize) {
            Ok(rps) => wire_waterfall = wire_waterfall.max(rps),
            Err(err) => {
                eprintln!("overhead: binary-wire waterfall pass failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    tracer.disable();
    tracer.clear();

    let wire_delta_frac = (wire_baseline - wire_sampled) / wire_baseline;
    let wire_within = wire_delta_frac < TARGET_FRAC;
    println!(
        "overhead: binary wire baseline {wire_baseline:.0} ops/s, sampled(1/{sample_every}) \
         {wire_sampled:.0} ops/s, delta {:.2}% (budget {:.0}%)",
        wire_delta_frac * 100.0,
        TARGET_FRAC * 100.0
    );
    let waterfall_delta_frac = (wire_baseline - wire_waterfall) / wire_baseline;
    let waterfall_within = waterfall_delta_frac < TARGET_FRAC;
    println!(
        "overhead: binary wire waterfall-on(1/{sample_every}) {wire_waterfall:.0} ops/s, \
         delta {:.2}% (budget {:.0}%)",
        waterfall_delta_frac * 100.0,
        TARGET_FRAC * 100.0
    );

    let report = proust_obs::JsonValue::obj([
        ("baseline_ops_per_s", proust_obs::JsonValue::num(baseline)),
        ("sampled_ops_per_s", proust_obs::JsonValue::num(sampled)),
        ("delta_frac", proust_obs::JsonValue::num(delta_frac)),
        ("binary_wire_baseline_ops_per_s", proust_obs::JsonValue::num(wire_baseline)),
        ("binary_wire_sampled_ops_per_s", proust_obs::JsonValue::num(wire_sampled)),
        ("binary_wire_delta_frac", proust_obs::JsonValue::num(wire_delta_frac)),
        ("binary_wire_within_target", proust_obs::JsonValue::Bool(wire_within)),
        ("waterfall_ops_per_s", proust_obs::JsonValue::num(wire_waterfall)),
        ("waterfall_delta_frac", proust_obs::JsonValue::num(waterfall_delta_frac)),
        ("waterfall_within_target", proust_obs::JsonValue::Bool(waterfall_within)),
        ("sample_every", proust_obs::JsonValue::u64(sample_every)),
        ("threads", proust_obs::JsonValue::u64(threads as u64)),
        ("secs", proust_obs::JsonValue::num(secs)),
        ("target_frac", proust_obs::JsonValue::num(TARGET_FRAC)),
        ("within_target", proust_obs::JsonValue::Bool(within)),
    ]);
    if let Some(parent) = out.parent() {
        let _ = fs::create_dir_all(parent);
    }
    if let Err(error) = fs::write(&out, report.to_json_pretty() + "\n") {
        eprintln!("failed to write {}: {error}", out.display());
        return ExitCode::FAILURE;
    }
    println!("report: {}", out.display());

    if !(within && wire_within && waterfall_within) && enforce {
        eprintln!(
            "overhead: FAILED — sampling costs {:.2}% (stm) / {:.2}% (binary wire) / \
             {:.2}% (waterfall-on), budget is {:.0}%",
            delta_frac * 100.0,
            wire_delta_frac * 100.0,
            waterfall_delta_frac * 100.0,
            TARGET_FRAC * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("overhead: OK");
    ExitCode::SUCCESS
}

fn host_triple() -> &'static str {
    if cfg!(target_os = "macos") {
        if cfg!(target_arch = "aarch64") {
            "aarch64-apple-darwin"
        } else {
            "x86_64-apple-darwin"
        }
    } else if cfg!(target_arch = "aarch64") {
        "aarch64-unknown-linux-gnu"
    } else {
        "x86_64-unknown-linux-gnu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_holds_the_virtual_manifest() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates/verify").is_dir());
    }

    #[test]
    fn shipped_tree_passes_the_full_gate() {
        let analysis = analyze::run(&workspace_root(), FaultInjection::none());
        assert!(
            analysis.ok(),
            "verdicts: {:?}\nlints: {:?}\nwiring: {:?}",
            analysis.verdicts.iter().map(|v| (v.name, v.sound)).collect::<Vec<_>>(),
            analysis.findings,
            analysis.wiring
        );
    }

    #[test]
    fn injected_faults_fail_the_gate_with_counterexamples() {
        let faults = FaultInjection {
            counter_threshold: 1,
            mislabel_striped_update: true,
            ..FaultInjection::none()
        };
        let analysis = analyze::run(&workspace_root(), faults);
        assert!(!analysis.ok());
        let unsound: Vec<_> =
            analysis.verdicts.iter().filter(|v| !v.sound).map(|v| v.name).collect();
        assert!(unsound.contains(&"counter"));
        assert!(unsound.contains(&"memo-map"));
        for v in analysis.verdicts.iter().filter(|v| !v.sound) {
            assert!(v.counterexample.is_some(), "{} lacks a counterexample", v.name);
        }
    }

    #[test]
    fn range_scan_faults_fail_the_gate_with_symbolic_witnesses() {
        for faults in [
            FaultInjection { weaken_range_scan: true, ..FaultInjection::none() },
            FaultInjection { drop_boundary_conflict: true, ..FaultInjection::none() },
        ] {
            let analysis = analyze::run(&workspace_root(), faults);
            assert!(!analysis.ok());
            let ordered = analysis
                .verdicts
                .iter()
                .find(|v| v.name == "ordered-map")
                .expect("ordered-map verdict");
            assert!(!ordered.sound);
            assert!(ordered.counterexample.is_some(), "exhaustive witness missing");
            assert_eq!(ordered.symbolic_sound, Some(false), "symbolic pass must refute");
            assert!(ordered.symbolic_witness.is_some(), "symbolic witness missing");
            // The fault is confined to the ordered map; everything else
            // stays sound.
            assert!(analysis.verdicts.iter().filter(|v| v.name != "ordered-map").all(|v| v.sound));
        }
    }

    #[test]
    fn report_json_round_trips_and_carries_the_rate() {
        let analysis = analyze::run(&workspace_root(), FaultInjection::none());
        let text = analyze::to_json(&analysis).to_json_pretty();
        let parsed = proust_obs::JsonValue::parse(&text).expect("self-produced JSON parses");
        assert_eq!(parsed.get("ok").and_then(|v| v.as_bool()), Some(true));
        let verdicts = parsed
            .get("passes")
            .and_then(|p| p.get("conflict_abstractions"))
            .and_then(|c| c.get("verdicts"))
            .and_then(|v| v.as_array())
            .expect("verdict array");
        assert_eq!(verdicts.len(), 9);
        for verdict in verdicts {
            let rate =
                verdict.get("false_conflict_rate").and_then(|r| r.as_f64()).expect("rate present");
            assert!((0.0..=1.0).contains(&rate));
        }
    }
}
