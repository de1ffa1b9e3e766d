//! The repository benchmark.
//!
//! ```text
//! proust-perfbench --workload <kv-mem|kv-wal|txn-map> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is a separate pass that produces the per-layer ledger.
//! Either prints an environment block and a table of every metric with
//! its unit and sample count, then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! correctness check exits 1. `metrics.json` beside this crate names
//! every metric, its layer, and what it should move on which workload.

mod cells;
mod gen;
mod kv;
mod measure;
mod txn;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use proust_stm::obs::JsonValue;

use kv::KvKind;
use measure::Metrics;

/// Length of a companion pass: the served or in-process pass a traced run
/// adds for the layers its own workload never enters.
const COMPANION_SECONDS: f64 = 3.0;
/// Units of generated input the layer cells run over.
const CELL_UNITS: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    KvMem,
    KvWal,
    TxnMap,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::KvMem, Workload::KvWal, Workload::TxnMap];

    fn name(self) -> &'static str {
        match self {
            Workload::KvMem => "kv-mem",
            Workload::KvWal => "kv-wal",
            Workload::TxnMap => "txn-map",
        }
    }

    fn kv(self) -> Option<KvKind> {
        match self {
            Workload::KvMem => Some(KvKind::Mem),
            Workload::KvWal => Some(KvKind::Wal),
            Workload::TxnMap => None,
        }
    }
}

/// What one run observed: its checks, and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Metrics,
}

/// A traced pass's metrics and the throughput of its untraced reference
/// half and its traced half, for the tracing overhead.
pub struct Traced {
    pub metrics: Metrics,
    pub reference_tput: f64,
    pub traced_tput: f64,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: proust-perfbench --workload <kv-mem|kv-wal|txn-map> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The metric catalogue: name, unit and whether the metric is one the
/// final JSON line carries in this mode.
struct Catalogue {
    end_to_end: Vec<(String, String, bool)>,
    per_layer: Vec<(String, String)>,
}

fn catalogue() -> Catalogue {
    let doc = JsonValue::parse(include_str!("../metrics.json")).expect("metrics.json parses");
    let list = |key: &str| doc.get(key).and_then(JsonValue::as_array).expect("metric list");
    let text = |m: &JsonValue, key: &str| {
        m.get(key).and_then(JsonValue::as_str).expect("metric field").to_string()
    };
    Catalogue {
        end_to_end: list("end_to_end")
            .iter()
            .map(|m| {
                let gated = m.get("gated").and_then(JsonValue::as_bool).expect("gated flag");
                (text(m, "name"), text(m, "unit"), gated)
            })
            .collect(),
        per_layer: list("per_layer").iter().map(|m| (text(m, "name"), text(m, "unit"))).collect(),
    }
}

fn cell_units(workload: Workload, seed: u64) -> Vec<Vec<proust_server::proto::Cmd>> {
    let seed = gen::derive(seed, 7);
    match workload.kv() {
        Some(kind) => gen::kv_units(&kv::mix(kind), seed, CELL_UNITS),
        None => gen::txn_units(seed, CELL_UNITS),
    }
}

/// The traced run: the workload's own traced pass, companion passes for
/// the layers it never enters, and the layer cells on its inputs.
fn trace(args: &Args, scratch: &Path) -> Result<(Outcome, Vec<txn::Span>), String> {
    let mut out = Outcome::default();
    let seed = args.seed;
    let own;
    let spans;
    match args.workload.kv() {
        Some(kind) => {
            own = kv::trace(kind, seed, args.seconds, scratch, None, &mut out)?;
            let wal_own = kind == KvKind::Wal;
            out.metrics.take_from(&own.metrics, |name| wal_own || !name.starts_with("wal."), None);
            if !wal_own {
                let wal = kv::trace(KvKind::Wal, seed, COMPANION_SECONDS, scratch, None, &mut out)?;
                out.metrics.take_from(&wal.metrics, |n| n.starts_with("wal."), Some("kv-wal"));
            }
            let (core, kept) = txn::trace(seed, COMPANION_SECONDS, &mut out)?;
            let core_only = |n: &str| n.starts_with("core.") || n == "stm.txn_self_p50_us";
            out.metrics.take_from(&core.metrics, core_only, Some("txn-map"));
            spans = kept;
        }
        None => {
            let (traced, kept) = txn::trace(seed, args.seconds, &mut out)?;
            own = traced;
            spans = kept;
            out.metrics.take_from(&own.metrics, |_| true, None);
            let served = kv::trace(KvKind::Wal, seed, COMPANION_SECONDS, scratch, None, &mut out)?;
            let serving = |n: &str| n != "stm.attempts_per_commit";
            out.metrics.take_from(&served.metrics, serving, Some("kv-wal"));
        }
    }
    cells::run_all(&cell_units(args.workload, seed), scratch, &mut out.metrics)?;
    let overhead = (own.reference_tput - own.traced_tput) / own.reference_tput * 100.0;
    out.metrics.set("obs.trace_overhead_pct", overhead, 2, "pass");
    Ok((out, spans))
}

/// The run's environment: machine, client and server shape, and the
/// filesystem under the run's data directories.
fn env_block(args: &Args, root: &Path) -> Vec<(String, String)> {
    let mut env = vec![
        ("workload".to_string(), args.workload.name().to_string()),
        ("seed".to_string(), args.seed.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("nproc".to_string(), measure::nproc().to_string()),
        ("run_s".to_string(), args.seconds.to_string()),
    ];
    let defaults = proust_server::ServerConfig::default();
    match args.workload.kv() {
        Some(_) => {
            env.push(("loadgen_threads".into(), kv::THREADS.to_string()));
            env.push(("connections".into(), kv::CONNECTIONS.to_string()));
            env.push(("server_shards".into(), defaults.shards.to_string()));
            let quadrant = format!("{}/{}", defaults.lap.name(), defaults.update.name());
            env.push(("quadrant".into(), quadrant));
        }
        None => {
            env.push(("txn_threads".into(), gen::TXN_THREADS.to_string()));
            let quads: Vec<&str> = txn::QUADRANTS.iter().map(|(_, label)| *label).collect();
            env.push(("quadrants".into(), quads.join(",")));
        }
    }
    // Every traced run includes a kv-wal pass, companion or its own.
    let wal = args.trace || args.workload == Workload::KvWal;
    let policy = if wal { kv::FSYNC_POLICY.name() } else { "none" };
    env.push(("fsync_policy".into(), policy.to_string()));
    env.push(("data_dir_fs".into(), measure::fs_type(root)));
    env
}

fn run(args: &Args, root: &Path) -> Result<(Outcome, Vec<txn::Span>), String> {
    let scratch = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|err| format!("create {}: {err}", scratch.display()))?;
    let result = if args.trace {
        trace(args, &scratch)
    } else {
        match args.workload.kv() {
            Some(kind) => kv::measure(kind, args.seed, args.seconds, &scratch),
            None => txn::measure(args.seed, args.seconds),
        }
        .map(|out| (out, Vec::new()))
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Write the traced run's spans as JSON lines, once the run has ended.
fn write_spans(root: &Path, workload: Workload, spans: &[txn::Span]) -> Result<PathBuf, String> {
    let path = root.join(format!("spans-{}.jsonl", workload.name()));
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|err| format!("create {}: {err}", path.display()))?,
    );
    for span in spans {
        writeln!(file, "{}", span.to_json()).map_err(|err| format!("write spans: {err}"))?;
    }
    file.flush().map_err(|err| format!("write spans: {err}"))?;
    Ok(path)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Run artefacts stay inside the directory the benchmark runs from.
    let root = PathBuf::from(".bench_run");
    let (out, spans) = match run(&args, &root) {
        Ok(done) => done,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    if !spans.is_empty() {
        match write_spans(&root, args.workload, &spans) {
            Ok(path) => println!("spans: {} ({} spans)", path.display(), spans.len()),
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    let env = env_block(&args, &root);
    let line: Vec<String> = env.iter().map(|(key, value)| format!("{key}={value}")).collect();
    println!("env {}", line.join(" "));
    let catalogue = catalogue();
    let listed: Vec<(String, String, bool)> = if args.trace {
        catalogue.per_layer.into_iter().map(|(name, unit)| (name, unit, true)).collect()
    } else {
        catalogue.end_to_end
    };
    let mut json = Vec::new();
    let mut missing = Vec::new();
    println!("{:<34} {:>16} {:<8} {:>10}  source", "metric", "value", "unit", "samples");
    for (name, unit, gated) in &listed {
        let (value, samples) = if name == "fail_ratio" {
            (out.failed as f64 / out.attempted.max(1) as f64, out.attempted)
        } else {
            match out.metrics.get(name) {
                Some(reading) => (reading.value, reading.samples),
                None => {
                    missing.push(name.clone());
                    continue;
                }
            }
        };
        let source = out.metrics.source(name).unwrap_or("checks");
        println!("{name:<34} {value:>16.4} {unit:<8} {samples:>10}  {source}");
        if *gated {
            let reading =
                JsonValue::obj([("value", JsonValue::num(value)), ("unit", JsonValue::str(unit))]);
            json.push((name.clone(), reading));
        }
    }
    if !missing.is_empty() {
        eprintln!("error: run produced no value for {}", missing.join(", "));
        return ExitCode::FAILURE;
    }
    for violation in &out.violations {
        eprintln!("correctness violation: {violation}");
    }
    let correct = out.violations.is_empty() && out.failed == 0;
    let metrics = if correct { json } else { Vec::new() };
    let result = JsonValue::obj([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::u64(out.attempted)),
        ("failed", JsonValue::u64(out.failed)),
        ("metrics", JsonValue::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> JsonValue {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field =
                    |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let bench = benchmark_json();
        let manifest = JsonValue::parse(include_str!("../metrics.json")).expect("parses");
        let gated: Vec<_> = names(&manifest, "end_to_end")
            .into_iter()
            .zip(manifest.get("end_to_end").and_then(JsonValue::as_array).expect("list"))
            .filter(|(_, m)| m.get("gated").and_then(JsonValue::as_bool) == Some(true))
            .map(|(entry, _)| entry)
            .collect();
        assert_eq!(names(&bench, "end_to_end"), gated);
        assert_eq!(names(&bench, "per_layer"), names(&manifest, "per_layer"));
        let workloads: Vec<_> = bench
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name").to_string())
            .collect();
        let listed: Vec<_> = manifest
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .filter(|w| w.get("gated").and_then(JsonValue::as_bool) == Some(true))
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name").to_string())
            .collect();
        assert_eq!(workloads, listed);
        assert!(workloads.iter().all(|name| Workload::ALL.iter().any(|w| w.name() == name)));
    }

    #[test]
    fn every_per_layer_metric_names_what_it_should_move() {
        let manifest = JsonValue::parse(include_str!("../metrics.json")).expect("parses");
        let e2e: Vec<String> = names(&manifest, "end_to_end").into_iter().map(|e| e.0).collect();
        for metric in manifest.get("per_layer").and_then(JsonValue::as_array).expect("list") {
            let name = metric.get("name").and_then(JsonValue::as_str).expect("name");
            assert!(metric.get("layer").and_then(JsonValue::as_str).is_some(), "{name}: layer");
            let moves = metric.get("moves").and_then(JsonValue::as_array).expect("moves");
            assert!(!moves.is_empty(), "{name}: moves nothing");
            for target in moves {
                let what = target.get("metric").and_then(JsonValue::as_str).expect("metric");
                let on = target.get("workload").and_then(JsonValue::as_str).expect("workload");
                assert!(e2e.iter().any(|m| m == what), "{name}: unknown metric {what}");
                assert!(
                    Workload::ALL.iter().any(|w| w.name() == on),
                    "{name}: unknown workload {on}"
                );
            }
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_run")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test scratch directory");
        dir
    }

    #[test]
    fn kv_wal_recovers_every_acknowledged_write() {
        let dir = scratch("kv-wal-check");
        let out = kv::measure(KvKind::Wal, 5, 2.0, &dir).expect("kv-wal run");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.attempted > 0 && out.failed == 0);
        assert!(out.metrics.get("wal_bytes_per_op").expect("measured").value > 0.0);
    }

    /// A slow disk injected under the WAL must show up in the trace as
    /// fsync wait, and as the largest per-layer change, while the cells
    /// for layers that did not slow stay put.
    #[test]
    fn injected_fsync_delay_is_attributed_to_fsync_wait() {
        const DELAY_US: f64 = 5_000.0;
        let dir = scratch("attribution");
        let units = cell_units(Workload::KvWal, 11);
        let run = |delay: Option<std::time::Duration>| {
            let mut out = Outcome::default();
            let traced = kv::trace(KvKind::Wal, 11, 3.0, &dir, delay, &mut out).expect("trace");
            assert!(out.violations.is_empty(), "{:?}", out.violations);
            let mut metrics = traced.metrics;
            cells::run_all(&units, &dir, &mut metrics).expect("cells");
            metrics
        };
        let base = run(None);
        let slow = run(Some(std::time::Duration::from_micros(DELAY_US as u64)));
        let _ = std::fs::remove_dir_all(&dir);
        // Time-valued layer metrics in µs; the ledger totals are sums over
        // layers, not layers, so they are left out of the ranking.
        let mut changes: Vec<(String, f64)> = catalogue()
            .per_layer
            .into_iter()
            .filter(|(name, _)| !name.starts_with("ledger."))
            .filter_map(|(name, unit)| {
                let scale = match unit.as_str() {
                    "us" => 1.0,
                    "ns" => 1e-3,
                    _ => return None,
                };
                let before = base.get(&name)?.value * scale;
                let after = slow.get(&name)?.value * scale;
                Some((name, after - before))
            })
            .collect();
        changes.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        let fsync = changes.iter().find(|(n, _)| n == "wal.fsync_wait_p50_us").expect("fsync").1;
        assert!(fsync >= DELAY_US, "fsync_wait p50 moved {fsync} us, injected {DELAY_US}");
        assert!(changes[0].0.starts_with("wal.fsync_wait"), "largest change: {changes:?}");
        for (name, change) in &changes {
            if name.starts_with("codec.") || name.starts_with("reactor.echo_rtt") {
                assert!(change.abs() < DELAY_US / 10.0, "{name} moved {change} us");
            }
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload kv-mem --seed 1 --seconds 2 --trace 0")).is_ok());
        assert!(parse_args(&args("--workload kv-disk --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&args("--workload kv-mem --seed 1 --seconds 2 --trace 2")).is_err());
        assert!(parse_args(&args("--workload kv-mem --seed 1 --seconds 2")).is_err());
        assert!(parse_args(&args("--workload kv-mem --seed x --seconds 2 --trace 0")).is_err());
    }
}
