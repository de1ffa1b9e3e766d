//! The `proust-server` binary: bind, print the bound address, serve until
//! a client sends `SHUTDOWN` (or the process is killed).

use proust_bench::args::{Args, LapChoice, UpdateChoice};
use proust_server::{Baseline, Server, ServerConfig};

const USAGE: &str = "\
usage: proust-server [--addr HOST:PORT] [--lap pessimistic|optimistic]
                     [--update eager|lazy]
                     [--baseline stm|predication|boosted|coarse]
                     [--shards N]
                     [--metrics-addr HOST:PORT] [--slow-threshold MS]
                     [--trace-sample N]
                     [--data-dir PATH] [--fsync-policy batch|always|off]
                     [--chaos-torn-tail] [--chaos-fsync-delay-ms N]";

fn config_from_args() -> ServerConfig {
    let mut config = ServerConfig::default();
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = args.value("--addr"),
            "--lap" => {
                let raw = args.value("--lap");
                config.lap = LapChoice::parse(&raw)
                    .unwrap_or_else(|| args.fail(format!("unknown --lap value {raw:?}")));
            }
            "--update" => {
                let raw = args.value("--update");
                config.update = UpdateChoice::parse(&raw)
                    .unwrap_or_else(|| args.fail(format!("unknown --update value {raw:?}")));
            }
            "--baseline" => {
                let raw = args.value("--baseline");
                config.baseline = Some(
                    Baseline::parse(&raw)
                        .unwrap_or_else(|| args.fail(format!("unknown --baseline value {raw:?}"))),
                );
            }
            "--shards" => config.shards = args.parsed("--shards"),
            "--metrics-addr" => config.metrics_addr = Some(args.value("--metrics-addr")),
            "--slow-threshold" => {
                let ms: u64 = args.parsed("--slow-threshold");
                config.slow_threshold = Some(std::time::Duration::from_millis(ms));
            }
            "--trace-sample" => config.trace_sample = args.parsed("--trace-sample"),
            "--data-dir" => {
                config.data_dir = Some(std::path::PathBuf::from(args.value("--data-dir")));
            }
            "--fsync-policy" => {
                let raw = args.value("--fsync-policy");
                config.fsync_policy = proust_wal::FsyncPolicy::parse(&raw)
                    .unwrap_or_else(|| args.fail(format!("unknown --fsync-policy value {raw:?}")));
            }
            "--chaos-torn-tail" => config.chaos_torn_tail = true,
            "--chaos-fsync-delay-ms" => {
                let ms: u64 = args.parsed("--chaos-fsync-delay-ms");
                config.chaos_fsync_delay = Some(std::time::Duration::from_millis(ms));
            }
            other => args.unknown(other),
        }
    }
    config
}

fn main() {
    let config = config_from_args();
    let durable = config.data_dir.is_some();
    let handle = match Server::start(config) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    };
    if durable {
        // Scripts parse this line to assert on recovery behaviour (e.g.
        // that a torn tail was truncated, or that replay was bounded).
        let (replayed, truncated_bytes, torn_tails) = handle.recovery_stats();
        println!("RECOVERY replayed={replayed} truncated_bytes={truncated_bytes} torn_tails={torn_tails}");
    }
    // Scripts parse this line to discover the port when binding :0.
    println!("LISTENING {}", handle.addr());
    if let Some(metrics) = handle.metrics_addr() {
        // Same contract for the Prometheus scrape endpoint.
        println!("METRICS {metrics}");
    }
    let drained = handle.wait();
    if drained {
        println!("shutdown: drained");
    } else {
        eprintln!("shutdown: quiesce timed out with transactions still in flight");
        std::process::exit(1);
    }
}
