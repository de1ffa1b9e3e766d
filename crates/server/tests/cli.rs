//! `proust-server` rejects the tuning flags that are now constants with
//! the usage text on stderr and exit code 2.

use std::process::Command;

#[test]
fn removed_tuning_flags_exit_with_usage() {
    for [flag, value] in [
        ["--cm", "karma"],
        ["--exhaustion", "giveup"],
        ["--max-retries", "8"],
        ["--max-batch", "8"],
        ["--batch-patience", "2"],
        ["--wal-segment-bytes", "4096"],
    ] {
        // The out-of-range port makes a server that accepted the flag
        // exit 1 at bind instead of serving.
        let out = Command::new(env!("CARGO_BIN_EXE_proust-server"))
            .args([flag, value, "--addr", "127.0.0.1:99999"])
            .output()
            .expect("spawn proust-server");
        assert_eq!(out.status.code(), Some(2), "{flag}: expected exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{flag}: stderr missing usage block: {stderr}");
        assert!(stderr.contains(flag), "{flag}: stderr does not name the flag: {stderr}");
    }
}
