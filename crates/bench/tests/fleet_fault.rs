//! End-to-end fault injection against the real binaries: a 3-shard
//! `sweep-launch` fleet of `fig11` at CI scale, with one child killed
//! mid-run (and, separately, one shard's artifact pre-torn as a kill
//! mid-write would leave it), must recover via salvage + `--resume`
//! restart and still merge artifacts byte-identical to a single-process
//! run. The supervision mechanics themselves are unit-tested against
//! scripted children in `crates/fleet/tests/supervise.rs`; this test
//! pins the whole stack.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The CI-scale fig11 grid (2 rates x d in {3,5} x 2 decoders), less
/// `--trials`.
const FIG11_ARGS: [&str; 10] = [
    "--dmax",
    "5",
    "--setup",
    "baseline",
    "--rates",
    "5e-3,1e-2",
    "--decoder",
    "all",
    "--seed",
    "2020",
];

/// The CI-scale trial count.
const TRIALS: &str = "200";

/// Trials for the chaos run: the kill only fires while shard 1 is still
/// running, so its points after the first row must outlast several
/// 10 ms polls (~80 ms here, ~2 ms at [`TRIALS`]).
const CHAOS_TRIALS: &str = "20000";

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vlq-fleet-fault-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the unsharded single-process reference into `dir`.
fn run_reference(dir: &Path, trials: &str) {
    let status = Command::new(env!("CARGO_BIN_EXE_fig11"))
        .args(["--trials", trials])
        .args(FIG11_ARGS)
        .args(["--quiet", "--out", dir.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success(), "reference fig11 run failed: {status}");
}

fn assert_merged_matches(out: &Path, reference: &Path) {
    for name in ["fig11.csv", "fig11.jsonl", "fig11.meta.json"] {
        assert_eq!(
            std::fs::read(out.join(name)).unwrap(),
            std::fs::read(reference.join(name)).unwrap(),
            "{name} diverges from the single-process reference"
        );
    }
}

/// Launches a 3-shard fleet with the given extra supervisor flags and
/// returns the supervisor's stdout report line.
fn launch_fleet(out: &Path, trials: &str, extra: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_sweep-launch"))
        .args(["--bin", "fig11", "--out", out.to_str().unwrap()])
        .args(["--procs", "3", "--poll-ms", "10", "--backoff-ms", "10"])
        .args(extra)
        .arg("--")
        .args(["--trials", trials])
        .args(FIG11_ARGS)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "sweep-launch failed: {}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap()
}

#[test]
fn chaos_killed_shard_recovers_and_merges_byte_identically() {
    let base = scratch_dir("chaos");
    let (reference, out) = (base.join("ref"), base.join("fleet"));
    run_reference(&reference, CHAOS_TRIALS);
    // Kill shard 1 with SIGKILL once its JSONL reaches one complete
    // row; the supervisor must salvage the artifact and restart it
    // from the resume cache.
    let report = launch_fleet(&out, CHAOS_TRIALS, &["--quiet", "--chaos-kill", "1@1"]);
    assert!(report.contains("3 shard(s)"), "unexpected report: {report}");
    assert!(
        report.contains("1 restart(s)"),
        "expected exactly one restart after the chaos kill: {report}"
    );
    assert_merged_matches(&out, &reference);
    let sidecar = std::fs::read_to_string(out.join("fig11.fleet.json")).unwrap();
    assert!(sidecar.contains("\"schema\": \"vlq-fleet/v1\""));
    assert!(sidecar.contains("\"procs\": 3"));
}

#[test]
fn torn_shard_artifact_is_salvaged_on_restart() {
    let base = scratch_dir("torn");
    let (reference, out) = (base.join("ref"), base.join("fleet"));
    run_reference(&reference, TRIALS);
    // Pre-tear shard 1's artifact exactly as a kill mid-write would
    // leave it: one complete row (borrowed from the reference run, so
    // it parses and carries the right seed) plus a half-written line.
    // The child's strict `--resume` load rejects the torn file (exit
    // 2), the supervisor salvages it down to the valid prefix and
    // restarts, and the restarted child resumes from the salvaged row.
    let shard1 = out.join("shard1");
    std::fs::create_dir_all(&shard1).unwrap();
    let full = std::fs::read_to_string(reference.join("fig11.jsonl")).unwrap();
    let first = full.lines().next().unwrap();
    std::fs::write(
        shard1.join("fig11.jsonl"),
        format!("{first}\n{{\"index\": 99, \"torn"),
    )
    .unwrap();
    let report = launch_fleet(&out, TRIALS, &["--quiet"]);
    assert!(
        report.contains("1 restart(s)"),
        "expected exactly one restart for the torn artifact: {report}"
    );
    assert_merged_matches(&out, &reference);
}
