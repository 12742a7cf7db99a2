//! Exit-status contract of the `rupam-sim` binary: a run either
//! completes or fails loudly with a non-zero exit.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Write `text` to a per-test file in the system temp directory.
fn script(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rupam-sim-{}-{name}", std::process::id()));
    std::fs::write(&path, text).expect("write fault script");
    path
}

fn rupam_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rupam-sim"))
        .args(args)
        .output()
        .expect("spawn rupam-sim")
}

#[test]
fn aborted_stream_exits_nonzero_and_counts_unfinished_jobs() {
    // every hydra node crashes at t = 1 s and none restarts, so no job
    // can finish
    let faults: String = (0..12)
        .map(|n| format!("[[fault]]\nat = 1\nnode = {n}\nkind = \"crash\"\n\n"))
        .collect();
    let path = script("kill-all.toml", &faults);
    let out = rupam_sim(&[
        "--jobs",
        "2",
        "--arrival-secs",
        "5",
        "--faults",
        path.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completed false"), "{stdout}");
    assert!(
        stdout.contains("over 0 of 2 jobs (2 unfinished)"),
        "summary must not count unfinished jobs: {stdout}"
    );
    assert_eq!(out.status.code(), Some(1), "an aborted run must exit 1");
}

#[test]
fn completed_stream_exits_zero() {
    let out = rupam_sim(&[
        "--jobs",
        "2",
        "--arrival-secs",
        "5",
        "--workload",
        "TeraSort",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completed true"), "{stdout}");
    assert!(stdout.contains("over 2 jobs"), "{stdout}");
    assert_eq!(out.status.code(), Some(0));
}
