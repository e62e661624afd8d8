//! A reader that closes its end of a pipe early ends the output; it does
//! not crash the command.

use std::process::{Command, Stdio};

const MODEL: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../models/onoff_table1.somrm"
);

/// Runs `somrm-tool` with `args`, closing the read end of its stdout
/// (or of its stderr) before reading anything; returns its exit code and
/// what it wrote to the other stream.
fn closed(args: &[&str], close_stdout: bool) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_somrm-tool"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("somrm-tool runs");
    if close_stdout {
        drop(child.stdout.take());
    } else {
        drop(child.stderr.take());
    }
    let out = child.wait_with_output().expect("somrm-tool exits");
    let other = if close_stdout { out.stderr } else { out.stdout };
    (out.status.code(), String::from_utf8_lossy(&other).into_owned())
}

#[test]
fn a_closed_stdout_ends_a_successful_command_with_exit_0() {
    // About 88 KB of output: more than a pipe buffer holds.
    let (code, stderr) = closed(&["sweep", MODEL, "--points", "2000"], true);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_closed_stderr_ends_a_failed_command_with_exit_1() {
    let (code, stdout) = closed(&["moments", MODEL, "--oder", "5"], false);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.is_empty(), "{stdout}");
}
