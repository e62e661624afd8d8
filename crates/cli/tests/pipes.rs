//! A reader that closes its end of a pipe early ends the output; it does
//! not crash the command.

use std::io::Write;
use std::process::{Command, Stdio};

const MODEL: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../models/onoff_table1.somrm"
);

/// Runs `somrm-tool` with `args` and `input` on its stdin, its stdout
/// (or its stderr) a pipe whose read end is closed before the command
/// starts, so that every write to it fails; returns its exit code and
/// what it wrote to the other stream.
fn closed(args: &[&str], input: &str, close_stdout: bool) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let mut command = Command::new(env!("CARGO_BIN_EXE_somrm-tool"));
    command.args(args).stdin(Stdio::piped());
    if close_stdout {
        command.stdout(writer).stderr(Stdio::piped());
    } else {
        command.stdout(Stdio::piped()).stderr(writer);
    }
    let mut child = command.spawn().expect("somrm-tool runs");
    // A command that reads no input may have exited already; its exit
    // code tells.
    let _ = child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(input.as_bytes());
    let out = child.wait_with_output().expect("somrm-tool exits");
    let other = if close_stdout { out.stderr } else { out.stdout };
    (out.status.code(), String::from_utf8_lossy(&other).into_owned())
}

#[test]
fn a_closed_stdout_ends_a_successful_command_with_exit_0() {
    // About 88 KB of output: more than a pipe buffer holds.
    let (code, stderr) = closed(&["sweep", MODEL, "--points", "2000"], "", true);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_closed_stderr_ends_a_failed_command_with_exit_1() {
    let (code, stdout) = closed(&["moments", MODEL, "--oder", "5"], "", false);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn a_closed_stderr_loses_the_grid_note_but_not_the_result() {
    let (code, stdout) = closed(&["sweep", MODEL, "--times", "0.5,0.1,0.5"], "", false);
    assert_eq!(code, Some(0), "{stdout}");
    let rows: Vec<&str> = stdout.lines().collect();
    assert_eq!(rows.len(), 3, "{stdout}");
    assert_eq!(rows[0], "t,mean,stddev");
    assert!(rows[1].starts_with("0.1,") && rows[2].starts_with("0.5,"), "{stdout}");
}

#[test]
fn a_closed_stderr_loses_the_slow_trace_notices_but_no_answer() {
    let dir = std::env::temp_dir().join(format!("somrm-pipes-{}-slow", std::process::id()));
    let slow_dir = dir.to_str().expect("temp path is UTF-8");
    let request = |id: u32| format!("{{\"id\": {id}, \"model_file\": \"{MODEL}\", \"t\": 0.5}}\n");
    let input = request(1) + &request(2);
    let args = ["serve", "--slow-trace-dir", slow_dir, "--slow-ms", "0"];
    let (code, stdout) = closed(&args, &input, false);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(0), "{stdout}");
    let answers: Vec<&str> = stdout.lines().collect();
    assert_eq!(answers.len(), 2, "{stdout}");
    for (id, answer) in [1, 2].into_iter().zip(answers) {
        assert!(answer.starts_with(&format!("{{\"id\":{id},\"ok\":true,")), "{answer}");
    }
}
