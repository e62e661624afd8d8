//! The command line refuses options it does not know, before any work.

use std::process::{Command, Output, Stdio};

const MODEL: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../models/onoff_table1.somrm"
);

fn somrm_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_somrm-tool"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("somrm-tool runs")
}

#[test]
fn unknown_options_are_refused_with_the_usage_text() {
    for (args, unknown) in [
        (&["moments", MODEL, "--oder", "5"][..], "--oder"),
        (&["moments", MODEL, "--kernel", "simd"], "--kernel"),
        (&["check", MODEL, "--order", "2"], "--order"),
        (&["serve", "--kernel", "simd"], "--kernel"),
        (&["verify", "--cases", "1", "--case", "2"], "--case"),
    ] {
        let out = somrm_tool(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("unknown option {unknown}\n")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: somrm-tool"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} did work");
    }
    // Known options still run, whichever comes first.
    let out = somrm_tool(&["moments", MODEL, "--t", "0.5", "--order", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
