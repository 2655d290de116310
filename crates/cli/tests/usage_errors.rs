//! `alex` refuses flags its commands do not declare: a misspelled or
//! retired flag is a usage error naming it, before the command does any
//! work — `serve` binds no port.

use std::process::{Command, Output};

fn alex(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_alex"))
        .args(args)
        .output()
        .expect("run alex")
}

#[test]
fn serve_with_a_retired_flag_exits_without_binding() {
    let out = alex(&[
        "serve",
        "--wal-segment-bytes",
        "4096",
        "--addr",
        "127.0.0.1:0",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --wal-segment-bytes"),
        "{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("listening"), "the server bound: {stdout}");
}

#[test]
fn unknown_and_valueless_flags_are_named() {
    for (args, expected) in [
        (
            &["stats", "--verbose", "x.nt"][..],
            "unknown flag --verbose",
        ),
        (
            &["link", "a.nt", "b.nt", "--threshold"][..],
            "--threshold needs a value",
        ),
        (&["serve", "--addr", "--wal"][..], "--addr needs a value"),
        (&["trace", "--input"][..], "--input needs a value"),
        (
            &["query", "--source", "a.nt", "--fault-rate", "0.3"][..],
            "unknown flag --fault-rate",
        ),
    ] {
        let out = alex(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
}

#[test]
fn declared_flags_still_reach_the_command() {
    // `--state-dir` is declared, so the command itself runs and reports
    // the missing directory.
    let out = alex(&["recover", "--state-dir", "/nonexistent/alex-state"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not exist"), "{stderr}");
}
