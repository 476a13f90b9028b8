//! `repro` argument handling: an unknown target fails loudly, before any
//! tuning sweep runs, and names the targets it does accept.

use std::process::Command;

#[test]
fn unknown_target_exits_nonzero_with_the_target_list() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("bogus")
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "unknown target must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown target `bogus`"), "stderr: {err}");
    assert!(err.contains("raw_speed"), "lists the known targets: {err}");
    assert!(
        !err.contains("building platforms"),
        "fails before the tuning sweep: {err}"
    );
}
