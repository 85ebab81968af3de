//! `reproduce` is the only command that regenerates a table, so a
//! mistyped experiment name must fail loudly instead of printing the
//! header and exiting 0.

use std::process::Command;

#[test]
fn unknown_experiment_exits_2_and_lists_the_valid_names() {
    // A valid name beside the unknown one must not run either: the
    // arguments are checked before anything is measured.
    for args in [&["nosuch"][..], &["space", "nosuch"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("reproduce runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?} printed a table");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown experiment `nosuch`"), "{err}");
        for name in ["all", "fig7", "costmodel", "sharding", "recovery"] {
            assert!(err.contains(name), "`{name}` missing from: {err}");
        }
    }
}
