// srclint-fixture: path=crates/bench/Cargo.toml
// A second harness and its clock, named in a manifest.

[dev-dependencies]
criterion = { path = "../../shims/criterion" }
