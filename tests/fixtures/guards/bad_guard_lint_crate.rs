// guard-fixture: path=Cargo.toml
// The guard table run a second time, through a lint crate of its own.

[dev-dependencies]
srclint.workspace = true
