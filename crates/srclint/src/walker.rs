//! Workspace discovery: find the root (the `Cargo.toml` that declares
//! `[workspace]`) and enumerate the files lints and guard rows read.
//!
//! Excluded by design: `target/` (build output), `shims/` (offline
//! stand-ins for third-party crates — not our code to lint), and any
//! `fixtures/` directory (srclint's own test corpus is deliberately
//! full of violations).

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Should this directory be descended into?
fn dir_included(name: &str) -> bool {
    !matches!(name, "target" | "shims" | "fixtures" | ".git" | ".github")
}

/// Collects every file under `root`'s lintable trees, and the root
/// manifest and lockfile, sorted for deterministic reports. Lints read
/// the `.rs` files; guard rows read them all.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    out.retain(|p| p.is_file());
    for top in ["crates", "src", "tests", "examples", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

/// Expands explicit CLI operands: files are taken as-is, directories
/// are walked with the same exclusions (except that naming an
/// excluded directory directly overrides the exclusion — how the
/// fixture corpus gets linted on purpose).
pub fn expand_paths(paths: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for p in paths {
        if p.is_dir() {
            collect(p, &mut out)?;
        } else {
            out.push(p.clone());
        }
    }
    out.sort();
    Ok(out)
}

/// The files `git diff --name-only <ref>` reports as changed,
/// resolved against `root`. Returns `None` — meaning "lint
/// everything" — when git is missing, `root` is not a repository, or
/// the ref does not resolve: a degraded environment should widen the
/// run, never silently pass it.
pub fn git_changed_files(root: &Path, git_ref: &str) -> Option<BTreeSet<PathBuf>> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["diff", "--name-only", git_ref])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let listing = String::from_utf8(out.stdout).ok()?;
    Some(
        listing
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(|l| root.join(l))
            .collect(),
    )
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if dir_included(&name) {
                collect(&path, out)?;
            }
        } else {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_own_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates/srclint").is_dir());
    }

    #[test]
    fn workspace_walk_skips_fixtures_and_shims() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = workspace_files(&root).expect("walk");
        assert!(!files.is_empty());
        for f in &files {
            let s = f.display().to_string();
            assert!(!s.contains("/fixtures/"), "fixture leaked into walk: {s}");
            assert!(!s.contains("/shims/"), "shim leaked into walk: {s}");
            assert!(!s.contains("/target/"), "target leaked into walk: {s}");
        }
    }

    #[test]
    fn explicit_fixture_dir_overrides_exclusion() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let fixtures = here.join("tests/fixtures");
        let files = expand_paths(&[fixtures]).expect("walk");
        assert!(
            files
                .iter()
                .all(|f| f.extension().is_some_and(|e| e == "rs")),
            "{files:?}"
        );
    }
}
