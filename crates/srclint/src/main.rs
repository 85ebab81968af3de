//! The `srclint` CLI. Exit codes: 0 clean, 1 findings, 2 usage or I/O
//! trouble.

#![deny(clippy::unwrap_used)]

use srclint::{render_json, Config};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
srclint — workspace static-analysis pass

USAGE:
    srclint [OPTIONS] [PATHS...]

With no PATHS the whole workspace is linted (crates/*, src/, tests/,
examples/; target/, shims/ and fixture corpora are skipped). Any
finding exits 1.

OPTIONS:
    --format <f>      human (default) | json
    --root <dir>      workspace root (default: walk up from cwd)
    --list-lints      print the lint catalog and exit
    -h, --help        this text
";

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("srclint: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let mut format = "human".to_string();
    let mut root: Option<PathBuf> = None;
    let mut paths = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                format = args.next().ok_or("--format needs a value")?;
                if format != "human" && format != "json" {
                    return Err(format!("unknown format `{format}` (human|json)"));
                }
            }
            "--root" => root = Some(PathBuf::from(args.next().ok_or("--root needs a value")?)),
            "--list-lints" => {
                for lint in srclint::lints::all() {
                    println!("{:24} {}", lint.name, lint.summary);
                }
                return Ok(ExitCode::SUCCESS);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`\n\n{USAGE}"));
            }
            operand => paths.push(PathBuf::from(operand)),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            srclint::walker::find_workspace_root(&cwd)
                .ok_or("no [workspace] Cargo.toml above the current directory (use --root)")?
        }
    };

    let report = srclint::run(&Config { root, paths }).map_err(|e| e.to_string())?;

    if format == "json" {
        print!("{}", render_json(&report));
    } else {
        for d in &report.diagnostics {
            println!("{}", d.render_human());
        }
        println!(
            "srclint: {} files scanned, {} error(s), {} ms",
            report.files_scanned,
            report.diagnostics.len(),
            report.elapsed_ms
        );
    }

    Ok(if report.is_failure() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
