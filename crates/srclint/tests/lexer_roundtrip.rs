//! The lexer's structural contract: tokens partition the source.
//!
//! Every token's `[start, start+len)` slice must reproduce its text,
//! tokens must be ordered and non-overlapping, and the gaps between
//! them must be pure whitespace — so concatenating gaps and token
//! slices reassembles the file byte-for-byte. Checked exhaustively
//! over every real workspace file, then property-tested over
//! generated sources (including the nasty shapes: raw strings holding
//! `//`, nested block comments, doc-attribute strings).

use proptest::prelude::*;
use srclint::lexer::lex;
use std::path::Path;

/// Reassembles `src` from its token stream; panics (with context) on
/// any structural violation. Returns the rebuilt string.
fn reassemble(src: &str, label: &str) -> String {
    let tokens = lex(src);
    let mut out = String::with_capacity(src.len());
    let mut pos = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        assert!(
            t.start >= pos,
            "{label}: token {i} starts at {} before previous end {pos}",
            t.start
        );
        let gap = &src[pos..t.start];
        assert!(
            gap.chars().all(char::is_whitespace),
            "{label}: non-whitespace bytes {gap:?} fell between tokens"
        );
        out.push_str(gap);
        let end = t.start + t.len;
        assert!(end <= src.len(), "{label}: token {i} overruns the source");
        out.push_str(&src[t.start..end]);
        assert_eq!(&src[t.start..end], t.text(src), "{label}: text() disagrees");
        pos = end;
    }
    let tail = &src[pos..];
    assert!(
        tail.chars().all(char::is_whitespace),
        "{label}: non-whitespace tail {tail:?} after the last token"
    );
    out.push_str(tail);
    out
}

#[test]
fn every_workspace_file_reassembles_byte_identical() {
    let root = srclint::walker::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let files = srclint::walker::workspace_files(&root).expect("walk");
    let files: Vec<_> = files
        .into_iter()
        .filter(|f| f.extension().is_some_and(|e| e == "rs"))
        .collect();
    assert!(
        files.len() > 100,
        "suspiciously small walk: {}",
        files.len()
    );
    for f in files {
        let src = std::fs::read_to_string(&f).expect("readable source");
        let rebuilt = reassemble(&src, &f.display().to_string());
        assert_eq!(rebuilt, src, "{} did not reassemble", f.display());
    }
}

#[test]
fn fixture_corpus_reassembles_too() {
    // Fixtures are excluded from the walk but full of deliberate edge
    // cases — exactly the bytes the lexer must not mangle.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for entry in std::fs::read_dir(dir).expect("fixtures dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("readable fixture");
        let rebuilt = reassemble(&src, &path.display().to_string());
        assert_eq!(rebuilt, src, "{} did not reassemble", path.display());
    }
}

/// Fragments chosen to stress delimiter tracking; random sequences of
/// these compose into sources no hand-written case list would cover.
fn arb_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z]{1,8}".prop_map(|s| format!("let {s} = 1;\n")),
        "[a-z]{0,6}".prop_map(|s| format!("// line comment {s}\n")),
        "[a-z]{0,6}".prop_map(|s| format!("/* block /* nested {s} */ still */ ")),
        "[a-z]{0,6}".prop_map(|s| format!("let u = \"str with // inside {s}\";\n")),
        "[a-z]{0,6}".prop_map(|s| format!("let r = r#\"raw // {s} /* not a comment */\"#;\n")),
        "[a-z]{0,6}".prop_map(|s| format!("#[doc = \"/* {s} */ and // markers\"]\nfn d() {{}}\n")),
        Just("let c = 'x'; let lt: &'static str = \"s\";\n".to_string()),
        Just("let b = br##\"bytes \"# close-looking\"##;\n".to_string()),
        Just("\t \n".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lex-then-reassemble is the identity on any composition of the
    /// fragment alphabet.
    #[test]
    fn generated_sources_reassemble(frags in proptest::collection::vec(arb_fragment(), 0..12)) {
        let src: String = frags.concat();
        let rebuilt = reassemble(&src, "generated");
        prop_assert_eq!(rebuilt, src);
    }
}
