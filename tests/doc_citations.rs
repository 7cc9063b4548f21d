//! Docs cite ROADMAP items by title, never by number: the items are
//! renumbered at every re-anchor, so a number in a comment or a doc points
//! at the wrong item once the list moves.
//!
//! Every `.rs`, `.md` and `.yml` file below the repository root is scanned,
//! apart from build output and `benchmark/`: the benchmark changes only
//! together with what it measures, and its README still names the WAL item
//! by its old number, which only such a change may correct. At the root,
//! only the reference docs are read; `ROADMAP.md`, `CHANGES.md` and the
//! description of the change in progress keep the numbers, and their
//! history, on purpose.

use std::path::{Path, PathBuf};

/// The documents at the repository root that must cite by title.
const ROOT_DOCS: [&str; 6] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "PAPER.md",
    "PAPERS.md",
    "SNIPPETS.md",
];

/// Directories never scanned: version control, build output, and the
/// frozen benchmark (see the module docs).
const SKIPPED_DIRS: [&str; 3] = [".git", "target", "benchmark"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs`, `.md` and `.yml` file below `dir`, skipping
/// [`SKIPPED_DIRS`].
fn scanned_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIPPED_DIRS.contains(&name) {
                scanned_files(&path, out);
            }
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "md" | "yml")
        ) {
            out.push(path);
        }
    }
}

/// Whether `text` has "ROADMAP", then "item", then a word starting with a
/// digit, read as words: line breaks and comment markers between them do
/// not hide a citation that a doc comment wraps.
fn cites_an_item_number(text: &str) -> bool {
    let words: Vec<&str> = text
        .split_whitespace()
        .filter(|w| !w.chars().all(|c| matches!(c, '/' | '!' | '#' | '*')))
        .collect();
    words.windows(3).any(|w| {
        w[0].trim_start_matches(['(', '"', '`']) == "ROADMAP"
            && w[1] == "item"
            && w[2].starts_with(|c: char| c.is_ascii_digit())
    })
}

#[test]
fn the_check_sees_a_citation_however_it_is_wrapped() {
    let number = "3";
    for text in [
        format!("(ROADMAP item {number})"),
        format!("/// see ROADMAP\n/// item {number}'s half"),
        format!("# ROADMAP item\n# {number}a"),
    ] {
        assert!(cites_an_item_number(&text), "{text}");
    }
    for text in [
        "ROADMAP \"The reactor's remainder\"",
        "ROADMAP item",
        "a ROADMAP items list",
    ] {
        assert!(!cites_an_item_number(text), "{text}");
    }
}

#[test]
fn no_doc_or_source_cites_a_roadmap_item_by_number() {
    let root = repo_root();
    let mut files: Vec<PathBuf> = ROOT_DOCS.iter().map(|doc| root.join(doc)).collect();
    for entry in std::fs::read_dir(&root).expect("readable root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() && !SKIPPED_DIRS.contains(&name) {
            scanned_files(&path, &mut files);
        }
    }
    for doc in ROOT_DOCS {
        assert!(root.join(doc).is_file(), "{doc} is gone: update ROOT_DOCS");
    }
    let citing: Vec<String> = files
        .iter()
        .filter(|f| {
            let text = std::fs::read_to_string(f).unwrap_or_default();
            cites_an_item_number(&text)
        })
        .map(|f| f.strip_prefix(&root).unwrap_or(f).display().to_string())
        .collect();
    assert!(
        citing.is_empty(),
        "cite ROADMAP items by title, not number: {citing:?}"
    );
}
