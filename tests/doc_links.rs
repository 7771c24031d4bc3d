//! Docs stay navigable: every intra-repo markdown link in the top-level
//! documents resolves to a file that exists, and the operator's guide
//! (OPERATORS.md) is reachable from the entry-point docs. CI runs this
//! suite in the test step, so a renamed file or a typo'd link fails the
//! build instead of rotting silently.

use std::path::{Path, PathBuf};

/// The documents whose links are checked (repo-root relative).
const DOCS: &[&str] = &[
    "README.md",
    "ARCHITECTURE.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "OPERATORS.md",
    "ROADMAP.md",
    "CHANGES.md",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extract `](target)` link targets from markdown, skipping fenced code
/// blocks (experiment tables quote `foo[i](x)`-style code there).
fn link_targets(markdown: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            let tail = &rest[open + 2..];
            let Some(close) = tail.find(')') else { break };
            targets.push(tail[..close].to_string());
            rest = &tail[close + 1..];
        }
    }
    targets
}

/// True for link targets that do not name a repo file.
fn external(target: &str) -> bool {
    target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#')
}

#[test]
fn every_intra_repo_link_resolves() {
    let root = repo_root();
    let mut broken = Vec::new();
    for doc in DOCS {
        let path = root.join(doc);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("top-level doc {doc} must exist: {e}"));
        let dir = path.parent().unwrap_or(Path::new("."));
        for target in link_targets(&text) {
            if external(&target) {
                continue;
            }
            // Strip a trailing #anchor; the file part is what must exist.
            let file_part = target.split('#').next().unwrap_or("");
            if file_part.is_empty() {
                continue;
            }
            if !dir.join(file_part).exists() {
                broken.push(format!("{doc}: ]({target})"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken intra-repo links:\n  {}",
        broken.join("\n  ")
    );
}

/// The regime map is discoverable: the entry-point docs link to
/// OPERATORS.md, and the regime map's own cross-references point back at
/// the experiment definitions.
#[test]
fn operators_guide_is_cross_linked() {
    let root = repo_root();
    for doc in ["README.md", "ARCHITECTURE.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("entry-point doc");
        assert!(
            text.contains("OPERATORS.md"),
            "{doc} does not link to the operator's guide"
        );
    }
    let ops = std::fs::read_to_string(root.join("OPERATORS.md")).expect("OPERATORS.md");
    for back in ["EXPERIMENTS.md", "bench_report.txt"] {
        assert!(ops.contains(back), "OPERATORS.md does not reference {back}");
    }
}
