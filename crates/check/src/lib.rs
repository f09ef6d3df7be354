//! `bertha-check`: a dependency-free source analyzer for the Bertha
//! workspace, plus a small exhaustive-interleaving model checker.
//!
//! The analyzer walks `crates/**/*.rs` and enforces nine invariant
//! families (DESIGN.md §10):
//!
//! 1. **wire-tags** — every framing tag byte is defined in
//!    `bertha::negotiate::wire`, no two tags on one channel collide, and
//!    the negotiate channel's tags are named nowhere else;
//! 2. **panic-lint** — no `unwrap()`/`expect()`/panicking macros/slice
//!    indexing in designated data-plane hot-path modules;
//! 3. **metric-names** — telemetry names emitted by code, documented in
//!    DESIGN.md §9, and recorded in `results/baselines/` agree;
//! 4. **fallback** — every capability registered at an accelerated scope
//!    has a software (Application-scope) `Negotiate` implementation;
//! 5. **journal-replay** — every journal `Record` variant has a matching
//!    replay arm in the discovery agent's recovery path, with no
//!    wildcard arm hiding a missing one;
//! 6. **span-names** — trace span ops passed to `span::record*` follow
//!    `<subsystem>.<op>` and agree with the DESIGN.md §9 span table in
//!    both directions;
//! 7. **lock-order** — the whole-workspace lock acquisition graph
//!    (guards held across nested acquisitions, one level of intra-crate
//!    call edges) is acyclic, and the surviving edges match the
//!    canonical-order table in DESIGN.md §10;
//! 8. **blocking-in-async** — no blocking lock guard is held across an
//!    `.await`, and no `thread::sleep`/blocking I/O appears in
//!    data-path `async fn` bodies;
//! 9. **hot-alloc** — no `.to_vec()` payload copies or unexplained
//!    payload-ish `.clone()`s in the same hot-path modules: the
//!    zero-copy datapath (DESIGN.md §12) moves bytes once per
//!    direction, and deliberate refcount bumps carry a waiver.
//!
//! Everything is hand-rolled on `std` only, matching the workspace's
//! no-serde_json style: a masking lexer (comments and literals blanked so
//! textual scans cannot false-positive inside them), brace matching for
//! `#[cfg(test)]` regions, and a line parser for the registry and the
//! DESIGN.md metric table.
//!
//! The [`model`] module is the loom-style piece: the real `loom` crate is
//! a heavyweight external dependency, so the same idea — exhaustively
//! exploring every sequentially-consistent interleaving of small critical
//! sections — is implemented in ~100 lines and used to model-check the
//! `SwitchableConn` epoch-swap protocol and the mirrored counters (see
//! `tests/loom_epoch.rs`, gated behind `--cfg loom`).

pub mod checks;
pub mod lexer;
pub mod model;
pub mod selftest;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One finding: a broken invariant at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule family fired (`wire-tags`, `panic-lint`, ...).
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// A loaded source file: raw text, masked text (comments and literal
/// contents blanked), and its `#[cfg(test)]` regions.
pub struct SourceFile {
    /// Path relative to the workspace root, with forward slashes.
    pub rel: String,
    /// The file as read.
    pub raw: String,
    /// [`lexer::mask`] of `raw`; same length, same line structure.
    pub masked: String,
    /// Byte ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Build from raw text.
    pub fn from_source(rel: String, raw: String) -> Self {
        let masked = lexer::mask(&raw);
        let test_regions = lexer::test_regions(&masked);
        SourceFile {
            rel,
            raw,
            masked,
            test_regions,
        }
    }

    /// Is this byte offset inside a `#[cfg(test)]` item?
    pub fn in_test(&self, pos: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| pos >= s && pos < e)
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, pos: usize) -> usize {
        let upto = self.raw.as_bytes().get(..pos).unwrap_or_default();
        1 + upto.iter().filter(|&&b| b == b'\n').count()
    }
}

/// Everything a run produced: hard failures and advisory notes.
pub struct Report {
    /// Invariant violations; a non-empty list fails the build.
    pub violations: Vec<Violation>,
    /// Advisory drift notes (printed, never fatal).
    pub notes: Vec<String>,
    /// How many source files were scanned.
    pub files_scanned: usize,
}

fn walk_dir(dir: &Path, skip: &[&str], out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if skip.contains(&name.as_str()) {
                continue;
            }
            walk_dir(&path, skip, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Load every `crates/**/*.rs` under `root`, skipping build output and
/// the checker's own seeded-violation fixtures.
pub fn load_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let crates = root.join("crates");
    if !crates.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a workspace root (no crates/)", root.display()),
        ));
    }
    let mut paths = Vec::new();
    walk_dir(&crates, &["target", "fixtures"], &mut paths)?;
    let mut files = Vec::new();
    for p in paths {
        let raw = std::fs::read_to_string(&p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::from_source(rel, raw));
    }
    Ok(files)
}

/// Run every check against the workspace at `root`.
pub fn run(root: &Path) -> io::Result<Report> {
    let files = load_sources(root)?;
    let mut violations = Vec::new();
    let mut notes = Vec::new();

    violations.extend(checks::wire_tags::check(&files));
    violations.extend(checks::panics::check(&files));
    let (mv, mn) = checks::metrics::check(&files, root);
    violations.extend(mv);
    notes.extend(mn);
    let (fv, fn_notes) = checks::fallback::check(&files);
    violations.extend(fv);
    notes.extend(fn_notes);
    violations.extend(checks::journal::check(&files));
    violations.extend(checks::spans::check(&files, root));
    violations.extend(checks::lock_order::check(&files, root));
    violations.extend(checks::blocking::check(&files));
    violations.extend(checks::hot_alloc::check(&files));

    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Report {
        violations,
        notes,
        files_scanned: files.len(),
    })
}
