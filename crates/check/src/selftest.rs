//! The analyzer's own smoke test: run every rule against
//! `fixtures/seeded/`, a miniature workspace with one seeded violation
//! per rule family, and assert that each one is detected. CI runs this
//! before trusting a clean report on the real workspace — a checker
//! that silently stopped finding anything would otherwise look like a
//! healthy codebase.

use std::path::PathBuf;

/// Path to the seeded-violation fixture workspace.
pub fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/seeded")
}

/// Every (rule, message-substring) pair the seeded fixture must trip.
const EXPECTED: &[(&str, &str)] = &[
    ("wire-tags", "collision"),
    ("wire-tags", "not under a `// channel:` marker"),
    ("wire-tags", "0x literal"),
    ("wire-tags", "outside the"),
    ("wire-tags", "negotiate-channel tag `TAG_NEG` named outside"),
    ("panic-lint", "unwrap"),
    ("panic-lint", "index"),
    ("metric-names", "rogue.metric"),
    ("metric-names", "documented.only"),
    ("metric-names", "baseline.ghost"),
    ("metric-names", "no unit suffix"),
    ("metric-names", "`bad.time_us` ends in `_us`"),
    ("metric-names", "stack.<layer>.send_frames"),
    ("metric-names", "stack.<layer>.phantom_us"),
    ("fallback", "fixture/offload-only"),
    ("journal-replay", "`Orphan`"),
    ("journal-replay", "wildcard"),
    ("span-names", "`BadOp` does not follow"),
    ("span-names", "`rogue.span` is emitted but has no row"),
    ("span-names", "`ghost.span` is documented but never emitted"),
    ("lock-order", "lock-order cycle"),
    ("lock-order", "stale waiver"),
    ("lock-order", "is observed in code but missing"),
    ("lock-order", "matches no acquisition edge"),
    ("blocking-in-async", "held across"),
    ("blocking-in-async", "<temporary>"),
    ("blocking-in-async", "thread::sleep"),
    ("blocking-in-async", "stale waiver"),
    ("hot-alloc", "to_vec() copies the payload"),
    ("hot-alloc", "`payload.clone()`"),
    ("hot-alloc", "stale waiver"),
];

/// Run the self-test. `Ok(n)` is the number of violations found in the
/// fixture; `Err` lists every expectation that failed to fire.
pub fn run() -> Result<usize, Vec<String>> {
    let report = match crate::run(&fixture_root()) {
        Ok(r) => r,
        Err(e) => return Err(vec![format!("could not scan {:?}: {e}", fixture_root())]),
    };
    let mut missed = Vec::new();
    for (rule, needle) in EXPECTED {
        let hit = report
            .violations
            .iter()
            .any(|v| v.rule == *rule && v.msg.contains(needle));
        if !hit {
            missed.push(format!(
                "seeded [{rule}] violation matching {needle:?} was not detected"
            ));
        }
    }
    if report.violations.is_empty() {
        missed.push("seeded fixture produced no violations at all".to_string());
    }
    if missed.is_empty() {
        Ok(report.violations.len())
    } else {
        Err(missed)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn seeded_fixture_trips_every_rule() {
        let n = super::run().unwrap_or_else(|missed| panic!("self-test failed: {missed:#?}"));
        assert!(n >= super::EXPECTED.len());
    }
}
