//! Rule family 1: the wire-tag registry.
//!
//! Every `const NAME: u8 = 0x..` framing tag must live in
//! `crates/bertha/src/negotiate/wire.rs`; elsewhere, code must `use` the
//! registry constant. Within the registry, tags are grouped into
//! channels by `// channel: <name>` markers, and two tags on one channel
//! must not collide. The registry also asserts this at compile time, but
//! re-checking from source lets the seeded-violation self-test exercise
//! the rule on fixture files that are never compiled.
//!
//! The `negotiate` channel is stricter: its tags are private to the
//! registry module, which also holds the channel's only codec
//! (`classify` / `prepend_data` / `frame_neg`), so no other file may even
//! *name* one of them. The compiler enforces that through visibility;
//! this rule is the grep-level backstop that also catches a re-declared
//! look-alike (`const TAG_DATA: u8 = 0;` slips past the `0x` pattern).

use crate::{SourceFile, Violation};

/// Rule identifier.
pub const RULE: &str = "wire-tags";

/// Workspace-relative path of the registry module.
pub const REGISTRY_PATH: &str = "crates/bertha/src/negotiate/wire.rs";

/// The channel whose tags only the registry module may name.
const SEALED_CHANNEL: &str = "negotiate";

/// One parsed registry entry.
struct Entry {
    channel: String,
    name: String,
    value: u8,
    line: usize,
}

/// Run the rule over the loaded workspace.
pub fn check(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();

    for f in files {
        if f.rel == REGISTRY_PATH {
            continue;
        }
        for pos in rogue_tag_consts(f) {
            out.push(Violation {
                file: f.rel.clone(),
                line: f.line_of(pos),
                rule: RULE,
                msg: "wire-style tag constant (`const NAME: u8 = 0x..`) defined outside the \
                      registry; add it to bertha::negotiate::wire and `use` it here"
                    .to_string(),
            });
        }
    }

    match files.iter().find(|f| f.rel == REGISTRY_PATH) {
        Some(reg) => {
            let (entries, violations) = check_registry(reg);
            out.extend(violations);
            let sealed: Vec<&str> = entries
                .iter()
                .filter(|e| e.channel == SEALED_CHANNEL)
                .map(|e| e.name.as_str())
                .collect();
            for f in files.iter().filter(|f| f.rel != REGISTRY_PATH) {
                out.extend(sealed_tag_uses(f, &sealed));
            }
        }
        None => out.push(Violation {
            file: REGISTRY_PATH.to_string(),
            line: 1,
            rule: RULE,
            msg: "wire-tag registry module is missing".to_string(),
        }),
    }
    out
}

/// Positions of `const IDENT: u8 = 0x` declarations in non-test masked
/// text.
fn rogue_tag_consts(f: &SourceFile) -> Vec<usize> {
    let hay = f.masked.as_bytes();
    let mut out = Vec::new();
    for p in super::word_matches(f, "const ") {
        let mut i = p + "const ".len();
        // identifier
        let id_start = i;
        while i < hay.len() && (hay[i].is_ascii_alphanumeric() || hay[i] == b'_') {
            i += 1;
        }
        if i == id_start {
            continue;
        }
        if matches_tag_decl(hay.get(i..).unwrap_or_default()) {
            out.push(p);
        }
    }
    out
}

/// Does `rest` (text after the const's identifier) start with
/// `: u8 = 0x`?
fn matches_tag_decl(rest: &[u8]) -> bool {
    let mut r = rest;
    for tok in [b":".as_slice(), b"u8", b"=", b"0x"] {
        while let Some((&b' ' | &b'\n', tail)) = r.split_first() {
            r = tail;
        }
        match r.strip_prefix(tok) {
            Some(tail) => r = tail,
            None => return false,
        }
    }
    true
}

/// Non-test code in `f` that names a tag of the sealed channel (at most
/// one finding per line).
fn sealed_tag_uses(f: &SourceFile, sealed: &[&str]) -> Vec<Violation> {
    let hay = f.masked.as_bytes();
    let mut lines: Vec<(usize, &str)> = Vec::new();
    for name in sealed {
        for p in super::word_matches(f, name) {
            // `TAG_DATA` must not match inside `TAG_DATA_EPOCH`.
            let ends = hay
                .get(p + name.len())
                .is_none_or(|c| !(c.is_ascii_alphanumeric() || *c == b'_'));
            if ends {
                lines.push((f.line_of(p), name));
            }
        }
    }
    lines.sort_unstable();
    lines.dedup_by_key(|(line, _)| *line);
    lines
        .into_iter()
        .map(|(line, name)| Violation {
            file: f.rel.clone(),
            line,
            rule: RULE,
            msg: format!(
                "{SEALED_CHANNEL}-channel tag `{name}` named outside the registry module; \
                 go through wire::classify / prepend_data / frame_neg"
            ),
        })
        .collect()
}

/// Parse the registry's `// channel:` groups out of the raw text and
/// re-verify per-channel uniqueness.
fn check_registry(reg: &SourceFile) -> (Vec<Entry>, Vec<Violation>) {
    let mut out = Vec::new();
    let mut channel: Option<String> = None;
    let mut entries: Vec<Entry> = Vec::new();

    for (idx, line) in reg.raw.lines().enumerate() {
        let ln = idx + 1;
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("// channel:") {
            channel = Some(rest.trim().to_string());
            continue;
        }
        // Tags are `pub const` or, on a sealed channel, plain `const`.
        if let Some(rest) = t.strip_prefix("pub ").unwrap_or(t).strip_prefix("const ") {
            let Some((name, tail)) = rest.split_once(':') else {
                continue;
            };
            if !tail.trim_start().starts_with("u8") {
                continue;
            }
            let Some(hex) = tail.split_once("0x").map(|(_, h)| h) else {
                out.push(Violation {
                    file: reg.rel.clone(),
                    line: ln,
                    rule: RULE,
                    msg: format!("tag `{}` must be written as a 0x literal", name.trim()),
                });
                continue;
            };
            let digits: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
            let Ok(value) = u8::from_str_radix(&digits, 16) else {
                out.push(Violation {
                    file: reg.rel.clone(),
                    line: ln,
                    rule: RULE,
                    msg: format!("tag `{}` has an unparseable value", name.trim()),
                });
                continue;
            };
            match &channel {
                Some(c) => entries.push(Entry {
                    channel: c.clone(),
                    name: name.trim().to_string(),
                    value,
                    line: ln,
                }),
                None => out.push(Violation {
                    file: reg.rel.clone(),
                    line: ln,
                    rule: RULE,
                    msg: format!("tag `{}` is not under a `// channel:` marker", name.trim()),
                }),
            }
        }
    }

    for (i, a) in entries.iter().enumerate() {
        for b in &entries[i + 1..] {
            if a.channel == b.channel && a.value == b.value {
                out.push(Violation {
                    file: reg.rel.clone(),
                    line: b.line,
                    rule: RULE,
                    msg: format!(
                        "tag collision on channel `{}`: `{}` and `{}` are both 0x{:02x}",
                        a.channel, a.name, b.name, a.value
                    ),
                });
            }
        }
    }
    (entries, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn sf(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(rel.to_string(), src.to_string())
    }

    #[test]
    fn flags_rogue_tag_const() {
        let f = sf(
            "crates/x/src/lib.rs",
            "const TAG: u8 = 0x07;\nconst OK: usize = 3;\nconst ALSO: u8 = 12;\n",
        );
        let v = check(std::slice::from_ref(&f));
        let here: Vec<_> = v
            .iter()
            .filter(|v| v.file == "crates/x/src/lib.rs")
            .collect();
        assert_eq!(here.len(), 1, "only the 0x-valued u8 const is a tag: {v:?}");
        assert_eq!(here[0].line, 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let f = sf(
            "crates/x/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n    const TAG: u8 = 0x07;\n}\n",
        );
        let v = check(std::slice::from_ref(&f));
        assert!(v.iter().all(|v| v.file != "crates/x/src/lib.rs"));
    }

    #[test]
    fn detects_collisions_in_registry() {
        let reg = sf(
            REGISTRY_PATH,
            "// channel: a\npub const X: u8 = 0x01;\npub const Y: u8 = 0x01;\n\
             // channel: b\npub const Z: u8 = 0x01;\n",
        );
        let v = check(std::slice::from_ref(&reg));
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("collision"));
        assert!(v[0].msg.contains('X') && v[0].msg.contains('Y'));
    }

    #[test]
    fn sealed_channel_tags_may_not_be_named_elsewhere() {
        let reg = sf(
            REGISTRY_PATH,
            "// channel: negotiate\nconst TAG_DATA: u8 = 0x00;\nconst TAG_DATA_EPOCH: u8 = 0x02;\n\
             // channel: other\npub const OPEN: u8 = 0x00;\n",
        );
        let user = sf(
            "crates/x/src/lib.rs",
            "// TAG_DATA in prose is fine\n\
             fn f(b: &[u8]) -> bool { b[0] == TAG_DATA }\n\
             fn g(b: &[u8]) -> bool { b[0] == wire::TAG_DATA_EPOCH || b[0] == OPEN }\n\
             #[cfg(test)]\nmod tests { fn t() { let _ = TAG_DATA; } }\n",
        );
        let v = check(&[reg, user]);
        let got: Vec<(usize, bool)> = v
            .iter()
            .map(|v| (v.line, v.msg.contains("`TAG_DATA_EPOCH`")))
            .collect();
        assert_eq!(got, vec![(2, false), (3, true)], "{v:?}");
    }

    #[test]
    fn registry_without_marker_is_flagged() {
        let reg = sf(REGISTRY_PATH, "pub const X: u8 = 0x01;\n");
        let v = check(std::slice::from_ref(&reg));
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("channel"));
    }
}
