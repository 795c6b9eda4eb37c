//! Analysis reporting: the committed finding baseline and SARIF-style
//! JSON output.
//!
//! The workspace intentionally vendors no JSON crate, so both the writer
//! and the (deliberately minimal) reader here are hand-rolled. The
//! baseline file is a flat map from [`Finding::key`](crate::passes::Finding::key)
//! to occurrence count:
//!
//! ```json
//! {
//!   "version": 1,
//!   "findings": {
//!     "A001 crates/selector/src/select.rs rank panic-reach": 1
//!   }
//! }
//! ```
//!
//! CI fails only on *regressions*: keys absent from the baseline or keys
//! whose count grew. Stale entries (fixed findings still listed) are also
//! reported so the baseline shrinks monotonically with the code.

use crate::passes::Finding;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parsed or freshly-computed finding counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Finding key → occurrence count, sorted by key.
    pub findings: BTreeMap<String, usize>,
}

/// One regression against the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// The finding key.
    pub key: String,
    /// Occurrences in the current tree.
    pub current: usize,
    /// Occurrences recorded in the baseline (0 when the key is new).
    pub baselined: usize,
}

impl Baseline {
    /// Aggregates findings into key counts. Enforced findings are
    /// excluded: they are hard failures the baseline must never absorb,
    /// so `--write-baseline` cannot launder them into acceptance.
    pub fn from_findings(findings: &[Finding]) -> Self {
        let mut map: BTreeMap<String, usize> = BTreeMap::new();
        for finding in findings.iter().filter(|f| !f.enforced) {
            *map.entry(finding.key()).or_insert(0) += 1;
        }
        Self { findings: map }
    }

    /// Serializes to the committed JSON format (stable key order,
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": {");
        let mut first = true;
        for (key, count) in &self.findings {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    {}: {count}", json_string(key));
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses baseline JSON. Accepts exactly the shape [`to_json`]
    /// produces (whitespace-insensitive); anything else is an error.
    ///
    /// [`to_json`]: Baseline::to_json
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        parser.expect(b'{')?;
        let mut findings = BTreeMap::new();
        let mut saw_version = false;
        loop {
            if parser.eat(b'}') {
                break;
            }
            let field = parser.string()?;
            parser.expect(b':')?;
            match field.as_str() {
                "version" => {
                    let version = parser.number()?;
                    if version != 1 {
                        return Err(format!("unsupported baseline version {version}"));
                    }
                    saw_version = true;
                }
                "findings" => {
                    parser.expect(b'{')?;
                    loop {
                        if parser.eat(b'}') {
                            break;
                        }
                        let key = parser.string()?;
                        parser.expect(b':')?;
                        let count = parser.number()?;
                        findings.insert(key, count);
                        parser.eat(b',');
                    }
                }
                other => return Err(format!("unknown baseline field `{other}`")),
            }
            parser.eat(b',');
        }
        if !saw_version {
            return Err("baseline missing `version` field".to_owned());
        }
        Ok(Self { findings })
    }

    /// Keys that regressed: new in `current`, or counted higher than the
    /// baseline records. Sorted by key.
    pub fn regressions(&self, current: &Baseline) -> Vec<Regression> {
        current
            .findings
            .iter()
            .filter_map(|(key, &count)| {
                let baselined = self.findings.get(key).copied().unwrap_or(0);
                (count > baselined).then(|| Regression {
                    key: key.clone(),
                    current: count,
                    baselined,
                })
            })
            .collect()
    }

    /// Baseline keys no longer present (or over-counted) — fixed findings
    /// whose entries should be pruned. Sorted by key.
    pub fn stale(&self, current: &Baseline) -> Vec<Regression> {
        self.findings
            .iter()
            .filter_map(|(key, &baselined)| {
                let count = current.findings.get(key).copied().unwrap_or(0);
                (count < baselined).then(|| Regression {
                    key: key.clone(),
                    current: count,
                    baselined,
                })
            })
            .collect()
    }
}

/// Human-readable audit trail of a `--write-baseline` refresh: one line
/// per key the rewrite prunes, shrinks, adds, or grows, so the diff a
/// reviewer sees in the regenerated file is also spelled out in the run
/// log. Empty when the refresh is a no-op.
pub fn refresh_summary(old: &Baseline, new: &Baseline) -> Vec<String> {
    let mut lines = Vec::new();
    for stale in old.stale(new) {
        if stale.current == 0 {
            lines.push(format!(
                "analyze: baseline - `{}` (fixed, was {})",
                stale.key, stale.baselined
            ));
        } else {
            lines.push(format!(
                "analyze: baseline ~ `{}` ({} -> {})",
                stale.key, stale.baselined, stale.current
            ));
        }
    }
    for grown in old.regressions(new) {
        if grown.baselined == 0 {
            lines.push(format!(
                "analyze: baseline + `{}` (new, now {})",
                grown.key, grown.current
            ));
        } else {
            lines.push(format!(
                "analyze: baseline ~ `{}` ({} -> {})",
                grown.key, grown.baselined, grown.current
            ));
        }
    }
    lines
}

/// The diagnostic rules, for the SARIF `rules` array.
const RULES: &[(&str, &str)] = &[
    (
        "A001",
        "Public fleet-facing API can transitively reach a panic",
    ),
    ("A002", "NaN-unsafe float comparison or ordering"),
    (
        "A008",
        "Allocation reachable from a hot entry, or direct in an arena-clean function",
    ),
];

/// Renders findings as a SARIF-like report. Baselined findings carry
/// `"level": "note"`; regressions carry `"level": "error"`.
pub fn to_sarif(findings: &[Finding], baseline: &Baseline) -> String {
    let current = Baseline::from_findings(findings);
    let mut out = String::from("{\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n          \"name\": \"anubis-xtask-analyze\",\n          \"rules\": [\n");
    for (i, (id, desc)) in RULES.iter().enumerate() {
        let comma = if i + 1 < RULES.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}{comma}",
            json_string(id),
            json_string(desc)
        );
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, finding) in findings.iter().enumerate() {
        let key = finding.key();
        let baselined = !finding.enforced
            && baseline.findings.get(&key).copied().unwrap_or(0)
                >= current.findings.get(&key).copied().unwrap_or(0);
        let level = if baselined { "note" } else { "error" };
        let comma = if i + 1 < findings.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "        {{\"ruleId\": {rule}, \"level\": \"{level}\", \"message\": {{\"text\": {msg}}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {uri}}}, \
             \"region\": {{\"startLine\": {line}}}}}}}], \
             \"properties\": {{\"key\": {key}, \"function\": {func}, \"kind\": {kind}, \"baselined\": {baselined}}}}}{comma}",
            rule = json_string(finding.code),
            msg = json_string(&finding.message),
            uri = json_string(&finding.path),
            line = finding.line,
            key = json_string(&key),
            func = json_string(&finding.func),
            kind = json_string(&finding.kind),
        );
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// JSON-escapes and quotes a string.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal cursor over baseline JSON bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.at))
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(other) => {
                            return Err(format!("unsupported escape `\\{}`", *other as char))
                        }
                        None => return Err("unterminated escape".to_owned()),
                    }
                    self.at += 1;
                }
                Some(&b) => {
                    out.push(b as char);
                    self.at += 1;
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<usize, String> {
        self.skip_ws();
        let start = self.at;
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_digit) {
            self.at += 1;
        }
        if start == self.at {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "number out of range".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(code: &'static str, path: &str, func: &str, kind: &str) -> Finding {
        Finding {
            code,
            path: path.to_owned(),
            line: 3,
            func: func.to_owned(),
            kind: kind.to_owned(),
            message: format!("message for {func}"),
            enforced: false,
        }
    }

    #[test]
    fn refresh_summary_reports_pruned_shrunk_added_and_grown_keys() {
        let make = |pairs: &[(&str, usize)]| Baseline {
            findings: pairs.iter().map(|(k, c)| ((*k).to_owned(), *c)).collect(),
        };
        let old = make(&[("A008 f.rs g clone", 1), ("A001 f.rs h panic-reach", 3)]);
        let new = make(&[("A001 f.rs h panic-reach", 2), ("A002 f.rs i float-eq", 1)]);
        let lines = refresh_summary(&old, &new);
        assert_eq!(
            lines,
            vec![
                "analyze: baseline ~ `A001 f.rs h panic-reach` (3 -> 2)".to_owned(),
                "analyze: baseline - `A008 f.rs g clone` (fixed, was 1)".to_owned(),
                "analyze: baseline + `A002 f.rs i float-eq` (new, now 1)".to_owned(),
            ]
        );
        assert!(refresh_summary(&new, &new).is_empty());
    }

    #[test]
    fn enforced_findings_never_enter_the_baseline() {
        let mut enforced = finding("A008", "crates/nn/src/mlp.rs", "forward_into", "clone");
        enforced.enforced = true;
        let tracked = finding("A008", "crates/nn/src/mlp.rs", "other", "clone");
        let baseline = Baseline::from_findings(&[enforced.clone(), tracked]);
        assert_eq!(baseline.findings.len(), 1);
        assert!(!baseline
            .findings
            .contains_key("A008 crates/nn/src/mlp.rs forward_into clone"));
        // SARIF reports enforced findings as errors even when an old
        // baseline happens to list their key.
        let mut old = Baseline::default();
        old.findings.insert(enforced.key(), 1);
        let sarif = to_sarif(&[enforced], &old);
        assert!(sarif.contains("\"level\": \"error\""));
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let findings = vec![
            finding("A001", "crates/a/src/lib.rs", "f", "panic-reach"),
            finding("A001", "crates/a/src/lib.rs", "f", "panic-reach"),
            finding("A008", "crates/b/src/lib.rs", "g", "clone"),
        ];
        let baseline = Baseline::from_findings(&findings);
        let parsed = Baseline::parse(&baseline.to_json()).expect("roundtrip");
        assert_eq!(parsed, baseline);
        assert_eq!(parsed.findings["A001 crates/a/src/lib.rs f panic-reach"], 2);
    }

    #[test]
    fn empty_baseline_roundtrips() {
        let baseline = Baseline::default();
        assert_eq!(Baseline::parse(&baseline.to_json()).unwrap(), baseline);
    }

    #[test]
    fn regressions_and_stale_are_detected() {
        let old = Baseline::from_findings(&[finding("A001", "a.rs", "f", "panic-reach")]);
        let new_findings = vec![
            finding("A001", "a.rs", "f", "panic-reach"),
            finding("A001", "a.rs", "f", "panic-reach"),
            finding("A002", "b.rs", "g", "float-eq"),
        ];
        let current = Baseline::from_findings(&new_findings);
        let regressions = old.regressions(&current);
        assert_eq!(regressions.len(), 2);
        assert_eq!(regressions[0].key, "A001 a.rs f panic-reach");
        assert_eq!(regressions[0].current, 2);
        assert_eq!(regressions[0].baselined, 1);
        assert_eq!(regressions[1].baselined, 0);

        let stale = current.stale(&old); // Viewing `old` as the tree.
        assert_eq!(stale.len(), 2);
    }

    #[test]
    fn parse_rejects_garbage_and_wrong_version() {
        assert!(Baseline::parse("not json").is_err());
        assert!(Baseline::parse("{\"version\": 2, \"findings\": {}}").is_err());
        assert!(Baseline::parse("{\"findings\": {}}").is_err());
    }

    #[test]
    fn sarif_marks_new_findings_as_errors() {
        let old = Baseline::from_findings(&[finding("A001", "a.rs", "f", "panic-reach")]);
        let findings = vec![
            finding("A001", "a.rs", "f", "panic-reach"),
            finding("A002", "b.rs", "g", "float-eq"),
        ];
        let sarif = to_sarif(&findings, &old);
        assert!(sarif.contains("\"ruleId\": \"A001\", \"level\": \"note\""));
        assert!(sarif.contains("\"ruleId\": \"A002\", \"level\": \"error\""));
        assert!(sarif.contains("\"startLine\": 3"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn sarif_driver_lists_rule_metadata_for_every_code() {
        let sarif = to_sarif(&[], &Baseline::default());
        assert!(sarif.contains("\"name\": \"anubis-xtask-analyze\""));
        for code in ["A001", "A002", "A008"] {
            assert!(
                sarif.contains(&format!("{{\"id\": \"{code}\", \"shortDescription\"")),
                "rule {code} missing from driver metadata"
            );
        }
        assert!(
            sarif.contains("direct in an arena-clean function"),
            "A008 description missing"
        );
    }

    #[test]
    fn sarif_escapes_paths_and_messages() {
        let mut f = finding("A002", "crates/odd\"name/src/lib.rs", "f", "float-eq");
        f.message = "compares `a\t== b`\nacross lines \\ backslash".to_owned();
        let sarif = to_sarif(&[f], &Baseline::default());
        assert!(sarif.contains("\"uri\": \"crates/odd\\\"name/src/lib.rs\""));
        assert!(sarif.contains("compares `a\\t== b`\\nacross lines \\\\ backslash"));
        // The escaped report must still be one well-formed JSON document.
        crate::json::parse(&sarif).expect("SARIF output parses as JSON");
    }

    #[test]
    fn sarif_properties_carry_the_baselined_marker_both_ways() {
        let suppressed = finding("A001", "a.rs", "f", "panic-reach");
        let fresh = finding("A002", "b.rs", "g", "float-eq");
        let old = Baseline::from_findings(std::slice::from_ref(&suppressed));
        let sarif = to_sarif(&[suppressed, fresh], &old);
        assert!(sarif.contains("\"baselined\": true"));
        assert!(sarif.contains("\"baselined\": false"));
    }
}
