//! The golden-file check shared by the tests that compare a rendered
//! result with a committed `tests/<name>.expected` file.

use std::path::Path;

/// The lines of `text` missing from `other`, each prefixed with `sign`.
fn lines_missing_from(text: &str, other: &str, sign: char) -> Vec<String> {
    text.lines()
        .filter(|line| !other.lines().any(|o| o == *line))
        .map(|line| format!("  {sign} {line}"))
        .collect()
}

/// Passes when `actual` equals `expected`, the contents of
/// `tests/<name>.expected`. Otherwise writes `actual` to
/// `$CARGO_TARGET_TMPDIR/<name>.actual` and panics with a per-line diff
/// naming what differs (`what`, e.g. "work counters"); re-baselining
/// means copying that file over the expected one and saying why in
/// CHANGES.md.
pub fn assert_matches_expected(name: &str, what: &str, expected: &str, actual: &str) {
    if actual == expected {
        return;
    }
    let mut diff = lines_missing_from(expected, actual, '-');
    diff.extend(lines_missing_from(actual, expected, '+'));
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual"));
    std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    panic!(
        "{what} differ from tests/{name}.expected (- expected, + actual):\n{}\n\
         actual {what} written to {}; if the change is intended, copy that file over \
         tests/{name}.expected and say why in CHANGES.md",
        diff.join("\n"),
        path.display()
    );
}
