//! A002 — float-safety.
//!
//! Similarity scores, survival probabilities, and loss values are all
//! `f64`; comparing them with `==`, or ordering them through
//! `partial_cmp().unwrap()` / `f64::max` folds, silently misbehaves the
//! moment a NaN appears in fleet data. The workspace idiom is
//! `total_cmp` (adopted in `crates/metrics`); this pass flags the three
//! NaN-unsafe shapes that bypass it:
//!
//! - `float-eq`: `==`/`!=` where one side is a non-sentinel float literal
//!   or an identifier known to be float-typed (signature param or
//!   `let x: f64` binding). Sentinel comparisons against exactly `0.0` or
//!   `1.0` are allowed — the workspace uses them as presence flags.
//! - `partial-cmp-unwrap`: `partial_cmp(..).unwrap()` sort keys, which
//!   panic on NaN (and are A001 sources too).
//! - `nan-minmax`: `f64::min` / `f64::max` used as a *function value*
//!   (e.g. `fold(0.0, f64::max)`) — these silently absorb NaN instead of
//!   propagating it.

use super::Finding;
use crate::model::{FnItem, Token, TokenKind, Workspace};

/// Float literals exempt from `float-eq` (sentinel values the workspace
/// compares deliberately).
const SENTINELS: &[&str] = &["0.0", "1.0"];

/// Runs the pass over every non-test function.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for item in &ws.fns {
        if item.in_test {
            continue;
        }
        scan_fn(ws, item, &mut findings);
    }
    findings
}

fn scan_fn(ws: &Workspace, item: &FnItem, findings: &mut Vec<Finding>) {
    let tokens = &ws.files[item.file].tokens;
    let float_idents = float_idents(item, tokens);
    let push = |findings: &mut Vec<Finding>, kind: &str, line: usize, message: String| {
        findings.push(Finding {
            code: "A002",
            path: ws.files[item.file].path.clone(),
            line,
            func: item.qual_name(),
            kind: kind.to_owned(),
            message,
        });
    };
    for (i, token) in ws.body_tokens(item) {
        match token.text.as_str() {
            "==" | "!=" => {
                let lhs = i.checked_sub(1).and_then(|j| tokens.get(j));
                let rhs = tokens.get(i + 1);
                // A sentinel on either side exempts the whole comparison:
                // `x == 0.0` is a deliberate presence flag even when `x`
                // is float-typed.
                let sentinel = |t: Option<&Token>| {
                    t.is_some_and(|t| {
                        t.kind == TokenKind::Number && SENTINELS.contains(&t.text.as_str())
                    })
                };
                if sentinel(lhs) || sentinel(rhs) {
                    continue;
                }
                let floaty = |t: Option<&Token>| {
                    t.is_some_and(|t| match t.kind {
                        TokenKind::Number => {
                            is_float_literal(&t.text) && !SENTINELS.contains(&t.text.as_str())
                        }
                        TokenKind::Ident => float_idents.contains(&t.text),
                        TokenKind::Punct => false,
                    })
                };
                if floaty(lhs) || floaty(rhs) {
                    push(
                        findings,
                        "float-eq",
                        ws.line_of(item, i),
                        format!(
                            "float `{}` comparison in `{}`; compare with a tolerance or `total_cmp` (see crates/metrics)",
                            token.text,
                            item.qual_name()
                        ),
                    );
                }
            }
            "partial_cmp" if token.kind == TokenKind::Ident && is_partial_cmp_unwrap(tokens, i) => {
                push(
                    findings,
                    "partial-cmp-unwrap",
                    ws.line_of(item, i),
                    format!(
                        "`partial_cmp().unwrap()` in `{}` panics on NaN; sort with `total_cmp` instead",
                        item.qual_name()
                    ),
                );
            }
            "f64" | "f32"
                if tokens.get(i + 1).is_some_and(|t| t.text == "::")
                    && tokens
                        .get(i + 2)
                        .is_some_and(|t| t.text == "min" || t.text == "max")
                    && !tokens.get(i + 3).is_some_and(|t| t.text == "(") =>
            {
                push(
                    findings,
                    "nan-minmax",
                    ws.line_of(item, i),
                    format!(
                        "`{}::{}` used as a fold function in `{}` silently drops NaN; fold with `total_cmp`-based max instead",
                        token.text,
                        tokens[i + 2].text,
                        item.qual_name()
                    ),
                );
            }
            _ => {}
        }
    }
}

/// Identifiers known float-typed inside `item`: scalar `f64`/`f32`
/// parameters plus `let name: f64` bindings in the body.
fn float_idents(item: &FnItem, tokens: &[Token]) -> Vec<String> {
    let mut idents: Vec<String> = item
        .params
        .iter()
        .filter(|p| is_scalar_float_type(&p.type_text))
        .map(|p| p.name.clone())
        .collect();
    for range in &item.owned {
        let mut j = range.start;
        while j + 3 < range.end {
            if tokens[j].text == "let"
                && tokens[j + 1].kind == TokenKind::Ident
                && tokens[j + 2].text == ":"
                && matches!(tokens[j + 3].text.as_str(), "f64" | "f32")
            {
                idents.push(tokens[j + 1].text.clone());
            }
            j += 1;
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

/// Whether a parameter type is a bare (possibly referenced) float scalar.
fn is_scalar_float_type(type_text: &str) -> bool {
    let words: Vec<&str> = type_text
        .split_whitespace()
        .filter(|w| *w != "&" && *w != "mut")
        .collect();
    matches!(words.as_slice(), ["f64"] | ["f32"])
}

/// Whether the `partial_cmp` at token `i` is followed (after its argument
/// list) by `.unwrap()`.
fn is_partial_cmp_unwrap(tokens: &[Token], i: usize) -> bool {
    if !tokens.get(i + 1).is_some_and(|t| t.text == "(") {
        return false;
    }
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.get(j + 1).is_some_and(|t| t.text == ".")
        && tokens.get(j + 2).is_some_and(|t| t.text == "unwrap")
}

/// Whether a Number token is a float literal (`0.95`, `1e-6`, `2f64`) and
/// not an integer or hex literal.
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || text.contains(['e', 'E'])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workspace;

    fn analyze(src: &str) -> Vec<Finding> {
        let ws = Workspace::from_sources([("crates/metrics/src/lib.rs", src)]);
        run(&ws)
    }

    #[test]
    fn float_literal_equality_flagged_sentinels_exempt() {
        let findings = analyze(
            "pub fn check(x: f64) -> bool { x == 0.95 }\n\
             pub fn flag(x: f64) -> bool { x == 0.0 }\n",
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, "float-eq");
        assert_eq!(findings[0].func, "check");
    }

    #[test]
    fn float_param_identity_comparison_flagged() {
        let findings = analyze("pub fn same(a: f64, b: f64) -> bool { a != b }\n");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, "float-eq");
    }

    #[test]
    fn integer_comparison_not_flagged() {
        let findings = analyze("pub fn same(a: u32, b: u32) -> bool { a == b && b == 7 }\n");
        assert!(findings.is_empty());
    }

    #[test]
    fn let_annotated_float_flagged() {
        let findings =
            analyze("pub fn f(v: &[f64]) -> bool { let s: f64 = v.iter().sum(); s == s }\n");
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn partial_cmp_unwrap_flagged() {
        let findings = analyze(
            "pub fn sort(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, "partial-cmp-unwrap");
    }

    #[test]
    fn partial_cmp_without_unwrap_not_flagged() {
        let findings = analyze(
            "pub fn sort(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).expect(\"no nan\")); }\n",
        );
        assert!(findings.iter().all(|f| f.kind != "partial-cmp-unwrap"));
    }

    #[test]
    fn fold_minmax_fn_value_flagged_direct_call_not() {
        let findings = analyze(
            "pub fn peak(v: &[f64]) -> f64 { v.iter().copied().fold(0.0, f64::max) }\n\
             pub fn two(a: f64, b: f64) -> f64 { f64::max(a, b) }\n",
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, "nan-minmax");
        assert_eq!(findings[0].func, "peak");
    }
}
