//! A001 — panic-reachability.
//!
//! A public API of a fleet-facing crate must not abort a ten-thousand-node
//! validation run. This pass marks every function containing a *direct
//! panic source* — `unwrap`/`expect`, the panicking macro family, slice or
//! map indexing, and integer division with a runtime divisor — then runs a
//! reverse BFS over the call graph to find which gated public APIs can
//! transitively reach one. One finding per public root; the message
//! carries the shortest call path and the terminal panic source, so the
//! fix site is visible without re-running the analysis.
//!
//! `debug_assert!` is deliberately not a source (disabled in release), and
//! `cfg(test)` code is excluded entirely by the model.

use super::{is_gated_public_root, path_string, AnalysisConfig, Finding};
use crate::callgraph::CallGraph;
use crate::model::{CallKind, FnItem, TokenKind, Workspace};

/// Macros that unconditionally abort (or may abort) in release builds.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Keyword idents that may precede `[` without the `[` being an index.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "break", "mut", "ref", "move", "as", "dyn",
    "impl", "where", "const", "static", "box",
];

/// Integer type names whose division can panic on a zero divisor.
const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// One direct panic source inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSource {
    /// Short description (`` `.unwrap()` ``, `indexing`, …).
    pub reason: String,
    /// 1-based line of the construct.
    pub line: usize,
}

/// Scans a function's owned tokens and calls for direct panic sources,
/// in source order.
pub fn direct_panic_sources(ws: &Workspace, item: &FnItem) -> Vec<PanicSource> {
    let mut sources = Vec::new();
    for call in &item.calls {
        match call.kind {
            CallKind::Method if call.name == "unwrap" || call.name == "expect" => {
                sources.push(PanicSource {
                    reason: format!("`.{}()`", call.name),
                    line: call.line,
                });
            }
            CallKind::Macro if PANIC_MACROS.contains(&call.name.as_str()) => {
                sources.push(PanicSource {
                    reason: format!("`{}!`", call.name),
                    line: call.line,
                });
            }
            _ => {}
        }
    }
    let tokens = &ws.files[item.file].tokens;
    for (i, token) in ws.body_tokens(item) {
        match token.text.as_str() {
            "[" if i > 0 => {
                let prev = &tokens[i - 1];
                let is_index_base = match prev.kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                    TokenKind::Punct => prev.text == ")" || prev.text == "]",
                    TokenKind::Number => false,
                };
                if is_index_base {
                    sources.push(PanicSource {
                        reason: "indexing".to_owned(),
                        line: ws.line_of(item, i),
                    });
                }
            }
            "/" | "%" => {
                if let Some(reason) = runtime_int_divisor(item, tokens, i) {
                    sources.push(PanicSource {
                        reason,
                        line: ws.line_of(item, i),
                    });
                }
            }
            _ => {}
        }
    }
    sources.sort_by_key(|s| s.line);
    sources
}

/// Whether the divisor after the `/`/`%` at token `i` is a runtime integer
/// quantity that can be zero: `<ident>.len()` (not cast to float) or an
/// integer-typed parameter of the enclosing function.
fn runtime_int_divisor(item: &FnItem, tokens: &[crate::model::Token], i: usize) -> Option<String> {
    let at = |j: usize| tokens.get(j).map(|t| t.text.as_str());
    let ident = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident)?;
    // `x / ys.len()` — panics when `ys` is empty, unless the whole divisor
    // is immediately cast to a float (`/ ys.len() as f64` divides floats).
    if at(i + 2) == Some(".")
        && at(i + 3) == Some("len")
        && at(i + 4) == Some("(")
        && at(i + 5) == Some(")")
    {
        let cast_to_float =
            at(i + 6) == Some("as") && matches!(at(i + 7), Some("f64") | Some("f32"));
        if !cast_to_float {
            return Some(format!("division by `{}.len()`", ident.text));
        }
        return None;
    }
    // `x / n` where `n` is an integer-typed parameter.
    let param_is_int = item.params.iter().any(|p| {
        p.name == ident.text
            && INT_TYPES
                .iter()
                .any(|ty| p.type_text.split_whitespace().any(|w| w == *ty))
    });
    if param_is_int {
        let cast_to_float =
            at(i + 2) == Some("as") && matches!(at(i + 3), Some("f64") | Some("f32"));
        if !cast_to_float {
            return Some(format!("division by parameter `{}`", ident.text));
        }
    }
    None
}

/// Runs the pass: one finding per gated public API that can reach a panic.
pub fn run(ws: &Workspace, graph: &CallGraph, config: &AnalysisConfig) -> Vec<Finding> {
    let sources: Vec<Vec<PanicSource>> = ws
        .fns
        .iter()
        .map(|item| {
            if item.in_test {
                Vec::new()
            } else {
                direct_panic_sources(ws, item)
            }
        })
        .collect();
    let targets: Vec<usize> = sources
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(i, _)| i)
        .collect();
    let reach = graph.reach_reverse(&targets);

    let mut findings = Vec::new();
    for index in 0..ws.fns.len() {
        if !is_gated_public_root(ws, index, config) {
            continue;
        }
        let path = reach.path_from(index);
        let Some(&terminal) = path.last() else {
            continue; // Unreachable: no panic on any path.
        };
        let Some(source) = sources[terminal].first() else {
            continue;
        };
        let item = &ws.fns[index];
        let message = format!(
            "public `{}` may panic via {}; {} at {}:{}",
            item.qual_name(),
            path_string(ws, &path),
            source.reason,
            ws.files[ws.fns[terminal].file].path,
            source.line,
        );
        findings.push(Finding {
            code: "A001",
            path: ws.files[item.file].path.clone(),
            line: item.line,
            func: item.qual_name(),
            kind: "panic-reach".to_owned(),
            message,
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::model::Workspace;

    fn analyze(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::from_sources(files.iter().copied());
        let graph = CallGraph::build(&ws);
        run(&ws, &graph, &AnalysisConfig::default())
    }

    #[test]
    fn transitive_unwrap_is_reported_with_path() {
        let findings = analyze(&[(
            "crates/validator/src/lib.rs",
            "pub fn api(x: Option<u32>) -> u32 { helper(x) }\n\
                 fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].func, "api");
        assert!(findings[0].message.contains("api -> helper"));
        assert!(findings[0].message.contains("`.unwrap()`"));
    }

    #[test]
    fn non_gated_crates_have_no_roots() {
        let findings = analyze(&[(
            "crates/nn/src/lib.rs",
            "pub fn api(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )]);
        assert!(findings.is_empty());
    }

    #[test]
    fn indexing_and_int_division_are_sources() {
        let findings = analyze(&[(
            "crates/selector/src/lib.rs",
            "pub fn first(xs: &[f64]) -> f64 { xs[0] }\n\
             pub fn avg(total: u64, n: u64) -> u64 { total / n }\n\
             pub fn avg_f(total: f64, n: u64) -> f64 { total / n as f64 }\n",
        )]);
        let funcs: Vec<&str> = findings.iter().map(|f| f.func.as_str()).collect();
        assert_eq!(funcs, vec!["first", "avg"], "float-cast division is exempt");
        assert!(findings[0].message.contains("indexing"));
        assert!(findings[1].message.contains("division by parameter `n`"));
    }

    #[test]
    fn len_division_flagged_unless_cast() {
        let findings = analyze(&[(
            "crates/cluster/src/lib.rs",
            "pub fn wrap(i: usize, xs: &[u8]) -> usize { i % xs.len() }\n\
             pub fn mean(sum: f64, xs: &[f64]) -> f64 { sum / xs.len() as f64 }\n",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].func, "wrap");
        assert!(findings[0].message.contains("division by `xs.len()`"));
    }

    #[test]
    fn debug_assert_is_not_a_source() {
        let findings = analyze(&[(
            "crates/hwsim/src/lib.rs",
            "pub fn ok(x: u32) -> u32 { debug_assert!(x > 0); x }\n",
        )]);
        assert!(findings.is_empty());
    }

    #[test]
    fn assert_macro_is_a_source() {
        let findings = analyze(&[(
            "crates/hwsim/src/lib.rs",
            "pub fn checked(x: u32) -> u32 { assert!(x > 0); x }\n",
        )]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`assert!`"));
    }

    #[test]
    fn key_is_line_free() {
        let findings = analyze(&[(
            "crates/netsim/src/lib.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )]);
        assert_eq!(
            findings[0].key(),
            "A001 crates/netsim/src/lib.rs f panic-reach"
        );
    }
}
