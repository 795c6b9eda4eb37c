//! A007 — parallel-closure race discipline.
//!
//! The `anubis-parallel` executor promises bit-identical results at any
//! thread count, but the promise only holds when worker closures are pure
//! functions of their arguments. The `Fn + Sync` bounds already reject a
//! literal `&mut` capture at compile time; this pass machine-checks the
//! rest of the contract at every call site of an executor entry point
//! ([`AnalysisConfig::parallel_entries`]):
//!
//! - **`mut-capture`** — the closure assigns to (or compound-assigns
//!   through) a place rooted at a variable it captures, rather than one
//!   of its own parameters or locals. The executor's slot-output protocol
//!   (results returned per chunk, assembled by chunk index) is the
//!   sanctioned alternative, and `map_chunks_mut` closures mutating their
//!   own `&mut` chunk *parameter* are exactly that protocol, so parameter
//!   roots are exempt.
//! - **`interior-mutability`** — the closure names `RefCell`/`Cell`/
//!   `Mutex`/`RwLock`/`Atomic*` or calls `borrow_mut`/`lock`/`fetch_*`/
//!   `compare_exchange*`: shared-state smuggling the type system cannot
//!   see through `Fn + Sync`. Completion order is timing-dependent, so
//!   any cross-worker communication is a race on determinism even when it
//!   is data-race-free.
//!
//! Calls to nondeterminism sources (`thread::current`, `Instant::now`,
//! `std::env::var`, hash-container types) need no pass: the root
//! `clippy.toml` bans them everywhere, closures included.
//!
//! The executor crate itself ([`AnalysisConfig::parallel_crates`]) is
//! exempt: its internals *implement* the slot protocol. Zero findings on
//! the clean tree is an invariant — the committed baseline never absorbs
//! a closure-discipline violation silently.

use super::{AnalysisConfig, Finding};
use crate::model::{self, FnItem, TokenKind, Workspace};
use std::collections::BTreeSet;
use std::ops::Range;

/// Method names that operate on interior-mutability cells.
const CELL_METHODS: &[&str] = &[
    "borrow_mut",
    "lock",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Type names that are interior-mutability cells.
fn is_cell_type(name: &str) -> bool {
    matches!(name, "RefCell" | "Cell" | "Mutex" | "RwLock") || name.starts_with("Atomic")
}

/// Runs the pass.
pub fn run(ws: &Workspace, config: &AnalysisConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for item in &ws.fns {
        if item.in_test {
            continue;
        }
        if config
            .parallel_crates
            .iter()
            .any(|c| *c == ws.files[item.file].crate_name)
        {
            continue;
        }
        let tokens = &ws.files[item.file].tokens;
        for range in &item.owned {
            for i in range.clone() {
                let t = &tokens[i];
                if t.kind != TokenKind::Ident
                    || !config.parallel_entries.contains(&t.text)
                    || !tokens.get(i + 1).is_some_and(|n| n.text == "(")
                    || i.checked_sub(1).is_some_and(|p| tokens[p].text == "fn")
                {
                    continue;
                }
                let Some(close) = matching_close(tokens, i + 1) else {
                    continue;
                };
                for closure in closures_in(tokens, i + 2, close) {
                    check_closure(ws, item, &t.text, &closure, &mut findings);
                }
            }
        }
    }
    findings
}

/// One closure argument: parameter-pattern identifiers plus the body
/// token range.
struct Closure {
    params: BTreeSet<String>,
    body: Range<usize>,
}

/// Index of the `)` matching the `(` at `open`.
fn matching_close(tokens: &[model::Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts the closure arguments of a call's argument list
/// (`tokens[start..close]`). `||` lexes as one token (zero-parameter
/// closure); `|a, b|` as `|`-delimited parameter patterns.
fn closures_in(tokens: &[model::Token], start: usize, close: usize) -> Vec<Closure> {
    let mut closures = Vec::new();
    let mut depth = 0i32;
    let mut j = start;
    while j < close {
        let text = tokens[j].text.as_str();
        match text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "|" | "||" if depth == 0 => {
                let mut params = BTreeSet::new();
                let mut b = j + 1;
                if text == "|" {
                    // Scan the parameter patterns to the closing `|`.
                    while b < close && tokens[b].text != "|" {
                        if tokens[b].kind == TokenKind::Ident && tokens[b].text != "mut" {
                            params.insert(tokens[b].text.clone());
                        }
                        b += 1;
                    }
                    b += 1; // past the closing `|`
                }
                let body = closure_body(tokens, b, close);
                j = body.end;
                closures.push(Closure { params, body });
                continue;
            }
            _ => {}
        }
        j += 1;
    }
    closures
}

/// The body token range of a closure whose parameters end at `b`: a
/// brace-matched block, or an expression running to the next top-level
/// `,` / the end of the argument list.
fn closure_body(tokens: &[model::Token], b: usize, close: usize) -> Range<usize> {
    if tokens.get(b).is_some_and(|t| t.text == "{") {
        let mut depth = 0i32;
        for (j, t) in tokens.iter().enumerate().take(close).skip(b) {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return b..(j + 1);
                    }
                }
                _ => {}
            }
        }
        return b..close;
    }
    let mut depth = 0i32;
    let mut j = b;
    while j < close {
        match tokens[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    b..j
}

/// Applies the two discipline checks to one closure, pushing at most one
/// finding per kind.
fn check_closure(
    ws: &Workspace,
    item: &FnItem,
    entry: &str,
    closure: &Closure,
    findings: &mut Vec<Finding>,
) {
    let file = &ws.files[item.file];
    let tokens = &file.tokens;
    let file_path = &file.path;

    // Locals bound inside the closure body: `let` patterns and `for`
    // loop variables are not captures. Every identifier in the pattern
    // (and, for `let`, the type annotation) counts — over-approximating
    // ownness only risks missing a capture, never inventing one.
    let mut locals: BTreeSet<&str> = BTreeSet::new();
    for i in closure.body.clone() {
        if tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let is_let = tokens[i].text == "let";
        if !is_let && tokens[i].text != "for" {
            continue;
        }
        let mut j = i + 1;
        while j < closure.body.end {
            let t = &tokens[j];
            // `let` patterns end at `=` or `;`; `for` patterns at `in`.
            if t.text == ";" || (is_let && t.text == "=") || (!is_let && t.text == "in") {
                break;
            }
            if t.kind == TokenKind::Ident && t.text != "mut" {
                locals.insert(&t.text);
            }
            j += 1;
        }
    }
    let is_own = |name: &str| closure.params.contains(name) || locals.contains(name);

    // mut-capture: an assignment whose place expression roots at a
    // captured variable.
    let mut reported_mut = false;
    for i in closure.body.clone() {
        let text = tokens[i].text.as_str();
        let is_assign = text == "="
            || matches!(
                text,
                "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>="
            );
        if !is_assign || reported_mut {
            continue;
        }
        let Some(base) = place_base(tokens, closure.body.start, i) else {
            continue;
        };
        let name = tokens[base].text.as_str();
        if is_own(name) || name == "self" {
            continue;
        }
        findings.push(Finding {
            code: "A007",
            path: file_path.clone(),
            line: file.masked.line_of(tokens[i].offset),
            func: item.qual_name(),
            kind: "mut-capture".to_owned(),
            message: format!(
                "closure passed to `{entry}` in `{}` assigns through captured `{name}`; \
                 return per-chunk results through the executor's slot-output protocol instead",
                item.qual_name()
            ),
            enforced: false,
        });
        reported_mut = true;
    }

    // interior-mutability: cell types or cell methods named in the body.
    for i in closure.body.clone() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let is_method = i > 0 && tokens[i - 1].text == ".";
        let hit = is_cell_type(&t.text) || (is_method && CELL_METHODS.contains(&t.text.as_str()));
        if hit {
            findings.push(Finding {
                code: "A007",
                path: file_path.clone(),
                line: file.masked.line_of(t.offset),
                func: item.qual_name(),
                kind: "interior-mutability".to_owned(),
                message: format!(
                    "closure passed to `{entry}` in `{}` uses interior mutability (`{}`); \
                     cross-worker communication makes results depend on completion order",
                    item.qual_name(),
                    t.text
                ),
                enforced: false,
            });
            break;
        }
    }
}

/// Walks left from the assignment operator at `assign` to the base
/// identifier of the place expression (`a` in `a.b[0] = x`). `None` when
/// the place is not a simple identifier chain.
fn place_base(tokens: &[model::Token], start: usize, assign: usize) -> Option<usize> {
    let mut j = assign.checked_sub(1)?;
    loop {
        let t = &tokens[j];
        if t.text == "]" {
            // Bracket-match backwards.
            let mut depth = 0i32;
            loop {
                match tokens[j].text.as_str() {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == start {
                    return None;
                }
                j -= 1;
            }
            j = j.checked_sub(1)?;
            continue;
        }
        if t.kind == TokenKind::Ident {
            if j > start && tokens[j - 1].text == "." {
                j = j.checked_sub(2)?;
                continue;
            }
            // `let x: Ty = ..` — the token left of `=` is a type
            // annotation, not a place expression.
            if j > start && tokens[j - 1].text == ":" {
                return None;
            }
            return Some(j);
        }
        return None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workspace;

    fn analyze(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::from_sources(files.iter().copied());
        run(&ws, &AnalysisConfig::default())
    }

    #[test]
    fn captured_accumulator_is_a_mut_capture() {
        let findings = analyze(&[(
            "crates/traces/src/lib.rs",
            "pub fn total(v: &[f64]) -> f64 {\n\
                 let mut total = 0.0;\n\
                 anubis_parallel::map_chunks(v, 64, 0, |_idx, chunk| {\n\
                     total += chunk.len() as f64;\n\
                 });\n\
                 total\n\
             }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].kind, "mut-capture");
        assert!(findings[0].message.contains("captured `total`"));
    }

    #[test]
    fn chunk_parameter_mutation_is_the_slot_protocol() {
        let findings = analyze(&[(
            "crates/traces/src/lib.rs",
            "pub fn bump(v: &mut [f64]) {\n\
                 anubis_parallel::map_chunks_mut(v, 64, 0, |_idx, chunk| {\n\
                     for item in chunk.iter_mut() { *item += 1.0; }\n\
                     chunk[0] = 2.0;\n\
                     let mut local = 0.0; local += 1.0;\n\
                 });\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn type_annotations_and_tuple_patterns_are_not_captures() {
        // The three shapes that occur in the real Cox-Time trainer:
        // annotated lets (`let calls: usize = ..`), `for`-loop tuple
        // patterns (`for (a, &g) in ..` then `*a += g`), and closure
        // parameter patterns (`|&(x, y)|`).
        let findings = analyze(&[(
            "crates/traces/src/lib.rs",
            "pub fn grads(v: &[f64], out: &mut [f64]) {\n\
                 anubis_parallel::map_chunks_mut(out, 64, 0, |idx, acc| {\n\
                     let calls: usize = idx + 1;\n\
                     let total: f64 = v.iter().sum();\n\
                     for (a, &g) in acc.iter_mut().zip(v) { *a += g * total / calls as f64; }\n\
                 });\n\
                 anubis_parallel::map_items(v, 0, |&(ref x)| { let y: f64 = *x; y });\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn interior_mutability_is_flagged() {
        let findings = analyze(&[(
            "crates/traces/src/lib.rs",
            "pub fn sneak(v: &[f64], cell: &std::sync::atomic::AtomicUsize) {\n\
                 anubis_parallel::map_chunks(v, 64, 0, |_idx, chunk| {\n\
                     cell.fetch_add(chunk.len(), std::sync::atomic::Ordering::Relaxed);\n\
                 });\n\
             }\n",
        )]);
        assert!(
            findings.iter().any(|f| f.kind == "interior-mutability"),
            "{findings:#?}"
        );
    }

    #[test]
    fn executor_internals_are_exempt() {
        let findings = analyze(&[(
            "crates/parallel/src/lib.rs",
            "pub fn map_chunks(v: &[f64]) {\n\
                 let mut out = 0.0;\n\
                 map_items(v, 0, |_c| { out += 1.0; });\n\
             }\n\
             pub fn map_items(v: &[f64], t: usize, f: usize) {}\n",
        )]);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn clean_slot_protocol_closure_passes() {
        let findings = analyze(&[(
            "crates/traces/src/lib.rs",
            "pub fn sums(v: &[f64]) -> Vec<f64> {\n\
                 anubis_parallel::map_chunks(v, 64, 0, |_idx, chunk| chunk.iter().sum::<f64>())\n\
             }\n",
        )]);
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
