//! Per-function allocation sites with provenance and an escape class.
//!
//! Every non-test function gets its **direct sites**: each allocation its
//! own tokens perform, with the line, the enclosing-statement span and an
//! escape class (see [`Escape`]). Nothing is propagated here: the A008
//! pass walks the call graph forward from its registered entries and
//! reads the sites of every function it reaches.
//!
//! **Noise suppression** happens at *extraction*: a crate sanctioned as
//! the arena implementation records no direct site.

use crate::model::{CallKind, FnItem, Token, TokenKind, Workspace};
use crate::passes::AnalysisConfig;
use std::ops::Range;

/// A direct allocation site inside one function, carrying provenance: the token position, the enclosing-statement span,
/// and the site's escape class.
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// 1-based line of the allocating construct.
    pub line: usize,
    /// Finding kind (`to_vec`, `vec!`, `Vec::new`, `Vec::turbofish`).
    pub kind: String,
    /// Token index of the allocating identifier in the file's stream.
    pub at: usize,
    /// Approximate span: first and last 1-based line of the enclosing
    /// statement.
    pub span: (usize, usize),
    /// Where the allocated value ends up.
    pub escape: Escape,
}

/// The escape lattice for an allocation site — where the allocated value
/// can end up, decided by a conservative token-level analysis.
///
/// Only [`Escape::Local`] is a *proof*: every use of the value is a
/// borrow, a non-consuming method call, an index, or a reassignment, so
/// the value dies inside the function and the site is a per-call
/// temporary (arena-able). Every context the classifier cannot positively
/// discharge falls into one of the escaping classes — the analysis
/// under-approximates non-escaping, never the reverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Escape {
    /// Scope-local temporary: provably dies before the function returns.
    Local,
    /// The value is returned (or is a block tail expression, which the
    /// classifier cannot distinguish from one and treats the same).
    Returned,
    /// Moved into a place (field, static, container) or into a call.
    Stored,
    /// Captured by a closure declared after the binding — the closure may
    /// outlive the statement, so the value escapes with it.
    Captured,
    /// Context the classifier does not model; conservatively escaping.
    Unknown,
}

impl Escape {
    /// Whether the value may outlive the enclosing call.
    pub fn escapes(self) -> bool {
        !matches!(self, Escape::Local)
    }

    /// Stable slug for messages and reports.
    pub fn slug(self) -> &'static str {
        match self {
            Escape::Local => "local",
            Escape::Returned => "returned",
            Escape::Stored => "stored",
            Escape::Captured => "captured",
            Escape::Unknown => "unknown",
        }
    }
}

/// The direct allocation sites of every function, indexed like
/// [`Workspace::fns`]; test functions record none.
pub fn alloc_sites(ws: &Workspace, config: &AnalysisConfig) -> Vec<Vec<AllocSite>> {
    ws.fns
        .iter()
        .map(|item| {
            if item.in_test {
                Vec::new()
            } else {
                direct_alloc_sites(ws, item, config)
            }
        })
        .collect()
}

/// Method names that allocate.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "collect", "clone"];

/// Macro names that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// `Type::fn` pairs that allocate.
const ALLOC_QUALIFIED: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "with_capacity"),
];

/// Scans one function for direct allocation sites. Call-form sites come
/// first, then the turbofish token-scan sites. Each site carries
/// its token index and escape class; crates sanctioned as arena
/// implementations ([`AnalysisConfig::arena_crates`]) record no sites —
/// pooled allocation inside the arena is the sanctioned mechanism, not a
/// hot-path cost.
fn direct_alloc_sites(ws: &Workspace, item: &FnItem, config: &AnalysisConfig) -> Vec<AllocSite> {
    let crate_name = &ws.files[item.file].crate_name;
    if config.arena_crates.iter().any(|c| c == crate_name) {
        return Vec::new();
    }
    let mut sites = Vec::new();
    for call in &item.calls {
        let kind = match call.kind {
            CallKind::Method if ALLOC_METHODS.contains(&call.name.as_str()) => {
                Some(call.name.clone())
            }
            CallKind::Macro if ALLOC_MACROS.contains(&call.name.as_str()) => {
                Some(format!("{}!", call.name))
            }
            CallKind::Qualified => call.qualifier.as_ref().and_then(|q| {
                ALLOC_QUALIFIED
                    .iter()
                    .find(|(ty, f)| q == ty && call.name == *f)
                    .map(|(ty, f)| format!("{ty}::{f}"))
            }),
            _ => None,
        };
        if let Some(kind) = kind {
            sites.push(AllocSite {
                line: call.line,
                kind,
                at: call.at,
                span: (0, 0),
                escape: Escape::Unknown,
            });
        }
    }
    // Turbofish forms the call extractor misses: `.collect::<Vec<_>>()`
    // (`::` follows the name, not `(`), and `Vec::<T>::new()` (the
    // qualifier segment is `<T>`, not the type).
    let tokens = &ws.files[item.file].tokens;
    for (i, token) in ws.body_tokens(item) {
        if token.kind != TokenKind::Ident {
            continue;
        }
        if ALLOC_METHODS.contains(&token.text.as_str())
            && i > 0
            && tokens[i - 1].text == "."
            && tokens.get(i + 1).is_some_and(|t| t.text == "::")
        {
            sites.push(AllocSite {
                line: ws.line_of(item, i),
                kind: token.text.clone(),
                at: i,
                span: (0, 0),
                escape: Escape::Unknown,
            });
            continue;
        }
        if (token.text == "Vec" || token.text == "Box" || token.text == "String")
            && tokens.get(i + 1).is_some_and(|t| t.text == "::")
            && tokens.get(i + 2).is_some_and(|t| t.text == "<")
        {
            sites.push(AllocSite {
                line: ws.line_of(item, i),
                kind: format!("{}::turbofish", token.text),
                at: i,
                span: (0, 0),
                escape: Escape::Unknown,
            });
        }
    }
    // Escape-classify every site against the full body (closure tokens
    // included — they stay with the parent in the token model).
    if !item.body.is_empty() {
        for site in &mut sites {
            let (escape, stmt) = classify_escape(tokens, &item.body, site.at);
            site.escape = escape;
            let first = stmt.start.min(tokens.len().saturating_sub(1));
            let last = stmt.end.saturating_sub(1).min(tokens.len() - 1).max(first);
            site.span = (
                ws.files[item.file].masked.line_of(tokens[first].offset),
                ws.files[item.file].masked.line_of(tokens[last].offset),
            );
        }
    }
    sites
}

/// Finds the enclosing statement of the token at `at` within a function
/// body. Returns `(start, end, tail)`: the token range `[start, end)` of
/// the statement (terminator excluded) and whether the statement is a
/// block *tail expression* (terminated by a closing brace rather than
/// `;`, so its value flows out of the block).
///
/// Both walks are bracket-matched. Backward, a boundary is any of: `;` /
/// `,` at depth zero (previous statement or match-arm separator), an
/// unmatched opener (the enclosing block or argument list starts there),
/// or a `}` at depth zero (a preceding brace-statement such as a bare
/// `if`/`for`). A complete brace block *inside* the same statement sits
/// behind parens or after `=` in practice, so the rule mis-splits only
/// exotic forms — which then fail the `let`/`return` checks and classify
/// conservatively.
fn enclosing_statement(tokens: &[Token], body: &Range<usize>, at: usize) -> (usize, usize, bool) {
    let mut start = body.start + 1;
    let mut depth = 0i32;
    let mut i = at;
    while i > body.start {
        i -= 1;
        match tokens[i].text.as_str() {
            ")" | "]" => depth += 1,
            "}" => {
                if depth == 0 {
                    start = i + 1;
                    break;
                }
                depth += 1;
            }
            "(" | "[" | "{" => {
                if depth == 0 {
                    start = i + 1;
                    break;
                }
                depth -= 1;
            }
            ";" | "," if depth == 0 => {
                start = i + 1;
                break;
            }
            _ => {}
        }
    }
    let mut depth = 0i32;
    let mut j = at;
    let limit = body.end.min(tokens.len());
    let (end, tail) = loop {
        if j >= limit {
            break (limit, true);
        }
        match tokens[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                // Only a closing *brace* ends a block tail; `)`/`]` close
                // an enclosing argument list, which the chain-walk handles.
                if depth == 0 {
                    break (j, tokens[j].text == "}");
                }
                depth -= 1;
            }
            ";" | "," if depth == 0 => break (j, false),
            _ => {}
        }
        j += 1;
    };
    (start, end, tail)
}

/// Matches the closing delimiter for the opener at `open`.
fn matching_close(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Token ranges of every closure body inside `range` (conservative: the
/// params-and-body span from the opening `|` to the end of the body).
/// Used to detect closure capture of a tracked binding.
fn closure_ranges(tokens: &[Token], range: &Range<usize>) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut i = range.start;
    while i < range.end.min(tokens.len()) {
        let t = &tokens[i];
        let starts_closure = if t.text == "||" {
            true
        } else if t.text == "|" {
            // A closure `|` follows a call opener, separator, binding `=`,
            // `move`, or statement position; a binary-or follows a value.
            i.checked_sub(1).map(|p| &tokens[p]).map_or(true, |p| {
                matches!(
                    p.text.as_str(),
                    "(" | "," | "=" | "=>" | "{" | ";" | ":" | "["
                ) || matches!(p.text.as_str(), "move" | "return")
            })
        } else {
            false
        };
        if !starts_closure {
            i += 1;
            continue;
        }
        // Skip params: `||` has none; `|a, b|` ends at the next `|`.
        let mut body_start = i + 1;
        if t.text == "|" {
            match tokens[i + 1..range.end.min(tokens.len())]
                .iter()
                .position(|t| t.text == "|")
            {
                Some(off) => body_start = i + 1 + off + 1,
                None => break,
            }
        }
        // Body: a brace block, or an expression up to a top-level `,`/`)`.
        let body_end = if tokens.get(body_start).is_some_and(|t| t.text == "{") {
            matching_close(tokens, body_start).map_or(range.end, |c| c + 1)
        } else {
            let mut depth = 0i32;
            let mut j = body_start;
            loop {
                if j >= range.end.min(tokens.len()) {
                    break j;
                }
                match tokens[j].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" if depth == 0 => break j,
                    ")" | "]" | "}" => depth -= 1,
                    "," | ";" if depth == 0 => break j,
                    _ => {}
                }
                j += 1;
            }
        };
        ranges.push(i..body_end);
        i = body_start;
    }
    ranges
}

/// Assignment operators (a use as their left operand overwrites the
/// binding — a local use, not an escape).
const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>=",
];

/// Callees that move a value *out* through a `&mut` borrow, so even a
/// borrow-looking use escapes.
const STEALING_CALLS: &[&str] = &["take", "replace", "swap"];

/// Whether the use at `u` sits in the argument list of a value-stealing
/// call (`mem::take(&mut x)` and friends): walk back to the innermost
/// unmatched `(` and inspect the callee name.
fn in_stealing_call(tokens: &[Token], stmt_start: usize, u: usize) -> bool {
    let mut depth = 0i32;
    let mut i = u;
    while i > stmt_start {
        i -= 1;
        match tokens[i].text.as_str() {
            ")" | "]" => depth += 1,
            "(" if depth == 0 => {
                return i
                    .checked_sub(1)
                    .map(|p| &tokens[p])
                    .is_some_and(|p| STEALING_CALLS.contains(&p.text.as_str()));
            }
            "(" | "[" => depth -= 1,
            _ => {}
        }
    }
    false
}

/// Classifies one use of a tracked binding. `None` means the use is
/// local (borrow / non-consuming method / index / reassignment);
/// `Some(escape)` stops the scan.
fn classify_use(tokens: &[Token], stmt_start: usize, u: usize) -> Option<Escape> {
    let prev = u.checked_sub(1).map(|p| tokens[p].text.as_str());
    let prev2 = u.checked_sub(2).map(|p| tokens[p].text.as_str());
    let next = tokens.get(u + 1).map(|t| t.text.as_str());
    if prev == Some("&") || (prev == Some("mut") && prev2 == Some("&")) {
        if in_stealing_call(tokens, stmt_start, u) {
            return Some(Escape::Unknown);
        }
        return None;
    }
    if prev == Some("return") {
        return Some(Escape::Returned);
    }
    match next {
        // `name.method(..)`: auto-ref borrow unless the method consumes
        // the receiver (`into_iter` and friends).
        Some(".") => {
            let m = tokens.get(u + 2);
            let called = tokens.get(u + 3).is_some_and(|t| t.text == "(");
            match m {
                Some(m) if m.kind == TokenKind::Ident && called && !m.text.starts_with("into") => {
                    None
                }
                _ => Some(Escape::Unknown),
            }
        }
        // Indexing borrows; assignment overwrites.
        Some("[") => None,
        Some(op) if ASSIGN_OPS.contains(&op) => None,
        // Bare name before a closing brace: a block tail expression.
        Some("}") => Some(Escape::Returned),
        _ => match prev {
            // Bare name moved into a call or onto the right of an
            // assignment: the callee / place now owns it.
            Some("(" | "," | "=" | "{") => Some(Escape::Stored),
            _ => Some(Escape::Unknown),
        },
    }
}

/// Chain-walks the value of a call-form allocation in a non-`let`
/// statement: follow method chains off the result, then decide by what
/// finally consumes it.
fn classify_expression_value(
    tokens: &[Token],
    stmt: Range<usize>,
    at: usize,
    expr_start: usize,
) -> Escape {
    // An assignment earlier in the statement means the chain value lands
    // in a place: `self.buf = x.to_vec();` stores.
    let mut depth = 0i32;
    for token in &tokens[stmt.start..at] {
        match token.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "=" if depth == 0 => return Escape::Stored,
            _ => {}
        }
    }
    // First delimiter after the site opens the call's argument list
    // (turbofish generics sit between); follow the chain from its close.
    let open = (at + 1..stmt.end).find(|&i| tokens[i].text == "(" || tokens[i].text == "[");
    let Some(open) = open else {
        return Escape::Unknown;
    };
    let Some(mut close) = matching_close(tokens, open) else {
        return Escape::Unknown;
    };
    loop {
        match tokens.get(close + 1).map(|t| t.text.as_str()) {
            // Dropped at the end of the statement: a pure temporary.
            Some(";") => return Escape::Local,
            Some("?") => close += 1,
            Some(".") => {
                // Chained method: hop to its closing paren.
                let m = close + 2;
                if tokens.get(m).is_some_and(|t| t.kind == TokenKind::Ident) {
                    let next_open = (m + 1..stmt.end + 1)
                        .find(|&i| tokens.get(i).is_some_and(|t| t.text == "("));
                    match next_open.and_then(|o| matching_close(tokens, o)) {
                        Some(c) => close = c,
                        None => return Escape::Unknown,
                    }
                } else {
                    return Escape::Unknown;
                }
            }
            // Argument of an enclosing call: borrowed temporaries die at
            // statement end; moved ones belong to the callee.
            Some(")" | "," | "]") => {
                let borrowed = expr_start
                    .checked_sub(1)
                    .map(|p| &tokens[p])
                    .is_some_and(|p| p.text == "&");
                return if borrowed {
                    Escape::Local
                } else {
                    Escape::Stored
                };
            }
            Some("}") | None => return Escape::Returned,
            _ => return Escape::Unknown,
        }
    }
}

/// Start of the expression the allocation at `at` belongs to: for method
/// forms, walk left across the receiver chain (`a.b[i].to_vec()` starts
/// at `a`); for constructor/macro forms the site itself starts it (minus
/// the `Type ::` qualifier).
fn expression_start(tokens: &[Token], stmt_start: usize, at: usize) -> usize {
    let mut start = at;
    loop {
        let Some(prev) = start.checked_sub(1).filter(|&p| p >= stmt_start) else {
            return start;
        };
        match tokens[prev].text.as_str() {
            "." | "::" => {
                let Some(before) = prev.checked_sub(1).filter(|&p| p >= stmt_start) else {
                    return start;
                };
                match tokens[before].text.as_str() {
                    ")" | "]" => {
                        // Jump back over the matched group.
                        let mut depth = 0i32;
                        let mut i = before;
                        loop {
                            match tokens[i].text.as_str() {
                                ")" | "]" => depth += 1,
                                "(" | "[" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            if i == stmt_start {
                                break;
                            }
                            i -= 1;
                        }
                        start = i;
                    }
                    _ if tokens[before].kind == TokenKind::Ident
                        || tokens[before].kind == TokenKind::Number =>
                    {
                        start = before;
                    }
                    _ => return start,
                }
            }
            _ => return start,
        }
    }
}

/// The conservative escape classifier (see [`Escape`]). `body` is the
/// function's full body token range; `at` the allocating identifier.
pub(crate) fn classify_escape(
    tokens: &[Token],
    body: &Range<usize>,
    at: usize,
) -> (Escape, Range<usize>) {
    let (start, end, tail) = enclosing_statement(tokens, body, at);
    let stmt = start..end;
    if tokens.get(start).is_some_and(|t| t.text == "return") {
        return (Escape::Returned, stmt);
    }
    if tail {
        return (Escape::Returned, stmt);
    }
    if tokens.get(start).is_some_and(|t| t.text == "let") {
        // Simple binding only: `let [mut] name (: Ty)? = init;`.
        let mut j = start + 1;
        if tokens.get(j).is_some_and(|t| t.text == "mut") {
            j += 1;
        }
        let simple = tokens.get(j).is_some_and(|t| t.kind == TokenKind::Ident)
            && tokens
                .get(j + 1)
                .is_some_and(|t| t.text == ":" || t.text == "=");
        if !simple {
            return (Escape::Unknown, stmt);
        }
        let name = tokens[j].text.as_str();
        let closures = closure_ranges(tokens, body);
        for u in end + 1..body.end.min(tokens.len()) {
            let t = &tokens[u];
            if t.kind != TokenKind::Ident || t.text != name {
                continue;
            }
            let prev = u.checked_sub(1).map(|p| tokens[p].text.as_str());
            if prev == Some(".") || prev == Some("::") {
                continue; // a field/assoc item of something else
            }
            if closures
                .iter()
                .any(|c| c.contains(&u) && !c.contains(&start))
            {
                return (Escape::Captured, stmt);
            }
            if let Some(escape) = classify_use(tokens, start, u) {
                return (escape, stmt);
            }
        }
        return (Escape::Local, stmt);
    }
    let expr_start = expression_start(tokens, start, at);
    (
        classify_expression_value(tokens, stmt.clone(), at, expr_start),
        stmt,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(files: &[(&str, &str)]) -> (Workspace, Vec<Vec<AllocSite>>) {
        let ws = Workspace::from_sources(files.iter().copied());
        let sites = alloc_sites(&ws, &AnalysisConfig::default());
        (ws, sites)
    }

    fn find(ws: &Workspace, name: &str) -> usize {
        ws.fns
            .iter()
            .position(|f| f.qual_name() == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    fn escapes_of(src: &str, fn_name: &str) -> Vec<(String, Escape)> {
        let (ws, s) = extract(&[("crates/demo/src/lib.rs", src)]);
        let f = find(&ws, fn_name);
        s[f].iter().map(|a| (a.kind.clone(), a.escape)).collect()
    }

    #[test]
    fn tail_expression_allocation_is_returned() {
        let sites = escapes_of("pub fn f() -> Vec<u32> { vec![1] }\n", "f");
        assert_eq!(sites, vec![("vec!".to_owned(), Escape::Returned)]);
    }

    #[test]
    fn binding_used_as_tail_value_is_returned() {
        let sites = escapes_of("pub fn f() -> Vec<u32> { let v = vec![1]; v }\n", "f");
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].1, Escape::Returned);
        assert!(sites[0].1.escapes());
    }

    #[test]
    fn explicit_return_is_returned() {
        let sites = escapes_of(
            "pub fn f(x: &[u32]) -> Vec<u32> { let v = x.to_vec(); return v; }\n",
            "f",
        );
        assert_eq!(sites, vec![("to_vec".to_owned(), Escape::Returned)]);
    }

    #[test]
    fn assignment_into_a_field_is_stored() {
        let sites = escapes_of(
            "pub struct S { buf: Vec<u32> }\n\
             impl S { pub fn set(&mut self) { self.buf = vec![1]; } }\n",
            "S::set",
        );
        assert_eq!(sites, vec![("vec!".to_owned(), Escape::Stored)]);
    }

    #[test]
    fn moved_into_a_call_is_stored() {
        let sites = escapes_of(
            "pub fn f(out: &mut Vec<Vec<u32>>) { out.push(vec![1]); }\n",
            "f",
        );
        assert_eq!(sites, vec![("vec!".to_owned(), Escape::Stored)]);
    }

    #[test]
    fn binding_pushed_by_value_is_stored() {
        let sites = escapes_of(
            "pub fn f(out: &mut Vec<Vec<u32>>) { let v = vec![1]; out.push(v); }\n",
            "f",
        );
        assert_eq!(sites, vec![("vec!".to_owned(), Escape::Stored)]);
    }

    #[test]
    fn closure_capture_is_captured() {
        let sites = escapes_of(
            "pub fn f() -> impl Fn() -> usize { let v = vec![1]; move || v.len() }\n",
            "f",
        );
        assert_eq!(sites, vec![("vec!".to_owned(), Escape::Captured)]);
    }

    #[test]
    fn borrow_only_binding_is_local() {
        let sites = escapes_of(
            "pub fn f(x: &[u32]) -> usize { let v = x.to_vec(); v.len() }\n",
            "f",
        );
        assert_eq!(sites, vec![("to_vec".to_owned(), Escape::Local)]);
        assert!(!sites[0].1.escapes());
    }

    #[test]
    fn borrowed_temporary_argument_is_local() {
        let sites = escapes_of(
            "pub fn f(out: &mut String, x: u32) { out.push_str(&format!(\"{x}\")); }\n",
            "f",
        );
        assert_eq!(sites, vec![("format!".to_owned(), Escape::Local)]);
    }

    #[test]
    fn dropped_chain_temporary_is_local() {
        let sites = escapes_of("pub fn f(x: &[u32]) { x.to_vec(); }\n", "f");
        assert_eq!(sites, vec![("to_vec".to_owned(), Escape::Local)]);
    }

    #[test]
    fn mem_take_through_mut_borrow_escapes() {
        let sites = escapes_of(
            "pub fn f() -> Vec<u32> { let mut v = vec![1]; std::mem::take(&mut v) }\n",
            "f",
        );
        assert_eq!(sites.len(), 1);
        assert!(sites[0].1.escapes(), "{sites:?}");
    }

    #[test]
    fn reassigned_and_indexed_binding_stays_local() {
        let sites = escapes_of(
            "pub fn f(n: usize) -> u32 { let mut v = vec![0u32; n]; v[0] = 1; v = vec![2]; v[0] }\n",
            "f",
        );
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].1, Escape::Local, "{sites:?}");
    }

    #[test]
    fn collected_local_buffer_is_local_with_statement_span() {
        let (ws, s) = extract(&[(
            "crates/demo/src/lib.rs",
            "pub fn f(x: &[u32]) -> usize {\n\
                 let v: Vec<u32> = x.iter().map(|a| a + 1).collect();\n\
                 v.len()\n\
             }\n",
        )]);
        let f = find(&ws, "f");
        assert_eq!(s[f].len(), 1);
        let site = &s[f][0];
        assert_eq!(site.kind, "collect");
        assert_eq!(site.escape, Escape::Local);
        assert_eq!(site.span, (2, 2), "statement span covers the let");
    }
}
