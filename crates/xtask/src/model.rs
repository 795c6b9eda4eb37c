//! Token-level model of the workspace's Rust source.
//!
//! The analysis passes (`A001` and `A002`, see [`crate::passes`])
//! need to answer questions a line-oriented lint cannot: *which functions call
//! which*, *what does a function's body actually do*, *is this `==`
//! comparing floats*. A full parser (`syn`) is off the table — the xtask
//! crate is std-only — so this module builds a deliberately lightweight
//! model on top of the existing masking lexer ([`crate::mask`]):
//!
//! 1. **Tokens.** The masked source (comments and literals blanked) is
//!    split into identifier / number / punctuation tokens with byte
//!    offsets, so every token maps back to a `file:line`.
//! 2. **Items.** A single forward scan recovers `fn` items — name,
//!    enclosing `impl`/`trait` type, visibility, parameter names and type
//!    text, and the token range of the body — plus the nesting needed to
//!    attribute body tokens to the *innermost* enclosing function
//!    (closures stay with their parent; nested `fn`s get their own item).
//! 3. **Calls.** Each function body yields its call sites: free calls
//!    (`helper(..)`), qualified calls (`stats::mean(..)`, `Ecdf::new(..)`),
//!    method calls (`.eval(..)`) and macro invocations (`assert!`).
//!
//! The model is an **over-approximation by construction**: it never
//! resolves types, so downstream consumers (the call graph) connect calls
//! to every plausible target. The rules are documented in
//! [`crate::callgraph`] and DESIGN.md; the guiding principle is that a
//! pass may report a spurious path but must not miss a real one through
//! model blindness.

use crate::mask::{mask, MaskedSource};
use crate::spans::{in_test_span, test_spans, TestSpan};
use crate::walk;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::Path;

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `samples`, `f64`).
    Ident,
    /// Numeric literal (`42`, `0.95`, `1e-6`).
    Number,
    /// Punctuation, possibly multi-byte (`::`, `==`, `->`, `{`).
    Punct,
}

/// One token of masked source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// The token text, verbatim.
    pub text: String,
    /// Byte offset in the (masked) source.
    pub offset: usize,
}

impl Token {
    fn is(&self, text: &str) -> bool {
        self.text == text
    }
}

/// Multi-byte punctuation, longest first so greedy matching is correct.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenizes masked source bytes. Whitespace (including everything the
/// masker blanked) separates tokens; offsets index the original file.
pub fn tokenize(masked: &[u8]) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < masked.len() {
        let b = masked[i];
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Raw identifier: `r#match` is one identifier token (text kept
        // verbatim, `r#` included, so raw names never collide with the
        // keyword lists). Raw *strings* (`r"…"`, `r#"…"#`) were blanked by
        // the masker and never reach this branch: a `"` is not an
        // identifier start.
        if b == b'r'
            && masked.get(i + 1) == Some(&b'#')
            && masked.get(i + 2).copied().is_some_and(is_ident_start)
        {
            let start = i;
            i += 2;
            while i < masked.len() && is_ident_byte(masked[i]) {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                text: String::from_utf8_lossy(&masked[start..i]).into_owned(),
                offset: start,
            });
            continue;
        }
        if is_ident_start(b) {
            let start = i;
            while i < masked.len() && is_ident_byte(masked[i]) {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                text: String::from_utf8_lossy(&masked[start..i]).into_owned(),
                offset: start,
            });
            continue;
        }
        if b.is_ascii_digit() {
            let start = i;
            while i < masked.len() && (is_ident_byte(masked[i])) {
                i += 1;
            }
            // Fractional part: a `.` followed by a digit continues the
            // number; `0..n` and tuple access `pair.0` stay punctuation.
            if i + 1 < masked.len() && masked[i] == b'.' && masked[i + 1].is_ascii_digit() {
                i += 1;
                while i < masked.len() && is_ident_byte(masked[i]) {
                    i += 1;
                }
            }
            // Exponent sign: `1e-6` / `2.5E+3`.
            if i < masked.len()
                && (masked[i] == b'-' || masked[i] == b'+')
                && masked[i - 1].eq_ignore_ascii_case(&b'e')
                && masked.get(i + 1).is_some_and(u8::is_ascii_digit)
            {
                i += 1;
                while i < masked.len() && is_ident_byte(masked[i]) {
                    i += 1;
                }
            }
            tokens.push(Token {
                kind: TokenKind::Number,
                text: String::from_utf8_lossy(&masked[start..i]).into_owned(),
                offset: start,
            });
            continue;
        }
        let mut matched = None;
        for op in MULTI_PUNCT {
            if masked[i..].starts_with(op.as_bytes()) {
                matched = Some(*op);
                break;
            }
        }
        let text = matched.map_or_else(|| (b as char).to_string(), str::to_owned);
        let len = text.len();
        tokens.push(Token {
            kind: TokenKind::Punct,
            text,
            offset: i,
        });
        i += len;
    }
    tokens
}

/// How a call site refers to its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// Unqualified call: `helper(..)`.
    Free,
    /// Path-qualified call: `stats::mean(..)`, `Ecdf::new(..)`.
    Qualified,
    /// Method call: `x.eval(..)`.
    Method,
    /// Macro invocation: `assert!(..)`.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Callee name (last path segment / method / macro name).
    pub name: String,
    /// The path segment immediately before the name for qualified calls
    /// (`stats` in `stats::mean`, `Ecdf` in `Ecdf::new`).
    pub qualifier: Option<String>,
    /// Call form.
    pub kind: CallKind,
    /// 1-based line of the call.
    pub line: usize,
    /// Token index of the callee-name token in the file's token stream,
    /// so effect analyses can inspect the surrounding expression.
    pub at: usize,
}

/// One function parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding name (first identifier of the pattern).
    pub name: String,
    /// The type text, tokens joined with spaces (`& [ f64 ]`).
    pub type_text: String,
}

/// A scanned `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index of the file in [`Workspace::files`].
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub impl_type: Option<String>,
    /// `true` for plain-`pub` items (`pub(crate)` is not public API).
    pub is_public: bool,
    /// Whether the first parameter is (a reference to) `self`.
    pub has_self: bool,
    /// Whether the item is compiled only under `cfg(test)` (or lives in a
    /// test/bench file).
    pub in_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameters (excluding `self`).
    pub params: Vec<Param>,
    /// Token range of the body, including the outer braces. Empty for
    /// bodyless trait-method declarations.
    pub body: Range<usize>,
    /// `body` minus the body ranges of any nested `fn` items, so each
    /// token belongs to exactly one function.
    pub owned: Vec<Range<usize>>,
    /// Call sites in the owned body tokens.
    pub calls: Vec<Call>,
}

impl FnItem {
    /// `Type::name` when the function sits in an impl/trait block, else
    /// the bare name.
    pub fn qual_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One scanned source file.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The crate directory name (`validator` for `crates/validator/...`,
    /// `suite` for the root `src/`).
    pub crate_name: String,
    /// Masked source (offsets map to the original file).
    pub masked: MaskedSource,
    /// Token stream of the masked source.
    pub tokens: Vec<Token>,
    /// `#[cfg(test)]` line spans.
    pub spans: Vec<TestSpan>,
    /// File stem (`stats` for `.../stats.rs`), used as a module-name hint
    /// when resolving qualified calls.
    pub stem: String,
}

/// Whether a workspace-relative path (forward slashes) is entirely test
/// code: anything under a `tests/` or `benches/` directory.
fn is_test_code(rel_path: &str) -> bool {
    rel_path.split('/').any(|c| c == "tests" || c == "benches")
}

/// The scanned workspace: every non-test source file plus every function.
pub struct Workspace {
    /// Scanned files.
    pub files: Vec<SourceFile>,
    /// All functions across all files, in (file, position) order.
    pub fns: Vec<FnItem>,
}

impl Workspace {
    /// Scans every workspace `.rs` file under `root`, skipping files that
    /// are entirely test code.
    pub fn scan(root: &Path) -> io::Result<Self> {
        let mut sources = Vec::new();
        for relative in walk::rust_files(root)? {
            if is_test_code(&relative) {
                continue;
            }
            let text = fs::read_to_string(root.join(&relative))?;
            sources.push((relative, text));
        }
        Ok(Self::from_sources(
            sources.iter().map(|(p, s)| (p.as_str(), s.as_str())),
        ))
    }

    /// Builds a workspace model from in-memory `(path, source)` pairs —
    /// the constructor tests and fixtures use.
    pub fn from_sources<'a>(sources: impl IntoIterator<Item = (&'a str, &'a str)>) -> Self {
        let mut files = Vec::new();
        let mut fns = Vec::new();
        for (path, text) in sources {
            let masked = mask(text);
            let tokens = tokenize(&masked.masked);
            let spans = test_spans(&masked);
            let crate_name = crate_of(path);
            let stem = path
                .rsplit('/')
                .next()
                .unwrap_or(path)
                .trim_end_matches(".rs")
                .to_owned();
            let file_index = files.len();
            let mut file_fns = scan_fns(file_index, &tokens, &masked, &spans);
            compute_owned_ranges(&mut file_fns);
            for item in &mut file_fns {
                item.calls = extract_calls(&tokens, &masked, &item.owned);
            }
            fns.extend(file_fns);
            files.push(SourceFile {
                path: path.to_owned(),
                crate_name,
                masked,
                tokens,
                spans,
                stem,
            });
        }
        Self { files, fns }
    }

    /// Iterates the owned body tokens of one function as
    /// `(token_index, &Token)` pairs.
    pub fn body_tokens<'a>(
        &'a self,
        item: &'a FnItem,
    ) -> impl Iterator<Item = (usize, &'a Token)> + 'a {
        let tokens = &self.files[item.file].tokens;
        item.owned
            .iter()
            .flat_map(move |range| range.clone().map(move |i| (i, &tokens[i])))
    }

    /// 1-based line of a token in a function's file.
    pub fn line_of(&self, item: &FnItem, token_index: usize) -> usize {
        let file = &self.files[item.file];
        file.masked.line_of(file.tokens[token_index].offset)
    }
}

/// The crate directory name for a workspace-relative path.
fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_owned(),
        _ => "suite".to_owned(),
    }
}

/// Identifiers that look like calls but are control flow or bindings.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "in", "as", "where", "impl", "dyn", "pub", "use", "mod", "const",
    "static", "type", "struct", "enum", "trait", "unsafe", "extern", "crate", "super", "await",
    "async", "box", "Self", "self",
];

/// Tokens that may directly precede an *item* `fn` keyword (as opposed to
/// a `fn(..)` pointer type, which follows `:`/`<`/`(` and friends).
fn fn_is_item(tokens: &[Token], at: usize) -> bool {
    let Some(prev) = at.checked_sub(1).map(|i| &tokens[i]) else {
        return true;
    };
    match prev.kind {
        TokenKind::Punct => matches!(prev.text.as_str(), "{" | "}" | ";" | "]" | ")"),
        TokenKind::Ident => matches!(
            prev.text.as_str(),
            "pub" | "unsafe" | "const" | "async" | "extern" | "default"
        ),
        TokenKind::Number => false,
    }
}

/// Whether the tokens before index `at` (a `fn` keyword) include a plain
/// `pub` (not `pub(crate)`/`pub(super)`).
fn fn_is_public(tokens: &[Token], at: usize) -> bool {
    let mut i = at;
    while i > 0 {
        let prev = &tokens[i - 1];
        match prev.text.as_str() {
            "unsafe" | "const" | "async" | "extern" | "default" => i -= 1,
            ")" => {
                // Possibly the close of `pub(crate)`: the preceding tokens
                // are `pub ( crate` — a restricted visibility, not public.
                return false;
            }
            "pub" => return true,
            _ => return false,
        }
    }
    false
}

/// An `impl Type { .. }` / `trait Name { .. }` scope the item scanner
/// tracks while walking brace nesting; functions inside are methods of
/// `type_name`.
struct Scope {
    type_name: String,
    /// Brace depth *after* this scope's `{` was consumed; the scope pops
    /// when depth returns below it.
    depth: usize,
}

/// Scans a token stream for `fn` items. Bodies are token ranges; nested
/// functions produce nested entries.
fn scan_fns(
    file: usize,
    tokens: &[Token],
    masked: &MaskedSource,
    spans: &[TestSpan],
) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                while scopes.last().is_some_and(|s| s.depth > depth) {
                    scopes.pop();
                }
            }
            "impl" | "trait" if t.kind == TokenKind::Ident => {
                if let Some((type_name, open)) = scan_type_block(tokens, i) {
                    // Register the scope; the `{` itself is consumed by the
                    // main loop when we reach it.
                    i = open; // position of `{`
                    depth += 1;
                    scopes.push(Scope { type_name, depth });
                    i += 1;
                    continue;
                }
            }
            "fn" if t.kind == TokenKind::Ident && fn_is_item(tokens, i) => {
                if let Some((item, resume)) = scan_fn(file, tokens, masked, spans, i, &scopes) {
                    // Resume at the body's `{` (or past the `;`): the main
                    // loop then tracks the body braces itself, keeping the
                    // scope stack in sync and finding nested `fn` items.
                    fns.push(item);
                    i = resume;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    fns
}

/// Parses an `impl`/`trait` header starting at `at`; returns the type name
/// and the index of the opening `{`.
fn scan_type_block(tokens: &[Token], at: usize) -> Option<(String, usize)> {
    let mut idents: Vec<&str> = Vec::new();
    let mut after_for: Vec<&str> = Vec::new();
    let mut saw_for = false;
    let mut j = at + 1;
    while j < tokens.len() {
        let t = &tokens[j];
        match t.kind {
            TokenKind::Punct if t.is("{") => {
                let chosen = if saw_for { &after_for } else { &idents };
                // The implemented type is the last path segment before any
                // generic arguments: `foo::Bar<Baz>` names `Bar`... but the
                // simple dominant cases (`Type`, `Trait for Type`) reduce to
                // the first collected identifier.
                let name = chosen.first().copied()?;
                return Some((name.to_owned(), j));
            }
            TokenKind::Punct if t.is(";") => return None, // `impl Trait;` — malformed, bail
            TokenKind::Ident if t.is("for") => saw_for = true,
            TokenKind::Ident if t.is("where") => {
                // Everything after `where` is bounds; skip to the `{`.
                let open = tokens[j..].iter().position(|t| t.is("{"))? + j;
                let chosen = if saw_for { &after_for } else { &idents };
                let name = chosen.first().copied()?;
                return Some((name.to_owned(), open));
            }
            TokenKind::Ident => {
                // Skip lifetimes (`'a` tokenizes as `'` + ident).
                let is_lifetime = j > 0 && tokens[j - 1].is("'");
                if !is_lifetime {
                    if saw_for {
                        after_for.push(&t.text);
                    } else {
                        idents.push(&t.text);
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses one `fn` item starting at the `fn` keyword. Returns the item and
/// the token index to resume scanning from (just inside the body, or after
/// the signature for bodyless declarations).
fn scan_fn(
    file: usize,
    tokens: &[Token],
    masked: &MaskedSource,
    spans: &[TestSpan],
    at: usize,
    scopes: &[Scope],
) -> Option<(FnItem, usize)> {
    let name_token = tokens.get(at + 1)?;
    if name_token.kind != TokenKind::Ident {
        return None;
    }
    let name = name_token.text.clone();
    let line = masked.line_of(tokens[at].offset);

    // Skip generics between the name and the parameter list. `>>` closes
    // two angle levels at once.
    let mut j = at + 2;
    if tokens.get(j).is_some_and(|t| t.is("<")) {
        let mut angle = 0i32;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "->" | "{" | ";" => return None, // malformed
                _ => {}
            }
            j += 1;
            if angle <= 0 {
                break;
            }
        }
    }
    if !tokens.get(j).is_some_and(|t| t.is("(")) {
        return None;
    }

    // Parameter list: split on top-level commas.
    let params_start = j + 1;
    let mut paren = 1i32;
    let mut angle = 0i32;
    let mut k = params_start;
    let mut param_starts = vec![params_start];
    while k < tokens.len() && paren > 0 {
        match tokens[k].text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "<" => angle += 1,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            "," if paren == 1 && angle <= 0 => param_starts.push(k + 1),
            _ => {}
        }
        k += 1;
    }
    let params_end = k.saturating_sub(1); // index of the closing `)`
    let mut params = Vec::new();
    let mut has_self = false;
    for (pi, &start) in param_starts.iter().enumerate() {
        let end = param_starts
            .get(pi + 1)
            .map_or(params_end, |&next| next.saturating_sub(1));
        if start >= end {
            continue;
        }
        let segment = &tokens[start..end];
        if segment.iter().any(|t| t.is("self")) && !segment.iter().any(|t| t.is(":")) {
            has_self = true;
            continue;
        }
        let colon = segment.iter().position(|t| t.is(":"));
        let pname = segment
            .iter()
            .find(|t| t.kind == TokenKind::Ident && !t.is("mut"))
            .map(|t| t.text.clone());
        if let (Some(colon), Some(pname)) = (colon, pname) {
            let type_text = segment[colon + 1..]
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            params.push(Param {
                name: pname,
                type_text,
            });
        }
    }

    // Find the body `{` (or `;` for a bodyless declaration), skipping the
    // return type and where clause.
    let mut m = k;
    let mut body = 0..0;
    let mut resume = k;
    while m < tokens.len() {
        match tokens[m].text.as_str() {
            ";" => {
                resume = m + 1;
                break;
            }
            "{" => {
                // Brace-match the body.
                let mut d = 0usize;
                let mut e = m;
                while e < tokens.len() {
                    match tokens[e].text.as_str() {
                        "{" => d += 1,
                        "}" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    e += 1;
                }
                body = m..(e + 1).min(tokens.len());
                resume = m;
                break;
            }
            _ => m += 1,
        }
    }

    let impl_type = scopes.last().map(|s| s.type_name.clone());
    let item = FnItem {
        file,
        name,
        impl_type,
        is_public: fn_is_public(tokens, at),
        has_self,
        in_test: in_test_span(spans, line),
        line,
        params,
        body,
        owned: Vec::new(),
        calls: Vec::new(),
    };
    Some((item, resume))
}

/// Subtracts nested function bodies from each function's body range so
/// token attribution is innermost-wins.
fn compute_owned_ranges(fns: &mut [FnItem]) {
    let bodies: Vec<Range<usize>> = fns.iter().map(|f| f.body.clone()).collect();
    for (i, item) in fns.iter_mut().enumerate() {
        if item.body.is_empty() {
            continue;
        }
        // Direct nested bodies: strictly contained in this body and not
        // contained in another strictly-contained body.
        let mut nested: Vec<&Range<usize>> = bodies
            .iter()
            .enumerate()
            .filter(|&(j, b)| {
                j != i && !b.is_empty() && b.start > item.body.start && b.end <= item.body.end
            })
            .map(|(_, b)| b)
            .collect();
        nested.sort_by_key(|b| b.start);
        let mut owned = Vec::new();
        let mut cursor = item.body.start;
        for b in nested {
            if b.start < cursor {
                continue; // contained in a previous nested body
            }
            if cursor < b.start {
                owned.push(cursor..b.start);
            }
            cursor = b.end;
        }
        if cursor < item.body.end {
            owned.push(cursor..item.body.end);
        }
        item.owned = owned;
    }
}

/// Extracts call sites from the owned token ranges of one function.
fn extract_calls(tokens: &[Token], masked: &MaskedSource, owned: &[Range<usize>]) -> Vec<Call> {
    let mut calls = Vec::new();
    for range in owned {
        for i in range.clone() {
            let t = &tokens[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let next = tokens.get(i + 1);
            let prev = i.checked_sub(1).map(|p| &tokens[p]);
            let line = masked.line_of(t.offset);
            if next.is_some_and(|n| n.is("!")) {
                // `!=` lexes as one token, so a bare `!` here is a macro
                // bang (macro calls may use `(`, `[` or `{` delimiters).
                let delim = tokens.get(i + 2);
                if delim.is_some_and(|d| d.is("(") || d.is("[") || d.is("{")) {
                    calls.push(Call {
                        name: t.text.clone(),
                        qualifier: None,
                        kind: CallKind::Macro,
                        line,
                        at: i,
                    });
                }
                continue;
            }
            if !next.is_some_and(|n| n.is("(")) {
                continue;
            }
            if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
                continue;
            }
            match prev {
                Some(p) if p.is(".") => calls.push(Call {
                    name: t.text.clone(),
                    qualifier: None,
                    kind: CallKind::Method,
                    line,
                    at: i,
                }),
                Some(p) if p.is("::") => {
                    let qualifier = i
                        .checked_sub(2)
                        .map(|q| &tokens[q])
                        .filter(|q| q.kind == TokenKind::Ident)
                        .map(|q| q.text.clone());
                    calls.push(Call {
                        name: t.text.clone(),
                        qualifier,
                        kind: CallKind::Qualified,
                        line,
                        at: i,
                    });
                }
                Some(p) if p.is("fn") => {} // the definition itself
                _ => calls.push(Call {
                    name: t.text.clone(),
                    qualifier: None,
                    kind: CallKind::Free,
                    line,
                    at: i,
                }),
            }
        }
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::from_sources([("crates/demo/src/lib.rs", src)])
    }

    fn texts(tokens: &[Token]) -> Vec<&str> {
        tokens.iter().map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn tokenizer_splits_idents_numbers_puncts() {
        let m = mask("let x = a.partial_cmp(&b); // c\n");
        let toks = tokenize(&m.masked);
        assert_eq!(
            texts(&toks),
            vec![
                "let",
                "x",
                "=",
                "a",
                ".",
                "partial_cmp",
                "(",
                "&",
                "b",
                ")",
                ";"
            ]
        );
    }

    #[test]
    fn tokenizer_keeps_float_literals_whole() {
        let m = mask("x == 24.5 && y != 1e-6 && 0..n");
        let toks = tokenize(&m.masked);
        assert_eq!(
            texts(&toks),
            vec!["x", "==", "24.5", "&&", "y", "!=", "1e-6", "&&", "0", "..", "n"]
        );
    }

    #[test]
    fn tokenizer_merges_multichar_puncts() {
        let m = mask("a::b -> c >= d << e ..= f");
        let toks = tokenize(&m.masked);
        assert_eq!(
            texts(&toks),
            vec!["a", "::", "b", "->", "c", ">=", "d", "<<", "e", "..=", "f"]
        );
    }

    #[test]
    fn scans_free_and_method_fns() {
        let src = "//! m\npub fn top(x: f64, n: usize) -> f64 { x }\nstruct S;\nimpl S {\n    pub fn method(&self, k: u32) {}\n    fn private_one() {}\n}\n";
        let w = ws(src);
        assert_eq!(w.fns.len(), 3);
        let top = &w.fns[0];
        assert_eq!(top.name, "top");
        assert!(top.is_public && !top.has_self && top.impl_type.is_none());
        assert_eq!(top.params.len(), 2);
        assert_eq!(top.params[0].type_text, "f64");
        let method = &w.fns[1];
        assert_eq!(method.qual_name(), "S::method");
        assert!(method.has_self && method.is_public);
        assert!(!w.fns[2].is_public);
    }

    #[test]
    fn trait_impls_and_for_blocks_get_the_type_name() {
        let src = "//! m\nimpl Clone for Widget {\n    fn clone(&self) -> Self { Widget }\n}\nimpl<'a> Holder<'a> {\n    fn get(&self) -> u8 { 0 }\n}\n";
        let w = ws(src);
        assert_eq!(w.fns[0].qual_name(), "Widget::clone");
        assert_eq!(w.fns[1].qual_name(), "Holder::get");
    }

    #[test]
    fn pub_crate_is_not_public() {
        let src = "//! m\npub(crate) fn hidden() {}\npub fn shown() {}\n";
        let w = ws(src);
        assert!(!w.fns[0].is_public);
        assert!(w.fns[1].is_public);
    }

    #[test]
    fn cfg_test_functions_are_marked() {
        let src = "//! m\nfn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let w = ws(src);
        assert!(!w.fns[0].in_test);
        assert!(w.fns[1].in_test);
    }

    #[test]
    fn extracts_call_kinds() {
        let src = "//! m\nfn f(v: &[f64]) {\n    helper(v);\n    stats::mean(v);\n    v.iter();\n    assert!(true);\n}\nfn helper(_v: &[f64]) {}\n";
        let w = ws(src);
        let calls = &w.fns[0].calls;
        assert_eq!(calls.len(), 4);
        assert_eq!(
            (calls[0].name.as_str(), calls[0].kind),
            ("helper", CallKind::Free)
        );
        assert_eq!(calls[1].kind, CallKind::Qualified);
        assert_eq!(calls[1].qualifier.as_deref(), Some("stats"));
        assert_eq!(calls[2].kind, CallKind::Method);
        assert_eq!(
            (calls[3].name.as_str(), calls[3].kind),
            ("assert", CallKind::Macro)
        );
    }

    #[test]
    fn nested_fns_own_their_tokens() {
        let src = "//! m\nfn outer() {\n    inner_call();\n    fn nested() { nested_call(); }\n    after_call();\n}\n";
        let w = ws(src);
        let outer = &w.fns[0];
        let nested = &w.fns[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(nested.name, "nested");
        let outer_names: Vec<&str> = outer.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(outer_names, vec!["inner_call", "after_call"]);
        let nested_names: Vec<&str> = nested.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(nested_names, vec!["nested_call"]);
    }

    #[test]
    fn closures_attribute_to_the_enclosing_fn() {
        let src = "//! m\nfn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.total_cmp(b));\n}\n";
        let w = ws(src);
        let names: Vec<&str> = w.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["sort_by", "total_cmp"]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "//! m\nfn apply(op: fn(usize) -> usize, x: usize) -> usize { op(x) }\n";
        let w = ws(src);
        assert_eq!(w.fns.len(), 1);
        assert_eq!(w.fns[0].name, "apply");
    }

    #[test]
    fn struct_literals_are_not_calls() {
        let src = "//! m\nstruct P { x: u8 }\nfn f() -> P {\n    P { x: 1 }\n}\n";
        let w = ws(src);
        assert!(w.fns[0].calls.is_empty());
    }

    #[test]
    fn generic_fns_parse() {
        let src = "//! m\npub fn pick<T: Ord>(items: Vec<Vec<T>>, idx: usize) -> T { todo!() }\n";
        let w = ws(src);
        assert_eq!(w.fns[0].name, "pick");
        assert_eq!(w.fns[0].params.len(), 2);
        assert_eq!(w.fns[0].params[1].name, "idx");
    }

    #[test]
    fn crate_names_derive_from_paths() {
        assert_eq!(crate_of("crates/validator/src/lib.rs"), "validator");
        assert_eq!(crate_of("src/lib.rs"), "suite");
        assert_eq!(crate_of("examples/demo.rs"), "suite");
    }

    #[test]
    fn scan_skips_test_files_entirely() {
        let w = Workspace::from_sources([
            ("crates/demo/src/lib.rs", "//! m\nfn live() {}\n"),
            ("crates/demo/tests/e2e.rs", "fn test_only() {}\n"),
        ]);
        // from_sources does not filter paths; scan() does. Emulate here:
        assert_eq!(w.fns.len(), 2);
        assert!(is_test_code("crates/demo/tests/e2e.rs"));
        assert!(is_test_code("crates/bench/benches/micro.rs"));
        assert!(!is_test_code("crates/hwsim/src/node.rs"));
    }
}
