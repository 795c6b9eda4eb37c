//! Comment- and literal-masking lexer.
//!
//! The token model in this crate is lexical: the passes search for tokens
//! (`.unwrap()`, `HashMap`, float `==`, …). Searching raw source would
//! false-positive on every doc comment and string literal that *mentions*
//! such a construct, so the model is built over a masked copy of the file
//! in which comments, string/char literals, and raw strings are replaced
//! byte-for-byte with spaces. Newlines are preserved, so byte offsets and
//! line numbers in the masked text match the original exactly.

/// A source file with comments and literals blanked out.
pub struct MaskedSource {
    /// The masked text: same byte length as the input, pure-code bytes
    /// preserved, comment/literal bytes replaced with `b' '`, newlines kept.
    pub masked: Vec<u8>,
    /// Byte offset where each line starts (index 0 = line 1).
    line_starts: Vec<usize>,
}

impl MaskedSource {
    /// 1-based line number containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(index) => index + 1,
            Err(index) => index,
        }
    }
}

/// Lexer state while scanning.
enum State {
    Code,
    LineComment,
    BlockComment { depth: usize },
    Str,
    RawStr { hashes: usize },
    CharLit,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Masks `source`, blanking comments and string/char literals while
/// preserving byte offsets and newlines.
#[allow(clippy::too_many_lines)]
pub fn mask(source: &str) -> MaskedSource {
    let bytes = source.as_bytes();
    let mut masked = Vec::with_capacity(bytes.len());
    let mut line_starts = vec![0usize];
    let mut state = State::Code;
    let mut i = 0usize;

    macro_rules! emit_masked {
        ($b:expr) => {
            masked.push(if $b == b'\n' { b'\n' } else { b' ' })
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line_starts.push(i + 1);
        }
        match state {
            State::Code => {
                let next = bytes.get(i + 1).copied();
                if b == b'/' && next == Some(b'/') {
                    state = State::LineComment;
                    emit_masked!(b);
                } else if b == b'/' && next == Some(b'*') {
                    state = State::BlockComment { depth: 1 };
                    emit_masked!(b);
                    emit_masked!(next.unwrap_or(b' '));
                    i += 2;
                    continue;
                } else if b == b'"' {
                    state = State::Str;
                    emit_masked!(b);
                } else if (b == b'r' || b == b'b')
                    && (i == 0 || !is_ident_byte(bytes[i - 1]))
                    && raw_string_hashes(&bytes[i..]).is_some()
                {
                    let (prefix, hashes) = raw_string_hashes(&bytes[i..]).unwrap_or((0, 0));
                    for offset in 0..prefix {
                        emit_masked!(bytes[i + offset]);
                    }
                    i += prefix;
                    state = State::RawStr { hashes };
                    continue;
                } else if b == b'b'
                    && next == Some(b'"')
                    && (i == 0 || !is_ident_byte(bytes[i - 1]))
                {
                    emit_masked!(b);
                    emit_masked!(b'"');
                    i += 2;
                    state = State::Str;
                    continue;
                } else if b == b'\'' && char_literal_len(&bytes[i..]).is_some() {
                    state = State::CharLit;
                    emit_masked!(b);
                } else {
                    masked.push(b);
                }
            }
            State::LineComment => {
                emit_masked!(b);
                if b == b'\n' {
                    state = State::Code;
                }
            }
            State::BlockComment { depth } => {
                let next = bytes.get(i + 1).copied();
                if b == b'/' && next == Some(b'*') {
                    state = State::BlockComment { depth: depth + 1 };
                    emit_masked!(b);
                    emit_masked!(b'*');
                    i += 2;
                    continue;
                }
                if b == b'*' && next == Some(b'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment { depth: depth - 1 }
                    };
                    emit_masked!(b);
                    emit_masked!(b'/');
                    i += 2;
                    continue;
                }
                emit_masked!(b);
            }
            State::Str => {
                if b == b'\\' {
                    emit_masked!(b);
                    if let Some(&escaped) = bytes.get(i + 1) {
                        if escaped == b'\n' {
                            line_starts.push(i + 2);
                        }
                        emit_masked!(escaped);
                        i += 2;
                        continue;
                    }
                } else {
                    emit_masked!(b);
                    if b == b'"' {
                        state = State::Code;
                    }
                }
            }
            State::RawStr { hashes } => {
                emit_masked!(b);
                if b == b'"'
                    && bytes[i + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&h| h == b'#')
                        .count()
                        == hashes
                {
                    for offset in 0..hashes {
                        emit_masked!(bytes[i + 1 + offset]);
                    }
                    i += hashes;
                    state = State::Code;
                }
            }
            State::CharLit => {
                if b == b'\\' {
                    emit_masked!(b);
                    if let Some(&escaped) = bytes.get(i + 1) {
                        emit_masked!(escaped);
                        i += 2;
                        continue;
                    }
                } else {
                    emit_masked!(b);
                    if b == b'\'' {
                        state = State::Code;
                    }
                }
            }
        }
        i += 1;
    }
    MaskedSource {
        masked,
        line_starts,
    }
}

/// If `bytes` starts a raw string (`r"`, `r#"`, `br"`, …), returns the
/// prefix length up to and including the opening quote plus the hash count.
fn raw_string_hashes(bytes: &[u8]) -> Option<(usize, usize)> {
    let mut p = 0usize;
    if bytes.first() == Some(&b'b') {
        p += 1;
    }
    if bytes.get(p) != Some(&b'r') {
        return None;
    }
    p += 1;
    let mut hashes = 0usize;
    while bytes.get(p) == Some(&b'#') {
        hashes += 1;
        p += 1;
    }
    if bytes.get(p) == Some(&b'"') {
        Some((p + 1, hashes))
    } else {
        None
    }
}

/// If `bytes` (starting at a `'`) opens a char literal rather than a
/// lifetime, returns the literal's byte length. A `'` starts a char literal
/// when it is escaped (`'\n'`) or when a closing `'` follows within the
/// next one-to-four bytes (`'a'`, `'é'`); otherwise it is a lifetime.
fn char_literal_len(bytes: &[u8]) -> Option<usize> {
    debug_assert_eq!(bytes.first(), Some(&b'\''));
    if bytes.get(1) == Some(&b'\\') {
        return Some(2);
    }
    let first = *bytes.get(1)?;
    if first == b'\'' {
        return None;
    }
    // A char literal holds exactly one char before the closing quote;
    // anything else (`'a` in `<'a>`, `'outer:`) is a lifetime or label.
    let width = if first < 0x80 {
        1
    } else if first < 0xE0 {
        2
    } else if first < 0xF0 {
        3
    } else {
        4
    };
    (bytes.get(1 + width) == Some(&b'\'')).then_some(width + 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masked_str(source: &str) -> String {
        String::from_utf8(mask(source).masked).unwrap()
    }

    #[test]
    fn preserves_plain_code() {
        assert_eq!(masked_str("let x = 1 + 2;"), "let x = 1 + 2;");
    }

    #[test]
    fn masks_line_comments_but_keeps_newlines() {
        let out = masked_str("a // unwrap() here\nb");
        assert_eq!(out, "a                 \nb");
    }

    #[test]
    fn masks_block_comments_with_nesting() {
        let out = masked_str("a /* outer /* inner */ still */ b");
        assert_eq!(out, "a                               b");
    }

    #[test]
    fn masks_strings_and_escapes() {
        let out = masked_str(r#"call("has \" unwrap()") + 1"#);
        assert_eq!(out, "call(                 ) + 1");
    }

    #[test]
    fn masks_raw_strings() {
        let out = masked_str(r###"x = r#"panic!("no")"# ;"###);
        assert_eq!(out, "x =                   ;");
    }

    #[test]
    fn masks_char_literals_but_not_lifetimes() {
        assert_eq!(masked_str("let c = 'x';"), "let c =    ;");
        assert_eq!(masked_str(r"let c = '\n';"), "let c =     ;");
        assert_eq!(
            masked_str("fn f<'a>(x: &'a str) {}"),
            "fn f<'a>(x: &'a str) {}"
        );
    }

    #[test]
    fn multibyte_bytes_become_spaces() {
        let out = masked_str("x // é\ny");
        assert_eq!(out.len(), "x // é\ny".len());
        assert_eq!(out, "x      \ny"); // é is two bytes, so two spaces
    }

    #[test]
    fn line_of_maps_offsets() {
        let m = mask("ab\ncd\nef");
        assert_eq!(m.line_of(0), 1);
        assert_eq!(m.line_of(2), 1);
        assert_eq!(m.line_of(3), 2);
        assert_eq!(m.line_of(6), 3);
    }
}
