//! A small but real Rust lexer: the foundation every rule scans over.
//!
//! Rules must never fire on the *contents* of a string literal or a comment
//! (a doc sentence mentioning `unwrap` is not a panic site), so naive line
//! grepping is off the table. This lexer tokenizes the subset of Rust the
//! workspace uses — identifiers, numbers, punctuation, plain/byte/raw
//! strings with arbitrary `#` fences, char literals vs lifetimes, and
//! *nested* block comments — and keeps comments in a separate side channel
//! so rules can resolve `// SAFETY:` / `// LINT-ALLOW` annotations by line.

/// Classification of one code token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw `r#ident` identifiers).
    Ident,
    /// Integer or float literal (suffixes included, e.g. `0.0f64`).
    Number,
    /// One punctuation character (`.` `[` `+` …). Multi-character operators
    /// arrive as consecutive tokens; rules match the sequences they need.
    Punct,
    /// String literal of any flavour (plain, byte, raw, C).
    Str,
    /// Character or byte-character literal.
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One code token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// The token text. For [`TokenKind::Punct`] this is a single character;
    /// for string/char literals it is the raw literal including quotes.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// One comment (line or block, doc or plain), kept out of the token stream.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (same as `line` for line comments).
    pub end_line: u32,
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
}

/// The result of lexing one file: code tokens plus the comment side channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Advance one char, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }
}

/// Lex one source file. Unterminated literals and comments are tolerated
/// (everything to end of file becomes the token): the linter must keep
/// producing diagnostics for the rest of the workspace even when one file is
/// mid-edit.
pub fn lex(source: &str) -> Lexed {
    let mut cur = Cursor {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        if c == '/' && cur.peek(1) == Some('/') {
            lex_line_comment(&mut cur, &mut out);
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            lex_block_comment(&mut cur, &mut out);
            continue;
        }
        if c == '"' {
            lex_plain_string(&mut cur, &mut out);
            continue;
        }
        if c == '\'' {
            lex_char_or_lifetime(&mut cur, &mut out);
            continue;
        }
        if is_ident_start(c) {
            lex_ident_or_prefixed(&mut cur, &mut out);
            continue;
        }
        if c.is_ascii_digit() {
            lex_number(&mut cur, &mut out);
            continue;
        }
        let line = cur.line;
        cur.bump();
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
        });
    }
    out
}

fn lex_line_comment(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    out.comments.push(Comment {
        line,
        end_line: line,
        text,
    });
}

fn lex_block_comment(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    let mut text = String::new();
    text.push(cur.bump().unwrap_or('/'));
    text.push(cur.bump().unwrap_or('*'));
    let mut depth = 1u32;
    while depth > 0 {
        match (cur.peek(0), cur.peek(1)) {
            (Some('/'), Some('*')) => {
                depth += 1;
                text.push('/');
                text.push('*');
                cur.bump();
                cur.bump();
            }
            (Some('*'), Some('/')) => {
                depth -= 1;
                text.push('*');
                text.push('/');
                cur.bump();
                cur.bump();
            }
            (Some(c), _) => {
                text.push(c);
                cur.bump();
            }
            (None, _) => break,
        }
    }
    out.comments.push(Comment {
        line,
        end_line: cur.line,
        text,
    });
}

/// Lex a `"…"` string body starting at the opening quote, with `\` escapes.
fn lex_plain_string(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    let mut text = String::new();
    text.push(cur.bump().unwrap_or('"'));
    while let Some(c) = cur.peek(0) {
        if c == '\\' {
            text.push(c);
            cur.bump();
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
            continue;
        }
        text.push(c);
        cur.bump();
        if c == '"' {
            break;
        }
    }
    out.tokens.push(Token {
        kind: TokenKind::Str,
        text,
        line,
    });
}

/// Lex a raw string starting at `r`'s `#`-or-quote position: `n` hashes, a
/// quote, then everything until a quote followed by `n` hashes.
fn lex_raw_string_body(cur: &mut Cursor, prefix: &str, out: &mut Lexed) {
    let line = cur.line;
    let mut text = String::from(prefix);
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        hashes += 1;
        text.push('#');
        cur.bump();
    }
    if cur.peek(0) == Some('"') {
        text.push('"');
        cur.bump();
    }
    loop {
        match cur.peek(0) {
            None => break,
            Some('"') => {
                let closes = (1..=hashes).all(|k| cur.peek(k) == Some('#'));
                text.push('"');
                cur.bump();
                if closes {
                    for _ in 0..hashes {
                        text.push('#');
                        cur.bump();
                    }
                    break;
                }
            }
            Some(c) => {
                text.push(c);
                cur.bump();
            }
        }
    }
    out.tokens.push(Token {
        kind: TokenKind::Str,
        text,
        line,
    });
}

/// At a `'`: decide char literal vs lifetime, then lex it.
fn lex_char_or_lifetime(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    // A lifetime is `'` + ident not closed by another `'` (`'a'` is a char).
    let is_lifetime = match (cur.peek(1), cur.peek(2)) {
        (Some('\\'), _) => false,
        (Some(c), Some('\'')) if is_ident_continue(c) => false,
        (Some(c), _) if is_ident_start(c) => true,
        _ => false,
    };
    if is_lifetime {
        let mut text = String::from("'");
        cur.bump();
        while let Some(c) = cur.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            text.push(c);
            cur.bump();
        }
        out.tokens.push(Token {
            kind: TokenKind::Lifetime,
            text,
            line,
        });
        return;
    }
    let mut text = String::from("'");
    cur.bump();
    while let Some(c) = cur.peek(0) {
        if c == '\\' {
            text.push(c);
            cur.bump();
            match cur.peek(0) {
                // `\u{…}` — consume through the closing brace below.
                Some('u') => {
                    text.push('u');
                    cur.bump();
                    if cur.peek(0) == Some('{') {
                        while let Some(b) = cur.bump() {
                            text.push(b);
                            if b == '}' {
                                break;
                            }
                        }
                    }
                }
                Some(esc) => {
                    text.push(esc);
                    cur.bump();
                }
                None => break,
            }
            continue;
        }
        text.push(c);
        cur.bump();
        if c == '\'' {
            break;
        }
    }
    out.tokens.push(Token {
        kind: TokenKind::Char,
        text,
        line,
    });
}

/// Lex an identifier, routing string prefixes (`r"…"`, `b"…"`, `br#"…"#`,
/// `c"…"`), byte chars (`b'x'`) and raw identifiers (`r#ident`).
fn lex_ident_or_prefixed(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if !is_ident_continue(c) {
            break;
        }
        text.push(c);
        cur.bump();
    }
    let next = cur.peek(0);
    let raw_capable = matches!(text.as_str(), "r" | "br" | "cr");
    let quote_capable = matches!(text.as_str(), "r" | "b" | "br" | "c" | "cr");
    match next {
        Some('"') if quote_capable => {
            // `b"…"`/`c"…"` have plain escape rules; `r…` flavours are raw.
            if raw_capable {
                lex_raw_string_body(cur, &text, out);
            } else {
                let mut s = Lexed::default();
                lex_plain_string(cur, &mut s);
                if let Some(tok) = s.tokens.pop() {
                    out.tokens.push(Token {
                        kind: TokenKind::Str,
                        text: format!("{text}{}", tok.text),
                        line,
                    });
                }
            }
        }
        Some('#') if raw_capable && cur.peek(1).is_some_and(|c| c == '"' || c == '#') => {
            lex_raw_string_body(cur, &text, out);
        }
        Some('#') if text == "r" && cur.peek(1).is_some_and(is_ident_start) => {
            // Raw identifier `r#ident`: the token is the bare identifier.
            cur.bump();
            let mut ident = String::new();
            while let Some(c) = cur.peek(0) {
                if !is_ident_continue(c) {
                    break;
                }
                ident.push(c);
                cur.bump();
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text: ident,
                line,
            });
        }
        Some('\'') if text == "b" => {
            // Byte char `b'x'` — reuse the char lexer and merge the prefix.
            let mut s = Lexed::default();
            lex_char_or_lifetime(cur, &mut s);
            if let Some(tok) = s.tokens.pop() {
                out.tokens.push(Token {
                    kind: tok.kind,
                    text: format!("b{}", tok.text),
                    line,
                });
            }
        }
        _ => out.tokens.push(Token {
            kind: TokenKind::Ident,
            text,
            line,
        }),
    }
}

fn lex_number(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    let mut text = String::new();
    let mut prev = '\0';
    while let Some(c) = cur.peek(0) {
        let take = if c.is_alphanumeric() || c == '_' {
            true
        } else if c == '.' {
            // A float point, unless this is a range (`0..n`) or a method
            // call on a literal (`1.max(2)`).
            cur.peek(1).is_none_or(|n| n.is_ascii_digit() || n == 'f') && cur.peek(1) != Some('.')
        } else {
            // Exponent signs: `1e-3`, `2.5E+10`.
            (c == '+' || c == '-') && (prev == 'e' || prev == 'E')
        };
        if !take {
            break;
        }
        text.push(c);
        prev = c;
        cur.bump();
    }
    out.tokens.push(Token {
        kind: TokenKind::Number,
        text,
        line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn strings_hide_their_contents_from_the_token_stream() {
        let lexed = lex(r#"let x = "unsafe unwrap()"; // unsafe in comment"#);
        assert!(lexed.tokens.iter().all(|t| t.text != "unsafe"));
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("unsafe"));
    }

    #[test]
    fn raw_strings_with_fences_and_escapes() {
        let toks = kinds(r###"let s = r#"quote " inside"# ; let t = "esc \" done";"###);
        let strings: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Str)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(strings.len(), 2);
        assert!(strings[0].contains("quote"));
        assert!(strings[1].contains("esc"));
        // The `inside`/`done` identifiers never leak out as code tokens.
        assert!(toks.iter().all(|(_, t)| t != "inside" && t != "done"));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let lexed = lex("/* outer /* inner */ still comment */ fn f() {}");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.tokens[0].text, "fn");
    }

    #[test]
    fn char_literals_and_lifetimes_are_distinguished() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let q = '\\''; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 3);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r##"let a = b"bytes"; let b = b'x'; let c = br#"raw"#;"##);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 2);
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(),
            1
        );
    }

    #[test]
    fn numbers_ranges_and_floats() {
        let toks = kinds("for i in 0..10 { let x = 1.5e-3f64 + 0.0; let y = i.max(2); }");
        let numbers: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Number)
            .map(|(_, t)| t.as_str())
            .collect();
        assert!(numbers.contains(&"0"));
        assert!(numbers.contains(&"10"));
        assert!(numbers.contains(&"1.5e-3f64"));
        assert!(numbers.contains(&"0.0"));
        assert!(numbers.contains(&"2"));
    }

    #[test]
    fn line_numbers_are_tracked_across_literals_and_comments() {
        let src = "line1\n\"multi\nline\nstring\"\n/* block\ncomment */\nfn f() {}\n";
        let lexed = lex(src);
        let f = lexed.tokens.iter().find(|t| t.text == "fn").unwrap();
        assert_eq!(f.line, 7);
        assert_eq!(lexed.comments[0].line, 5);
        assert_eq!(lexed.comments[0].end_line, 6);
    }

    #[test]
    fn raw_identifiers_lex_as_plain_idents() {
        let toks = kinds("let r#fn = 3;");
        assert!(toks.contains(&(TokenKind::Ident, "fn".to_string())));
    }
}
