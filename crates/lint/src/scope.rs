//! Structural views over a lexed file: function spans, `#[cfg(test)]` module
//! regions, and the `// LINT-ALLOW(rule): reason` waiver map.
//!
//! The rules need three structural questions answered that raw tokens cannot:
//! *which function am I in* (R2 exempts `encode_*` builders), *am I in
//! test-only code*
//! (test modules assert panics and replicate scalar references on purpose),
//! and *is this finding waived* (a `LINT-ALLOW` comment on the line or
//! directly above it). All three are recovered with a single linear pass over
//! the token stream — no parser, but brace-matched spans rather than line
//! heuristics.

use crate::lexer::{Comment, Lexed, Token, TokenKind};

/// The span of one `fn` item: its name, header line, and the token-index
/// range of its body (exclusive of the braces themselves).
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token index of the opening body brace (`usize::MAX` for bodyless
    /// declarations, e.g. trait method signatures).
    pub body_open: usize,
    /// Token index of the matching closing brace.
    pub body_close: usize,
}

/// One parsed `LINT-ALLOW(rule): reason` waiver.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The rule name inside the parentheses.
    pub rule: String,
    /// The justification after the colon (trimmed; may be empty, which the
    /// driver reports as a malformed waiver).
    pub reason: String,
    /// Line of the waiver comment itself.
    pub line: u32,
    /// The line the waiver covers: the comment's own line if it trails code,
    /// otherwise the first code line below the comment block.
    pub target_line: u32,
}

/// Everything the rules need to scan one file.
#[derive(Debug)]
pub struct FileContext {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Code tokens.
    pub tokens: Vec<Token>,
    /// Comment side channel.
    pub comments: Vec<Comment>,
    /// All function spans, in source order (nested functions included).
    pub fns: Vec<FnSpan>,
    /// Token-index ranges (inclusive braces) of `#[cfg(test)] mod` bodies.
    pub test_ranges: Vec<(usize, usize)>,
    /// All waivers found in comments.
    pub waivers: Vec<Waiver>,
}

impl FileContext {
    /// Build the structural view of one lexed file.
    pub fn new(path: String, lexed: Lexed) -> FileContext {
        let fns = find_fns(&lexed.tokens);
        let test_ranges = find_test_ranges(&lexed.tokens);
        let waivers = find_waivers(&lexed.comments, &lexed.tokens);
        FileContext {
            path,
            tokens: lexed.tokens,
            comments: lexed.comments,
            fns,
            test_ranges,
            waivers,
        }
    }

    /// Whether the token at `idx` lies inside a `#[cfg(test)]` module.
    pub fn in_test_code(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= idx && idx <= b)
    }

    /// The innermost function whose body contains the token at `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.body_open != usize::MAX && f.body_open <= idx && idx <= f.body_close)
            .min_by_key(|f| f.body_close - f.body_open)
    }

    /// Whether a comment containing `needle` appears on `line` or within the
    /// `window` lines directly above it (used for `SAFETY:` annotations;
    /// blank lines inside the window are tolerated).
    pub fn comment_near(&self, line: u32, window: u32, needle: &str) -> bool {
        self.comments
            .iter()
            .any(|c| c.end_line <= line && c.end_line + window >= line && c.text.contains(needle))
    }
}

/// Scan for `fn` items and brace-match their bodies.
fn find_fns(tokens: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || tok.text != "fn" {
            continue;
        }
        // `fn` in function-pointer types (`fn(u8) -> u8`) has no name.
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        // The body is the first `{` at paren depth 0 before a `;` (trait
        // signatures end with `;` and have no body).
        let mut depth = 0i32;
        let mut body_open = usize::MAX;
        let mut j = i + 2;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        body_open = j;
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let body_close = if body_open == usize::MAX {
            usize::MAX
        } else {
            match_brace(tokens, body_open)
        };
        fns.push(FnSpan {
            name: name_tok.text.clone(),
            line: tok.line,
            fn_tok: i,
            body_open,
            body_close,
        });
    }
    fns
}

/// Index of the `}` matching the `{` at `open` (or the last token if the
/// file is truncated mid-edit).
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Find `#[cfg(test)] mod name { … }` regions. Attributes between the cfg
/// and the `mod` keyword are tolerated.
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].text == "#"
            && tokens[i + 1].text == "["
            && tokens[i + 2].text == "cfg"
            && tokens[i + 3].text == "("
            && tokens[i + 4].text == "test"
            && tokens[i + 5].text == ")"
            && tokens[i + 6].text == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then require `mod name {`.
        let mut j = i + 7;
        while j < tokens.len() && tokens[j].text == "#" {
            if tokens.get(j + 1).map(|t| t.text.as_str()) == Some("[") {
                j = match_bracket(tokens, j + 1) + 1;
            } else {
                break;
            }
        }
        if tokens.get(j).map(|t| t.text.as_str()) == Some("mod")
            && tokens.get(j + 1).map(|t| t.kind) == Some(TokenKind::Ident)
            && tokens.get(j + 2).map(|t| t.text.as_str()) == Some("{")
        {
            let close = match_brace(tokens, j + 2);
            ranges.push((i, close));
            i = close + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Index of the `]` matching the `[` at token index `open` — used by rules
/// to skip attribute lists and to find the end of an index expression.
pub fn attr_end(file: &FileContext, open: usize) -> usize {
    match_bracket(&file.tokens, open)
}

/// Index of the `]` matching the `[` at `open`.
fn match_bracket(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Parse `LINT-ALLOW(rule): reason` waivers out of comments and resolve the
/// line each one covers. A waiver must *begin* its comment (right after the
/// `//`/`/*` markers) — prose that merely mentions the syntax, like this
/// doc comment, is not a waiver.
fn find_waivers(comments: &[Comment], tokens: &[Token]) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for c in comments {
        let stripped = c
            .text
            .trim_start_matches(|ch: char| matches!(ch, '/' | '!' | '*') || ch.is_whitespace());
        let Some(rest) = stripped.strip_prefix("LINT-ALLOW(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').unwrap_or("").trim().to_string();
        // The waiver covers its own line when the comment trails code on
        // that line; otherwise the first code line strictly below it.
        let trails_code = tokens.iter().any(|t| t.line == c.line);
        let target_line = if trails_code {
            c.line
        } else {
            tokens
                .iter()
                .map(|t| t.line)
                .filter(|&l| l > c.end_line)
                .min()
                .unwrap_or(c.end_line + 1)
        };
        waivers.push(Waiver {
            rule,
            reason,
            line: c.line,
            target_line,
        });
    }
    waivers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(src: &str) -> FileContext {
        FileContext::new("test.rs".to_string(), lex(src))
    }

    #[test]
    fn fn_spans_cover_bodies_and_skip_signatures() {
        let c = ctx("trait T { fn sig(&self); }\nfn outer() {\n  fn inner() { let x = 1; }\n}\n");
        let names: Vec<&str> = c.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["sig", "outer", "inner"]);
        assert_eq!(c.fns[0].body_open, usize::MAX);
        // A token inside `inner` resolves to `inner`, not `outer`.
        let x = c
            .tokens
            .iter()
            .position(|t| t.text == "x")
            .expect("token x");
        assert_eq!(c.enclosing_fn(x).map(|f| f.name.as_str()), Some("inner"));
    }

    #[test]
    fn cfg_test_mods_are_recognized() {
        let c = ctx("fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() { body(); }\n}\n");
        let body = c
            .tokens
            .iter()
            .position(|t| t.text == "body")
            .expect("token body");
        assert!(c.in_test_code(body));
        let live = c.tokens.iter().position(|t| t.text == "live").unwrap();
        assert!(!c.in_test_code(live));
    }

    #[test]
    fn waivers_resolve_their_target_line() {
        let src = "\
fn f() {
    // LINT-ALLOW(some-rule): trailing block above
    let a = 1;
    let b = 2; // LINT-ALLOW(other-rule): same line
}
";
        let c = ctx(src);
        assert_eq!(c.waivers.len(), 2);
        assert_eq!(c.waivers[0].rule, "some-rule");
        assert_eq!(c.waivers[0].target_line, 3);
        assert_eq!(c.waivers[1].rule, "other-rule");
        assert_eq!(c.waivers[1].target_line, 4);
        assert!(!c.waivers[0].reason.is_empty());
    }

    #[test]
    fn comment_near_finds_annotations_above() {
        let src = "// SAFETY: gated on runtime detection\nunsafe { work() }\n";
        let c = ctx(src);
        assert!(c.comment_near(2, 3, "SAFETY:"));
        assert!(!c.comment_near(2, 3, "FUZZ:"));
    }
}
