//! The six workspace invariant rules, R1–R6.
//!
//! Each rule is a pure function from a [`FileContext`] to diagnostics; the
//! driver applies waivers afterwards so every rule stays waiver-agnostic.
//! Scoping is part of the rule definition (see `docs/INVARIANTS.md`):
//!
//! | rule | name | scope |
//! |---|---|---|
//! | R1 | `undocumented-unsafe` | every scanned file |
//! | R2 | `panic-free-decode` | `crates/wire/src`, non-test, non-`encode_*`/`put_*` fns |
//! | R3 | `nondeterministic-collections` | `crates/{core,dist,wire,query}/src`, non-test |
//! | R4 | `float-exactness` | `dense.rs`, `dense/kernels.rs`, `posterior.rs`, non-test |
//! | R5 | `no-wall-clock` | `crates/{core,dist,wire,query}/src`, non-test, non-stats/bench |
//! | R6 | `wire-fuzz-coverage` | `crates/wire/src` `const KIND_*` declarations |

use crate::diagnostics::Diagnostic;
use crate::lexer::TokenKind;
use crate::scope::FileContext;

/// Rule name of R1.
pub const R1_UNDOCUMENTED_UNSAFE: &str = "undocumented-unsafe";
/// Rule name of R2.
pub const R2_PANIC_FREE_DECODE: &str = "panic-free-decode";
/// Rule name of R3.
pub const R3_NONDETERMINISTIC_COLLECTIONS: &str = "nondeterministic-collections";
/// Rule name of R4.
pub const R4_FLOAT_EXACTNESS: &str = "float-exactness";
/// Rule name of R5.
pub const R5_NO_WALL_CLOCK: &str = "no-wall-clock";
/// Rule name of R6.
pub const R6_WIRE_FUZZ_COVERAGE: &str = "wire-fuzz-coverage";

/// All rule names, in order. The self-test asserts every one of these fires
/// on the seeded fixtures.
pub const ALL_RULES: [&str; 6] = [
    R1_UNDOCUMENTED_UNSAFE,
    R2_PANIC_FREE_DECODE,
    R3_NONDETERMINISTIC_COLLECTIONS,
    R4_FLOAT_EXACTNESS,
    R5_NO_WALL_CLOCK,
    R6_WIRE_FUZZ_COVERAGE,
];

/// How many lines above an `unsafe` the `SAFETY:` comment may sit (tolerates
/// an attribute or signature line between the comment and the keyword).
const SAFETY_WINDOW: u32 = 3;

/// How many lines above an `unsafe fn` its `# Safety` doc section may sit
/// (the rest of the doc comment in between is the norm).
const SAFETY_DOC_WINDOW: u32 = 12;

/// Run every rule whose scope covers `file`.
pub fn run_all(file: &FileContext) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    r1_undocumented_unsafe(file, &mut out);
    r2_panic_free_decode(file, &mut out);
    r3_nondeterministic_collections(file, &mut out);
    r4_float_exactness(file, &mut out);
    r5_no_wall_clock(file, &mut out);
    r6_wire_fuzz_coverage(file, &mut out);
    out
}

fn tok_is(file: &FileContext, idx: usize, text: &str) -> bool {
    file.tokens.get(idx).is_some_and(|t| t.text == text)
}

/// R1: every `unsafe` block, function, impl or trait needs an adjacent
/// `// SAFETY:` comment (a `# Safety` doc section also counts for `fn`s).
fn r1_undocumented_unsafe(file: &FileContext, out: &mut Vec<Diagnostic>) {
    for (i, tok) in file.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || tok.text != "unsafe" {
            continue;
        }
        let documented = file.comment_near(tok.line, SAFETY_WINDOW, "SAFETY:")
            || file.comment_near(tok.line, SAFETY_DOC_WINDOW, "# Safety");
        if documented {
            continue;
        }
        let what = match file.tokens.get(i + 1).map(|t| t.text.as_str()) {
            Some("fn") => "unsafe fn",
            Some("impl") => "unsafe impl",
            Some("trait") => "unsafe trait",
            _ => "unsafe block",
        };
        out.push(Diagnostic::new(
            R1_UNDOCUMENTED_UNSAFE,
            &file.path,
            tok.line,
            format!("{what} without an adjacent `// SAFETY:` comment"),
        ));
    }
}

/// R2: nothing on the wire decode path may panic — decoding runs on bytes
/// received from other sites. `unwrap`/`expect`, panicking macros and slice
/// indexing are denied in `crates/wire/src` outside encode-side builders.
fn r2_panic_free_decode(file: &FileContext, out: &mut Vec<Diagnostic>) {
    if !file.path.starts_with("crates/wire/src/") {
        return;
    }
    const PANIC_MACROS: [&str; 8] = [
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
        "debug_assert",
    ];
    let encode_side = |idx: usize| {
        file.enclosing_fn(idx).is_some_and(|f| {
            f.name.starts_with("encode") || f.name.starts_with("put_") || f.name == "state_payload"
        })
    };
    let mut attr_depth_until: usize = 0;
    for (i, tok) in file.tokens.iter().enumerate() {
        // Track `#[…]` attribute spans so their bracket lists are not
        // mistaken for slice indexing.
        if tok.text == "#" && tok_is(file, i + 1, "[") && i + 1 >= attr_depth_until {
            attr_depth_until = crate::scope::attr_end(file, i + 1) + 1;
        }
        if file.in_test_code(i) || encode_side(i) {
            continue;
        }
        match tok.kind {
            TokenKind::Ident => {
                // `.unwrap()` / `.expect(…)` method calls.
                if (tok.text == "unwrap" || tok.text == "expect")
                    && i > 0
                    && tok_is(file, i - 1, ".")
                    && tok_is(file, i + 1, "(")
                {
                    out.push(Diagnostic::new(
                        R2_PANIC_FREE_DECODE,
                        &file.path,
                        tok.line,
                        format!(
                            "`.{}()` on the wire decode path; return a typed `WireError` instead",
                            tok.text
                        ),
                    ));
                }
                // `panic!(…)` and friends.
                if PANIC_MACROS.contains(&tok.text.as_str()) && tok_is(file, i + 1, "!") {
                    out.push(Diagnostic::new(
                        R2_PANIC_FREE_DECODE,
                        &file.path,
                        tok.line,
                        format!("`{}!` on the wire decode path; malformed bytes must never panic a site", tok.text),
                    ));
                }
            }
            TokenKind::Punct if tok.text == "[" && i >= attr_depth_until => {
                // Indexing expression: `expr[…]` — the previous token closes
                // an expression. Array literals (`[0u8; 8]`) follow `=`,
                // `(`, `,`, … and are not flagged.
                let indexes = i > 0
                    && file.tokens.get(i - 1).is_some_and(|p| {
                        p.kind == TokenKind::Ident && !is_keyword(&p.text)
                            || p.text == "]"
                            || p.text == ")"
                    });
                if indexes {
                    out.push(Diagnostic::new(
                        R2_PANIC_FREE_DECODE,
                        &file.path,
                        tok.line,
                        "slice/array indexing on the wire decode path; use `.get()` and return a typed `WireError`".to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
}

fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "if" | "else"
            | "match"
            | "return"
            | "in"
            | "for"
            | "while"
            | "loop"
            | "break"
            | "continue"
            | "as"
            | "mut"
            | "ref"
            | "move"
            | "let"
            | "const"
            | "static"
    )
}

/// R3: outcome-affecting crates must not iterate hash-randomized
/// collections. `HashMap`/`HashSet` with the default `RandomState` hasher
/// (no explicit hasher parameter, or `::new()`, which always means
/// `RandomState`) and `RandomState`/`DefaultHasher` themselves are denied.
fn r3_nondeterministic_collections(file: &FileContext, out: &mut Vec<Diagnostic>) {
    let in_scope = [
        "crates/core/src/",
        "crates/dist/src/",
        "crates/wire/src/",
        "crates/query/src/",
    ]
    .iter()
    .any(|p| file.path.starts_with(p));
    if !in_scope {
        return;
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || file.in_test_code(i) {
            continue;
        }
        match tok.text.as_str() {
            "RandomState" | "DefaultHasher" => {
                // The import or any direct use is already the violation —
                // there is no deterministic way to use a random hasher.
                out.push(Diagnostic::new(
                    R3_NONDETERMINISTIC_COLLECTIONS,
                    &file.path,
                    tok.line,
                    format!(
                        "`{}` is seeded per-process; iteration order leaks into outcomes",
                        tok.text
                    ),
                ));
            }
            "HashMap" | "HashSet" => {
                let required_args = if tok.text == "HashMap" { 3 } else { 2 };
                if tok_is(file, i + 1, "<") {
                    let args = generic_arg_count(file, i + 1);
                    if args < required_args {
                        out.push(Diagnostic::new(
                            R3_NONDETERMINISTIC_COLLECTIONS,
                            &file.path,
                            tok.line,
                            format!(
                                "`{}` with the default `RandomState` hasher; use BTree/interned \
                                 indices, or name an FxHash-style hasher and document insertion order",
                                tok.text
                            ),
                        ));
                    }
                } else if tok_is(file, i + 1, ":")
                    && tok_is(file, i + 2, ":")
                    && tok_is(file, i + 3, "new")
                {
                    out.push(Diagnostic::new(
                        R3_NONDETERMINISTIC_COLLECTIONS,
                        &file.path,
                        tok.line,
                        format!(
                            "`{}::new()` always selects `RandomState`; construct via `::default()` \
                             with an explicit hasher type annotation instead",
                            tok.text
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Count top-level generic arguments of the `<…>` starting at token `open`.
/// Understands nested `<>`/`()`/`[]` and the `->` arrow (whose `>` does not
/// close a generic list).
fn generic_arg_count(file: &FileContext, open: usize) -> usize {
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut args = 0usize;
    let mut saw_any = false;
    let mut prev = "";
    for tok in &file.tokens[open..] {
        let t = tok.text.as_str();
        if tok.kind == TokenKind::Punct {
            match t {
                "<" => angle += 1,
                ">" if prev == "-" => {} // `->` return arrow
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        return args + usize::from(saw_any);
                    }
                }
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "," if angle == 1 && paren == 0 => args += 1,
                _ => {}
            }
        }
        if angle >= 1 && !(angle == 1 && t == "<") {
            saw_any = true;
        }
        prev = t;
    }
    args + usize::from(saw_any)
}

/// R4: the exactness-critical files (the dense EM and its scalar reference)
/// must not reassociate floating-point accumulation. Flagged patterns:
/// `.fold(` calls and `+=` into a local float-array accumulator
/// (`let mut acc = [0.0f64; LANES]; … acc[l] += …`) — the multi-accumulator
/// sum shape. No function is exempt; an order-independent fold takes a
/// per-line waiver with the argument.
fn r4_float_exactness(file: &FileContext, out: &mut Vec<Diagnostic>) {
    const SCOPE: [&str; 3] = [
        "crates/core/src/dense.rs",
        "crates/core/src/dense/kernels.rs",
        "crates/core/src/posterior.rs",
    ];
    if !SCOPE.contains(&file.path.as_str()) {
        return;
    }
    // Pass 1: names of local float-array accumulators
    // (`let mut NAME = [<float literal>; …]`).
    let mut float_arrays: Vec<(String, usize)> = Vec::new();
    for (i, tok) in file.tokens.iter().enumerate() {
        if tok.text == "let"
            && tok_is(file, i + 1, "mut")
            && file.tokens.get(i + 2).map(|t| t.kind) == Some(TokenKind::Ident)
            && tok_is(file, i + 3, "=")
            && tok_is(file, i + 4, "[")
        {
            let lit_at = if tok_is(file, i + 5, "-") {
                i + 6
            } else {
                i + 5
            };
            let is_float_lit = file.tokens.get(lit_at).is_some_and(|t| {
                t.kind == TokenKind::Number
                    && (t.text.contains('.') || t.text.contains("f64") || t.text.contains("f32"))
            });
            if is_float_lit {
                float_arrays.push((file.tokens[i + 2].text.clone(), i));
            }
        }
    }
    // Pass 2: the two trigger patterns.
    for (i, tok) in file.tokens.iter().enumerate() {
        if file.in_test_code(i) {
            continue;
        }
        // `.fold(`
        if tok.kind == TokenKind::Ident
            && tok.text == "fold"
            && i > 0
            && tok_is(file, i - 1, ".")
            && tok_is(file, i + 1, "(")
        {
            out.push(Diagnostic::new(
                R4_FLOAT_EXACTNESS,
                &file.path,
                tok.line,
                "`.fold(…)` in an exactness-critical file; reassociating folds change results \
                 — waive with the order-independence argument if this one cannot"
                    .to_string(),
            ));
        }
        // `NAME[…] += …` where NAME is a local float-array accumulator.
        if tok.kind == TokenKind::Ident
            && float_arrays.iter().any(|(n, _)| *n == tok.text)
            && tok_is(file, i + 1, "[")
        {
            let close = crate::scope::attr_end(file, i + 1);
            if tok_is(file, close + 1, "+") && tok_is(file, close + 2, "=") {
                out.push(Diagnostic::new(
                    R4_FLOAT_EXACTNESS,
                    &file.path,
                    tok.line,
                    format!(
                        "multi-accumulator sum into float array `{}`; splitting one running sum \
                         across lanes reassociates it",
                        tok.text
                    ),
                ));
            }
        }
    }
}

/// R5: solver and replay code must not read wall clocks — a
/// timing-dependent branch would make parallel replay nondeterministic.
/// Stats and bench modules are exempt by path.
fn r5_no_wall_clock(file: &FileContext, out: &mut Vec<Diagnostic>) {
    let in_scope = [
        "crates/core/src/",
        "crates/dist/src/",
        "crates/wire/src/",
        "crates/query/src/",
    ]
    .iter()
    .any(|p| file.path.starts_with(p));
    let exempt_file = file.path.contains("stats") || file.path.contains("bench");
    if !in_scope || exempt_file {
        return;
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || file.in_test_code(i) {
            continue;
        }
        if (tok.text == "Instant" || tok.text == "SystemTime")
            && tok_is(file, i + 1, ":")
            && tok_is(file, i + 2, ":")
            && tok_is(file, i + 3, "now")
        {
            out.push(Diagnostic::new(
                R5_NO_WALL_CLOCK,
                &file.path,
                tok.line,
                format!(
                    "`{}::now()` in solver/replay code; wall-clock must never influence outcomes \
                     — move to a stats/bench module or waive with the proof it only feeds stats",
                    tok.text
                ),
            ));
        }
    }
}

/// R6: every wire payload kind must be covered by a corrupted-bytes fuzz
/// case. The chaos injector flips bits in live payloads, so an unfuzzed
/// decoder is a quarantine-path liability — each `const KIND_*` declaration
/// in `crates/wire/src` must carry an adjacent `// FUZZ:` comment naming the
/// fuzz test that feeds that kind corrupted bytes.
fn r6_wire_fuzz_coverage(file: &FileContext, out: &mut Vec<Diagnostic>) {
    if !file.path.starts_with("crates/wire/src/") {
        return;
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if tok.text != "const" || file.in_test_code(i) {
            continue;
        }
        let Some(name) = file.tokens.get(i + 1) else {
            continue;
        };
        if name.kind != TokenKind::Ident || !name.text.starts_with("KIND_") {
            continue;
        }
        if file.comment_near(tok.line, SAFETY_WINDOW, "FUZZ:") {
            continue;
        }
        out.push(Diagnostic::new(
            R6_WIRE_FUZZ_COVERAGE,
            &file.path,
            tok.line,
            format!(
                "wire kind `{}` without an adjacent `// FUZZ:` comment naming its \
                 corrupted-bytes fuzz case; the quarantine path makes unfuzzed decoders a liability",
                name.text
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        run_all(&FileContext::new(path.to_string(), lex(src)))
    }

    #[test]
    fn r1_fires_without_safety_and_stays_quiet_with_it() {
        let bad = diags("crates/core/src/x.rs", "fn f() { unsafe { g() } }");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, R1_UNDOCUMENTED_UNSAFE);
        let good = diags(
            "crates/core/src/x.rs",
            "fn f() {\n  // SAFETY: g is safe here because reasons\n  unsafe { g() }\n}",
        );
        assert!(good.is_empty());
        // `# Safety` doc sections document unsafe fns.
        let doc = diags(
            "crates/core/src/x.rs",
            "/// Does things.\n///\n/// # Safety\n/// Caller must check the feature.\nunsafe fn f() {}",
        );
        assert!(doc.is_empty());
    }

    #[test]
    fn r2_catches_unwrap_panics_and_indexing_in_wire_only() {
        let src = "fn decode_x(b: &[u8]) -> u8 { let v = b.first().unwrap(); b[0] + *v }";
        let in_wire = diags("crates/wire/src/codec.rs", src);
        assert_eq!(in_wire.len(), 2, "{in_wire:?}");
        assert!(in_wire.iter().all(|d| d.rule == R2_PANIC_FREE_DECODE));
        assert!(diags("crates/core/src/engine.rs", src).is_empty());
        // Encode-side builders are exempt; tests are exempt.
        let encode = "fn encode_x(v: u8) { table.index_of(v).expect(\"interned\"); }";
        assert!(diags("crates/wire/src/codec.rs", encode).is_empty());
        let test = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        assert!(diags("crates/wire/src/codec.rs", test).is_empty());
        let mac = "fn decode_y() { unreachable!(\"bad\") }";
        assert_eq!(diags("crates/wire/src/codec.rs", mac).len(), 1);
    }

    #[test]
    fn r2_does_not_mistake_attributes_or_array_literals_for_indexing() {
        let src = "#[derive(Debug, Clone)]\nfn decode_x() { let raw = [0u8; 8]; take(&raw); }";
        assert!(diags("crates/wire/src/primitives.rs", src).is_empty());
    }

    #[test]
    fn r3_catches_default_hashers_and_allows_explicit_ones() {
        let bad_ty = "fn f() { let m: HashMap<u64, u32> = HashMap::default(); }";
        let d = diags("crates/core/src/x.rs", bad_ty);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, R3_NONDETERMINISTIC_COLLECTIONS);
        let bad_new = "fn f() { let m = HashMap::new(); }";
        assert_eq!(diags("crates/dist/src/x.rs", bad_new).len(), 1);
        let good = "fn f() { let m: HashMap<Key, u32, BuildHasherDefault<FxHasher>> = HashMap::default(); }";
        assert!(diags("crates/core/src/x.rs", good).is_empty());
        let import_only = "use std::collections::HashMap;";
        assert!(diags("crates/core/src/x.rs", import_only).is_empty());
        // Out-of-scope crates may use whatever they like.
        assert!(diags("crates/sim/src/x.rs", bad_new).is_empty());
        // HashSet needs 2 params to name a hasher.
        assert_eq!(
            diags("crates/query/src/x.rs", "fn f(s: HashSet<u32>) {}").len(),
            1
        );
        assert!(diags(
            "crates/query/src/x.rs",
            "fn f(s: HashSet<u32, FxBuildHasher>) {}"
        )
        .is_empty());
        assert_eq!(
            diags(
                "crates/core/src/x.rs",
                "use std::collections::hash_map::RandomState;"
            )
            .len(),
            1
        );
    }

    #[test]
    fn r3_generic_counting_handles_nesting_and_arrows() {
        let nested =
            "fn f() { let m: HashMap<Vec<(u8, u16)>, fn(u8) -> u8, FxBuildHasher> = HashMap::default(); }";
        assert!(diags("crates/core/src/x.rs", nested).is_empty());
        let nested_bad =
            "fn f() { let m: HashMap<Vec<(u8, u16)>, fn(u8) -> u8> = HashMap::default(); }";
        assert_eq!(diags("crates/core/src/x.rs", nested_bad).len(), 1);
    }

    #[test]
    fn r4_catches_folds_and_lane_accumulators_in_scope_only() {
        let fold =
            "fn m(xs: &[f64]) -> f64 { xs.iter().copied().fold(f64::NEG_INFINITY, f64::max) }";
        assert_eq!(diags("crates/core/src/posterior.rs", fold).len(), 1);
        assert!(diags("crates/core/src/engine.rs", fold).is_empty());
        let lanes = "fn s(xs: &[f64]) -> f64 {\n let mut lanes = [0.0f64; 8];\n for x in xs { lanes[0] += x; }\n lanes.iter().sum()\n}";
        assert_eq!(diags("crates/core/src/dense/kernels.rs", lanes).len(), 1);
        // Integer counting sorts do not trip the accumulator pattern.
        let counts = "fn c(xs: &[u32]) {\n let mut fill = [0u32; 8];\n for &x in xs { fill[x as usize] += 1; }\n}";
        assert!(diags("crates/core/src/dense.rs", counts).is_empty());
    }

    #[test]
    fn r6_requires_fuzz_annotations_on_wire_kinds() {
        let bare = "const KIND_MIGRATION: u8 = 0x01;";
        let d = diags("crates/wire/src/codec.rs", bare);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, R6_WIRE_FUZZ_COVERAGE);
        let annotated =
            "// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind\nconst KIND_MIGRATION: u8 = 0x01;";
        assert!(diags("crates/wire/src/codec.rs", annotated).is_empty());
        // Non-kind constants and out-of-scope crates are not covered.
        assert!(diags("crates/wire/src/codec.rs", "const HEADER_LEN: usize = 4;").is_empty());
        assert!(diags("crates/core/src/x.rs", bare).is_empty());
    }

    #[test]
    fn r5_catches_clocks_outside_stats_and_bench() {
        let src = "fn run() { let t = Instant::now(); }";
        assert_eq!(diags("crates/core/src/engine.rs", src).len(), 1);
        assert!(diags("crates/bench/src/distributed.rs", src).is_empty());
        assert!(diags("crates/core/src/stats.rs", src).is_empty());
        assert_eq!(
            diags("crates/dist/src/driver.rs", "fn f() { SystemTime::now(); }").len(),
            1
        );
    }
}
