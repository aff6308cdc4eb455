//! Property-based tests of the lexer and the parser (via the in-tree
//! `propcheck` engine): lexing is total and lossless on arbitrary
//! input, re-lexing the concatenation of an already-lexed token stream
//! is a fixed point, and the parser's owner assignment — what every
//! digest- and test-gated rule scopes itself by — partitions the code
//! stream.

use dui_lint::lexer::lex;
use dui_lint::parse::ParsedFile;
use dui_stats::propcheck::Gen;
use dui_stats::{prop_assert, prop_assert_eq, prop_check};

/// A pool of token texts covering every lexer mode; random
/// concatenations (whitespace-separated, so adjacent picks cannot fuse
/// into a different token) exercise mode transitions.
const POOL: &[&str] = &[
    "fn",
    "ident",
    "r#match",
    "x1_y2",
    "'a",
    "'static",
    "'x'",
    "'\\n'",
    "'\\''",
    "b'q'",
    "\"plain\"",
    "\"esc \\\" quote\"",
    "\"multi\nline\"",
    "r\"raw\"",
    "r#\"fenced \" quote\"#",
    "r##\"nested \"# fence\"##",
    "br#\"bytes\"#",
    "// line comment",
    "/// doc comment",
    "/* block */",
    "/* nested /* block */ comment */",
    "/** doc block */",
    "0",
    "42u64",
    "0xFF",
    "0b1010",
    "1_000_000",
    "1.5e-3",
    "3.14f64",
    "{",
    "}",
    "(",
    ")",
    "::",
    ";",
    ",",
    ".",
    "->",
    "=>",
    "==",
    "&&",
    "#",
    "!",
    "[",
    "]",
];

fn random_source(g: &mut Gen) -> String {
    let n = g.usize(0..40);
    let mut src = String::new();
    for _ in 0..n {
        src.push_str(POOL[g.usize(0..POOL.len())]);
        // Line comments must terminate before the next token.
        src.push(if g.bool() { ' ' } else { '\n' });
    }
    src
}

/// Random item soup: fns (possibly nested), consts, mods, impl blocks,
/// stray tokens at file level — enough shape variety to stress the
/// owner partition without needing valid Rust semantics.
fn random_items(g: &mut Gen, depth: usize) -> String {
    let n = g.usize(0..5);
    let mut src = String::new();
    for i in 0..n {
        match g.usize(0..6) {
            0 => {
                src.push_str(&format!("fn f{depth}_{i}(x: u32) {{\n    let y = x + 1;\n"));
                if depth < 2 && g.bool() {
                    for line in random_items(g, depth + 1).lines() {
                        src.push_str("    ");
                        src.push_str(line);
                        src.push('\n');
                    }
                }
                src.push_str("}\n");
            }
            1 => src.push_str(&format!("const C{depth}_{i}: u32 = {i};\n")),
            2 => {
                src.push_str(&format!("mod m{depth}_{i} {{\n"));
                if depth < 2 {
                    for line in random_items(g, depth + 1).lines() {
                        src.push_str("    ");
                        src.push_str(line);
                        src.push('\n');
                    }
                }
                src.push_str("}\n");
            }
            3 => src.push_str(&format!(
                "impl T{depth}_{i} {{\n    fn m(&self) {{ self.x(); }}\n}}\n"
            )),
            4 => src.push_str(&format!("struct S{depth}_{i} {{ a: u32, b: u32 }}\n")),
            _ => src.push_str("; ; { } [ ] ( )\n"),
        }
    }
    src
}

prop_check! {
    fn owner_assignment_partitions_the_code_stream(g) {
        let src = random_items(g, 0);
        let f = ParsedFile::parse("crates/x/src/lib.rs", &src);
        prop_assert_eq!(f.ctx.len(), f.scan.code.len());
        let spans = f.owner_spans();
        if f.scan.code.is_empty() {
            prop_assert!(spans.is_empty());
        } else {
            // Maximal runs: cover [0, len) exactly, no gaps, no
            // overlaps, adjacent spans differ in owner.
            prop_assert_eq!(spans[0].0, 0);
            prop_assert_eq!(spans[spans.len() - 1].1, f.scan.code.len());
            for w in spans.windows(2) {
                prop_assert_eq!(w[0].1, w[1].0);
                prop_assert!(w[0].2 != w[1].2);
            }
            // Every owner is a real item id, and every fn item owns at
            // least its own body tokens.
            for &(_, _, id) in &spans {
                prop_assert!((id as usize) < f.items.len());
            }
        }
    }

    fn lex_is_lossless_on_token_soup(g) {
        let src = random_source(g);
        let toks = lex(&src);
        let rebuilt: String = toks.iter().map(|t| t.text).collect();
        prop_assert_eq!(&rebuilt, &src);
    }

    fn relex_is_a_fixed_point(g) {
        let src = random_source(g);
        let first = lex(&src);
        let rebuilt: String = first.iter().map(|t| t.text).collect();
        let second = lex(&rebuilt);
        prop_assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(second.iter()) {
            prop_assert_eq!(a.text, b.text);
            prop_assert_eq!(a.line, b.line);
            prop_assert_eq!(a.col, b.col);
        }
    }

    fn lex_is_total_on_arbitrary_bytes(g) {
        // Printable-ish ASCII soup with quote/backslash/brace bias:
        // unterminated strings, stray fences, lone backslashes — the
        // lexer must neither panic nor drop bytes.
        let n = g.usize(0..120);
        let mut src = String::new();
        for _ in 0..n {
            let c = match g.usize(0..8) {
                0 => '"',
                1 => '\'',
                2 => '\\',
                3 => '#',
                4 => 'r',
                5 => '/',
                6 => '\n',
                _ => g.u8(0x20..0x7f) as char,
            };
            src.push(c);
        }
        let toks = lex(&src);
        let rebuilt: String = toks.iter().map(|t| t.text).collect();
        prop_assert_eq!(&rebuilt, &src);
        prop_assert!(toks.iter().all(|t| !t.text.is_empty()));
    }
}
