//! Token-level scan: the resolution layer between the raw token
//! stream and the rules.
//!
//! Not a parser — a single forward pass over [`crate::lexer`] tokens
//! that recovers what can be read off the tokens without knowing item
//! structure:
//!
//! * **the code-token index** — the non-trivia tokens every rule and
//!   the parser address by position;
//! * **`use` declarations**, including `as` renames, nested
//!   `{…}` groups, and glob imports — so a rule asking "is
//!   `std::time::Instant` imported here, under any name?" gets a real
//!   answer instead of a grep guess;
//! * **inner attributes** on the crate root (for `docs/missing-deny`);
//! * **line helpers** for the marker and escape-annotation
//!   (`// lint: allow(panic): <reason>`) comment conventions.
//!
//! Item structure — function boundaries, `impl`/`trait` blocks,
//! `#[cfg(test)]` / `#[test]` regions — is tracked in exactly one
//! place, [`crate::parse::ParsedFile::parse`], which runs over this
//! file's code tokens.

use crate::lexer::{lex, Tok, TokKind};

/// One resolved `use` binding: `local` names `path` in this file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// The name the binding introduces locally (the alias after `as`,
    /// or the final path segment). `"*"` for glob imports.
    pub local: String,
    /// Full path segments, e.g. `["std", "time", "Instant"]`.
    pub path: Vec<String>,
    /// 1-based line of the binding's defining token.
    pub line: u32,
    /// 1-based column of the binding's defining token.
    pub col: u32,
}

/// A lexed and scanned source file, ready for rules.
#[derive(Debug)]
pub struct ScannedFile<'s> {
    /// Repo-relative path with `/` separators (stable across hosts).
    pub path: String,
    /// The source text.
    pub src: &'s str,
    /// The full lossless token stream.
    pub toks: Vec<Tok<'s>>,
    /// Indices into `toks` of the non-trivia (code) tokens.
    pub code: Vec<usize>,
    /// Every `use` binding in the file.
    pub uses: Vec<UseDecl>,
    /// Crate-root inner attributes, one ident list per attribute
    /// (`#![deny(missing_docs)]` contributes `["deny",
    /// "missing_docs"]`). Grouped per attribute so rules can ask
    /// "does *one* attribute pair `deny` with `missing_docs`?" —
    /// an ident bag would conflate `#![warn(missing_docs)]` +
    /// `#![forbid(unsafe_code)]` with the real thing.
    pub inner_attrs: Vec<Vec<String>>,
    lines: Vec<&'s str>,
}

impl<'s> ScannedFile<'s> {
    /// Lex and scan `src` as the file at `path` (repo-relative).
    pub fn new(path: &str, src: &'s str) -> Self {
        let toks = lex(src);
        let mut f = ScannedFile {
            path: path.to_string(),
            src,
            code: toks
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.kind.is_trivia())
                .map(|(i, _)| i)
                .collect(),
            toks,
            uses: Vec::new(),
            inner_attrs: Vec::new(),
            lines: src.lines().collect(),
        };
        f.scan();
        f
    }

    /// The code token at code-index `i` (not a raw token index).
    pub fn ct(&self, i: usize) -> &Tok<'s> {
        &self.toks[self.code[i]]
    }

    /// Text of code token `i`, or `""` past the end.
    pub fn ctext(&self, i: usize) -> &'s str {
        self.code.get(i).map_or("", |&j| self.toks[j].text)
    }

    /// True if code tokens `i, i+1` are `::`.
    pub fn path_sep(&self, i: usize) -> bool {
        self.ctext(i) == ":" && self.ctext(i + 1) == ":"
    }

    /// The (trimmed) text of 1-based line `n`, or `""`.
    pub fn line_text(&self, n: u32) -> &'s str {
        self.lines
            .get(n.saturating_sub(1) as usize)
            .map_or("", |l| l.trim())
    }

    /// True if 1-based line `n` or the line above contains `needle`
    /// (raw text, comments included) — the marker convention shared by
    /// the hash rule (`sorted` / `write_unordered`) and the escape
    /// annotations (each rule's `ALLOW` constant).
    pub fn line_or_above_contains(&self, n: u32, needle: &str) -> bool {
        let here = self
            .lines
            .get(n.saturating_sub(1) as usize)
            .is_some_and(|l| l.contains(needle));
        let above = n >= 2
            && self
                .lines
                .get(n.saturating_sub(2) as usize)
                .is_some_and(|l| l.contains(needle));
        here || above
    }

    /// Resolve a local identifier through this file's `use` bindings.
    pub fn resolve_use(&self, local: &str) -> Option<&UseDecl> {
        self.uses.iter().find(|u| u.local == local)
    }

    /// Record every `use` binding and the crate-root inner attributes.
    fn scan(&mut self) {
        // Brace depth: only attributes at depth 0 are the crate root's.
        let mut depth = 0usize;
        let mut i = 0usize;
        while i < self.code.len() {
            match self.ctext(i) {
                "#" => {
                    // Attribute: collect idents inside the balanced [ ]
                    // and step over it (its tokens are not items).
                    let inner = self.ctext(i + 1) == "!";
                    let open = if inner { i + 2 } else { i + 1 };
                    if self.ctext(open) == "[" {
                        let (idents, end) = self.collect_bracketed_idents(open);
                        if inner && depth == 0 {
                            self.inner_attrs.push(idents);
                        }
                        i = end;
                        continue;
                    }
                }
                "use" => {
                    if let Some(end) = self.use_item_end(i) {
                        self.parse_use(i + 1);
                        i = end;
                        continue;
                    }
                }
                "{" => depth += 1,
                "}" => depth = depth.saturating_sub(1),
                _ => {}
            }
            i += 1;
        }
    }

    /// If code token `i` is a `use` keyword in item position (not a
    /// field or path segment that happens to be spelled `use`), the
    /// code index one past the declaration's terminating `;`.
    pub(crate) fn use_item_end(&self, i: usize) -> Option<usize> {
        let prev = if i == 0 { "" } else { self.ctext(i - 1) };
        if self.ctext(i) != "use" || !matches!(prev, "" | "}" | ";" | "]" | "{" | "pub" | ")") {
            return None;
        }
        let mut end = i + 1;
        while end < self.code.len() && self.ctext(end) != ";" {
            end += 1;
        }
        Some(end + 1)
    }

    /// Idents inside one balanced `[ … ]` starting at code index
    /// `open` (which must be `[`). Returns (idents, code index one
    /// past the closing `]`).
    pub(crate) fn collect_bracketed_idents(&self, open: usize) -> (Vec<String>, usize) {
        let mut idents = Vec::new();
        let mut depth = 0i32;
        let mut i = open;
        while i < self.code.len() {
            let t = self.ct(i);
            match t.text {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return (idents, i + 1);
                    }
                }
                _ => {
                    if t.kind == TokKind::Ident {
                        idents.push(t.text.to_string());
                    }
                }
            }
            i += 1;
        }
        (idents, i)
    }

    /// Parse one `use` declaration starting at the code token after
    /// the `use` keyword and record its bindings.
    fn parse_use(&mut self, start: usize) {
        let mut i = start;
        let mut decls = Vec::new();
        self.parse_use_tree(&mut i, &mut Vec::new(), &mut decls);
        self.uses.extend(decls);
    }

    fn parse_use_tree(&self, i: &mut usize, prefix: &mut Vec<String>, out: &mut Vec<UseDecl>) {
        let depth_at_entry = prefix.len();
        let mut last: Option<(String, u32, u32)> = None; // seg, line, col
        while *i < self.code.len() {
            let tok = *self.ct(*i);
            match tok.text {
                ";" | "," | "}" => {
                    if let Some((seg, line, col)) = last.take() {
                        let mut path = prefix.clone();
                        path.push(seg.clone());
                        out.push(UseDecl {
                            local: seg,
                            path,
                            line,
                            col,
                        });
                    }
                    prefix.truncate(depth_at_entry);
                    if tok.text != ";" {
                        // Caller (the `{` loop) consumes `,` / `}`.
                    }
                    return;
                }
                ":" => {
                    if self.path_sep(*i) {
                        if let Some((seg, _, _)) = last.take() {
                            prefix.push(seg);
                        }
                        *i += 2;
                        continue;
                    }
                    *i += 1;
                }
                "{" => {
                    *i += 1;
                    loop {
                        self.parse_use_tree(i, prefix, out);
                        match self.ctext(*i) {
                            "," => {
                                *i += 1;
                                continue;
                            }
                            "}" => {
                                *i += 1;
                                break;
                            }
                            _ => break, // `;` or EOF: bail out
                        }
                    }
                    prefix.truncate(depth_at_entry);
                    return;
                }
                "as" => {
                    // `path as Alias`
                    let alias_tok = if *i + 1 < self.code.len() {
                        Some(*self.ct(*i + 1))
                    } else {
                        None
                    };
                    if let (Some((seg, _, _)), Some(a)) = (last.take(), alias_tok) {
                        let mut path = prefix.clone();
                        path.push(seg);
                        out.push(UseDecl {
                            local: a.text.to_string(),
                            path,
                            line: a.line,
                            col: a.col,
                        });
                    }
                    *i += 2;
                }
                "*" => {
                    out.push(UseDecl {
                        local: "*".to_string(),
                        path: prefix.clone(),
                        line: tok.line,
                        col: tok.col,
                    });
                    *i += 1;
                }
                _ if tok.kind == TokKind::Ident => {
                    last = Some((tok.text.to_string(), tok.line, tok.col));
                    *i += 1;
                }
                _ => {
                    *i += 1;
                }
            }
        }
        if let Some((seg, line, col)) = last.take() {
            let mut path = prefix.clone();
            path.push(seg.clone());
            out.push(UseDecl {
                local: seg,
                path,
                line,
                col,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanned(src: &str) -> ScannedFile<'_> {
        ScannedFile::new("crates/x/src/lib.rs", src)
    }

    #[test]
    fn use_aliases_and_groups() {
        let f = scanned(
            "use std::time::Instant as T;\n\
             use std::collections::{HashMap, HashSet as Set};\n\
             use rand::*;\n",
        );
        let t = f.resolve_use("T").unwrap();
        assert_eq!(t.path, ["std", "time", "Instant"]);
        assert_eq!(
            f.resolve_use("HashMap").unwrap().path,
            ["std", "collections", "HashMap"]
        );
        assert_eq!(
            f.resolve_use("Set").unwrap().path,
            ["std", "collections", "HashSet"]
        );
        let glob = f.uses.iter().find(|u| u.local == "*").unwrap();
        assert_eq!(glob.path, ["rand"]);
    }

    #[test]
    fn inner_attrs_grouped_per_attribute() {
        let f = scanned("#![deny(missing_docs)]\n#![forbid(unsafe_code)]\nfn x() {}\n");
        assert_eq!(
            f.inner_attrs,
            [vec!["deny".to_string(), "missing_docs".to_string()],
             vec!["forbid".to_string(), "unsafe_code".to_string()]]
        );
    }

    #[test]
    fn marker_line_queries() {
        let f = scanned("let a = 1;\n// via flows_sorted\nlet b = m.keys();\n");
        assert!(f.line_or_above_contains(3, "sorted"));
        assert!(!f.line_or_above_contains(1, "sorted"));
    }
}
