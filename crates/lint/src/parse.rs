//! Item-level parser: `fn` bodies, `impl`/`trait` blocks and
//! `#[cfg(test)]` regions as a per-token context — the one structural
//! pass over a file, read by every rule that scopes itself.
//!
//! One forward pass over [`crate::scan::ScannedFile`]'s lossless
//! code-token stream tracks item scopes. [`ParsedFile::ctx`] records
//! for every code token the innermost `fn` item whose body contains it
//! (0 = the whole-file pseudo-item), whether it sits inside a
//! test-gated body, and its innermost `impl`/`trait` block. The owners
//! are an exact, gap-free partition of the token stream — the property
//! the parser propcheck suite pins down — and the record is what the
//! panic, cast, hash, arena and decode rules scope themselves by.
//!
//! This is a heuristic single pass, not a grammar: macro bodies are
//! treated as code (a struct-literal brace after a gated `const` is
//! taken for the gated region), and exotic shapes (multi-line
//! attributes, const-generic default braces) may mis-assign a span,
//! erring on the side the rules want. A `;` ends a pending item only
//! outside `(…)`/`[…]`, so an array type in a signature —
//! `fn f(pad: [u8; 4])`, `-> [u8; 8]` — neither loses the body nor
//! drops a `#[test]` gate. It is total (never panics) and fully
//! deterministic.

use crate::lexer::TokKind;
use crate::scan::ScannedFile;

/// What the parser knows about the surroundings of one code token.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenCtx {
    /// Index into [`ParsedFile::items`] of the innermost `fn` item
    /// whose body contains the token (0 = file level).
    pub owner: u32,
    /// Token sits inside a `#[cfg(test)]` / `#[test]`-gated body.
    pub cfg_test: bool,
    /// Innermost enclosing `impl`/`trait` block, as an index into the
    /// parser's block table (see [`ParsedFile::enclosing_type`]).
    block: Option<u32>,
}

/// A scanned file plus its item layer.
#[derive(Debug)]
pub struct ParsedFile<'s> {
    /// The underlying token-level scan.
    pub scan: ScannedFile<'s>,
    /// Names of the `fn` items that have a body, in definition order;
    /// index 0 is the file pseudo-item (`""`).
    pub items: Vec<String>,
    /// Context of each code token. Same length as `scan.code`; the
    /// owners are a total, gap-free assignment.
    pub ctx: Vec<TokenCtx>,
    /// `(self type, trait)` of every `impl`/`trait` block header seen.
    blocks: Vec<(String, Option<String>)>,
}

enum FrameKind {
    Plain,
    Fn,
    Type,
}

struct Frame {
    kind: FrameKind,
    test: bool,
}

impl<'s> ParsedFile<'s> {
    /// Lex, scan, and parse `src` as the file at `path`
    /// (repo-relative, `/`-separated).
    pub fn parse(path: &str, src: &'s str) -> Self {
        let scan = ScannedFile::new(path, src);
        let mut items = vec![String::new()];
        let mut ctx: Vec<TokenCtx> = Vec::with_capacity(scan.code.len());
        let mut blocks: Vec<(String, Option<String>)> = Vec::new();

        let mut frames: Vec<Frame> = vec![Frame {
            kind: FrameKind::Plain,
            test: false,
        }];
        let mut fn_stack: Vec<u32> = Vec::new();
        let mut type_stack: Vec<u32> = Vec::new(); // indices into `blocks`

        let mut pending_test = false;
        // Name of a `fn` whose body has not opened yet, and whether a
        // test gate was pending when its keyword was seen.
        let mut pending_fn: Option<(String, bool)> = None;
        let mut pending_impl: Option<Vec<String>> = None;
        let mut pending_trait: Option<String> = None;
        // `(`/`[` nesting depth: a `;` only terminates a pending item
        // at depth 0 (so `fn f(x: [u8; 4])` keeps its body).
        let mut depth = 0i32;

        let mut i = 0usize;
        while i < scan.code.len() {
            let top_test = frames.last().is_some_and(|f| f.test);
            let cur = TokenCtx {
                owner: fn_stack.last().copied().unwrap_or(0),
                cfg_test: top_test,
                block: type_stack.last().copied(),
            };
            ctx.push(cur);
            let tok = *scan.ct(i);
            match tok.text {
                "#" => {
                    let inner = scan.ctext(i + 1) == "!";
                    let open = if inner { i + 2 } else { i + 1 };
                    if scan.ctext(open) == "[" {
                        let (idents, end) = scan.collect_bracketed_idents(open);
                        // `test` marks a gated item; `not` (as in
                        // `cfg(not(test))`) cancels the gating.
                        if !inner
                            && idents.iter().any(|s| s == "test")
                            && !idents.iter().any(|s| s == "not")
                        {
                            pending_test = true;
                        }
                        ctx.resize(end.min(scan.code.len()), cur);
                        i = end;
                        continue;
                    }
                }
                "fn" => {
                    let name = scan.ctext(i + 1);
                    if !name.is_empty()
                        && scan.ct(i + 1).kind == TokKind::Ident
                        && pending_impl.is_none()
                        && pending_fn.is_none()
                    {
                        pending_fn = Some((name.to_string(), pending_test));
                    }
                }
                "impl" if pending_fn.is_none() && pending_impl.is_none() => {
                    // Only an item-position `impl` opens a block;
                    // `impl Trait` in types follows `(, :, ->, =, <, &`.
                    let prev = if i == 0 { "" } else { scan.ctext(i - 1) };
                    if matches!(prev, "" | "}" | "{" | ";" | "]" | "unsafe") {
                        pending_impl = Some(Vec::new());
                    }
                }
                "trait" if pending_fn.is_none() && pending_impl.is_none() => {
                    let prev = if i == 0 { "" } else { scan.ctext(i - 1) };
                    let name = scan.ctext(i + 1);
                    if matches!(prev, "" | "}" | "{" | ";" | "]" | "pub" | ")" | "unsafe")
                        && !name.is_empty()
                        && scan.ct(i + 1).kind == TokKind::Ident
                    {
                        pending_trait = Some(name.to_string());
                    }
                }
                "use" => {
                    if let Some(end) = scan.use_item_end(i) {
                        // The declaration's own `;` is stepped over, so
                        // a gate on it (`#[cfg(test)] use ..;`) ends here.
                        pending_test = false;
                        ctx.resize(end.min(scan.code.len()), cur);
                        i = end;
                        continue;
                    }
                }
                "(" | "[" => depth += 1,
                ")" | "]" => depth = (depth - 1).max(0),
                "{" => {
                    let gate = std::mem::take(&mut pending_test);
                    if let Some((name, gated)) = pending_fn.take() {
                        fn_stack.push(items.len() as u32);
                        items.push(name);
                        frames.push(Frame {
                            kind: FrameKind::Fn,
                            test: top_test || gated || gate,
                        });
                        pending_impl = None;
                        pending_trait = None;
                    } else if let Some(header) = pending_impl.take() {
                        let (trait_name, type_name) = split_impl_header(&header);
                        type_stack.push(blocks.len() as u32);
                        blocks.push((type_name, trait_name));
                        frames.push(Frame {
                            kind: FrameKind::Type,
                            test: top_test || gate,
                        });
                    } else if let Some(name) = pending_trait.take() {
                        type_stack.push(blocks.len() as u32);
                        blocks.push((name, None));
                        frames.push(Frame {
                            kind: FrameKind::Type,
                            test: top_test || gate,
                        });
                    } else {
                        frames.push(Frame {
                            kind: FrameKind::Plain,
                            test: top_test || gate,
                        });
                    }
                }
                "}" => {
                    if frames.len() > 1 {
                        if let Some(fr) = frames.pop() {
                            match fr.kind {
                                FrameKind::Fn => {
                                    fn_stack.pop();
                                }
                                FrameKind::Type => {
                                    type_stack.pop();
                                }
                                FrameKind::Plain => {}
                            }
                        }
                    }
                }
                ";" if depth == 0 => {
                    pending_fn = None; // bodyless: trait sig / extern decl
                    pending_impl = None;
                    pending_trait = None;
                    pending_test = false;
                }
                _ => {
                    if tok.kind == TokKind::Ident {
                        if let Some(h) = pending_impl.as_mut() {
                            h.push(tok.text.to_string());
                        }
                    }
                }
            }
            i += 1;
        }

        ParsedFile {
            scan,
            items,
            ctx,
            blocks,
        }
    }

    /// Name of the innermost `fn` item whose body contains code token
    /// `i`, if any.
    pub fn enclosing_fn(&self, i: usize) -> Option<&str> {
        let owner = self.ctx.get(i)?.owner;
        (owner != 0).then(|| self.items[owner as usize].as_str())
    }

    /// `(self type, trait)` of the innermost `impl`/`trait` block
    /// enclosing code token `i`, if any. The self type is the head
    /// identifier of `Type` in `impl Type` / `impl Trait for Type`,
    /// or the trait's own name inside a `trait` block.
    pub fn enclosing_type(&self, i: usize) -> Option<(&str, Option<&str>)> {
        let (ty, tr) = &self.blocks[self.ctx.get(i)?.block? as usize];
        Some((ty.as_str(), tr.as_deref()))
    }

    /// Maximal runs of same-owner code tokens as `(start, end, owner)`
    /// half-open ranges — by construction a gap-free, overlap-free
    /// partition of `0..scan.code.len()` (the parser propcheck pins
    /// this down).
    pub fn owner_spans(&self) -> Vec<(usize, usize, u32)> {
        let mut spans = Vec::new();
        let mut start = 0usize;
        for i in 1..=self.ctx.len() {
            if i == self.ctx.len() || self.ctx[i].owner != self.ctx[start].owner {
                spans.push((start, i, self.ctx[start].owner));
                start = i;
            }
        }
        spans
    }
}

/// Trait / self-type split of an impl-header ident run:
/// `impl <T: Ord> Trait <X> for Type <T>` → idents
/// `[T, Ord, Trait, X, for, Type, T]`. `for` splits trait from type
/// (the trait is the last plausible ident before it); without it the
/// first plausible ident is the self type.
fn split_impl_header(idents: &[String]) -> (Option<String>, String) {
    const SKIP: &[&str] = &["mut", "dyn", "const", "where", "as", "crate", "self", "Self"];
    if let Some(pos) = idents.iter().position(|s| s == "for") {
        let trait_name = idents[..pos]
            .iter()
            .rev()
            .find(|s| !SKIP.contains(&s.as_str()))
            .cloned();
        let type_name = idents[pos + 1..]
            .iter()
            .find(|s| !SKIP.contains(&s.as_str()))
            .cloned()
            .unwrap_or_default();
        (trait_name, type_name)
    } else {
        let type_name = idents
            .iter()
            .find(|s| !SKIP.contains(&s.as_str()))
            .cloned()
            .unwrap_or_default();
        (None, type_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(src: &str) -> ParsedFile<'_> {
        ParsedFile::parse("crates/x/src/lib.rs", src)
    }

    /// Code index of the first token spelled `text`.
    fn idx_of(f: &ParsedFile<'_>, text: &str) -> usize {
        (0..f.scan.code.len())
            .find(|&i| f.scan.ctext(i) == text)
            .expect(text)
    }

    #[test]
    fn fn_bodies_are_tracked() {
        let f = parsed(
            "fn state_digest(d: &mut D) { d.write(map.keys()); }\n\
             fn other() { x(); }\n",
        );
        assert_eq!(f.enclosing_fn(idx_of(&f, "keys")), Some("state_digest"));
        assert_eq!(f.enclosing_fn(idx_of(&f, "x")), Some("other"));
    }

    #[test]
    fn cfg_test_regions() {
        let f = parsed(
            "fn lib_path() { a.unwrap(); }\n\
             #[cfg(test)]\nmod tests {\n  fn t() { b.unwrap(); }\n}\n\
             #[cfg(not(test))]\nfn not_gated() { c.unwrap(); }\n",
        );
        assert!(!f.ctx[idx_of(&f, "a")].cfg_test);
        assert!(f.ctx[idx_of(&f, "b")].cfg_test);
        assert!(!f.ctx[idx_of(&f, "c")].cfg_test);
    }

    #[test]
    fn impl_blocks_trait_and_type() {
        let f = parsed(
            "impl ReplaySubject for Engine { fn state_hash(&self) -> u64 { self.x as u64 } }\n\
             impl StateDigest { fn write_u8(&mut self, v: u8) { self.go(v as u64) } }\n",
        );
        let as_positions: Vec<usize> = (0..f.scan.code.len())
            .filter(|&i| f.scan.ctext(i) == "as")
            .collect();
        assert_eq!(
            f.enclosing_type(as_positions[0]),
            Some(("Engine", Some("ReplaySubject")))
        );
        assert_eq!(
            f.enclosing_type(as_positions[1]),
            Some(("StateDigest", None))
        );
    }

    #[test]
    fn impl_trait_in_argument_position_is_not_a_block() {
        let f = parsed("fn take(f: impl Fn() -> u64) { f(); }\n");
        let fpos = (0..f.scan.code.len())
            .rfind(|&i| f.scan.ctext(i) == "f")
            .unwrap();
        assert_eq!(f.enclosing_type(fpos), None);
        assert_eq!(f.enclosing_fn(fpos), Some("take"));
    }

    #[test]
    fn owner_is_a_partition_and_tracks_bodies() {
        let f = parsed("fn a() { x(); }\nfn b() { fn c() { y(); } c(); }\n");
        assert_eq!(f.ctx.len(), f.scan.code.len());
        let spans = f.owner_spans();
        assert_eq!(spans.first().map(|s| s.0), Some(0));
        assert_eq!(spans.last().map(|s| s.1), Some(f.scan.code.len()));
        for w in spans.windows(2) {
            assert_eq!(w[0].1, w[1].0, "no gaps or overlaps");
        }
        let item_named = |n: &str| f.items.iter().position(|i| i == n).expect(n) as u32;
        assert_eq!(f.ctx[idx_of(&f, "x")].owner, item_named("a"));
        assert_eq!(
            f.ctx[idx_of(&f, "y")].owner,
            item_named("c"),
            "nested fn owns its body"
        );
    }

    #[test]
    fn cfg_test_gating_propagates() {
        let f = parsed(
            "fn lib() { a(); }\n#[cfg(test)]\nmod tests {\n  fn helper() { b(); }\n  \
             #[test]\n  fn case() { c(); }\n}\n#[test]\nfn bare() { d(); }\nfn after() { e(); }\n",
        );
        let gated = |name: &str| f.ctx[idx_of(&f, name)].cfg_test;
        assert!(!gated("a"));
        assert!(gated("b"));
        assert!(gated("c"));
        assert!(gated("d"), "a `#[test]` fn outside any gated block");
        assert!(!gated("e"), "the gate ends with the item it was on");
    }

    #[test]
    fn semicolons_inside_brackets_do_not_kill_the_body() {
        let f = parsed("fn packed(x: [u8; 4]) { consume(x); }\n");
        assert_eq!(f.enclosing_fn(idx_of(&f, "consume")), Some("packed"));
    }
}
