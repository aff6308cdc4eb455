//! Property-based tests of the graph layer (via the in-tree
//! `propcheck` engine): the parser's owner assignment partitions the
//! code stream, the call-graph dump is byte-deterministic under input
//! shuffling, and taint reachability is monotone in the edge set.

use dui_lint::callgraph::CallGraph;
use dui_lint::graph_dump_sources;
use dui_lint::parse::ParsedFile;
use dui_lint::taint::reach_callers;
use dui_stats::propcheck::Gen;
use dui_stats::{prop_assert, prop_assert_eq, prop_check};

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

/// A small random multi-file workspace whose fns call each other by
/// simple name and cross-crate path, producing resolved, unresolved,
/// and method edges.
fn random_workspace(g: &mut Gen) -> Vec<(String, String)> {
    let crates = ["alpha", "beta", "gamma"];
    let mut files = Vec::new();
    for (ci, name) in crates.iter().enumerate() {
        let n = g.usize(1..4);
        let mut src = String::from("//! gen\n");
        for i in 0..n {
            src.push_str(&format!("/// d\npub fn f{i}() {{\n"));
            let calls = g.usize(0..3);
            for _ in 0..calls {
                let target_crate = crates[g.usize(0..crates.len())];
                let target_fn = g.usize(0..4);
                if g.bool() {
                    src.push_str(&format!("    dui_{target_crate}::f{target_fn}();\n"));
                } else {
                    src.push_str(&format!("    f{target_fn}();\n"));
                }
            }
            src.push_str("}\n");
        }
        files.push((format!("crates/{}/src/lib.rs", crates[ci]), src));
        let _ = name;
    }
    files
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

    fn graph_dump_is_byte_identical_under_input_shuffle(g) {
        let files = random_workspace(g);
        let first = graph_dump_sources(&files);

        // Shuffle the input order (and duplicate one entry): the dump
        // must not change by a single byte.
        let mut shuffled = files.clone();
        for i in (1..shuffled.len()).rev() {
            let j = g.usize(0..i + 1);
            shuffled.swap(i, j);
        }
        if let Some(extra) = shuffled.first().cloned() {
            shuffled.push(extra);
        }
        let second = graph_dump_sources(&shuffled);
        prop_assert_eq!(&first, &second);

        // And a plain re-run on identical input is a fixed point.
        let third = graph_dump_sources(&files);
        prop_assert_eq!(&first, &third);
    }

    fn taint_reach_is_monotone_in_the_edge_set(g) {
        let n = g.usize(2..12);
        let m = g.usize(0..20);
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
        for _ in 0..m {
            edges.push((g.usize(0..n) as u32, g.usize(0..n) as u32));
        }
        let seeds = vec![g.usize(0..n) as u32];

        let base = CallGraph::from_edges(n, &edges);
        let reached = reach_callers(&base, &seeds, &|_| false);

        // Add one more random edge: nothing previously tainted may
        // disappear, and depths may only shrink or stay.
        let mut more = edges.clone();
        more.push((g.usize(0..n) as u32, g.usize(0..n) as u32));
        let bigger = CallGraph::from_edges(n, &more);
        let reached2 = reach_callers(&bigger, &seeds, &|_| false);

        for (id, tr) in &reached {
            match reached2.get(id) {
                None => prop_assert!(false),
                Some(tr2) => prop_assert!(tr2.depth <= tr.depth),
            }
        }

        // Determinism: same graph, same seeds, identical traces.
        let again = reach_callers(&base, &seeds, &|_| false);
        prop_assert_eq!(reached.len(), again.len());
        for (id, tr) in &reached {
            let tr2 = &again[id];
            prop_assert_eq!(tr.depth, tr2.depth);
            prop_assert_eq!(tr.via, tr2.via);
        }
    }
}
