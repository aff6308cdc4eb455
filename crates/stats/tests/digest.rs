//! `StateDigest` as a fingerprint: what its fold guarantees exactly, what
//! it does statistically, and that the compile-time label seeds hot paths
//! start from are the labels' runtime digests.
//!
//! `scripts/verify.sh` runs this suite at `PROPCHECK_CASES=2000`.

use dui_stats::digest::StateDigest;
use dui_stats::{prop_assert_ne, prop_check};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

prop_check! {
    fn replacing_any_one_word_changes_the_digest(g) {
        let words = g.vec(1..65, |g| g.any_u64());
        let at = g.usize(0..words.len());
        let mut changed = words.clone();
        // Half the cases flip one bit, so a fold that loses any bit of
        // a word is caught, not only one that loses a random delta.
        changed[at] ^= if g.bool() { 1 << g.u32(0..64) } else { g.u64(1..u64::MAX) };
        let digest = |ws: &[u64]| {
            let mut d = StateDigest::new();
            for &w in ws {
                d.write_u64(w);
            }
            d.finish()
        };
        prop_assert_ne!(digest(&words), digest(&changed));
    }
}

/// `LABELS`, and `const_seeds()`: each label with the `finish()` of its
/// seed evaluated at compile time.
macro_rules! labels {
    ($($label:literal),* $(,)?) => {
        const LABELS: &[&str] = &[$($label),*];

        fn const_seeds() -> Vec<(&'static str, u64)> {
            vec![$({
                const SEED: StateDigest = StateDigest::labeled($label);
                ($label, SEED.finish())
            }),*]
        }
    };
}

// Every label a `StateDigest::labeled` call names anywhere in the tree;
// `every_label_in_the_tree_is_listed` fails if a new one is missing.
labels!(
    "blink-scenario",
    "config",
    "core",
    "counter",
    "dsc-corpus",
    "event",
    "fastsim",
    "fastsim-config",
    "fastsim-step",
    "fig2",
    "flow-churn",
    "flow-scale",
    "flows",
    // Passed through a constant in `ledger/src/workloads/replay_verify.rs`,
    // where the scan cannot see it.
    "ledger-replay",
    "links",
    "netsim",
    "nodes",
    "pcc-scenario",
    "pytheas",
    "queue",
    "rng",
    "routes",
    "schedule",
    "selector",
    "series",
    "total",
    "verdicts",
);

#[test]
fn const_labels_equal_their_runtime_digests() {
    for (label, at_compile_time) in const_seeds() {
        let mut d = StateDigest::new();
        d.write_str(label);
        assert_eq!(at_compile_time, d.finish(), "label {label:?}");
        assert_eq!(at_compile_time, StateDigest::labeled(label).finish());
    }
}

/// The string literals passed to `labeled(` in every `.rs` file under
/// `dir` (build outputs skipped), and every directory visited.
fn labels_in(dir: &Path, found: &mut BTreeSet<String>, visited: &mut BTreeSet<PathBuf>) {
    visited.insert(dir.to_path_buf());
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                labels_in(&path, found, visited);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            for call in text.split("labeled(\"").skip(1) {
                found.insert(call[..call.find('"').unwrap()].to_string());
            }
        }
    }
}

#[test]
fn every_label_in_the_tree_is_listed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut found, mut visited) = (BTreeSet::new(), BTreeSet::new());
    for dir in ["crates", "ledger", "tests", "examples"] {
        labels_in(&root.join(dir), &mut found, &mut visited);
    }
    // A scan of the wrong directories would find nothing and pass: it
    // must have walked every crate's sources and met labels known to be
    // there.
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        assert!(visited.contains(&src), "the scan skipped {}", src.display());
    }
    for known in ["netsim", "rng"] {
        assert!(
            found.contains(known),
            "the scan missed {known:?}: {found:?}"
        );
    }
    let listed: BTreeSet<String> = LABELS.iter().map(|l| l.to_string()).collect();
    let missing: Vec<&String> = found.difference(&listed).collect();
    assert!(missing.is_empty(), "add to LABELS: {missing:?}");
}

/// Pearson's χ² of `hashes` over `1 << bits` equiprobable cells, cell
/// chosen by `cell`, as a distance from its mean in standard deviations
/// (χ² with `k - 1` degrees of freedom: mean `k - 1`, variance `2(k - 1)`).
fn chi2_sigmas(hashes: &[u64], bits: u32, cell: impl Fn(u64) -> u64) -> f64 {
    let cells = 1usize << bits;
    let mut seen = vec![0u64; cells];
    for &h in hashes {
        seen[cell(h) as usize] += 1;
    }
    let want = hashes.len() as f64 / cells as f64;
    let chi2: f64 = seen.iter().map(|&n| (n as f64 - want).powi(2) / want).sum();
    let df = (cells - 1) as f64;
    (chi2 - df) / (2.0 * df).sqrt()
}

#[test]
fn sequential_words_behind_a_prefix_digest_uniformly() {
    // The shape of a state digest whose components barely differ: the
    // same labeled prefix, then one counter that steps by one.
    let mut prefix = StateDigest::labeled("netsim");
    for w in [0, 1, 2, 3] {
        prefix.write_u64(w);
    }
    let digests: Vec<u64> = (0..1u64 << 16)
        .map(|i| {
            let mut d = prefix.clone();
            d.write_u64(i);
            d.finish()
        })
        .collect();
    let distinct: BTreeSet<u64> = digests.iter().copied().collect();
    assert_eq!(distinct.len(), digests.len(), "two inputs collided");
    // Each output bit: its count of ones within four standard deviations
    // of half, and the 64 bits' summed χ² (each bit's z², 64 degrees of
    // freedom) within four standard deviations of its mean.
    let n = digests.len() as f64;
    let mut chi2 = 0.0;
    for bit in 0..64 {
        let ones = digests.iter().filter(|&&h| h >> bit & 1 == 1).count() as f64;
        let z = (ones - n / 2.0) / (n.sqrt() / 2.0);
        assert!(z.abs() < 4.0, "bit {bit} is {z:.1} sigma from balanced");
        chi2 += z * z;
    }
    let sigmas = (chi2 - 64.0) / 128f64.sqrt();
    assert!(
        sigmas < 4.0,
        "output bits are {sigmas:.1} sigma from balanced"
    );
    // The low and top bits as cells, as `crates/flowgen/tests/key_hash.rs`
    // checks `FixedState`.
    for (what, bits, shift) in [("low 12", 12, 0), ("top 7", 7, 57)] {
        let sigmas = chi2_sigmas(&digests, bits, |h| h >> shift & ((1 << bits) - 1));
        assert!(
            sigmas < 4.0,
            "{what} bits are {sigmas:.1} sigma from uniform"
        );
    }
}

#[test]
fn one_flipped_input_bit_flips_about_half_the_digest() {
    // The fold alone carries a flip only upward (bit 63 of the last word
    // moves bit 63 alone); the finisher must spread it over all 64.
    let mut rng = dui_stats::Rng::new(5);
    for bit in 0..64 {
        let samples = 256;
        let flipped: u32 = (0..samples)
            .map(|_| {
                let (base, last) = (rng.next_u64(), rng.next_u64());
                let digest = |w: u64| {
                    let mut d = StateDigest::new();
                    d.write_u64(base);
                    d.write_u64(w);
                    d.finish()
                };
                (digest(last) ^ digest(last ^ 1 << bit)).count_ones()
            })
            .sum();
        let mean = f64::from(flipped) / f64::from(samples);
        // 256 × Binomial(64, 1/2): the mean's sd is 0.25 bits.
        assert!((mean - 32.0).abs() < 1.5, "bit {bit} flips {mean:.1} bits");
    }
}
