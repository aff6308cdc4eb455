//! `dui_stats::hash::FixedState` over the key populations it actually
//! serves: `TcpHost::by_key` (flow 5-tuples) and `Topology::addr_to_node`
//! (node addresses). `HashMap` reads the hash's low bits as the bucket
//! index and its top seven as the control byte, so those are the bits
//! that must look uniform — on the random C4 population and, harder, on
//! fully sequential addresses and ports.

use dui_flowgen::flows::random_key_in_prefix;
use dui_flowgen::malicious::{MaliciousFlowSet, MaliciousFlowSetConfig};
use dui_netsim::packet::{Addr, FlowKey, Prefix};
use dui_stats::hash::FixedState;
use dui_stats::Rng;
use std::hash::{BuildHasher, Hash};

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

/// Both bit ranges within four standard deviations of uniform.
fn assert_uniform<K: Hash>(what: &str, keys: &[K]) {
    let hashes: Vec<u64> = keys
        .iter()
        .map(|k| FixedState::default().hash_one(k))
        .collect();
    let top7 = chi2_sigmas(&hashes, 7, |h| h >> 57);
    let low12 = chi2_sigmas(&hashes, 12, |h| h & 0xFFF);
    assert!(
        top7 < 4.0,
        "{what}: top 7 bits are {top7:.1} sigma from uniform"
    );
    assert!(
        low12 < 4.0,
        "{what}: low 12 bits are {low12:.1} sigma from uniform"
    );
}

#[test]
fn c4_flow_keys_hash_uniformly() {
    // The Blink packet experiment: 2000 legitimate flows on sequential
    // source ports plus the attacker's 105, looked up by forward key and
    // (for ACKs) by reversed key.
    let prefix = Prefix::new(Addr::new(10, 0, 0, 0), 24);
    let mut rng = Rng::new(21);
    let mut keys: Vec<FlowKey> = (0..2000)
        .map(|i| random_key_in_prefix(prefix, &mut rng, 50_000 + i))
        .collect();
    keys.extend(MaliciousFlowSet::generate(&MaliciousFlowSetConfig::default(), &mut rng).keys);
    assert_eq!(keys.len(), 2105);
    keys.extend(keys.clone().iter().map(FlowKey::reversed));
    assert_uniform("C4 flows", &keys);
}

#[test]
fn sequential_spoofed_keys_hash_uniformly() {
    // `attacks::syn_flood`'s shape — a /24 of spoofed sources against one
    // victim port — with nothing random left: every address of the
    // prefix against 256 consecutive ports.
    let victim = Addr::new(10, 0, 0, 1);
    let keys: Vec<FlowKey> = (0..=255u8)
        .flat_map(|a| {
            (1024..1280).map(move |p| FlowKey::tcp(Addr::new(198, 51, 100, a), p, victim, 80))
        })
        .collect();
    assert_uniform("sequential spoofed flows", &keys);
    // The test has teeth: the same keys through a hash that merely adds
    // its fields land in a sliver of the cells.
    let sums: Vec<u64> = keys
        .iter()
        .map(|k| u64::from(k.src.0) + u64::from(k.sport))
        .collect();
    assert!(chi2_sigmas(&sums, 12, |h| h & 0xFFF) > 100.0);
}

#[test]
fn sequential_node_addresses_hash_uniformly() {
    // Topology generators number hosts consecutively.
    let addrs: Vec<Addr> = (0..8192u32)
        .map(|i| Addr(Addr::new(10, 0, 0, 1).0 + i))
        .collect();
    assert_uniform("sequential node addresses", &addrs);
}
