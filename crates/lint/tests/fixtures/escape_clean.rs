// CLEAN: the four live escapes, each silencing the finding it sits on,
// and annotation-shaped text that is not a comment.

pub fn first(xs: &[u32]) -> u32 {
    // lint: allow(panic): caller guarantees a non-empty slice
    *xs.first().unwrap()
}

pub fn widen(x: u32) -> u64 {
    x as u64 // lint: allow(cast): u32 -> u64 is lossless
}

pub fn copy(pkt: &Packet) -> Packet {
    pkt.clone() // lint: allow(packet-clone): harness snapshot
}

pub fn walk(by_key: &Map) {
    // lint: allow(flow-clone): debug dump, order irrelevant
    for _ in by_key.iter() {}
}

pub fn message() -> &'static str {
    "lint: allow(anything) inside a string literal is not an annotation"
}
