// CLEAN: a `#[test]` / `#[cfg(test)]` gate sitting directly on a fn
// whose signature holds a `;` (an array type) still gates the body —
// tests may unwrap, clone packets and build byte fixtures by hand.
#[test]
fn t(a: [u8; 2]) {
    let pkt = build(a).unwrap();
    let copy = pkt.clone();
    let n = u16::from_le_bytes(a);
    check(copy, n);
}

#[cfg(test)]
fn h() -> [u8; 4] {
    let packet = sample().expect("fixture packet");
    let again = packet.clone();
    again.len().to_le_bytes()
}
