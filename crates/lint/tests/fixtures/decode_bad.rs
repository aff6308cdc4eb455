// BAD: a private cursor. The count read here sizes an allocation with
// nothing tying it to the bytes behind it.
pub fn load(bytes: &[u8]) -> Vec<u64> {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[..8]);
    let n = u64::from_le_bytes(word) as usize;
    Vec::with_capacity(n)
}

pub fn save(v: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_le_bytes());
}
