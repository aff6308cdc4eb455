// CLEAN: the same codec on the shared primitives; mentions of
// from_le_bytes in comments and "to_le_bytes" in strings are not code,
// and test code may build hostile blobs by hand.
pub fn load(bytes: &[u8]) -> Result<Vec<u64>, DecodeError> {
    let mut r = Reader::new(bytes);
    let n = r.u64("count")?;
    let n = r.count("count", n, 8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64("word")?);
    }
    r.finish("words")?;
    Ok(out)
}

pub fn save(v: u32, w: &mut Writer) {
    w.u32(v);
}

#[cfg(test)]
mod tests {
    #[test]
    fn refuses_a_huge_count() {
        assert!(super::load(&u64::MAX.to_le_bytes()).is_err());
    }
}
