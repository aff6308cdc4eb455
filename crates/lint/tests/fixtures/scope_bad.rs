// BAD (under a digest-scope virtual path): an array type puts a `;`
// between the `fn` keyword and the body. The body still belongs to the
// digest fn, so the digest rules still apply inside it.
pub struct S {
    x: i64,
    cells: Cells,
}

impl S {
    pub fn state_digest(&self, d: &mut Digest, pad: [u8; 4]) {
        d.write_u64(self.x as u64);
        for k in self.cells.keys() {
            d.write_u64(*k);
        }
    }

    pub fn state_hash(&self) -> [u8; 8] {
        let mut d = Digest::new();
        d.write_u64(self.x as u64);
        for v in self.cells.values() {
            d.write_u64(*v);
        }
        d.finish().to_be_bytes()
    }
}

// A gate on a `use` ends at that declaration's `;`: the fn after it is
// library code.
#[cfg(test)]
use helpers::sample;

pub fn after_a_gated_use(x: Option<u8>) -> u8 {
    x.unwrap()
}
