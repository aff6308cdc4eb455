// BAD: escape comments whose name no rule reads. Each one reads like an
// audited exception and suppresses nothing.

pub fn first(xs: &[u32]) -> u32 {
    // lint: allow(library-unwrap): the rule's id, not its escape name
    *xs.first().unwrap()
}

// lint: allow(shared-mut): the rule that read this name is retired
pub fn shared() {}

/* a block comment, the annotation on its second line:
   lint: allow(transitive-wall-clock): retired too */
pub fn block() {}

/// lint: allow(lock-order) and lint: allow(transitive-rng): two in one comment
pub fn doc() {}

// lint: allow(transitive-shared-mut)
// lint: allow(Panic): names are case-sensitive
// lint: allow(panic ): and exact
pub fn spelled() {}
