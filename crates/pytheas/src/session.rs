//! Session features and grouping.
//!
//! Pytheas groups sessions by the features that determine which decisions
//! affect their QoE. The paper's attack note (§4.1): "group membership
//! will not be hard to ascertain even for external parties, as it is
//! typically based on features like autonomous system, IP prefix and
//! location" — our group key is exactly that triple, so an attacker can
//! place bot sessions into a victim group by matching those features.

use std::fmt;

/// Features of one client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionFeatures {
    /// Autonomous system number.
    pub asn: u32,
    /// /16 prefix identifier of the client address.
    pub prefix16: u16,
    /// Coarse geographic location id.
    pub location: u16,
    /// Content/video id class (not part of the default group key).
    pub content: u16,
}

/// The group a session belongs to (ASN, /16 prefix, location).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey {
    /// Autonomous system number.
    pub asn: u32,
    /// /16 prefix identifier.
    pub prefix16: u16,
    /// Location id.
    pub location: u16,
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}/{:04x}@{}", self.asn, self.prefix16, self.location)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_readable() {
        let k = GroupKey {
            asn: 3303,
            prefix16: 0x0a00,
            location: 2,
        };
        assert_eq!(k.to_string(), "AS3303/0a00@2");
    }
}
