//! A library crate root whose `unsafe` ban can be switched back off:
//! `deny(unsafe_code)` yields to an `#[allow(unsafe_code)]` on any one
//! item, and only `forbid` does not.

#![deny(unsafe_code)]
#![deny(missing_docs)]

/// Documented API.
pub fn api() {}
