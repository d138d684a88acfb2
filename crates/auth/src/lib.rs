//! # wanacl-auth — authentication substrate
//!
//! The paper (§2.1) *assumes* an authentication method "such as the RSA
//! algorithm" exists so that a message claiming to come from user `U`
//! really did. This crate builds that substrate from scratch:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4), validated against FIPS vectors,
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), validated against RFC 4231,
//! * [`rsa`] — textbook RSA signatures over 64-bit moduli (toy key sizes;
//!   same code path as the real thing — see DESIGN.md, substitutions),
//! * [`signed`] — [`signed::Signed`] envelopes and the
//!   [`signed::KeyRegistry`] the access-control layer checks against.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use wanacl_auth::prelude::*;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut registry = KeyRegistry::new();
//! let user = PrincipalId(7);
//! let keys = registry.enroll(user, &mut rng);
//!
//! let request = Signed::seal("Invoke(stock-quotes)".to_string(), user, &keys.secret);
//! assert!(request.verify(&registry));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hmac;
pub mod rsa;
pub mod sha256;
pub mod signed;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::hmac::{hmac_sha256, Tag};
    pub use crate::rsa::{KeyPair, PublicKey, SecretKey, Signature};
    pub use crate::sha256::{Digest, Sha256};
    pub use crate::signed::{AuthEncode, AuthSink, KeyRegistry, PrincipalId, Signed};
}
