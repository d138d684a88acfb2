//! HMAC-SHA-256 (RFC 2104), for symmetric message authentication.
//!
//! Used by the simulated deployment where a host and a manager share a
//! session key; the protocol only requires *some* authentication method
//! (§2.1), and HMAC exercises the cheap symmetric path while RSA (see
//! [`crate::rsa`]) exercises the public-key path.
//!
//! A party that holds a key tags many messages with it, so the key is a
//! type of its own: [`HmacKey`] absorbs the two key-dependent pad blocks
//! once, and every tag after that costs only the message's own
//! compressions (two for anything up to 55 bytes). [`hmac_sha256`] is the
//! same code with a key used once.

use crate::sha256::{Digest, Sha256};
use crate::signed::AuthEncode;

const BLOCK_LEN: usize = 64;

/// A 32-byte HMAC-SHA-256 tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub [u8; 32]);

impl Tag {
    /// Lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        Digest(self.0).to_hex()
    }
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// An HMAC-SHA-256 key with its pads absorbed (RFC 2104 §4): the SHA-256
/// chaining states after the `key ⊕ ipad` and `key ⊕ opad` blocks, 64
/// bytes in all. Tags are byte-identical to [`hmac_sha256`] under the
/// same key.
///
/// The two states are as good as the key to anyone who wants to forge a
/// tag, so `Debug` prints neither.
///
/// # Examples
///
/// ```
/// use wanacl_auth::hmac::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"session key");
/// let tag = key.tag(b"message");
/// assert_eq!(tag, hmac_sha256(b"session key", b"message"));
/// assert!(key.verify(b"message", &tag));
/// assert!(!key.verify(b"massage", &tag));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Absorbs `key`. Keys longer than the 64-byte block are hashed
    /// first, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..32].copy_from_slice(Digest::of(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let absorb = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h.chaining_state()
        };
        HmacKey { inner: absorb(0x36), outer: absorb(0x5c) }
    }

    /// Computes `HMAC-SHA256(key, message)` over `message`'s canonical
    /// bytes, hashed as they are encoded.
    pub fn tag<M: AuthEncode + ?Sized>(&self, message: &M) -> Tag {
        let mut inner = Sha256::resume(self.inner, BLOCK_LEN as u64);
        message.auth_encode(&mut inner);
        let mut outer = Sha256::resume(self.outer, BLOCK_LEN as u64);
        outer.update(inner.finish().as_bytes());
        Tag(outer.finish().0)
    }

    /// Constant-time-ish tag comparison (full scan regardless of mismatch).
    pub fn verify<M: AuthEncode + ?Sized>(&self, message: &M, tag: &Tag) -> bool {
        let expected = self.tag(message);
        let mut diff = 0u8;
        for (a, b) in expected.0.iter().zip(tag.0.iter()) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacKey(<redacted>)")
    }
}

/// Computes `HMAC-SHA256(key, message)` for a key used once; a caller
/// with more than one message under the same key should hold an
/// [`HmacKey`].
///
/// # Examples
///
/// ```
/// use wanacl_auth::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"message");
/// assert_eq!(tag, hmac_sha256(b"key", b"message"));
/// assert_ne!(tag, hmac_sha256(b"other", b"message"));
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Tag {
    HmacKey::new(key).tag(message)
}

/// One-shot [`HmacKey::verify`].
pub fn verify(key: &[u8], message: &[u8], tag: &Tag) -> bool {
    HmacKey::new(key).verify(message, tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::tests::{bodies, digest_with};
    use proptest::prelude::*;

    /// RFC 4231 §4 test cases 1–4, 6 and 7 (case 5 truncates the tag):
    /// key, data, expected HMAC-SHA-256.
    fn rfc4231() -> Vec<(Vec<u8>, Vec<u8>, &'static str)> {
        vec![
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                (1..=25).collect(),
                vec![0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            // 131-byte keys force the hash-the-key path.
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                vec![0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than \
                  block-size data. The key needs to be hashed before being used by the \
                  HMAC algorithm."
                    .to_vec(),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ]
    }

    #[test]
    fn rfc4231_vectors_through_both_entry_points() {
        for (i, (key, data, want)) in rfc4231().into_iter().enumerate() {
            assert_eq!(hmac_sha256(&key, &data).to_hex(), want, "one-shot, vector {i}");
            let held = HmacKey::new(&key);
            assert_eq!(held.tag(&data[..]).to_hex(), want, "keyed, vector {i}");
            // A held key tags any number of messages, and verifies what
            // the one-shot form tagged.
            assert_eq!(held.tag(&data[..]).to_hex(), want, "keyed again, vector {i}");
            assert!(held.verify(&data[..], &hmac_sha256(&key, &data)), "vector {i}");
        }
    }

    /// RFC 2104 written out directly, sharing nothing with [`HmacKey`]
    /// but the hash: `H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))`.
    fn reference_hmac(key: &[u8], message: &[u8]) -> Tag {
        reference_hmac_over(Digest::of, key, message)
    }

    /// [`reference_hmac`] with `H` handed in.
    fn reference_hmac_over(hash: impl Fn(&[u8]) -> Digest, key: &[u8], message: &[u8]) -> Tag {
        let mut block = if key.len() > 64 { hash(key).0.to_vec() } else { key.to_vec() };
        block.resize(64, 0);
        let mut inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(message);
        let mut outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(&hash(&inner).0);
        Tag(hash(&outer).0)
    }

    #[test]
    fn reference_matches_the_rfc_vectors() {
        for (key, data, want) in rfc4231() {
            assert_eq!(reference_hmac(&key, &data).to_hex(), want);
            // And over each compression body on its own.
            for (name, body) in bodies() {
                let tag = reference_hmac_over(|bytes| digest_with(body, bytes), &key, &data);
                assert_eq!(tag.to_hex(), want, "{name} body");
            }
        }
    }

    #[test]
    fn keyed_matches_reference_at_every_padding_edge() {
        // Message lengths around the 55/56 and 63/64 edges of the block
        // that follows the absorbed pad, under short, block-sized and
        // hashed keys.
        for key_len in [0usize, 1, 32, 63, 64, 65, 200] {
            let key: Vec<u8> = (0..key_len).map(|i| i as u8).collect();
            let held = HmacKey::new(&key);
            for msg_len in [0usize, 1, 31, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128, 200] {
                let msg = vec![0xa5u8; msg_len];
                let want = reference_hmac(&key, &msg);
                assert_eq!(held.tag(&msg[..]), want, "key {key_len} msg {msg_len}");
            }
        }
    }

    proptest! {
        #[test]
        fn keyed_matches_reference_for_random_keys_and_messages(
            key in proptest::collection::vec(any::<u8>(), 0..=200),
            msg in proptest::collection::vec(any::<u8>(), 0..=200),
        ) {
            let want = reference_hmac(&key, &msg);
            let held = HmacKey::new(&key);
            prop_assert_eq!(held.tag(&msg[..]), want);
            prop_assert_eq!(hmac_sha256(&key, &msg), want);
            prop_assert!(held.verify(&msg[..], &want));
            prop_assert!(verify(&key, &msg, &want));
        }
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(verify(b"k", b"m", &tag));
        assert!(!verify(b"k", b"m2", &tag));
        assert!(!verify(b"k2", b"m", &tag));
        let held = HmacKey::new(b"k");
        assert!(held.verify(b"m", &tag));
        assert!(!held.verify(b"m2", &tag));
        assert!(!HmacKey::new(b"k2").verify(b"m", &tag));
        // Every single flipped bit is caught, wherever it sits.
        for byte in 0..32 {
            let mut bad = tag;
            bad.0[byte] ^= 1 << (byte % 8);
            assert!(!verify(b"k", b"m", &bad));
            assert!(!held.verify(b"m", &bad));
        }
    }

    #[test]
    fn empty_inputs_work() {
        let t1 = hmac_sha256(b"", b"");
        let t2 = hmac_sha256(b"", b"");
        assert_eq!(t1, t2);
        assert!(verify(b"", b"", &t1));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(hmac_sha256(b"a", b"b").to_string().len(), 64);
    }

    #[test]
    fn debug_shows_no_key_material() {
        let key = *b"0123456789abcdef0123456789abcdef";
        let held = HmacKey::new(&key);
        let shown = format!("{held:?} {held:#?}");
        // Neither the key bytes, in any of the usual renderings, nor a
        // word of either absorbed state.
        assert!(!shown.contains("0123456789abcdef"));
        assert!(!shown.contains(&Digest(key).to_hex()));
        for word in held.inner.iter().chain(held.outer.iter()) {
            assert!(!shown.contains(&word.to_string()), "{shown}");
            assert!(!shown.contains(&format!("{word:x}")), "{shown}");
        }
        assert_eq!(format!("{held:?}"), "HmacKey(<redacted>)");
    }

    #[test]
    fn key_is_two_chaining_states() {
        assert_eq!(std::mem::size_of::<HmacKey>(), 64);
    }
}
