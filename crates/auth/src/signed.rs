//! Signed message envelopes and the principal key registry.
//!
//! §2.1: "we assume that … an authentication method is available to ensure
//! that a message sent by a user U has indeed been sent by this user".
//! [`Signed`] is that method's interface: a payload plus the signer's id
//! and an RSA signature over the payload's canonical bytes, checked
//! against a [`KeyRegistry`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::rsa::{self, KeyPair, PreparedKey, PublicKey, SecretKey, Signature};
use crate::sha256::Sha256;

/// Identifies a principal (user, manager, or host) in the auth domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrincipalId(pub u64);

impl std::fmt::Display for PrincipalId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Where canonical bytes go: a buffer to sign, send or store, or
/// straight into a hash (a signature's SHA-256, an HMAC's inner hash, an
/// FNV-1a digest). One encoder feeds them all, so a digest a verifier
/// checks cannot drift from the bytes a signer signed, nor a record read
/// back from the bytes written.
pub trait AuthSink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl AuthSink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl AuthSink for Sha256 {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// Canonical byte encoding: what is signed, tagged, logged or digested.
///
/// Implementations must be injective for values that should be
/// distinguishable: two different payloads must encode to different byte
/// strings, or signatures could be replayed across meanings. Integers
/// are big-endian; a field whose length varies goes behind its length.
pub trait AuthEncode {
    /// Appends the canonical encoding of `self` to `out`.
    fn auth_encode<S: AuthSink>(&self, out: &mut S);

    /// The canonical encoding as a fresh buffer.
    fn auth_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.auth_encode(&mut out);
        out
    }
}

impl AuthEncode for u32 {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        out.put(&self.to_be_bytes());
    }
}

impl AuthEncode for u64 {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        out.put(&self.to_be_bytes());
    }
}

/// Bytes encoded already, written as they are: with no length in front,
/// a slice is a whole message or the last field of one.
impl AuthEncode for [u8] {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        out.put(self);
    }
}

/// A fixed number of bytes, written as they are: the type delimits them.
impl<const N: usize> AuthEncode for [u8; N] {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        out.put(self);
    }
}

impl AuthEncode for &str {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        out.put(&(self.len() as u64).to_be_bytes());
        out.put(self.as_bytes());
    }
}

impl AuthEncode for String {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        self.as_str().auth_encode(out);
    }
}

impl<T: AuthEncode> AuthEncode for Vec<T> {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        out.put(&(self.len() as u64).to_be_bytes());
        for item in self {
            item.auth_encode(out);
        }
    }
}

/// Reads back what an [`AuthEncode`] wrote to storage: one cursor over a
/// byte slice. A short read, a count the remaining bytes cannot hold and
/// trailing bytes are each `None`, so bytes from a disk decode to the
/// value they encode or to nothing.
#[derive(Debug)]
pub struct AuthDecoder<'a> {
    rest: &'a [u8],
}

impl<'a> AuthDecoder<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        AuthDecoder { rest: bytes }
    }

    /// The next `len` bytes.
    pub fn slice(&mut self, len: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(len)?;
        self.rest = rest;
        Some(head)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.slice(1)?[0])
    }

    /// The next big-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.slice(4)?.try_into().ok()?))
    }

    /// The next big-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.slice(8)?.try_into().ok()?))
    }

    /// An element count, a big-endian `u32`, rejected when the remaining
    /// bytes cannot hold that many elements of at least `min_each` (> 0)
    /// bytes: a count read from disk must not size an allocation first.
    pub fn count(&mut self, min_each: usize) -> Option<usize> {
        let count = self.u32()? as usize;
        (count <= self.rest.len() / min_each).then_some(count)
    }

    /// Whether every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// `value`, if every byte has been read; trailing bytes are `None`.
    pub fn finish<T>(self, value: T) -> Option<T> {
        self.is_empty().then_some(value)
    }
}

/// A payload carrying a verifiable claim of who produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signed<T> {
    /// The signed payload.
    pub payload: T,
    /// Who claims to have signed it.
    pub signer: PrincipalId,
    /// RSA signature over `signer || payload` canonical bytes.
    pub signature: Signature,
}

impl<T: AuthEncode> Signed<T> {
    /// Signs `payload` as `signer` using `key`.
    pub fn seal(payload: T, signer: PrincipalId, key: &SecretKey) -> Signed<T> {
        let signature = sign_bytes(signer, &payload, key);
        Signed { payload, signer, signature }
    }

    /// Verifies the envelope against the registry.
    ///
    /// Returns `false` when the signer is unknown or the signature does
    /// not check out.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        verify_bytes(registry, self.signer, &self.payload, &self.signature)
    }
}

/// The bytes a signature covers: the signer id, then the message's
/// encoding.
struct SignerThen<'a, T: ?Sized>(PrincipalId, &'a T);

impl<T: AuthEncode + ?Sized> AuthEncode for SignerThen<'_, T> {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        self.0 .0.auth_encode(out);
        self.1.auth_encode(out);
    }
}

/// Signs `message`'s canonical bytes as `signer`, behind the signer id
/// so the signature cannot be attributed to another principal.
/// [`Signed::seal`] signs its payload this way; a record that carries
/// its signature inline (e.g. a directory record replicated by value)
/// calls it directly.
pub fn sign_bytes<M: AuthEncode + ?Sized>(signer: PrincipalId, message: &M, key: &SecretKey) -> Signature {
    rsa::sign(key, &SignerThen(signer, message).auth_bytes())
}

/// Verifies a detached signature produced by [`sign_bytes`] against the
/// registry, hashing `message` as it is encoded. Returns `false` for
/// unknown signers, tampered bytes, or signatures attributed to the
/// wrong principal.
pub fn verify_bytes<M: AuthEncode + ?Sized>(
    registry: &KeyRegistry,
    signer: PrincipalId,
    message: &M,
    sig: &Signature,
) -> bool {
    registry.verify(signer, &SignerThen(signer, message), sig)
}

/// rustc-hash v1's multiplier, the constant `wanacl_sim::hash::FxHasher`
/// folds words in with (this crate does not depend on the simulator).
const FX_K: u64 = 0x517c_c1b7_2722_0a95;

/// The registry's hasher: rustc-hash v1's multiply-rotate fold, with
/// fixed constants, so no run depends on `RandomState`'s per-process keys.
/// A [`PrincipalId`] is one word, hashed by one multiply.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_K);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Maps principals to their public keys.
///
/// In the paper's deployment this would be distributed via the trusted
/// name service; here it is a plain map shared by construction. Each key
/// is held with its Montgomery constants, worked out once when it is
/// registered, and [`KeyRegistry::verify`] hashes a message's canonical
/// bytes as they are encoded: a check builds no buffer and divides by
/// the modulus once.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use wanacl_auth::rsa::KeyPair;
/// use wanacl_auth::signed::{KeyRegistry, PrincipalId, Signed};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let alice = PrincipalId(1);
/// let kp = KeyPair::generate(&mut rng);
/// let mut registry = KeyRegistry::new();
/// registry.register(alice, kp.public);
///
/// let msg = Signed::seal("invoke".to_string(), alice, &kp.secret);
/// assert!(msg.verify(&registry));
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeyRegistry {
    keys: HashMap<PrincipalId, PreparedKey, BuildHasherDefault<IdHasher>>,
}

impl KeyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a principal's public key.
    pub fn register(&mut self, id: PrincipalId, key: PublicKey) {
        self.keys.insert(id, PreparedKey::new(key));
    }

    /// Removes a principal (e.g. a compromised identity).
    pub fn remove(&mut self, id: PrincipalId) -> Option<PublicKey> {
        self.keys.remove(&id).map(|key| key.public())
    }

    /// Looks up a principal's public key.
    pub fn public_key(&self, id: PrincipalId) -> Option<PublicKey> {
        self.keys.get(&id).map(PreparedKey::public)
    }

    /// Whether `sig` is `signer`'s signature over `message`'s canonical
    /// bytes — the same answer as [`rsa::verify`] on
    /// [`AuthEncode::auth_bytes`] under [`KeyRegistry::public_key`], with
    /// the bytes hashed as they are encoded. `false` for an unknown
    /// signer.
    pub fn verify<T: AuthEncode + ?Sized>(&self, signer: PrincipalId, message: &T, sig: &Signature) -> bool {
        self.keys.get(&signer).is_some_and(|key| {
            let mut hasher = Sha256::new();
            message.auth_encode(&mut hasher);
            key.verify(&hasher.finish(), sig)
        })
    }

    /// Number of registered principals.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Convenience: generates a key pair with `rng`, registers the public
    /// half, and returns the pair.
    pub fn enroll<R: rand::Rng>(&mut self, id: PrincipalId, rng: &mut R) -> KeyPair {
        let kp = KeyPair::generate(rng);
        self.register(id, kp.public);
        kp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (KeyRegistry, KeyPair, PrincipalId) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut reg = KeyRegistry::new();
        let id = PrincipalId(42);
        let kp = reg.enroll(id, &mut rng);
        (reg, kp, id)
    }

    #[test]
    fn seal_verify_roundtrip() {
        let (reg, kp, id) = setup();
        let s = Signed::seal("hello".to_string(), id, &kp.secret);
        assert!(s.verify(&reg));
    }

    #[test]
    fn tampered_payload_fails() {
        let (reg, kp, id) = setup();
        let mut s = Signed::seal("hello".to_string(), id, &kp.secret);
        s.payload = "hacked".to_string();
        assert!(!s.verify(&reg));
    }

    #[test]
    fn unknown_signer_fails() {
        let (reg, kp, _) = setup();
        let s = Signed::seal("hello".to_string(), PrincipalId(999), &kp.secret);
        assert!(!s.verify(&reg));
    }

    #[test]
    fn impersonation_fails() {
        // Mallory signs with her key but claims to be Alice.
        let mut rng = StdRng::seed_from_u64(12);
        let mut reg = KeyRegistry::new();
        let alice = PrincipalId(1);
        let mallory = PrincipalId(2);
        let _alice_kp = reg.enroll(alice, &mut rng);
        let mallory_kp = reg.enroll(mallory, &mut rng);
        let s = Signed::seal("pay mallory".to_string(), alice, &mallory_kp.secret);
        assert!(!s.verify(&reg));
    }

    #[test]
    fn removed_principal_no_longer_verifies() {
        let (mut reg, kp, id) = setup();
        let s = Signed::seal("hello".to_string(), id, &kp.secret);
        assert!(reg.remove(id).is_some());
        assert!(!s.verify(&reg));
        assert!(reg.is_empty());
    }

    #[test]
    fn signer_is_bound_into_signature() {
        // The same payload signed by the same key but attributed to a
        // different principal must not verify even if that principal has
        // the same public key (id is part of the signed bytes).
        let mut rng = StdRng::seed_from_u64(13);
        let mut reg = KeyRegistry::new();
        let a = PrincipalId(1);
        let b = PrincipalId(2);
        let kp = KeyPair::generate(&mut rng);
        reg.register(a, kp.public);
        reg.register(b, kp.public);
        let s = Signed::seal(7u64, a, &kp.secret);
        let forged = Signed { payload: 7u64, signer: b, signature: s.signature };
        assert!(s.verify(&reg));
        assert!(!forged.verify(&reg));
    }

    #[test]
    fn auth_encode_is_length_prefixed() {
        // "ab" + "c" must differ from "a" + "bc".
        let mut v1 = Vec::new();
        "ab".auth_encode(&mut v1);
        "c".auth_encode(&mut v1);
        let mut v2 = Vec::new();
        "a".auth_encode(&mut v2);
        "bc".auth_encode(&mut v2);
        assert_ne!(v1, v2);
    }

    #[test]
    fn decoder_reads_back_what_the_encoder_wrote_and_rejects_what_it_did_not() {
        let bytes = [&[5][..], &7u32.auth_bytes(), &9u64.auth_bytes(), b"ab"].concat();
        let mut d = AuthDecoder::new(&bytes);
        assert_eq!((d.u8(), d.u32(), d.u64()), (Some(5), Some(7), Some(9)));
        assert!(!d.is_empty());
        assert_eq!(d.slice(2), Some(&b"ab"[..]));
        assert_eq!(d.finish("all read"), Some("all read"));
        // A short read.
        assert_eq!(AuthDecoder::new(&[0; 3]).u32(), None);
        assert_eq!(AuthDecoder::new(&[0; 7]).u64(), None);
        assert_eq!(AuthDecoder::new(&[]).u8(), None);
        assert_eq!(AuthDecoder::new(&[0; 2]).slice(3), None);
        // Trailing bytes.
        let mut d = AuthDecoder::new(&[0; 5]);
        assert_eq!(d.u32(), Some(0));
        assert_eq!(d.finish(()), None);
        // A count of 3 over five bytes: elements of one byte fit, of two
        // do not.
        let counted = [0, 0, 0, 3, 1, 2, 3, 4, 5];
        assert_eq!(AuthDecoder::new(&counted).count(1), Some(3));
        assert_eq!(AuthDecoder::new(&counted).count(2), None);
        assert_eq!(AuthDecoder::new(&[0xff; 4]).count(1), None);
    }

    #[test]
    fn vec_encoding_includes_length() {
        let a: Vec<u64> = vec![1, 2];
        let b: Vec<u64> = vec![1, 2, 0];
        assert_ne!(a.auth_bytes(), b.auth_bytes());
    }

    #[test]
    fn re_registering_or_removing_a_principal_replaces_its_prepared_key() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut reg = KeyRegistry::new();
        let id = PrincipalId(3);
        let (old, new) = (KeyPair::generate(&mut rng), KeyPair::generate(&mut rng));
        let (by_old, by_new) = (Signed::seal(5u64, id, &old.secret), Signed::seal(5u64, id, &new.secret));
        reg.register(id, old.public);
        assert!(by_old.verify(&reg) && !by_new.verify(&reg));
        reg.register(id, new.public);
        assert_eq!(reg.public_key(id), Some(new.public));
        assert!(!by_old.verify(&reg) && by_new.verify(&reg));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.remove(id), Some(new.public));
        assert!(!by_old.verify(&reg) && !by_new.verify(&reg));
        assert_eq!(reg.public_key(id), None);
        reg.register(id, old.public);
        assert!(by_old.verify(&reg) && !by_new.verify(&reg));
    }

    #[test]
    fn registry_verify_agrees_with_rsa_verify_on_the_encoded_bytes() {
        let (reg, kp, id) = setup();
        for len in [0usize, 1, 40, 47, 48, 55, 56, 63, 64, 100, 119, 120, 200] {
            let payload = "x".repeat(len);
            let bytes = SignerThen(id, &payload.as_str()).auth_bytes();
            let sig = rsa::sign(&kp.secret, &bytes);
            assert!(reg.verify(id, &SignerThen(id, &payload.as_str()), &sig), "len {len}");
            assert!(rsa::verify(&kp.public, &bytes, &sig), "len {len}");
            let bad = Signature(sig.0 ^ 1);
            assert!(!reg.verify(id, &SignerThen(id, &payload.as_str()), &bad), "len {len}");
        }
    }

    #[test]
    fn registry_len_tracks_enrollment() {
        let (reg, _, _) = setup();
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn detached_sign_verify_roundtrip() {
        let (reg, kp, id) = setup();
        let sig = sign_bytes(id, b"record-bytes", &kp.secret);
        assert!(verify_bytes(&reg, id, b"record-bytes", &sig));
        assert!(!verify_bytes(&reg, id, b"record-bytez", &sig), "tampered bytes");
        assert!(!verify_bytes(&reg, PrincipalId(999), b"record-bytes", &sig), "unknown signer");
    }

    #[test]
    fn detached_signature_binds_the_signer() {
        // Same key registered under two ids: a signature made as `a`
        // must not verify when attributed to `b`.
        let mut rng = StdRng::seed_from_u64(14);
        let mut reg = KeyRegistry::new();
        let a = PrincipalId(1);
        let b = PrincipalId(2);
        let kp = KeyPair::generate(&mut rng);
        reg.register(a, kp.public);
        reg.register(b, kp.public);
        let sig = sign_bytes(a, b"payload", &kp.secret);
        assert!(verify_bytes(&reg, a, b"payload", &sig));
        assert!(!verify_bytes(&reg, b, b"payload", &sig));
    }

    #[test]
    fn detached_and_enveloped_signatures_agree() {
        // sign_bytes over a payload's canonical bytes must produce the
        // same signature Signed::seal embeds — one signing discipline,
        // two carriers.
        let (reg, kp, id) = setup();
        let payload = 99u64;
        let enveloped = Signed::seal(payload, id, &kp.secret);
        let detached = sign_bytes(id, &payload.auth_bytes()[..], &kp.secret);
        assert_eq!(enveloped.signature, detached);
        assert!(verify_bytes(&reg, id, &payload.auth_bytes()[..], &detached));
    }
}
