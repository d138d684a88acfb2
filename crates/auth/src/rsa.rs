//! Textbook RSA over 64-bit moduli — the paper's assumed public-key
//! authentication (\[22\] in its bibliography), in toy form.
//!
//! **This is not cryptographically secure.** The protocol under study only
//! needs the *interface* of a signature scheme (a message from user `U`
//! verifies against `U`'s public key); a 64-bit modulus exercises exactly
//! the same sign/verify code path at simulation-friendly cost. DESIGN.md
//! records this substitution.

use crate::sha256::Digest;
use rand::Rng;

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    /// Modulus `n = p·q`.
    pub n: u64,
    /// Public exponent.
    pub e: u64,
}

/// An RSA secret key `(n, d)`. `Debug` prints the public modulus and
/// redacts the private exponent.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey {
    /// Modulus `n = p·q`.
    pub n: u64,
    /// Private exponent.
    pub d: u64,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecretKey").field("n", &self.n).field("d", &"<redacted>").finish()
    }
}

/// A signature over a message digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub u64);

/// A public/secret key pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyPair {
    /// The shareable half.
    pub public: PublicKey,
    /// The private half.
    pub secret: SecretKey,
}

impl KeyPair {
    /// Generates a key pair from the given RNG (deterministic under a
    /// seeded RNG, as everything in the simulator must be).
    pub fn generate<R: Rng>(rng: &mut R) -> KeyPair {
        loop {
            let p = random_prime(rng);
            let q = random_prime(rng);
            if p == q {
                continue;
            }
            let n = (p as u64) * (q as u64);
            let phi = (p as u64 - 1) * (q as u64 - 1);
            let e = 65_537u64;
            if gcd(e, phi) != 1 {
                continue;
            }
            let d = match mod_inverse(e, phi) {
                Some(d) => d,
                None => continue,
            };
            return KeyPair { public: PublicKey { n, e }, secret: SecretKey { n, d } };
        }
    }

    /// Signs a message (hash-then-sign: `SHA-256(msg) mod n`, raised to
    /// `d`).
    pub fn sign(&self, message: &[u8]) -> Signature {
        sign(&self.secret, message)
    }
}

/// Signs `message` with `key`.
pub fn sign(key: &SecretKey, message: &[u8]) -> Signature {
    let m = Digest::of(message).prefix_u64() % key.n;
    Signature(mod_pow(m, key.d, key.n))
}

/// Verifies `sig` over `message` against `key`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use wanacl_auth::rsa::{verify, KeyPair};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let kp = KeyPair::generate(&mut rng);
/// let sig = kp.sign(b"grant access");
/// assert!(verify(&kp.public, b"grant access", &sig));
/// assert!(!verify(&kp.public, b"grant more access", &sig));
/// ```
pub fn verify(key: &PublicKey, message: &[u8], sig: &Signature) -> bool {
    let m = Digest::of(message).prefix_u64() % key.n;
    mod_pow(sig.0, key.e, key.n) == m
}

/// Modular exponentiation by squaring, `base^exp mod modulus`.
///
/// # Panics
///
/// Panics if `modulus` is zero.
pub fn mod_pow(mut base: u64, mut exp: u64, modulus: u64) -> u64 {
    assert!(modulus != 0, "modulus must be non-zero");
    if modulus == 1 {
        return 0;
    }
    let m = modulus as u128;
    let mut result: u128 = 1;
    let mut b = (base % modulus) as u128;
    while exp > 0 {
        if exp & 1 == 1 {
            result = result * b % m;
        }
        b = b * b % m;
        exp >>= 1;
    }
    base = result as u64;
    base
}

/// Greatest common divisor.
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Modular inverse of `a` modulo `m` via the extended Euclidean
/// algorithm; `None` when `gcd(a, m) != 1`.
pub fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    let (mut old_r, mut r) = (a as i128, m as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    if old_r != 1 {
        return None;
    }
    let mut inv = old_s % m as i128;
    if inv < 0 {
        inv += m as i128;
    }
    Some(inv as u64)
}

/// Deterministic Miller–Rabin, exact for all `u64` inputs with this
/// witness set.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = mod_pow(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = ((x as u128 * x as u128) % n as u128) as u64;
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Draws a random 32-bit prime (so `p·q` fits in `u64`).
fn random_prime<R: Rng>(rng: &mut R) -> u32 {
    loop {
        // Top two bits set keeps the product comfortably large.
        let candidate: u32 = rng.gen::<u32>() | 0xc000_0001;
        if is_prime(candidate as u64) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mod_pow_small_cases() {
        assert_eq!(mod_pow(2, 10, 1_000), 24);
        assert_eq!(mod_pow(3, 0, 7), 1);
        assert_eq!(mod_pow(0, 5, 7), 0);
        assert_eq!(mod_pow(5, 3, 1), 0);
        // Fermat: a^(p-1) = 1 mod p.
        assert_eq!(mod_pow(2, 12, 13), 1);
    }

    #[test]
    fn mod_pow_large_operands_do_not_overflow() {
        let p = 0xffff_fffb_u64; // large prime-ish operand
        assert_eq!(mod_pow(p - 1, 2, p), 1);
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 5), 1);
        assert_eq!(gcd(0, 9), 9);
        assert_eq!(gcd(9, 0), 9);
    }

    #[test]
    fn mod_inverse_roundtrip() {
        let m = 1_000_000_007u64;
        for a in [2u64, 3, 999, 123_456] {
            let inv = mod_inverse(a, m).expect("prime modulus");
            assert_eq!((a as u128 * inv as u128 % m as u128) as u64, 1);
        }
        assert_eq!(mod_inverse(6, 9), None);
    }

    #[test]
    fn primality_known_values() {
        for p in [2u64, 3, 5, 104_729, 1_000_000_007, 0xffff_ffff_ffff_ffc5] {
            assert!(is_prime(p), "{p} is prime");
        }
        for c in [0u64, 1, 4, 100, 104_730, 1_000_000_007 * 3] {
            assert!(!is_prime(c), "{c} is composite");
        }
        // Strong pseudoprime to several bases; MR with our witness set
        // must still reject it.
        assert!(!is_prime(3_215_031_751));
    }

    #[test]
    fn keypair_sign_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let kp = KeyPair::generate(&mut rng);
            let msg = b"Add(stock-quotes, alice, use)";
            let sig = kp.sign(msg);
            assert!(verify(&kp.public, msg, &sig));
            assert!(!verify(&kp.public, b"Add(stock-quotes, mallory, use)", &sig));
        }
    }

    #[test]
    fn signature_does_not_verify_under_other_key() {
        let mut rng = StdRng::seed_from_u64(8);
        let kp1 = KeyPair::generate(&mut rng);
        let kp2 = KeyPair::generate(&mut rng);
        let sig = kp1.sign(b"msg");
        assert!(!verify(&kp2.public, b"msg", &sig));
    }

    #[test]
    fn keygen_is_deterministic_under_seed() {
        let kp1 = KeyPair::generate(&mut StdRng::seed_from_u64(99));
        let kp2 = KeyPair::generate(&mut StdRng::seed_from_u64(99));
        assert_eq!(kp1.public, kp2.public);
    }

    #[test]
    fn debug_redacts_the_private_exponent() {
        let kp = KeyPair::generate(&mut StdRng::seed_from_u64(5));
        let d = kp.secret.d.to_string();
        for shown in [format!("{:?}", kp.secret), format!("{kp:?}"), format!("{:#?}", kp.secret)] {
            assert!(!shown.contains(&d), "{shown}");
            assert!(!shown.contains(&format!("{:x}", kp.secret.d)), "{shown}");
            assert!(shown.contains("redacted"), "{shown}");
        }
    }

    #[test]
    fn encryption_identity_holds() {
        // m^(ed) = m mod n for m coprime to n.
        let kp = KeyPair::generate(&mut StdRng::seed_from_u64(3));
        for m in [2u64, 12_345, 999_999_937] {
            let c = mod_pow(m, kp.public.e, kp.public.n);
            let back = mod_pow(c, kp.secret.d, kp.secret.n);
            assert_eq!(back, m % kp.public.n);
        }
    }
}
