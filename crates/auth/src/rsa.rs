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
    PreparedKey::new(*key).verify(&Digest::of(message), sig)
}

/// Modular exponentiation by squaring, `base^exp mod modulus`.
///
/// # Panics
///
/// Panics if `modulus` is zero.
pub fn mod_pow(base: u64, exp: u64, modulus: u64) -> u64 {
    Modulus::new(modulus).pow(base, exp)
}

/// A public key with its modulus prepared for Montgomery arithmetic, so
/// that a key checked many times works its constants out once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreparedKey {
    modulus: Modulus,
    e: u64,
}

impl PreparedKey {
    pub(crate) fn new(key: PublicKey) -> Self {
        PreparedKey { modulus: Modulus::new(key.n), e: key.e }
    }

    pub(crate) fn public(&self) -> PublicKey {
        PublicKey { n: self.modulus.n, e: self.e }
    }

    /// Whether `sig` is the signature of the message hashed to `digest`.
    pub(crate) fn verify(&self, digest: &Digest, sig: &Signature) -> bool {
        self.modulus.pow(sig.0, self.e) == digest.prefix_u64() % self.modulus.n
    }
}

/// A modulus `n` and, when `n` is odd, its Montgomery constants for
/// `R = 2^64` (Montgomery, "Modular Multiplication Without Trial
/// Division", Math. Comp. 1985): a product is reduced by two multiplies
/// and a shift instead of a 128-bit division. An even `n` has no such
/// constants and takes the 128-bit remainder loop; the two give the same
/// results.
#[derive(Debug, Clone, Copy)]
struct Modulus {
    n: u64,
    /// `-n^-1 mod R`.
    n_neg_inv: u64,
    /// `R^2 mod n`, which [`Modulus::mont_form`] multiplies by.
    r2: u64,
}

impl Modulus {
    /// # Panics
    ///
    /// Panics if `n` is zero.
    fn new(n: u64) -> Self {
        assert!(n != 0, "modulus must be non-zero");
        if n.is_multiple_of(2) {
            return Modulus { n, n_neg_inv: 0, r2: 0 };
        }
        // Newton's iteration doubles the correct low bits of an inverse
        // mod 2^k; `n` is its own inverse mod 2^3, so five steps reach 64.
        let mut inv = n;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n.wrapping_mul(inv)));
        }
        let r = n.wrapping_neg() % n;
        let r2 = (r as u128 * r as u128 % n as u128) as u64;
        Modulus { n, n_neg_inv: inv.wrapping_neg(), r2 }
    }

    /// `base^exp mod n`.
    fn pow(&self, base: u64, exp: u64) -> u64 {
        if self.n.is_multiple_of(2) {
            return mod_pow_u128(base, exp, self.n);
        }
        self.redc(self.pow_mont(base, exp) as u128)
    }

    /// `base^exp` in Montgomery form, left to right over the bits of
    /// `exp`; `n` must be odd.
    fn pow_mont(&self, base: u64, exp: u64) -> u64 {
        if exp == 0 {
            return self.mont_form(1);
        }
        let b = self.mont_form(base % self.n);
        let mut x = b;
        for bit in (0..63 - exp.leading_zeros()).rev() {
            x = self.mul(x, x);
            if exp >> bit & 1 == 1 {
                x = self.mul(x, b);
            }
        }
        x
    }

    /// `a·R mod n` for `a < n`.
    fn mont_form(&self, a: u64) -> u64 {
        self.mul(a, self.r2)
    }

    /// `a·b·R^-1 mod n` for Montgomery forms `a, b < n`.
    fn mul(&self, a: u64, b: u64) -> u64 {
        self.redc(a as u128 * b as u128)
    }

    /// `t·R^-1 mod n` for `t < n·R`. `t + m·n` is below `2·n·R`, which
    /// passes 2^128 once `n` passes 2^63 (every generated modulus does),
    /// so the carry out of the add is the quotient's 65th bit.
    fn redc(&self, t: u128) -> u64 {
        let m = (t as u64).wrapping_mul(self.n_neg_inv);
        let (sum, carry) = t.overflowing_add(m as u128 * self.n as u128);
        let u = (sum >> 64) as u64;
        if carry || u >= self.n {
            u.wrapping_sub(self.n)
        } else {
            u
        }
    }
}

/// `base^exp mod modulus` by right-to-left squaring with a 128-bit
/// remainder per product: the path for an even modulus, and the
/// reference the Montgomery path is tested against.
fn mod_pow_u128(base: u64, mut exp: u64, modulus: u64) -> u64 {
    let m = modulus as u128;
    let mut result: u128 = 1 % m;
    let mut b = (base % modulus) as u128;
    while exp > 0 {
        if exp & 1 == 1 {
            result = result * b % m;
        }
        b = b * b % m;
        exp >>= 1;
    }
    result as u64
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
    // Compared in Montgomery form: 1 and n - 1 are R and n - R there.
    let modulus = Modulus::new(n);
    let one = modulus.mont_form(1);
    let minus_one = n - one;
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = modulus.pow_mont(a, d);
        if x == one || x == minus_one {
            continue;
        }
        for _ in 0..s - 1 {
            x = modulus.mul(x, x);
            if x == minus_one {
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Exact primality by trial division, for the ranges it can cover.
    fn is_prime_by_division(n: u64) -> bool {
        n >= 2 && (2..).take_while(|p| p * p <= n).all(|p| !n.is_multiple_of(p))
    }

    proptest! {
        #[test]
        fn montgomery_pow_matches_u128_on_moduli_past_2_pow_63(
            n in (1u64 << 63)..=u64::MAX,
            base in any::<u64>(),
            exp in any::<u64>(),
        ) {
            let n = n | 1;
            prop_assert_eq!(mod_pow(base, exp, n), mod_pow_u128(base, exp, n));
            prop_assert_eq!(mod_pow(base, 65_537, n), mod_pow_u128(base, 65_537, n));
        }

        #[test]
        fn montgomery_pow_matches_u128_near_u64_max(
            below in 0u64..1 << 20,
            base in any::<u64>(),
            exp in any::<u64>(),
        ) {
            let n = (u64::MAX - below) | 1;
            // Operands just under n make `t + m·n` carry out of 128 bits.
            for b in [base, n - 1, n - 2, n - 1 - below % (n - 1)] {
                prop_assert_eq!(mod_pow(b, exp, n), mod_pow_u128(b, exp, n));
            }
        }

        #[test]
        fn montgomery_pow_matches_u128_on_small_odd_moduli(
            n in 0u64..1 << 16,
            base in any::<u64>(),
            exp in 0u64..1 << 12,
        ) {
            let n = n | 1;
            prop_assert_eq!(mod_pow(base, exp, n), mod_pow_u128(base, exp, n));
        }

        #[test]
        fn mod_pow_stays_total_on_even_moduli(
            n in 1u64..=u64::MAX / 2,
            base in any::<u64>(),
            exp in any::<u64>(),
        ) {
            let n = n * 2;
            prop_assert_eq!(mod_pow(base, exp, n), mod_pow_u128(base, exp, n));
        }
    }

    #[test]
    fn mod_pow_edge_exponents_and_moduli() {
        for n in [1u64, 3, 1_000, 0xc000_0001, 0xc000_0001 * 0xc000_0003, u64::MAX] {
            for base in [0u64, 1, 2, n - 1, n, u64::MAX] {
                for exp in [0u64, 1, 2, 3, 65_537, u64::MAX] {
                    assert_eq!(mod_pow(base, exp, n), mod_pow_u128(base, exp, n), "{base}^{exp} mod {n}");
                }
            }
        }
    }

    #[test]
    fn is_prime_agrees_with_trial_division_below_2_pow_20() {
        for n in 0..1u64 << 20 {
            assert_eq!(is_prime(n), is_prime_by_division(n), "{n}");
        }
    }

    #[test]
    fn is_prime_agrees_with_trial_division_just_below_2_pow_32() {
        for n in (1u64 << 32) - 20_000..1 << 32 {
            assert_eq!(is_prime(n), is_prime_by_division(n), "{n}");
        }
    }

    #[test]
    fn sign_returns_the_pinned_signatures() {
        // (seed, n, d, signature over "grant access", over ""), as the
        // 128-bit remainder loop computed them.
        let pinned = [
            (1u64, 0xbdca067dab245e87u64, 0x8f0b1c95fe2a0641u64, 0x7d91cfb8f8f66d36u64, 0x15b3c12b4ea12082u64),
            (2, 0x9fb0e38d92aea32b, 0x9381f8dea2bb93a1, 0x7b51a818f0759c86, 0x291c634c2eaa6c66),
            (3, 0xab5c728169209267, 0x5d3e5fbb70ace521, 0xa82c33217a59448e, 0x80016ec37d764490),
            (4, 0xc954a0728b4db6b3, 0x95eba0b598f23431, 0x635360aa29437f36, 0x52a83cce87c7cbee),
            (5, 0xf0acc4cdc51ba383, 0x3b9ee10589791ba1, 0x9937fdab723895cb, 0xe3af73c69b2adf7c),
        ];
        for (seed, n, d, grant, empty) in pinned {
            let kp = KeyPair::generate(&mut StdRng::seed_from_u64(seed));
            assert_eq!((kp.public.n, kp.secret.d), (n, d), "seed {seed}");
            assert_eq!(kp.sign(b"grant access"), Signature(grant), "seed {seed}");
            assert_eq!(kp.sign(b""), Signature(empty), "seed {seed}");
            assert!(verify(&kp.public, b"grant access", &Signature(grant)));
            assert!(verify(&kp.public, b"", &Signature(empty)));
        }
    }

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
