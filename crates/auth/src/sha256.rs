//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The access-control protocol assumes an authentication substrate (§2.1
//! of the paper cites RSA). This module provides the hash that substrate
//! is built on. It is a straightforward, well-tested implementation — not
//! hardened against side channels, which is irrelevant inside a simulator.
//!
//! The compression function has two bodies. `compress_scalar` is the
//! 64-round loop of FIPS 180-4 §6.2.2 in portable Rust: the only body on
//! every target but x86-64 and on x86-64 CPUs without the SHA extensions,
//! and the reference the tests hold the other one to. `compress_sha_ext`
//! is the same function on the `sha256rnds2` / `sha256msg1` /
//! `sha256msg2` instructions, five to six times faster per block (≈ 51
//! against ≈ 290 ns on the box DESIGN §4 measures on). Which one runs is
//! decided by `compress` from what the CPU reports
//! (`is_x86_feature_detected!`) and nothing else: no cargo feature, no
//! environment variable, no second hasher type, and the same bytes out of
//! either, so nothing above `compress` can tell which ran.

/// Initial hash values: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A 32-byte SHA-256 digest.
///
/// # Examples
///
/// ```
/// use wanacl_auth::sha256::Digest;
///
/// let d = Digest::of(b"abc");
/// assert!(d.to_hex().starts_with("ba7816bf"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Hashes `data` in one shot.
    pub fn of(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finish()
    }

    /// The digest as raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// The first 8 bytes of the digest as a big-endian integer; used by
    /// the toy RSA layer to map messages into the modulus group.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has 32 bytes"))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use wanacl_auth::sha256::{Digest, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finish(), Digest::of(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffer_len: 0, total_len: 0 }
    }

    /// Resumes hashing from a saved chaining `state` after `absorbed`
    /// bytes (a whole number of 64-byte blocks) have been compressed into
    /// it. Lets a caller that hashes many messages behind one fixed
    /// prefix (the HMAC pads, see [`crate::hmac::HmacKey`]) keep 32 bytes
    /// per prefix instead of a whole hasher.
    pub(crate) fn resume(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % 64, 0);
        Sha256 { state, buffer: [0; 64], buffer_len: 0, total_len: absorbed }
    }

    /// The chaining state after the blocks compressed so far; only
    /// meaningful to [`Sha256::resume`] when no partial block is buffered.
    pub(crate) fn chaining_state(&self) -> [u32; 8] {
        debug_assert_eq!(self.buffer_len, 0);
        self.state
    }

    /// Absorbs more input.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        // A field streamed into an open block (a tag's ids, a
        // signature's header) is one fixed-size copy once inlined.
        let len = self.buffer_len;
        if len + data.len() < 64 {
            self.buffer[len..len + data.len()].copy_from_slice(data);
            self.buffer_len = len + data.len();
            self.total_len = self.total_len.wrapping_add(data.len() as u64);
            return;
        }
        self.update_blocks(data);
    }

    /// [`Sha256::update`] for input that fills the open block.
    fn update_blocks(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        while let Some((block, rest)) = data.split_first_chunk::<64>() {
            compress(&mut self.state, block);
            data = rest;
        }
        self.buffer[..data.len()].copy_from_slice(data);
        self.buffer_len = data.len();
    }

    /// Finalizes and returns the digest, consuming the hasher.
    pub fn finish(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros to 56 mod 64, then the 64-bit length —
        // at most one block plus the 8 length bytes.
        let rem = (self.buffer_len + 1) % 64;
        let zeros = if rem <= 56 { 56 - rem } else { 120 - rem };
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[1 + zeros..1 + zeros + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..1 + zeros + 8]);
        debug_assert_eq!(self.buffer_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// One application of the SHA-256 compression function to `state`, on
/// the SHA extensions when this CPU has them and in portable code when
/// it has not.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    if !compress_on_sha_ext(state, block) {
        compress_scalar(state, block);
    }
}

/// Runs [`compress_sha_ext`] if this CPU can; `false` means it cannot
/// and `state` is untouched. The detection is std's cached CPUID bits,
/// an atomic load and a mask per call.
#[cfg(target_arch = "x86_64")]
fn compress_on_sha_ext(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    let detected = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    if detected {
        // SAFETY: `compress_sha_ext` is safe code whose only requirement
        // is a CPU with the `sha`, `sse2`, `ssse3` and `sse4.1` features
        // it is compiled for, and `is_x86_feature_detected!` has just
        // reported all four on the CPU this is running on.
        unsafe { compress_sha_ext(state, block) };
    }
    detected
}

/// No SHA extensions to detect off x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn compress_on_sha_ext(_state: &mut [u32; 8], _block: &[u8; 64]) -> bool {
    false
}

/// The compression function on the x86 SHA extensions. The instructions
/// keep the eight working variables in two registers, `A B E F` and
/// `C D G H` from the high lane down: `sha256rnds2` takes both plus two
/// `W[t] + K[t]` sums in the low lanes of a third, runs two rounds, and
/// returns the new `A B E F` (the old one is the new `C D G H`), so two
/// of them make four rounds and leave both registers in their roles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ext(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };
    let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
    let (abef_in, cdgh_in) = (_mm_set_epi32(a, b, e, f), _mm_set_epi32(c, d, g, h));
    let (mut abef, mut cdgh) = (abef_in, cdgh_in);
    // The sixteen schedule words the coming rounds read, four to a
    // register, the earliest word in the lowest lane of `w[0]`.
    let mut w = [0, 16, 32, 48].map(|at| {
        let word = |i: usize| {
            i32::from_be_bytes(block[at + 4 * i..at + 4 * i + 4].try_into().expect("4 bytes"))
        };
        _mm_set_epi32(word(3), word(2), word(1), word(0))
    });
    for k in K.chunks_exact(4) {
        let [w0, w1, w2, w3] = w;
        let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
        let wk = _mm_add_epi32(w0, k);
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0b1110>(wk));
        // W[t..t+4] for the four rounds sixteen on, from the sixteen
        // words before them (§6.2.2 step 1): `msg1` adds σ0, the
        // `alignr` picks W[t-7..t-3], `msg2` adds σ1. The last four
        // turns compute words no round reads.
        let sigma0 = _mm_sha256msg1_epu32(w0, w1);
        let w4 = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, _mm_alignr_epi8::<4>(w3, w2)), w3);
        w = [w1, w2, w3, w4];
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|word| word as u32);
}

/// The compression function in portable code, FIPS 180-4 §6.2.2 as
/// written.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A compression body, as the vector tests take it.
    pub(crate) type Compress = fn(&mut [u32; 8], &[u8; 64]);

    /// Every body this CPU can run, each called directly: the scalar one
    /// always, the SHA-extension one where [`compress_on_sha_ext`] finds
    /// the instructions — and, once per run, a line on stderr where it
    /// does not, so a run that compared the hardware body with nothing
    /// says so.
    pub(crate) fn bodies() -> Vec<(&'static str, Compress)> {
        static SAID: std::sync::Once = std::sync::Once::new();
        let mut bodies: Vec<(&'static str, Compress)> = vec![("scalar", compress_scalar)];
        if compress_on_sha_ext(&mut [0; 8], &[0; 64]) {
            bodies.push(("sha-ext", |state, block| {
                assert!(compress_on_sha_ext(state, block), "detected a moment ago");
            }));
        } else {
            SAID.call_once(|| {
                eprintln!(
                    "sha256: no SHA extensions on this CPU; the hardware body was compared \
                     with nothing, only the scalar one ran"
                );
            });
        }
        bodies
    }

    /// SHA-256 of `data` on `compress` alone: pads into one buffer and
    /// walks it, sharing no code with [`Sha256`], so a vector through it
    /// pins that body and the hasher's buffering has a reference.
    pub(crate) fn digest_with(compress: Compress, data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress(&mut state, block.try_into().expect("64 bytes"));
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// `data` hashes to `want` through the hasher and on every body.
    fn assert_digest(data: &[u8], want: &str) {
        assert_eq!(Digest::of(data).to_hex(), want, "hasher, {} bytes", data.len());
        for (name, body) in bodies() {
            assert_eq!(digest_with(body, data).to_hex(), want, "{name} body, {} bytes", data.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2_048, ..ProptestConfig::default() })]
        #[test]
        fn every_body_compresses_random_states_and_blocks_alike(
            state in prop::collection::vec(any::<u32>(), 8),
            block in prop::collection::vec(any::<u8>(), 64),
        ) {
            let state: [u32; 8] = state.try_into().expect("8 words");
            let block: [u8; 64] = block.try_into().expect("64 bytes");
            let mut want = state;
            compress_scalar(&mut want, &block);
            let mut dispatched = state;
            compress(&mut dispatched, &block);
            prop_assert_eq!(dispatched, want, "dispatched");
            for (name, body) in bodies() {
                let mut got = state;
                body(&mut got, &block);
                prop_assert_eq!(got, want, "{} body", name);
            }
        }
    }

    proptest! {
        #[test]
        fn every_length_to_200_split_anywhere_matches_every_body(
            data in prop::collection::vec(any::<u8>(), 200),
            cuts in prop::collection::vec(0usize..=200, 0..=4),
        ) {
            let bodies = bodies();
            for len in 0..=data.len() {
                let message = &data[..len];
                let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut % (len + 1)).collect();
                cuts.sort_unstable();
                let mut hasher = Sha256::new();
                let mut from = 0;
                for cut in cuts.into_iter().chain([len]) {
                    hasher.update(&message[from..cut]);
                    from = cut;
                }
                let got = hasher.finish();
                for (name, body) in &bodies {
                    prop_assert_eq!(got, digest_with(*body, message), "{} body, {} bytes", name, len);
                }
            }
        }
    }

    #[test]
    fn fips_empty_string() {
        assert_digest(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn fips_abc() {
        assert_digest(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn fips_two_block_message() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn fips_million_a() {
        assert_digest(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0u32..1_000).map(|i| (i % 251) as u8).collect();
        for chunk in [1usize, 3, 63, 64, 65, 127, 500] {
            let mut h = Sha256::new();
            for part in data.chunks(chunk) {
                h.update(part);
            }
            assert_eq!(h.finish(), Digest::of(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding around the 55/56/64-byte boundaries.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xAB; len];
            let mut h = Sha256::new();
            h.update(&data);
            let one = h.finish();
            let mut h2 = Sha256::new();
            let mid = len / 2;
            h2.update(&data[..mid]);
            h2.update(&data[mid..]);
            assert_eq!(one, h2.finish(), "len {len}");
        }
    }

    #[test]
    fn padding_edges_match_independent_digests() {
        // `[0xAB; len]` hashed by another implementation (Python's
        // hashlib), at every length where the padding changes shape:
        // the 0x80 and the length share the last block up to 55 bytes
        // and spill into one more from 56.
        for (len, want) in [
            (55usize, "48d76eab30e51201f4f03ec7a85dab8510fb3409ccd15b54767f9b4435c9f54d"),
            (56, "a8c9906ade2a2eff868fd8f97a570bbc01a13cddc32c3dfdc9a18f0618d69e55"),
            (57, "21d063693fbba44f9ffa966466e2f94d9931b9c9519120c3804ef1ceafd989b5"),
            (63, "d1036ba30d050c74b1a5ab301fa29ff0c607a27cc55af3412577f7e06dbd190b"),
            (64, "ec65c8798ecf95902413c40f7b9e6d4b0068885f5f324aba1f9ba1c8e14aea61"),
            (65, "39cd843414d5125dd308568ace26d04e60b7fa6d2b1a901fb5184fa2eae0598b"),
            (119, "a773085d98f8978583efd89d0f06e29076a12e2e059103ec533f63e1c6f17dd7"),
            (120, "3442eea54f994b0d41c1da867e8347d69fa1a40e2d8a437dcde54dae74504922"),
        ] {
            assert_digest(&vec![0xAB; len], want);
        }
    }

    #[test]
    fn resume_continues_from_a_saved_block_boundary() {
        let data: Vec<u8> = (0u32..200).map(|i| i as u8).collect();
        for blocks in [1usize, 2, 3] {
            let (absorbed, rest) = data.split_at(blocks * 64);
            let mut head = Sha256::new();
            head.update(absorbed);
            // The saved state is the same whichever body made it, and the
            // hasher picks up from it.
            for (name, body) in bodies() {
                let mut state = H0;
                for block in absorbed.chunks_exact(64) {
                    body(&mut state, block.try_into().expect("64 bytes"));
                }
                assert_eq!(state, head.chaining_state(), "{name} body, {blocks} blocks");
                let mut tail = Sha256::resume(state, absorbed.len() as u64);
                tail.update(rest);
                assert_eq!(tail.finish(), Digest::of(&data), "{name} body, {blocks} blocks");
            }
        }
    }

    #[test]
    fn digest_prefix_u64_is_big_endian() {
        let d = Digest([
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]);
        assert_eq!(d.prefix_u64(), 0x0102030405060708);
    }

    #[test]
    fn display_is_hex() {
        let d = Digest::of(b"abc");
        assert_eq!(d.to_string(), d.to_hex());
        assert_eq!(d.to_hex().len(), 64);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Digest::of(b"a"), Digest::of(b"b"));
        assert_ne!(Digest::of(b""), Digest::of(b"\0"));
    }
}
