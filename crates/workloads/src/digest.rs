//! Self-contained SHA-256 (FIPS 180-4).
//!
//! The build environment has no registry access, and content digests must
//! stay stable across Rust releases — unlike `std::hash::DefaultHasher`,
//! which is explicitly unstable. The implementation lives here (rather
//! than in the `poise` core crate, which re-exports it) because trace
//! workloads identify themselves by the digest of their trace file: the
//! digest is part of a [`crate::TraceRef`]'s identity, and therefore of
//! every cache key derived from it.
//!
//! ## Two compression functions
//!
//! Every whole 64-byte block goes through `compress_blocks`, which picks
//! one of two compression functions at run time:
//!
//! - on an x86-64 CPU with the SHA extensions (`sha`, plus `ssse3` and
//!   `sse4.1` for the byte shuffles), the `sha256rnds2`/`sha256msg1`/
//!   `sha256msg2` rounds in `shani`, several times faster than
//!   portable code;
//! - everywhere else, the portable rounds in `compress_portable`.
//!
//! Both compute the same function, so every digest — and every cache key,
//! checksum and trace identity built on one — is the same on every host.
//! The portable rounds stay for two reasons: they are the only path on
//! any other CPU, and they are the reference the tests hold the extension
//! rounds to, block for block. The choice depends on the CPU alone;
//! nothing can force either path.

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

/// Streaming SHA-256 hasher.
pub struct Sha256 {
    state: [u32; 8],
    /// The bytes of an incomplete block; always fewer than 64 between calls.
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb bytes. Whole blocks are compressed straight from `data`;
    /// only a partial block is copied into the buffer.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress_blocks(&mut self.state, &data[..whole]);
        }
        let rest = &data[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finish and return the digest as 64 lowercase hex characters.
    pub fn finish_hex(mut self) -> String {
        let bit_len = self.total_len.wrapping_mul(8);
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        // No room for the 8-byte length: it goes in a block of its own.
        if n >= 56 {
            compress_blocks(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &self.buf);
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(64);
        for byte in self.state.iter().flat_map(|s| s.to_be_bytes()) {
            out.push(char::from(HEX[usize::from(byte >> 4)]));
            out.push(char::from(HEX[usize::from(byte & 0xf)]));
        }
        out
    }
}

/// Compress `blocks` (a whole number of 64-byte blocks) into `state`, on
/// the SHA extensions when the CPU has them and with the portable rounds
/// otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the checks above show that this CPU has every feature
        // `shani::compress_blocks` enables (`sse2` is part of x86-64).
        // Its 16-byte loads stay in bounds: two of the 8-word `state`, one
        // of `K[4i..4i + 4]` for each i < 16, and four of each 64-byte
        // block that `chunks_exact(64)` yields from `blocks`.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress_portable(state, block.try_into().expect("64-byte chunk"));
    }
}

/// The FIPS 180-4 rounds in portable code: one block into `state`.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, c) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
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
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// The FIPS 180-4 rounds on the x86 SHA extensions: every 64-byte
    /// block of `blocks` into `state`, in order. A trailing partial block
    /// is ignored.
    ///
    /// `sha256rnds2` keeps the working variables as two vectors, ABEF and
    /// CDGH, and runs two rounds per call; `sha256msg1`/`sha256msg2`
    /// extend the message schedule four words at a time.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`; the
    /// caller checks this at run time.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte order within each 32-bit lane: the message words are
        // big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let state_ptr = state.as_mut_ptr().cast::<__m128i>();
        // Lanes are named from the highest down: `state` loads as DCBA
        // and HGFE.
        let cdab = _mm_shuffle_epi32(_mm_loadu_si128(state_ptr), 0xb1);
        let efgh = _mm_shuffle_epi32(_mm_loadu_si128(state_ptr.add(1)), 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let block_ptr = block.as_ptr().cast::<__m128i>();
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(block_ptr), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(1)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(2)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(3)), bswap),
            ];
            // `w` holds the schedule words W[4i..4i + 16], four per
            // vector: rounds 4i..4i + 4 take `w[0]`, then the window
            // slides on by four words. (The last four slides compute
            // words no round uses; an optimised build drops them.)
            for i in 0..16 {
                let k = _mm_loadu_si128(K.as_ptr().add(4 * i).cast::<__m128i>());
                let wk = _mm_add_epi32(w[0], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                let [w16, w12, w8, w4] = w;
                let w7 = _mm_alignr_epi8(w4, w8, 4);
                let t = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), w7);
                w = [w12, w8, w4, _mm_sha256msg2_epu32(t, w4)];
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(state_ptr, _mm_blend_epi16(feba, dchg, 0xf0)); // DCBA
        _mm_storeu_si128(state_ptr.add(1), _mm_alignr_epi8(dchg, feba, 8)); // HGFE
    }
}

/// SHA-256 of a string, as hex.
pub fn sha256_hex(s: &str) -> String {
    sha256_hex_bytes(s.as_bytes())
}

/// SHA-256 of raw bytes, as hex.
pub fn sha256_hex_bytes(data: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(data);
    h.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `data` with the FIPS 180-4 padding: a 1 bit, zeros, and the
    /// 64-bit big-endian bit length, to a whole number of blocks.
    fn padded(data: &[u8]) -> Vec<u8> {
        let mut m = data.to_vec();
        m.push(0x80);
        while m.len() % 64 != 56 {
            m.push(0);
        }
        m.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        m
    }

    /// SHA-256 of `data` on the portable rounds alone, as hex.
    fn portable_hex(data: &[u8]) -> String {
        let mut state = Sha256::new().state;
        for block in padded(data).chunks_exact(64) {
            compress_portable(&mut state, block.try_into().unwrap());
        }
        state.iter().map(|s| format!("{s:08x}")).collect()
    }

    /// A fixed pseudo-random buffer (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sha256_matches_known_vectors() {
        // FIPS 180-4 test vectors, on the dispatched path (the SHA
        // extensions where the CPU has them) and on the portable rounds.
        let million_a = "a".repeat(1_000_000);
        for (msg, hex) in [
            (
                "",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                "abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                million_a.as_str(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ] {
            assert_eq!(sha256_hex(msg), hex, "dispatched, {} bytes", msg.len());
            assert_eq!(
                portable_hex(msg.as_bytes()),
                hex,
                "portable, {} bytes",
                msg.len()
            );
        }
        // Multi-block input exercising the buffering path.
        let long = "a".repeat(1000);
        let mut h = Sha256::new();
        for chunk in long.as_bytes().chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish_hex(), sha256_hex(&long));
    }

    #[test]
    fn dispatched_rounds_match_the_portable_rounds() {
        let data = noise(65_537);
        for len in (0..=300).chain([4095, 4096, 4097, 65_537]) {
            let msg = &data[..len];
            let (mut dispatched, mut portable) = (Sha256::new().state, Sha256::new().state);
            for (i, block) in padded(msg).chunks_exact(64).enumerate() {
                compress_blocks(&mut dispatched, block);
                compress_portable(&mut portable, block.try_into().unwrap());
                assert_eq!(dispatched, portable, "{len} bytes, block {i}");
            }
            assert_eq!(sha256_hex_bytes(msg), portable_hex(msg), "{len} bytes");
        }
        // Fed in pieces of any size, the stream gives the one-shot digest.
        let one_shot = sha256_hex_bytes(&data);
        for piece in 1..=65 {
            let mut h = Sha256::new();
            for chunk in data.chunks(piece) {
                h.update(chunk);
            }
            assert_eq!(h.finish_hex(), one_shot, "pieces of {piece} bytes");
        }
    }
}
