//! The host-speed probe every timed sample is normalised by.
//!
//! On a shared host the speed of a vCPU drifts by up to 1.7× over tens of
//! seconds, with other tenants' load. A run interleaves short probes with
//! its timed samples and scales each sample by the reference probe time
//! over the probes taken right before and after it. The probe is the
//! benchmark's own fixed code, so a change to the program moves the
//! normalised times exactly as it moves the raw ones.
//!
//! A probe hashes a 16 KiB buffer 16 times with the SHA-256 compression
//! function, about 1.5 ms. On a 2-vCPU Xeon host, over eight minutes in
//! which the simulator's speed moved by 1.67×, its time over that of
//! hashing moved by 1.10× across 30-second windows. The buffer fits the
//! L1 cache, whose sets the virtual address picks, so a probe does not
//! depend on which physical pages a process got.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Probe seconds of the reference host state: a normalised time is the
/// time the sample would have taken had the probe read this.
pub const REF_PROBE_S: f64 = 0.0015;

const HASH_BYTES: usize = 16 << 10;
const HASH_PASSES: usize = 16;

pub struct Calib {
    buf: Vec<u8>,
    state: Mutex<ProbeState>,
}

struct ProbeState {
    hash: [u32; 8],
    /// Every probe taken, for the record.
    probes: Vec<f64>,
}

impl Calib {
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let buf = (0..HASH_BYTES).map(|_| next() as u8).collect();
        Calib {
            buf,
            state: Mutex::new(ProbeState {
                hash: IV,
                probes: Vec::new(),
            }),
        }
    }

    /// Take one probe; returns its seconds.
    pub fn probe(&self) -> f64 {
        let mut st = self.state.lock().expect("probe state");
        let t = Instant::now();
        for _ in 0..HASH_PASSES {
            for block in self.buf.chunks_exact(64) {
                compress(&mut st.hash, block);
            }
        }
        std::hint::black_box(&st.hash);
        let s = t.elapsed().as_secs_f64();
        st.probes.push(s);
        s
    }

    /// Every probe taken so far, in seconds.
    pub fn probes(&self) -> Vec<f64> {
        self.state.lock().expect("probe state").probes.clone()
    }

    /// `raw` seconds of a sample taken between probes `before` and
    /// `after`, scaled to the reference probe time.
    pub fn norm(raw: f64, before: f64, after: f64) -> f64 {
        raw * REF_PROBE_S / (before * after).sqrt()
    }
}

/// A timer normalised piecewise, for intervals too long to sit between
/// two probes: [`Clock::split`] closes the current piece with a probe,
/// normalises it by the probes at its two ends and starts the next one.
/// Probe time is left out of both totals.
pub struct Clock {
    cal: Arc<Calib>,
    last: f64,
    start: Instant,
    raw: f64,
    norm: f64,
}

impl Clock {
    pub fn start(cal: Arc<Calib>) -> Self {
        let last = cal.probe();
        Clock {
            cal,
            last,
            start: Instant::now(),
            raw: 0.0,
            norm: 0.0,
        }
    }

    /// Seconds since the current piece began.
    pub fn piece_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Close the current piece; returns its normalised over raw seconds.
    pub fn split(&mut self) -> f64 {
        let raw = self.piece_s();
        let next = self.cal.probe();
        let scale = Calib::norm(1.0, self.last, next);
        self.raw += raw;
        self.norm += raw * scale;
        self.last = next;
        self.start = Instant::now();
        scale
    }

    /// Raw and normalised seconds of the closed pieces.
    pub fn totals(&self) -> (f64, f64) {
        (self.raw, self.norm)
    }
}

const IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

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

/// The SHA-256 compression function over one 64-byte block.
fn compress(state: &mut [u32; 8], block: &[u8]) {
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
