//! Offline stand-in for the `rand_chacha` crate.
//!
//! Implements a genuine ChaCha8 keystream generator (RFC 8439 quarter-round
//! schedule, 8 double-rounds) over the vendored `rand` shim's traits.  The
//! word-to-`u64` packing differs from the real `rand_chacha`, so value
//! streams are reproducible within this workspace but not bit-identical to
//! upstream — which no code here relies on.

use rand::{RngCore, SeedableRng};

const ROUNDS: usize = 8;
const BUF_WORDS: usize = 16;

/// ChaCha8 random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key + constants + counter + nonce block.
    state: [u32; 16],
    /// Buffered keystream words from the last block.
    buf: [u32; BUF_WORDS],
    /// Next unread index into `buf` (BUF_WORDS = exhausted).
    idx: usize,
}

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut working = self.state;
        for _ in 0..ROUNDS / 2 {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for i in 0..16 {
            self.buf[i] = working[i].wrapping_add(self.state[i]);
        }
        // 64-bit block counter in words 12..14.
        let counter = (self.state[12] as u64 | ((self.state[13] as u64) << 32)).wrapping_add(1);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
        self.idx = 0;
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.idx >= BUF_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_word() as u64;
        let hi = self.next_word() as u64;
        lo | (hi << 32)
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut state = [0u32; 16];
        // "expand 32-byte k" constants.
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..8 {
            let mut bytes = [0u8; 4];
            bytes.copy_from_slice(&seed[4 * i..4 * i + 4]);
            state[4 + i] = u32::from_le_bytes(bytes);
        }
        // Counter and nonce start at zero.
        ChaCha8Rng { state, buf: [0; BUF_WORDS], idx: BUF_WORDS }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(123);
        let mut b = ChaCha8Rng::seed_from_u64(123);
        for _ in 0..200 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_works_through_the_trait() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..500 {
            let v = rng.gen_range(0.0f64..1.0);
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn keystream_has_no_short_cycle() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let first: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        // Next blocks must not repeat the first words (counter advances).
        for _ in 0..64 {
            let w = rng.next_u64();
            assert_ne!(w, first[0]);
        }
    }
}
