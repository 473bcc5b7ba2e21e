//! [`WordHasher`]: the workspace's deterministic content hash.
//!
//! One `u64` word is absorbed per step with a *folded multiply*: the
//! 128-bit product of `state ^ word` and an odd constant, with its two
//! halves XORed together. The high half carries every input bit into
//! every output bit, so a change in a word's top bit (an `f64` sign)
//! reaches the whole state — unlike a per-word FNV step, where bit 63
//! of a word only ever reaches bit 63 of the state.
//!
//! Slices of at least four words run on four independent lanes, folded
//! into the state in lane order at the end, so the multiplies overlap
//! instead of forming one dependency chain. The hash is not keyed and
//! not randomized: identical inputs hash identically across runs and
//! platforms, which is what a simulation's content addresses need. It
//! is not collision-resistant against a chosen-input adversary.
//!
//! The hasher does not frame its input; callers write a type tag and
//! the length before variable-length data (see
//! `kaas_core::content_hash`).

/// Odd multiplier of the folded multiply (the 64-bit golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;
/// Initial state (hex digits of π).
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// Per-lane offsets of the initial state, so equal words in different
/// lanes contribute differently (further digits of π).
const LANE_SEEDS: [u64; 4] = [
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
    0x4528_21e6_38d0_1377,
];

/// `a * K` as a 128-bit product, low and high halves XORed.
#[inline(always)]
fn fold_mul(a: u64) -> u64 {
    let p = u128::from(a) * u128::from(K);
    (p as u64) ^ ((p >> 64) as u64)
}

/// A little-endian word from up to 8 bytes, zero-padded.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// Word-at-a-time hasher over an unframed stream of `u64` words.
///
/// ```
/// use kaas_kernels::WordHasher;
///
/// let mut a = WordHasher::new();
/// a.write_f64s(&[1.0, 2.0]);
/// let mut b = WordHasher::new();
/// b.write_f64s(&[-1.0, -2.0]);
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Debug)]
pub struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl WordHasher {
    /// A hasher in its fixed initial state.
    pub const fn new() -> Self {
        WordHasher(SEED)
    }

    /// Absorbs one word.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.0 = fold_mul(self.0 ^ word);
    }

    /// Absorbs each float's bit pattern as one word.
    pub fn write_f64s(&mut self, v: &[f64]) {
        let mut blocks = v.chunks_exact(4);
        self.write_blocks(
            blocks
                .by_ref()
                .map(|b| [b[0], b[1], b[2], b[3]].map(f64::to_bits)),
        );
        for x in blocks.remainder() {
            self.write_u64(x.to_bits());
        }
    }

    /// Absorbs `bytes` as little-endian 8-byte words, the last one
    /// zero-padded. Callers frame the length: `[1]` and `[1, 0]` absorb
    /// the same word.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut blocks = bytes.chunks_exact(32);
        self.write_blocks(
            blocks
                .by_ref()
                .map(|b| std::array::from_fn(|i| le_word(&b[8 * i..8 * i + 8]))),
        );
        for word in blocks.remainder().chunks(8) {
            self.write_u64(le_word(word));
        }
    }

    /// Runs `blocks` on four lanes seeded from the current state, then
    /// absorbs the lanes in order. No blocks, no lanes.
    fn write_blocks(&mut self, blocks: impl ExactSizeIterator<Item = [u64; 4]>) {
        if blocks.len() == 0 {
            return;
        }
        let mut lanes = LANE_SEEDS.map(|s| self.0 ^ s);
        for block in blocks {
            for (lane, word) in lanes.iter_mut().zip(block) {
                *lane = fold_mul(*lane ^ word);
            }
        }
        for lane in lanes {
            self.write_u64(lane);
        }
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_and_words_agree_on_little_endian_words() {
        let words = [0x0102_0304_0506_0708u64, 9, 10, 11, 12];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut a = WordHasher::new();
        a.write_bytes(&bytes);
        let mut b = WordHasher::new();
        b.write_f64s(&words.map(f64::from_bits));
        assert_eq!(a.finish(), b.finish());
    }
}
