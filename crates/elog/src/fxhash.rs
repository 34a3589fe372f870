//! FxHash-style 64-bit hashing (the rustc-hash multiply-rotate scheme):
//! fast, deterministic, and good enough dispersion for content
//! addressing, shard selection and the executor's hash sets. Not
//! cryptographic.
//!
//! [`fxhash64`] hashes a byte string; [`FxHasher64`] computes the same
//! value over bytes fed in pieces and serves as the [`Hasher`] of the
//! executor's dedup sets. Store keys and plan ids are `fxhash64` values
//! on disk, so the function may never change.

use std::fmt;
use std::hash::Hasher;

/// The FxHash of `bytes`, eight little-endian bytes per step, then the
/// zero-padded tail and the length.
pub fn fxhash64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        hash = fx_mix(hash, u64::from_le_bytes(c.try_into().expect("chunk of 8")));
    }
    fx_finish(hash, chunks.remainder(), bytes.len() as u64)
}

/// One step of [`fxhash64`]: fold an 8-byte little-endian word in.
fn fx_mix(hash: u64, word: u64) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// The last steps of [`fxhash64`]: the tail of fewer than 8 bytes as one
/// zero-padded word (an empty tail too), then the total length.
fn fx_finish(hash: u64, tail: &[u8], len: u64) -> u64 {
    let mut word: u64 = 0;
    for (i, b) in tail.iter().enumerate() {
        word |= (*b as u64) << (8 * i);
    }
    fx_mix(fx_mix(hash, word), len)
}

/// [`fxhash64`] of bytes fed in pieces: [`finish`](Hasher::finish)
/// returns `fxhash64` of everything [`write`](Hasher::write) was given,
/// concatenated, without building the concatenation. Integers go through
/// `write` as their native-endian bytes (the [`Hasher`] defaults). It
/// buffers at most one partial 8-byte word. As a [`fmt::Write`] sink it
/// hashes a `Display` value as it is printed (the plan id hashes the
/// program text this way).
#[derive(Debug, Default, Clone)]
pub struct FxHasher64 {
    hash: u64,
    /// The bytes received so far of the next word.
    word: [u8; 8],
    filled: usize,
    len: u64,
}

impl Hasher for FxHasher64 {
    fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.filled > 0 {
            let take = bytes.len().min(8 - self.filled);
            self.word[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < 8 {
                return;
            }
            self.hash = fx_mix(self.hash, u64::from_le_bytes(self.word));
            self.filled = 0;
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.hash = fx_mix(
                self.hash,
                u64::from_le_bytes(c.try_into().expect("chunk of 8")),
            );
        }
        let rest = chunks.remainder();
        self.word[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    fn finish(&self) -> u64 {
        fx_finish(self.hash, &self.word[..self.filled], self.len)
    }
}

impl fmt::Write for FxHasher64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_writes_hash_their_native_bytes() {
        let mut h = FxHasher64::default();
        h.write_u32(7);
        h.write_u64(u64::MAX);
        h.write_u8(3);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u32.to_ne_bytes());
        bytes.extend_from_slice(&u64::MAX.to_ne_bytes());
        bytes.push(3);
        assert_eq!(h.finish(), fxhash64(&bytes));
    }
}
