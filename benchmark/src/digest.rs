//! A small order-sensitive 64-bit digest (FNV-1a-style, one multiply per
//! 64-bit word).
//!
//! Used for the `input_digest` of generated workloads and the
//! `events_digest` of detector output: two runs agree on a digest exactly
//! when they fed, or reported, the same values in the same order.

/// Running digest state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one 64-bit value in.
    pub fn u64(&mut self, value: u64) {
        let mixed = (self.0 ^ value).wrapping_mul(0x0000_0100_0000_01B3);
        // The multiply only carries upwards; fold the high half back down
        // so every input bit reaches every later output bit.
        self.0 = mixed ^ (mixed >> 32);
    }

    /// Folds raw bytes in, eight at a time, then the length.
    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.u64(u64::from_le_bytes(tail));
        self.u64(bytes.len() as u64);
    }

    /// The digest of everything folded in so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_content_sensitive() {
        let digest = |values: &[u64]| {
            let mut d = Digest::new();
            values.iter().for_each(|&v| d.u64(v));
            d.value()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 2]));
        assert_ne!(digest(&[]), digest(&[0]));
    }

    #[test]
    fn byte_strings_of_different_length_differ() {
        let digest = |bytes: &[u8]| {
            let mut d = Digest::new();
            d.bytes(bytes);
            d.value()
        };
        assert_ne!(digest(b"abc"), digest(b"abc\0"));
        assert_ne!(digest(b"12345678"), digest(b"123456789"));
        assert_eq!(digest(b"hello world"), digest(b"hello world"));
    }
}
