//! Secure index transmission (paper §7.2).
//!
//! The SSD encrypts the match-index list with its hardware AES-256 engine
//! before it crosses untrusted channels; the AES key itself was delivered
//! to the client in an offline step (wrapped under public-key encryption
//! in the paper — here the key is provisioned out of band). The synthesis
//! estimate for the 22 nm engine is 12.6 ns per 16-byte block.

use cm_aes::Aes;

/// Latency of the hardware AES engine per 16-byte block (§7.2).
pub const AES_BLOCK_LATENCY: f64 = 12.6e-9;

/// Area of the hardware AES engine in mm² (§7.2).
pub const AES_AREA_MM2: f64 = 0.13;

/// The SSD-side index encryption engine.
#[derive(Debug, Clone)]
pub struct SecureIndexChannel {
    aes: Aes,
}

impl SecureIndexChannel {
    /// Provisions the channel with a 256-bit key.
    pub fn new(key: &[u8; 32]) -> Self {
        Self {
            aes: Aes::new_256(key),
        }
    }

    /// Serializes and encrypts a match-index list. Returns the ciphertext
    /// and the modeled hardware latency.
    pub fn seal(&self, indices: &[usize], nonce: u64) -> (Vec<u8>, f64) {
        let mut bytes = Vec::with_capacity(8 + indices.len() * 8);
        bytes.extend_from_slice(&(indices.len() as u64).to_le_bytes());
        for &i in indices {
            bytes.extend_from_slice(&(i as u64).to_le_bytes());
        }
        self.aes.ctr_apply(nonce, &mut bytes);
        let blocks = bytes.len().div_ceil(16) as f64;
        (bytes, blocks * AES_BLOCK_LATENCY)
    }

    /// Decrypts and deserializes a sealed index list (client side).
    ///
    /// # Panics
    ///
    /// Panics on malformed input; use [`Self::try_open`] for a list that
    /// came from a peer.
    pub fn open(&self, sealed: &[u8], nonce: u64) -> Vec<usize> {
        match self.try_open(&mut sealed.to_vec(), nonce) {
            Ok(indices) => indices,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Self::open`] for untrusted input: decrypts `sealed` in place —
    /// the caller's buffer holds the plaintext list afterwards, whatever
    /// the outcome — and returns the indices only if the buffer is exactly
    /// one count word and that many index words.
    ///
    /// # Errors
    ///
    /// [`MalformedIndexList`] if the buffer is shorter than the count
    /// word, or its length is not exactly what the decrypted count
    /// declares (a count no buffer could hold included).
    pub fn try_open(
        &self,
        sealed: &mut [u8],
        nonce: u64,
    ) -> Result<Vec<usize>, MalformedIndexList> {
        self.aes.ctr_apply(nonce, sealed);
        let (count, words) = sealed
            .split_first_chunk::<8>()
            .ok_or(MalformedIndexList("sealed index list too short"))?;
        let declared = usize::try_from(u64::from_le_bytes(*count))
            .ok()
            .and_then(|count| count.checked_mul(8));
        if declared != Some(words.len()) {
            return Err(MalformedIndexList(
                "sealed index list length does not match its count",
            ));
        }
        Ok(words
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]) as usize)
            .collect())
    }
}

/// A sealed index list that does not decrypt to `count | count × index`
/// (wrong key or nonce, truncation, or a hostile peer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalformedIndexList(&'static str);

impl std::fmt::Display for MalformedIndexList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for MalformedIndexList {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let chan = SecureIndexChannel::new(&[0x5A; 32]);
        let indices = vec![0usize, 17, 65535, 1 << 40];
        let (sealed, latency) = chan.seal(&indices, 42);
        assert!(latency > 0.0);
        assert_eq!(chan.open(&sealed, 42), indices);
    }

    #[test]
    fn ciphertext_hides_indices() {
        let chan = SecureIndexChannel::new(&[1; 32]);
        let (sealed, _) = chan.seal(&[1234], 7);
        // The raw little-endian index must not appear in the ciphertext.
        let needle = 1234u64.to_le_bytes();
        assert!(!sealed.windows(8).any(|w| w == needle));
    }

    #[test]
    fn wrong_nonce_fails_to_recover() {
        let chan = SecureIndexChannel::new(&[2; 32]);
        let indices = vec![5usize, 6, 7];
        let (sealed, _) = chan.seal(&indices, 1);
        let result = std::panic::catch_unwind(|| chan.open(&sealed, 2));
        // Either panics on a garbage length or returns wrong data.
        if let Ok(got) = result {
            assert_ne!(got, indices);
        }
    }

    /// Seals raw plaintext bytes the way `seal` would: CTR is its own
    /// inverse.
    fn sealed(chan: &SecureIndexChannel, nonce: u64, plain: &[u8]) -> Vec<u8> {
        let mut bytes = plain.to_vec();
        chan.aes.ctr_apply(nonce, &mut bytes);
        bytes
    }

    #[test]
    fn malformed_lists_are_typed_errors_not_panics() {
        let chan = SecureIndexChannel::new(&[4; 32]);
        let list = |count: u64, words: usize| {
            let mut plain = count.to_le_bytes().to_vec();
            plain.extend_from_slice(&vec![0xAB; words * 8]);
            plain
        };
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),             // empty
            vec![0; 7],             // shorter than the count word
            list(3, 2),             // truncated: three declared, two present
            list(2, 3),             // trailing word past the declared list
            list(u64::MAX, 1),      // count · 8 overflows
            list((1 << 61) + 1, 1), // 8 + count · 8 wraps to 16 in release
            list(1 << 61, 0),       // count · 8 wraps to 0
        ];
        for plain in cases {
            let mut bytes = sealed(&chan, 9, &plain);
            assert!(chan.try_open(&mut bytes, 9).is_err(), "{plain:?}");
            // The caller's buffer was decrypted in place.
            assert_eq!(bytes, plain);
        }
        // Exact lists open, the empty one included.
        assert_eq!(
            chan.try_open(&mut sealed(&chan, 9, &list(0, 0)), 9),
            Ok(vec![])
        );
        let (mut good, _) = chan.seal(&[7, 1 << 40], 11);
        assert_eq!(chan.try_open(&mut good, 11), Ok(vec![7, 1 << 40]));
    }

    #[test]
    #[should_panic(expected = "does not match its count")]
    fn open_still_panics_on_a_truncated_list() {
        let chan = SecureIndexChannel::new(&[5; 32]);
        let (mut sealed, _) = chan.seal(&[1, 2, 3], 1);
        sealed.truncate(sealed.len() - 8);
        chan.open(&sealed, 1);
    }

    #[test]
    fn latency_scales_with_blocks() {
        let chan = SecureIndexChannel::new(&[3; 32]);
        let (_, t_small) = chan.seal(&[1], 0);
        let many: Vec<usize> = (0..1000).collect();
        let (_, t_large) = chan.seal(&many, 0);
        assert!(t_large > 100.0 * t_small);
    }
}
