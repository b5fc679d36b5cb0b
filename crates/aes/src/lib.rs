#![warn(missing_docs)]

//! # cm-aes
//!
//! A from-scratch AES-256 block cipher, forward direction only, with a
//! CTR stream mode.
//!
//! CIPHERMATCH (§7.2) returns match indices from the SSD to the client
//! over an untrusted channel and protects them with the hardware 256-bit
//! AES engine present in commodity SSDs. This crate is the functional
//! model of that engine (16-byte granularity, as in the paper's synthesis
//! estimate: 12.6 ns per block in 22 nm hardware).
//!
//! The cipher runs at table speed: one 32-bit column per state word,
//! and each middle round is sixteen lookups into one 256-entry `u32`
//! table that fuses `SubBytes`, `ShiftRows` and `MixColumns` (the other
//! three column positions read it rotated), with the round keys held as
//! words. The table is built from the S-box at compile time.
//!
//! This is a research artifact: the implementation is table-based and not
//! constant-time — lookups are indexed by key-dependent bytes, so cache
//! timing leaks the key; do not reuse it outside the simulator.
//!
//! ## Example
//!
//! ```
//! use cm_aes::Aes;
//! let key = [0x42u8; 32];
//! let aes = Aes::new_256(&key);
//! let mut buf = *b"match at 4242";
//! aes.ctr_apply(7, &mut buf);
//! assert_ne!(&buf, b"match at 4242");
//! aes.ctr_apply(7, &mut buf);
//! assert_eq!(&buf, b"match at 4242");
//! ```

mod tables;

use tables::SBOX;

/// AES-256 key length in 32-bit words.
const NK: usize = 8;
/// AES-256 round count.
const ROUNDS: usize = 14;
/// Expanded key length in 32-bit words.
const KEY_WORDS: usize = 4 * (ROUNDS + 1);

/// An expanded-key AES-256 cipher.
#[derive(Debug, Clone)]
pub struct Aes {
    /// Round `r`'s key is `round_keys[4r..4r + 4]`, one big-endian word
    /// per state column.
    round_keys: [u32; KEY_WORDS],
}

const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1B)
}

/// GF(2^8) multiplication.
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 == 1 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// The round table: `T[x]` is the column `MixColumns` makes of
/// `(S[x], 0, 0, 0)`, rows 0–3 from the high byte down —
/// `(2·S[x], S[x], S[x], 3·S[x])`. A byte in row `r` of a column
/// contributes `T[x]` rotated right by `8r` bits.
const T: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        t[x] = u32::from_be_bytes([gmul(s, 2), s, s, gmul(s, 3)]);
        x += 1;
    }
    t
};

/// `SubWord`: the S-box on each byte of a word.
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// Byte `row` (0 = the high byte) of a column word, as a table index.
#[inline(always)]
fn byte(w: u32, row: u32) -> usize {
    (w >> (24 - 8 * row)) as u8 as usize
}

impl Aes {
    /// Creates an AES-256 cipher (the paper's SSD engine).
    pub fn new_256(key: &[u8; 32]) -> Self {
        let mut w = [0u32; KEY_WORDS];
        for (word, chunk) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let mut rcon = 1u8;
        for i in NK..KEY_WORDS {
            let mut temp = w[i - 1];
            if i % NK == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = xtime(rcon);
            } else if i % NK == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - NK] ^ temp;
        }
        Self { round_keys: w }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let rk = &self.round_keys;
        let mut s = [0u32; 4];
        for (c, (word, chunk)) in s.iter_mut().zip(block.chunks_exact(4)).enumerate() {
            *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ rk[c];
        }
        // `ShiftRows` moves row `r` left by `r` columns, so output column
        // `c` reads row `r` from column `c + r`.
        for round in 1..ROUNDS {
            let k = &rk[4 * round..4 * round + 4];
            s = std::array::from_fn(|c| {
                T[byte(s[c], 0)]
                    ^ T[byte(s[(c + 1) % 4], 1)].rotate_right(8)
                    ^ T[byte(s[(c + 2) % 4], 2)].rotate_right(16)
                    ^ T[byte(s[(c + 3) % 4], 3)].rotate_right(24)
                    ^ k[c]
            });
        }
        // The last round has no `MixColumns`: S-box bytes, shifted.
        let k = &rk[4 * ROUNDS..];
        let mut out = [0u8; 16];
        for (c, chunk) in out.chunks_exact_mut(4).enumerate() {
            let word = u32::from_be_bytes(std::array::from_fn(|r| {
                SBOX[byte(s[(c + r) % 4], r as u32)]
            }));
            chunk.copy_from_slice(&(word ^ k[c]).to_be_bytes());
        }
        out
    }

    /// CTR-mode keystream XOR (encryption == decryption). Used to protect
    /// arbitrary-length index lists at 16-byte engine granularity.
    pub fn ctr_apply(&self, nonce: u64, data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(16).enumerate() {
            let mut counter_block = [0u8; 16];
            counter_block[..8].copy_from_slice(&nonce.to_be_bytes());
            counter_block[8..].copy_from_slice(&(i as u64).to_be_bytes());
            let ks = self.encrypt_block(&counter_block);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips197_aes256_vector() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let pt: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes::new_256(&key);
        assert_eq!(
            aes.encrypt_block(&pt).to_vec(),
            hex("8ea2b7ca516745bfeafc49904b496089")
        );
    }

    #[test]
    fn ctr_mode_roundtrip_and_nonce_sensitivity() {
        let aes = Aes::new_256(&[9u8; 32]);
        let msg = b"match indices: 17, 4242, 99999".to_vec();
        let mut buf = msg.clone();
        aes.ctr_apply(0xDEADBEEF, &mut buf);
        assert_ne!(buf, msg);
        let cipher_a = buf.clone();
        aes.ctr_apply(0xDEADBEEF, &mut buf);
        assert_eq!(buf, msg);
        // Different nonce produces a different ciphertext.
        let mut buf2 = msg.clone();
        aes.ctr_apply(0xDEADBEF0, &mut buf2);
        assert_ne!(buf2, cipher_a);
    }

    #[test]
    fn multi_block_ctr_output_is_pinned() {
        // Seven keystream blocks, the last one partial: the stream the
        // byte-wise textbook cipher produced for this key, nonce and
        // message.
        let aes = Aes::new_256(&[0x42u8; 32]);
        let mut buf: Vec<u8> = (0..100u32).map(|i| (i * 7 + 3) as u8).collect();
        aes.ctr_apply(0x0123_4567_89AB_CDEF, &mut buf);
        assert_eq!(
            buf,
            hex(concat!(
                "0e375f135017569435c4f9c1bfe0d66387f1e83aad95272dab5c82ad303e995f",
                "117520a19281aa3fcda7b77dbf845e850ce7358787ef757635d38b8ac3cfdfa0",
                "b515d47d94aac2e92c09caf36d64768ead8714b2627bc3a1ff660d41b765d024",
                "5add4ad9"
            ))
        );
    }

    #[test]
    fn round_table_is_mix_columns_of_the_s_box() {
        for x in 0..=255u8 {
            let s = SBOX[x as usize];
            let [r0, r1, r2, r3] = T[x as usize].to_be_bytes();
            assert_eq!((r0, r1, r2, r3), (gmul(s, 2), s, s, gmul(s, 3)), "x = {x}");
        }
    }

    #[test]
    fn gf_multiplication_properties() {
        // 2 * 0x80 wraps through the reduction polynomial.
        assert_eq!(gmul(0x80, 2), 0x1B);
        // x * 1 = x
        for x in 0..=255u8 {
            assert_eq!(gmul(x, 1), x);
        }
        // Commutativity spot checks.
        assert_eq!(gmul(0x57, 0x83), gmul(0x83, 0x57));
        assert_eq!(gmul(0x57, 0x83), 0xC1); // FIPS-197 worked example
    }
}
