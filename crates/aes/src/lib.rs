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
//! This is a research artifact: the implementation is table-based and not
//! constant-time; do not reuse it outside the simulator.
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

/// An expanded-key AES-256 cipher.
#[derive(Debug, Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
}

fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1B)
}

/// GF(2^8) multiplication.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 == 1 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

impl Aes {
    /// Creates an AES-256 cipher (the paper's SSD engine).
    pub fn new_256(key: &[u8; 32]) -> Self {
        let total_words = 4 * (ROUNDS + 1);
        let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
        for i in 0..NK {
            w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        let mut rcon = 1u8;
        for i in NK..total_words {
            let mut temp = w[i - 1];
            if i % NK == 0 {
                temp.rotate_left(1);
                for t in &mut temp {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            } else if i % NK == 4 {
                for t in &mut temp {
                    *t = SBOX[*t as usize];
                }
            }
            let prev = w[i - NK];
            w.push([
                prev[0] ^ temp[0],
                prev[1] ^ temp[1],
                prev[2] ^ temp[2],
                prev[3] ^ temp[3],
            ]);
        }
        let round_keys = (0..=ROUNDS)
            .map(|r| {
                let mut rk = [0u8; 16];
                for c in 0..4 {
                    rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                }
                rk
            })
            .collect();
        Self { round_keys }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for s in state.iter_mut() {
            *s = SBOX[*s as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // state[4c + r] is row r, column c.
        for r in 1..4 {
            let row: Vec<u8> = (0..4).map(|c| state[4 * ((c + r) % 4) + r]).collect();
            for c in 0..4 {
                state[4 * c + r] = row[c];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
            state[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
        }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        Self::add_round_key(&mut state, &self.round_keys[0]);
        for r in 1..ROUNDS {
            Self::sub_bytes(&mut state);
            Self::shift_rows(&mut state);
            Self::mix_columns(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[r]);
        }
        Self::sub_bytes(&mut state);
        Self::shift_rows(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[ROUNDS]);
        state
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
