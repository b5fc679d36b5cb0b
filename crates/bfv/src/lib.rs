#![warn(missing_docs)]

//! # cm-bfv
//!
//! A from-scratch implementation of the Brakerski-Fan-Vercauteren (BFV)
//! somewhat-homomorphic encryption scheme, as used by CIPHERMATCH (§2.1 of
//! the paper): key generation, public-key encryption, decryption with noise
//! budget tracking, homomorphic addition (paper Eq. 4), ciphertext-
//! ciphertext multiplication with relinearization, Galois rotations, and
//! SIMD batching.
//!
//! CIPHERMATCH itself only needs `Hom-Add`; multiplication and rotation
//! exist to implement the paper's arithmetic baselines (Yasuda \[27\],
//! Kim \[34\], Bonte \[29\]) faithfully.
//!
//! ## Example
//!
//! ```
//! use cm_bfv::{BfvContext, BfvParams, CoefficientEncoder, Decryptor, Encryptor, Evaluator, KeyGenerator};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let ctx = BfvContext::new(BfvParams::insecure_test_add());
//! let mut rng = StdRng::seed_from_u64(1);
//! let keygen = KeyGenerator::new(&ctx, &mut rng);
//! let pk = keygen.public_key(&mut rng);
//! let enc = Encryptor::new(&ctx, pk);
//! let dec = Decryptor::new(&ctx, keygen.secret_key());
//! let ev = Evaluator::new(&ctx);
//! let coder = CoefficientEncoder::new(&ctx);
//!
//! let a = enc.encrypt(&coder.encode(&[17]), &mut rng);
//! let b = enc.encrypt(&coder.encode(&[25]), &mut rng);
//! let sum = ev.add(&a, &b);
//! assert_eq!(dec.decrypt(&sum).coeffs()[0], 42);
//! ```

mod ciphertext;
mod encoding;
mod keys;
mod ops;
mod params;
mod serialize;

pub use ciphertext::{Ciphertext, Plaintext};
pub use encoding::{BatchEncoder, CoefficientEncoder};
pub use keys::{GaloisKeys, KeyGenerator, KeySwitchKey, PublicKey, RelinKey, SecretKey};
pub use ops::{
    Decryptor, EncryptScratch, Encryptor, Evaluator, SeededCiphertext, SymmetricEncryptor,
};
pub use params::{BfvContext, BfvParams};
pub use serialize::{decode_ciphertext, encode_ciphertext, encode_ciphertext_into, DecodeError};
