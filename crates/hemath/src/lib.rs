#![warn(missing_docs)]

//! # cm-hemath
//!
//! Math substrate for the CIPHERMATCH reproduction: word-sized modular
//! arithmetic, negacyclic NTTs, the polynomial ring `Z_q[x]/(x^n + 1)`,
//! exact wide multiplication for BFV tensoring, and lattice samplers.
//!
//! Everything in this crate is built from scratch on the Rust standard
//! library plus `rand`; no big-integer or FFT dependencies are used.
//!
//! ## Example
//!
//! ```
//! use cm_hemath::{find_ntt_prime, Modulus, Poly, RingContext};
//!
//! let n = 1024;
//! let q = Modulus::new(find_ntt_prime(32, n));
//! let ring = RingContext::new(q, n);
//! let a = ring.constant(3);
//! let b = ring.constant(4);
//! assert_eq!(ring.mul(&a, &b).coeffs()[0], 12);
//! ```

pub mod kernels;
mod modulus;
mod ntt;
mod poly;
mod sampler;
mod widemul;

pub use modulus::{find_ntt_prime, find_prime_1_mod, is_prime, primitive_2n_root, Modulus};
pub use ntt::{bit_reverse, schoolbook_negacyclic_mul, NttTable};
pub use poly::{Poly, PreparedPoly, RingContext};
pub use sampler::{
    fill_ternary, gaussian_poly, ternary_poly, ternary_vec, uniform_poly, GaussianSampler,
};
pub use widemul::{schoolbook_exact_negacyclic, WideMultiplier};
