//! Schnorr signatures over a prime-field subgroup — the accelerator's
//! attestation signature (paper §II).
//!
//! The device identity key `SK_Accel` signs attestation reports; users
//! verify with `PK_Accel` obtained through the certificate authority. A
//! Schnorr scheme over the same MODP group used for Diffie–Hellman keeps
//! the trusted hardware to one modular-exponentiation engine.
//!
//! The Fiat–Shamir challenge is derived with [`crate::mac::CmacAes128`]
//! under a fixed public key (SHA-family hashes are out of scope for this
//! reproduction; a keyed PRF with a public key is a reasonable
//! random-oracle stand-in for a simulator).

use crate::bignum::BigUint;
use crate::mac::CmacAes128;
use crate::TagMismatch;

/// Group parameters: prime modulus `p`, generator `g` of the order-`q`
/// subgroup (for safe primes `p = 2q + 1`, any quadratic residue such as
/// `g = 4` generates it).
#[derive(Debug, Clone)]
pub struct Group {
    /// Prime modulus.
    pub p: BigUint,
    /// Generator of the signing subgroup.
    pub g: BigUint,
    /// Prime order of the signing subgroup.
    pub q: BigUint,
}

impl Group {
    /// A 256-bit safe-prime group for tests and fast sessions
    /// (`p = 2q + 1`, both Miller–Rabin-verified; `g = 4` is a quadratic
    /// residue and therefore generates the order-`q` subgroup).
    pub fn test_256() -> Self {
        let p =
            BigUint::from_hex("f740f33779686a90106e95f4396ad96febc85782232248c570cbfe35486c746b");
        let q =
            BigUint::from_hex("7ba0799bbcb4354808374afa1cb56cb7f5e42bc111912462b865ff1aa4363a35");
        Self { p, g: BigUint::from_u64(4), q }
    }

    /// The RFC 3526 1536-bit MODP group (a safe prime, generator 4 for the
    /// prime-order subgroup). Production-strength but slow in debug
    /// builds; prefer [`Group::test_256`] in unit tests.
    pub fn modp_1536() -> Self {
        let p = crate::bignum::modp_1536();
        let q = p.sub(&BigUint::one()).shr1();
        Self { p, g: BigUint::from_u64(4), q }
    }
}

/// A Schnorr signature `(challenge e, response s)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Fiat–Shamir challenge reduced mod `q`.
    pub e: BigUint,
    /// Response `s = k + e·x mod q`.
    pub s: BigUint,
}

/// A signing keypair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    sk: BigUint,
    /// Public key `g^sk mod p`.
    pub pk: BigUint,
}

impl KeyPair {
    /// Derives a keypair from secret bytes (the caller supplies the
    /// entropy — this crate stays deterministic and dependency-free).
    pub fn from_secret(group: &Group, secret: &[u8]) -> Self {
        let sk = BigUint::from_be_bytes(secret).rem(&group.q);
        let pk = group.g.mod_pow(&sk, &group.p);
        Self { sk, pk }
    }
}

fn challenge(group: &Group, r: &BigUint, pk: &BigUint, msg: &[u8]) -> BigUint {
    // Fiat–Shamir oracle over (r ‖ 0x01 ‖ pk ‖ 0x02 ‖ msg), widened to
    // 256 bits with two domain-separated CMAC evaluations.
    let oracle = CmacAes128::new(b"schnorr-fs-orac!");
    let mut buf = Vec::new();
    buf.extend_from_slice(&r.to_be_bytes());
    buf.push(0x01);
    buf.extend_from_slice(&pk.to_be_bytes());
    buf.push(0x02);
    buf.extend_from_slice(msg);
    let t1 = oracle.mac_bytes(&buf).0;
    buf.push(0x03);
    let t2 = oracle.mac_bytes(&buf).0;
    let mut e = Vec::with_capacity(32);
    e.extend_from_slice(&t1);
    e.extend_from_slice(&t2);
    BigUint::from_be_bytes(&e).rem(&group.q)
}

/// Signs `msg`; `nonce_secret` must be fresh per signature (the session
/// layer supplies randomness — nonce reuse leaks the key, as in every
/// Schnorr deployment).
pub fn sign(group: &Group, keys: &KeyPair, msg: &[u8], nonce_secret: &[u8]) -> Signature {
    let k = BigUint::from_be_bytes(nonce_secret).rem(&group.q);
    let r = group.g.mod_pow(&k, &group.p);
    let e = challenge(group, &r, &keys.pk, msg);
    let s = k.add_mod(&e.mul_mod(&keys.sk, &group.q), &group.q);
    Signature { e, s }
}

/// Verifies a signature: recomputes `r' = g^s · pk^(q−e) mod p` and checks
/// that the challenge matches.
///
/// # Errors
///
/// [`TagMismatch`] if the signature does not verify for `(pk, msg)`.
pub fn verify(group: &Group, pk: &BigUint, msg: &[u8], sig: &Signature) -> Result<(), TagMismatch> {
    let neg_e = group.q.sub(&sig.e.rem(&group.q));
    let r = group.g.mod_pow(&sig.s, &group.p).mul_mod(&pk.mod_pow(&neg_e, &group.p), &group.p);
    if challenge(group, &r, pk, msg) == sig.e {
        Ok(())
    } else {
        Err(TagMismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> Group {
        Group::test_256()
    }

    #[test]
    fn group_parameters_are_consistent() {
        let g = group();
        // p = 2q + 1.
        assert_eq!(g.p, g.q.add(&g.q).add(&BigUint::one()));
        // The generator has order q: g^q ≡ 1 (mod p).
        assert_eq!(g.g.mod_pow(&g.q, &g.p), BigUint::one());
    }

    #[test]
    fn sign_verify_roundtrip() {
        let g = group();
        let keys = KeyPair::from_secret(&g, b"device-secret-key-material-0001");
        let sig = sign(&g, &keys, b"attestation report", b"nonce-entropy-000000001");
        assert!(verify(&g, &keys.pk, b"attestation report", &sig).is_ok());
    }

    #[test]
    fn tampered_message_rejected() {
        let g = group();
        let keys = KeyPair::from_secret(&g, b"device-secret-key-material-0001");
        let sig = sign(&g, &keys, b"attestation report", b"nonce-entropy-000000001");
        assert!(verify(&g, &keys.pk, b"attestation repor7", &sig).is_err());
    }

    #[test]
    fn wrong_public_key_rejected() {
        let g = group();
        let keys = KeyPair::from_secret(&g, b"device-secret-key-material-0001");
        let other = KeyPair::from_secret(&g, b"some-other-device-key-material0");
        let sig = sign(&g, &keys, b"msg", b"nonce-entropy-000000002");
        assert!(verify(&g, &other.pk, b"msg", &sig).is_err());
    }

    #[test]
    fn nonce_changes_the_signature_but_both_verify() {
        let g = group();
        let keys = KeyPair::from_secret(&g, b"device-secret-key-material-0001");
        let s1 = sign(&g, &keys, b"m", b"nonce-a-0000000000000001");
        let s2 = sign(&g, &keys, b"m", b"nonce-b-0000000000000002");
        assert_ne!(s1, s2);
        assert!(verify(&g, &keys.pk, b"m", &s1).is_ok());
        assert!(verify(&g, &keys.pk, b"m", &s2).is_ok());
    }

    #[test]
    fn forged_signature_components_rejected() {
        let g = group();
        let keys = KeyPair::from_secret(&g, b"device-secret-key-material-0001");
        let mut sig = sign(&g, &keys, b"m", b"nonce-entropy-000000003");
        sig.s = sig.s.add(&BigUint::one()).rem(&g.q);
        assert!(verify(&g, &keys.pk, b"m", &sig).is_err());
    }
}
