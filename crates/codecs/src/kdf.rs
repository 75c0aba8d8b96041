//! Password→key derivation for the encryption transfer option.
//!
//! The paper keys the transfer encryption with "the password of the database
//! user" (§2.1). We stretch the password into a 256-bit ChaCha20 key with an
//! iterated, salted SHA-256 construction (a simplified PBKDF: enough to bind
//! the key to password + salt deterministically on both ends of the wire; a
//! production system would use a memory-hard KDF).

use crate::sha256::Sha256;

/// Number of hash iterations applied while stretching.
pub const KDF_ITERATIONS: u32 = 1024;

/// Derive a 256-bit key from `password` and `salt`.
///
/// Both the server-side extract function and the client derive the same key
/// independently, so the password itself never travels over the wire.
pub fn derive_key(password: &str, salt: &[u8]) -> [u8; 32] {
    let mut state = {
        let mut h = Sha256::new();
        h.update(b"devudf-kdf-v1");
        h.update(salt);
        h.update(password.as_bytes());
        h.finalize()
    };
    for i in 0..KDF_ITERATIONS {
        let mut h = Sha256::new();
        h.update(&state);
        h.update(&i.to_le_bytes());
        h.update(password.as_bytes());
        state = h.finalize();
    }
    state
}

/// Derive a 96-bit ChaCha20 nonce for one block of a chunked transfer.
///
/// The chunked container (see `wireproto::transfer`, DESIGN §11) encrypts
/// every block independently so blocks can be processed in parallel; each
/// (transfer, block) pair therefore needs its own nonce under the shared
/// transfer key. The wire protocol assigns each extract transfer a fresh
/// id, and hashing (id, block index) keeps nonces unique per key.
pub fn derive_block_nonce(transfer_id: u64, block_index: u64) -> [u8; 12] {
    let mut h = Sha256::new();
    h.update(b"devudf-block-nonce-v1");
    h.update(&transfer_id.to_le_bytes());
    h.update(&block_index.to_le_bytes());
    let digest = h.finalize();
    let mut nonce = [0u8; 12];
    nonce.copy_from_slice(&digest[..12]);
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(
            derive_key("monetdb", b"salt"),
            derive_key("monetdb", b"salt")
        );
        assert_eq!(derive_block_nonce(7, 3), derive_block_nonce(7, 3));
    }

    #[test]
    fn password_sensitivity() {
        assert_ne!(
            derive_key("monetdb", b"salt"),
            derive_key("monetdc", b"salt")
        );
    }

    #[test]
    fn salt_sensitivity() {
        assert_ne!(
            derive_key("monetdb", b"salt1"),
            derive_key("monetdb", b"salt2")
        );
    }

    #[test]
    fn block_nonces_unique_per_transfer_and_block() {
        assert_ne!(derive_block_nonce(1, 0), derive_block_nonce(1, 1));
        assert_ne!(derive_block_nonce(1, 0), derive_block_nonce(2, 0));
    }

    #[test]
    fn empty_password_still_works() {
        // Degenerate but must not panic; key still depends on salt.
        assert_ne!(derive_key("", b"a"), derive_key("", b"b"));
    }
}
