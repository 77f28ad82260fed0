//! The conventional (baseline) functional secure memory.

use crate::layout::{mac_fine_entry_of, vn_entry_of, vn_line_index, vn_line_of};
use mgx_crypto::aes::Aes128;
use mgx_crypto::ctr::xor_keystream;
use mgx_crypto::mac::{GmacTagger, Mac};
use mgx_crypto::merkle::MerkleTree;
use mgx_crypto::TagMismatch;
use mgx_trace::LINE_BYTES;

use super::UntrustedMemory;

/// A conventional secure-processor memory (paper Fig 2a): per-64 B-line
/// version numbers stored in untrusted DRAM, authenticated by an 8-ary
/// Merkle tree whose root stays on-chip, plus a per-line MAC binding
/// `(ciphertext, addr, VN)`.
///
/// Contrast with [`super::MgxSecureMemory`]: here the memory itself manages
/// VNs (increment-on-write) because a general-purpose processor cannot
/// predict its own access pattern; the cost is VN storage, VN bandwidth,
/// and the tree.
///
/// # Example
///
/// ```
/// use mgx_core::secure::BaselineSecureMemory;
///
/// # fn main() -> Result<(), mgx_crypto::TagMismatch> {
/// let mut mem = BaselineSecureMemory::new(b"enc-key-00000000", b"mac-key-00000000", 1 << 20);
/// mem.write(0x400, &[42u8; 64]);
/// assert_eq!(mem.read(0x400)?, [42u8; 64]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BaselineSecureMemory {
    enc: Aes128,
    mac: GmacTagger,
    mem: UntrustedMemory,
    tree: MerkleTree,
    capacity: u64,
}

impl BaselineSecureMemory {
    /// Creates a secure memory protecting `capacity` bytes of data.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not line-aligned.
    pub fn new(enc_key: &[u8; 16], mac_key: &[u8; 16], capacity: u64) -> Self {
        assert!(
            capacity > 0 && capacity.is_multiple_of(LINE_BYTES),
            "capacity must be in whole lines"
        );
        let vn_lines = (capacity / LINE_BYTES).div_ceil(8) as usize;
        Self {
            enc: Aes128::new(enc_key),
            mac: GmacTagger::new(mac_key),
            mem: UntrustedMemory::new(),
            tree: MerkleTree::new(mac_key, vn_lines, 8),
            capacity,
        }
    }

    /// Bytes of protected data capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of integrity-tree levels (MGX needs zero).
    pub fn tree_depth(&self) -> usize {
        self.tree.depth()
    }

    /// Adversary access to the underlying untrusted DRAM (ciphertext, VN
    /// table, MAC table all live here).
    pub fn untrusted_mut(&mut self) -> &mut UntrustedMemory {
        &mut self.mem
    }

    fn check_addr(&self, addr: u64) {
        assert!(addr.is_multiple_of(LINE_BYTES), "line-aligned access required");
        assert!(addr + LINE_BYTES <= self.capacity, "address beyond protected capacity");
    }

    fn vn_line_bytes(&self, vn_line_addr: u64) -> Vec<u8> {
        self.mem.read_vec(vn_line_addr, LINE_BYTES as usize)
    }

    /// Writes one 64-byte line: increments its VN, re-authenticates the VN
    /// line in the tree, encrypts, and stores the new MAC.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unaligned or out of range.
    pub fn write(&mut self, addr: u64, data: &[u8; 64]) {
        self.check_addr(addr);
        // 1. Bump the VN entry.
        let vn_entry = vn_entry_of(addr);
        let mut vn_bytes = [0u8; 8];
        self.mem.read(vn_entry, &mut vn_bytes);
        let vn = u64::from_be_bytes(vn_bytes) + 1;
        self.mem.write(vn_entry, &vn.to_be_bytes());
        // 2. Re-authenticate the covering VN line in the tree.
        let vn_line = vn_line_of(addr);
        let leaf_idx = vn_line_index(addr) as usize;
        let leaf = self.vn_line_bytes(vn_line);
        self.tree.update(leaf_idx, &leaf);
        // 3. Encrypt and MAC the data line.
        let mut ct = data.to_vec();
        xor_keystream(&self.enc, addr, vn, &mut ct);
        let tag = self.mac.tag(&ct, addr, vn).truncated64();
        self.mem.write(addr, &ct);
        self.mem.write(mac_fine_entry_of(addr), &tag.to_be_bytes());
    }

    /// Reads one 64-byte line, verifying the VN through the tree and the
    /// data through its MAC.
    ///
    /// # Errors
    ///
    /// [`TagMismatch`] if the VN table, tree path, ciphertext, or MAC was
    /// tampered with — including replay of any stale combination.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unaligned or out of range.
    pub fn read(&self, addr: u64) -> Result<[u8; 64], TagMismatch> {
        self.check_addr(addr);
        // 1. Fetch the VN and verify its line against the on-chip root.
        let vn_line = vn_line_of(addr);
        let leaf_idx = vn_line_index(addr) as usize;
        let leaf = self.vn_line_bytes(vn_line);
        self.tree.verify(leaf_idx, &leaf)?;
        let mut vn_bytes = [0u8; 8];
        self.mem.read(vn_entry_of(addr), &mut vn_bytes);
        let vn = u64::from_be_bytes(vn_bytes);
        // 2. Fetch and verify the data line.
        let mut ct = [0u8; 64];
        self.mem.read(addr, &mut ct);
        let mut stored = [0u8; 8];
        self.mem.read(mac_fine_entry_of(addr), &mut stored);
        if self.mac.tag(&ct, addr, vn).truncated64() != u64::from_be_bytes(stored) {
            return Err(TagMismatch);
        }
        // 3. Decrypt.
        let mut pt = ct;
        xor_keystream(&self.enc, addr, vn, &mut pt);
        Ok(pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;

    const EK: &[u8; 16] = b"bl-enc-key-00000";
    const MK: &[u8; 16] = b"bl-mac-key-00000";

    fn mem() -> BaselineSecureMemory {
        BaselineSecureMemory::new(EK, MK, 1 << 20)
    }

    #[test]
    fn roundtrip_many_lines() {
        let mut m = mem();
        for i in 0..32u64 {
            m.write(i * 64, &[i as u8; 64]);
        }
        for i in 0..32u64 {
            assert_eq!(m.read(i * 64).unwrap(), [i as u8; 64]);
        }
    }

    #[test]
    fn rewrite_bumps_vn_and_still_reads() {
        let mut m = mem();
        m.write(0, &[1u8; 64]);
        m.write(0, &[2u8; 64]);
        assert_eq!(m.read(0).unwrap(), [2u8; 64]);
    }

    #[test]
    fn corruption_detected() {
        let mut m = mem();
        m.write(0, &[1u8; 64]);
        m.untrusted_mut().corrupt(13, 0x40);
        assert_eq!(m.read(0), Err(TagMismatch));
    }

    #[test]
    fn vn_tamper_detected_by_tree() {
        let mut m = mem();
        m.write(0, &[1u8; 64]);
        // Attacker edits the stored VN entry directly.
        m.untrusted_mut().corrupt(layout::VN_BASE, 0x01);
        assert_eq!(m.read(0), Err(TagMismatch));
    }

    #[test]
    fn full_replay_of_data_vn_and_mac_detected() {
        // The classic attack the tree exists for: replay data + VN + MAC
        // together (all are consistent with each other, only the tree root
        // disagrees).
        let mut m = mem();
        m.write(0, &[1u8; 64]);
        let old_data = m.untrusted_mut().snapshot(0, 64);
        let old_vn = m.untrusted_mut().snapshot(layout::VN_BASE, 64);
        let mac_entry = 0; // line 0's MAC entry offset inside the MAC table
        let old_mac = m.untrusted_mut().snapshot(layout::MAC_FINE_BASE + mac_entry, 8);
        m.write(0, &[2u8; 64]);
        m.untrusted_mut().restore(0, &old_data);
        m.untrusted_mut().restore(layout::VN_BASE, &old_vn);
        m.untrusted_mut().restore(layout::MAC_FINE_BASE + mac_entry, &old_mac);
        assert_eq!(m.read(0), Err(TagMismatch), "tree root must catch the replay");
    }

    #[test]
    fn relocation_detected() {
        let mut m = mem();
        m.write(0, &[1u8; 64]);
        m.write(64, &[2u8; 64]);
        m.untrusted_mut().relocate(0, 64, 64);
        let e0 = layout::MAC_FINE_BASE;
        let e1 = layout::MAC_FINE_BASE + 8;
        m.untrusted_mut().relocate(e0, e1, 8);
        assert_eq!(m.read(64), Err(TagMismatch));
    }

    #[test]
    fn tree_depth_grows_with_capacity() {
        let small = BaselineSecureMemory::new(EK, MK, 1 << 16);
        let large = BaselineSecureMemory::new(EK, MK, 1 << 24);
        assert!(large.tree_depth() > small.tree_depth());
    }

    #[test]
    #[should_panic(expected = "beyond protected capacity")]
    fn out_of_range_panics() {
        let mut m = BaselineSecureMemory::new(EK, MK, 1 << 12);
        m.write(1 << 12, &[0u8; 64]);
    }
}
