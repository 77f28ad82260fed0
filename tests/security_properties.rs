//! Property-based security tests (proptest): the §III-D analysis as
//! executable properties over randomized data, addresses, schedules, and
//! attacks.

use mgx::core::counter::{CounterBlock, StreamTag, VN_MAX};
use mgx::core::secure::{BaselineSecureMemory, MgxSecureMemory};
use mgx::core::vn::{DnnVnState, TableVersionSource, UniquenessAuditor};
use mgx::trace::RegionId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counter composition is lossless for every (addr, tag, vn).
    #[test]
    fn counter_roundtrip(addr in any::<u64>(), tag_idx in 0usize..4, vn in 0u64..=VN_MAX) {
        let tag = StreamTag::ALL[tag_idx];
        let c = CounterBlock::compose(addr, tag, vn);
        prop_assert_eq!(c.addr(), addr);
        prop_assert_eq!(c.tag(), tag);
        prop_assert_eq!(c.vn(), vn);
    }

    /// Distinct (addr, tag, vn) triples always give distinct counters.
    #[test]
    fn counter_injective(
        a in any::<u64>(), b in any::<u64>(),
        va in 0u64..=VN_MAX, vb in 0u64..=VN_MAX,
        ta in 0usize..4, tb in 0usize..4,
    ) {
        let ca = CounterBlock::compose(a, StreamTag::ALL[ta], va);
        let cb = CounterBlock::compose(b, StreamTag::ALL[tb], vb);
        prop_assert_eq!(
            ca.as_u128() == cb.as_u128(),
            a == b && va == vb && ta == tb
        );
    }

    /// Secure-memory round trip over arbitrary payloads and block indices.
    #[test]
    fn mgx_memory_roundtrips(
        payload in proptest::collection::vec(any::<u8>(), 512),
        block in 0u64..64,
        vn in 1u64..1000,
    ) {
        let mut mem = MgxSecureMemory::new(b"prop-enc-key-000", b"prop-mac-key-000");
        mem.write_block(RegionId(0), block * 512, &payload, vn);
        let back = mem.read_block(RegionId(0), block * 512, 512, vn).unwrap();
        prop_assert_eq!(back, payload);
    }

    /// Any single-byte corruption of ciphertext or MAC is detected.
    #[test]
    fn any_corruption_is_detected(
        offset in 0u64..512,
        xor in 1u8..=255,
        corrupt_mac in any::<bool>(),
    ) {
        let mut mem = MgxSecureMemory::new(b"prop-enc-key-000", b"prop-mac-key-000");
        mem.write_block(RegionId(0), 0, &[0xABu8; 512], 7);
        if corrupt_mac {
            mem.untrusted_mut().corrupt(
                mgx::core::layout::mac_coarse_entry(RegionId(0), 0) + (offset % 8),
                xor,
            );
        } else {
            mem.untrusted_mut().corrupt(offset, xor);
        }
        prop_assert!(mem.read_block(RegionId(0), 0, 512, 7).is_err());
    }

    /// Reading with any VN other than the written one fails.
    #[test]
    fn wrong_vn_always_fails(write_vn in 1u64..500, read_vn in 1u64..500) {
        let mut mem = MgxSecureMemory::new(b"prop-enc-key-000", b"prop-mac-key-000");
        mem.write_block(RegionId(0), 0, &[1u8; 512], write_vn);
        let ok = mem.read_block(RegionId(0), 0, 512, read_vn).is_ok();
        prop_assert_eq!(ok, write_vn == read_vn);
    }

    /// Random interleavings of tiled layer writes never reuse a counter:
    /// the VN-generation invariant of §III-D under arbitrary schedules.
    #[test]
    fn dnn_vn_schedule_never_reuses_counters(
        tiles in proptest::collection::vec(1u64..6, 1..12),
        inputs in 1u64..4,
    ) {
        let mut kernel = DnnVnState::new();
        let tensors: Vec<_> = tiles.iter().map(|_| kernel.register_feature()).collect();
        let mut audit = UniquenessAuditor::new();
        for _ in 0..inputs {
            for (layer, (&t, tensor)) in tiles.iter().zip(&tensors).enumerate() {
                for _ in 0..t {
                    let vn = kernel.feature_write_vn(*tensor);
                    // The same buffer address is rewritten per tile pass.
                    prop_assert!(
                        audit.record_write(layer as u64 * 0x1000, vn),
                        "counter reuse at layer {}", layer
                    );
                }
            }
            kernel.next_input();
        }
        prop_assert!(audit.all_unique());
    }

    /// The generic table VN source is per-(region, block) monotone and
    /// read-after-write consistent under random operation sequences.
    #[test]
    fn table_source_consistency(ops in proptest::collection::vec((0u32..4, 0u64..16, any::<bool>()), 1..200)) {
        let mut src = TableVersionSource::new();
        let mut model: std::collections::HashMap<(u32, u64), u64> = Default::default();
        for (region, block, is_write) in ops {
            let key = (region, block);
            if is_write {
                let vn = src.write_vn(RegionId(region), block);
                let prev = model.insert(key, vn);
                prop_assert_eq!(vn, prev.unwrap_or(0) + 1, "write VN must increment");
            } else {
                let vn = src.read_vn(RegionId(region), block);
                prop_assert_eq!(vn, model.get(&key).copied().unwrap_or(0));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Baseline memory: every write/read interleaving round-trips, and a
    /// replay of any stale snapshot fails afterwards.
    #[test]
    fn baseline_memory_replay_always_detected(
        lines in proptest::collection::vec(0u64..32, 2..12),
    ) {
        let mut mem = BaselineSecureMemory::new(
            b"prop-bl-enc-0000", b"prop-bl-mac-0000", 32 * 64,
        );
        // Write every line once, snapshot one, rewrite it, replay snapshot.
        for &l in &lines {
            mem.write(l * 64, &[l as u8; 64]);
        }
        let victim = lines[0] * 64;
        let snap_data = mem.untrusted_mut().snapshot(victim, 64);
        let snap_vn = mem.untrusted_mut().snapshot(mgx::core::layout::VN_BASE, 64);
        let snap_mac = mem
            .untrusted_mut()
            .snapshot(mgx::core::layout::MAC_FINE_BASE + lines[0] * 8, 8);
        mem.write(victim, &[0xEE; 64]);
        prop_assert_eq!(mem.read(victim).unwrap(), [0xEE; 64]);
        mem.untrusted_mut().restore(victim, &snap_data);
        mem.untrusted_mut().restore(mgx::core::layout::VN_BASE, &snap_vn);
        mem.untrusted_mut()
            .restore(mgx::core::layout::MAC_FINE_BASE + lines[0] * 8, &snap_mac);
        prop_assert!(mem.read(victim).is_err(), "replay must be caught by the tree");
    }
}
