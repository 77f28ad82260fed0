//! Uncached MAC-traffic trackers shared by the MGX engines.
//!
//! MGX keeps no metadata cache (paper §VI-A); instead MAC fetches are
//! coalesced within the streaming access pattern: consecutive blocks'
//! MAC entries pack eight to a 64-byte line, so a stream touches each MAC
//! line once. The trackers below reproduce exactly that behaviour by
//! remembering the last MAC line touched per region and direction.

use super::{LineBurst, MetaTraffic, TxnKind};
use crate::layout::{self, BaselineLayout};
use crate::policy::MacGranularity;
use mgx_trace::{Dir, MemRequest, LINE_BYTES};

/// Dedupe state: last MAC line emitted per (region, direction).
#[derive(Debug, Clone, Default)]
struct Coalescer {
    last: Vec<Option<(u64, Dir)>>,
}

impl Coalescer {
    /// Admits the contiguous run of MAC lines `first..=last`, returning the
    /// MAC burst actually admitted (`None` if the run collapses entirely).
    ///
    /// A MAC line is dropped only when it is the (line, direction) pair
    /// last remembered for its region. Within one run only the *first*
    /// line can match (lines strictly ascend afterwards), and the run's
    /// last line is remembered either way, so admitting the run at once
    /// equals admitting its lines one by one in ascending order.
    fn admit_run(&mut self, region: usize, first: u64, last: u64, dir: Dir) -> Option<LineBurst> {
        if self.last.len() <= region {
            self.last.resize(region + 1, None);
        }
        let start =
            if self.last[region] == Some((first, dir)) { first + LINE_BYTES } else { first };
        if start > last {
            return None;
        }
        self.last[region] = Some((last, dir));
        let lines = (last - start) / LINE_BYTES + 1;
        Some(LineBurst { addr: start, lines, dir, kind: TxnKind::Mac })
    }
}

/// Per-64 B-block MACs without a cache (the MGX_VN ablation).
#[derive(Debug, Clone)]
pub(crate) struct FineMacTracker {
    layout: BaselineLayout,
    coalescer: Coalescer,
}

impl FineMacTracker {
    pub(crate) fn new() -> Self {
        // The layout only supplies MAC address math here; tree parameters
        // are irrelevant, so any capacity works.
        Self { layout: BaselineLayout::new(16 << 30, 8), coalescer: Coalescer::default() }
    }

    /// The request's MAC lines form one contiguous run, emitted as a
    /// single burst.
    pub(crate) fn expand_bursts(
        &mut self,
        req: &MemRequest,
        traffic: &mut MetaTraffic,
        emit: &mut dyn FnMut(LineBurst),
    ) {
        let first = self.layout.mac_fine_line_of(req.addr);
        let last = self.layout.mac_fine_line_of(req.end() - 1);
        if let Some(burst) = self.coalescer.admit_run(req.region.0 as usize, first, last, req.dir) {
            traffic.record_burst(&burst);
            emit(burst);
        }
    }
}

/// Application-granularity MACs without a cache (full MGX).
#[derive(Debug, Clone)]
pub(crate) struct CoarseMacTracker {
    granularity: Vec<MacGranularity>,
    coalescer: Coalescer,
    /// Per-region running tile index for [`MacGranularity::PerRequest`].
    tile_count: Vec<u64>,
}

impl CoarseMacTracker {
    pub(crate) fn new(granularity: Vec<MacGranularity>) -> Self {
        let n = granularity.len();
        Self { granularity, coalescer: Coalescer::default(), tile_count: vec![0; n] }
    }

    /// The covering MAC lines of a coarse-granularity request are
    /// contiguous, so they go out as one burst
    /// ([`MacGranularity::PerRequest`] touches exactly one line).
    pub(crate) fn expand_bursts(
        &mut self,
        req: &MemRequest,
        traffic: &mut MetaTraffic,
        emit: &mut dyn FnMut(LineBurst),
    ) {
        let region = req.region.0 as usize;
        let gran = self.granularity.get(region).copied().unwrap_or(MacGranularity::COARSE);
        let (first, last) = match gran {
            MacGranularity::Bytes(g) => (
                layout::mac_coarse_line(req.region, req.addr / g),
                layout::mac_coarse_line(req.region, (req.end() - 1) / g),
            ),
            MacGranularity::PerRequest => {
                let idx = self.tile_count[region];
                self.tile_count[region] += 1;
                let line = layout::mac_coarse_line(req.region, idx);
                (line, line)
            }
        };
        if let Some(burst) = self.coalescer.admit_run(region, first, last, req.dir) {
            traffic.record_burst(&burst);
            emit(burst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_trace::RegionId;
    use proptest::prelude::*;

    fn collect<F>(mut f: F) -> (Vec<LineBurst>, MetaTraffic)
    where
        F: FnMut(&mut MetaTraffic, &mut dyn FnMut(LineBurst)),
    {
        let mut traffic = MetaTraffic::default();
        let mut bursts = Vec::new();
        f(&mut traffic, &mut |b| bursts.push(b));
        (bursts, traffic)
    }

    fn lines(bursts: &[LineBurst]) -> u64 {
        bursts.iter().map(|b| b.lines).sum()
    }

    #[test]
    fn fine_mac_is_one_line_per_512_bytes_of_stream() {
        let mut t = FineMacTracker::new();
        let (bursts, traffic) = collect(|traffic, emit| {
            // Stream 8 KiB as 16 requests of 512 B.
            for i in 0..16u64 {
                t.expand_bursts(&MemRequest::read(RegionId(0), i * 512, 512), traffic, emit);
            }
        });
        // 8 KiB data / 512 B per MAC line = 16 lines.
        assert_eq!(lines(&bursts), 16);
        assert_eq!(traffic.mac.read_bytes, 16 * 64);
    }

    #[test]
    fn fine_mac_coalesces_within_a_line() {
        let mut t = FineMacTracker::new();
        let (bursts, _) = collect(|traffic, emit| {
            // Two consecutive 64 B reads share one MAC line.
            t.expand_bursts(&MemRequest::read(RegionId(0), 0, 64), traffic, emit);
            t.expand_bursts(&MemRequest::read(RegionId(0), 64, 64), traffic, emit);
        });
        assert_eq!(lines(&bursts), 1);
    }

    #[test]
    fn coarse_mac_512_needs_one_line_per_4k() {
        let mut t = CoarseMacTracker::new(vec![MacGranularity::Bytes(512)]);
        let (bursts, traffic) = collect(|traffic, emit| {
            t.expand_bursts(&MemRequest::read(RegionId(0), 0, 4096), traffic, emit);
        });
        // 4 KiB / 512 B = 8 MAC entries = exactly one 64 B line.
        assert_eq!(lines(&bursts), 1);
        assert_eq!(traffic.mac.read_bytes, 64);
        // Overhead ratio = 64 / 4096 ≈ 1.56 %.
    }

    #[test]
    fn per_request_macs_increment_tile_counter() {
        let mut t = CoarseMacTracker::new(vec![MacGranularity::PerRequest]);
        let (bursts, _) = collect(|traffic, emit| {
            for i in 0..20u64 {
                // Irregular tile sizes — one MAC each regardless.
                let req = MemRequest::read(RegionId(0), i * 10_000, 3000 + i * 7);
                t.expand_bursts(&req, traffic, emit);
            }
        });
        // 20 tiles × 8 B = 160 B of MACs = 3 distinct lines (coalesced).
        assert_eq!(lines(&bursts), 3);
    }

    #[test]
    fn regions_do_not_coalesce_across_each_other() {
        let mut t =
            CoarseMacTracker::new(vec![MacGranularity::Bytes(512), MacGranularity::Bytes(512)]);
        let (bursts, _) = collect(|traffic, emit| {
            t.expand_bursts(&MemRequest::read(RegionId(0), 0, 512), traffic, emit);
            t.expand_bursts(&MemRequest::read(RegionId(1), 0, 512), traffic, emit);
        });
        assert_eq!(lines(&bursts), 2);
        assert_ne!(bursts[0].addr, bursts[1].addr);
    }

    #[test]
    fn read_then_write_same_block_emits_both() {
        let mut t = CoarseMacTracker::new(vec![MacGranularity::Bytes(512)]);
        let (bursts, traffic) = collect(|traffic, emit| {
            t.expand_bursts(&MemRequest::read(RegionId(0), 0, 512), traffic, emit);
            t.expand_bursts(&MemRequest::write(RegionId(0), 0, 512), traffic, emit);
        });
        assert_eq!(lines(&bursts), 2, "verify-read and update-write both needed");
        assert_eq!(traffic.mac.read_bytes, 64);
        assert_eq!(traffic.mac.write_bytes, 64);
    }

    proptest! {
        /// `admit_run` equals admitting the run's lines one at a time in
        /// ascending order, each dropped only if it is its region's
        /// remembered (line, direction) pair: same lines admitted, same
        /// state after. Runs start within 12 lines of each other, so a run
        /// often begins on the line the previous one in its region ended
        /// on.
        #[test]
        fn admit_run_equals_admitting_each_line(
            runs in proptest::collection::vec((0usize..3, 0u64..12, 0u64..5, any::<bool>()), 1..64),
        ) {
            let (mut batched, mut by_line) = (Coalescer::default(), Coalescer::default());
            for (region, first, extra, write) in runs {
                let dir = if write { Dir::Write } else { Dir::Read };
                let (first, last) = (first * LINE_BYTES, (first + extra) * LINE_BYTES);
                let got: Vec<u64> = batched.admit_run(region, first, last, dir).map_or(
                    Vec::new(),
                    |b| (0..b.lines).map(|i| b.addr + i * LINE_BYTES).collect(),
                );
                if by_line.last.len() <= region {
                    by_line.last.resize(region + 1, None);
                }
                let mut want = Vec::new();
                for line in (first..=last).step_by(LINE_BYTES as usize) {
                    if by_line.last[region] != Some((line, dir)) {
                        by_line.last[region] = Some((line, dir));
                        want.push(line);
                    }
                }
                prop_assert_eq!(got, want);
                prop_assert_eq!(&batched.last, &by_line.last);
            }
        }
    }
}
