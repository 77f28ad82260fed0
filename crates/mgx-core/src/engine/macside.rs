//! The uncached MAC stream of MGX, MGX_VN and MGX_MAC.
//!
//! MGX keeps no metadata cache (paper §VI-A); instead MAC fetches are
//! coalesced within the streaming access pattern: consecutive blocks'
//! MAC entries pack eight to a 64-byte line, so a stream touches each MAC
//! line once. The stream reproduces exactly that behaviour by remembering
//! the last MAC line touched per region and direction.
//!
//! Per-64 B MACs (MGX_VN) live in the global fine table from
//! [`MAC_FINE_BASE`](crate::layout::MAC_FINE_BASE). Application-granularity
//! MACs (MGX and MGX_MAC) live in per-region coarse arrays from
//! [`MAC_COARSE_BASE`](crate::layout::MAC_COARSE_BASE), 64 B-granularity
//! regions included.

use super::{LineBurst, MetaTraffic, TxnKind};
use crate::layout;
use crate::policy::MacGranularity;
use mgx_trace::{Dir, MemRequest, LINE_BYTES};

/// Uncached MACs: a request's MAC lines go out as one burst, less a first
/// line that repeats its region's last (line, direction).
#[derive(Debug, Clone, Default)]
pub(crate) struct MacStream {
    /// Per-region granularity in the coarse arrays; `None` puts one MAC
    /// per 64 B line in the fine table.
    coarse: Option<Vec<MacGranularity>>,
    /// Last MAC line emitted per region, with its direction.
    last: Vec<Option<(u64, Dir)>>,
    /// Per-region running tile index for [`MacGranularity::PerRequest`].
    tiles: Vec<u64>,
}

impl MacStream {
    /// Per-64 B MACs in the fine table (the MGX_VN ablation).
    pub(crate) fn fine() -> Self {
        Self::default()
    }

    /// MACs at each region's `granularity`, in per-region coarse arrays
    /// (full MGX and the MGX_MAC ablation).
    pub(crate) fn coarse(granularity: Vec<MacGranularity>) -> Self {
        Self { tiles: vec![0; granularity.len()], coarse: Some(granularity), last: Vec::new() }
    }

    /// Counts and emits the MAC lines of `req` that coalescing keeps.
    pub(crate) fn expand_bursts(
        &mut self,
        req: &MemRequest,
        traffic: &mut MetaTraffic,
        emit: &mut dyn FnMut(LineBurst),
    ) {
        let (first, last) = self.lines_of(req);
        if let Some(burst) = self.admit_run(req.region.0 as usize, first, last, req.dir) {
            traffic.record_burst(&burst);
            emit(burst);
        }
    }

    /// The first and last MAC line covering `req`. The lines between are
    /// contiguous; [`MacGranularity::PerRequest`] touches exactly one.
    fn lines_of(&mut self, req: &MemRequest) -> (u64, u64) {
        let Some(granularity) = &self.coarse else {
            return (layout::mac_fine_line_of(req.addr), layout::mac_fine_line_of(req.end() - 1));
        };
        let region = req.region.0 as usize;
        match granularity.get(region).copied().unwrap_or(MacGranularity::COARSE) {
            MacGranularity::Bytes(g) => (
                layout::mac_coarse_line(req.region, req.addr / g),
                layout::mac_coarse_line(req.region, (req.end() - 1) / g),
            ),
            MacGranularity::PerRequest => {
                let line = layout::mac_coarse_line(req.region, self.tiles[region]);
                self.tiles[region] += 1;
                (line, line)
            }
        }
    }

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
        let mut t = MacStream::fine();
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
        let mut t = MacStream::fine();
        let (bursts, _) = collect(|traffic, emit| {
            // Two consecutive 64 B reads share one MAC line.
            t.expand_bursts(&MemRequest::read(RegionId(0), 0, 64), traffic, emit);
            t.expand_bursts(&MemRequest::read(RegionId(0), 64, 64), traffic, emit);
        });
        assert_eq!(lines(&bursts), 1);
    }

    #[test]
    fn coarse_mac_512_needs_one_line_per_4k() {
        let mut t = MacStream::coarse(vec![MacGranularity::Bytes(512)]);
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
        let mut t = MacStream::coarse(vec![MacGranularity::PerRequest]);
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
        let mut t = MacStream::coarse(vec![MacGranularity::Bytes(512); 2]);
        let (bursts, _) = collect(|traffic, emit| {
            t.expand_bursts(&MemRequest::read(RegionId(0), 0, 512), traffic, emit);
            t.expand_bursts(&MemRequest::read(RegionId(1), 0, 512), traffic, emit);
        });
        assert_eq!(lines(&bursts), 2);
        assert_ne!(bursts[0].addr, bursts[1].addr);
    }

    #[test]
    fn read_then_write_same_block_emits_both() {
        let mut t = MacStream::coarse(vec![MacGranularity::Bytes(512)]);
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
            let (mut batched, mut by_line) = (MacStream::fine(), MacStream::fine());
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
