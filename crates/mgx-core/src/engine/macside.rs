//! Uncached MAC-traffic trackers shared by the MGX engines.
//!
//! MGX keeps no metadata cache (paper §VI-A); instead MAC fetches are
//! coalesced within the streaming access pattern: consecutive blocks'
//! MAC entries pack eight to a 64-byte line, so a stream touches each MAC
//! line once. The trackers below reproduce exactly that behaviour by
//! remembering the last MAC line touched per region and direction.

use super::{LineBurst, LineTxn, MetaTraffic, TxnKind};
use crate::layout::{self, BaselineLayout};
use crate::policy::MacGranularity;
use mgx_trace::{Dir, MemRequest, LINE_BYTES};

/// Dedupe state: last MAC line emitted per (region, direction).
#[derive(Debug, Clone, Default)]
struct Coalescer {
    last: Vec<Option<(u64, Dir)>>,
}

impl Coalescer {
    fn ensure(&mut self, region: usize) {
        if self.last.len() <= region {
            self.last.resize(region + 1, None);
        }
    }

    /// Returns `true` if the (line, dir) pair is new and should be emitted.
    fn admit(&mut self, region: usize, line: u64, dir: Dir) -> bool {
        self.ensure(region);
        if self.last[region] == Some((line, dir)) {
            false
        } else {
            self.last[region] = Some((line, dir));
            true
        }
    }

    /// Admits a contiguous run of MAC lines `first..=last` at once,
    /// returning the `(start, lines)` actually admitted (`None` if the run
    /// collapses entirely).
    ///
    /// Equivalent to calling [`Coalescer::admit`] per line in ascending
    /// order: within one run only the *first* line can match the
    /// remembered state (lines strictly ascend afterwards), and the final
    /// remembered state is the run's last line either way.
    fn admit_run(&mut self, region: usize, first: u64, last: u64, dir: Dir) -> Option<(u64, u64)> {
        self.ensure(region);
        let start =
            if self.last[region] == Some((first, dir)) { first + LINE_BYTES } else { first };
        if start > last {
            return None;
        }
        self.last[region] = Some((last, dir));
        Some((start, (last - start) / LINE_BYTES + 1))
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

    pub(crate) fn expand(
        &mut self,
        req: &MemRequest,
        traffic: &mut MetaTraffic,
        emit: &mut dyn FnMut(LineTxn),
    ) {
        let first = self.layout.mac_fine_line_of(req.addr);
        let last = self.layout.mac_fine_line_of(req.end() - 1);
        let mut line = first;
        while line <= last {
            if self.coalescer.admit(req.region.0 as usize, line, req.dir) {
                let txn = LineTxn { addr: line, dir: req.dir, kind: TxnKind::Mac };
                traffic.record(&txn);
                emit(txn);
            }
            line += LINE_BYTES;
        }
    }

    /// Batched twin of [`FineMacTracker::expand`]: the request's MAC lines
    /// form one contiguous run, emitted as a single burst.
    pub(crate) fn expand_bursts(
        &mut self,
        req: &MemRequest,
        traffic: &mut MetaTraffic,
        emit: &mut dyn FnMut(LineBurst),
    ) {
        let first = self.layout.mac_fine_line_of(req.addr);
        let last = self.layout.mac_fine_line_of(req.end() - 1);
        if let Some((start, lines)) =
            self.coalescer.admit_run(req.region.0 as usize, first, last, req.dir)
        {
            let burst = LineBurst { addr: start, lines, dir: req.dir, kind: TxnKind::Mac };
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

    fn emit_line(
        &mut self,
        region: usize,
        line: u64,
        dir: Dir,
        traffic: &mut MetaTraffic,
        emit: &mut dyn FnMut(LineTxn),
    ) {
        if self.coalescer.admit(region, line, dir) {
            let txn = LineTxn { addr: line, dir, kind: TxnKind::Mac };
            traffic.record(&txn);
            emit(txn);
        }
    }

    pub(crate) fn expand(
        &mut self,
        req: &MemRequest,
        traffic: &mut MetaTraffic,
        emit: &mut dyn FnMut(LineTxn),
    ) {
        let region = req.region.0 as usize;
        let gran = self.granularity.get(region).copied().unwrap_or(MacGranularity::COARSE);
        match gran {
            MacGranularity::Bytes(g) => {
                let first_block = req.addr / g;
                let last_block = (req.end() - 1) / g;
                let mut line = layout::mac_coarse_line(req.region, first_block);
                let last_line = layout::mac_coarse_line(req.region, last_block);
                while line <= last_line {
                    self.emit_line(region, line, req.dir, traffic, emit);
                    line += LINE_BYTES;
                }
            }
            MacGranularity::PerRequest => {
                let idx = self.tile_count[region];
                self.tile_count[region] += 1;
                let line = layout::mac_coarse_line(req.region, idx);
                self.emit_line(region, line, req.dir, traffic, emit);
            }
        }
    }

    /// Batched twin of [`CoarseMacTracker::expand`]: the covering MAC
    /// lines of a coarse-granularity request are contiguous, so they go
    /// out as one burst ([`MacGranularity::PerRequest`] touches exactly
    /// one line and stays a 1-line burst).
    pub(crate) fn expand_bursts(
        &mut self,
        req: &MemRequest,
        traffic: &mut MetaTraffic,
        emit: &mut dyn FnMut(LineBurst),
    ) {
        let region = req.region.0 as usize;
        let gran = self.granularity.get(region).copied().unwrap_or(MacGranularity::COARSE);
        match gran {
            MacGranularity::Bytes(g) => {
                let first_block = req.addr / g;
                let last_block = (req.end() - 1) / g;
                let first = layout::mac_coarse_line(req.region, first_block);
                let last = layout::mac_coarse_line(req.region, last_block);
                if let Some((start, lines)) = self.coalescer.admit_run(region, first, last, req.dir)
                {
                    let burst = LineBurst { addr: start, lines, dir: req.dir, kind: TxnKind::Mac };
                    traffic.record_burst(&burst);
                    emit(burst);
                }
            }
            MacGranularity::PerRequest => {
                let idx = self.tile_count[region];
                self.tile_count[region] += 1;
                let line = layout::mac_coarse_line(req.region, idx);
                self.emit_line(region, line, req.dir, traffic, &mut |t| emit(t.into()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_trace::RegionId;

    fn collect<F>(mut f: F) -> (Vec<LineTxn>, MetaTraffic)
    where
        F: FnMut(&mut MetaTraffic, &mut dyn FnMut(LineTxn)),
    {
        let mut traffic = MetaTraffic::default();
        let mut txns = Vec::new();
        f(&mut traffic, &mut |t| txns.push(t));
        (txns, traffic)
    }

    #[test]
    fn fine_mac_is_one_line_per_512_bytes_of_stream() {
        let mut t = FineMacTracker::new();
        let (txns, traffic) = collect(|traffic, emit| {
            // Stream 8 KiB as 16 requests of 512 B.
            for i in 0..16u64 {
                t.expand(&MemRequest::read(RegionId(0), i * 512, 512), traffic, emit);
            }
        });
        // 8 KiB data / 512 B per MAC line = 16 lines.
        assert_eq!(txns.len(), 16);
        assert_eq!(traffic.mac.read_bytes, 16 * 64);
    }

    #[test]
    fn fine_mac_coalesces_within_a_line() {
        let mut t = FineMacTracker::new();
        let (txns, _) = collect(|traffic, emit| {
            // Two consecutive 64 B reads share one MAC line.
            t.expand(&MemRequest::read(RegionId(0), 0, 64), traffic, emit);
            t.expand(&MemRequest::read(RegionId(0), 64, 64), traffic, emit);
        });
        assert_eq!(txns.len(), 1);
    }

    #[test]
    fn coarse_mac_512_needs_one_line_per_4k() {
        let mut t = CoarseMacTracker::new(vec![MacGranularity::Bytes(512)]);
        let (txns, traffic) = collect(|traffic, emit| {
            t.expand(&MemRequest::read(RegionId(0), 0, 4096), traffic, emit);
        });
        // 4 KiB / 512 B = 8 MAC entries = exactly one 64 B line.
        assert_eq!(txns.len(), 1);
        assert_eq!(traffic.mac.read_bytes, 64);
        // Overhead ratio = 64 / 4096 ≈ 1.56 %.
    }

    #[test]
    fn per_request_macs_increment_tile_counter() {
        let mut t = CoarseMacTracker::new(vec![MacGranularity::PerRequest]);
        let (txns, _) = collect(|traffic, emit| {
            for i in 0..20u64 {
                // Irregular tile sizes — one MAC each regardless.
                t.expand(&MemRequest::read(RegionId(0), i * 10_000, 3000 + i * 7), traffic, emit);
            }
        });
        // 20 tiles × 8 B = 160 B of MACs = 3 distinct lines (coalesced).
        assert_eq!(txns.len(), 3);
    }

    #[test]
    fn regions_do_not_coalesce_across_each_other() {
        let mut t =
            CoarseMacTracker::new(vec![MacGranularity::Bytes(512), MacGranularity::Bytes(512)]);
        let (txns, _) = collect(|traffic, emit| {
            t.expand(&MemRequest::read(RegionId(0), 0, 512), traffic, emit);
            t.expand(&MemRequest::read(RegionId(1), 0, 512), traffic, emit);
        });
        assert_eq!(txns.len(), 2);
        assert_ne!(txns[0].addr, txns[1].addr);
    }

    #[test]
    fn read_then_write_same_block_emits_both() {
        let mut t = CoarseMacTracker::new(vec![MacGranularity::Bytes(512)]);
        let (txns, traffic) = collect(|traffic, emit| {
            t.expand(&MemRequest::read(RegionId(0), 0, 512), traffic, emit);
            t.expand(&MemRequest::write(RegionId(0), 0, 512), traffic, emit);
        });
        assert_eq!(txns.len(), 2, "verify-read and update-write both needed");
        assert_eq!(traffic.mac.read_bytes, 64);
        assert_eq!(traffic.mac.write_bytes, 64);
    }
}
