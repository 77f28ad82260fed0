//! A behavioral secure H.264-style decoder.
//!
//! [`SecureDecoder`] re-creates the paper's functional experiment: frames
//! are decoded in decode order into recycled DRAM buffers protected by
//! [`MgxSecureMemory`], with every write using the `CTR_IN ‖ F` version
//! number and every inter-prediction read regenerating its reference's VN.
//! Decoding "succeeds" iff every reference block decrypts and authenticates
//! — which is exactly what the paper verified in RTL simulation.
//!
//! [`stream_decode_trace`] additionally streams the memory trace (Fig 19's
//! pattern) for the performance pipeline.

use crate::dpb::plan_buffers;
use crate::gop::GopStructure;
use crate::vn::VideoVnState;
use mgx_core::secure::MgxSecureMemory;
use mgx_core::vn::UniquenessAuditor;
use mgx_crypto::TagMismatch;
use mgx_trace::{DataClass, MemRequest, Phase, RegionId, RegionMap, Trace, TraceSource};

/// Decoder geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderConfig {
    /// Frame payload in bytes (must be a multiple of the 512 B protection
    /// block).
    pub frame_bytes: u64,
    /// DRAM frame buffers available.
    pub buffers: usize,
    /// Compression ratio of the input bitstream (frame bytes per stream
    /// byte).
    pub compression: u64,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        // QCIF-ish luma+chroma payload, 3 buffers as in Fig 19.
        Self { frame_bytes: 128 * 512, buffers: 3, compression: 20 }
    }
}

/// Outcome of a functional secure decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeReport {
    /// Frames decoded.
    pub frames: usize,
    /// Reference blocks read and verified.
    pub ref_blocks_verified: u64,
    /// `true` if no `(address, VN)` pair was ever reused for a write.
    pub counters_unique: bool,
    /// Per-buffer count of frames hosted (shows recycling).
    pub frames_per_buffer: Vec<u32>,
}

/// The functional secure decoder.
#[derive(Debug)]
pub struct SecureDecoder {
    mem: MgxSecureMemory,
    vn: VideoVnState,
    cfg: DecoderConfig,
    region: RegionId,
}

const BLOCK: u64 = 512;

impl SecureDecoder {
    /// Creates a decoder with fresh session keys.
    pub fn new(cfg: DecoderConfig) -> Self {
        assert!(cfg.frame_bytes.is_multiple_of(BLOCK), "frame size must be block-aligned");
        let mut vn = VideoVnState::new();
        vn.begin_bitstream();
        Self {
            mem: MgxSecureMemory::new(b"h264-enc-key-000", b"h264-mac-key-000"),
            vn,
            cfg,
            region: RegionId(0),
        }
    }

    /// Adversary access to the underlying DRAM (for tamper tests).
    pub fn untrusted_mut(&mut self) -> &mut mgx_core::secure::UntrustedMemory {
        self.mem.untrusted_mut()
    }

    fn buffer_base(&self, buffer: usize) -> u64 {
        buffer as u64 * self.cfg.frame_bytes
    }

    /// Synthetic "decoded pixels" for a frame block.
    fn frame_block_payload(display: usize, block: u64) -> Vec<u8> {
        let mut v = vec![0u8; BLOCK as usize];
        for (i, b) in v.iter_mut().enumerate() {
            *b = (display as u64 * 131 + block * 17 + i as u64) as u8;
        }
        v
    }

    /// Decodes `gop`, verifying every reference read cryptographically.
    ///
    /// # Errors
    ///
    /// [`TagMismatch`] if any reference block fails authentication — which
    /// happens iff the VN scheme is wrong or an attacker tampered with the
    /// buffers.
    pub fn decode(&mut self, gop: &GopStructure) -> Result<DecodeReport, TagMismatch> {
        self.decode_with_hook(gop, |_, _| {})
    }

    /// [`SecureDecoder::decode`] with an adversary hook invoked after each
    /// decoded frame (receives the DRAM and the decode step) — used by the
    /// attack tests to tamper *between* a reference write and its read.
    pub fn decode_with_hook(
        &mut self,
        gop: &GopStructure,
        mut hook: impl FnMut(&mut mgx_core::secure::UntrustedMemory, usize),
    ) -> Result<DecodeReport, TagMismatch> {
        let plan = plan_buffers(gop, self.cfg.buffers);
        let mut audit = UniquenessAuditor::new();
        let mut verified = 0u64;
        let mut frames_per_buffer = vec![0u32; self.cfg.buffers];
        let blocks = self.cfg.frame_bytes / BLOCK;
        for (step, &display) in gop.decode_order().iter().enumerate() {
            let buffer = plan.assignment[display];
            frames_per_buffer[buffer] += 1;
            // Inter prediction: read (and verify) the reference frames with
            // VNs regenerated from *their* display numbers.
            for r in gop.references(display) {
                let ref_base = self.buffer_base(plan.assignment[r]);
                let ref_vn = self.vn.frame_vn(r as u64);
                for blk in 0..blocks {
                    let got = self.mem.read_block(
                        self.region,
                        ref_base + blk * BLOCK,
                        BLOCK as usize,
                        ref_vn,
                    )?;
                    debug_assert_eq!(got, Self::frame_block_payload(r, blk), "pixel corruption");
                    verified += 1;
                }
            }
            // Write the decoded frame once, block by block.
            let base = self.buffer_base(buffer);
            let write_vn = self.vn.frame_vn(display as u64);
            for blk in 0..blocks {
                audit.record_write(base + blk * BLOCK, write_vn);
                self.mem.write_block(
                    self.region,
                    base + blk * BLOCK,
                    &Self::frame_block_payload(display, blk),
                    write_vn,
                );
            }
            hook(self.mem.untrusted_mut(), step);
        }
        Ok(DecodeReport {
            frames: gop.len(),
            ref_blocks_verified: verified,
            counters_unique: audit.all_unique(),
            frames_per_buffer,
        })
    }
}

/// Streams the decoder's DRAM trace for one GOP — bitstream reads,
/// reference (inter-prediction) reads, and the single write per frame —
/// one decoded frame at a time, so arbitrarily long streams cost constant
/// memory.
pub fn stream_decode_trace(
    gop: &GopStructure,
    cfg: &DecoderConfig,
) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
    let gop = gop.clone();
    let cfg = *cfg;
    let plan = plan_buffers(&gop, cfg.buffers);
    let mut regions = RegionMap::new();
    let stream_bytes = (gop.len() as u64 * cfg.frame_bytes / cfg.compression).max(64);
    let bitstream = regions.alloc("bitstream", stream_bytes, DataClass::Bitstream);
    let frames: Vec<RegionId> = (0..cfg.buffers)
        .map(|i| regions.alloc(format!("framebuf{i}"), cfg.frame_bytes, DataClass::Frame))
        .collect();
    let base_of: Vec<u64> = frames.iter().map(|&r| regions.get(r).base).collect();
    let bs_base = regions.get(bitstream).base;

    let phases = gop.decode_order().into_iter().enumerate().flat_map(move |(i, display)| {
        let mut step = Trace::default();
        // Decode throughput ~1 px/cycle-ish: frame_bytes cycles per frame.
        step.begin_phase(cfg.frame_bytes);
        let chunk = cfg.frame_bytes / cfg.compression;
        step.push(MemRequest::read(bitstream, bs_base + i as u64 * chunk, chunk.max(64)));
        for r in gop.references(display) {
            let rb = plan.assignment[r];
            // Motion compensation reads the reference once on average.
            step.push(MemRequest::read(frames[rb], base_of[rb], cfg.frame_bytes));
        }
        let wb = plan.assignment[display];
        step.push(MemRequest::write(frames[wb], base_of[wb], cfg.frame_bytes));
        step.phases
    });
    (regions, phases)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DecoderConfig {
        DecoderConfig { frame_bytes: 8 * BLOCK, buffers: 3, compression: 16 }
    }

    #[test]
    fn ibpb_gop_decodes_and_verifies() {
        let mut dec = SecureDecoder::new(small_cfg());
        let report = dec.decode(&GopStructure::ibpb(12)).expect("decode verifies");
        assert_eq!(report.frames, 12);
        assert!(report.ref_blocks_verified > 0);
        assert!(report.counters_unique, "write-once-per-frame must hold");
        assert!(
            report.frames_per_buffer.iter().any(|&c| c > 1),
            "buffers must be recycled: {:?}",
            report.frames_per_buffer
        );
    }

    #[test]
    fn two_bitstreams_reuse_buffers_safely() {
        let mut dec = SecureDecoder::new(small_cfg());
        dec.decode(&GopStructure::ibpb(8)).unwrap();
        // New bitstream: frame numbers restart but CTR_IN changed.
        dec.vn.begin_bitstream();
        dec.decode(&GopStructure::ibpb(8)).unwrap();
    }

    #[test]
    fn tampered_reference_frame_is_rejected() {
        let mut dec = SecureDecoder::new(small_cfg());
        // Corrupt the I-frame's buffer right after it is decoded (step 0);
        // the P frame that references it must then fail verification.
        let result = dec.decode_with_hook(&GopStructure::ibpb(4), |mem, step| {
            if step == 0 {
                mem.corrupt(10, 0xff);
            }
        });
        assert_eq!(result.unwrap_err(), TagMismatch);
    }

    #[test]
    fn replayed_reference_frame_is_rejected() {
        // Replay attack across buffer recycling: the attacker snapshots a
        // buffer's (ciphertext) content and restores it after a newer frame
        // lands there. The reader's regenerated VN no longer matches.
        let mut dec = SecureDecoder::new(small_cfg());
        let frame_bytes = small_cfg().frame_bytes as usize;
        let mut snap: Option<Vec<u8>> = None;
        let result = dec.decode_with_hook(&GopStructure::ibpb(12), |mem, step| {
            if step == 0 {
                snap = Some(mem.snapshot(0, frame_bytes));
            }
            // Buffer 0 gets recycled later in the GOP; replay the old frame.
            if step == 4 {
                mem.restore(0, snap.as_ref().unwrap());
            }
        });
        assert_eq!(result.unwrap_err(), TagMismatch);
    }

    #[test]
    fn trace_writes_each_frame_once() {
        let gop = GopStructure::ibpb(8);
        let cfg = small_cfg();
        let t = stream_decode_trace(&gop, &cfg).collect_trace();
        let writes: u64 = t
            .phases
            .iter()
            .flat_map(|p| &p.requests)
            .filter(|r| !r.dir.is_read())
            .map(|r| r.bytes)
            .sum();
        assert_eq!(writes, 8 * cfg.frame_bytes);
    }

    #[test]
    fn trace_b_frames_read_two_references() {
        let gop = GopStructure::ibpb(8);
        let cfg = small_cfg();
        let t = stream_decode_trace(&gop, &cfg).collect_trace();
        // One phase per frame in decode order; find frame 1 (B).
        let pos = gop.decode_order().iter().position(|&f| f == 1).unwrap();
        let b_phase = &t.phases[pos];
        let frame_reads = b_phase
            .requests
            .iter()
            .filter(|r| r.dir.is_read() && t.regions.get(r.region).class == DataClass::Frame)
            .count();
        assert_eq!(frame_reads, 2);
    }
}
