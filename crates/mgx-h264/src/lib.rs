//! H.264 decoder memory model and MGX protection (paper §VII-A, Figs
//! 17–19).
//!
//! A video decoder is the paper's example of a *dynamic, out-of-order*
//! memory pattern that MGX still covers: B-frames are decoded out of display
//! order and re-read reference frames bidirectionally, yet every frame
//! buffer location is written exactly once per frame, so
//! `CTR_IN ‖ frame-number` works as the version number.
//!
//! * [`gop`] — frame types, display vs decode order (Fig 18), reference
//!   structure;
//! * [`dpb`] — the decoded-picture-buffer manager (three frame buffers, as
//!   in Fig 19);
//! * [`vn`] — the MGX VN scheme for video;
//! * [`decoder`] — a behavioral secure decoder running over
//!   [`mgx_core::secure::MgxSecureMemory`] (functional correctness check of
//!   the paper's RTL experiment) plus the memory-trace model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decoder;
pub mod dpb;
pub mod gop;
pub mod vn;

pub use decoder::{stream_decode_trace, DecodeReport, DecoderConfig, SecureDecoder};
pub use gop::{FrameType, GopStructure};
pub use vn::VideoVnState;
