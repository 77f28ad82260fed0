//! MGX: near-zero-overhead memory protection for data-intensive
//! accelerators — the paper's primary contribution.
//!
//! The crate has two faces:
//!
//! 1. **A functional secure-memory implementation** ([`secure`]): real
//!    AES-CTR encryption and real MACs over an *untrusted* DRAM model with an
//!    adversary API. [`secure::MgxSecureMemory`] takes version numbers from
//!    the kernel (generated on-chip, [`vn`]); [`secure::BaselineSecureMemory`]
//!    stores them off-chip under an 8-ary Merkle tree, like a conventional
//!    secure processor. Attack tests show both detect corruption, replay,
//!    relocation, and splicing.
//!
//! 2. **A performance model** ([`engine`]): protection engines that expand an
//!    accelerator's coarse-grained memory requests into the exact 64-byte
//!    DRAM lines each scheme moves — data, version numbers, MACs, and
//!    integrity-tree nodes, after a 32 KB metadata cache where the scheme
//!    has one — emitted as bursts of contiguous lines. These engines drive
//!    every figure of the evaluation. They split along the paper's VN
//!    axis: [`engine::MgxEngine`] keeps VNs on chip (NP, MGX, MGX_VN) and
//!    [`engine::BaselineEngine`] keeps them off chip behind the cached
//!    tree walk (BP, MGX_MAC).
//!
//! The key ideas from the paper mapped to code:
//!
//! * On-chip VN generation (§III-C) — [`vn::DnnVnState`],
//!   [`vn::GraphVnState`], [`vn::GenomeVnState`], [`vn::TableVersionSource`].
//! * Counter construction `addr ‖ tag ‖ VN` (Fig 6) — [`counter`].
//! * Application-granularity MACs (§III-C) — [`policy::MacGranularity`] and
//!   per-[`mgx_trace::DataClass`] defaults in [`policy::ProtectionConfig`].
//! * Baseline Intel-MEE-like scheme (§III-A, §VI-A) — [`engine::BaselineEngine`],
//!   with the VN and MAC tables' address maps as free functions in
//!   [`layout`] and the integrity tree as [`layout::BaselineLayout`].
//! * Session setup, key exchange, and remote attestation (§II, Fig 1) —
//!   [`session`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod engine;
pub mod layout;
pub mod policy;
pub mod secure;
pub mod session;
pub mod vn;

pub use counter::{CounterBlock, StreamTag};
pub use engine::{scheme_engine, LineBurst, MetaTraffic, ProtectionEngine, Scheme, TxnKind};
pub use policy::{MacGranularity, ProtectionConfig};
