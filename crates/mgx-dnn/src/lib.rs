//! DNN workloads for the secure-accelerator evaluation (paper §IV, §VI-A).
//!
//! Provides the paper's benchmark networks — AlexNet, VGG-16, GoogLeNet,
//! ResNet-50, BERT (Transformer encoder), and DLRM — as operator graphs,
//! plus the machinery to lower them onto the `mgx-scalesim` systolic-array
//! model and stream complete inference and training memory traces
//! ([`trace::stream_inference_trace`], [`trace::stream_training_trace`]).
//!
//! The [`pruning`] module implements the static/dynamic pruning formats of
//! §VII-B (CSR, CSC, run-length compression, dynamic channel gating) used
//! to show that MGX's shared-VN scheme survives input-dependent sparsity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod models;
pub mod ops;
pub mod pruning;
pub mod trace;

pub use models::Model;
pub use ops::{ConvSpec, InputRef, Op, OpKind};
