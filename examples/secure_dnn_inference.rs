//! Secure DNN inference: simulate ResNet-50 on the Cloud accelerator under
//! every protection scheme and print the paper-style comparison.
//!
//! ```text
//! cargo run --release --example secure_dnn_inference
//! ```

use mgx::dnn::trace::stream_inference_trace;
use mgx::dnn::Model;
use mgx::scalesim::{ArrayConfig, Dataflow};
use mgx::sim::{SimConfig, Simulation};
use mgx::trace::TraceSource;

fn main() {
    let model = Model::resnet50(2);
    println!(
        "ResNet-50, batch 2: {:.1} M weights, {:.2} G MACs/sample",
        model.weight_elems() as f64 / 1e6,
        model.macs_per_sample() as f64 / 1e9
    );

    let acfg = ArrayConfig::cloud();
    let trace = stream_inference_trace(&model, &acfg, Dataflow::WeightStationary).collect_trace();
    println!(
        "trace: {} phases, {} requests, {:.1} MiB data traffic\n",
        trace.phases.len(),
        trace.request_count(),
        trace.traffic().total() as f64 / (1 << 20) as f64
    );

    let scfg = SimConfig::overlapped(4, acfg.freq_mhz);
    // One pass over the phases drives all five schemes at once.
    let results = Simulation::over(&trace).config(scfg).run_all();
    let np = results[0].clone();
    println!(
        "{:<8} {:>12} {:>10} {:>10} {:>9} {:>9}",
        "scheme", "exec (ms)", "exec×", "traffic×", "MAC-ov%", "VN-ov%"
    );
    for r in &results {
        println!(
            "{:<8} {:>12.3} {:>10.3} {:>10.3} {:>9.1} {:>9.1}",
            r.scheme.label(),
            r.exec_ns / 1e6,
            r.dram_cycles as f64 / np.dram_cycles as f64,
            r.total_bytes() as f64 / np.total_bytes() as f64,
            r.traffic.mac_overhead() * 100.0,
            r.traffic.vn_overhead() * 100.0
        );
    }
    println!("\nMGX eliminates the VN column entirely (generated on-chip) and");
    println!("shrinks the MAC column by matching the accelerator's 512 B tiles.");
}
