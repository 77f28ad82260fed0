//! Integration tests asserting the paper's headline *shapes* end-to-end:
//! who wins, in what order, by roughly what factor. Small workloads keep
//! this fast; the full figures come from `mgx-bench`'s `figures` binary.
//!
//! Also home of the streaming-equivalence property: a generator-backed
//! [`TraceSource`] and its `.collect_trace()` twin must produce
//! bit-identical results under every scheme and phase mode.

use mgx::core::Scheme;
use mgx::dnn::trace::{stream_inference_trace, stream_training_trace};
use mgx::dnn::Model;
use mgx::genome::{stream_gact_trace, ErrorProfile, GactAccelConfig, GenomeWorkload};
use mgx::graph::accel::{stream_graph_trace, GraphAccelConfig, GraphWorkload};
use mgx::graph::rmat::RmatGenerator;
use mgx::h264::decoder::{stream_decode_trace, DecoderConfig};
use mgx::h264::GopStructure;
use mgx::scalesim::{ArrayConfig, Dataflow};
use mgx::serve::json::Json;
use mgx::sim::job::Suite;
use mgx::sim::{PhaseMode, Scale, SimConfig, Simulation, TxnPath};
use mgx::trace::{DataClass, MemRequest, Phase, RegionMap, Trace, TraceSource};
use mgx::transformer::{
    stream_decode_trace as stream_llm_decode_trace, stream_paged_attention_trace, InferenceRequest,
    PagedConfig, TransformerConfig,
};
use mgx_sim::experiments::{self, Evaluated};
use proptest::prelude::*;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

fn eval(source: impl TraceSource, scfg: &SimConfig, name: &str) -> Evaluated {
    Evaluated::new(name, "Cloud", Simulation::over(source).config(scfg.clone()).run_all())
}

#[test]
fn dnn_inference_headline_shape() {
    let model = Model::alexnet(1);
    let src = stream_inference_trace(&model, &ArrayConfig::cloud(), Dataflow::WeightStationary);
    let scfg = SimConfig::overlapped(4, 700);
    let e = eval(src, &scfg, "AlexNet");
    let time = |s: Scheme| e.of(s).dram_cycles as f64 / e.np().dram_cycles as f64;
    // Ordering: NP ≤ MGX ≤ MGX_VN/MGX_MAC ≤ BP.
    assert!(time(Scheme::Mgx) < time(Scheme::MgxVn));
    assert!(time(Scheme::MgxVn) < time(Scheme::Baseline));
    assert!(time(Scheme::MgxMac) < time(Scheme::Baseline));
    // Factors: MGX near-zero, BP tens of percent.
    assert!(time(Scheme::Mgx) < 1.06, "MGX {:.3}", time(Scheme::Mgx));
    assert!(time(Scheme::Baseline) > 1.10, "BP {:.3}", time(Scheme::Baseline));
}

#[test]
fn dnn_training_is_protected_like_inference() {
    let model = Model::alexnet(1);
    let trace = stream_training_trace(&model, &ArrayConfig::cloud(), Dataflow::WeightStationary)
        .collect_trace();
    let scfg = SimConfig::overlapped(4, 700);
    let e = eval(&trace, &scfg, "AlexNet-Train");
    let traffic = |s: Scheme| e.of(s).total_bytes() as f64 / e.np().total_bytes() as f64;
    assert!(traffic(Scheme::Mgx) < 1.05);
    assert!(traffic(Scheme::Baseline) > 1.25, "BP train traffic {:.3}", traffic(Scheme::Baseline));
}

#[test]
fn dlrm_needs_fine_grained_embedding_macs_but_mgx_still_wins() {
    let model = Model::dlrm(32);
    let src = stream_inference_trace(&model, &ArrayConfig::cloud(), Dataflow::WeightStationary);
    let scfg = SimConfig::overlapped(4, 700);
    let e = eval(src, &scfg, "DLRM");
    let bp = e.of(Scheme::Baseline);
    let mgx = e.of(Scheme::Mgx);
    // Random gathers make BP's VN side explode (deep tree walks) — the
    // worst BP workload in Fig 12a.
    assert!(
        bp.traffic.vn_overhead() > 0.25,
        "DLRM BP VN overhead {:.3} should dominate",
        bp.traffic.vn_overhead()
    );
    assert_eq!(mgx.traffic.vn.total(), 0, "MGX stores no VNs at all");
    assert!(mgx.total_bytes() < bp.total_bytes());
}

#[test]
fn fig3_vn_side_dominates_mac_side() {
    // The paper's Fig 3 observation: VN+tree traffic exceeds MAC traffic
    // for the streaming DNN workloads under traditional protection.
    let model = Model::googlenet(1);
    let src = stream_inference_trace(&model, &ArrayConfig::cloud(), Dataflow::WeightStationary);
    let bp =
        Simulation::over(src).config(SimConfig::overlapped(4, 700)).scheme(Scheme::Baseline).run();
    assert!(bp.traffic.vn_overhead() > bp.traffic.mac_overhead());
}

#[test]
fn graph_pagerank_and_bfs_share_the_vn_scheme() {
    let g = RmatGenerator::social(13, 5).generate(100_000);
    let cfg = GraphAccelConfig::default();
    let scfg = SimConfig::overlapped(4, 800);
    for w in [GraphWorkload::PageRank { iters: 2 }, GraphWorkload::Bfs { levels: 3 }] {
        let e = eval(stream_graph_trace(&g, w, &cfg), &scfg, w.label());
        let time = |s: Scheme| e.of(s).dram_cycles as f64 / e.np().dram_cycles as f64;
        assert!(time(Scheme::Mgx) < 1.08, "{} MGX {:.3}", w.label(), time(Scheme::Mgx));
        assert!(time(Scheme::Baseline) > time(Scheme::Mgx), "{} BP must lose", w.label());
    }
}

#[test]
fn video_decode_overheads_are_modest_under_mgx() {
    let src = stream_decode_trace(&GopStructure::ibpb(12), &DecoderConfig::default());
    let scfg = SimConfig::overlapped(1, 500);
    let e = eval(src, &scfg, "H264");
    let time = |s: Scheme| e.of(s).dram_cycles as f64 / e.np().dram_cycles as f64;
    assert!(time(Scheme::Mgx) <= time(Scheme::Baseline));
}

#[test]
fn fig3_builder_collects_bp_rows_across_domains() {
    let scfg = SimConfig::overlapped(4, 700);
    let model = Model::alexnet(1);
    let inf = [eval(
        stream_inference_trace(&model, &ArrayConfig::cloud(), Dataflow::WeightStationary)
            .collect_trace(),
        &scfg,
        "AlexNet",
    )];
    let train = [eval(
        stream_training_trace(&model, &ArrayConfig::cloud(), Dataflow::WeightStationary)
            .collect_trace(),
        &scfg,
        "AlexNet",
    )];
    let g = RmatGenerator::social(12, 2).generate(50_000);
    let gsrc =
        stream_graph_trace(&g, GraphWorkload::PageRank { iters: 2 }, &GraphAccelConfig::default());
    let graphs = [eval(gsrc, &SimConfig::overlapped(4, 800), "PR-test")];
    let sweep = |suite| match suite {
        Suite::DnnInference => &inf[..],
        Suite::DnnTraining => &train[..],
        _ => &graphs[..],
    };
    let line = experiments::entry("fig3").unwrap().render(sweep, &Scale::quick(), 1, true);
    let fig = Json::parse(&line).unwrap();
    let rows = fig.get("rows").and_then(Json::as_arr).unwrap();
    let field = |r: &Json, key| r.get(key).unwrap().clone();
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|r| field(r, "scheme").as_str() == Some(Scheme::Baseline.label())));
    assert!(rows.iter().all(|r| field(r, "vn_ov").as_f64() > Some(0.0)));
    assert!(rows.iter().all(|r| field(r, "mac_ov").as_f64() > Some(0.0)));
    assert_eq!(field(&rows[0], "workload").as_str(), Some("AlexNet-Inf"));
    assert_eq!(field(&rows[1], "workload").as_str(), Some("AlexNet-Train"));
}

/// Every `stream_*` generator must emit one step at a time: each stream
/// below is far too long to build whole (2^40 iterations, reads or decode
/// steps), so its first phase arrives only if the generator is lazy. Each
/// pull runs on its own thread under a deadline, so a generator that builds
/// its stream up front fails this test instead of hanging the suite.
#[test]
fn stream_generators_stay_lazy() {
    type Pull = Box<dyn FnOnce() -> Option<Phase> + Send>;
    const HUGE: u64 = 1 << 40;
    let g = RmatGenerator::social(10, 5).generate(10_000);
    let llm = |paged: bool| -> Pull {
        Box::new(move || {
            let (m, cfg) = (TransformerConfig::gpt_small(), ArrayConfig::cloud());
            let req = InferenceRequest::new(1, 8, HUGE);
            if paged {
                let paged = PagedConfig::default();
                stream_paged_attention_trace(&m, &req, &paged, &cfg).into_stream().1.next()
            } else {
                stream_llm_decode_trace(&m, &req, &cfg).into_stream().1.next()
            }
        })
    };
    let pulls: [(&str, Pull); 4] = [
        (
            "PageRank",
            Box::new(move || {
                let w = GraphWorkload::PageRank { iters: HUGE as usize };
                stream_graph_trace(&g, w, &GraphAccelConfig::default()).into_stream().1.next()
            }),
        ),
        (
            "GACT",
            Box::new(|| {
                let w = GenomeWorkload {
                    chromosome: "chrY",
                    full_len: 57_227_415,
                    profile: ErrorProfile::pacbio(),
                };
                let cfg = GactAccelConfig::default();
                stream_gact_trace(&w, &cfg, HUGE as usize, 1200, 500, 7).into_stream().1.next()
            }),
        ),
        ("decode", llm(false)),
        ("paged decode", llm(true)),
    ];
    for (name, pull) in pulls {
        let (tx, rx) = mpsc::channel();
        let puller = std::thread::spawn(move || {
            let _ = tx.send(pull());
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(first) => assert!(first.is_some(), "{name}: the stream is empty"),
            // A puller still running at the deadline is left detached.
            Err(RecvTimeoutError::Timeout) => panic!("{name}: no first phase within 30 s"),
            Err(RecvTimeoutError::Disconnected) => {}
        }
        puller.join().unwrap_or_else(|_| panic!("{name}: the generator panicked"));
    }
}

/// A workload-stream blueprint the proptest can both lazily generate from
/// and collect: `(compute_cycles, [(region, tile, write)])` per phase.
type PhaseSpec = (u64, Vec<(usize, u64, bool)>);

fn spec_regions() -> (RegionMap, Vec<(mgx::trace::RegionId, u64, u64)>) {
    let mut regions = RegionMap::new();
    // One region per MAC-granularity regime: coarse Bytes(512) (feat/wgt),
    // fine Bytes(64) (emb), and PerRequest (adj) — so every equivalence
    // property below exercises every branch of the coarse MAC stream.
    let specs = [
        ("feat", 4 << 20, DataClass::Feature),
        ("wgt", 2 << 20, DataClass::Weight),
        ("emb", 1 << 20, DataClass::Embedding),
        ("adj", 1 << 20, DataClass::Adjacency),
    ];
    let mut meta = Vec::new();
    for (name, bytes, class) in specs {
        let id = regions.alloc(name, bytes, class);
        meta.push((id, regions.get(id).base, bytes));
    }
    (regions, meta)
}

fn spec_phase(meta: &[(mgx::trace::RegionId, u64, u64)], spec: &PhaseSpec) -> Phase {
    let mut p = Phase::new(spec.0);
    for &(region_idx, tile, write) in &spec.1 {
        let (id, base, bytes) = meta[region_idx % meta.len()];
        // Derive an in-bounds, nonzero request from the raw tile value.
        let len = (tile % 8192).max(1).min(bytes);
        let addr = base + (tile.wrapping_mul(2654435761) % (bytes - len + 1));
        p.requests.push(if write {
            MemRequest::write(id, addr, len)
        } else {
            MemRequest::read(id, addr, len)
        });
    }
    p
}

fn spec_source(specs: Vec<PhaseSpec>) -> (RegionMap, impl Iterator<Item = Phase>) {
    let (regions, meta) = spec_regions();
    let mut i = 0usize;
    let phases = std::iter::from_fn(move || {
        (i < specs.len()).then(|| {
            let p = spec_phase(&meta, &specs[i]);
            i += 1;
            p
        })
    });
    (regions, phases)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property of the burst hot path: for any workload and
    /// phase mode, handing the engines' `LineBurst`s to DRAM
    /// `access_burst` (the default) is bit-identical — cycles, traffic
    /// breakdown, DRAM stats, even the float bits of `exec_ns` — to issuing
    /// each burst's lines through scalar `access` (the per-line reference),
    /// under every scheme at once.
    #[test]
    fn burst_path_matches_per_line_path(
        specs in proptest::collection::vec(
            (0u64..200_000, proptest::collection::vec(
                (0usize..4, 1u64..1_000_000, proptest::strategy::any::<bool>()), 1..4)),
            1..24),
        serial in proptest::strategy::any::<bool>(),
        units in 1u64..4,
    ) {
        let mode = if serial { PhaseMode::Serial { units } } else { PhaseMode::Overlapped };
        let base = SimConfig { mode, ..SimConfig::overlapped(2, 700) };
        let burst = Simulation::over(spec_source(specs.clone()))
            .config(SimConfig { txn_path: TxnPath::Burst, ..base.clone() })
            .run_all();
        let line = Simulation::over(spec_source(specs))
            .config(SimConfig { txn_path: TxnPath::PerLine, ..base })
            .run_all();
        for (b, l) in burst.iter().zip(&line) {
            prop_assert_eq!(b.scheme, l.scheme);
            prop_assert_eq!(b.dram_cycles, l.dram_cycles, "cycles diverged for {}", l.scheme);
            prop_assert_eq!(b.traffic, l.traffic, "traffic diverged for {}", l.scheme);
            prop_assert_eq!(b.dram, l.dram, "DRAM stats diverged for {}", l.scheme);
            prop_assert_eq!(b.exec_ns.to_bits(), l.exec_ns.to_bits());
        }
    }

    /// The acceptance property of the streaming redesign: for any workload
    /// and any phase mode, simulating the lazy stream is bit-identical —
    /// cycles, traffic breakdown, DRAM stats — to simulating its
    /// `.collect_trace()` twin, under every scheme at once.
    #[test]
    fn streamed_source_matches_collected_trace(
        specs in proptest::collection::vec(
            (0u64..200_000, proptest::collection::vec(
                (0usize..4, 1u64..1_000_000, proptest::strategy::any::<bool>()), 1..4)),
            1..24),
        serial in proptest::strategy::any::<bool>(),
        units in 1u64..4,
    ) {
        let mode = if serial { PhaseMode::Serial { units } } else { PhaseMode::Overlapped };
        let cfg = SimConfig { mode, ..SimConfig::overlapped(2, 700) };
        let collected: Trace = spec_source(specs.clone()).collect_trace();
        let streamed = Simulation::over(spec_source(specs)).config(cfg.clone()).run_all();
        let materialized = Simulation::over(&collected).config(cfg).run_all();
        for (s, m) in streamed.iter().zip(&materialized) {
            prop_assert_eq!(s.scheme, m.scheme);
            prop_assert_eq!(s.dram_cycles, m.dram_cycles, "cycles diverged for {}", s.scheme);
            prop_assert_eq!(s.traffic, m.traffic, "traffic diverged for {}", s.scheme);
            prop_assert_eq!(s.dram, m.dram, "DRAM stats diverged for {}", s.scheme);
            prop_assert_eq!(s.exec_ns.to_bits(), m.exec_ns.to_bits());
        }
    }
}
