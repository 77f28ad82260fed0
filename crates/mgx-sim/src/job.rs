//! Job specifications for the `mgx-serve` simulation service.
//!
//! A [`JobSpec`] names everything that determines a sweep's *results*: a
//! workload suite from the experiment registry, the [`Scale`] knobs, and
//! the scheme subset to report — plus execution knobs (pool `threads`)
//! that change only wall-clock, never bits. [`JobSpec::canonicalize`]
//! folds equivalent specs onto one representative and
//! [`JobSpec::digest`] turns that canonical form into a stable 64-bit
//! content address, so a result store keyed by it memoizes repeated
//! queries exactly (same spec → same key → bit-identical cached bytes).
//!
//! The digest deliberately **excludes** `threads`: the parallel executor
//! is bit-identical to the serial one by construction (pinned by the
//! `parallel ≡ serial` proptest in `tests/pipeline_shapes.rs` and
//! re-pinned end-to-end by the serve proptest in `tests/serve_e2e.rs`),
//! so a 1-thread and an 8-thread run of the same job share one cache
//! entry. It deliberately **includes** a crate-version salt: a code
//! change that shifts any simulated bit must not be served stale results
//! from an on-disk store written by an older build (see DESIGN.md).

use crate::experiments::{dnn, genome, graph, transformer, video, Evaluated};
use crate::pipeline::RunResult;
use crate::scale::Scale;
use mgx_core::Scheme;
use mgx_dram::DramBackend;

/// The workload suites a job can request — exactly the experiment-registry
/// entry points the `figures` binary drives, so a served result is always
/// reproducible by a direct call to the suite's `evaluate` function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// DNN inference (VGG/AlexNet/GoogLeNet/ResNet/BERT/DLRM, Cloud+Edge).
    DnnInference,
    /// DNN training (inference models minus DLRM).
    DnnTraining,
    /// PageRank + BFS over the six benchmark graphs.
    Graph,
    /// The nine Darwin/GACT genome-alignment workloads.
    Genome,
    /// The H.264 IBPB decode case study.
    Video,
    /// LLM inference: prefill, decode, and paged decode for the two named
    /// transformer shapes.
    Transformer,
}

impl Suite {
    /// Every suite, in registry order.
    pub const ALL: [Suite; 6] = [
        Suite::DnnInference,
        Suite::DnnTraining,
        Suite::Graph,
        Suite::Genome,
        Suite::Video,
        Suite::Transformer,
    ];

    /// Stable wire name (`"dnn-inference"`, `"graph"`, …).
    pub fn name(self) -> &'static str {
        match self {
            Suite::DnnInference => "dnn-inference",
            Suite::DnnTraining => "dnn-training",
            Suite::Graph => "graph",
            Suite::Genome => "genome",
            Suite::Video => "video",
            Suite::Transformer => "transformer",
        }
    }

    /// One-line description (the `serve` protocol's suite listing).
    pub fn description(self) -> &'static str {
        match self {
            Suite::DnnInference => "DNN inference suite on Cloud and Edge (Figs 12a/13a)",
            Suite::DnnTraining => "DNN training suite on Cloud and Edge (Figs 12b/13b)",
            Suite::Graph => "PageRank + BFS over the six benchmark graphs (Fig 14)",
            Suite::Genome => "Darwin/GACT alignment workloads (Fig 16)",
            Suite::Video => "H.264 IBPB decode case study (Figs 18-19)",
            Suite::Transformer => "LLM inference: prefill/decode/paged KV cache (llm-* figures)",
        }
    }

    /// Parses a wire name; `None` for anything the registry doesn't know.
    pub fn from_name(name: &str) -> Option<Suite> {
        Suite::ALL.iter().copied().find(|s| s.name() == name)
    }
}

/// Parses a scheme label as printed by [`Scheme::label`].
pub fn scheme_from_label(label: &str) -> Option<Scheme> {
    Scheme::ALL.iter().copied().find(|s| s.label() == label)
}

/// One simulation job: what to sweep and what to report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload suite to simulate.
    pub suite: Suite,
    /// Scaling knobs (the presets [`Scale::quick`]/[`Scale::standard`] or
    /// any explicit combination).
    pub scale: Scale,
    /// Schemes to include in the result, in [`Scheme::ALL`] order after
    /// canonicalization. Empty means "all five". The sweep itself always
    /// runs all five schemes in one pass (`run_all` amortizes the trace
    /// walk), so a subset changes the response, not the simulation cost.
    pub schemes: Vec<Scheme>,
    /// Workload-pool fan-out for the sweep (`0` = all cores). Changes
    /// wall-clock only; excluded from the canonical form and the digest.
    pub threads: usize,
    /// DRAM timing backend. Unlike `threads` this changes result *bits* (the queued backend reorders transactions),
    /// so it is part of the canonical form and the content digest.
    pub backend: DramBackend,
}

impl JobSpec {
    /// A full five-scheme sweep of `suite` — what the `figures` binary
    /// consumes per suite.
    pub fn suite_sweep(suite: Suite, scale: Scale, threads: usize, backend: DramBackend) -> Self {
        Self { suite, scale, schemes: Scheme::ALL.to_vec(), threads, backend }
    }

    /// Rejects knob combinations the experiment modules cannot run
    /// (any zero scale knob would divide by zero or generate an empty
    /// workload). Returns a human-readable reason.
    pub fn validate(&self) -> Result<(), String> {
        let s = &self.scale;
        for (name, v) in [
            ("dnn_batch", s.dnn_batch),
            ("bert_seq", s.bert_seq),
            ("graph_divisor", s.graph_divisor),
            ("pr_iters", s.pr_iters as u64),
            ("genome_reads", s.genome_reads as u64),
            ("genome_read_len", s.genome_read_len as u64),
            ("genome_divisor", s.genome_divisor as u64),
            ("video_frames", s.video_frames as u64),
        ] {
            if v == 0 {
                return Err(format!("scale knob `{name}` must be >= 1"));
            }
        }
        if self.threads > 1024 {
            return Err("threads must be <= 1024".into());
        }
        Ok(())
    }

    /// Folds equivalent specs onto one representative: schemes are
    /// deduplicated and sorted into [`Scheme::ALL`] order, and an empty
    /// set expands to all five.
    pub fn canonicalize(mut self) -> Self {
        let requested: Vec<Scheme> = if self.schemes.is_empty() {
            Scheme::ALL.to_vec()
        } else {
            Scheme::ALL.iter().copied().filter(|s| self.schemes.contains(s)).collect()
        };
        self.schemes = requested;
        self
    }

    /// The canonical wire form of everything that determines result bits
    /// (suite, scale knobs, scheme set, DRAM backend — **not** `threads`).
    /// Two specs digest equal iff this string is equal.
    pub fn canonical_json(&self) -> String {
        let c = self.clone().canonicalize();
        let schemes: Vec<String> = c.schemes.iter().map(|s| format!("\"{}\"", s.label())).collect();
        format!(
            "{{\"suite\":\"{}\",\"scale\":{},\"schemes\":[{}],\"backend\":\"{}\"}}",
            c.suite.name(),
            scale_json(&c.scale),
            schemes.join(","),
            c.backend.name()
        )
    }

    /// Content address of the canonical form: 64-bit FNV-1a over a
    /// crate-version salt plus [`JobSpec::canonical_json`]. The salt ties
    /// every digest to the simulator build, so an on-disk store can never
    /// serve results computed by different code (cache coherence with code
    /// changes — see DESIGN.md).
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, DIGEST_SALT.as_bytes());
        h = fnv1a(h, self.canonical_json().as_bytes());
        h
    }

    /// [`JobSpec::digest`] as the fixed-width hex job id used on the wire.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Runs the sweep through the suite's experiment-registry entry point
    /// (the one the `figures` binary calls), returning every workload of
    /// the suite under all five schemes. The DRAM backend rides in from
    /// the spec: it changes bits, which is exactly why it lives in the
    /// digest; `threads` changes only wall-clock.
    pub fn execute(&self) -> Vec<Evaluated> {
        let (scale, threads, b) = (&self.scale, self.threads, self.backend);
        match self.suite {
            Suite::DnnInference => dnn::evaluate_inference(scale, threads, b),
            Suite::DnnTraining => dnn::evaluate_training(scale, threads, b),
            Suite::Graph => graph::evaluate(scale, threads, b),
            Suite::Genome => genome::evaluate(scale, threads, b),
            Suite::Video => video::evaluate(scale, threads, b),
            Suite::Transformer => transformer::evaluate(scale, threads, b),
        }
    }

    /// [`JobSpec::execute`] with the sweep recorded into an
    /// observability registry. The results are byte-identical to the
    /// unobserved call (the registry only *watches*); the registry gains:
    ///
    /// * `mgx_suite_wall_ns{suite=…}` — wall-clock of the whole sweep;
    /// * `mgx_simulated_bytes_total{suite=…,scheme=…}` and
    ///   `mgx_dram_cycles_total{suite=…,scheme=…}` — per-scheme totals
    ///   (schemes share one trace walk, so wall-clock is only separable
    ///   per suite, but simulated work is exact per scheme).
    pub fn execute_observed(&self, registry: &mgx_obs::Registry) -> Vec<Evaluated> {
        let suite = self.suite.name();
        let wall = registry.histogram_with(
            "mgx_suite_wall_ns",
            &[("suite", suite)],
            "wall-clock nanoseconds per suite sweep",
        );
        let span = wall.span();
        let evals = self.execute();
        span.stop();
        for e in &evals {
            for r in &e.results {
                let labels = [("suite", suite), ("scheme", r.scheme.label())];
                registry
                    .counter_with(
                        "mgx_simulated_bytes_total",
                        &labels,
                        "DRAM bytes simulated (data + metadata)",
                    )
                    .add(r.total_bytes());
                registry
                    .counter_with("mgx_dram_cycles_total", &labels, "DRAM cycles simulated")
                    .add(r.dram_cycles);
            }
        }
        evals
    }

    /// Serializes a sweep's results as the canonical response document —
    /// one line of JSON, schemes filtered to the (canonicalized) request.
    ///
    /// This is *the* byte format of the service: the store persists it
    /// verbatim, `fetch` replies with it verbatim, and a cached response
    /// is therefore bit-identical to the cold one. `exec_ns` round-trips
    /// exactly through `exec_ns_bits` (the IEEE-754 bit pattern); the
    /// decimal rendering is for humans only.
    pub fn result_json(&self, evals: &[Evaluated]) -> String {
        let c = self.clone().canonicalize();
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"v\":\"{DIGEST_SALT}\",\"digest\":\"{}\",\"suite\":\"{}\",\"workloads\":[",
            c.digest_hex(),
            c.suite.name()
        ));
        for (i, e) in evals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"workload\":\"{}\",\"config\":\"{}\",\"results\":[",
                crate::report::esc(&e.workload),
                crate::report::esc(&e.config)
            ));
            let mut first = true;
            for r in &e.results {
                if !c.schemes.contains(&r.scheme) {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&run_result_json(r));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Canonical JSON for the scale knobs, fields in declaration order.
pub fn scale_json(s: &Scale) -> String {
    format!(
        "{{\"dnn_batch\":{},\"bert_seq\":{},\"graph_divisor\":{},\"pr_iters\":{},\
         \"genome_reads\":{},\"genome_read_len\":{},\"genome_divisor\":{},\"video_frames\":{}}}",
        s.dnn_batch,
        s.bert_seq,
        s.graph_divisor,
        s.pr_iters,
        s.genome_reads,
        s.genome_read_len,
        s.genome_divisor,
        s.video_frames
    )
}

fn traffic_json(t: &mgx_trace::Traffic) -> String {
    format!("[{},{}]", t.read_bytes, t.write_bytes)
}

/// One scheme's [`RunResult`] as canonical JSON (every field, losslessly).
pub fn run_result_json(r: &RunResult) -> String {
    format!(
        "{{\"scheme\":\"{}\",\"dram_cycles\":{},\"exec_ns_bits\":{},\"exec_ns\":{:.3},\
         \"traffic\":{{\"data\":{},\"vn\":{},\"tree\":{},\"mac\":{}}},\
         \"dram\":{{\"row_hits\":{},\"row_opens\":{},\"row_conflicts\":{},\"reads\":{},\
         \"writes\":{},\"refreshes\":{},\"total_latency\":{}}}}}",
        r.scheme.label(),
        r.dram_cycles,
        r.exec_ns.to_bits(),
        r.exec_ns,
        traffic_json(&r.traffic.data),
        traffic_json(&r.traffic.vn),
        traffic_json(&r.traffic.tree),
        traffic_json(&r.traffic.mac),
        r.dram.row_hits,
        r.dram.row_opens,
        r.dram.row_conflicts,
        r.dram.reads,
        r.dram.writes,
        r.dram.refreshes,
        r.dram.total_latency,
    )
}

/// Version salt mixed into every digest (and echoed in result documents):
/// results are only comparable across identical simulator builds.
pub const DIGEST_SALT: &str = concat!("mgx-job/", env!("CARGO_PKG_VERSION"));

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_video_spec() -> JobSpec {
        JobSpec {
            suite: Suite::Video,
            scale: Scale { video_frames: 4, ..Scale::quick() },
            schemes: vec![],
            threads: 1,
            backend: DramBackend::ClosedForm,
        }
    }

    #[test]
    fn suite_names_round_trip() {
        for s in Suite::ALL {
            assert_eq!(Suite::from_name(s.name()), Some(s));
            assert!(!s.description().is_empty());
        }
        assert_eq!(Suite::from_name("nope"), None);
    }

    #[test]
    fn scheme_labels_round_trip() {
        for s in Scheme::ALL {
            assert_eq!(scheme_from_label(s.label()), Some(s));
        }
        assert_eq!(scheme_from_label("np"), None, "labels are case-sensitive");
    }

    #[test]
    fn canonicalization_folds_equivalent_scheme_sets() {
        let base = tiny_video_spec();
        let all = JobSpec { schemes: Scheme::ALL.to_vec(), ..base.clone() };
        let shuffled = JobSpec {
            schemes: vec![Scheme::MgxMac, Scheme::NoProtection, Scheme::Mgx, Scheme::MgxMac],
            ..base.clone()
        };
        let sorted = JobSpec {
            schemes: vec![Scheme::NoProtection, Scheme::Mgx, Scheme::MgxMac],
            ..base.clone()
        };
        assert_eq!(base.digest(), all.digest(), "empty scheme set means all five");
        assert_eq!(shuffled.digest(), sorted.digest(), "order and duplicates are canonicalized");
        assert_ne!(sorted.digest(), all.digest(), "a real subset is a different job");
    }

    #[test]
    fn threads_never_change_the_digest() {
        let spec = tiny_video_spec();
        for threads in [0usize, 1, 2, 8] {
            assert_eq!(JobSpec { threads, ..spec.clone() }.digest(), spec.digest());
        }
    }

    #[test]
    fn scale_knobs_change_the_digest() {
        let spec = tiny_video_spec();
        let other = JobSpec { scale: Scale { video_frames: 5, ..spec.scale }, ..tiny_video_spec() };
        assert_ne!(spec.digest(), other.digest());
        assert_ne!(
            JobSpec { suite: Suite::Genome, ..tiny_video_spec() }.digest(),
            spec.digest(),
            "suite is part of the identity"
        );
    }

    #[test]
    fn digest_is_salted_with_the_crate_version() {
        // The canonical JSON alone must not equal the digest input — a
        // version bump must move every key.
        let spec = tiny_video_spec();
        let unsalted = fnv1a(FNV_OFFSET, spec.canonical_json().as_bytes());
        assert_ne!(spec.digest(), unsalted);
        assert!(DIGEST_SALT.contains(env!("CARGO_PKG_VERSION")));
    }

    #[test]
    fn transformer_era_digests_diverge_from_the_pre_transformer_salt() {
        // Stale-store poisoning guard: adding `Suite::Transformer` changed
        // the evaluation surface, so this build's digests must not collide
        // with keys written by the last release without it (salt
        // "mgx-job/0.1.0"). If this test fails, the version (and with it
        // DIGEST_SALT) was rolled back across a behavior change.
        let old_salt = "mgx-job/0.1.0";
        assert_ne!(DIGEST_SALT, old_salt, "adding Suite::Transformer requires a version bump");
        let spec = tiny_video_spec();
        let old_digest =
            fnv1a(fnv1a(FNV_OFFSET, old_salt.as_bytes()), spec.canonical_json().as_bytes());
        assert_ne!(spec.digest(), old_digest, "stale pre-transformer store keys must not resolve");
    }

    #[test]
    fn dram_backend_is_part_of_the_job_identity() {
        // The queued backend reorders transactions — different bits, so a
        // queued job must never be served a closed-form store entry.
        let spec = tiny_video_spec();
        let queued = JobSpec { backend: DramBackend::Queued, ..tiny_video_spec() };
        assert_ne!(spec.digest(), queued.digest());
        assert!(spec.canonical_json().contains("\"backend\":\"closed-form\""));
        assert!(queued.canonical_json().contains("\"backend\":\"queued\""));
    }

    #[test]
    fn backend_era_digests_diverge_from_the_pre_backend_salt() {
        // Stale-store poisoning guard for the DramModel refactor: the
        // 0.2.0 build digested specs without a `backend` field, so even a
        // default closed-form spec must not resolve keys an 0.2.0 store
        // wrote (the canonical JSON changed shape *and* the salt moved).
        // If this fails, the version was rolled back across the refactor.
        let old_salt = "mgx-job/0.2.0";
        assert_ne!(DIGEST_SALT, old_salt, "the DramModel seam requires a version bump");
        let spec = tiny_video_spec();
        let old_digest =
            fnv1a(fnv1a(FNV_OFFSET, old_salt.as_bytes()), spec.canonical_json().as_bytes());
        assert_ne!(spec.digest(), old_digest, "stale pre-backend store keys must not resolve");
    }

    #[test]
    fn validate_rejects_zero_knobs() {
        let mut spec = tiny_video_spec();
        assert!(spec.validate().is_ok());
        spec.scale.graph_divisor = 0;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("graph_divisor"), "{err}");
    }

    #[test]
    fn result_json_filters_schemes_and_is_one_line() {
        let spec =
            JobSpec { schemes: vec![Scheme::Mgx, Scheme::NoProtection], ..tiny_video_spec() };
        let evals = spec.execute();
        let json = spec.result_json(&evals);
        assert!(!json.contains('\n'));
        assert!(json.contains("\"scheme\":\"NP\""));
        assert!(json.contains("\"scheme\":\"MGX\""));
        assert!(!json.contains("\"scheme\":\"BP\""), "unrequested schemes are filtered");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn execute_matches_the_registry_entry_point() {
        let spec = tiny_video_spec();
        let via_job = spec.execute();
        let direct = crate::experiments::video::evaluate(&spec.scale, 1, spec.backend);
        assert_eq!(via_job.len(), direct.len());
        for (a, b) in via_job.iter().zip(&direct) {
            assert_eq!(a.workload, b.workload);
            for (x, y) in a.results.iter().zip(&b.results) {
                assert_eq!(x.dram_cycles, y.dram_cycles);
                assert_eq!(x.traffic, y.traffic);
                assert_eq!(x.exec_ns.to_bits(), y.exec_ns.to_bits());
            }
        }
    }
}
