//! Wire codecs: job specs and result documents ⇄ typed values.
//!
//! The canonical *serializers* live in [`mgx_sim::job`] (they are pure
//! `format!` and the simulator side must not depend on this crate); the
//! *parsers* live here because only the service stack carries the JSON
//! reader. Parsing is strict: unknown spec fields, suites, scheme labels
//! and scale knobs, and zero scale knobs, are rejected with a
//! human-readable reason that the server forwards verbatim to the client.

use crate::json::Json;
use mgx_core::MetaTraffic;
use mgx_dram::{DramBackend, DramStats};
use mgx_sim::experiments::Evaluated;
use mgx_sim::job::{scale_json, scheme_from_label, JobSpec, Suite};
use mgx_sim::{RunResult, Scale};
use mgx_trace::Traffic;

/// Serializes a spec for the wire — the canonical fields plus `threads`
/// (which the digest excludes but the executor honors).
pub fn spec_to_wire(spec: &JobSpec) -> String {
    let c = spec.clone().canonicalize();
    let schemes: Vec<String> = c.schemes.iter().map(|s| format!("\"{}\"", s.label())).collect();
    format!(
        "{{\"suite\":\"{}\",\"scale\":{},\"schemes\":[{}],\"backend\":\"{}\",\"threads\":{}}}",
        c.suite.name(),
        scale_json(&c.scale),
        schemes.join(","),
        c.backend.name(),
        c.threads
    )
}

/// The fields a spec object may carry.
const SPEC_FIELDS: [&str; 5] = ["suite", "scale", "schemes", "threads", "backend"];

/// Parses and validates a spec object.
///
/// Any field other than `suite`, `scale`, `schemes`, `threads` and
/// `backend` is an error. `scale` accepts the preset names `"quick"` /
/// `"standard"` or an object with any subset of the eight knobs of
/// [`Scale::knobs`] (missing knobs default to [`Scale::quick`], so a tiny
/// request stays tiny by default; any other key is an error). `schemes`
/// is optional (absent/empty = all five); `threads` is optional
/// (default 1); `backend` is optional (default `"closed-form"` — the
/// digest-relevant DRAM timing backend, see
/// [`mgx_sim::DramBackend`](mgx_dram::DramBackend)).
pub fn spec_from_wire(v: &Json) -> Result<JobSpec, String> {
    if let Json::Obj(fields) = v {
        if let Some((key, _)) = fields.iter().find(|(k, _)| !SPEC_FIELDS.contains(&k.as_str())) {
            return Err(format!("unknown spec field `{key}` (known: {})", SPEC_FIELDS.join(", ")));
        }
    }
    let suite_name = v.get("suite").and_then(Json::as_str).ok_or("spec needs a `suite` string")?;
    let suite = Suite::from_name(suite_name).ok_or_else(|| {
        let known: Vec<&str> = Suite::ALL.iter().map(|s| s.name()).collect();
        format!("unknown suite `{suite_name}` (known: {})", known.join(", "))
    })?;
    let scale = match v.get("scale") {
        None => Scale::quick(),
        Some(s) => scale_from_wire(s)?,
    };
    let schemes = match v.get("schemes") {
        None => Vec::new(),
        Some(Json::Arr(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let label = item.as_str().ok_or("scheme labels must be strings")?;
                out.push(
                    scheme_from_label(label).ok_or_else(|| format!("unknown scheme `{label}`"))?,
                );
            }
            out
        }
        Some(_) => return Err("`schemes` must be an array of labels".into()),
    };
    let threads = match v.get("threads") {
        None => 1,
        Some(t) => t.as_usize().ok_or("`threads` must be a non-negative integer")?,
    };
    let backend = match v.get("backend") {
        None => DramBackend::ClosedForm,
        Some(b) => {
            let name = b.as_str().ok_or("`backend` must be a string")?;
            DramBackend::from_name(name).ok_or_else(|| {
                let known: Vec<&str> = DramBackend::ALL.iter().map(|b| b.name()).collect();
                format!("unknown backend `{name}` (known: {})", known.join(", "))
            })?
        }
    };
    let spec = JobSpec { suite, scale, schemes, threads, backend }.canonicalize();
    spec.validate()?;
    Ok(spec)
}

fn scale_from_wire(v: &Json) -> Result<Scale, String> {
    match v {
        Json::Str(preset) => match preset.as_str() {
            "quick" => Ok(Scale::quick()),
            "standard" => Ok(Scale::standard()),
            other => Err(format!("unknown scale preset `{other}` (quick|standard)")),
        },
        Json::Obj(fields) => {
            let mut s = Scale::quick();
            for (key, _) in fields {
                // `get` reads the first occurrence of a repeated key. The
                // key is checked before its value, so a misspelt knob is
                // reported as unknown whatever value it carries.
                let n = v.get(key).and_then(Json::as_u64);
                if !s.set(key, n.unwrap_or(0)) {
                    let known: Vec<&str> = s.knobs().iter().map(|&(name, _)| name).collect();
                    return Err(format!(
                        "unknown scale knob `{key}` (known: {})",
                        known.join(", ")
                    ));
                }
                if n.is_none() {
                    return Err(format!("scale knob `{key}` must be an integer"));
                }
            }
            Ok(s)
        }
        _ => Err("`scale` must be a preset name or a knob object".into()),
    }
}

fn traffic_from(v: &Json, what: &str) -> Result<Traffic, String> {
    let arr = v
        .as_arr()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| format!("traffic `{what}` must be a [read_bytes, write_bytes] pair"))?;
    let n = |i: usize| arr[i].as_u64().ok_or_else(|| format!("traffic `{what}` not integral"));
    Ok(Traffic { read_bytes: n(0)?, write_bytes: n(1)? })
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing/invalid integer field `{key}`"))
}

fn run_result_from(v: &Json) -> Result<RunResult, String> {
    let label = v.get("scheme").and_then(Json::as_str).ok_or("result needs `scheme`")?;
    let scheme = scheme_from_label(label).ok_or_else(|| format!("unknown scheme `{label}`"))?;
    let traffic = v.get("traffic").ok_or("result needs `traffic`")?;
    let dram = v.get("dram").ok_or("result needs `dram`")?;
    Ok(RunResult {
        scheme,
        dram_cycles: u64_field(v, "dram_cycles")?,
        exec_ns: f64::from_bits(u64_field(v, "exec_ns_bits")?),
        traffic: MetaTraffic {
            data: traffic_from(traffic.get("data").ok_or("traffic needs `data`")?, "data")?,
            vn: traffic_from(traffic.get("vn").ok_or("traffic needs `vn`")?, "vn")?,
            tree: traffic_from(traffic.get("tree").ok_or("traffic needs `tree`")?, "tree")?,
            mac: traffic_from(traffic.get("mac").ok_or("traffic needs `mac`")?, "mac")?,
        },
        dram: DramStats {
            row_hits: u64_field(dram, "row_hits")?,
            row_opens: u64_field(dram, "row_opens")?,
            row_conflicts: u64_field(dram, "row_conflicts")?,
            reads: u64_field(dram, "reads")?,
            writes: u64_field(dram, "writes")?,
            refreshes: u64_field(dram, "refreshes")?,
            total_latency: u64_field(dram, "total_latency")?,
        },
    })
}

/// Parses a canonical result document back into the registry's
/// [`Evaluated`] form. Each workload must hold `NP` first, then other
/// schemes in [`Scheme::ALL`](mgx_core::Scheme::ALL) order
/// ([`Evaluated::check_order`]): what a
/// job whose scheme set includes `NP` stores. `figures --store` reloads
/// through this. A store file is input from outside the program, so the
/// order is checked here, in release builds too, before
/// [`Evaluated::new`] sees it.
pub fn evaluated_from_json(document: &str) -> Result<Vec<Evaluated>, String> {
    let v = Json::parse(document.trim_end())?;
    let salt = v.get("v").and_then(Json::as_str).ok_or("document needs a version tag")?;
    if salt != mgx_sim::job::DIGEST_SALT {
        return Err(format!(
            "version mismatch: stored `{salt}`, running `{}`",
            mgx_sim::job::DIGEST_SALT
        ));
    }
    let workloads =
        v.get("workloads").and_then(Json::as_arr).ok_or("document needs a `workloads` array")?;
    let mut out = Vec::with_capacity(workloads.len());
    for w in workloads {
        let name = w.get("workload").and_then(Json::as_str).ok_or("workload needs a name")?;
        let config = w.get("config").and_then(Json::as_str).unwrap_or("");
        let results =
            w.get("results").and_then(Json::as_arr).ok_or("workload needs a `results` array")?;
        let parsed = results.iter().map(run_result_from).collect::<Result<Vec<_>, _>>()?;
        Evaluated::check_order(&parsed).map_err(|e| format!("workload `{name}`: {e}"))?;
        out.push(Evaluated::new(name, config, parsed));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_core::Scheme;
    use mgx_sim::job::run_result_json;

    fn tiny_spec() -> JobSpec {
        JobSpec {
            suite: Suite::Video,
            scale: Scale { video_frames: 3, ..Scale::quick() },
            schemes: vec![],
            threads: 2,
            backend: DramBackend::ClosedForm,
        }
    }

    #[test]
    fn spec_wire_round_trips() {
        let spec = tiny_spec().canonicalize();
        let wire = spec_to_wire(&spec);
        let back = spec_from_wire(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.digest(), spec.digest());
    }

    #[test]
    fn presets_and_defaults_apply() {
        let v = Json::parse(r#"{"suite":"graph","scale":"standard"}"#).unwrap();
        let spec = spec_from_wire(&v).unwrap();
        assert_eq!(spec.scale, Scale::standard());
        assert_eq!(spec.schemes, Scheme::ALL.to_vec(), "absent schemes mean all");
        assert_eq!(spec.threads, 1);
        let v = Json::parse(r#"{"suite":"genome","scale":{"genome_reads":3}}"#).unwrap();
        let spec = spec_from_wire(&v).unwrap();
        assert_eq!(spec.scale.genome_reads, 3);
        assert_eq!(spec.scale.video_frames, Scale::quick().video_frames, "others default quick");
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for (src, needle) in [
            (r#"{"scale":"quick"}"#, "suite"),
            (r#"{"suite":"nope"}"#, "unknown suite"),
            (r#"{"suite":"video","schemes":["XX"]}"#, "unknown scheme"),
            (r#"{"suite":"video","scale":"slow"}"#, "preset"),
            (r#"{"suite":"video","scale":{"video_frames":0}}"#, "video_frames"),
            (r#"{"suite":"video","threads":-1}"#, "threads"),
            (r#"{"suite":"video","backned":"queued"}"#, "unknown spec field `backned`"),
            (
                r#"{"suite":"video","scale":{"video_framse":2}}"#,
                "unknown scale knob `video_framse`",
            ),
        ] {
            let err = spec_from_wire(&Json::parse(src).unwrap()).unwrap_err();
            assert!(err.contains(needle), "`{src}` → `{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn result_documents_reload_bit_exactly() {
        let spec = tiny_spec().canonicalize();
        let evals = spec.execute();
        let doc = spec.result_json(&evals);
        let back = evaluated_from_json(&doc).unwrap();
        assert_eq!(back.len(), evals.len());
        for (a, b) in back.iter().zip(&evals) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.config, b.config);
            for (x, y) in a.results.iter().zip(&b.results) {
                assert_eq!(x.scheme, y.scheme);
                assert_eq!(x.dram_cycles, y.dram_cycles);
                assert_eq!(x.exec_ns.to_bits(), y.exec_ns.to_bits(), "exec_ns is bit-exact");
                assert_eq!(x.traffic, y.traffic);
                assert_eq!(x.dram, y.dram);
            }
        }
        // And the reloaded sweep re-serializes to the identical document.
        assert_eq!(spec.result_json(&back), doc);
    }

    #[test]
    fn documents_without_np_do_not_reload() {
        let spec = JobSpec { schemes: vec![Scheme::Mgx], ..tiny_spec() }.canonicalize();
        let doc = spec.result_json(&spec.execute());
        let err = evaluated_from_json(&doc).unwrap_err();
        assert!(err.contains("NP first"), "{err}");
        // An [NP, MGX] document relabelled as [MGX, NP]: the baseline
        // is no longer first.
        let spec = JobSpec { schemes: vec![Scheme::NoProtection, Scheme::Mgx], ..tiny_spec() };
        let doc = spec.result_json(&spec.execute());
        let swapped = doc.replace("\"NP\"", "\"_\"").replace("\"MGX\"", "\"NP\"");
        let err = evaluated_from_json(&swapped.replace("\"_\"", "\"MGX\"")).unwrap_err();
        assert!(err.contains("NP first"), "{err}");
    }

    #[test]
    fn np_plus_a_subset_reloads_bit_exactly() {
        let spec = JobSpec { schemes: vec![Scheme::Mgx, Scheme::NoProtection], ..tiny_spec() }
            .canonicalize();
        let evals = spec.execute();
        let doc = spec.result_json(&evals);
        let back = evaluated_from_json(&doc).unwrap();
        assert_eq!(back.len(), evals.len());
        for (a, b) in back.iter().zip(&evals) {
            assert_eq!((&a.workload, &a.config), (&b.workload, &b.config));
            let schemes: Vec<Scheme> = a.results.iter().map(|r| r.scheme).collect();
            assert_eq!(schemes, [Scheme::NoProtection, Scheme::Mgx]);
            for (x, y) in a.results.iter().zip(&b.results) {
                assert_eq!(run_result_json(x), run_result_json(y), "every field, bit for bit");
            }
        }
        assert_eq!(spec.result_json(&back), doc);
    }

    #[test]
    fn stale_version_tags_are_refused() {
        let spec = tiny_spec().canonicalize();
        let doc = spec.result_json(&spec.execute());
        let stale = doc.replace(mgx_sim::job::DIGEST_SALT, "mgx-job/0.0.0-old");
        let err = evaluated_from_json(&stale).unwrap_err();
        assert!(err.contains("version mismatch"), "{err}");
    }
}
