//! Figure data structures and text rendering.

use crate::pipeline::RunResult;
use mgx_core::Scheme;

/// One measured point of a figure.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload (e.g. `"ResNet"`, `"PR-pokec"`, `"chr1PacBio"`).
    pub workload: String,
    /// Configuration (e.g. `"Cloud"`, `"Edge"`, `""`).
    pub config: String,
    /// Protection scheme.
    pub scheme: Scheme,
    /// Total traffic relative to no protection (`1.0` = no increase).
    pub traffic_increase: f64,
    /// Execution time relative to no protection.
    pub normalized_time: f64,
    /// MAC share of the metadata overhead (fraction of data traffic).
    pub mac_overhead: f64,
    /// VN+tree share of the metadata overhead.
    pub vn_overhead: f64,
}

impl Row {
    /// Run `r`, normalized to the no-protection run `np` of the same
    /// workload.
    pub(crate) fn normalized(
        workload: String,
        config: String,
        np: &RunResult,
        r: &RunResult,
    ) -> Row {
        Row {
            workload,
            config,
            scheme: r.scheme,
            traffic_increase: r.total_bytes() as f64 / np.total_bytes().max(1) as f64,
            normalized_time: r.dram_cycles as f64 / np.dram_cycles.max(1) as f64,
            mac_overhead: r.traffic.mac_overhead(),
            vn_overhead: r.traffic.vn_overhead(),
        }
    }
}

/// A regenerated table/figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier (`"fig3"`, `"fig12a"`, …).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Data rows.
    pub rows: Vec<Row>,
}

/// Minimal JSON string escaping shared by the `--json` renderers (here and
/// in `experiments`).
pub(crate) fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a figure as a JSON object (for downstream plotting without any
/// extra dependencies — the structure is flat and the only strings are
/// workload labels, escaped minimally).
pub fn render_json(fig: &Figure) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"id\":\"{}\",\"title\":\"{}\",\"rows\":[",
        esc(fig.id),
        esc(&fig.title)
    ));
    for (i, r) in fig.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"workload\":\"{}\",\"config\":\"{}\",\"scheme\":\"{}\",\
             \"traffic\":{:.6},\"time\":{:.6},\"mac_ov\":{:.6},\"vn_ov\":{:.6}}}",
            esc(&r.workload),
            esc(&r.config),
            r.scheme.label(),
            r.traffic_increase,
            r.normalized_time,
            r.mac_overhead,
            r.vn_overhead
        ));
    }
    out.push_str("]}");
    out
}

/// Renders a figure as an aligned text table (the harness's output format).
pub fn render(fig: &Figure) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {} — {}\n", fig.id, fig.title));
    out.push_str(&format!(
        "{:<22} {:<6} {:<8} {:>9} {:>10} {:>8} {:>8}\n",
        "workload", "config", "scheme", "traffic×", "exec-time×", "MAC-ov%", "VN-ov%"
    ));
    for r in &fig.rows {
        out.push_str(&format!(
            "{:<22} {:<6} {:<8} {:>9.3} {:>10.3} {:>8.1} {:>8.1}\n",
            r.workload,
            r.config,
            r.scheme.label(),
            r.traffic_increase,
            r.normalized_time,
            r.mac_overhead * 100.0,
            r.vn_overhead * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        Figure {
            id: "figX",
            title: "test".into(),
            rows: vec![
                Row {
                    workload: "a".into(),
                    config: "Cloud".into(),
                    scheme: Scheme::Baseline,
                    traffic_increase: 1.3,
                    normalized_time: 1.2,
                    mac_overhead: 0.12,
                    vn_overhead: 0.18,
                },
                Row {
                    workload: "b".into(),
                    config: "Cloud".into(),
                    scheme: Scheme::Baseline,
                    traffic_increase: 1.5,
                    normalized_time: 1.4,
                    mac_overhead: 0.2,
                    vn_overhead: 0.3,
                },
                Row {
                    workload: "a".into(),
                    config: "Cloud".into(),
                    scheme: Scheme::Mgx,
                    traffic_increase: 1.02,
                    normalized_time: 1.01,
                    mac_overhead: 0.02,
                    vn_overhead: 0.0,
                },
            ],
        }
    }

    #[test]
    fn render_json_is_well_formed() {
        let s = render_json(&fig());
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert_eq!(s.matches("\"workload\"").count(), 3);
        assert!(s.contains("\"scheme\":\"BP\""));
        // Balanced braces.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn render_contains_all_rows() {
        let s = render(&fig());
        assert!(s.contains("figX"));
        assert_eq!(s.lines().count(), 2 + 3);
        assert!(s.contains("MGX"));
    }
}
