//! What a run found, and how it is printed: a table for people, then
//! one JSON line for machines as the last line of stdout.

/// The end-to-end metrics every workload reports with `--trace 0`, in
/// the order `BENCHMARK.json` lists them. `read_p99_us`, `write_p50_us`
/// and `write_p99_us` are measured and printed but left out: on a shared
/// machine their run-to-run spread exceeds any bound the benchmark may
/// set (see README.md).
pub const END_TO_END: &[&str] = &[
    "throughput_rps",
    "read_p50_us",
    "denied_p50_us",
    "setup_s",
    "peak_rss_mb",
];

/// The per-layer metrics every workload's traced run puts in its JSON
/// line. The rest of a workload's layer metrics go to the table only;
/// see the README for why.
pub const PER_LAYER: &[&str] = &[
    "core.gate_write_ns",
    "core.labels_per_1k_requests",
    "core.union_cache_entries",
    "apps.replay_coverage",
    "trace.overhead_ratio",
];

/// Below this share of the app span explained by the layer probes, the
/// summary says the split is incomplete.
pub const LOW_COVERAGE: f64 = 0.6;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The end-to-end metric and workload this one should move.
    pub target: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle breaches that fail the whole run: an unescaped payload, a
    /// refusal answered 200, a lost acknowledged write.
    pub fatal: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.put_for(name, unit, value, "");
    }

    pub fn put_for(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        target: &'static str,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            target,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn fatal(&mut self, why: String) {
        // The first few say what broke; thousands more add nothing.
        if self.fatal.len() < 20 {
            self.fatal.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.fatal.is_empty()
    }

    /// The human-readable table.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!("== {workload}\n");
        for m in &self.metrics {
            let target = if m.target.is_empty() {
                String::new()
            } else {
                format!("  -> {}", m.target)
            };
            out.push_str(&format!(
                "  {:<34} {:>14.4} {:<6}{target}\n",
                m.name, m.value, m.unit
            ));
        }
        out.push_str(&format!(
            "  {:<34} {:>14} {:<6}\n  {:<34} {:>14} {:<6}\n",
            "attempted", self.attempted, "req", "failed", self.failed, "req"
        ));
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        for f in &self.fatal {
            out.push_str(&format!("  ORACLE FAILURE: {f}\n"));
        }
        out
    }

    /// The result line: `names` picks and orders the metrics.
    pub fn json(&self, names: &[&str]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|&n| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == n)
                    .unwrap_or_else(|| panic!("workload did not measure {n}"));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    n,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.put("a_us", "us", 1.5);
        r.put("b", "count", 3.0);
        assert_eq!(
            r.json(&["b", "a_us"]),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"b\": {\"value\": 3.0, \"unit\": \"count\"}, \"a_us\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
        r.fatal("x".into());
        assert!(r.json(&[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn benchmark_json_names_what_the_runs_report() {
        let spec = include_str!("../../BENCHMARK.json");
        let named = |n: &str| spec.contains(&format!("\"name\": \"{n}\""));
        assert!(END_TO_END.iter().chain(PER_LAYER).all(|n| named(n)));
        // forum_write runs on demand but is not gated: see README.md.
        let gated = ["forum_read", "rsl_wiki"];
        assert!(gated
            .iter()
            .all(|w| named(w) && crate::WORKLOADS.contains(w)));
        let entries = spec.matches("\"name\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + gated.len());
    }
}
