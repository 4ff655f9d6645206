//! Profile exporters: collapsed/folded stacks and speedscope JSON.
//!
//! Both renderings are pure functions of the folded profile (ordered
//! maps underneath), so two same-seed runs under
//! [`augur_telemetry::ManualTime`] produce byte-identical artifacts —
//! the property CI pins by diffing two `tourism_city --artifacts`
//! bundles.

use augur_telemetry::escape_json;

use super::Profile;

impl Profile {
    /// Renders the collapsed-stack ("folded") format `flamegraph.pl`
    /// and inferno consume: one `path<space>self_us` line per stack
    /// path with nonzero self time, in path order, trailing newline.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for row in self.top_down() {
            if row.self_us > 0 {
                out.push_str(&row.path);
                out.push(' ');
                out.push_str(&row.self_us.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Renders the profile as a speedscope JSON document
    /// (`"sampled"` profile type, microsecond unit): one sample per
    /// stack path with nonzero self time, weighted by self time.
    /// Open at <https://www.speedscope.app> or with `speedscope <file>`.
    pub fn render_speedscope(&self, name: &str) -> String {
        let rows: Vec<_> = self
            .top_down()
            .into_iter()
            .filter(|r| r.self_us > 0)
            .collect();
        // Frame table: deduped names in first-appearance order over the
        // path-ordered rows.
        let mut frames: Vec<&str> = Vec::new();
        let mut samples: Vec<Vec<usize>> = Vec::new();
        let mut weights: Vec<u64> = Vec::new();
        for row in &rows {
            let mut stack = Vec::new();
            for frame in row.path.split(';') {
                let idx = match frames.iter().position(|f| *f == frame) {
                    Some(i) => i,
                    None => {
                        frames.push(frame);
                        frames.len() - 1
                    }
                };
                stack.push(idx);
            }
            samples.push(stack);
            weights.push(row.self_us);
        }
        let total: u64 = weights.iter().sum();
        let mut out =
            String::from("{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",");
        out.push_str("\"shared\":{\"frames\":[");
        for (i, f) in frames.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            out.push_str(&escape_json(f));
            out.push_str("\"}");
        }
        out.push_str("]},\"profiles\":[{\"type\":\"sampled\",\"name\":\"");
        out.push_str(&escape_json(name));
        out.push_str("\",\"unit\":\"microseconds\",\"startValue\":0,\"endValue\":");
        out.push_str(&total.to_string());
        out.push_str(",\"samples\":[");
        for (i, stack) in samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, idx) in stack.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&idx.to_string());
            }
            out.push(']');
        }
        out.push_str("],\"weights\":[");
        for (i, w) in weights.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&w.to_string());
        }
        out.push_str("]}],\"exporter\":\"augur-profile\",\"name\":\"");
        out.push_str(&escape_json(name));
        out.push_str("\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_telemetry::{FlightRecorder, TraceContext};

    fn sample_profile() -> Profile {
        let rec = FlightRecorder::new(64);
        let root = TraceContext::root(9, 1);
        let run = rec.intern("run");
        let stage = rec.intern("stage");
        rec.record_span(root.child_named("stage"), stage, 0, 30);
        rec.record_span(root, run, 0, 100);
        Profile::from_events(&rec.drain())
    }

    #[test]
    fn folded_format_matches_flamegraph_pl_input() {
        assert_eq!(sample_profile().render_folded(), "run 70\nrun;stage 30\n");
    }

    #[test]
    fn speedscope_document_parses_and_balances() {
        let doc = sample_profile().render_speedscope("unit");
        // Structural checks without a JSON parser dependency.
        assert!(doc.starts_with("{\"$schema\":\"https://www.speedscope.app/"));
        assert!(doc.contains("\"frames\":[{\"name\":\"run\"},{\"name\":\"stage\"}]"));
        assert!(doc.contains("\"samples\":[[0],[0,1]]"));
        assert!(doc.contains("\"weights\":[70,30]"));
        assert!(doc.contains("\"endValue\":100"));
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn empty_profile_renders_empty_artifacts() {
        let profile = Profile::from_events(&[]);
        assert!(profile.render_folded().is_empty());
        assert!(profile
            .render_speedscope("empty")
            .contains("\"samples\":[]"));
    }
}
