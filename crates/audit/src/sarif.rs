//! SARIF 2.1.0 export.
//!
//! Emits the audit report in the Static Analysis Results Interchange
//! Format so CI systems and editors can ingest findings natively. The
//! document carries one run: the tool descriptor lists every rule with
//! its `--explain` summary; each finding becomes a `result` with a
//! physical location.

use crate::explain;
use crate::rules::{Severity, Violation};
use crate::scan::Report;

/// Escapes a string for embedding in a JSON document.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn result_json(v: &Violation) -> String {
    let level = match v.severity {
        Severity::Deny => "error",
        Severity::Advice => "note",
    };
    format!(
        "{{\"ruleId\":\"{}\",\"level\":\"{level}\",\"message\":{{\"text\":\"{}\"}},\
         \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\",\
         \"uriBaseId\":\"SRCROOT\"}},\"region\":{{\"startLine\":{}}}}}}}]}}",
        esc(v.rule),
        esc(&v.message),
        esc(&v.file),
        v.line.max(1),
    )
}

/// Renders a [`Report`] as a SARIF 2.1.0 document.
pub fn render(report: &Report) -> String {
    let mut rules = Vec::new();
    for (code, summary, detail) in explain::RULES {
        rules.push(format!(
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}},\
             \"fullDescription\":{{\"text\":\"{}\"}}}}",
            esc(code),
            esc(summary),
            esc(detail)
        ));
    }
    let results: Vec<String> = report.violations.iter().map(result_json).collect();
    format!(
        "{{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
         Schemata/sarif-schema-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{{\"tool\":\
         {{\"driver\":{{\"name\":\"augur-audit\",\"informationUri\":\
         \"https://example.invalid/augur\",\"version\":\"0.2.0\",\"rules\":[{}]}}}},\
         \"results\":[{}],\"columnKind\":\"utf16CodeUnits\"}}]}}",
        rules.join(","),
        results.join(",")
    )
}
