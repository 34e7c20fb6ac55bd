//! Output formatting: human-readable and JSON (hand-rolled — no serde).

use crate::rules::Violation;

/// Aggregate result of a lint run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// All findings, live and suppressed.
    pub findings: Vec<Violation>,
}

impl Report {
    /// Live (unallowed) violations.
    pub fn live(&self) -> impl Iterator<Item = &Violation> {
        self.findings.iter().filter(|v| v.is_live())
    }

    /// Suppressed findings.
    pub fn allowed(&self) -> impl Iterator<Item = &Violation> {
        self.findings.iter().filter(|v| !v.is_live())
    }

    /// Whether the run passes (no live violations).
    pub fn passed(&self) -> bool {
        self.live().next().is_none()
    }

    /// Human-readable rendering.
    pub fn render_human(&self) -> String {
        self.render_human_as("detlint")
    }

    /// Human-readable rendering with the summary line attributed to `tool`
    /// (the sanitizer reuses this report machinery for runtime findings;
    /// `files_scanned` then counts files with registered lock sites).
    pub fn render_human_as(&self, tool: &str) -> String {
        let mut out = String::new();
        for v in self.live() {
            out.push_str(&format!(
                "error[{}]: {}\n  --> {}:{}\n   | {}\n",
                v.rule, v.message, v.file, v.line, v.snippet
            ));
        }
        let n_allowed = self.allowed().count();
        if n_allowed > 0 {
            out.push_str(&format!("suppressed findings ({n_allowed}):\n"));
            for v in self.allowed() {
                out.push_str(&format!(
                    "  [{}] {}:{} — {}\n",
                    v.rule,
                    v.file,
                    v.line,
                    v.allow_reason.as_deref().unwrap_or("")
                ));
            }
        }
        let n_live = self.live().count();
        out.push_str(&format!(
            "{tool}: {} file(s) scanned, {} violation(s), {} suppressed — {}\n",
            self.files_scanned,
            n_live,
            n_allowed,
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// JSON rendering (stable field order, fully escaped).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"violations\": [");
        let live: Vec<&Violation> = self.live().collect();
        for (i, v) in live.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&violation_json(v));
        }
        if !live.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"allowed\": [");
        let allowed: Vec<&Violation> = self.allowed().collect();
        for (i, v) in allowed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&violation_json(v));
        }
        if !allowed.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"summary\": {{ \"violations\": {}, \"allowed\": {}, \"pass\": {} }}\n",
            live.len(),
            allowed.len(),
            self.passed()
        ));
        out.push_str("}\n");
        out
    }
}

fn violation_json(v: &Violation) -> String {
    let mut s = format!(
        "{{ \"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"snippet\": {}",
        json_str(&v.rule),
        json_str(&v.file),
        v.line,
        json_str(&v.message),
        json_str(&v.snippet)
    );
    if let Some(reason) = &v.allow_reason {
        s.push_str(&format!(", \"reason\": {}", json_str(reason)));
    }
    s.push_str(" }");
    s
}

/// Escape a string for JSON output.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            files_scanned: 2,
            findings: vec![
                Violation {
                    rule: "mutex-poison".into(),
                    file: "crates/x/src/lib.rs".into(),
                    line: 10,
                    message: "bad \"lock\"".into(),
                    snippet: "m.lock().unwrap();".into(),
                    allow_reason: None,
                },
                Violation {
                    rule: "nondet-clock".into(),
                    file: "crates/y/src/lib.rs".into(),
                    line: 3,
                    message: "clock".into(),
                    snippet: "Instant::now()".into(),
                    allow_reason: Some("timing only".into()),
                },
            ],
        }
    }

    #[test]
    fn human_output_mentions_rule_and_location() {
        let r = sample().render_human();
        assert!(r.contains("error[mutex-poison]"));
        assert!(r.contains("crates/x/src/lib.rs:10"));
        assert!(r.contains("FAIL"));
        assert!(r.contains("suppressed findings (1)"));
    }

    #[test]
    fn json_output_is_escaped_and_structured() {
        let j = sample().render_json();
        assert!(j.contains("\"violations\": ["));
        assert!(j.contains("\\\"lock\\\""), "quotes inside messages must be escaped");
        assert!(j.contains("\"reason\": \"timing only\""));
        assert!(j.contains("\"pass\": false"));
    }

    #[test]
    fn empty_report_passes() {
        let r = Report { files_scanned: 5, findings: vec![] };
        assert!(r.passed());
        assert!(r.render_human().contains("PASS"));
        assert!(r.render_json().contains("\"pass\": true"));
    }

    #[test]
    fn json_escapes_control_chars() {
        assert_eq!(json_str("a\tb\nc"), "\"a\\tb\\nc\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
