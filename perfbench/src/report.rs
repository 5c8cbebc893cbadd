//! What a run prints: its host and settings, every metric by name with
//! its unit, and — as the last line of standard output — one JSON
//! object with exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`.

use std::fmt::Write as _;

use crate::outcome::Outcome;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Attempted and failed operations.
    pub outcome: Outcome,
    /// The figures, in print order.
    pub metrics: Vec<Metric>,
    /// Settings recorded beside the figures (key, JSON value).
    pub settings: Vec<(String, String)>,
}

impl Report {
    /// Records a numeric setting.
    pub fn set_num(&mut self, key: &str, value: impl std::fmt::Display) {
        self.settings.push((key.to_string(), value.to_string()));
    }

    /// Records a string setting.
    pub fn set_str(&mut self, key: &str, value: &str) {
        self.settings.push((key.to_string(), json_str(value)));
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values cannot be encoded; they print as 0
/// and mark the run incorrect).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host facts every run records: core count, CPU model and the source
/// revision (`unknown` outside a git checkout).
pub fn host_settings(report: &mut Report) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.set_num("nproc", nproc);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    report.set_str("cpu", &cpu);
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    report.set_str("git_rev", &rev);
}

/// Prints the settings line, one line per metric, and the result
/// object last. Returns whether the run counts as correct: its gates
/// passed, it attempted something and every figure is finite.
pub fn print(report: &Report) -> bool {
    let mut settings = String::from("{");
    for (i, (k, v)) in report.settings.iter().enumerate() {
        if i > 0 {
            settings.push_str(", ");
        }
        let _ = write!(settings, "{}: {v}", json_str(k));
    }
    settings.push('}');
    println!("settings {settings}");
    for m in &report.metrics {
        println!("metric {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let classes: Vec<String> = report
        .outcome
        .classes
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "failed_frac {:.6} ({} of {} operations{}{})",
        report.outcome.failed_frac(),
        report.outcome.failed,
        report.outcome.attempted,
        if classes.is_empty() { "" } else { "; " },
        classes.join(", ")
    );
    let correct = report.correct
        && report.outcome.attempted > 0
        && report.metrics.iter().all(|m| m.value.is_finite());
    let mut metrics = String::from("{");
    for (i, m) in report.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    metrics.push('}');
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        correct, report.outcome.attempted, report.outcome.failed
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn rss_is_read_from_proc() {
        assert!(rss_peak_mb() > 0.0);
    }
}
