//! The result line: every metric by name and unit, plus the outcome
//! counts. Printed as one JSON object on the last line of stdout.

use std::fmt::Write;

#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted and failed (errored, shed or wrong).
    pub attempted: u64,
    pub failed: u64,
    /// Descriptive context printed before the result line.
    info: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    pub fn add_outcomes(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Keep only the named metrics, in that order. A name with no
    /// measurement, or one whose value is not a number (no samples), is
    /// an error: the caller then prints no result.
    pub fn select(&self, names: &[&str]) -> Result<Vec<(String, f64, &'static str)>, String> {
        names
            .iter()
            .map(|n| match self.metrics.iter().find(|(m, _, _)| m == n) {
                Some(m) if m.1.is_finite() => Ok(m.clone()),
                Some(_) => Err(format!("metric {n} has no samples")),
                None => Err(format!("metric {n} was not measured")),
            })
            .collect()
    }

    pub fn all_metrics(&self) -> &[(String, f64, &'static str)] {
        &self.metrics
    }

    /// The human-readable lines that precede the result line.
    pub fn info_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.info {
            let _ = writeln!(out, "# {k}: {v}");
        }
        out
    }

    pub fn result_line(&self, metrics: &[(String, f64, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
