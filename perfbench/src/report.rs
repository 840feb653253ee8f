//! The result of one run and its JSON rendering.

use crate::Args;

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests failed, refused or answered wrongly.
    pub failed: usize,
    /// Every check of the run passed.
    pub correct: bool,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Run metadata and auxiliary figures, values already JSON.
    pub meta: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a numeric metadata entry.
    pub fn meta_num(&mut self, key: &str, value: f64) {
        self.meta.push((key.to_string(), num(value)));
    }

    /// Adds a string metadata entry.
    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta
            .push((key.to_string(), format!("\"{}\"", escape(value))));
    }

    /// Prints the metadata line, then the result line.
    pub fn print(&self, args: &Args) {
        let mut meta = vec![
            (
                "workload".to_string(),
                format!("\"{}\"", escape(&args.workload)),
            ),
            ("seed".to_string(), args.seed.to_string()),
            ("seconds".to_string(), num(args.seconds)),
            ("trace".to_string(), u8::from(args.trace).to_string()),
        ];
        meta.extend(self.meta.iter().cloned());
        let meta: Vec<String> = meta.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        println!("perfbench-meta {{{}}}", meta.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with every digit (`null` for NaN/inf).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
