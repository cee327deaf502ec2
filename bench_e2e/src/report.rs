//! Result collection: metrics with units, output checks, notes, host
//! facts, and the final JSON line.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::trace::{Span, Tracer};
use crate::Workload;

pub struct Report {
    workload: Workload,
    seed: u64,
    trace: bool,
    metrics: Vec<(String, f64, &'static str)>,
    checks: Vec<(String, bool, String)>,
    notes: Vec<String>,
    spans: Vec<Span>,
    /// Operations attempted / failed (requests, training calls, checks).
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(workload: Workload, seed: u64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            trace,
            metrics: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
            spans: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, note: impl Into<String>) {
        let note = note.into();
        eprintln!("note: {note}");
        self.notes.push(note);
    }

    /// Record one output check; a failed check is a failed operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {name}: {detail}");
        }
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn attach_spans(&mut self, tracer: &Tracer) {
        self.spans = tracer.snapshot();
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    /// Print every metric, write the detailed result file, print the JSON
    /// line last, and pick the exit code.
    pub fn finish(self) -> ExitCode {
        let correct = self.correct();
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let mut metrics_json = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics_json.push_str(", ");
            }
            let _ = write!(
                metrics_json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                esc(name),
                num(*value),
                esc(unit)
            );
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        match self.write_details(&line) {
            Ok(path) => eprintln!("details: {}", path.display()),
            Err(e) => eprintln!("warning: could not write the result file: {e}"),
        }
        println!("{line}");
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    fn write_details(&self, line: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        ));
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"workload\": \"{}\",", self.workload.name());
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"trace\": {},", self.trace);
        let _ = writeln!(s, "  \"host_cores\": {},", host_cores());
        let _ = writeln!(
            s,
            "  \"simd_level\": \"{:?}\",",
            aimts_tensor::simd::active_level()
        );
        let _ = writeln!(s, "  \"commit\": \"{}\",", esc(&commit()));
        let _ = writeln!(s, "  \"result\": {line},");
        let _ = writeln!(s, "  \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            let sep = if i + 1 < self.notes.len() { "," } else { "" };
            let _ = writeln!(s, "    \"{}\"{sep}", esc(n));
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"checks\": [");
        for (i, (name, ok, detail)) in self.checks.iter().enumerate() {
            let sep = if i + 1 < self.checks.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"check\": \"{}\", \"ok\": {ok}, \"detail\": \"{}\"}}{sep}",
                esc(name),
                esc(detail)
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(
            s,
            "  \"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request_id\"],"
        );
        let _ = writeln!(s, "  \"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "    [\"{}\", {}, {}, {parent}, {}]{sep}",
                sp.name, sp.start_ns, sp.end_ns, sp.req
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        std::fs::write(&path, s)?;
        Ok(path)
    }
}

/// Where result files and scratch bundles go: `bench_e2e/results/`.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test: `git rev-parse` confined to the benchmark's
/// checkout, else "unknown".
fn commit() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let ceiling = root.join("..");
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A JSON number with all its digits (non-finite values become null).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
