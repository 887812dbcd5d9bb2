//! Paper-style tabular reporting, with an optional machine-readable sink.
//!
//! When the `BENCH_JSON` environment variable names a file, every header and
//! row is also appended there as one JSON object per line (JSON Lines), so
//! CI can archive `BENCH_*.json` artifacts and track the perf trajectory.

use std::io::Write;
use std::sync::{Mutex, OnceLock};

static CURRENT_EXPERIMENT: Mutex<String> = Mutex::new(String::new());

/// `BENCH_JSON` destination, read once per process. `None` when unset or
/// empty — the JSON path is skipped entirely in that (default) case.
fn json_path() -> Option<&'static str> {
    static PATH: OnceLock<Option<String>> = OnceLock::new();
    PATH.get_or_init(|| std::env::var("BENCH_JSON").ok().filter(|p| !p.is_empty()))
        .as_deref()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_append(path: &str, line: &str) {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path);
    match file {
        Ok(mut f) => {
            let _ = writeln!(f, "{line}");
        }
        Err(e) => eprintln!("report: cannot append to BENCH_JSON={path}: {e}"),
    }
}

/// Print a header like the paper's figures: experiment id + axis names.
pub fn header(experiment: &str, caption: &str) {
    println!();
    println!("== {experiment} — {caption} ==");
    *CURRENT_EXPERIMENT.lock().expect("report lock") = experiment.to_string();
    if let Some(path) = json_path() {
        json_append(
            path,
            &format!(
                r#"{{"type":"header","experiment":"{}","caption":"{}"}}"#,
                json_escape(experiment),
                json_escape(caption)
            ),
        );
    }
}

/// Print one aligned row of labelled values.
pub fn row(label: &str, cells: &[(&str, String)]) {
    let mut line = format!("{label:<28}");
    for (name, value) in cells {
        line.push_str(&format!("  {name}={value:<12}"));
    }
    println!("{}", line.trim_end());
    let Some(path) = json_path() else {
        return;
    };
    let experiment = CURRENT_EXPERIMENT.lock().expect("report lock").clone();
    // Cells live under their own object so a cell named "type"/"label"/…
    // can never collide with the metadata keys.
    let mut json = format!(
        r#"{{"type":"row","experiment":"{}","label":"{}","cells":{{"#,
        json_escape(&experiment),
        json_escape(label)
    );
    for (i, (name, value)) in cells.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            r#""{}":"{}""#,
            json_escape(name),
            json_escape(value)
        ));
    }
    json.push_str("}}");
    json_append(path, &json);
}

/// Format a throughput in the paper's unit (M txns/s).
pub fn mtxns(v: f64) -> String {
    format!("{:.4}", v / 1.0e6)
}

/// Format transactions per second.
pub fn tps(v: f64) -> String {
    format!("{v:.0}")
}

/// Format seconds.
pub fn secs(v: f64) -> String {
    format!("{v:.4}s")
}

/// Format seconds at full micro-scale precision. Scans over small tables
/// finish in microseconds; at [`secs`]'s four decimals they round to
/// `0.0000s`.
pub fn secs_fine(v: f64) -> String {
    format!("{v:.7}s")
}

/// Format a speedup factor.
pub fn speedup(a: f64, b: f64) -> String {
    if b > 0.0 {
        format!("{:.2}x", a / b)
    } else {
        "inf".into()
    }
}
