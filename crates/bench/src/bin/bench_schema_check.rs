//! Validates a bench report against its schema, dispatching on the
//! report's `schema` string: `tim-bench-fanin/1` (`BENCH_6.json`, the
//! `c10k_fanin` bin) is the one schema.
//!
//! ```text
//! cargo run -p tim_bench --bin bench_schema_check -- <report.json>
//! ```
//!
//! CI runs this on the quick-mode artifacts and on every checked-in
//! `BENCH_*.json`, so a refactor that silently breaks a report shape (or
//! a run whose transcripts diverged) fails the build instead of
//! producing an unreadable trajectory point.

use tim_bench::json::{parse, Value};

fn fail(msg: &str) -> ! {
    eprintln!("bench_schema_check: {msg}");
    std::process::exit(1);
}

fn require_f64(mode: &Value, key: &str, what: &str) -> f64 {
    mode.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| fail(&format!("{what}: missing numeric '{key}'")))
}

fn check_mode(mode: &Value, name: &str) {
    let what = format!("mode '{name}'");
    for key in ["threads", "sessions", "max_in_flight"] {
        let v = require_f64(mode, key, &what);
        if v < 1.0 || v.fract() != 0.0 {
            fail(&format!(
                "{what}: '{key}' must be a positive integer, got {v}"
            ));
        }
    }
    for key in ["wall_ms", "sessions_per_sec"] {
        if require_f64(mode, key, &what) <= 0.0 {
            fail(&format!("{what}: '{key}' must be positive"));
        }
    }
    let p50 = require_f64(mode, "p50_ms", &what);
    let p99 = require_f64(mode, "p99_ms", &what);
    if p50 < 0.0 || p99 < p50 {
        fail(&format!(
            "{what}: need 0 <= p50_ms <= p99_ms, got {p50}/{p99}"
        ));
    }
    // First-byte percentiles must be ordered and cannot exceed the
    // matching session-lifetime numbers.
    let fb50 = require_f64(mode, "first_byte_p50_ms", &what);
    let fb99 = require_f64(mode, "first_byte_p99_ms", &what);
    if fb50 < 0.0 || fb99 < fb50 {
        fail(&format!(
            "{what}: need 0 <= first_byte_p50_ms <= first_byte_p99_ms, got {fb50}/{fb99}"
        ));
    }
    if fb50 > p50 || fb99 > p99 {
        fail(&format!(
            "{what}: first-byte percentiles exceed session-lifetime percentiles \
             ({fb50}/{fb99} vs {p50}/{p99})"
        ));
    }
    if mode.get("transcripts_ok").and_then(Value::as_bool) != Some(true) {
        fail(&format!(
            "{what}: transcripts_ok must be true — the run diverged"
        ));
    }
}

/// `tim-bench-fanin/…`: the c10k fan-in report shape. The report names
/// the host it ran on, and both cores ran at the same in-flight cap, so
/// their latencies compare.
fn check_fanin(doc: &Value, path: &str, schema: &str) {
    if doc
        .get("host")
        .and_then(Value::as_str)
        .is_none_or(str::is_empty)
    {
        fail("missing 'host' string: name the machine the numbers came from");
    }
    let modes = doc
        .get("modes")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| fail("missing 'modes' array"));
    if modes.is_empty() {
        fail("'modes' is empty");
    }
    let mut caps = Vec::new();
    for want in ["event_loop", "thread_pool"] {
        let Some(mode) = modes
            .iter()
            .find(|m| m.get("mode").and_then(Value::as_str) == Some(want))
        else {
            fail(&format!("missing required mode '{want}'"));
        };
        check_mode(mode, want);
        caps.push(require_f64(mode, "max_in_flight", want));
    }
    if caps[0] != caps[1] {
        fail(&format!(
            "the modes ran at different in-flight caps ({} vs {}): their latencies do not compare",
            caps[0], caps[1]
        ));
    }
    println!("{path}: ok ({schema}, {} modes)", modes.len());
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| fail("usage: bench_schema_check <report.json>"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc = parse(&text).unwrap_or_else(|e| fail(&format!("{path}: not valid JSON: {e}")));

    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .unwrap_or_else(|| fail("missing 'schema' string"))
        .to_string();
    if schema.starts_with("tim-bench-fanin/") {
        check_fanin(&doc, &path, &schema);
    } else {
        fail(&format!("unknown schema '{schema}'"));
    }
}
