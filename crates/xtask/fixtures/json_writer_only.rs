//! Seeded violations for the `json-writer-only` rule: JSON is built
//! with `pcnn_runtime::json`, never spelled inside a `format!` /
//! `write!` / `writeln!` / `push_str` string literal. Literals outside
//! such calls, Prometheus label sets, and test regions are exempt.
//!
//! Fixture only — never compiled; `cargo xtask lint --fixtures` checks
//! that the findings match the `//~ ERROR` markers exactly.

use std::fmt::Write as _;

fn hand_rolled_object(calls: u64, label: &str) -> String {
    format!("{{\"calls\":{calls},\"label\":\"{label}\"}}") //~ ERROR json-writer-only
}

fn hand_rolled_across_lines(calls: u64, images: u64) -> String {
    format!(
        concat!(
            "{{\"calls\":{},", //~ ERROR json-writer-only
            "\"images\":{}}}" //~ ERROR json-writer-only
        ),
        calls,
        images,
    )
}

fn hand_rolled_member(out: &mut String, key: &str, value: u64) {
    out.push_str("\"total\":"); //~ ERROR json-writer-only
    let _ = write!(out, "{value},\"{key}\":0"); //~ ERROR json-writer-only
}

// Prometheus exposition lines carry escaped quotes and braces too, but
// neither an object opener nor a quoted key:
fn prometheus_sample(out: &mut String, shard: usize, value: u64) {
    let _ = writeln!(out, "pcnn_requests_total{{shard=\"{shard}\"}} {value}");
}

// Reading JSON back — a probe, not an emitter — is fine anywhere:
fn carries_the_key(json: &str) -> bool {
    json.contains("\"calls\":3") && json.starts_with("{\"")
}

#[cfg(test)]
mod tests {
    // Tests may assemble expected documents by hand.
    fn expected(calls: u64) -> String {
        format!("{{\"calls\":{calls}}}")
    }
}
