//! The benchmark of this repository: four workloads, five bounded
//! end-to-end metrics, and a per-layer budget timed from outside.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke] [--check-repeat]
//! ```
//!
//! One process per workload, so `peak_rss_mb` is per workload. The last
//! line of standard output is the result object; everything before it is
//! the human-readable report. See `README.md` beside `Cargo.toml`.

mod alloc;
mod fixtures;
mod json;
mod probes;
mod report;
mod schedule;
mod spans;
mod stats;
mod workloads;

use json::Json;
use report::{Better, Header, END_TO_END, PER_LAYER, SPAN_LAYERS};
use spans::{self_times, SelfTimes};
use stats::{median, percentile, relative_diff, Windows};
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{RunPlan, Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Windows of an untraced run: 0.5 s each at the default 20 s. A
/// contract that caps total time lower shrinks the window length, never
/// the count.
const WINDOWS: usize = 40;
/// Windows of a traced run, alternating untraced and traced so tracing
/// overhead is read inside one process and drift hits both alike.
const TRACE_WINDOWS: usize = 32;
/// Cold starts behind `setup_s`; the median is reported.
const COLD_STARTS: usize = 7;
/// Seconds a `--smoke` run measures: a tenth of the default, so 0.05-s
/// windows (the issue's 0.2 s, cut by the same factor as the window).
const SMOKE_SECONDS: u64 = 2;
/// A traced run spends `seconds / PROBE_SHARE` on each layer probe.
const PROBE_SHARE: u32 = 80;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload <{}|all> --seed <u64> [--seconds <1..=60>] \
         [--trace [0|1]] [--smoke] [--check-repeat]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
        check_repeat: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = value(&mut i, "--workload")?,
            "--seed" => {
                args.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                args.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| "--seconds takes a whole number from 1 to 60".to_string())?;
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if args.smoke {
        args.seconds = SMOKE_SECONDS;
    }
    if args.check_repeat {
        if args.smoke {
            return Err("--check-repeat refuses --smoke: 0.2-s windows set no bounds".to_string());
        }
        args.workload = "all".to_string();
    }
    if args.workload != "all" && workloads::find(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a single-workload run hands back: the contract's result object
/// plus the detail written beside it.
struct Outcome {
    result: Json,
    detail: Vec<(&'static str, Json)>,
    report: Vec<String>,
    spans: Vec<spans::Span>,
}

fn window_json(ws: &Windows) -> Json {
    Json::Arr(
        ws.per_window()
            .into_iter()
            .map(|w| match w {
                None => Json::Null,
                Some((rate, p50_ms, samples)) => Json::obj(vec![
                    ("rate", Json::Num(rate)),
                    ("p50_ms", Json::Num(p50_ms)),
                    ("samples", Json::Num(samples as f64)),
                ]),
            })
            .collect(),
    )
}

/// Window length and count for `total_ns` of measurement aimed at
/// `target` windows. The open loop rounds the length to whole schedule
/// blocks and fits as many windows as the time allows.
fn window_plan(w: &Workload, total_ns: u64, target: usize) -> (u64, usize) {
    let aim = total_ns / target as u64;
    if !w.open_loop {
        return (aim, target);
    }
    let block = workloads::serving::open_block_ns();
    let window_ns = ((aim + block / 2) / block).max(1) * block;
    (window_ns, (total_ns / window_ns).max(1) as usize)
}

/// The untraced run: cold starts, warm-up, the windows, the end-to-end
/// metrics.
fn run_untraced(
    w: &Workload,
    seed: u64,
    (window_ns, windows): (u64, usize),
    cold_starts: usize,
) -> Outcome {
    let mut report = Vec::new();
    let mut setup_s = Vec::with_capacity(cold_starts);
    let mut setup_error = None;
    for _ in 0..cold_starts {
        let t = Instant::now();
        if let Err(e) = (w.cold_start)(seed) {
            setup_error.get_or_insert(e);
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let plan = RunPlan {
        window_ns,
        traced: vec![false; windows],
        probe_budget: Duration::ZERO,
    };
    let out = (w.run)(seed, &plan);
    let run = out.samples.quiet(|_| true);
    let (rate, p50, p90, support) = run.map_or((0.0, 0.0, 0.0, 0), |r| {
        (r.rate, r.p50_ms, r.p90_ms, r.samples)
    });
    let latencies = out.samples.all_latencies_ms();
    let values = [median(&setup_s), rate, p50, p90, peak_rss_mb()];

    let correct = out.failed == 0 && setup_error.is_none() && run.is_some() && out.attempted > 0;
    report.push(format!(
        "{:<20} {:>16} {:<6} {:<7} {}",
        "end-to-end metric", "value", "unit", "better", "bound"
    ));
    for (m, v) in END_TO_END.iter().zip(values) {
        report.push(format!(
            "{:<20} {:>16.6} {:<6} {:<7} {}",
            m.name,
            v,
            m.unit,
            m.better.label(),
            m.bound
        ));
    }
    report.push(format!(
        "samples: {} latency samples, {} operations attempted, {} failed (failed_share {}); \
         throughput, p50 and p90 from the {support} samples pooled from the quietest tenth \
         of {windows} windows of {} s",
        latencies.len(),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        window_ns as f64 / 1e9
    ));
    if !latencies.is_empty() {
        report.push(format!(
            "whole run, for contrast: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
            percentile(&latencies, 0.5),
            percentile(&latencies, 0.9),
            percentile(&latencies, 0.99)
        ));
    }
    if let Some(t) = out.samples.typical(|_| true) {
        report.push(format!(
            "median over all windows, for contrast: {:.3} ops/s, p50 {:.3} ms, p90 {:.3} ms",
            t.rate, t.p50_ms, t.p90_ms
        ));
    }
    report.push(format!("cold starts (s): {setup_s:?}"));
    if let Some(e) = &setup_error {
        report.push(format!("SETUP FAILED: {e}"));
    }
    report.extend(out.notes.iter().cloned());

    let metrics: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name.to_string(), v, m.unit))
        .collect();
    Outcome {
        result: report::result_json(correct, out.attempted.max(1), out.failed, &metrics),
        detail: vec![
            ("windows", window_json(&out.samples)),
            (
                "cold_starts_s",
                Json::Arr(setup_s.iter().map(|s| Json::Num(*s)).collect()),
            ),
            (
                "notes",
                Json::Arr(out.notes.iter().map(|n| Json::str(n)).collect()),
            ),
        ],
        report,
        spans: Vec::new(),
    }
}

fn self_time_rows(title: &str, st: &SelfTimes, report: &mut Vec<String>) {
    report.push(format!(
        "{title}: {} root spans, {:.3} ms of root time, self times sum to {:.3} ms (closure error {:.4} %)",
        st.roots,
        st.root_ns as f64 / 1e6,
        st.self_ns as f64 / 1e6,
        st.closure_err_pct()
    ));
    for (name, t) in &st.by_name {
        report.push(format!(
            "  {:<28} count {:>8}  total {:>12.3} ms  self {:>12.3} ms",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
}

/// The traced run: warm-up, alternating untraced/traced windows for the
/// spans and the tracing overhead, then the layer probes.
fn run_traced(
    w: &Workload,
    seed: u64,
    (window_ns, windows): (u64, usize),
    probe_budget: Duration,
) -> Outcome {
    let mut report = Vec::new();
    let plan = RunPlan {
        window_ns,
        traced: (0..windows).map(|i| i % 2 == 1).collect(),
        probe_budget,
    };
    let mut out = (w.run)(seed, &plan);
    let untraced = out.samples.quiet(|i| i % 2 == 0);
    let traced = out.samples.quiet(|i| i % 2 == 1);
    let typical = out.samples.typical(|i| i % 2 == 0);
    let overhead_pct = match (untraced, traced) {
        (Some(u), Some(t)) if w.open_loop && u.p50_ms > 0.0 => {
            (t.p50_ms - u.p50_ms) / u.p50_ms * 100.0
        }
        (Some(u), Some(t)) if u.rate > 0.0 => (u.rate - t.rate) / u.rate * 100.0,
        _ => 0.0,
    };
    let st = self_times(&mut out.spans);

    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let mut probe_error = None;
    let mut walk_spans = Vec::new();
    match probes::run_all(seed, probe_budget) {
        Ok(p) => {
            values.extend(p.metrics);
            walk_spans = p.walk_spans;
        }
        Err(e) => probe_error = Some(e),
    }
    values.append(&mut out.layer);
    for (layer, metric) in SPAN_LAYERS {
        values.push((metric, st.layer_self_ms_per_op(layer)));
    }
    values.extend([
        ("bench.trace_overhead_pct", overhead_pct),
        ("bench.span_closure_err_pct", st.closure_err_pct()),
        ("bench.traced_ops", st.roots as f64),
        (
            "bench.quiet_pool_samples",
            untraced.map_or(0.0, |u| u.samples as f64),
        ),
        (
            "bench.quiet_throughput_ops_s",
            untraced.map_or(0.0, |u| u.rate),
        ),
        (
            "bench.quiet_latency_p50_ms",
            untraced.map_or(0.0, |u| u.p50_ms),
        ),
        (
            "bench.typical_throughput_ops_s",
            typical.map_or(0.0, |t| t.rate),
        ),
        (
            "bench.typical_latency_p50_ms",
            typical.map_or(0.0, |t| t.p50_ms),
        ),
        (
            "bench.typical_latency_p90_ms",
            typical.map_or(0.0, |t| t.p90_ms),
        ),
        (
            "failed_share",
            out.failed as f64 / out.attempted.max(1) as f64,
        ),
    ]);

    // Every per-layer metric is printed on every workload; `serve.*` on
    // a workload with no server reads 0.
    let metrics: Vec<(String, f64, &str)> = PER_LAYER
        .iter()
        .map(|m| {
            let v = values.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
            assert!(
                v.is_some() || m.name.starts_with("serve.") || probe_error.is_some(),
                "per-layer metric {} was not measured",
                m.name
            );
            (m.name.to_string(), v.unwrap_or(0.0), m.unit)
        })
        .collect();

    let correct = out.failed == 0
        && probe_error.is_none()
        && out.attempted > 0
        && untraced.is_some()
        && traced.is_some();
    report.push(format!(
        "{:<34} {:>18} {:<9} {:<7} {}",
        "per-layer metric", "value", "unit", "better", "exact"
    ));
    for (m, (_, v, _)) in PER_LAYER.iter().zip(&metrics) {
        report.push(format!(
            "{:<34} {:>18.6} {:<9} {:<7} {}",
            m.name,
            v,
            m.unit,
            m.better.label(),
            if m.exact { "exact" } else { "" }
        ));
    }
    self_time_rows("workload spans", &st, &mut report);
    let walk = self_times(&mut walk_spans);
    self_time_rows("op-walk probe spans", &walk, &mut report);
    if let Some(e) = &probe_error {
        report.push(format!("PROBES FAILED: {e}"));
    }
    if overhead_pct >= 5.0 {
        report.push(format!(
            "WARNING: tracing overhead {overhead_pct:.2} % >= 5 %: distrust the per-layer numbers"
        ));
    }
    report.extend(out.notes.iter().cloned());

    let self_json = |st: &SelfTimes| {
        Json::Obj(
            st.by_name
                .iter()
                .map(|(name, t)| {
                    (
                        name.to_string(),
                        Json::obj(vec![
                            ("count", Json::Num(t.count as f64)),
                            ("total_ms", Json::Num(t.total_ns as f64 / 1e6)),
                            ("self_ms", Json::Num(t.self_ns as f64 / 1e6)),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let mut spans = out.spans;
    spans.append(&mut walk_spans);
    Outcome {
        result: report::result_json(correct, out.attempted.max(1), out.failed, &metrics),
        detail: vec![
            ("windows", window_json(&out.samples)),
            ("self_times", self_json(&st)),
            ("op_walk_self_times", self_json(&walk)),
            (
                "notes",
                Json::Arr(out.notes.iter().map(|n| Json::str(n)).collect()),
            ),
        ],
        report,
        spans,
    }
}

/// Runs one workload in this process, prints its report, writes its
/// files, and prints the result object as the last line.
fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let total_ns = args.seconds * 1_000_000_000;
    let plan = if args.trace {
        window_plan(
            w,
            total_ns / WINDOWS as u64 * TRACE_WINDOWS as u64,
            TRACE_WINDOWS,
        )
    } else {
        window_plan(w, total_ns, WINDOWS)
    };
    let header = Header::collect(
        w.name,
        args.seed,
        plan.0 as f64 / 1e9,
        plan.1,
        args.trace,
        args.smoke,
    );
    println!("{}", header.banner());
    println!("# why: {}", w.why);
    let outcome = if args.trace {
        let budget = Duration::from_secs(args.seconds) / PROBE_SHARE;
        run_traced(w, args.seed, plan, budget)
    } else {
        run_untraced(w, args.seed, plan, COLD_STARTS)
    };
    for line in &outcome.report {
        println!("{line}");
    }

    let dir = report::output_dir(args.smoke);
    let stem = if args.trace {
        format!("{}.trace", w.name)
    } else {
        w.name.to_string()
    };
    let mut doc = vec![
        ("header", header.to_json()),
        ("result", outcome.result.clone()),
    ];
    doc.extend(outcome.detail);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), Json::obj(doc).render()))
        .and_then(|()| {
            if args.trace {
                spans::write_jsonl(&dir.join(format!("{stem}.jsonl")), &outcome.spans)
            } else {
                Ok(())
            }
        });
    match written {
        Ok(()) => println!("wrote {}", dir.join(format!("{stem}.json")).display()),
        Err(e) => println!("could not write results under {}: {e}", dir.display()),
    }
    println!("{}", outcome.result.render());
    ExitCode::SUCCESS
}

/// Runs one workload as a child process of this executable and returns
/// its result object. The child's report passes through.
fn run_child(w: &Workload, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("{}: cannot run the child: {e}", w.name))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    if !output.status.success() {
        return Err(format!("{}: child exited with {}", w.name, output.status));
    }
    let last = text.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result
        .get("metrics")?
        .get(name)?
        .get("value")
        .and_then(Json::as_f64)
}

/// `--workload all`: the four workloads in sequence, one child each,
/// then one combined result object keyed `<workload>.<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let mut combined: Vec<(String, Json)> = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    for w in &WORKLOADS {
        match run_child(w, args, args.trace) {
            Ok(result) => {
                correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
                attempted += result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                if let Some(metrics) = result.get("metrics").and_then(Json::as_obj) {
                    for (name, v) in metrics {
                        combined.push((format!("{}.{name}", w.name), v.clone()));
                    }
                }
            }
            Err(e) => {
                println!("{e}");
                correct = false;
            }
        }
    }
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("metrics", Json::Obj(combined)),
        ])
        .render()
    );
    ExitCode::SUCCESS
}

/// `--check-repeat`: every workload twice untraced and twice traced on
/// one seed. End-to-end metrics must agree within their bounds; exact
/// per-layer metrics must be bit-equal. Exits non-zero on a breach.
fn check_repeat(args: &Args) -> ExitCode {
    let mut rows = Vec::new();
    let mut breaches = 0usize;
    let mut note = |rows: &mut Vec<String>, ok: bool, line: String| {
        if !ok {
            breaches += 1;
        }
        rows.push(format!("{} {line}", if ok { "ok    " } else { "BREACH" }));
    };
    for w in &WORKLOADS {
        let pair = |trace: bool| -> Option<(Json, Json)> {
            let a = run_child(w, args, trace);
            let b = run_child(w, args, trace);
            match (a, b) {
                (Ok(a), Ok(b)) => Some((a, b)),
                (a, b) => {
                    for e in [a.err(), b.err()].into_iter().flatten() {
                        println!("{e}");
                    }
                    None
                }
            }
        };
        let (Some((a, b)), Some((ta, tb))) = (pair(false), pair(true)) else {
            note(
                &mut rows,
                false,
                format!("{}: a run did not finish", w.name),
            );
            continue;
        };
        for r in [&a, &b, &ta, &tb] {
            let ok = r.get("correct").and_then(Json::as_bool) == Some(true);
            if !ok {
                note(
                    &mut rows,
                    false,
                    format!("{}: a run was not correct", w.name),
                );
            }
        }
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (metric_value(&a, m.name), metric_value(&b, m.name)) else {
                note(&mut rows, false, format!("{} {}: missing", w.name, m.name));
                continue;
            };
            // Only a move in the bad direction breaches, as for a PR.
            let worse = match m.better {
                Better::Higher => y < x,
                Better::Lower => y > x,
            };
            let diff = relative_diff(x, y);
            note(
                &mut rows,
                !(worse && diff > m.bound),
                format!(
                    "{:<22} {:<18} {:>14.6} {:>14.6} {:<6} diff {:>7.4} bound {}",
                    w.name, m.name, x, y, m.unit, diff, m.bound
                ),
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (x, y) = (metric_value(&ta, m.name), metric_value(&tb, m.name));
            let same = matches!((x, y), (Some(x), Some(y)) if x.to_bits() == y.to_bits());
            note(
                &mut rows,
                same,
                format!("{:<22} {:<34} {:?} {:?} exact", w.name, m.name, x, y),
            );
        }
    }
    println!(
        "# check-repeat, seed {}, {} s per run",
        args.seed, args.seconds
    );
    for r in &rows {
        println!("{r}");
    }
    println!("{breaches} breach(es)");
    if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let code = if args.check_repeat {
        check_repeat(&args)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(
            workloads::find(&args.workload).expect("validated by parse_args"),
            &args,
        )
    };
    // A closed pipe must not look like success.
    if std::io::stdout().flush().is_err() {
        return ExitCode::FAILURE;
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload engine_batch_wide --seed 42 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds),
            ("engine_batch_wide", 42, 20)
        );
        assert!(a.trace && !a.smoke);
        let b = parse_args(&argv("--workload prune_compile_sim --seed 7 --trace 0")).unwrap();
        assert!(!b.trace);
        // The issue's spelling: a bare flag.
        let c = parse_args(&argv("--workload prune_compile_sim --trace --smoke")).unwrap();
        assert!(c.trace && c.smoke);
        assert_eq!(c.seconds, SMOKE_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload all --seconds 0",
            "--workload all --seconds 61",
            "--workload all --seed -1",
            "--workload all --frobnicate",
            "--check-repeat --smoke",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} was accepted");
        }
    }

    /// One short pass of each workload, untraced: the loop runs, every
    /// output checks out, every end-to-end metric is printed. Windows are
    /// shorter still than a `--smoke` run's so the test stays quick;
    /// optimised builds finish all four well inside 5 s.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "times optimised builds only: cargo test --release"
    )]
    fn a_smoke_pass_of_each_workload_is_correct() {
        let begin = Instant::now();
        for w in &WORKLOADS {
            let o = run_untraced(w, 3, window_plan(w, 300_000_000, WINDOWS), 1);
            assert_eq!(
                o.result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{}: {:?}",
                w.name,
                o.report
            );
            assert!(o.result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(o.result.get("correct").and_then(Json::as_bool), Some(true));
            for m in &END_TO_END {
                let v = metric_value(&o.result, m.name).unwrap();
                assert!(v > 0.0, "{} {} = {v}", w.name, m.name);
            }
        }
        let took = begin.elapsed();
        assert!(took < Duration::from_secs(5), "{took:?}");
    }

    /// The traced path end to end on the cheapest workload: every
    /// per-layer metric is present, spans cover every listed name, and
    /// self times close on the root durations.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "times optimised builds only: cargo test --release"
    )]
    fn a_traced_pass_measures_every_layer_and_closes() {
        let w = workloads::find("prune_compile_sim").unwrap();
        let o = run_traced(w, 3, (40_000_000, TRACE_WINDOWS), Duration::from_millis(10));
        assert_eq!(
            o.result.get("correct").and_then(Json::as_bool),
            Some(true),
            "{:?}",
            o.report
        );
        for m in &PER_LAYER {
            assert!(
                metric_value(&o.result, m.name).is_some(),
                "{} missing",
                m.name
            );
        }
        for name in [
            spans::ROOT,
            "core.distill",
            "core.project",
            "core.spm_encode",
            "runtime.compile_f32",
            "runtime.compile_int8",
            "accel.simulate_network",
            "accel.execute_sparse_conv",
            "runtime.op.0",
            probes::OP_WALK,
        ] {
            assert!(o.spans.iter().any(|s| s.name == name), "no {name} span");
        }
        assert!(metric_value(&o.result, "bench.span_closure_err_pct").unwrap() < 1e-9);
        assert_eq!(
            metric_value(&o.result, "sim_speedup_x").map(|v| v > 2.0),
            Some(true)
        );
        assert_eq!(metric_value(&o.result, "serve.batches"), Some(0.0));
    }
}
