//! `lesm-perfbench`: the end-to-end and per-layer benchmark of the lesm
//! mining and serving pipeline (see README.md for the workloads, metrics
//! and why each exists).
//!
//! ```text
//! lesm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lesm-perfbench --selftest
//! ```
//!
//! A run prints context to stderr and, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! (`--trace 0`) or per-layer (`--trace 1`) metrics by name and unit.

mod host;
mod mining;
mod report;
mod serving;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// Set-up is repeated this many times per run and reported as a median.
pub const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: lesm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       lesm-perfbench --selftest
workloads: update_stream serve_cold";

type Workload = fn(&Opts) -> Result<Outcome, String>;

const WORKLOADS: &[(&str, Workload)] = &[
    ("update_stream", mining::update_stream),
    ("serve_cold", serving::serve_cold),
];

/// Everything one workload run needs to know.
pub struct Opts {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Alternate traced and untraced operations and report per-layer metrics.
    pub trace: bool,
    /// Self-test sizes: small inputs so every workload finishes in seconds.
    pub tiny: bool,
    /// Self-test fault injection: corrupt one artifact or response.
    pub fault: bool,
    /// Scratch directory for corpora, artifacts and stores.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_path: PathBuf,
}

/// Sets `setup_s`, the median CPU time of the set-up repetitions (the
/// clock of the operation metrics, see `report::Outcome::set_op_metrics`),
/// and notes every repetition on both clocks.
pub fn set_setup(out: &mut Outcome, reps: &[report::Op]) {
    let cpu: Vec<f64> = reps.iter().map(|rep| rep.cpu).collect();
    out.set("setup_s", report::quantile(&cpu, 0.5));
    out.note(format!(
        "set-up repetitions (CPU / wall clock): {}",
        reps.iter()
            .map(|rep| format!("{:.3} / {:.3} s", rep.cpu, rep.secs))
            .collect::<Vec<_>>()
            .join(", ")
    ));
}

/// Sets per-layer time metrics from the trace: `<span>_ms` (or `_us`) is
/// the median over operations of span `<span>`'s self time.
pub fn set_layers(out: &mut Outcome, tracer: &trace::Tracer, metrics: &[&'static str]) {
    for &metric in metrics {
        let (span, per_ms) = match (metric.strip_suffix("_ms"), metric.strip_suffix("_us")) {
            (Some(span), _) => (span, 1.0),
            (_, Some(span)) => (span, 1e3),
            _ => continue,
        };
        if let Some(ms) = tracer.median_ms(span) {
            out.set(metric, ms * per_ms);
        }
    }
}

/// Ends a traced run: reports the tracing overhead (median traced minus
/// median untraced operation time) and writes the spans out.
pub fn finish_trace(
    out: &mut Outcome,
    tracer: &trace::Tracer,
    untraced: &[report::Op],
    traced: &[f64],
    opts: &Opts,
) -> Result<(), String> {
    let base = report::quantile(&untraced.iter().map(|op| op.secs).collect::<Vec<_>>(), 0.5);
    if !traced.is_empty() && base > 0.0 {
        out.set(
            "trace.overhead_pct",
            100.0 * (report::quantile(traced, 0.5) - base) / base,
        );
    }
    tracer
        .write_jsonl(&opts.trace_path)
        .map_err(|e| format!("cannot write {}: {e}", opts.trace_path.display()))?;
    out.note(format!(
        "trace: {} spans from {} traced and {} untraced ops written to {}",
        tracer.span_count(),
        traced.len(),
        untraced.len(),
        opts.trace_path.display()
    ));
    Ok(())
}

/// Runs one workload in a fresh scratch directory and adds host context.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    fault: bool,
) -> Result<Outcome, String> {
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| *f)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let work = PathBuf::from(".perfbench_work").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let opts = Opts {
        seed,
        seconds,
        trace,
        tiny,
        fault,
        work: work.clone(),
        trace_path: PathBuf::from(".perfbench_out").join(format!("trace-{name}-seed{seed}.jsonl")),
    };
    let result = workload(&opts);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    let mut out = result?;
    if !out.values.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", host::peak_rss_mb()?);
    }
    out.note(format!(
        "peak RSS: {:.1} MB reported, {:.1} MB at the end of the run",
        out.values.get("peak_rss_mb").copied().unwrap_or(0.0),
        host::peak_rss_mb()?
    ));
    out.set("host.nproc", host::nproc() as f64);
    out.note(format!(
        "host: nproc {}, mining threads {}, server workers {}, client connections {}, steal {:.2}% during the timed phase",
        host::nproc(),
        mining::THREADS,
        serving::WORKERS,
        serving::CLIENTS,
        out.values.get("host.steal_pct").copied().unwrap_or(0.0)
    ));
    out.note(format!(
        "fail_ratio: {} ({} of {} failed)",
        out.fail_ratio(),
        out.failed,
        out.attempted
    ));
    Ok(out)
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<RunArgs>, String> {
    if args == ["--selftest"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn print_notes(name: &str, out: &Outcome) {
    for note in &out.notes {
        eprintln!("[{name}] {note}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(Some(run)) => run,
        Ok(None) => match selftest() {
            Ok(()) => {
                eprintln!("selftest: ok");
                return;
            }
            Err(e) => {
                eprintln!("selftest failed: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let line = run_workload(
        &run.workload,
        run.seed,
        run.seconds,
        run.trace,
        false,
        false,
    )
    .and_then(|out| {
        print_notes(&run.workload, &out);
        out.result_line(run.trace)
    });
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The `(name, unit)` list of one metric table in `BENCHMARK.json`.
fn declared(doc: &lesm_query::Json, table: &str) -> Result<Vec<(String, String)>, String> {
    let rows = doc
        .get(table)
        .and_then(|t| t.as_arr())
        .ok_or(format!("BENCHMARK.json has no {table}"))?;
    rows.iter()
        .map(|row| {
            let field = |k: &str| row.get(k).and_then(|v| v.as_str()).map(str::to_string);
            Ok((
                field("name").ok_or("metric without name")?,
                field("unit").ok_or("metric without unit")?,
            ))
        })
        .collect()
}

/// Checks a result line: its keys, its verdict, and that it carries every
/// metric of `table` with the declared unit (end-to-end values above 0).
fn check_line(line: &str, table: &[(&str, &str)], end_to_end: bool) -> Result<(bool, u64), String> {
    let doc = lesm_query::parse_json(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let keys: Vec<&str> = doc
        .as_obj()
        .ok_or("result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys {keys:?}"));
    }
    let correct = matches!(doc.get("correct"), Some(lesm_query::Json::Bool(true)));
    let failed = doc
        .get("failed")
        .and_then(|v| v.as_i64())
        .ok_or("failed is not an integer")?;
    let attempted = doc
        .get("attempted")
        .and_then(|v| v.as_i64())
        .ok_or("attempted is not an integer")?;
    if attempted < 1 || correct != (failed == 0) {
        return Err(format!(
            "attempted {attempted}, failed {failed}, correct {correct}"
        ));
    }
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_obj())
        .ok_or("metrics is not an object")?;
    if metrics.len() != table.len() {
        return Err(format!(
            "{} metrics printed, {} declared",
            metrics.len(),
            table.len()
        ));
    }
    for &(name, unit) in table {
        let metric = doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .ok_or(format!("metric {name} missing"))?;
        let value = metric
            .get("value")
            .and_then(|v| v.as_f64())
            .ok_or(format!("{name} has no value"))?;
        if metric.get("unit").and_then(|u| u.as_str()) != Some(unit) {
            return Err(format!("{name} printed without unit {unit}"));
        }
        if end_to_end && value <= 0.0 {
            return Err(format!("end-to-end metric {name} reads {value}"));
        }
    }
    Ok((correct, failed as u64))
}

/// Tiny-size self-test: every workload prints every declared metric with
/// its unit in both modes, and a corrupted artifact or response is caught.
fn selftest() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("run from the repository root: BENCHMARK.json: {e}"))?;
    let doc = lesm_query::parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    if declared(&doc, "end_to_end")? != owned(END_TO_END)
        || declared(&doc, "per_layer")? != owned(PER_LAYER)
    {
        return Err("BENCHMARK.json metric tables differ from the benchmark's".into());
    }
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(|w| w.as_arr())
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(|n| n.as_str()))
        .collect();
    if names != WORKLOADS.iter().map(|(n, _)| *n).collect::<Vec<_>>() {
        return Err(format!(
            "BENCHMARK.json workloads {names:?} differ from the benchmark's"
        ));
    }
    for &(name, _) in WORKLOADS {
        for trace in [false, true] {
            let out = run_workload(name, 1, 1.0, trace, true, false)?;
            let table = if trace { PER_LAYER } else { END_TO_END };
            let (correct, _) = check_line(&out.result_line(trace)?, table, !trace)
                .map_err(|e| format!("{name} --trace {}: {e}", u8::from(trace)))?;
            if !correct {
                print_notes(name, &out);
                return Err(format!("{name}: a clean run reported failures"));
            }
            eprintln!(
                "selftest: {name} --trace {} prints all {} metrics",
                u8::from(trace),
                table.len()
            );
        }
        // Serve requests rarely repeat within a tiny run, so the corrupted
        // response is a traced one, caught by its in-process replay.
        let trace = name == "serve_cold";
        let out = run_workload(name, 1, 1.0, trace, true, true)?;
        let table = if trace { PER_LAYER } else { END_TO_END };
        let (correct, failed) = check_line(&out.result_line(trace)?, table, !trace)?;
        if correct || failed == 0 {
            return Err(format!("{name}: an injected corruption went undetected"));
        }
        eprintln!(
            "selftest: {name} caught the injected corruption (fail_ratio {})",
            out.fail_ratio()
        );
    }
    Ok(())
}
