//! `bertha-benchmark`: one command that measures the Bertha workspace end
//! to end. See `benchmark/README.md` for what is measured and why.
//!
//! ```text
//! bertha-benchmark run    [--seed N] [--seconds S] [--smoke]            every workload, spans off
//! bertha-benchmark trace  [--seed N] [--seconds S] [--out DIR] [--smoke] every workload, spans on
//! bertha-benchmark repeat [--sets N] [--seed N] [--seconds S] [--smoke]  run the suite N times, judge spread
//! bertha-benchmark one --workload W --seed N --seconds S --trace 0|1     one run, one result line
//! ```
//!
//! `one` is what `BENCHMARK.json`'s command invokes. It measures the
//! workload in [`SEGMENTS`] child processes, one after another, each
//! building the system afresh and measuring an equal share of the window,
//! and reports each metric's trimmed mean over them: on the build machine
//! a process settles into a speed of its own (within 1 % from window to
//! window inside it, ±4 % from process to process, address-space layout
//! randomisation on or off), so one long window measures one process
//! precisely while several short ones measure the workload. `run`,
//! `trace` and `repeat` run `one` as a child per workload.

mod gen;
mod harness;
mod json;
mod report;
mod stats;
mod trace;
mod workloads;

use harness::{Metric, Outcome, Plan};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Measured window of `run`, seconds, when `--seconds` is not given. The
/// same value is `run_seconds` in `BENCHMARK.json`.
const DEFAULT_RUN_SECONDS: u64 = 10;
/// Measured window of `trace`, seconds.
const DEFAULT_TRACE_SECONDS: u64 = 6;
/// Processes each run measures the workload in; results are combined over
/// these segments, each measured for `--seconds / SEGMENTS`.
const SEGMENTS: u64 = 20;

/// Environment that changes how the program under test behaves; cleared
/// so an ambient setting cannot move the numbers.
const CLEARED_ENV: [&str; 8] = [
    "BERTHA_PROFILE",
    "BERTHA_LOG",
    "BERTHA_TRACE_SAMPLE",
    "BERTHA_UDP_BATCH",
    "BERTHA_SPAN_EXPORT",
    "BERTHA_SPAN_EXPORT_MS",
    "BERTHA_METRICS_LISTEN",
    "BERTHA_FLIGHT_CAPACITY",
];

struct Args {
    flags: BTreeMap<String, String>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            flag @ ("--seed" | "--seconds" | "--millis" | "--workload" | "--trace" | "--out"
            | "--sets") => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                flags.insert(flag.trim_start_matches('-').to_string(), value.clone());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args { flags, smoke })
}

impl Args {
    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} takes a whole number, got {v:?}")),
        }
    }
}

/// A scratch directory for Unix sockets and flight dumps, inside the
/// directory the binary was built into (so inside the checkout) and
/// written relative to the working directory where possible: Unix socket
/// paths are limited to about a hundred bytes.
fn scratch_dir() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    let base = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .map(|dir| dir.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(dir))
        .unwrap_or_else(|| PathBuf::from("target"));
    base.join("run-tmp").join(std::process::id().to_string())
}

/// Run one workload in this process.
fn run_in_process(workload: &str, plan: &Plan) -> Result<Outcome, String> {
    use workloads::{churn::Churn, echo::Echo, echo::Kind, kv::Kv};
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
        .map_err(|e| format!("could not start the runtime: {e}"))?;
    rt.block_on(async {
        match workload {
            "echo_64b" => harness::run(&Echo::new(Kind::Bare), plan).await,
            "bulk_8k_stack" => harness::run(&Echo::new(Kind::Bulk), plan).await,
            "echo_64b_loss" => harness::run(&Echo::new(Kind::Loss), plan).await,
            "conn_churn" => harness::run(&Churn, plan).await,
            "kv_ycsb_a_mixed" => harness::run(&Kv, plan).await,
            other => Err(format!(
                "unknown workload {other:?}; choose one of {:?}",
                report::WORKLOADS
            )),
        }
    })
}

fn trace_flag(args: &Args) -> Result<bool, String> {
    match args.number("trace", 0)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(format!("--trace takes 0 or 1, got {other}")),
    }
}

/// `segment` (internal): one build-and-measure in this process; prints the
/// detail line.
fn cmd_segment(args: &Args) -> Result<ExitCode, String> {
    let workload = args.flags.get("workload").ok_or("--workload is required")?;
    let plan = Plan {
        seed: args.number("seed", 1)?,
        settle: Duration::from_millis(200),
        measure: Duration::from_millis(args.number("millis", 1000)?.max(1)),
        trace: trace_flag(args)?,
        out_dir: args.flags.get("out").map(PathBuf::from),
    };

    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    // Single-threaded here: no other thread reads the environment yet.
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    std::env::set_var("TMPDIR", &scratch);
    std::env::set_var("BERTHA_FLIGHT_DIR", &scratch);
    let outcome = run_in_process(workload, &plan);
    // Sockets of torn-down servers and any flight dumps.
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;
    println!("{}", report::detail_line(&outcome));
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Run this executable with `args`, wait for it, and parse the detail
/// line it printed. A child that did not verify its outputs is an error.
fn child(args: &[String]) -> Result<(json::Json, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    // `output` waits for the child to exit.
    let output = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find(|l| l.starts_with("{\"workload\""))
        .ok_or_else(|| format!("child {args:?} printed no result ({})", output.status))?;
    let doc = json::parse(detail).map_err(|e| format!("child {args:?}: unreadable result: {e}"))?;
    if !output.status.success() || doc.get("correct").and_then(json::Json::as_bool) != Some(true) {
        let problems = doc.get("problems").cloned().unwrap_or(json::Json::Null);
        return Err(format!("child {args:?} was not correct: {problems:?}"));
    }
    Ok((doc, detail.to_string()))
}

fn group_values(doc: &json::Json, group: &str) -> BTreeMap<String, (f64, String)> {
    doc.get(group)
        .and_then(json::Json::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| {
                    Some((
                        k.clone(),
                        (
                            v.get("value")?.as_f64()?,
                            v.get("unit")?.as_str()?.to_string(),
                        ),
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Every metric in `group` combined over `docs` by
/// [`stats::trimmed_mean`] (a metric missing from a segment — a tail
/// percentile it had too few samples for — is taken over the segments
/// that have it), catalogued metrics first and in catalogue order.
fn combine_group(docs: &[json::Json], group: &str, catalogue: &[report::Spec]) -> Vec<Metric> {
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    for doc in docs {
        for (name, (value, unit)) in group_values(doc, group) {
            let slot = values.entry(name).or_default();
            slot.0.push(value);
            slot.1 = unit;
        }
    }
    let mut out: Vec<Metric> = values
        .into_iter()
        .filter_map(|(name, (vals, unit))| {
            Some(Metric::new(name, stats::trimmed_mean(&vals)?, &unit))
        })
        .collect();
    let rank = |m: &Metric| {
        catalogue
            .iter()
            .position(|s| s.name == m.name)
            .unwrap_or(usize::MAX)
    };
    out.sort_by_key(rank);
    out
}

/// `one`: the benchmark contract's entry point.
fn cmd_one(args: &Args) -> Result<ExitCode, String> {
    let workload = args.flags.get("workload").ok_or("--workload is required")?;
    let name = report::WORKLOADS
        .iter()
        .copied()
        .find(|w| w == workload)
        .ok_or_else(|| {
            format!(
                "unknown workload {workload:?}; choose one of {:?}",
                report::WORKLOADS
            )
        })?;
    let seed = args.number("seed", 1)?;
    let seconds = args.number("seconds", DEFAULT_RUN_SECONDS)?;
    if !(1..=600).contains(&seconds) {
        return Err(format!(
            "--seconds must be between 1 and 600, got {seconds}"
        ));
    }
    let trace = trace_flag(args)?;
    let (segments, millis) = if args.smoke {
        (2, 500)
    } else {
        (SEGMENTS, seconds * 1000 / SEGMENTS)
    };

    let mut docs = Vec::new();
    for seg in 0..segments {
        let mut child_args: Vec<String> =
            ["segment", "--workload", name].map(String::from).to_vec();
        for (flag, value) in [
            // Each segment draws its own inputs (payloads, request
            // streams, which packets the lossy path drops), all of them
            // functions of the run's seed.
            ("--seed", gen::subseed(seed, seg)),
            ("--millis", millis),
            ("--trace", trace as u64),
        ] {
            child_args.extend([flag.to_string(), value.to_string()]);
        }
        // One set of raw spans is enough: the last segment writes them.
        if let (Some(dir), true) = (args.flags.get("out"), seg + 1 == segments) {
            child_args.extend(["--out".to_string(), dir.clone()]);
        }
        docs.push(child(&child_args)?.0);
    }

    let total = |key: &str| -> u64 {
        docs.iter()
            .filter_map(|d| d.get(key).and_then(json::Json::as_f64))
            .sum::<f64>() as u64
    };
    let outcome = Outcome {
        workload: name,
        traced: trace,
        // `child` already rejected any segment that was not.
        correct: true,
        problems: Vec::new(),
        attempted: total("attempted"),
        failed: total("failed"),
        end_to_end: combine_group(&docs, "end_to_end", &report::END_TO_END),
        per_layer: combine_group(&docs, "per_layer", &report::PER_LAYER),
        diagnostics: combine_group(&docs, "diagnostics", &[]),
    };
    eprint!("{}", report::table(&outcome));
    eprintln!(
        "   (trimmed means of {segments} processes x {millis} ms; 2 worker threads, {} cores available; \
         all traffic over loopback UDP / Unix sockets / in-process)",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("{}", report::detail_line(&outcome));
    println!("{}", report::contract_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

/// Run `one` as a child and parse its detail line.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<&Path>,
) -> Result<(json::Json, String), String> {
    let mut args: Vec<String> = ["one", "--workload", workload].map(String::from).to_vec();
    for (flag, value) in [
        ("--seed", seed),
        ("--seconds", seconds),
        ("--trace", trace as u64),
    ] {
        args.extend([flag.to_string(), value.to_string()]);
    }
    if smoke {
        args.push("--smoke".into());
    }
    if let Some(dir) = out {
        args.extend(["--out".to_string(), dir.display().to_string()]);
    }
    child(&args)
}

/// `run` and `trace`: every workload once, results as one JSON document
/// (each workload's full result, as `one` printed it).
fn cmd_suite(args: &Args, trace: bool) -> Result<ExitCode, String> {
    let seed = args.number("seed", 1)?;
    let default = if trace {
        DEFAULT_TRACE_SECONDS
    } else {
        DEFAULT_RUN_SECONDS
    };
    let seconds = args.number("seconds", default)?;
    let out_dir = trace.then(|| {
        args.flags
            .get("out")
            .map(PathBuf::from)
            .unwrap_or_else(|| scratch_dir().with_file_name("traces"))
    });
    let mut results = Vec::new();
    for workload in report::WORKLOADS {
        let (_, line) = child_run(
            workload,
            seed,
            seconds,
            trace,
            args.smoke,
            out_dir.as_deref(),
        )?;
        results.push(line);
    }
    println!(
        "{{\"seed\":{seed},\"traced\":{trace},\"workloads\":[\n{}\n]}}",
        results.join(",\n")
    );
    if let Some(dir) = out_dir {
        eprintln!("raw spans: {}/trace-<workload>.json", dir.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// `repeat`: run the suite `--sets` times with consecutive seeds and
/// judge every end-to-end metric's spread against its bound.
fn cmd_repeat(args: &Args) -> Result<ExitCode, String> {
    let sets = args.number("sets", 2)?;
    if sets < 2 {
        return Err("--sets must be at least 2: spread needs two values".into());
    }
    let seed = args.number("seed", 1)?;
    let seconds = args.number("seconds", DEFAULT_RUN_SECONDS)?;
    // (workload, metric) -> one value per set.
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for set in 0..sets {
        for workload in report::WORKLOADS {
            let (result, _) = child_run(workload, seed + set, seconds, false, args.smoke, None)?;
            for group in ["end_to_end", "diagnostics"] {
                for (name, (value, _unit)) in group_values(&result, group) {
                    values
                        .entry((workload.to_string(), name))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    println!(
        "{:<18} {:<22} {:<7} {:>14} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "better", "q1", "median", "q3", "spread", "bound"
    );
    let mut over = 0;
    for ((workload, name), vals) in &values {
        let Some((q1, med, q3)) = stats::quartiles(vals) else {
            continue;
        };
        let spread = stats::relative_spread(vals).unwrap_or(0.0);
        let spec = report::END_TO_END.iter().find(|s| s.name == name);
        let bound = spec.map(|s| s.bound);
        let better = spec.map_or("-", |s| s.better.label());
        let verdict = match bound {
            // Set-up time is gated on medians only; its spread is shown.
            Some(_) if name == "setup_s" => "shown",
            Some(b) if spread > b => {
                over += 1;
                "OVER BOUND"
            }
            Some(b) if spread > b / 3.0 => "within bound, above a third of it",
            Some(_) => "steady",
            None if spread <= 0.10 => "diagnostic (repeats within a tenth)",
            None => "diagnostic",
        };
        println!(
            "{workload:<18} {name:<22} {better:<7} {q1:>14.4} {med:>14.4} {q3:>14.4} {:>7.1}% {:>7}  {verdict}",
            spread * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    if over > 0 {
        eprintln!("{over} end-to-end metric(s) spread beyond their bound over {sets} sets");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage =
        "usage: bertha-benchmark <run|trace|repeat|one> [--seed N] [--seconds S] [--smoke] \
                 [--sets N] [--out DIR] [--workload W --trace 0|1]";
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let result = parse_args(rest).and_then(|args| match cmd.as_str() {
        "one" => cmd_one(&args),
        "segment" => cmd_segment(&args),
        "run" => cmd_suite(&args, false),
        "trace" => cmd_suite(&args, true),
        "repeat" => cmd_repeat(&args),
        other => Err(format!("unknown command {other:?}\n{usage}")),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bertha-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
