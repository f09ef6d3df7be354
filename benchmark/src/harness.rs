//! The run skeleton every workload shares: repeated set-up, warm-up,
//! a settled measured window, tallying, and the telemetry/trace capture
//! around it.
//!
//! One measurement (a *segment*; `main` runs several, each in a process
//! of its own, and reports their medians) is
//!
//! ```text
//! build + preload + `warm_ops` ops per lane   -> setup_s
//! settle (unrecorded) -> measured window -> stop, drain, tear down
//! ```
//!
//! Lanes are the closed loops that generate load (one per client
//! connection; four per KV client). They never stop between warm-up,
//! settle and the measured window, so the window opens on a system in
//! steady state; an op counts toward the window if its verdict (verified
//! reply, or deadline missed) lands inside it.

use crate::stats;
use crate::trace;
use bertha_telemetry as tele;
use std::collections::BTreeMap;
use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::sync::mpsc;

/// How long one run's phases last.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Seed for every generated input.
    pub seed: u64,
    /// Unrecorded running time between set-up and the window.
    pub settle: Duration,
    /// Length of the measured window.
    pub measure: Duration,
    /// Traced pass: the first third of the window runs with spans off
    /// (the untraced rate `trace_overhead_frac` compares with), the rest
    /// with spans on.
    pub trace: bool,
    /// Where `trace-<workload>.json` goes (traced pass only).
    pub out_dir: Option<std::path::PathBuf>,
}

/// What a lane should be doing right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Keep issuing ops; `record` says whether verdicts count.
    Run { record: bool },
    /// Stop issuing ops.
    Stop,
}

/// Shared clock of one set-up repetition: tells lanes when warm-up ends
/// and when the measured window opens and closes.
pub struct Ctl {
    base: Instant,
    warm_ops: u64,
    warm_done: mpsc::Sender<()>,
    /// Nanoseconds after `base`; 0 while the window is not scheduled yet.
    window_start_ns: AtomicU64,
    window_end_ns: AtomicU64,
    /// Nanoseconds after `base` at which spans come on (traced pass).
    spans_on_ns: AtomicU64,
}

impl Ctl {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// The phase at `now` for a lane that has finished `done` ops.
    /// `warmed` is the lane's own flag, set once it has reported its
    /// warm-up complete.
    pub fn phase(&self, now: Instant, done: u64, warmed: &mut bool) -> Phase {
        if !*warmed {
            if done < self.warm_ops {
                return Phase::Run { record: false };
            }
            *warmed = true;
            // The receiver outlives every lane of its repetition; a full
            // or closed channel only happens on the abort path.
            let _ = self.warm_done.try_send(());
        }
        let start = self.window_start_ns.load(Ordering::Acquire);
        let t = self.ns(now);
        if start == 0 || t < start {
            Phase::Run { record: false }
        } else if t < self.window_end_ns.load(Ordering::Acquire) {
            Phase::Run { record: true }
        } else {
            Phase::Stop
        }
    }

    /// Whether a verdict at `now` falls in the spans-on part of a traced
    /// window.
    pub fn in_traced_part(&self, now: Instant) -> bool {
        let on = self.spans_on_ns.load(Ordering::Acquire);
        on != 0 && self.ns(now) >= on
    }
}

/// One lane's results for the measured window.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Ops whose reply arrived and verified inside the window.
    pub ok: u64,
    /// Of `ok`, those that landed in the spans-on part (traced pass).
    pub ok_traced: u64,
    /// Ops that missed their deadline or returned an error in the window.
    pub failed: u64,
    /// Verified application payload bytes of the `ok` ops.
    pub bytes: u64,
    /// Completion time of each `ok` op, microseconds.
    pub lat_us: Vec<f64>,
    /// Named secondary samples (connection set-up time, get vs put), µs.
    pub extra_us: BTreeMap<&'static str, Vec<f64>>,
    /// Output that did not verify, whenever it was seen: any entry makes
    /// the run incorrect.
    pub mismatches: Vec<String>,
    /// Ops finished over the lane's whole life (drives warm-up).
    pub done: u64,
}

/// Mismatch descriptions kept per lane (the count is what matters).
const MISMATCH_CAP: usize = 8;

impl Tally {
    /// A verified op finished at `now`, `took` after it was issued.
    pub fn complete(&mut self, ctl: &Ctl, record: bool, now: Instant, took: Duration, bytes: u64) {
        self.done += 1;
        if record {
            self.ok += 1;
            self.bytes += bytes;
            self.lat_us.push(took.as_secs_f64() * 1e6);
            if ctl.in_traced_part(now) {
                self.ok_traced += 1;
            }
        }
    }

    /// An op missed its deadline or errored.
    pub fn fail(&mut self, record: bool) {
        self.done += 1;
        if record {
            self.failed += 1;
        }
    }

    /// A secondary timing sample for an op that was recorded.
    pub fn extra(&mut self, record: bool, name: &'static str, took: Duration) {
        if record {
            self.extra_us
                .entry(name)
                .or_default()
                .push(took.as_secs_f64() * 1e6);
        }
    }

    /// The program produced wrong output.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < MISMATCH_CAP {
            self.mismatches.push(what);
        }
    }
}

/// A value with its unit, as reported.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// A benchmark workload. See the module docs for how the runner drives it.
pub trait Workload: Sync {
    /// The built system.
    type Live: Send;

    /// Name as in `BENCHMARK.json`.
    fn name(&self) -> &'static str;

    /// Ops each lane completes before its set-up counts as done.
    fn warm_ops(&self) -> u64;

    /// Build servers and clients, negotiate, preload. The result is the
    /// live system; dropping it tears it down.
    fn build(&self, seed: u64) -> impl Future<Output = Result<Self::Live, String>> + Send;

    /// Spawn the lanes. Each runs until `ctl` says stop and returns its
    /// tally.
    fn start(&self, live: &Self::Live, ctl: Arc<Ctl>) -> Vec<tokio::task::JoinHandle<Tally>>;

    /// End-of-run checks and workload-specific per-layer numbers, with
    /// the live system still up. `Err` marks the run incorrect.
    fn finish(
        &self,
        live: &Self::Live,
        tallies: &[Tally],
    ) -> impl Future<Output = Result<Vec<Metric>, String>> + Send;
}

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    /// Outputs verified and end-of-run checks passed.
    pub correct: bool,
    /// Why not, if not.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (always computed; reported by untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Ungated extras: tail latency, sample counts, memory.
    pub diagnostics: Vec<Metric>,
}

impl Outcome {
    /// Look a metric up by name in any of the three groups.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .chain(&self.diagnostics)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Longest a repetition may take to build and warm up before the run is
/// abandoned as hung.
const SETUP_LIMIT: Duration = Duration::from_secs(60);
/// Most lanes a workload may start (capacity of the warm-up channel).
const MAX_LANES: usize = 64;

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counter and histogram-sum increases of the program's public telemetry
/// over the measured window.
struct Deltas(BTreeMap<String, u64>);

impl Deltas {
    fn between(before: &tele::Snapshot, after: &tele::Snapshot) -> Self {
        let mut d = BTreeMap::new();
        for (name, v) in &after.counters {
            let was = before.counters.get(name).copied().unwrap_or(0);
            d.insert(name.clone(), v.saturating_sub(was));
        }
        for (name, h) in &after.histograms {
            let was = before.histograms.get(name).map_or(0, |h| h.sum);
            d.insert(format!("{name}:sum"), h.sum.saturating_sub(was));
        }
        Deltas(d)
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer numbers that are deltas of the program's own public
/// telemetry over the measured windows.
fn telemetry_metrics(d: &Deltas, inflight_max: i64) -> Vec<Metric> {
    let syscalls = d.get("udp.batch.sends") + d.get("udp.batch.recvs");
    let frames = d.get("udp.batch.send_frames:sum") + d.get("udp.batch.recv_frames:sum");
    let (hits, misses) = (d.get("buf.pool.hits"), d.get("buf.pool.misses"));
    vec![
        Metric::new(
            "transport.frames_per_syscall",
            ratio(frames, syscalls),
            "ratio",
        ),
        Metric::new("buf.miss_ratio", ratio(misses, hits + misses), "ratio"),
        Metric::new("buf.inflight_max", inflight_max as f64, "count"),
        Metric::new(
            "negotiate.retransmits",
            d.get("negotiate.client.retransmits"),
            "count",
        ),
        Metric::new(
            "reliable.retx_ratio",
            ratio(d.get("reliable.retransmits"), d.get("reliable.sent")),
            "ratio",
        ),
        Metric::new(
            "reliable.dup_ratio",
            ratio(
                d.get("reliable.duplicates_dropped"),
                d.get("reliable.delivered") + d.get("reliable.duplicates_dropped"),
            ),
            "ratio",
        ),
    ]
}

/// Layers whose spans become `<layer>.send_self_us` / `recv_self_us`.
const SPAN_LAYERS: [&str; 5] = ["transport", "compress", "crypt", "frag", "reliable"];

/// Per-layer numbers that come from the benchmark's own spans.
fn span_metrics(c: &trace::Collected) -> Vec<Metric> {
    let agg = |name: &'static str, dir| c.aggs.get(&(name, dir)).copied().unwrap_or_default();
    let mut out = Vec::new();
    let mut stack_self_ns = 0u64;
    for layer in SPAN_LAYERS {
        for (dir, label) in [(trace::Dir::Send, "send"), (trace::Dir::Recv, "recv")] {
            let a = agg(layer, dir);
            stack_self_ns += a.self_ns;
            out.push(Metric::new(
                format!("{layer}.{label}_self_us"),
                a.self_us(),
                "us",
            ));
        }
    }
    // Bytes entering the compress layer over bytes it hands the layer
    // below (crypt, whose fixed per-message overhead is part of what
    // compression has to beat).
    let (plain, packed) = (
        agg("compress", trace::Dir::Send).bytes,
        agg("crypt", trace::Dir::Send).bytes,
    );
    out.push(Metric::new(
        "compress.ratio",
        ratio(plain as f64, packed as f64),
        "ratio",
    ));
    let op = agg("op", trace::Dir::Call);
    out.push(Metric::new(
        "trace.op_us",
        ratio(op.wall_ns as f64 / 1e3, op.count as f64),
        "us",
    ));
    // Self time the spanned layers (both endpoints) spent per traced op.
    out.push(Metric::new(
        "trace.layers_self_us",
        ratio(stack_self_ns as f64 / 1e3, op.count as f64),
        "us",
    ));
    let call = |name: &'static str| {
        let a = agg(name, trace::Dir::Call);
        ratio(a.wall_ns as f64 / 1e3, a.count as f64)
    };
    out.push(Metric::new(
        "negotiate.client_us",
        call("negotiate.client"),
        "us",
    ));
    out.push(Metric::new("resolve_us", call("localname.connect"), "us"));
    out
}

/// Check the raw spans hang together: for the ops whose root span was
/// captured, root duration and the sum of wall self times below it must
/// agree within 15 %.
fn check_span_trees(raw: &[trace::Span]) -> Result<(f64, usize), String> {
    let cov = trace::op_coverage(raw, "op");
    // Only ops whose layer spans made it under the raw cap are complete.
    let complete: Vec<(u64, u64)> = cov.into_iter().filter(|(d, s)| *d > 0 && *s > 0).collect();
    if complete.is_empty() {
        return Ok((1.0, 0));
    }
    let (dur, sum) = complete
        .iter()
        .fold((0u64, 0u64), |(d, s), (od, os)| (d + od, s + os));
    let share = sum as f64 / dur as f64;
    if (share - 1.0).abs() > 0.15 {
        return Err(format!(
            "span trees do not add up: self times cover {:.1} % of traced op time over {} ops",
            share * 100.0,
            complete.len()
        ));
    }
    Ok((share, complete.len()))
}

/// Run `w` under `plan`. `Err` is a harness-level failure (could not set
/// up); a completed run with wrong output comes back `Ok` with
/// `correct == false`.
pub async fn run<W: Workload>(w: &W, plan: &Plan) -> Result<Outcome, String> {
    let baseline = if plan.trace {
        plan.measure / 3
    } else {
        Duration::ZERO
    };
    let mut problems = Vec::new();
    trace::set_enabled(false);
    trace::take();

    let t0 = Instant::now();
    let live = tokio::time::timeout(SETUP_LIMIT, w.build(plan.seed))
        .await
        .map_err(|_| format!("{}: set-up did not finish in {SETUP_LIMIT:?}", w.name()))??;
    let (warm_tx, mut warm_rx) = mpsc::channel(MAX_LANES);
    let ctl = Arc::new(Ctl {
        base: Instant::now(),
        warm_ops: w.warm_ops(),
        warm_done: warm_tx,
        window_start_ns: AtomicU64::new(0),
        window_end_ns: AtomicU64::new(0),
        spans_on_ns: AtomicU64::new(0),
    });
    let lanes = w.start(&live, Arc::clone(&ctl));
    assert!(lanes.len() <= MAX_LANES, "raise MAX_LANES for {}", w.name());
    for _ in 0..lanes.len() {
        tokio::time::timeout(SETUP_LIMIT, warm_rx.recv())
            .await
            .map_err(|_| format!("{}: warm-up did not finish in {SETUP_LIMIT:?}", w.name()))?
            .ok_or_else(|| format!("{}: a lane ended during warm-up", w.name()))?;
    }
    let setup_s = t0.elapsed().as_secs_f64();

    // Schedule the window. Lanes keep running through the settle.
    let start = ctl.ns(Instant::now()) + plan.settle.as_nanos() as u64;
    let end = start + plan.measure.as_nanos() as u64;
    let spans_on = start + baseline.as_nanos() as u64;
    ctl.window_end_ns.store(end, Ordering::Release);
    if plan.trace {
        ctl.spans_on_ns.store(spans_on, Ordering::Release);
    }
    ctl.window_start_ns.store(start.max(1), Ordering::Release);

    let at = |ns: u64| ctl.base + Duration::from_nanos(ns);
    let (start_at, spans_at, end_at) = (at(start), at(spans_on), at(end));
    tokio::time::sleep_until(start_at.into()).await;
    let before = tele::global().snapshot();
    // Sample the pool's in-flight gauge through the window (the program
    // keeps no high-water mark).
    let inflight = tele::gauge("buf.pool.inflight");
    let sampler = tokio::spawn(async move {
        let mut max = inflight.get();
        while Instant::now() < end_at {
            tokio::time::sleep(Duration::from_millis(10)).await;
            max = max.max(inflight.get());
        }
        max
    });
    if plan.trace {
        tokio::time::sleep_until(spans_at.into()).await;
        trace::set_enabled(true);
    }
    tokio::time::sleep_until(end_at.into()).await;
    trace::set_enabled(false);
    let deltas = Deltas::between(&before, &tele::global().snapshot());
    let inflight_max = sampler.await.unwrap_or(0);

    let mut tallies = Vec::with_capacity(lanes.len());
    for lane in lanes {
        match lane.await {
            Ok(t) => tallies.push(t),
            Err(e) => problems.push(format!("lane died: {e}")),
        }
    }
    let collected = trace::take();
    let finish = w.finish(&live, &tallies).await;
    drop(live);
    Ok(assemble(
        w.name(),
        plan,
        baseline.as_secs_f64(),
        setup_s,
        tallies,
        problems,
        finish,
        &deltas,
        inflight_max,
        collected,
    ))
}

#[allow(clippy::too_many_arguments)]
fn assemble(
    workload: &'static str,
    plan: &Plan,
    baseline_s: f64,
    setup_s: f64,
    tallies: Vec<Tally>,
    mut problems: Vec<String>,
    finish: Result<Vec<Metric>, String>,
    deltas: &Deltas,
    inflight_max: i64,
    collected: trace::Collected,
) -> Outcome {
    let ok: u64 = tallies.iter().map(|t| t.ok).sum();
    let ok_traced: u64 = tallies.iter().map(|t| t.ok_traced).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let bytes: u64 = tallies.iter().map(|t| t.bytes).sum();
    for t in &tallies {
        problems.extend(t.mismatches.iter().cloned());
    }
    let mut lat: Vec<f64> = tallies
        .iter()
        .flat_map(|t| t.lat_us.iter().copied())
        .collect();
    let lat = stats::latency(&mut lat);
    if lat.is_none() {
        problems.push("no op completed inside the measured window".into());
    }
    let window_s = plan.measure.as_secs_f64();

    let mut end_to_end = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ops_per_s", ok as f64 / window_s, "1/s"),
        Metric::new("op_p50_us", lat.map_or(0.0, |l| l.p50), "us"),
        Metric::new(
            "goodput_mbps",
            bytes as f64 * 8.0 / 1e6 / window_s,
            "Mbit/s",
        ),
    ];
    // Keep every digit; only guard against a non-finite value reaching JSON.
    for m in &mut end_to_end {
        if !m.value.is_finite() {
            problems.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }

    let mut diagnostics = vec![
        Metric::new(
            "fail_frac",
            ratio(failed as f64, (ok + failed) as f64),
            "ratio",
        ),
        Metric::new("op_samples", lat.map_or(0.0, |l| l.n as f64), "count"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    if let Some(l) = lat {
        if let Some(p99) = l.p99 {
            diagnostics.push(Metric::new("op_p99_us", p99, "us"));
        }
        if let Some((p, v)) = l.tail {
            diagnostics.push(Metric::new(format!("op_p{p}_us"), v, "us"));
        }
    }

    // Secondary samples: medians, named `<sample>_p50_us`, plus counts.
    let mut extras: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for t in &tallies {
        for (k, v) in &t.extra_us {
            extras.entry(k).or_default().extend(v);
        }
    }
    let mut per_layer = telemetry_metrics(deltas, inflight_max);
    per_layer.extend(span_metrics(&collected));
    for (name, mut samples) in extras {
        if let Some(l) = stats::latency(&mut samples) {
            per_layer.push(Metric::new(format!("{name}_p50_us"), l.p50, "us"));
            diagnostics.push(Metric::new(format!("{name}_samples"), l.n as f64, "count"));
            if let Some((p, v)) = l.tail {
                diagnostics.push(Metric::new(format!("{name}_p{p}_us"), v, "us"));
            }
        }
    }
    match finish {
        Ok(more) => per_layer.extend(more),
        Err(e) => problems.push(e),
    }

    if plan.trace {
        let untraced_rate = ratio((ok - ok_traced) as f64, baseline_s);
        let traced_rate = ratio(ok_traced as f64, window_s - baseline_s);
        per_layer.push(Metric::new("traced_ops_per_s", traced_rate, "1/s"));
        per_layer.push(Metric::new(
            "trace_overhead_frac",
            if untraced_rate > 0.0 {
                1.0 - traced_rate / untraced_rate
            } else {
                0.0
            },
            "ratio",
        ));
        match check_span_trees(&collected.raw) {
            Ok((share, ops)) => {
                per_layer.push(Metric::new("trace.self_sum_share", share, "ratio"));
                diagnostics.push(Metric::new("trace.checked_ops", ops as f64, "count"));
            }
            Err(e) => problems.push(e),
        }
        if let Some(dir) = &plan.out_dir {
            let path = dir.join(format!("trace-{workload}.json"));
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, trace::spans_json(&collected.raw)))
            {
                problems.push(format!("could not write {}: {e}", path.display()));
            }
        }
    }

    Outcome {
        workload,
        traced: plan.trace,
        correct: problems.is_empty(),
        problems,
        attempted: ok + failed,
        failed,
        end_to_end,
        per_layer,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(warm_ops: u64) -> (Ctl, mpsc::Receiver<()>) {
        let (tx, rx) = mpsc::channel(4);
        let ctl = Ctl {
            base: Instant::now(),
            warm_ops,
            warm_done: tx,
            window_start_ns: AtomicU64::new(0),
            window_end_ns: AtomicU64::new(0),
            spans_on_ns: AtomicU64::new(0),
        };
        (ctl, rx)
    }

    fn plan() -> Plan {
        Plan {
            seed: 1,
            settle: Duration::ZERO,
            measure: Duration::from_secs(1),
            trace: false,
            out_dir: None,
        }
    }

    fn assembled(tallies: Vec<Tally>, setup_s: f64) -> Outcome {
        assemble(
            "unit",
            &plan(),
            0.0,
            setup_s,
            tallies,
            vec![],
            Ok(vec![]),
            &Deltas(BTreeMap::new()),
            0,
            trace::Collected {
                aggs: BTreeMap::new(),
                raw: vec![],
            },
        )
    }

    #[test]
    fn phases_follow_warmup_then_window() {
        let (c, mut rx) = ctl(3);
        let mut warmed = false;
        let t = |ms: u64| c.base + Duration::from_millis(ms);
        assert_eq!(c.phase(t(0), 2, &mut warmed), Phase::Run { record: false });
        assert!(rx.try_recv().is_err(), "not warm yet");
        // Warm: reported once, keeps running unrecorded until the window.
        assert_eq!(c.phase(t(1), 3, &mut warmed), Phase::Run { record: false });
        assert!(warmed && rx.try_recv().is_ok());
        assert_eq!(c.phase(t(2), 9, &mut warmed), Phase::Run { record: false });
        assert!(rx.try_recv().is_err(), "reported exactly once");
        c.window_end_ns.store(30_000_000, Ordering::Release);
        c.window_start_ns.store(10_000_000, Ordering::Release);
        assert_eq!(c.phase(t(5), 9, &mut warmed), Phase::Run { record: false });
        assert_eq!(c.phase(t(10), 9, &mut warmed), Phase::Run { record: true });
        assert_eq!(c.phase(t(29), 9, &mut warmed), Phase::Run { record: true });
        assert_eq!(c.phase(t(30), 9, &mut warmed), Phase::Stop);
    }

    #[test]
    fn timeouts_count_as_attempted_and_failed_never_as_latency() {
        let (c, _rx) = ctl(0);
        let mut t = Tally::default();
        let now = Instant::now();
        t.complete(&c, true, now, Duration::from_micros(100), 64);
        t.complete(&c, true, now, Duration::from_micros(300), 64);
        t.fail(true);
        // Outside the window nothing counts, but warm-up still advances.
        t.complete(&c, false, now, Duration::from_micros(999), 64);
        t.fail(false);
        assert_eq!((t.ok, t.failed, t.done), (2, 1, 5));
        assert_eq!(t.lat_us, vec![100.0, 300.0]);

        let o = assembled(vec![t], 0.3);
        assert_eq!((o.attempted, o.failed), (3, 1));
        assert!(o.correct);
        assert_eq!(o.get("fail_frac"), Some(1.0 / 3.0));
        assert_eq!(o.get("ops_per_s"), Some(2.0));
        assert_eq!(o.get("op_p50_us"), Some(100.0));
        assert_eq!(o.get("setup_s"), Some(0.3));
        assert_eq!(o.get("goodput_mbps"), Some(128.0 * 8.0 / 1e6));
    }

    #[test]
    fn a_mismatch_makes_the_run_incorrect() {
        let (c, _rx) = ctl(0);
        let mut t = Tally::default();
        t.complete(&c, true, Instant::now(), Duration::from_micros(5), 1);
        t.mismatch("echo 7 came back with the wrong body".into());
        let o = assembled(vec![t], 0.1);
        assert!(!o.correct);
        assert_eq!(o.problems.len(), 1);
    }
}
