//! The metric catalogue (the names `BENCHMARK.json` lists) and how
//! results are printed.

use crate::harness::{Metric, Outcome};
use crate::json;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 5] = [
    "echo_64b",
    "bulk_8k_stack",
    "echo_64b_loss",
    "conn_churn",
    "kv_ycsb_a_mixed",
];

/// What a user of the system sees. Reported by untraced runs, on every
/// workload; these are the gated metrics.
pub const END_TO_END: [Spec; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.10),
    e2e("op_p50_us", "us", Better::Lower, 0.20),
    e2e("goodput_mbps", "Mbit/s", Better::Higher, 0.10),
];

/// Single-layer metrics. Reported by traced runs; a metric whose layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [Spec; 34] = [
    layer("transport.send_self_us", "us", Better::Lower),
    layer("transport.recv_self_us", "us", Better::Lower),
    layer("transport.frames_per_syscall", "ratio", Better::Higher),
    layer("buf.miss_ratio", "ratio", Better::Lower),
    layer("buf.inflight_max", "count", Better::Lower),
    layer("negotiate.client_us", "us", Better::Lower),
    layer("negotiate.retransmits", "count", Better::Lower),
    layer("resolve_us", "us", Better::Lower),
    layer("discovery.lookups_per_conn", "ratio", Better::Lower),
    layer("conn_setup_p50_us", "us", Better::Lower),
    layer("conn_setup_samples", "count", Better::Higher),
    layer("compress.send_self_us", "us", Better::Lower),
    layer("compress.recv_self_us", "us", Better::Lower),
    layer("crypt.send_self_us", "us", Better::Lower),
    layer("crypt.recv_self_us", "us", Better::Lower),
    layer("frag.send_self_us", "us", Better::Lower),
    layer("frag.recv_self_us", "us", Better::Lower),
    layer("reliable.send_self_us", "us", Better::Lower),
    layer("reliable.recv_self_us", "us", Better::Lower),
    layer("compress.ratio", "ratio", Better::Higher),
    layer("reliable.retx_ratio", "ratio", Better::Lower),
    layer("reliable.dup_ratio", "ratio", Better::Lower),
    layer("shard.push_p50_us", "us", Better::Lower),
    layer("shard.fallback_p50_us", "us", Better::Lower),
    layer("shard.imbalance", "ratio", Better::Lower),
    layer("kv.get_p50_us", "us", Better::Lower),
    layer("kv.put_p50_us", "us", Better::Lower),
    layer("kv.codec_ns", "ns", Better::Lower),
    layer("kv.apply_ns", "ns", Better::Lower),
    layer("trace.op_us", "us", Better::Lower),
    layer("trace.layers_self_us", "us", Better::Lower),
    layer("trace.self_sum_share", "ratio", Better::Higher),
    layer("traced_ops_per_s", "1/s", Better::Higher),
    layer("trace_overhead_frac", "ratio", Better::Lower),
];

fn push_metrics(out: &mut String, metrics: impl Iterator<Item = Metric>) {
    out.push('{');
    for (i, m) in metrics.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str(out, &m.name);
        // `{}` on an f64 prints the shortest text that parses back to the
        // same value: every digit measured, nothing rounded.
        out.push_str(&format!(":{{\"value\":{},\"unit\":", m.value));
        json::push_str(out, &m.unit);
        out.push('}');
    }
    out.push('}');
}

/// The catalogued metrics of `specs`, with `o`'s values (0 where the
/// workload has no such layer).
fn catalogued<'a>(o: &'a Outcome, specs: &'a [Spec]) -> impl Iterator<Item = Metric> + 'a {
    specs
        .iter()
        .map(|s| Metric::new(s.name, o.get(s.name).unwrap_or(0.0), s.unit))
}

/// The one-line result the benchmark contract asks for: every end-to-end
/// metric for an untraced run, every per-layer metric for a traced one.
pub fn contract_line(o: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
        o.correct,
        o.attempted.max(1),
        o.failed
    );
    if o.traced {
        push_metrics(&mut out, catalogued(o, &PER_LAYER));
    } else {
        push_metrics(&mut out, catalogued(o, &END_TO_END));
    }
    out.push('}');
    out
}

/// Everything a run produced, as one JSON object (one line).
pub fn detail_line(o: &Outcome) -> String {
    let mut out = String::from("{\"workload\":");
    json::push_str(&mut out, o.workload);
    out.push_str(&format!(
        ",\"traced\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"problems\":[",
        o.traced, o.correct, o.attempted, o.failed
    ));
    for (i, p) in o.problems.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str(&mut out, p);
    }
    out.push_str("],\"end_to_end\":");
    push_metrics(&mut out, o.end_to_end.iter().cloned());
    out.push_str(",\"per_layer\":");
    push_metrics(&mut out, o.per_layer.iter().cloned());
    out.push_str(",\"diagnostics\":");
    push_metrics(&mut out, o.diagnostics.iter().cloned());
    out.push('}');
    out
}

/// A human-readable block for stderr.
pub fn table(o: &Outcome) -> String {
    let mut out = format!(
        "== {} ({}) — {} ops attempted, {} failed, outputs {}\n",
        o.workload,
        if o.traced { "traced" } else { "untraced" },
        o.attempted,
        o.failed,
        if o.correct { "verified" } else { "WRONG" }
    );
    let shown: Vec<&Metric> = if o.traced {
        o.per_layer.iter().filter(|m| m.value != 0.0).collect()
    } else {
        o.end_to_end.iter().chain(&o.diagnostics).collect()
    };
    for m in shown {
        out.push_str(&format!("   {:<32} {:>16.4} {}\n", m.name, m.value, m.unit));
    }
    for p in &o.problems {
        out.push_str(&format!("   !! {p}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to benchmark/");
        crate::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    /// The catalogue compiled into the binary and the one the driver
    /// reads must be the same list, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        let want = |specs: &[Spec], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
            specs
                .iter()
                .map(|s| {
                    (
                        s.name.to_string(),
                        s.unit.to_string(),
                        s.better.label().to_string(),
                        bounded.then_some(s.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), want(&END_TO_END, true));
        assert_eq!(listed(&doc, "per_layer"), want(&PER_LAYER, false));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_RUN_SECONDS as f64)
        );
    }

    #[test]
    fn benchmark_json_obeys_the_contract_limits() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for key in ["end_to_end", "per_layer"] {
            for (name, unit, better, bound) in listed(&doc, key) {
                assert!(name_ok(&name), "{name}");
                assert!(unit_ok(&unit), "{unit}");
                assert!(better == "higher" || better == "lower");
                assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{name} bound");
                assert!(names.insert(name.clone()), "{name} listed twice");
            }
        }
        assert!(names.contains("setup_s"));
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            let name = w.get("name").and_then(Json::as_str).expect("name");
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(name_ok(name) && names.insert(name.to_string()), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
        }
        let secs = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }

    #[test]
    fn contract_line_has_exactly_the_catalogued_metrics() {
        let o = Outcome {
            workload: "echo_64b",
            traced: false,
            correct: true,
            problems: vec![],
            attempted: 10,
            failed: 0,
            end_to_end: vec![
                Metric::new("ops_per_s", 12.5, "1/s"),
                Metric::new("extra", 1.0, "s"),
            ],
            per_layer: vec![Metric::new("compress.ratio", 1.5, "ratio")],
            diagnostics: vec![],
        };
        let line = crate::json::parse(&contract_line(&o)).expect("valid JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        let mut want: Vec<&str> = END_TO_END.iter().map(|s| s.name).collect();
        want.sort_unstable();
        assert_eq!(metrics.keys().map(String::as_str).collect::<Vec<_>>(), want);
        assert_eq!(
            metrics["ops_per_s"].get("value").and_then(Json::as_f64),
            Some(12.5)
        );
        assert_eq!(
            metrics["ops_per_s"].get("unit").and_then(Json::as_str),
            Some("1/s")
        );

        let traced = Outcome { traced: true, ..o };
        let line = crate::json::parse(&contract_line(&traced)).expect("valid JSON");
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics["compress.ratio"]
                .get("value")
                .and_then(Json::as_f64),
            Some(1.5)
        );
        // A layer the workload does not exercise reads 0.
        assert_eq!(
            metrics["kv.codec_ns"].get("value").and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
