//! Aggregation over repetitions and everything the benchmark prints:
//! the tables for people (standard error) and the JSON for programs
//! (standard output).

use crate::host::HostInfo;
use crate::json::{int, list, num, obj, text};
use crate::metrics::{self, Better, MetricDef, RepSummary, END_TO_END, PER_LAYER};
use crate::spans;
use crate::workload::{Rep, Tally, Workload};
use serde_json::Value;
use std::path::Path;

/// How well the traced repetition separates the layers (the issue's
/// last-but-one acceptance criterion), from the benchmark's own spans.
pub struct Separation {
    /// Share of the clients' wall time inside `fetch` + `report` spans.
    pub fetch_report_share: f64,
    /// Share inside `eval` spans (the client-side objective).
    pub eval_share: f64,
    pub connect_samples: usize,
    pub sessions: usize,
}

pub fn separation(rep: &Rep) -> Separation {
    let totals = spans::totals(rep.clients.iter().flat_map(|c| &c.recorder.spans));
    let total = |name: &str| {
        totals
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or((0, 0.0), |&(_, count, us)| (count, us))
    };
    // Each client is busy for the whole timed phase.
    let wall_us = rep.wall_s * 1e6 * rep.clients.len() as f64;
    Separation {
        fetch_report_share: (total("fetch").1 + total("report").1) / wall_us,
        eval_share: total("eval").1 / wall_us,
        connect_samples: total("connect_hello").0,
        sessions: total("session").0,
    }
}

/// Smallest and largest of column `metric`.
fn range(rows: &[[f64; 8]], metric: usize) -> (f64, f64) {
    rows.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), row| {
            (lo.min(row[metric]), hi.max(row[metric]))
        })
}

fn layer_def(name: &str) -> &'static MetricDef {
    PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .expect("every reported layer metric is in the catalogue")
}

/// Everything measured for one workload.
pub struct WorkloadResult {
    pub workload: Workload,
    pub reps: Vec<RepSummary>,
    /// Repetitions run again because of stolen CPU time.
    pub reruns: usize,
    /// T-sourced per-layer numbers, one set per traced repetition.
    pub traced: Vec<Vec<(&'static str, f64)>>,
    pub separation: Option<Separation>,
    pub tally: Tally,
    pub addrs: Vec<String>,
}

impl WorkloadResult {
    pub fn new(workload: Workload) -> WorkloadResult {
        WorkloadResult {
            workload,
            reps: Vec::new(),
            reruns: 0,
            traced: Vec::new(),
            separation: None,
            tally: Tally::default(),
            addrs: Vec::new(),
        }
    }

    pub fn push(&mut self, rep: &Rep) {
        self.reps.push(RepSummary::of(rep));
        self.tally.absorb(rep.tally.clone());
        self.addrs.clone_from(&rep.addrs);
    }

    /// The end-to-end metrics over all repetitions, in catalogue order.
    pub fn end_to_end(&self) -> [f64; 8] {
        metrics::end_to_end(&self.reps.iter().collect::<Vec<_>>())
    }

    /// The end-to-end metrics of each repetition taken alone (for a
    /// timing: its plain p50).
    fn alone(&self) -> Vec<[f64; 8]> {
        self.reps
            .iter()
            .map(|r| metrics::end_to_end(&[r]))
            .collect()
    }

    /// `evals_per_s` of a typical single untraced repetition: what a
    /// single traced repetition is compared with.
    pub fn untraced_evals_per_s(&self) -> f64 {
        metrics::median_of(self.alone().iter().map(|e2e| e2e[1]))
    }

    fn max_steal(&self) -> f64 {
        self.reps.iter().map(|r| r.steal_share).fold(0.0, f64::max)
    }
}

pub fn print_host(host: &HostInfo, scratch: &Path, seed: u64, seconds: f64) {
    let cpu = host
        .pinned_cpu
        .map_or("unpinned (sched_setaffinity refused)".to_string(), |c| {
            format!("cpu {c}")
        });
    eprintln!(
        "host: nproc {} | pinned to {cpu} | kernel {} | scratch {} | seed {seed} | seconds {seconds}",
        host.nproc,
        host.kernel,
        scratch.display(),
    );
}

pub fn print_end_to_end(result: &WorkloadResult) {
    let (evals, sessions, windows) = result.reps.first().map_or((0, 0, 0), |r| {
        (r.evals, r.sessions.len(), r.window_us.len())
    });
    eprintln!(
        "\n{} — {} repetitions, each {} evaluations / {} sessions / {} windows (the samples \
         behind every p50), daemons {}, steal ≤ {:.2} %, {} re-run",
        result.workload.name(),
        result.reps.len(),
        evals,
        sessions,
        windows,
        result.addrs.join(" "),
        100.0 * result.max_steal(),
        result.reruns,
    );
    eprintln!(
        "  value: over all repetitions (timings: per position the fastest repetition, then the \
         p50); rep min / rep max: over one repetition at a time"
    );
    eprintln!(
        "  {:<24} {:>14} {:>14} {:>14}  {:<6} {:<7} {:>6}",
        "end-to-end metric", "value", "rep min", "rep max", "unit", "better", "bound"
    );
    let values = result.end_to_end();
    let alone = result.alone();
    for (i, def) in END_TO_END.iter().enumerate() {
        let (min, max) = range(&alone, i);
        eprintln!(
            "  {:<24} {:>14.4} {:>14.4} {:>14.4}  {:<6} {:<7} {:>5.0}%",
            def.name,
            values[i],
            min,
            max,
            def.unit,
            def.better.as_str(),
            100.0 * def.bound,
        );
    }
}

pub fn print_layers(values: &[(&'static str, f64)], separation: Option<&Separation>) {
    eprintln!(
        "\n  {:<38} {:>16}  {:<7} {:<7}",
        "per-layer metric", "value", "unit", "better"
    );
    for (name, value) in values {
        let def = layer_def(name);
        eprintln!(
            "  {:<38} {:>16.4}  {:<7} {:<7}",
            name,
            value,
            def.unit,
            def.better.as_str()
        );
    }
    if let Some(s) = separation {
        eprintln!(
            "  spans: fetch+report cover {:.1} % of client wall time, eval {:.1} %; \
             {} connect_hello samples over {} sessions",
            100.0 * s.fetch_report_share,
            100.0 * s.eval_share,
            s.connect_samples,
            s.sessions,
        );
    }
}

pub fn print_failures(result: &WorkloadResult) {
    eprintln!(
        "  {}: {} operations attempted, {} failed",
        result.workload.name(),
        result.tally.attempted,
        result.tally.failed
    );
    for message in &result.tally.messages {
        eprintln!("    failed: {message}");
    }
}

/// `{"name": {"value": v, "unit": u}, …}` for exactly the catalogue
/// `defs`; a missing or non-finite value is an error, not a gap.
pub fn contract_metrics(defs: &[MetricDef], values: &[(&str, f64)]) -> Result<Value, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        let value = values
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|&(_, v)| v)
            .ok_or(format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", def.name));
        }
        fields.push((
            def.name.to_string(),
            obj([("value", num(value)), ("unit", text(def.unit))]),
        ));
    }
    Ok(Value::Object(fields.into_iter().collect()))
}

/// The one-line result the driver reads.
pub fn contract_line(tally: &Tally, metrics: Value) -> String {
    let line = obj([
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", int(tally.attempted)),
        ("failed", int(tally.failed)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).expect("a Value always serializes")
}

fn def_json(def: &MetricDef, fields: Vec<(&str, Value)>) -> Value {
    let mut all = fields;
    all.push(("unit", text(def.unit)));
    all.push(("better", text(def.better.as_str())));
    Value::Object(all.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn layers_json(values: &[(&'static str, f64)]) -> Value {
    Value::Object(
        values
            .iter()
            .map(|(name, value)| {
                let def = layer_def(name);
                (
                    name.to_string(),
                    def_json(def, vec![("value", num(*value))]),
                )
            })
            .collect(),
    )
}

/// `--all`'s machine-readable summary. This benchmark claims no gain.
pub fn summary_json(
    host: &HostInfo,
    scratch: &Path,
    seed: u64,
    results: &[WorkloadResult],
    layers: &[(&'static str, f64)],
) -> String {
    let workloads = results.iter().map(|result| {
        let values = result.end_to_end();
        let alone = result.alone();
        let end_to_end = END_TO_END.iter().enumerate().map(move |(i, def)| {
            let (min, max) = range(&alone, i);
            (
                def.name.to_string(),
                def_json(
                    def,
                    vec![
                        ("value", num(values[i])),
                        ("rep_min", num(min)),
                        ("rep_max", num(max)),
                        ("bound", num(def.bound)),
                    ],
                ),
            )
        });
        obj([
            ("name", text(result.workload.name())),
            ("why", text(result.workload.why())),
            ("daemons", list(result.addrs.iter().map(|a| text(a)))),
            ("repetitions", int(result.reps.len() as u64)),
            ("reruns", int(result.reruns as u64)),
            ("steal_share_max", num(result.max_steal())),
            ("attempted", int(result.tally.attempted)),
            ("failed", int(result.tally.failed)),
            ("end_to_end", Value::Object(end_to_end.collect())),
            (
                "per_layer",
                result
                    .traced
                    .first()
                    .map_or(Value::Null, |t| layers_json(t)),
            ),
        ])
    });
    let summary = obj([
        (
            "host",
            obj([
                ("nproc", int(host.nproc as u64)),
                (
                    "pinned_cpu",
                    host.pinned_cpu.map_or(Value::Null, |c| int(c as u64)),
                ),
                ("kernel", text(&host.kernel)),
                ("scratch", text(&scratch.display().to_string())),
            ]),
        ),
        ("seed", int(seed)),
        ("workloads", list(workloads)),
        ("layers", layers_json(layers)),
        ("claim", Value::Null),
    ]);
    serde_json::to_string_pretty(&summary).expect("a Value always serializes")
}

/// How much worse `b` is than `a` (or `a` than `b`, whichever is
/// larger), as a share of the better one.
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let (good, bad) = match def.better {
        Better::Lower => (a.min(b), a.max(b)),
        Better::Higher => (a.max(b), a.min(b)),
    };
    (good - bad).abs() / good.abs()
}

/// Split the repetitions alternately into sets A and B, so host drift
/// falls on both, and compare their medians against each metric's own
/// bound; metrics marked exact must be bit-identical in every
/// repetition. Prints the pairwise table.
pub fn selfcheck(result: &WorkloadResult) -> bool {
    let mut ok = true;
    println!(
        "\n{} — {} repetitions split A/B",
        result.workload.name(),
        result.reps.len()
    );
    println!(
        "  {:<38} {:>14} {:>14} {:>8} {:>7}  verdict",
        "metric", "set A", "set B", "diff", "bound"
    );
    let set = |offset: usize| {
        let reps: Vec<&RepSummary> = result.reps.iter().skip(offset).step_by(2).collect();
        metrics::end_to_end(&reps)
    };
    let (set_a, set_b) = (set(0), set(1));
    let clients = result.reps.first().map_or(1, |r| r.clients);
    let alone = result.alone();
    for (i, def) in END_TO_END.iter().enumerate() {
        let (a, b) = (set_a[i], set_b[i]);
        let exact = def.is_exact(clients);
        let (diff, pass) = if exact {
            let (lo, hi) = range(&alone, i);
            let same = lo.to_bits() == hi.to_bits();
            (if same { 0.0 } else { f64::NAN }, same)
        } else {
            let diff = worse_by(def, a, b);
            (diff, diff <= def.bound)
        };
        ok &= pass;
        println!(
            "  {:<38} {:>14.4} {:>14.4} {:>7.2}% {:>7}  {}",
            def.name,
            a,
            b,
            100.0 * diff,
            if exact {
                "exact".to_string()
            } else {
                format!("{:.0}%", 100.0 * def.bound)
            },
            if pass { "ok" } else { "FAIL" }
        );
    }
    if let [a, b] = result.traced.as_slice() {
        for ((name, va), (_, vb)) in a.iter().zip(b) {
            let def = layer_def(name);
            if !def.is_exact(clients) {
                continue;
            }
            let pass = va.to_bits() == vb.to_bits();
            ok &= pass;
            println!(
                "  {:<38} {:>14.4} {:>14.4} {:>8} {:>7}  {}",
                name,
                va,
                vb,
                "",
                "exact",
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    ok
}
