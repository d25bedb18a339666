//! `bench_stack`: a pinned, repeatable end-to-end + per-layer benchmark
//! of a remote tuning session. See `benchmark/README.md`.
//!
//! ```text
//! bench_stack --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench_stack --all        [--seed <n>] [--seconds <s>]
//! bench_stack --selfcheck  [--seed <n>] [--seconds <s>]
//! bench_stack --layers     [--seed <n>]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! five repetitions, the medians as one JSON object on the last line of
//! standard output (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`).

mod host;
mod inputs;
mod json;
mod layers;
mod metrics;
mod node;
mod report;
mod spans;
mod workload;

use host::HostInfo;
use metrics::{END_TO_END, PER_LAYER};
use report::WorkloadResult;
use std::path::{Path, PathBuf};
use workload::{Rep, Workload};

/// Repetitions per workload; every reported number is their median.
const REPS: usize = 5;

/// A repetition whose timed phase lost more than this share of its CPU
/// to the hypervisor is run again, once.
const STEAL_LIMIT: f64 = 0.05;

/// `--seconds` when not given: `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

enum Mode {
    /// The driver's contract: one workload, JSON on the last line.
    Contract {
        workload: Workload,
        trace: bool,
    },
    All,
    Selfcheck,
    Layers,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut trace = false;
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut mode = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--all" => mode = Some(Mode::All),
            "--selfcheck" => mode = Some(Mode::Selfcheck),
            "--layers" => mode = Some(Mode::Layers),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let mode = match (mode, workload) {
        (Some(mode), None) => mode,
        (None, Some(workload)) => Mode::Contract { workload, trace },
        (None, None) => return Err("give --workload <name>, --all, --selfcheck or --layers".into()),
        (Some(_), Some(_)) => return Err("--workload runs alone".into()),
    };
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

/// Removes this process's scratch directory on every exit path.
struct ScratchRoot(PathBuf);

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark writes: `benchmark/out/`, inside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Runner {
    host: HostInfo,
    seed: u64,
    rep_seconds: f64,
    scratch: ScratchRoot,
}

impl Runner {
    /// One repetition; run again once when the hypervisor took more
    /// than `STEAL_LIMIT` of the timed phase.
    fn rep(&self, workload: Workload, traced: bool, reruns: &mut usize) -> Result<Rep, String> {
        let run = || {
            workload::run_rep(
                workload,
                self.seed,
                self.rep_seconds,
                traced,
                &self.host,
                &self.scratch.0,
            )
        };
        let rep = run()?;
        if rep.steal_share > STEAL_LIMIT {
            *reruns += 1;
            return run();
        }
        Ok(rep)
    }

    /// `reps` untraced repetitions of each workload, round-robin
    /// interleaved so slow host drift falls on every workload alike.
    fn untraced(&self, workloads: &[Workload], reps: usize) -> Result<Vec<WorkloadResult>, String> {
        let mut results: Vec<WorkloadResult> =
            workloads.iter().map(|&w| WorkloadResult::new(w)).collect();
        for _ in 0..reps {
            for result in &mut results {
                let rep = self.rep(result.workload, false, &mut result.reruns)?;
                result.push(&rep);
            }
        }
        Ok(results)
    }

    /// One traced repetition of `result`'s workload: the T-sourced
    /// per-layer numbers, with the trace written to `out/`.
    fn traced(&self, result: &mut WorkloadResult) -> Result<(), String> {
        let workload = result.workload;
        let rep = self.rep(workload, true, &mut result.reruns)?;
        let shape = workload.shape(self.rep_seconds);
        let plans: Vec<_> = workload
            .timed_plans(self.seed, &shape)
            .into_iter()
            .flatten()
            .collect();
        let cold = workload::cold_outcomes(&plans);
        let untraced = result.untraced_evals_per_s();
        result
            .traced
            .push(metrics::traced_layers(&rep, untraced, &cold));
        result.separation = Some(report::separation(&rep));
        result.tally.absorb(rep.tally.clone());

        let recorders: Vec<_> = rep.clients.into_iter().map(|c| c.recorder).collect();
        let path = out_dir().join(format!("trace-{}.json", workload.name()));
        let text = serde_json::to_string(&spans::to_json(workload.name(), &recorders))
            .map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn layers(&self) -> Result<Vec<(&'static str, f64)>, String> {
        layers::run(self.seed, &self.scratch.0.join("layers"))
    }
}

fn run(args: Args) -> Result<bool, String> {
    let host = HostInfo::pin_and_describe();
    let scratch = ScratchRoot(out_dir().join(format!("scratch-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let runner = Runner {
        host,
        seed: args.seed,
        rep_seconds: args.seconds / REPS as f64,
        scratch,
    };
    report::print_host(&runner.host, &runner.scratch.0, args.seed, args.seconds);

    match args.mode {
        Mode::Contract { workload, trace } => {
            let reps = if trace { 1 } else { REPS };
            let mut result = runner.untraced(&[workload], reps)?.remove(0);
            let metrics = if trace {
                runner.traced(&mut result)?;
                let mut values = result.traced[0].clone();
                values.extend(runner.layers()?);
                report::print_layers(&values, result.separation.as_ref());
                report::contract_metrics(&PER_LAYER, &values)?
            } else {
                report::print_end_to_end(&result);
                let values: Vec<(&str, f64)> = END_TO_END
                    .iter()
                    .map(|def| def.name)
                    .zip(result.end_to_end())
                    .collect();
                report::contract_metrics(&END_TO_END, &values)?
            };
            report::print_failures(&result);
            println!("{}", report::contract_line(&result.tally, metrics));
            Ok(result.tally.failed == 0)
        }
        Mode::All => {
            let mut results = runner.untraced(&workload::ALL, REPS)?;
            for result in &mut results {
                runner.traced(result)?;
            }
            let layers = runner.layers()?;
            for result in &results {
                report::print_end_to_end(result);
                report::print_layers(&result.traced[0], result.separation.as_ref());
                report::print_failures(result);
            }
            report::print_layers(&layers, None);
            println!(
                "{}",
                report::summary_json(
                    &runner.host,
                    &runner.scratch.0,
                    args.seed,
                    &results,
                    &layers
                )
            );
            Ok(results.iter().all(|r| r.tally.failed == 0))
        }
        Mode::Selfcheck => {
            let mut results = runner.untraced(&workload::ALL, 2 * REPS)?;
            for result in &mut results {
                runner.traced(result)?;
                runner.traced(result)?;
            }
            let mut ok = true;
            for result in &results {
                ok &= report::selfcheck(result);
                report::print_failures(result);
                ok &= result.tally.failed == 0;
            }
            println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
            Ok(ok)
        }
        Mode::Layers => {
            let layers = runner.layers()?;
            report::print_layers(&layers, None);
            Ok(true)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("--node") {
        node::run_node(&args[1..]).map(|()| true)
    } else {
        parse_args(&args).and_then(run)
    };
    // Every guard (child daemons, scratch directories) has been dropped
    // by now; `exit` skips no destructor that matters.
    std::process::exit(match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("bench_stack: {message}");
            2
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::MetricDef;
    use serde_json::Value;

    fn array<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Array(items)) => items,
            other => panic!("BENCHMARK.json: {key} is {other:?}"),
        }
    }

    fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} missing in {entry:?}"))
    }

    fn assert_catalogue(entries: &[Value], defs: &[MetricDef], bounded: bool) {
        assert_eq!(entries.len(), defs.len());
        for (entry, def) in entries.iter().zip(defs) {
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
            assert_eq!(text(entry, "better"), def.better.as_str(), "{}", def.name);
            let bound = entry.get("bound").and_then(Value::as_f64);
            assert_eq!(bound, bounded.then_some(def.bound), "{}", def.name);
        }
    }

    /// `BENCHMARK.json` at the repository root is the contract the
    /// driver reads; the catalogue in `metrics.rs` is what the program
    /// prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = serde_json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_catalogue(array(&doc, "end_to_end"), &END_TO_END, true);
        assert_catalogue(array(&doc, "per_layer"), &PER_LAYER, false);
        let workloads = array(&doc, "workloads");
        assert_eq!(workloads.len(), workload::ALL.len());
        for (entry, workload) in workloads.iter().zip(workload::ALL) {
            assert_eq!(text(entry, "name"), workload.name());
            assert_eq!(text(entry, "why"), workload.why());
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
