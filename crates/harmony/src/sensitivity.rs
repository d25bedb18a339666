//! The parameter prioritizing tool (§3).
//!
//! "For each parameter, the software tool will explore possible values
//! v1…vn (based on the distance given) while the rest of the parameters
//! are fixed with the default value. … We defined the sensitivity of a
//! parameter to be ΔP/Δv′ where ΔP = Pa − Pb, Δv′ = v′a − v′b,
//! Pa = max Pi, Pb = min Pi. Also each parameter value is normalized …
//! so that parameters with a wide range of values are not given excessive
//! weight."
//!
//! The tool is standalone ("done once per new workload; the overhead can
//! be amortized over many runs") and comes in a sequential flavour for
//! stateful objectives and a scoped-thread parallel flavour for pure
//! evaluation functions — each parameter's sweep is independent, which is
//! exactly the data-parallel shape the HPC guides recommend exploiting.

use crate::objective::Objective;
use harmony_exec::{Executor, MemoCache};
use harmony_space::{Configuration, ParameterSpace};
use std::convert::Infallible;

/// Sensitivity result for one parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSensitivity {
    /// Index in the space.
    pub index: usize,
    /// Parameter name.
    pub name: String,
    /// The paper's ΔP/Δv′ score (≥ 0).
    pub sensitivity: f64,
    /// The swept value with the best observed performance.
    pub best_value: i64,
    /// Raw sweep samples `(value, performance)`.
    pub sweep: Vec<(i64, f64)>,
}

/// Output of the prioritizing tool.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityReport {
    entries: Vec<ParamSensitivity>,
    explorations: u64,
}

impl SensitivityReport {
    /// Per-parameter results, in space order.
    pub fn entries(&self) -> &[ParamSensitivity] {
        &self.entries
    }

    /// Total configuration explorations spent (the cost being amortized).
    pub fn explorations(&self) -> u64 {
        self.explorations
    }

    /// Entries sorted by descending sensitivity.
    pub fn ranked(&self) -> Vec<&ParamSensitivity> {
        let mut v: Vec<&ParamSensitivity> = self.entries.iter().collect();
        v.sort_by(|a, b| b.sensitivity.total_cmp(&a.sensitivity));
        v
    }

    /// Indices of the `n` most sensitive parameters ("focus on the
    /// performance critical parameters and discard or leave the less
    /// important ones for later").
    pub fn top_n(&self, n: usize) -> Vec<usize> {
        self.ranked().into_iter().take(n).map(|e| e.index).collect()
    }

    /// Estimate sensitivities from recorded explorations instead of fresh
    /// sweeps.
    ///
    /// Prior runs already paid for their measurements; re-using them gives
    /// a free (if rougher) ranking: for each parameter the records are
    /// bucketed by that parameter's value, each bucket keeps its mean
    /// performance, and the bucket means are scored with the same ΔP/Δv′
    /// formula the live tool uses. Parameters whose records never vary
    /// score zero.
    pub fn from_history(
        space: &ParameterSpace,
        records: &[crate::history::TuningRecord],
    ) -> SensitivityReport {
        crate::obs::sensitivity_reports_total().inc();
        let mut entries = Vec::with_capacity(space.len());
        for j in 0..space.len() {
            let p = space.param(j);
            // Bucket mean performance by this parameter's value.
            let mut buckets: std::collections::BTreeMap<i64, (f64, usize)> =
                std::collections::BTreeMap::new();
            for r in records {
                if let Some(&v) = r.values.get(j) {
                    let slot = buckets.entry(v).or_insert((0.0, 0));
                    slot.0 += r.performance;
                    slot.1 += 1;
                }
            }
            let sweep: Vec<(i64, f64)> = buckets
                .into_iter()
                .map(|(v, (sum, n))| (v, sum / n as f64))
                .collect();
            let entry =
                match sweep.iter().copied().reduce(
                    |best, cand| {
                        if cand.1 > best.1 {
                            cand
                        } else {
                            best
                        }
                    },
                ) {
                    Some((best_value, best_perf)) if sweep.len() > 1 => {
                        let (worst_value, worst_perf) = sweep
                            .iter()
                            .copied()
                            .reduce(|w, c| if c.1 < w.1 { c } else { w })
                            .expect("non-empty");
                        let dp = (best_perf - worst_perf).max(0.0);
                        let dv = (p.normalize(best_value) - p.normalize(worst_value)).abs();
                        ParamSensitivity {
                            index: j,
                            name: p.name().to_string(),
                            sensitivity: if dp > 0.0 && dv > 0.0 { dp / dv } else { 0.0 },
                            best_value,
                            sweep,
                        }
                    }
                    _ => ParamSensitivity {
                        index: j,
                        name: p.name().to_string(),
                        sensitivity: 0.0,
                        best_value: sweep.first().map_or_else(|| p.default(), |&(v, _)| v),
                        sweep,
                    },
                };
            entries.push(entry);
        }
        // Historical records are sunk cost: no new explorations spent.
        SensitivityReport {
            entries,
            explorations: 0,
        }
    }

    /// Indices whose sensitivity falls below `fraction` of the maximum —
    /// candidates for discarding.
    pub fn irrelevant(&self, fraction: f64) -> Vec<usize> {
        let max = self
            .entries
            .iter()
            .map(|e| e.sensitivity)
            .fold(0.0f64, f64::max);
        self.entries
            .iter()
            .filter(|e| e.sensitivity <= max * fraction)
            .map(|e| e.index)
            .collect()
    }
}

/// The prioritizing tool.
///
/// # Examples
///
/// ```
/// use harmony::objective::FnObjective;
/// use harmony::sensitivity::Prioritizer;
/// use harmony_space::{Configuration, ParamDef, ParameterSpace};
///
/// let space = ParameterSpace::builder()
///     .param(ParamDef::int("strong", 0, 10, 5, 1))
///     .param(ParamDef::int("weak", 0, 10, 5, 1))
///     .build()
///     .unwrap();
/// let mut objective = FnObjective::new(|cfg: &Configuration| {
///     -(10.0 * (cfg.get(0) - 7) as f64).abs() - (cfg.get(1) - 3) as f64 * 0.1
/// });
/// let report = Prioritizer::new(space).analyze(&mut objective);
/// assert_eq!(report.ranked()[0].name, "strong");
/// assert_eq!(report.top_n(1), vec![0]);
/// ```
#[derive(Debug, Clone)]
pub struct Prioritizer {
    space: ParameterSpace,
    base: Configuration,
    max_samples_per_param: Option<usize>,
    repeats: usize,
    noise_floor_samples: usize,
}

impl Prioritizer {
    /// Tool over a space, sweeping around the space's defaults.
    pub fn new(space: ParameterSpace) -> Self {
        let base = space.default_configuration();
        Prioritizer {
            space,
            base,
            max_samples_per_param: None,
            repeats: 1,
            noise_floor_samples: 0,
        }
    }

    /// Estimate the run-to-run noise floor by measuring the base
    /// configuration `n` extra times (with the same per-value averaging as
    /// the sweeps) and subtract the observed swing from every parameter's
    /// ΔP before scoring. A truly flat parameter then scores ~0 even under
    /// heavy output perturbation. This is an extension beyond the paper's
    /// formula; disabled (0) by default.
    pub fn with_noise_floor(mut self, n: usize) -> Self {
        self.noise_floor_samples = n;
        self
    }

    /// Measure each swept value `r` times and average — the defence
    /// against run-to-run output perturbation (§5.2 evaluates the tool
    /// under ±25% noise; averaging keeps the ΔP/Δv′ ranking stable).
    pub fn with_repeats(mut self, r: usize) -> Self {
        assert!(r >= 1, "need at least one measurement per value");
        self.repeats = r;
        self
    }

    /// Sweep around a custom base configuration instead of the defaults.
    pub fn with_base(mut self, base: Configuration) -> Self {
        assert_eq!(
            base.len(),
            self.space.len(),
            "base configuration dimension mismatch"
        );
        self.base = base;
        self
    }

    /// Cap the number of sampled values per parameter (evenly subsampled);
    /// the paper's "distance between two neighbor values decides the
    /// number of sample points", this lets expensive systems coarsen it.
    pub fn with_max_samples(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least two samples to compute a swing");
        self.max_samples_per_param = Some(n);
        self
    }

    /// The values swept for parameter `j`.
    fn sweep_values(&self, j: usize) -> Vec<i64> {
        let all = self.space.param(j).static_values();
        match self.max_samples_per_param {
            Some(cap) if all.len() > cap => {
                let last = all.len() - 1;
                (0..cap).map(|k| all[(k * last) / (cap - 1)]).collect()
            }
            _ => all,
        }
    }

    /// One averaged measurement of a configuration.
    fn measure_avg(
        &self,
        objective: &mut dyn Objective,
        cfg: &Configuration,
        count: &mut u64,
    ) -> f64 {
        let mut sum = 0.0;
        for _ in 0..self.repeats {
            *count += 1;
            sum += objective.measure(cfg);
        }
        sum / self.repeats as f64
    }

    /// Observed swing of repeated base-configuration measurements — the
    /// noise floor subtracted from every ΔP when enabled.
    fn noise_floor(&self, objective: &mut dyn Objective, count: &mut u64) -> f64 {
        if self.noise_floor_samples < 2 {
            return 0.0;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..self.noise_floor_samples {
            let v = self.measure_avg(objective, &self.base, count);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        hi - lo
    }

    /// Score one parameter's sweep with the paper's ΔP/Δv′ formula, with a
    /// pre-measured noise floor subtracted from ΔP (0 when disabled).
    fn score_with_floor(&self, j: usize, sweep: Vec<(i64, f64)>, floor: f64) -> ParamSensitivity {
        let p = self.space.param(j);
        let (mut amax, mut amin) = (0usize, 0usize);
        for (k, &(_, perf)) in sweep.iter().enumerate() {
            if perf > sweep[amax].1 {
                amax = k;
            }
            if perf < sweep[amin].1 {
                amin = k;
            }
        }
        let dp = (sweep[amax].1 - sweep[amin].1 - floor).max(0.0);
        let dv = (p.normalize(sweep[amax].0) - p.normalize(sweep[amin].0)).abs();
        // Distinct grid values always have dv > 0; a flat sweep has dp = 0
        // and scores 0 regardless.
        let sensitivity = if dp <= 0.0 {
            0.0
        } else if dv > 0.0 {
            dp / dv
        } else {
            0.0
        };
        ParamSensitivity {
            index: j,
            name: p.name().to_string(),
            sensitivity,
            best_value: sweep[amax].0,
            sweep,
        }
    }

    /// Run the tool against a (possibly stateful) objective.
    pub fn analyze(&self, objective: &mut dyn Objective) -> SensitivityReport {
        crate::obs::sensitivity_reports_total().inc();
        let mut entries = Vec::with_capacity(self.space.len());
        let mut explorations = 0u64;
        let floor = self.noise_floor(objective, &mut explorations);
        for j in 0..self.space.len() {
            let sweep: Vec<(i64, f64)> = self
                .sweep_values(j)
                .into_iter()
                .map(|v| {
                    let cfg = self.base.with_value(j, v);
                    (v, self.measure_avg(objective, &cfg, &mut explorations))
                })
                .collect();
            entries.push(self.score_with_floor(j, sweep, floor));
        }
        SensitivityReport {
            entries,
            explorations,
        }
    }

    /// Parallel variant for pure evaluation functions: the sweeps run
    /// on an [`Executor`] with `threads` jobs.
    pub fn analyze_parallel<F>(&self, eval: F, threads: usize) -> SensitivityReport
    where
        F: Fn(&Configuration) -> f64 + Sync,
    {
        self.analyze_with(&eval, &Executor::new(threads), None)
    }

    /// Run the tool through an [`Executor`], optionally consulting a
    /// [`MemoCache`] before any measurement.
    ///
    /// Every `(parameter, value, repeat)` probe is independent, so the
    /// whole sweep is flattened into one batch; results are identical
    /// to [`analyze`](Self::analyze) for a pure evaluation function at
    /// any job count. The noise floor (when enabled) is always measured
    /// uncached and sequentially — its entire purpose is to observe
    /// fresh run-to-run swing, which a memo of the first sample would
    /// hide.
    pub fn analyze_with<F>(
        &self,
        eval: &F,
        executor: &Executor,
        cache: Option<&MemoCache>,
    ) -> SensitivityReport
    where
        F: Fn(&Configuration) -> f64 + Sync,
    {
        let Ok(report) = self.try_analyze_with(&|c| Ok::<_, Infallible>(eval(c)), executor, cache);
        report
    }

    /// [`analyze_with`](Self::analyze_with) over a fallible measurement:
    /// the first failure — the one a sequential sweep meets first — ends
    /// the analysis and is returned, and no failed measurement is cached.
    pub fn try_analyze_with<F, E>(
        &self,
        eval: &F,
        executor: &Executor,
        cache: Option<&MemoCache>,
    ) -> Result<SensitivityReport, E>
    where
        F: Fn(&Configuration) -> Result<f64, E> + Sync,
        E: Send,
    {
        crate::obs::sensitivity_reports_total().inc();
        let mut explorations = 0u64;
        // Noise floor first (uncached: see above).
        let floor = if self.noise_floor_samples >= 2 {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for _ in 0..self.noise_floor_samples {
                let mut sum = 0.0;
                for _ in 0..self.repeats {
                    explorations += 1;
                    sum += eval(&self.base)?;
                }
                let v = sum / self.repeats as f64;
                lo = lo.min(v);
                hi = hi.max(v);
            }
            hi - lo
        } else {
            0.0
        };
        // Flatten every (parameter, value, repeat) probe into one batch.
        let sweeps: Vec<Vec<i64>> = (0..self.space.len())
            .map(|j| self.sweep_values(j))
            .collect();
        let mut batch: Vec<Configuration> = Vec::new();
        for (j, values) in sweeps.iter().enumerate() {
            for &v in values {
                for _ in 0..self.repeats {
                    batch.push(self.base.with_value(j, v));
                }
            }
        }
        explorations += batch.len() as u64;
        let measured = match cache {
            Some(c) => executor.try_evaluate_batch_cached(&batch, c, eval)?,
            None => executor
                .evaluate_batch(&batch, eval)
                .into_iter()
                .collect::<Result<_, E>>()?,
        };
        // Reassemble per-value averages in sweep order.
        let mut results = measured.iter();
        let entries = sweeps
            .into_iter()
            .enumerate()
            .map(|(j, values)| {
                let sweep: Vec<(i64, f64)> = values
                    .into_iter()
                    .map(|v| {
                        let mut sum = 0.0;
                        for _ in 0..self.repeats {
                            sum += results.next().expect("one result per probe");
                        }
                        (v, sum / self.repeats as f64)
                    })
                    .collect();
                self.score_with_floor(j, sweep, floor)
            })
            .collect();
        Ok(SensitivityReport {
            entries,
            explorations,
        })
    }
}

/// A focus onto the `n` most sensitive parameters: tuning happens in the
/// reduced space "while leaving the rest of the parameters with their
/// default values" (§5.2).
#[derive(Debug, Clone)]
pub struct SubspaceFocus {
    full: ParameterSpace,
    indices: Vec<usize>,
    base: Configuration,
}

impl SubspaceFocus {
    /// Focus a space onto the given parameter indices, freezing the rest
    /// at `base`'s values.
    ///
    /// # Panics
    /// Panics if indices are out of range, duplicated, or any selected
    /// parameter carries an Appendix-B restriction (restricted bounds may
    /// reference frozen parameters; keep those in the full space).
    pub fn new(full: ParameterSpace, mut indices: Vec<usize>, base: Configuration) -> Self {
        assert_eq!(base.len(), full.len(), "base dimension mismatch");
        indices.sort_unstable();
        for w in indices.windows(2) {
            assert_ne!(w[0], w[1], "duplicate focus index {}", w[0]);
        }
        for &i in &indices {
            assert!(i < full.len(), "focus index {i} out of range");
            assert!(
                !full.param(i).is_restricted(),
                "cannot focus restricted parameter {:?}",
                full.param(i).name()
            );
        }
        SubspaceFocus {
            full,
            indices,
            base,
        }
    }

    /// The reduced space (one dimension per focused parameter).
    pub fn reduced_space(&self) -> ParameterSpace {
        ParameterSpace::new(
            self.indices
                .iter()
                .map(|&i| self.full.param(i).clone())
                .collect(),
        )
        .expect("reduced space inherits valid params")
    }

    /// Embed a reduced configuration back into the full space.
    pub fn embed(&self, reduced: &Configuration) -> Configuration {
        assert_eq!(
            reduced.len(),
            self.indices.len(),
            "reduced dimension mismatch"
        );
        let mut values = self.base.values().to_vec();
        for (k, &i) in self.indices.iter().enumerate() {
            values[i] = reduced.get(k);
        }
        Configuration::new(values)
    }

    /// The focused indices (sorted).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;
    use harmony_space::ParamDef;

    fn space3() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::int("strong", 0, 10, 5, 1))
            .param(ParamDef::int("weak", 0, 10, 5, 1))
            .param(ParamDef::int("dead", 0, 10, 5, 1))
            .build()
            .unwrap()
    }

    fn eval(cfg: &Configuration) -> f64 {
        let a = cfg.get(0) as f64;
        let b = cfg.get(1) as f64;
        100.0 - 5.0 * (a - 7.0).powi(2) - 0.5 * (b - 3.0).powi(2)
    }

    #[test]
    fn ranks_parameters_by_impact() {
        let p = Prioritizer::new(space3());
        let mut obj = FnObjective::new(eval);
        let report = p.analyze(&mut obj);
        let ranked = report.ranked();
        assert_eq!(ranked[0].name, "strong");
        assert_eq!(ranked[1].name, "weak");
        assert_eq!(ranked[2].name, "dead");
        assert_eq!(ranked[2].sensitivity, 0.0);
        assert_eq!(report.explorations(), 33); // 11 values × 3 params
        assert_eq!(obj.count(), 33);
    }

    #[test]
    fn finds_best_value_per_parameter() {
        let p = Prioritizer::new(space3());
        let report = p.analyze(&mut FnObjective::new(eval));
        assert_eq!(report.entries()[0].best_value, 7);
        assert_eq!(report.entries()[1].best_value, 3);
    }

    #[test]
    fn top_n_and_irrelevant() {
        let p = Prioritizer::new(space3());
        let report = p.analyze(&mut FnObjective::new(eval));
        assert_eq!(report.top_n(1), vec![0]);
        assert_eq!(report.top_n(2), vec![0, 1]);
        assert!(report.irrelevant(0.01).contains(&2));
        assert!(!report.irrelevant(0.01).contains(&0));
    }

    #[test]
    fn history_estimate_ranks_like_the_live_tool() {
        use crate::history::RunHistory;
        let space = space3();
        // Records covering a grid along each axis pair.
        let mut run = RunHistory::new("prior", vec![0.5]);
        for a in [0, 2, 5, 7, 10] {
            for b in [0, 3, 6, 10] {
                let cfg = space
                    .default_configuration()
                    .with_value(0, a)
                    .with_value(1, b);
                run.push(&cfg, eval(&cfg));
            }
        }
        let report = SensitivityReport::from_history(&space, &run.records);
        let ranked = report.ranked();
        assert_eq!(ranked[0].name, "strong");
        assert_eq!(ranked[2].name, "dead");
        assert_eq!(
            ranked[2].sensitivity, 0.0,
            "never-varied parameter scores zero"
        );
        assert_eq!(
            report.explorations(),
            0,
            "history costs no new measurements"
        );
    }

    #[test]
    fn history_estimate_handles_empty_records() {
        let space = space3();
        let report = SensitivityReport::from_history(&space, &[]);
        assert_eq!(report.entries().len(), 3);
        assert!(report.entries().iter().all(|e| e.sensitivity == 0.0));
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = Prioritizer::new(space3());
        let seq = p.analyze(&mut FnObjective::new(eval));
        for threads in [1, 2, 7] {
            let par = p.analyze_parallel(eval, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn subsampling_caps_explorations() {
        let p = Prioritizer::new(space3()).with_max_samples(3);
        let report = p.analyze(&mut FnObjective::new(eval));
        assert_eq!(report.explorations(), 9);
        // Endpoint values always included.
        let sweep0: Vec<i64> = report.entries()[0].sweep.iter().map(|&(v, _)| v).collect();
        assert_eq!(sweep0, vec![0, 5, 10]);
    }

    #[test]
    fn custom_base_changes_the_sweep_context() {
        // With an interaction, the base matters; here we just assert the
        // base is respected in the explored configurations.
        let p = Prioritizer::new(space3()).with_base(Configuration::new(vec![1, 2, 3]));
        let mut seen_base = true;
        {
            let mut obj = FnObjective::new(|cfg: &Configuration| {
                // Whenever parameter 0 is swept, others must hold 2 and 3.
                if cfg.get(1) != 2 && cfg.get(2) != 3 {
                    seen_base = false;
                }
                0.0
            });
            let _ = p.analyze(&mut obj);
        }
        assert!(seen_base);
    }

    #[test]
    fn flat_objective_scores_zero_everywhere() {
        let p = Prioritizer::new(space3());
        let report = p.analyze(&mut FnObjective::new(|_| 42.0));
        for e in report.entries() {
            assert_eq!(e.sensitivity, 0.0, "{}", e.name);
        }
    }

    #[test]
    fn subspace_focus_embeds_correctly() {
        let space = space3();
        let base = Configuration::new(vec![9, 8, 7]);
        let focus = SubspaceFocus::new(space, vec![2, 0], base);
        assert_eq!(focus.indices(), &[0, 2]);
        let reduced = focus.reduced_space();
        assert_eq!(reduced.len(), 2);
        assert_eq!(reduced.param(0).name(), "strong");
        assert_eq!(reduced.param(1).name(), "dead");
        let full = focus.embed(&Configuration::new(vec![1, 2]));
        assert_eq!(full.values(), &[1, 8, 2]);
    }

    #[test]
    #[should_panic(expected = "duplicate focus index")]
    fn subspace_focus_rejects_duplicates() {
        let space = space3();
        let base = space.default_configuration();
        let _ = SubspaceFocus::new(space, vec![0, 0], base);
    }
}
