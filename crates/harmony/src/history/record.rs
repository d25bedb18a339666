//! Tuning records and per-run histories.

use harmony_space::{Configuration, ParameterSpace};
use serde::{Deserialize, Serialize};

/// One explored configuration and its measured performance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningRecord {
    /// Parameter values (space order).
    pub values: Vec<i64>,
    /// Measured performance (higher is better).
    pub performance: f64,
}

impl TuningRecord {
    /// Build from a configuration.
    pub fn new(cfg: &Configuration, performance: f64) -> Self {
        TuningRecord {
            values: cfg.values().to_vec(),
            performance,
        }
    }

    /// View as a configuration.
    pub fn configuration(&self) -> Configuration {
        Configuration::new(self.values.clone())
    }
}

/// Everything remembered about one prior tuning run: the workload's
/// characteristic vector and every record explored while serving it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunHistory {
    /// Human label (e.g. the workload name) — documentation only.
    pub label: String,
    /// Workload characteristics observed when the run happened (e.g. the
    /// web-interaction frequency distribution).
    pub characteristics: Vec<f64>,
    /// Explored configurations with performances, in exploration order.
    pub records: Vec<TuningRecord>,
}

impl RunHistory {
    /// New, empty run.
    pub fn new(label: impl Into<String>, characteristics: Vec<f64>) -> Self {
        RunHistory {
            label: label.into(),
            characteristics,
            records: Vec::new(),
        }
    }

    /// Append one record.
    pub fn push(&mut self, cfg: &Configuration, performance: f64) {
        self.records.push(TuningRecord::new(cfg, performance));
    }

    /// The best record, if any.
    pub fn best(&self) -> Option<&TuningRecord> {
        self.records
            .iter()
            .max_by(|a, b| a.performance.total_cmp(&b.performance))
    }

    /// Whether this run's records can seed a search over `space`: each
    /// holds one value per parameter. A run recorded over a space of
    /// another arity is no prior for it, however close its
    /// characteristics.
    pub fn fits(&self, space: &ParameterSpace) -> bool {
        self.records.iter().all(|r| r.values.len() == space.len())
    }

    /// The `k` best records, best first.
    pub fn top_k(&self, k: usize) -> Vec<&TuningRecord> {
        let mut v: Vec<&TuningRecord> = self.records.iter().collect();
        v.sort_by(|a, b| b.performance.total_cmp(&a.performance));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips_configuration() {
        let cfg = Configuration::new(vec![1, 2, 3]);
        let r = TuningRecord::new(&cfg, 9.0);
        assert_eq!(r.configuration(), cfg);
        assert_eq!(r.performance, 9.0);
    }

    #[test]
    fn best_and_top_k() {
        let mut run = RunHistory::new("w", vec![0.5, 0.5]);
        assert!(run.best().is_none());
        run.push(&Configuration::new(vec![1]), 10.0);
        run.push(&Configuration::new(vec![2]), 30.0);
        run.push(&Configuration::new(vec![3]), 20.0);
        assert_eq!(run.best().unwrap().values, vec![2]);
        let top2: Vec<f64> = run.top_k(2).iter().map(|r| r.performance).collect();
        assert_eq!(top2, vec![30.0, 20.0]);
        assert_eq!(run.top_k(99).len(), 3);
    }

    #[test]
    fn fits_only_spaces_of_the_recorded_arity() {
        use harmony_space::ParamDef;
        let space = |n: usize| {
            (0..n)
                .fold(ParameterSpace::builder(), |b, i| {
                    b.param(ParamDef::int(format!("p{i}"), 0, 9, 0, 1))
                })
                .build()
                .unwrap()
        };
        let mut run = RunHistory::new("w", vec![0.5]);
        assert!(run.fits(&space(1)) && run.fits(&space(2)), "no records");
        run.push(&Configuration::new(vec![4]), 1.0);
        assert!(run.fits(&space(1)));
        assert!(!run.fits(&space(2)));
    }

    #[test]
    fn serde_roundtrip() {
        let mut run = RunHistory::new("shopping", vec![0.1, 0.9]);
        run.push(&Configuration::new(vec![4, 5]), 77.5);
        let json = serde_json::to_string(&run).unwrap();
        let back: RunHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(back, run);
    }
}
