//! The experience a tuning run starts from and ends in (§4.2, Figure 2).
//!
//! "The tuning experience with associated input request characteristics
//! will be accumulated in the database for future reference." An
//! [`Experience`] is that database together with the index that
//! classifies against it: a run finds its prior with
//! [`prior_for`](Experience::prior_for) and leaves its own record with
//! [`record`](Experience::record). The daemon's snapshots, the CLI's
//! `tune --db` and [`HarmonyServer`](crate::server::HarmonyServer) each
//! hold one, so all three select and record the same way.

use crate::history::db::ExperienceDb;
use crate::history::index::CharacteristicsIndex;
use crate::history::record::RunHistory;
use crate::history::DataAnalyzer;
use harmony_space::ParameterSpace;
use std::sync::Arc;

/// An experience database and the [`CharacteristicsIndex`] that answers
/// for exactly its runs.
///
/// Cloning copies one pointer per run and shares the index's trees, so a
/// clone that then records costs that run, not the database: how the
/// daemon publishes a new snapshot per finished run.
#[derive(Debug, Clone, Default)]
pub struct Experience {
    db: ExperienceDb,
    index: CharacteristicsIndex,
}

impl Experience {
    /// Index `db` for classification.
    pub fn new(db: ExperienceDb) -> Self {
        let index = db.build_index();
        Experience { db, index }
    }

    /// The stored runs.
    pub fn db(&self) -> &ExperienceDb {
        &self.db
    }

    /// The prior run `analyzer` selects for a workload observed as
    /// `observed`, or `None` when there is none to train from. A match
    /// recorded over a space of another arity is no prior for `space`,
    /// however close its characteristics: its records cannot seed the
    /// search, so the run tunes cold.
    pub fn prior_for(
        &self,
        analyzer: &DataAnalyzer,
        space: &ParameterSpace,
        observed: &[f64],
    ) -> Option<RunHistory> {
        analyzer
            .select_with(&self.db, Some(&self.index), observed)
            .filter(|run| run.records.iter().all(|r| r.values.len() == space.len()))
    }

    /// Record a finished run ("the tuning results may be treated as a new
    /// experience"), carrying the index forward over it.
    pub fn record(&mut self, run: impl Into<Arc<RunHistory>>) {
        self.db.add_run(run);
        self.index = self.index.extended(&self.db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Classifier;
    use harmony_space::{Configuration, ParamDef};
    use proptest::prelude::*;

    fn space(n: usize) -> ParameterSpace {
        (0..n)
            .fold(ParameterSpace::builder(), |b, i| {
                b.param(ParamDef::int(format!("p{i}"), 0, 9, 0, 1))
            })
            .build()
            .unwrap()
    }

    fn run_at(label: &str, x: f64) -> Arc<RunHistory> {
        let mut run = RunHistory::new(label, vec![x, 0.0]);
        run.push(&Configuration::new(vec![1, 2]), x);
        Arc::new(run)
    }

    #[test]
    fn fits_only_spaces_of_the_recorded_arity() {
        let analyzer = DataAnalyzer::new();
        let mut experience = Experience::default();
        experience.record(RunHistory::new("empty", vec![0.5]));
        let prior = |e: &Experience, n| e.prior_for(&analyzer, &space(n), &[0.5]);
        assert!(prior(&experience, 1).is_some() && prior(&experience, 2).is_some());
        let mut one = RunHistory::new("one", vec![0.5]);
        one.push(&Configuration::new(vec![4]), 1.0);
        let mut experience = Experience::default();
        experience.record(one);
        assert_eq!(prior(&experience, 1).unwrap().label, "one");
        assert!(prior(&experience, 2).is_none(), "a 1-parameter run");
    }

    /// A reader's snapshot is its own: records made on a clone change
    /// neither its length nor its answers, and cost no copy of the runs
    /// it holds.
    #[test]
    fn snapshots_are_stable_for_readers_and_share_their_runs() {
        let mut now = Experience::default();
        now.record(run_at("first", 0.0));
        let held = now.clone();
        for i in 1..200 {
            now.record(run_at(&format!("r{i}"), i as f64));
        }
        assert_eq!((held.db.len(), held.index.len()), (1, 1));
        assert_eq!((now.db.len(), now.index.len()), (200, 200));
        let (_, seen) = held.index.classify(&held.db, &[150.0, 0.0]).unwrap();
        assert_eq!(seen.label, "first", "the held snapshot has one run");
        let (at, seen) = now.index.classify(&now.db, &[150.2, 0.0]).unwrap();
        assert_eq!((at, seen.label.as_str()), (150, "r150"));
        assert!(Arc::ptr_eq(&held.db.runs()[0], &now.db.runs()[0]));
        let before = now.clone();
        now.record(run_at("last", 500.0));
        for (a, b) in before.db.runs().iter().zip(now.db.runs()) {
            assert!(Arc::ptr_eq(a, b), "consecutive snapshots share runs");
        }
        // The extended index still answers like a scan of the database.
        for x in [-1.0, 63.4, 64.5, 199.0, 499.0] {
            assert_eq!(
                now.index.classify(&now.db, &[x, 0.0]).map(|(i, _)| i),
                now.db.classify(&[x, 0.0]).map(|(i, _)| i),
            );
        }
    }

    /// One generated run: characteristics on a coarse grid (so distance
    /// ties occur), over a space of one or two parameters.
    fn arb_run() -> impl Strategy<Value = (Vec<u8>, usize, usize)> {
        (
            proptest::collection::vec(0u8..4, 1..3),
            1usize..=2,
            0usize..=2,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over databases that mix arities, an `Experience` grown one
        /// record at a time picks the prior a plain scan picks, and only
        /// one whose records fit the space.
        #[test]
        fn recorded_experience_picks_the_scanned_prior(
            runs in proptest::collection::vec(arb_run(), 0..24),
            observed in proptest::collection::vec(0u8..4, 1..3),
            arity in 1usize..=2,
            k in 1usize..=3,
        ) {
            let grid = |v: &[u8]| v.iter().map(|&c| f64::from(c) / 4.0).collect::<Vec<f64>>();
            let mut experience = Experience::default();
            for (i, (characteristics, params, records)) in runs.iter().enumerate() {
                let mut run = RunHistory::new(format!("r{i}"), grid(characteristics));
                for r in 0..*records {
                    run.push(&Configuration::new(vec![r as i64; *params]), i as f64);
                }
                experience.record(run);
            }
            let observed = grid(&observed);
            let space = space(arity);
            for classifier in [Classifier::LeastSquares, Classifier::KNearest(k)] {
                let analyzer = DataAnalyzer::new().with_classifier(classifier);
                let scanned = analyzer
                    .select_with(&experience.db, None, &observed)
                    .filter(|run| run.records.iter().all(|r| r.values.len() == arity));
                let prior = experience.prior_for(&analyzer, &space, &observed);
                prop_assert_eq!(prior, scanned);
            }
        }
    }
}
