//! The data analyzer (§4.2, Figure 2).
//!
//! "When the input data is fed into the system, the data analyzer will
//! first examine or observe a small number of sample requests to probe the
//! characteristics of the input data. … the data analyzer then applies a
//! machine learning clustering approach … In the current implementation,
//! we use least square error as the classification mechanism. Other
//! classification mechanisms can easily be substituted."

use crate::history::db::ExperienceDb;
use crate::history::index::CharacteristicsIndex;
use crate::history::record::RunHistory;
use crate::history::tree::DecisionTree;

/// Pluggable classification mechanism.
#[derive(Debug, Clone, PartialEq)]
pub enum Classifier {
    /// The paper's default: nearest stored run by squared Euclidean
    /// distance of characteristic vectors.
    LeastSquares,
    /// k-nearest runs, their records merged — more robust when several
    /// prior workloads are about equally close.
    KNearest(usize),
    /// A trained decision tree (Figure 2's "Decision Tree" mechanism)
    /// whose predicted class is a run index in the database — typically
    /// produced by [`ExperienceDb::train_tree`].
    DecisionTree(DecisionTree),
}

/// The analyzer: probes characteristics upstream (callers supply the
/// observed vector), classifies against the database, and hands the tuner
/// the experience to train with.
#[derive(Debug, Clone)]
pub struct DataAnalyzer {
    classifier: Classifier,
    /// A match farther than this (Euclidean distance in characteristic
    /// space) is treated as "never seen before": the paper then falls back
    /// to "the default tuning mechanism (i.e., no training stage)".
    max_match_distance: f64,
}

impl Default for DataAnalyzer {
    fn default() -> Self {
        DataAnalyzer {
            classifier: Classifier::LeastSquares,
            max_match_distance: f64::INFINITY,
        }
    }
}

impl DataAnalyzer {
    /// Analyzer with the paper's least-squares classifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Substitute the classification mechanism.
    pub fn with_classifier(mut self, c: Classifier) -> Self {
        self.classifier = c;
        self
    }

    /// Reject matches farther than `d` (characteristic-space Euclidean
    /// distance).
    pub fn with_max_match_distance(mut self, d: f64) -> Self {
        assert!(d >= 0.0, "distance threshold must be non-negative");
        self.max_match_distance = d;
        self
    }

    /// Select the experience to train from, or `None` when the workload is
    /// effectively new. `index`, when given, is a prebuilt
    /// [`CharacteristicsIndex`] over `db`'s current contents: the
    /// distance-based classifiers then answer from the k-d partition
    /// instead of scanning every run. Results are bit-identical either
    /// way; [`Experience::prior_for`](crate::history::Experience::prior_for)
    /// passes its own index.
    pub fn select_with(
        &self,
        db: &ExperienceDb,
        index: Option<&CharacteristicsIndex>,
        observed: &[f64],
    ) -> Option<RunHistory> {
        match &self.classifier {
            Classifier::DecisionTree(tree) => {
                if tree.features() != observed.len() {
                    return None;
                }
                let idx = tree.predict(observed);
                let run: &RunHistory = db.runs().get(idx)?;
                self.within(observed, run).then(|| run.clone())
            }
            Classifier::LeastSquares => {
                let (_, run) = match index {
                    Some(ix) => ix.classify(db, observed)?,
                    None => db.classify(observed)?,
                };
                self.within(observed, run).then(|| run.clone())
            }
            Classifier::KNearest(k) => {
                let near = match index {
                    Some(ix) => ix.nearest_k(db, observed, (*k).max(1)),
                    None => db.nearest_k(observed, (*k).max(1)),
                };
                let within: Vec<&RunHistory> = near
                    .into_iter()
                    .map(|(_, r)| r)
                    .filter(|r| self.within(observed, r))
                    .collect();
                if within.is_empty() {
                    return None;
                }
                let mut merged = RunHistory::new(
                    format!(
                        "knn:{}",
                        within
                            .iter()
                            .map(|r| r.label.as_str())
                            .collect::<Vec<_>>()
                            .join("+")
                    ),
                    observed.to_vec(),
                );
                for r in within {
                    merged.records.extend(r.records.iter().cloned());
                }
                Some(merged)
            }
        }
    }

    fn within(&self, observed: &[f64], run: &RunHistory) -> bool {
        harmony_linalg::stats::euclidean(&run.characteristics, observed) <= self.max_match_distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_space::Configuration;

    fn db() -> ExperienceDb {
        let mut db = ExperienceDb::new();
        let mut a = RunHistory::new("a", vec![0.0, 0.0]);
        a.push(&Configuration::new(vec![1]), 10.0);
        let mut b = RunHistory::new("b", vec![1.0, 0.0]);
        b.push(&Configuration::new(vec![2]), 20.0);
        let mut c = RunHistory::new("c", vec![0.0, 1.0]);
        c.push(&Configuration::new(vec![3]), 30.0);
        db.add_run(a);
        db.add_run(b);
        db.add_run(c);
        db
    }

    #[test]
    fn least_squares_selects_nearest() {
        let an = DataAnalyzer::new();
        let sel = an.select_with(&db(), None, &[0.9, 0.1]).unwrap();
        assert_eq!(sel.label, "b");
    }

    #[test]
    fn distance_gate_rejects_far_matches() {
        let an = DataAnalyzer::new().with_max_match_distance(0.2);
        assert!(
            an.select_with(&db(), None, &[0.5, 0.5]).is_none(),
            "all runs are ~0.7 away"
        );
        assert!(an.select_with(&db(), None, &[0.05, 0.05]).is_some());
    }

    #[test]
    fn knn_merges_records() {
        let an = DataAnalyzer::new().with_classifier(Classifier::KNearest(2));
        let sel = an.select_with(&db(), None, &[0.4, 0.4]).unwrap();
        assert_eq!(sel.records.len(), 2, "two nearest runs merged");
        assert!(sel.label.starts_with("knn:"));
        assert_eq!(sel.characteristics, vec![0.4, 0.4]);
    }

    #[test]
    fn knn_respects_distance_gate() {
        let an = DataAnalyzer::new()
            .with_classifier(Classifier::KNearest(3))
            .with_max_match_distance(0.5);
        // Only run "a" is within 0.5 of the origin-ish observation.
        let sel = an.select_with(&db(), None, &[0.1, 0.1]).unwrap();
        assert_eq!(sel.records.len(), 1);
    }

    #[test]
    fn select_with_index_matches_unindexed_select() {
        let database = db();
        let index = database.build_index();
        for classifier in [Classifier::LeastSquares, Classifier::KNearest(2)] {
            let an = DataAnalyzer::new().with_classifier(classifier);
            for observed in [&[0.9, 0.1][..], &[0.4, 0.4], &[0.05, 0.05], &[0.5]] {
                assert_eq!(
                    an.select_with(&database, Some(&index), observed),
                    an.select_with(&database, None, observed),
                    "at {observed:?}"
                );
            }
        }
    }

    #[test]
    fn empty_db_yields_none() {
        let an = DataAnalyzer::new();
        assert!(an.select_with(&ExperienceDb::new(), None, &[0.1]).is_none());
    }

    #[test]
    fn decision_tree_classifier_selects_runs() {
        let database = db();
        let tree = database
            .train_tree(crate::history::TreeParams::default())
            .expect("trainable");
        let an = DataAnalyzer::new().with_classifier(Classifier::DecisionTree(tree));
        // The tree memorizes the three stored characteristic vectors.
        let sel = an.select_with(&database, None, &[1.0, 0.0]).unwrap();
        assert_eq!(sel.label, "b");
        let sel = an.select_with(&database, None, &[0.0, 1.0]).unwrap();
        assert_eq!(sel.label, "c");
        // Wrong arity: treated as unclassifiable.
        assert!(an.select_with(&database, None, &[0.5]).is_none());
    }

    #[test]
    fn decision_tree_respects_the_distance_gate() {
        let database = db();
        let tree = database
            .train_tree(crate::history::TreeParams::default())
            .expect("trainable");
        let an = DataAnalyzer::new()
            .with_classifier(Classifier::DecisionTree(tree))
            .with_max_match_distance(0.1);
        // The tree will pick *some* run for a far-away observation, but
        // the gate rejects it.
        assert!(an.select_with(&database, None, &[5.0, 5.0]).is_none());
    }

    #[test]
    fn train_tree_empty_db_is_none() {
        assert!(ExperienceDb::new()
            .train_tree(crate::history::TreeParams::default())
            .is_none());
    }
}
