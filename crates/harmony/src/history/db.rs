//! The data characteristics database.

use crate::history::kmeans::kmeans;
use crate::history::record::RunHistory;
use harmony_linalg::stats::euclidean_sq;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Errors from persisting the database.
#[derive(Debug)]
pub enum DbError {
    /// Filesystem error.
    Io(io::Error),
    /// Serialization error.
    Serde(serde_json::Error),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "experience db io error: {e}"),
            DbError::Serde(e) => write!(f, "experience db serialization error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<io::Error> for DbError {
    fn from(e: io::Error) -> Self {
        DbError::Io(e)
    }
}

impl From<serde_json::Error> for DbError {
    fn from(e: serde_json::Error) -> Self {
        DbError::Serde(e)
    }
}

/// Accumulated tuning experience: one [`RunHistory`] per prior run, keyed
/// by workload characteristics.
///
/// Classification is the paper's least-squares rule: "the classification
/// algorithm returns j such that Σ_k (c_jk − c_ok)² is the minimum".
///
/// # Examples
///
/// ```
/// use harmony::history::{ExperienceDb, RunHistory};
/// use harmony_space::Configuration;
///
/// let mut db = ExperienceDb::new();
/// let mut run = RunHistory::new("monday", vec![0.8, 0.2]);
/// run.push(&Configuration::new(vec![16, 32]), 88.0);
/// db.add_run(run);
///
/// // Tuesday's traffic looks like Monday's: classification finds it.
/// let (idx, matched) = db.classify(&[0.78, 0.22]).unwrap();
/// assert_eq!(idx, 0);
/// assert_eq!(matched.label, "monday");
/// ```
///
/// Runs are immutable once recorded and held behind [`Arc`], so cloning
/// the database copies one pointer per run, and a clone that then
/// appends shares every earlier run with its original — what lets the
/// daemon publish a new snapshot per finished run without copying the
/// experience it already has. The serialized form is that of a plain
/// list of runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperienceDb {
    runs: Vec<Arc<RunHistory>>,
}

impl ExperienceDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stored runs, oldest first.
    pub fn runs(&self) -> &[Arc<RunHistory>] {
        &self.runs
    }

    /// Number of stored runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True if no experience is stored yet.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Record a finished run ("the tuning results may be treated as a new
    /// experience and used to update the data characteristics database").
    /// Takes an owned run or an `Arc` someone else also holds.
    pub fn add_run(&mut self, run: impl Into<Arc<RunHistory>>) {
        self.runs.push(run.into());
    }

    /// Least-squares classification of observed characteristics; returns
    /// the index and run minimizing the squared Euclidean distance, or
    /// `None` if the database is empty or no run has matching
    /// dimensionality.
    pub fn classify(&self, observed: &[f64]) -> Option<(usize, &RunHistory)> {
        let _timer = crate::obs::db_classify_seconds().start_timer();
        // One distance per candidate, no allocation: a running minimum
        // over a single pass (the comparator-based version recomputed
        // both distances on every comparison). Ties keep the earliest
        // run, matching `Iterator::min_by`.
        let mut best: Option<(f64, usize)> = None;
        for (i, r) in self.runs.iter().enumerate() {
            if r.characteristics.len() != observed.len() {
                continue;
            }
            let d = euclidean_sq(&r.characteristics, observed);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, i));
            }
        }
        best.map(|(_, i)| (i, &*self.runs[i]))
    }

    /// The `k` nearest runs, nearest first (for k-NN style analyzers).
    pub fn nearest_k(&self, observed: &[f64], k: usize) -> Vec<(usize, &RunHistory)> {
        // Each candidate's distance is computed exactly once; the k
        // nearest are then picked with an O(n) partial select and only
        // those k sorted. Ties break by run index — the order the old
        // stable full sort produced.
        let mut by_distance: Vec<(f64, usize)> = self
            .runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.characteristics.len() == observed.len())
            .map(|(i, r)| (euclidean_sq(&r.characteristics, observed), i))
            .collect();
        let k = k.min(by_distance.len());
        if k == 0 {
            return Vec::new();
        }
        let cmp = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        if k < by_distance.len() {
            by_distance.select_nth_unstable_by(k - 1, cmp);
            by_distance.truncate(k);
        }
        by_distance.sort_unstable_by(cmp);
        by_distance
            .into_iter()
            .map(|(_, i)| (i, &*self.runs[i]))
            .collect()
    }

    /// Compress the database into at most `k` runs by k-means clustering
    /// the characteristic vectors and merging each cluster's records
    /// (Figure 2 lists k-means among the analyzer's clustering
    /// mechanisms). No-op if the database already fits.
    pub fn compress(&mut self, k: usize) {
        if self.runs.len() <= k || k == 0 {
            return;
        }
        let dims = self.runs[0].characteristics.len();
        if self.runs.iter().any(|r| r.characteristics.len() != dims) {
            return; // heterogeneous characteristics: refuse to merge
        }
        let points: Vec<Vec<f64>> = self
            .runs
            .iter()
            .map(|r| r.characteristics.clone())
            .collect();
        let clustering = kmeans(&points, k, 50);
        let mut merged: Vec<RunHistory> = clustering
            .centroids
            .iter()
            .map(|c| RunHistory::new("merged", c.clone()))
            .collect();
        for (run, &cluster) in self.runs.drain(..).zip(&clustering.assignment) {
            let m = &mut merged[cluster];
            if m.label == "merged" {
                m.label = format!("merged:{}", run.label);
            }
            // Moves the records out when this database held the only
            // reference; copies them only if a clone still shares the run.
            m.records.extend(Arc::unwrap_or_clone(run).records);
        }
        merged.retain(|r| !r.records.is_empty());
        self.runs = merged.into_iter().map(Arc::new).collect();
    }

    /// Train a decision tree mapping characteristics to run indices (for
    /// [`Classifier::DecisionTree`](crate::history::Classifier)). Returns
    /// `None` when the database is empty or characteristics are
    /// heterogeneous in dimension.
    pub fn train_tree(
        &self,
        params: crate::history::TreeParams,
    ) -> Option<crate::history::DecisionTree> {
        if self.runs.is_empty() {
            return None;
        }
        let dims = self.runs[0].characteristics.len();
        if self.runs.iter().any(|r| r.characteristics.len() != dims) {
            return None;
        }
        let samples: Vec<(Vec<f64>, usize)> = self
            .runs
            .iter()
            .enumerate()
            .map(|(i, r)| (r.characteristics.clone(), i))
            .collect();
        Some(crate::history::DecisionTree::fit(&samples, params))
    }

    /// Persist as JSON.
    ///
    /// The write is crash-safe: the JSON goes to a temporary file in the
    /// same directory which is then atomically renamed over `path`, so a
    /// crash mid-write can never leave a truncated database — readers see
    /// either the old contents or the new, complete ones.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DbError> {
        let _timer = crate::obs::db_save_seconds().start_timer();
        let path = path.as_ref();
        let json = serde_json::to_string_pretty(self)?;
        // The temp file must live on the same filesystem as the target
        // for the rename to be atomic, so place it alongside.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let result = (|| {
            {
                use io::Write as _;
                let mut file = fs::File::create(&tmp)?;
                file.write_all(json.as_bytes())?;
                file.sync_all()?;
            }
            fs::rename(&tmp, path)
        })();
        if result.is_err() {
            fs::remove_file(&tmp).ok();
        } else {
            crate::obs::db_saves_total().inc();
        }
        result.map_err(DbError::Io)
    }

    /// Load from JSON.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DbError> {
        let json = fs::read_to_string(path)?;
        Ok(serde_json::from_str(&json)?)
    }

    /// Build a spatial index over the current contents. The index
    /// answers [`classify`](Self::classify) and
    /// [`nearest_k`](Self::nearest_k) queries bit-identically without a
    /// full scan. It covers exactly the runs present now: after
    /// appending, carry it forward with
    /// [`CharacteristicsIndex::extended`](crate::history::CharacteristicsIndex::extended);
    /// after anything else ([`compress`](Self::compress)), build anew.
    pub fn build_index(&self) -> crate::history::CharacteristicsIndex {
        crate::history::CharacteristicsIndex::build(self)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use harmony_space::Configuration;

    fn run(label: &str, ch: Vec<f64>, perf: f64) -> RunHistory {
        let mut r = RunHistory::new(label, ch);
        r.push(&Configuration::new(vec![1, 2]), perf);
        r
    }

    #[test]
    fn classify_picks_nearest() {
        let mut db = ExperienceDb::new();
        db.add_run(run("a", vec![0.0, 0.0], 1.0));
        db.add_run(run("b", vec![1.0, 1.0], 2.0));
        db.add_run(run("c", vec![0.4, 0.4], 3.0));
        let (i, r) = db.classify(&[0.45, 0.5]).unwrap();
        assert_eq!(i, 2);
        assert_eq!(r.label, "c");
        assert!(db.classify(&[]).is_none(), "dimension mismatch filtered");
    }

    #[test]
    fn classify_empty_db_is_none() {
        assert!(ExperienceDb::new().classify(&[0.5]).is_none());
    }

    #[test]
    fn nearest_k_is_sorted() {
        let mut db = ExperienceDb::new();
        db.add_run(run("far", vec![9.0], 0.0));
        db.add_run(run("near", vec![1.1], 0.0));
        db.add_run(run("mid", vec![3.0], 0.0));
        let names: Vec<&str> = db
            .nearest_k(&[1.0], 2)
            .iter()
            .map(|(_, r)| r.label.as_str())
            .collect();
        assert_eq!(names, vec!["near", "mid"]);
    }

    #[test]
    fn compress_merges_clusters() {
        let mut db = ExperienceDb::new();
        for i in 0..4 {
            db.add_run(run(&format!("lo{i}"), vec![0.0 + i as f64 * 0.01], 1.0));
            db.add_run(run(&format!("hi{i}"), vec![10.0 + i as f64 * 0.01], 2.0));
        }
        db.compress(2);
        assert_eq!(db.len(), 2);
        // All 8 records survive, 4 per cluster.
        let total: usize = db.runs().iter().map(|r| r.records.len()).sum();
        assert_eq!(total, 8);
        // Centroids near 0.015 and 10.015 (order unspecified).
        let mut cs: Vec<f64> = db.runs().iter().map(|r| r.characteristics[0]).collect();
        cs.sort_by(|a, b| a.total_cmp(b));
        assert!((cs[0] - 0.015).abs() < 0.1);
        assert!((cs[1] - 10.015).abs() < 0.1);
    }

    #[test]
    fn compress_is_noop_when_small() {
        let mut db = ExperienceDb::new();
        db.add_run(run("a", vec![0.0], 1.0));
        let before = db.clone();
        db.compress(5);
        assert_eq!(db, before);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut db = ExperienceDb::new();
        db.add_run(run("persisted", vec![0.25, 0.75], 42.0));
        let dir = std::env::temp_dir().join("harmony-db-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        db.save(&path).unwrap();
        let back = ExperienceDb::load(&path).unwrap();
        assert_eq!(back, db);
        fs::remove_file(&path).ok();
    }

    /// The runs a fixed-format test writes: negative values, an empty
    /// run, floats with and without a fraction.
    pub(crate) fn fixed_db() -> ExperienceDb {
        let mut db = ExperienceDb::new();
        let mut a = RunHistory::new("shopping", vec![0.25, 0.75]);
        a.push(&Configuration::new(vec![4, -5]), 77.5);
        a.push(&Configuration::new(vec![6, 7]), 80.0);
        db.add_run(a);
        db.add_run(RunHistory::new("empty", vec![]));
        db
    }

    /// Sharing runs behind `Arc` must not show on disk: these are the
    /// bytes the `Vec<RunHistory>` database wrote for the same contents.
    #[test]
    fn snapshot_bytes_are_those_of_a_plain_run_list() {
        const EXPECTED: &str = r#"{
  "runs": [
    {
      "label": "shopping",
      "characteristics": [
        0.25,
        0.75
      ],
      "records": [
        {
          "values": [
            4,
            -5
          ],
          "performance": 77.5
        },
        {
          "values": [
            6,
            7
          ],
          "performance": 80.0
        }
      ]
    },
    {
      "label": "empty",
      "characteristics": [],
      "records": []
    }
  ]
}"#;
        let dir = std::env::temp_dir().join("harmony-db-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fixed-format.json");
        fixed_db().save(&path).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), EXPECTED);
        assert_eq!(ExperienceDb::load(&path).unwrap(), fixed_db());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn arc_serializes_as_its_contents() {
        let run = run("shared", vec![0.5], 3.0);
        let shared = Arc::new(run.clone());
        assert_eq!(
            serde_json::to_string(&shared).unwrap(),
            serde_json::to_string(&run).unwrap()
        );
        let back: Arc<RunHistory> =
            serde_json::from_str(&serde_json::to_string(&shared).unwrap()).unwrap();
        assert_eq!(back, shared);
        let nested: Vec<Arc<Vec<i64>>> = serde_json::from_str("[[1,2],[]]").unwrap();
        assert_eq!(nested, vec![Arc::new(vec![1, 2]), Arc::new(vec![])]);
        assert_eq!(serde_json::to_string(&nested).unwrap(), "[[1,2],[]]");
    }

    #[test]
    fn clones_share_runs_and_appending_to_one_leaves_the_other() {
        let mut db = ExperienceDb::new();
        db.add_run(run("a", vec![0.0], 1.0));
        let shared = Arc::new(run("b", vec![1.0], 2.0));
        db.add_run(Arc::clone(&shared));
        assert!(
            Arc::ptr_eq(&db.runs()[1], &shared),
            "an Arc is stored as is"
        );
        let mut grown = db.clone();
        grown.add_run(run("c", vec![2.0], 3.0));
        assert_eq!((db.len(), grown.len()), (2, 3));
        assert!(Arc::ptr_eq(&db.runs()[0], &grown.runs()[0]));
        assert_eq!(grown.classify(&[1.9]).unwrap().1.label, "c");
        assert_eq!(db.classify(&[1.9]).unwrap().1.label, "b");
    }

    /// Where each record's `values` buffer lives, sorted: merging may
    /// reorder records but a move keeps every buffer where it was.
    fn value_buffers(db: &ExperienceDb) -> Vec<*const i64> {
        let mut at: Vec<*const i64> = db
            .runs()
            .iter()
            .flat_map(|r| r.records.iter().map(|rec| rec.values.as_ptr()))
            .collect();
        at.sort();
        at
    }

    #[test]
    fn compress_moves_records_it_owns_and_copies_only_shared_ones() {
        let mut db = ExperienceDb::new();
        for i in 0..4 {
            db.add_run(run(&format!("r{i}"), vec![i as f64], i as f64));
        }
        let before = value_buffers(&db);

        // Another clone still holds the runs: they must survive intact.
        let mut sharing = db.clone();
        sharing.compress(1);
        assert_eq!(sharing.runs()[0].records.len(), 4);
        assert_eq!(db.len(), 4);
        assert_eq!(value_buffers(&db), before);
        drop(sharing);

        // Sole owner: every record is moved into its merged run.
        db.compress(1);
        assert_eq!(db.runs()[0].records.len(), 4);
        assert_eq!(value_buffers(&db), before);
    }

    #[test]
    fn save_replaces_atomically_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("harmony-db-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.json");

        let mut db = ExperienceDb::new();
        db.add_run(run("first", vec![1.0], 1.0));
        db.save(&path).unwrap();
        db.add_run(run("second", vec![2.0], 2.0));
        db.save(&path).unwrap();

        assert_eq!(ExperienceDb::load(&path).unwrap(), db);
        assert!(
            !dir.join("atomic.json.tmp").exists(),
            "temporary file must not survive a successful save"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn save_into_missing_directory_errors_cleanly() {
        let db = ExperienceDb::new();
        assert!(matches!(
            db.save("/nonexistent/harmony/db.json"),
            Err(DbError::Io(_))
        ));
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(matches!(
            ExperienceDb::load("/nonexistent/harmony/db.json"),
            Err(DbError::Io(_))
        ));
    }
}
