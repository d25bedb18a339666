//! Historical data: the experience database and the data analyzer (§4.2).
//!
//! "During the tuning process, Active Harmony will keep a record of all
//! the parameter values together with the associated performance results.
//! … The tuning experience with associated input request characteristics
//! will be accumulated in the database for future reference."

mod analyzer;
mod db;
mod experience;
mod index;
mod kmeans;
mod record;
mod tree;
pub mod wal;

pub use analyzer::{Classifier, DataAnalyzer};
pub use db::{DbError, ExperienceDb};
pub use experience::Experience;
pub use index::CharacteristicsIndex;
pub use kmeans::kmeans;
pub use record::{RunHistory, TuningRecord};
pub use tree::{DecisionTree, TreeParams};
