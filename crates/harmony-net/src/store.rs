//! The daemon's experience store: the serving snapshot, the background
//! flusher that makes recorded runs durable, and the path a session's
//! run takes into both.
//!
//! The experience database is an **atomic snapshot**: readers
//! (`SessionStart` classification, `DbQuery`) grab an `Arc<Experience>`
//! — an immutable [`Experience`], the database plus the
//! [`CharacteristicsIndex`](harmony::history::CharacteristicsIndex) that
//! answers for exactly its runs — with nothing but a pointer load, so
//! they never wait on a writer. Recording a finished run costs that run,
//! not the database: the next snapshot is a clone of the current one
//! (runs sit behind `Arc` and the index shares its trees, so the copy is
//! a list of pointers) that records the run, then swaps the pointer
//! under a small writer mutex; only concurrent *writers* serialize, and
//! the swap itself holds the read path's lock for a single pointer
//! store.
//!
//! Durability runs off the request path entirely: the same `Arc` that
//! went into the snapshot is handed to a background *flusher* thread
//! which appends it to a write-ahead journal (see
//! [`harmony::history::wal`]) and periodically folds everything it has
//! journaled into a fresh whole-file snapshot (*compaction*). A slow
//! disk therefore delays nothing but the flusher.

use crate::server::{Outbox, Shared};
use harmony::history::wal::{self, WalWriter};
use harmony::history::{DbError, Experience, ExperienceDb, RunHistory};
use harmony_obs::event::{event, Level};
use harmony_obs::trace::{self, stage};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex, RwLock};

/// Where the background flusher puts recorded runs.
///
/// The daemon's default sink journals to a [`WalWriter`] and compacts to
/// the snapshot file; tests inject slow or failing sinks via
/// [`TuningDaemon::start_with_sink`](crate::server::TuningDaemon::start_with_sink)
/// to exercise the decoupling.
pub trait DbSink: Send {
    /// Append one recorded run to durable storage.
    fn append(&mut self, run: &RunHistory) -> Result<(), DbError>;
    /// Barrier after a batch of appends (an `fsync`, typically).
    fn sync(&mut self) -> Result<(), DbError> {
        Ok(())
    }
    /// Fold the full database into a compacted snapshot, superseding
    /// everything appended so far. `db` is the database the daemon
    /// loaded at start plus every run handed to
    /// [`append`](Self::append) since, in that order — never a run this
    /// sink has not been given yet.
    fn compact(&mut self, db: &ExperienceDb) -> Result<(), DbError>;
}

/// The standard sink: WAL appends plus whole-file snapshot compaction.
pub struct FileSink {
    snapshot: PathBuf,
    wal: WalWriter,
}

impl FileSink {
    /// Open (creating if needed) the journal next to the snapshot.
    pub fn open(snapshot: PathBuf, journal: PathBuf) -> Result<FileSink, DbError> {
        Ok(FileSink {
            snapshot,
            wal: WalWriter::open(journal)?,
        })
    }
}

impl DbSink for FileSink {
    fn append(&mut self, run: &RunHistory) -> Result<(), DbError> {
        self.wal.append_run(run)
    }

    fn sync(&mut self) -> Result<(), DbError> {
        self.wal.sync()
    }

    fn compact(&mut self, db: &ExperienceDb) -> Result<(), DbError> {
        wal::compact(db, &self.snapshot, &mut self.wal)
    }
}

/// Atomic-snapshot cell: readers clone an `Arc` under a momentary read
/// lock; writers serialize on `writer`, prepare the successor snapshot
/// outside any lock the readers see, then swap the pointer.
pub(crate) struct DbCell {
    current: RwLock<Arc<Experience>>,
    writer: Mutex<()>,
}

impl DbCell {
    pub(crate) fn new(db: ExperienceDb) -> DbCell {
        DbCell {
            current: RwLock::new(Arc::new(Experience::new(db))),
            writer: Mutex::new(()),
        }
    }

    /// The current snapshot — a pointer clone, never blocked by writers.
    pub(crate) fn load(&self) -> Arc<Experience> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Append by succession: the next snapshot is a clone of the
    /// current one that records `run`, so the cost is the one run, not
    /// the database. The run gauge moves with the swap, under the writer
    /// lock, so concurrent appends cannot leave it behind the database.
    pub(crate) fn add_run(&self, run: Arc<RunHistory>) {
        let _writing = self.writer.lock().expect("writer lock poisoned");
        let mut next = Experience::clone(&self.load());
        next.record(run);
        crate::obs::db_runs().set(next.db().len() as i64);
        *self.current.write().expect("snapshot lock poisoned") = Arc::new(next);
        crate::obs::db_snapshot_swaps_total().inc();
    }
}

/// The background flusher: drains recorded runs, appends them to the
/// sink in coalesced batches, and compacts every
/// [`DaemonConfig::compact_every`](crate::server::DaemonConfig::compact_every)
/// appends plus once at shutdown.
///
/// `journaled` is the flusher's own database: what the daemon loaded at
/// start, plus each run as it is appended, in journal order. Compaction
/// writes that and never the serving snapshot, which may already hold
/// runs still queued in `rx` — snapshotting those and then journaling
/// them after the truncation would store them twice.
pub(crate) fn flusher_loop(
    rx: mpsc::Receiver<Arc<RunHistory>>,
    mut sink: Box<dyn DbSink>,
    mut journaled: ExperienceDb,
    compact_every: usize,
) {
    let mut since_compact = 0usize;
    while let Ok(first) = rx.recv() {
        // Coalesce whatever queued up while the last batch was on disk:
        // a slow sink batches harder instead of falling further behind.
        let mut batch = vec![first];
        while let Ok(more) = rx.try_recv() {
            batch.push(more);
        }
        since_compact += batch.len();
        for run in batch {
            if let Err(e) = sink.append(&run) {
                persist_failure("net.db_wal_append_failed", &e);
            }
            // Kept even when the append failed: the next compaction is
            // that run's second chance to reach the disk.
            journaled.add_run(run);
        }
        if let Err(e) = sink.sync() {
            persist_failure("net.db_wal_sync_failed", &e);
        }
        if compact_every > 0 && since_compact >= compact_every {
            compact_now(&journaled, sink.as_mut());
            since_compact = 0;
        }
    }
    // Channel closed: final fold so a plain snapshot load sees
    // everything (the restart path reads snapshot + journal anyway).
    compact_now(&journaled, sink.as_mut());
}

fn compact_now(journaled: &ExperienceDb, sink: &mut dyn DbSink) {
    if let Err(e) = sink.compact(journaled) {
        persist_failure("net.db_compact_failed", &e);
    }
}

fn persist_failure(what: &'static str, e: &DbError) {
    crate::obs::db_persist_failures_total().inc();
    event(Level::Error, what).str("error", e.to_string()).emit();
}

/// Fold the run a finished (or abandoned) session measured into the
/// shared database and queue it for the flusher and the cluster. A
/// session that measured nothing leaves no run.
pub(crate) fn record_session(run: RunHistory, converged: bool, shared: &Shared, out: &mut Outbox) {
    let best = run.best().map_or(f64::NEG_INFINITY, |r| r.performance);
    event(Level::Info, "net.session_record")
        .str("label", &run.label)
        .u64("iterations", run.records.len() as u64)
        .f64("best", best)
        .bool("converged", converged)
        .emit();
    if !run.records.is_empty() {
        let _span = trace::child(stage::WAL_APPEND, &run.label);
        shared.record_run_and_replicate(Arc::new(run), out);
    }
    shared.completed.fetch_add(1, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony::history::DataAnalyzer;
    use harmony_space::{Configuration, ParamDef, ParameterSpace};

    /// Appends from several threads serialize on the writer lock: no
    /// run is lost and the carried-forward index covers them all.
    #[test]
    fn concurrent_appends_leave_every_run_in_the_snapshot() {
        let cell = Arc::new(DbCell::new(ExperienceDb::new()));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let x = (w * 50 + i) as f64;
                        let mut run = RunHistory::new(format!("w{w}-{i}"), vec![x, 0.0]);
                        run.push(&Configuration::new(vec![1, 2]), x);
                        cell.add_run(Arc::new(run));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let snap = cell.load();
        assert_eq!(snap.db().len(), 200);
        let mut labels: Vec<&str> = snap.db().runs().iter().map(|r| r.label.as_str()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 200);
        let space = ParameterSpace::builder()
            .param(ParamDef::int("x", 0, 9, 0, 1))
            .param(ParamDef::int("y", 0, 9, 0, 1))
            .build()
            .unwrap();
        for run in snap.db().runs() {
            let prior = snap.prior_for(&DataAnalyzer::new(), &space, &run.characteristics);
            assert_eq!(prior.as_ref().map(|p| &p.label), Some(&run.label));
        }
    }
}
