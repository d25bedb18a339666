//! Write-ahead journal for the experience database.
//!
//! Whole-file JSON snapshots (see [`ExperienceDb::save`]) are crash-safe
//! but O(database) per completed run — too slow for a daemon recording
//! experience under load. The journal makes recording O(run): each
//! finished [`RunHistory`] is appended as one compact JSON line, and the
//! snapshot is only rewritten at *compaction* time, after many appends.
//!
//! Format: one serialized [`RunHistory`] per `\n`-terminated line.
//! Durability model: a run is durable once its line is flushed; a crash
//! mid-append can leave at most one truncated final line, which
//! [`replay`] tolerates (a torn or unparseable *last* line is dropped,
//! matching what an interrupted `write` can physically produce; garbage
//! earlier in the journal is a real error and refuses to load).
//!
//! Recovery is `load_with_wal(snapshot, journal)`: the snapshot provides
//! the compacted prefix, the journal the suffix of runs recorded since.

use crate::history::db::{DbError, ExperienceDb};
use crate::history::record::RunHistory;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Appends runs to a journal file, one JSON line per run.
///
/// The file handle stays open across appends; every append ends with a
/// `flush` so the line reaches the OS before the writer moves on. Use
/// [`WalWriter::sync`] (or let a batch boundary call it) for an `fsync`
/// that survives power loss.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: fs::File,
    /// Lines appended since the journal was opened or last truncated.
    appended: usize,
}

impl WalWriter {
    /// Open (creating or appending to) the journal at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, DbError> {
        let path = path.into();
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(WalWriter {
            path,
            file,
            appended: 0,
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lines appended through this writer since open or last truncation.
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// Append one run as a single JSON line and flush it to the OS.
    pub fn append_run(&mut self, run: &RunHistory) -> Result<(), DbError> {
        let _timer = crate::obs::wal_flush_seconds().start_timer();
        let mut line = serde_json::to_vec(run)?;
        line.push(b'\n');
        // One write call per line: concurrent readers (and a crash) see
        // whole lines plus at most one torn tail, never interleaving.
        self.file.write_all(&line)?;
        self.file.flush()?;
        self.appended += 1;
        crate::obs::wal_appends_total().inc();
        Ok(())
    }

    /// `fsync` the journal file.
    pub fn sync(&self) -> Result<(), DbError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Truncate the journal after its contents were folded into a
    /// snapshot. The file handle is reopened so subsequent appends start
    /// at offset zero.
    pub fn truncate(&mut self) -> Result<(), DbError> {
        self.file = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&self.path)?;
        // Back to append mode for subsequent writes.
        self.file = fs::OpenOptions::new().append(true).open(&self.path)?;
        self.appended = 0;
        Ok(())
    }
}

/// Replay a journal into a list of runs, oldest first.
///
/// A missing file is an empty journal. A truncated or corrupt *final*
/// line (the signature of a crash mid-append) is ignored; corruption
/// anywhere else is a [`DbError`], because it means the journal was
/// damaged rather than merely interrupted.
pub fn replay(path: impl AsRef<Path>) -> Result<Vec<RunHistory>, DbError> {
    let text = match fs::read_to_string(path.as_ref()) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(DbError::Io(e)),
    };
    let mut runs = Vec::new();
    let lines: Vec<&str> = text.split('\n').collect();
    for (i, line) in lines.iter().enumerate() {
        if line.is_empty() {
            continue;
        }
        match serde_json::from_str::<RunHistory>(line) {
            Ok(run) => runs.push(run),
            // Only the final non-empty chunk may be torn. (If the last
            // line is '\n'-terminated, `split` yields a trailing empty
            // chunk, so i == len-2 covers that layout too.)
            Err(_) if i + 2 >= lines.len() => break,
            Err(e) => return Err(DbError::Serde(e)),
        }
    }
    Ok(runs)
}

/// Load a database from a snapshot plus its journal: the snapshot (when
/// present) seeds the runs, then journal lines are replayed on top —
/// exactly the state the writing daemon held in memory.
pub fn load_with_wal(
    snapshot: impl AsRef<Path>,
    journal: impl AsRef<Path>,
) -> Result<ExperienceDb, DbError> {
    let mut db = match snapshot.as_ref().exists() {
        true => ExperienceDb::load(snapshot)?,
        false => ExperienceDb::new(),
    };
    for run in replay(journal)? {
        db.add_run(run);
    }
    Ok(db)
}

/// Compact: atomically write `db` as the snapshot (tmp+rename, see
/// [`ExperienceDb::save`]) and truncate the journal it supersedes.
pub fn compact(
    db: &ExperienceDb,
    snapshot: impl AsRef<Path>,
    wal: &mut WalWriter,
) -> Result<(), DbError> {
    db.save(snapshot)?;
    wal.truncate()?;
    crate::obs::db_compactions_total().inc();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_space::Configuration;

    fn run(label: &str, ch: Vec<f64>, perf: f64) -> RunHistory {
        let mut r = RunHistory::new(label, ch);
        r.push(&Configuration::new(vec![1, 2]), perf);
        r
    }

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("harmony-wal-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        fs::remove_file(&path).ok();
        path
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = temp("roundtrip.wal");
        let mut w = WalWriter::open(&path).unwrap();
        w.append_run(&run("a", vec![0.1], 1.0)).unwrap();
        w.append_run(&run("b", vec![0.2], 2.0)).unwrap();
        assert_eq!(w.appended(), 2);
        let runs = replay(&path).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].label, "a");
        assert_eq!(runs[1].label, "b");
        fs::remove_file(&path).ok();
    }

    /// The journal takes runs out of an `Arc`-sharing database and must
    /// write the lines it always wrote.
    #[test]
    fn journal_bytes_are_one_compact_line_per_run() {
        let path = temp("fixed-format.wal");
        let mut w = WalWriter::open(&path).unwrap();
        let db = crate::history::db::tests::fixed_db();
        for r in db.runs() {
            w.append_run(r).unwrap();
        }
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            concat!(
                r#"{"label":"shopping","characteristics":[0.25,0.75],"records":"#,
                r#"[{"values":[4,-5],"performance":77.5},{"values":[6,7],"performance":80.0}]}"#,
                "\n",
                r#"{"label":"empty","characteristics":[],"records":[]}"#,
                "\n"
            )
        );
        assert_eq!(
            load_with_wal("/nonexistent/harmony/s.json", &path).unwrap(),
            db
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_is_empty() {
        assert!(replay("/nonexistent/harmony/x.wal").unwrap().is_empty());
    }

    #[test]
    fn truncated_final_line_replays_cleanly() {
        let path = temp("torn.wal");
        let mut w = WalWriter::open(&path).unwrap();
        w.append_run(&run("whole", vec![0.5], 5.0)).unwrap();
        // Simulate a crash mid-append: half a JSON line, no newline.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"label\":\"torn\",\"charac").unwrap();
        drop(f);
        let runs = replay(&path).unwrap();
        assert_eq!(runs.len(), 1, "torn tail dropped");
        assert_eq!(runs[0].label, "whole");
    }

    #[test]
    fn corruption_before_the_tail_is_an_error() {
        let path = temp("corrupt.wal");
        fs::write(&path, "garbage-not-json\n{\"also\":\"bad\"\n").unwrap();
        // First line is corrupt and is NOT the final line: refuse.
        assert!(replay(&path).is_err());
    }

    #[test]
    fn load_with_wal_equals_writer_state() {
        let snap = temp("state.json");
        let wal = temp("state.wal");
        let mut db = ExperienceDb::new();
        db.add_run(run("compacted", vec![1.0], 1.0));
        db.save(&snap).unwrap();
        let mut w = WalWriter::open(&wal).unwrap();
        let fresh = run("journaled", vec![2.0], 2.0);
        w.append_run(&fresh).unwrap();
        db.add_run(fresh);

        let loaded = load_with_wal(&snap, &wal).unwrap();
        assert_eq!(loaded, db, "snapshot + journal == in-memory db");
    }

    #[test]
    fn load_with_wal_without_snapshot_is_journal_only() {
        let wal = temp("nosnap.wal");
        let mut w = WalWriter::open(&wal).unwrap();
        w.append_run(&run("only", vec![3.0], 3.0)).unwrap();
        let loaded = load_with_wal("/nonexistent/harmony/s.json", &wal).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.runs()[0].label, "only");
    }

    #[test]
    fn compaction_snapshot_equals_in_memory_db_and_truncates() {
        let snap = temp("compact.json");
        let wal = temp("compact.wal");
        let mut w = WalWriter::open(&wal).unwrap();
        let mut db = ExperienceDb::new();
        for i in 0..5 {
            let r = run(&format!("r{i}"), vec![i as f64], i as f64);
            w.append_run(&r).unwrap();
            db.add_run(r);
        }
        compact(&db, &snap, &mut w).unwrap();
        assert_eq!(ExperienceDb::load(&snap).unwrap(), db);
        assert_eq!(fs::metadata(&wal).unwrap().len(), 0, "journal truncated");
        assert_eq!(w.appended(), 0);
        // The writer stays usable after truncation.
        w.append_run(&run("post", vec![9.0], 9.0)).unwrap();
        assert_eq!(load_with_wal(&snap, &wal).unwrap().len(), 6);
    }
}
