//! Spatial index over run characteristics: k-d partitioning for
//! `classify`/`nearest_k` without a full linear scan.
//!
//! The linear rules being accelerated (see [`ExperienceDb::classify`]
//! and [`ExperienceDb::nearest_k`]) are exact and deterministic, so the
//! index must be too: for any database and query, the indexed answers
//! are **bit-identical** to the linear ones — same runs, same order,
//! same tie-breaks (smallest run index wins among equal distances).
//! Distances are computed by the same [`euclidean_sq`] call on the same
//! slices, so even float round-off is shared with the scan.
//!
//! Runs may have characteristic vectors of different lengths; the scan
//! simply skips mismatched runs. The index mirrors that by building one
//! tree per dimensionality group and answering a query only from the
//! group matching `observed.len()`. Groups too small for a tree to pay
//! for itself fall back to an exact linear scan of the group.
//!
//! The database only ever grows by appending, and a daemon appends one
//! run per finished session, so the index is **extended, not rebuilt**:
//! [`CharacteristicsIndex::extended`] shares the existing trees and
//! records that the newest runs are a *tail* outside them, which every
//! query finishes with a short linear pass. Both the tree walk and the
//! tail pass keep the same `(distance, run index)` minimum, so the answer
//! does not depend on which of them saw a run. Once the tail reaches
//! [`REBUILD_TAIL`] runs the trees are rebuilt over everything.

use crate::history::db::ExperienceDb;
use crate::history::record::RunHistory;
use harmony_linalg::stats::euclidean_sq;
use std::sync::Arc;

/// Below this many points a group stays a flat list: pointer-chasing a
/// tree loses to scanning a handful of vectors.
const LINEAR_FALLBACK: usize = 16;

/// [`CharacteristicsIndex::extended`] rebuilds the trees once this many
/// runs sit outside them. A constant, not a share of the database: it
/// bounds what the tail adds to a query (at most this many distances,
/// about what one `LINEAR_FALLBACK` group already costs per dimension)
/// however large the database grows, while a rebuild every `REBUILD_TAIL`
/// appends spreads its O(n log n) over enough of them to disappear beside
/// recording the runs themselves.
const REBUILD_TAIL: usize = 64;

/// One node of a k-d tree over the points of a dimensionality group.
#[derive(Debug, Clone)]
struct KdNode {
    /// Index into the group's point list (which stores global run ids).
    point: usize,
    /// Splitting axis (depth % dims).
    axis: usize,
    left: Option<Box<KdNode>>,
    right: Option<Box<KdNode>>,
}

/// All runs sharing one characteristic-vector length.
#[derive(Debug, Clone)]
struct DimGroup {
    /// Global run indices, ascending (insertion order of the db).
    runs: Vec<usize>,
    /// Tree over `runs` positions; `None` for small (linear) groups.
    root: Option<KdNode>,
}

/// An immutable spatial index over one [`ExperienceDb`] state.
///
/// [Built](ExperienceDb::build_index) from a database, or
/// [`extended`](Self::extended) from the index of that database's
/// predecessor when runs were only appended; either way it then answers
/// any number of queries. The index holds no copies of the
/// characteristic vectors — only run indices — so it must be queried
/// against the database it was built or extended for (checked by length
/// in debug builds).
#[derive(Debug, Clone, Default)]
pub struct CharacteristicsIndex {
    /// Groups keyed by dimensionality, sorted by dims for determinism,
    /// over runs `..indexed`. Shared with every index extended from
    /// this one.
    groups: Arc<[(usize, DimGroup)]>,
    /// Runs the groups cover; `indexed..runs` is the tail queries scan.
    indexed: usize,
    /// Size of the database this index answers for.
    runs: usize,
}

impl CharacteristicsIndex {
    /// Build the index for the database's current contents.
    pub fn build(db: &ExperienceDb) -> Self {
        let mut by_dims: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, r) in db.runs().iter().enumerate() {
            let d = r.characteristics.len();
            match by_dims.iter_mut().find(|(dims, _)| *dims == d) {
                Some((_, v)) => v.push(i),
                None => by_dims.push((d, vec![i])),
            }
        }
        by_dims.sort_by_key(|(dims, _)| *dims);
        let groups = by_dims
            .into_iter()
            .map(|(dims, runs)| {
                let root = if runs.len() >= LINEAR_FALLBACK && dims > 0 {
                    let mut positions: Vec<usize> = (0..runs.len()).collect();
                    Some(build_node(db, &runs, &mut positions, dims, 0))
                } else {
                    None
                };
                (dims, DimGroup { runs, root })
            })
            .collect();
        CharacteristicsIndex {
            groups,
            indexed: db.len(),
            runs: db.len(),
        }
    }

    /// The index for `db`, a database that grew from the one `self`
    /// answers for by appending runs (the first [`len`](Self::len) runs
    /// are unchanged). The trees are shared rather than copied and the
    /// appended runs join the tail, so this costs nothing per stored run
    /// — until the tail reaches `REBUILD_TAIL` and the trees are built
    /// anew over all of `db`.
    pub fn extended(&self, db: &ExperienceDb) -> Self {
        debug_assert!(self.runs <= db.len(), "db shrank under its index");
        if db.len() - self.indexed >= REBUILD_TAIL {
            return Self::build(db);
        }
        CharacteristicsIndex {
            groups: Arc::clone(&self.groups),
            indexed: self.indexed,
            runs: db.len(),
        }
    }

    /// Number of runs the index covers.
    pub fn len(&self) -> usize {
        self.runs
    }

    /// True when the index covers no runs.
    pub fn is_empty(&self) -> bool {
        self.runs == 0
    }

    /// Indexed equivalent of [`ExperienceDb::classify`]: the run
    /// minimizing squared Euclidean distance to `observed`, earliest run
    /// winning ties. Bit-identical to the linear scan.
    pub fn classify<'db>(
        &self,
        db: &'db ExperienceDb,
        observed: &[f64],
    ) -> Option<(usize, &'db RunHistory)> {
        debug_assert_eq!(self.runs, db.len(), "index is stale for this db");
        let _timer = crate::obs::db_classify_seconds().start_timer();
        let mut best: Option<(f64, usize)> = None;
        if let Some(group) = self.group(observed.len()) {
            match &group.root {
                None => {
                    for &i in &group.runs {
                        consider(db, i, observed, &mut best);
                    }
                }
                Some(root) => {
                    search_nearest(db, group, root, observed, &mut best);
                }
            }
        }
        for i in self.tail(db, observed.len()) {
            consider(db, i, observed, &mut best);
        }
        best.map(|(_, i)| (i, &*db.runs()[i]))
    }

    /// Indexed equivalent of [`ExperienceDb::nearest_k`]: the `k`
    /// nearest runs, nearest first, ties by run index. Bit-identical to
    /// the linear scan.
    pub fn nearest_k<'db>(
        &self,
        db: &'db ExperienceDb,
        observed: &[f64],
        k: usize,
    ) -> Vec<(usize, &'db RunHistory)> {
        debug_assert_eq!(self.runs, db.len(), "index is stale for this db");
        if k == 0 {
            return Vec::new();
        }
        let mut best = KBest::new(k);
        if let Some(group) = self.group(observed.len()) {
            match &group.root {
                None => {
                    for &i in &group.runs {
                        best.offer(euclidean_sq(&db.runs()[i].characteristics, observed), i);
                    }
                }
                Some(root) => search_k(db, group, root, observed, &mut best),
            }
        }
        for i in self.tail(db, observed.len()) {
            best.offer(euclidean_sq(&db.runs()[i].characteristics, observed), i);
        }
        best.into_sorted()
            .into_iter()
            .map(|(_, i)| (i, &*db.runs()[i]))
            .collect()
    }

    fn group(&self, dims: usize) -> Option<&DimGroup> {
        self.groups.iter().find(|(d, _)| *d == dims).map(|(_, g)| g)
    }

    /// Runs of dimensionality `dims` appended since the groups were
    /// built. Scanned whether or not a group for `dims` exists: a
    /// dimensionality may have appeared only in the tail.
    fn tail<'a>(&self, db: &'a ExperienceDb, dims: usize) -> impl Iterator<Item = usize> + 'a {
        (self.indexed..self.runs).filter(move |&i| db.runs()[i].characteristics.len() == dims)
    }
}

/// Update a running `(distance, run index)` minimum with the linear
/// scan's exact rule: strictly smaller distance wins; an equal distance
/// wins only with a smaller run index.
fn consider(db: &ExperienceDb, i: usize, observed: &[f64], best: &mut Option<(f64, usize)>) {
    let d = euclidean_sq(&db.runs()[i].characteristics, observed);
    let better = match best {
        None => true,
        Some((bd, bi)) => d < *bd || (d == *bd && i < *bi),
    };
    if better {
        *best = Some((d, i));
    }
}

fn coordinate(db: &ExperienceDb, run: usize, axis: usize) -> f64 {
    db.runs()[run].characteristics[axis]
}

/// Build a k-d node over `positions` (indices into `runs`), splitting on
/// `depth % dims` at the median. Ties on the split coordinate break by
/// run index so construction is deterministic.
fn build_node(
    db: &ExperienceDb,
    runs: &[usize],
    positions: &mut [usize],
    dims: usize,
    depth: usize,
) -> KdNode {
    let axis = depth % dims;
    let mid = positions.len() / 2;
    positions.select_nth_unstable_by(mid, |&a, &b| {
        coordinate(db, runs[a], axis)
            .total_cmp(&coordinate(db, runs[b], axis))
            .then(runs[a].cmp(&runs[b]))
    });
    let point = positions[mid];
    let (lo, rest) = positions.split_at_mut(mid);
    let hi = &mut rest[1..];
    KdNode {
        point,
        axis,
        left: (!lo.is_empty()).then(|| Box::new(build_node(db, runs, lo, dims, depth + 1))),
        right: (!hi.is_empty()).then(|| Box::new(build_node(db, runs, hi, dims, depth + 1))),
    }
}

/// Nearest-neighbour descent. A subtree is pruned only when the squared
/// distance to its splitting plane strictly exceeds the best distance:
/// at exactly the best distance the far side could still hold an
/// equal-distance run with a smaller index, which the linear scan would
/// prefer.
fn search_nearest(
    db: &ExperienceDb,
    group: &DimGroup,
    node: &KdNode,
    observed: &[f64],
    best: &mut Option<(f64, usize)>,
) {
    let run = group.runs[node.point];
    consider(db, run, observed, best);
    let delta = observed[node.axis] - coordinate(db, run, node.axis);
    let (near, far) = if delta <= 0.0 {
        (&node.left, &node.right)
    } else {
        (&node.right, &node.left)
    };
    if let Some(n) = near {
        search_nearest(db, group, n, observed, best);
    }
    if let Some(f) = far {
        let plane_sq = delta * delta;
        match best {
            Some((bd, _)) if plane_sq > *bd => {}
            _ => search_nearest(db, group, f, observed, best),
        }
    }
}

/// Bounded best-k set ordered by `(distance, run index)` — the same
/// total order the linear `nearest_k` sorts by.
struct KBest {
    k: usize,
    /// Kept sorted ascending; `last` is the current worst of the k.
    items: Vec<(f64, usize)>,
}

impl KBest {
    fn new(k: usize) -> Self {
        KBest {
            k,
            items: Vec::with_capacity(k + 1),
        }
    }

    fn cmp(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    }

    /// Current worst kept distance, once the set is full.
    fn bound(&self) -> Option<f64> {
        (self.items.len() == self.k).then(|| self.items[self.k - 1].0)
    }

    fn offer(&mut self, d: f64, i: usize) {
        let cand = (d, i);
        if self.items.len() == self.k
            && Self::cmp(&cand, self.items.last().expect("full")) != std::cmp::Ordering::Less
        {
            return;
        }
        let at = self
            .items
            .binary_search_by(|probe| Self::cmp(probe, &cand))
            .unwrap_or_else(|e| e);
        self.items.insert(at, cand);
        self.items.truncate(self.k);
    }

    fn into_sorted(self) -> Vec<(f64, usize)> {
        self.items
    }
}

fn search_k(
    db: &ExperienceDb,
    group: &DimGroup,
    node: &KdNode,
    observed: &[f64],
    best: &mut KBest,
) {
    let run = group.runs[node.point];
    best.offer(euclidean_sq(&db.runs()[run].characteristics, observed), run);
    let delta = observed[node.axis] - coordinate(db, run, node.axis);
    let (near, far) = if delta <= 0.0 {
        (&node.left, &node.right)
    } else {
        (&node.right, &node.left)
    };
    if let Some(n) = near {
        search_k(db, group, n, observed, best);
    }
    if let Some(f) = far {
        // Same strict-inequality pruning rule as `search_nearest`: an
        // equal-distance candidate beyond the plane may still displace a
        // kept item with a larger run index.
        match best.bound() {
            Some(bound) if delta * delta > bound => {}
            _ => search_k(db, group, f, observed, best),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_space::Configuration;

    fn run(label: &str, ch: Vec<f64>, perf: f64) -> RunHistory {
        let mut r = RunHistory::new(label, ch);
        r.push(&Configuration::new(vec![1]), perf);
        r
    }

    /// Tiny deterministic PRNG (xorshift64*), no external deps.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        fn f64(&mut self) -> f64 {
            // Uniform-ish in [0, 1) with a coarse grid so exact distance
            // ties actually occur and exercise the tie-break path.
            (self.next() % 32) as f64 / 32.0
        }

        fn usize(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn random_db(rng: &mut Rng, runs: usize, dim_choices: &[usize]) -> ExperienceDb {
        let mut db = ExperienceDb::new();
        for i in 0..runs {
            let dims = dim_choices[rng.usize(dim_choices.len())];
            let ch: Vec<f64> = (0..dims).map(|_| rng.f64()).collect();
            db.add_run(run(&format!("r{i}"), ch, i as f64));
        }
        db
    }

    fn assert_identical(db: &ExperienceDb, observed: &[f64], k: usize) {
        assert_index_matches_scan(&CharacteristicsIndex::build(db), db, observed, k);
    }

    fn assert_index_matches_scan(
        index: &CharacteristicsIndex,
        db: &ExperienceDb,
        observed: &[f64],
        k: usize,
    ) {
        let lin = db.classify(observed).map(|(i, _)| i);
        let idx = index.classify(db, observed).map(|(i, _)| i);
        assert_eq!(idx, lin, "classify diverged at {observed:?}");
        let lin_k: Vec<usize> = db.nearest_k(observed, k).iter().map(|(i, _)| *i).collect();
        let idx_k: Vec<usize> = index
            .nearest_k(db, observed, k)
            .iter()
            .map(|(i, _)| *i)
            .collect();
        assert_eq!(idx_k, lin_k, "nearest_k({k}) diverged at {observed:?}");
    }

    #[test]
    fn property_indexed_results_are_bit_identical_to_linear() {
        let mut rng = Rng(0x9E3779B97F4A7C15);
        for case in 0..60 {
            // Mix sizes across the linear-fallback boundary and mixed
            // dimensionalities (the scan skips mismatched runs).
            let runs = [0, 1, 3, 15, 16, 40, 200][case % 7];
            let dims: &[usize] = if case % 3 == 0 { &[3] } else { &[1, 3, 5] };
            let db = random_db(&mut rng, runs, dims);
            for _ in 0..20 {
                let qd = dims[rng.usize(dims.len())];
                let observed: Vec<f64> = (0..qd).map(|_| rng.f64()).collect();
                for k in [1, 2, 5, runs + 1] {
                    assert_identical(&db, &observed, k);
                }
            }
        }
    }

    /// Grow a database one run at a time, carrying the index forward
    /// with `extended` the way the daemon does, and compare against the
    /// scan after every append.
    #[test]
    fn property_extended_index_matches_linear_at_every_append() {
        const LATE_DIMS: usize = 6;
        let mut rng = Rng(0xD1B54A32D192ED03);
        for case in 0..4 {
            let dims: &[usize] = if case % 2 == 0 { &[2] } else { &[1, 2, 4] };
            // One dimensionality first shows up just after a rebuild, so
            // for a while it exists in the tail only, with no group.
            let late_from = REBUILD_TAIL + 3 + case;
            let mut db = ExperienceDb::new();
            let mut index = db.build_index();
            let mut rebuilds = 0;
            let mut tail_only_dims_seen = false;
            for i in 0..3 * REBUILD_TAIL + LINEAR_FALLBACK + 9 {
                // A quarter of the runs repeat an earlier vector exactly:
                // the tail and the trees then hold equal-distance runs
                // and only the run-index tie-break separates them.
                let ch: Vec<f64> = if i > 0 && rng.usize(4) == 0 {
                    db.runs()[rng.usize(i)].characteristics.clone()
                } else if i >= late_from && rng.usize(5) == 0 {
                    (0..LATE_DIMS).map(|_| rng.f64()).collect()
                } else {
                    let d = dims[rng.usize(dims.len())];
                    (0..d).map(|_| rng.f64()).collect()
                };
                db.add_run(run(&format!("r{i}"), ch.clone(), i as f64));
                let next = index.extended(&db);
                assert_eq!(next.len(), db.len());
                assert!(db.len() - next.indexed < REBUILD_TAIL, "tail is bounded");
                if next.indexed == index.indexed {
                    assert!(Arc::ptr_eq(&next.groups, &index.groups), "trees shared");
                } else {
                    assert_eq!(next.indexed, db.len(), "a rebuild covers every run");
                    rebuilds += 1;
                }
                index = next;
                tail_only_dims_seen |= ch.len() == LATE_DIMS && index.group(LATE_DIMS).is_none();

                let mut queries = vec![ch];
                for &d in dims.iter().chain([&LATE_DIMS]) {
                    queries.push((0..d).map(|_| rng.f64()).collect());
                }
                for observed in &queries {
                    for k in [1, 3, db.len() + 1] {
                        assert_index_matches_scan(&index, &db, observed, k);
                    }
                }
            }
            assert!(rebuilds >= 3, "crossed the rebuild threshold {rebuilds}x");
            assert!(
                tail_only_dims_seen,
                "a dimensionality lived in the tail only"
            );
            let biggest = index.groups.iter().map(|(_, g)| g.runs.len()).max();
            assert!(biggest >= Some(LINEAR_FALLBACK), "a group grew into a tree");
        }
    }

    #[test]
    fn extending_by_nothing_shares_everything() {
        let mut rng = Rng(7);
        let db = random_db(&mut rng, 40, &[3]);
        let index = db.build_index();
        let same = index.extended(&db);
        assert!(Arc::ptr_eq(&same.groups, &index.groups));
        assert_eq!((same.indexed, same.len()), (40, 40));
    }

    #[test]
    fn ties_prefer_the_earliest_run_like_the_scan() {
        let mut db = ExperienceDb::new();
        // 20 runs at only two distinct points: heavy exact-tie pressure,
        // large enough to build a real tree.
        for i in 0..20 {
            let v = if i % 2 == 0 { 0.25 } else { 0.75 };
            db.add_run(run(&format!("t{i}"), vec![v, v], i as f64));
        }
        let index = CharacteristicsIndex::build(&db);
        let (i, _) = index.classify(&db, &[0.25, 0.25]).unwrap();
        assert_eq!(i, 0, "earliest equal-distance run wins");
        let ks: Vec<usize> = index
            .nearest_k(&db, &[0.25, 0.25], 4)
            .iter()
            .map(|(i, _)| *i)
            .collect();
        assert_eq!(ks, vec![0, 2, 4, 6], "ties ordered by run index");
        assert_identical(&db, &[0.25, 0.25], 7);
    }

    #[test]
    fn empty_and_mismatched_queries() {
        let db = ExperienceDb::new();
        let index = CharacteristicsIndex::build(&db);
        assert!(index.is_empty());
        assert!(index.classify(&db, &[0.5]).is_none());
        assert!(index.nearest_k(&db, &[0.5], 3).is_empty());

        let mut db = ExperienceDb::new();
        db.add_run(run("a", vec![0.1, 0.2], 1.0));
        let index = CharacteristicsIndex::build(&db);
        assert_eq!(index.len(), 1);
        assert!(index.classify(&db, &[0.1]).is_none(), "no 1-d group");
        assert!(index.nearest_k(&db, &[0.1, 0.2, 0.3], 1).is_empty());
    }

    #[test]
    fn zero_k_is_empty() {
        let mut db = ExperienceDb::new();
        db.add_run(run("a", vec![0.5], 1.0));
        let index = CharacteristicsIndex::build(&db);
        assert!(index.nearest_k(&db, &[0.5], 0).is_empty());
    }
}
