//! Multi-daemon clustering: the consistent-hash ring and the replica
//! sets it assigns.
//!
//! A cluster is a flat ring of daemons, each identified by the address
//! it advertises to its peers (`ClusterConfig::self_addr`, the others'
//! `--peer` values). Two things hash onto the ring:
//!
//! * **Session tokens.** The daemon that starts a session issues a
//!   token that hashes onto itself (it draws candidates until one
//!   does), so a session's creator is always its ring owner and
//!   clients are never redirected at start. The owner replicates the
//!   session to the token's ring successors — the whole record when
//!   the session starts, then one step per `Report` carrying the
//!   observation it added; if the owner dies, a successor adopts the
//!   session when the client's `Resume` lands on it.
//! * **Recorded runs.** A run's home shard is the ring owner of its
//!   workload-characteristics vector (the same k-d coordinates the
//!   `CharacteristicsIndex` partitions). Whoever records a run ships
//!   it to the home shard and its successors until `replication`
//!   members hold it, so killing any single daemon loses nothing at
//!   `replication >= 2`.
//!
//! This module decides *who* holds what (`ClusterState::session_targets`,
//! `ClusterState::run_targets`) and keeps the receiving side's
//! `(origin, seq)` bookkeeping; the reactor's peer links (`peer.rs`) do
//! the shipping. A link dials the target's one listener, negotiates
//! `Hello` like any client (binary framing on v3), then authorizes
//! itself with `PeerHello`. Only after that handshake will the receiving
//! daemon honor `PeerShipSession` / `PeerShipStep` / `PeerShipRun` /
//! `PeerDropSession` — on client-facing connections the whole `Peer*`
//! family is refused. A replica that cannot apply a step (it holds no
//! record for the token, or one of a different length: it restarted, or
//! a ship to it was lost) refuses it in-protocol and is sent the whole
//! record on the same link, so a replica is never behind by more than
//! the steps whose transport failed. Replicated applies are local-only
//! (a daemon never re-ships what a peer shipped to it), which keeps the
//! fan-out a single hop and free of cycles.

use std::collections::HashMap;
use std::sync::Mutex;

/// Virtual nodes per ring member. Enough that token load stays within
/// 2x of ideal up to double-digit cluster sizes (the property tests
/// below pin this down).
const VNODES: usize = 64;

/// How many candidate tokens `SessionStart` draws before giving up on
/// landing one on itself. With uniform hashing each draw succeeds with
/// probability `1/members`, so even a 64-member ring fails this bound
/// with probability ~`(63/64)^4096` — never, in practice.
pub const TOKEN_DRAWS: usize = 4096;

/// FNV-1a, the ring's base hash. Stable across platforms and
/// dependency-free; every member must agree on every hash, so this is
/// part of the peer protocol, not an implementation detail.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64's finalizer, applied over FNV-1a. FNV alone diffuses
/// short, similar strings poorly — 64 vnode labels per member differ in
/// one trailing digit and land clustered, skewing ownership well past
/// 2x of ideal — so every ring coordinate gets this avalanche pass.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Ring coordinate of a byte string: mixed FNV-1a. Used for vnode
/// placement and token routing alike.
pub fn ring_hash(bytes: &[u8]) -> u64 {
    mix64(fnv1a(bytes))
}

/// Ring coordinate of a workload-characteristics vector: mixed FNV-1a
/// over the raw little-endian bits of each component, so two runs with
/// bit-identical characteristics always share a home shard.
pub fn characteristics_hash(characteristics: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(characteristics.len() * 8);
    for c in characteristics {
        bytes.extend_from_slice(&c.to_bits().to_le_bytes());
    }
    mix64(fnv1a(&bytes))
}

/// A consistent-hash ring over member addresses.
///
/// Each member contributes `VNODES` points at
/// `ring_hash("{addr}#{i}")`; a key belongs to the member owning the
/// point at or clockwise of the key's hash. Point positions depend only
/// on the member addresses, never on list order, so every daemon in a
/// cluster computes the identical ring from its own view of the
/// membership.
#[derive(Debug, Clone)]
pub struct HashRing {
    members: Vec<String>,
    /// `(point, member index)`, sorted by point (ties broken by member
    /// address so equal-hash collisions still agree everywhere).
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Build the ring for `members`. Order is irrelevant; duplicates
    /// would double a member's share and are rejected by
    /// [`ClusterConfig::validate`] before a ring is ever built.
    pub fn new(members: &[String]) -> HashRing {
        let members: Vec<String> = members.to_vec();
        let mut points = Vec::with_capacity(members.len() * VNODES);
        for (idx, addr) in members.iter().enumerate() {
            for i in 0..VNODES {
                points.push((ring_hash(format!("{addr}#{i}").as_bytes()), idx));
            }
        }
        points.sort_by(|a, b| (a.0, members[a.1].as_str()).cmp(&(b.0, members[b.1].as_str())));
        HashRing { members, points }
    }

    /// The member addresses this ring was built from.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// The member owning `key`.
    pub fn owner(&self, key: &str) -> &str {
        self.owner_of_hash(ring_hash(key.as_bytes()))
    }

    /// The member owning a precomputed ring coordinate.
    pub fn owner_of_hash(&self, hash: u64) -> &str {
        let start = self.points.partition_point(|&(p, _)| p < hash);
        let (_, idx) = self.points[start % self.points.len()];
        &self.members[idx]
    }

    /// The first `k` distinct members at or clockwise of `hash`, in
    /// ring order — the owner first, then the members that replicate
    /// the key. Returns fewer than `k` only when the ring has fewer
    /// members.
    pub fn successors(&self, hash: u64, k: usize) -> Vec<&str> {
        self.successor_indices(hash, k)
            .map(|idx| self.members[idx].as_str())
            .collect()
    }

    /// [`successors`](Self::successors) as indices into
    /// [`members`](Self::members), without allocating. A point's member
    /// is new if no earlier point of the walk belongs to it; the walk
    /// to `k` distinct members is a handful of points, so looking back
    /// over it costs less than remembering it would.
    fn successor_indices(&self, hash: u64, k: usize) -> impl Iterator<Item = usize> + '_ {
        let start = self.points.partition_point(|&(p, _)| p < hash);
        let member_at = move |step: usize| self.points[(start + step) % self.points.len()].1;
        (0..self.points.len())
            .filter(move |&step| (0..step).all(|earlier| member_at(earlier) != member_at(step)))
            .map(member_at)
            .take(k)
    }
}

/// Cluster membership and replication policy, carried by
/// `DaemonConfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// The address this daemon advertises to its peers — its identity
    /// on the ring. Must match what the peers pass as `--peer` for
    /// this daemon, byte for byte (the ring hashes the string).
    pub self_addr: String,
    /// The other members' advertised addresses.
    pub peers: Vec<String>,
    /// How many members hold each run and each replicated session,
    /// counting the owner. `1` means no replication.
    pub replication: usize,
}

impl ClusterConfig {
    /// Every member of the ring: this daemon plus its peers.
    pub fn members(&self) -> Vec<String> {
        let mut members = Vec::with_capacity(1 + self.peers.len());
        members.push(self.self_addr.clone());
        members.extend(self.peers.iter().cloned());
        members
    }

    /// Reject configurations the ring cannot honor.
    pub fn validate(&self) -> Result<(), String> {
        if self.self_addr.is_empty() {
            return Err("cluster: self address is empty".into());
        }
        if self.peers.contains(&self.self_addr) {
            return Err(format!(
                "cluster: own address {} listed as a peer",
                self.self_addr
            ));
        }
        for (i, p) in self.peers.iter().enumerate() {
            if p.is_empty() {
                return Err("cluster: empty peer address".into());
            }
            if self.peers[..i].contains(p) {
                return Err(format!("cluster: duplicate peer {p}"));
            }
        }
        if self.replication == 0 {
            return Err("cluster: replication factor must be at least 1".into());
        }
        let members = 1 + self.peers.len();
        if self.replication > members {
            return Err(format!(
                "cluster: replication factor {} exceeds the {} ring member(s)",
                self.replication, members
            ));
        }
        Ok(())
    }
}

/// Live cluster state: the ring, and the per-origin sequence
/// bookkeeping that makes shipped runs idempotent.
#[derive(Debug)]
pub struct ClusterState {
    config: ClusterConfig,
    ring: HashRing,
    /// Highest shipped-run sequence applied from each origin. A
    /// retried ship re-delivers the same `(origin, seq)` and is
    /// dropped here instead of double-counting the run.
    applied: Mutex<HashMap<String, u64>>,
}

impl ClusterState {
    /// Validate `config` and build the ring.
    pub fn new(config: ClusterConfig) -> Result<ClusterState, String> {
        config.validate()?;
        let ring = HashRing::new(&config.members());
        Ok(ClusterState {
            config,
            ring,
            applied: Mutex::new(HashMap::new()),
        })
    }

    /// The cluster configuration this state was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// This daemon's ring identity.
    pub fn self_addr(&self) -> &str {
        &self.config.self_addr
    }

    /// Whether `node` is a ring member (peers and self).
    pub fn is_member(&self, node: &str) -> bool {
        node == self.config.self_addr || self.config.peers.iter().any(|p| p == node)
    }

    /// The advertised address of the member owning `token`.
    pub fn owner_of_token(&self, token: &str) -> &str {
        self.ring.owner(token)
    }

    /// Whether this daemon is `token`'s ring owner.
    pub fn owns_token(&self, token: &str) -> bool {
        self.owner_of_token(token) == self.config.self_addr
    }

    /// The peers that must hold a replica of `token`'s session: the
    /// token's ring successors after the owner, `replication - 1` of
    /// them, never this daemon itself.
    pub(crate) fn session_targets(&self, token: &str) -> impl Iterator<Item = usize> + '_ {
        self.targets(ring_hash(token.as_bytes()))
    }

    /// The peers that must hold a run recorded with `characteristics`:
    /// the home shard and its successors until `replication` members
    /// hold the run, minus this daemon (which applies locally).
    pub(crate) fn run_targets(&self, characteristics: &[f64]) -> impl Iterator<Item = usize> + '_ {
        self.targets(characteristics_hash(characteristics))
    }

    /// The replica set of a ring coordinate as indices into
    /// `config.peers` (and so into the reactor's links), so the ship
    /// paths neither allocate address strings nor search for a link. The
    /// ring is built from [`ClusterConfig::members`], which lists this
    /// daemon first: member 0 is not a target, member `i + 1` is peer `i`.
    fn targets(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        self.ring
            .successor_indices(hash, self.config.replication)
            .filter_map(|member| member.checked_sub(1))
    }

    /// Record that `(origin, seq)` arrived; `false` means it was
    /// already applied and the payload must be dropped.
    pub fn apply_shipped(&self, origin: &str, seq: u64) -> bool {
        let mut applied = self.applied.lock().unwrap();
        let last = applied.entry(origin.to_string()).or_insert(0);
        if seq <= *last {
            return false;
        }
        *last = seq;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:777")).collect()
    }

    fn tokens(n: usize) -> Vec<String> {
        // Shaped like real tokens: epoch prefix, hex counter.
        (0..n)
            .map(|i| format!("hs-{}-{i:x}", 170_000_000 + i))
            .collect()
    }

    #[test]
    fn ring_is_independent_of_member_order() {
        let mut forward = members(5);
        let ring_a = HashRing::new(&forward);
        forward.reverse();
        let ring_b = HashRing::new(&forward);
        for t in tokens(500) {
            assert_eq!(ring_a.owner(&t), ring_b.owner(&t), "{t}");
        }
    }

    #[test]
    fn ring_balances_tokens_within_2x_of_ideal_across_3_to_16_peers() {
        let toks = tokens(10_000);
        for n in 3..=16 {
            let ring = HashRing::new(&members(n));
            let mut counts: HashMap<&str, usize> = HashMap::new();
            for t in &toks {
                *counts.entry(ring.owner(t)).or_insert(0) += 1;
            }
            let ideal = toks.len() / n;
            assert_eq!(counts.len(), n, "n={n}: every member owns something");
            for (member, count) in counts {
                assert!(
                    count <= 2 * ideal,
                    "n={n}: {member} owns {count} of {} (ideal {ideal})",
                    toks.len()
                );
            }
        }
    }

    #[test]
    fn adding_a_peer_remaps_only_its_own_share() {
        let toks = tokens(10_000);
        for n in [3usize, 8, 15] {
            let before = HashRing::new(&members(n));
            let after = HashRing::new(&members(n + 1));
            let new_member = format!("10.0.0.{n}:777");
            let mut moved = 0usize;
            for t in &toks {
                let a = before.owner(t);
                let b = after.owner(t);
                if a != b {
                    moved += 1;
                    // Consistent hashing: a token only ever moves TO
                    // the new member, never between survivors.
                    assert_eq!(b, new_member, "{t} moved {a} -> {b}");
                }
            }
            let ideal = toks.len() / (n + 1);
            assert!(moved > 0, "n={n}: the new member got nothing");
            assert!(
                moved <= 2 * ideal,
                "n={n}: {moved} tokens moved (ideal {ideal})"
            );
        }
    }

    #[test]
    fn removing_a_peer_remaps_only_its_tokens() {
        let toks = tokens(10_000);
        let n = 8;
        let full = HashRing::new(&members(n));
        let mut reduced = members(n);
        let removed = reduced.remove(n - 1);
        let shrunk = HashRing::new(&reduced);
        for t in &toks {
            let a = full.owner(t);
            let b = shrunk.owner(t);
            if a != removed {
                assert_eq!(a, b, "{t}: surviving member's token moved");
            } else {
                assert_ne!(b, removed);
            }
        }
    }

    #[test]
    fn successors_walk_distinct_members_in_ring_order() {
        let ring = HashRing::new(&members(5));
        for t in tokens(200) {
            let h = ring_hash(t.as_bytes());
            let succ = ring.successors(h, 3);
            assert_eq!(succ.len(), 3);
            assert_eq!(succ[0], ring.owner(&t));
            let mut uniq = succ.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "{t}: duplicate successor");
        }
        // Asking for more members than exist yields all of them.
        assert_eq!(ring.successors(0, 99).len(), 5);
    }

    #[test]
    fn config_validation_rejects_impossible_rings() {
        let ok = ClusterConfig {
            self_addr: "a:1".into(),
            peers: vec!["b:1".into(), "c:1".into()],
            replication: 2,
        };
        assert!(ok.validate().is_ok());

        let mut self_as_peer = ok.clone();
        self_as_peer.peers.push("a:1".into());
        assert!(self_as_peer.validate().unwrap_err().contains("own address"));

        let mut dup = ok.clone();
        dup.peers.push("b:1".into());
        assert!(dup.validate().unwrap_err().contains("duplicate peer"));

        let mut zero = ok.clone();
        zero.replication = 0;
        assert!(zero.validate().unwrap_err().contains("at least 1"));

        let mut too_many = ok.clone();
        too_many.replication = 4;
        assert!(too_many.validate().unwrap_err().contains("exceeds"));
    }

    #[test]
    fn shipped_sequences_deduplicate_per_origin() {
        let state = ClusterState::new(ClusterConfig {
            self_addr: "a:1".into(),
            peers: vec!["b:1".into()],
            replication: 1,
        })
        .unwrap();
        assert!(state.apply_shipped("b:1", 1));
        assert!(state.apply_shipped("b:1", 2));
        assert!(!state.apply_shipped("b:1", 2), "replayed seq must drop");
        assert!(!state.apply_shipped("b:1", 1));
        assert!(state.apply_shipped("c:1", 1), "origins are independent");
        assert!(state.apply_shipped("b:1", 3));
    }

    #[cfg(unix)]
    #[test]
    fn a_successor_state_never_reuses_a_ship_sequence() {
        // A restarted daemon brings a second set of peer links for the
        // same origin; the peer still remembers the first one's
        // sequences.
        let peer = ClusterState::new(ClusterConfig {
            self_addr: "b:1".into(),
            peers: vec!["a:1".into()],
            replication: 2,
        })
        .unwrap();
        let link = || crate::peer::PeerLink::new("b:1".into(), 0);
        let mut first = link();
        for _ in 0..3 {
            assert!(peer.apply_shipped("a:1", first.next_run_seq()));
        }
        let seq = link().next_run_seq();
        assert!(peer.apply_shipped("a:1", seq), "successor's run dropped");
    }

    #[test]
    fn replica_targets_exclude_self_and_respect_replication() {
        let state = ClusterState::new(ClusterConfig {
            self_addr: "a:1".into(),
            peers: vec!["b:1".into(), "c:1".into()],
            replication: 2,
        })
        .unwrap();
        for t in tokens(300) {
            let targets: Vec<&str> = state
                .session_targets(&t)
                .map(|peer| state.config.peers[peer].as_str())
                .collect();
            assert!(targets.len() <= 2);
            assert!(!targets.contains(&"a:1"));
            if state.owns_token(&t) {
                // Owner + one successor, owner filtered out.
                assert_eq!(targets.len(), 1, "{t}");
            }
            // The peer indices the ship paths walk name the ring's
            // successors, in ring order, minus this daemon.
            let by_address: Vec<&str> = state
                .ring
                .successors(ring_hash(t.as_bytes()), 2)
                .into_iter()
                .filter(|a| *a != "a:1")
                .collect();
            assert_eq!(targets, by_address, "{t}");
        }
        // Characteristics hashing is bit-stable.
        assert_eq!(
            characteristics_hash(&[0.25, -1.5]),
            characteristics_hash(&[0.25, -1.5])
        );
        assert_ne!(
            characteristics_hash(&[0.25, -1.5]),
            characteristics_hash(&[0.25, 1.5])
        );
    }
}
