//! Discrete Nelder-Mead simplex, ask-tell style, maximizing.

use crate::kernel::init::InitStrategy;
use harmony_linalg::vecops;
use harmony_space::{Configuration, ParameterSpace};
use serde::value::{Map, Number, Value};
use serde::{DeError, Deserialize, Serialize};

/// Reflection/expansion/contraction/shrink coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimplexOptions {
    /// Reflection coefficient (α in Nelder & Mead).
    pub alpha: f64,
    /// Expansion coefficient (γ).
    pub gamma: f64,
    /// Contraction coefficient (ρ).
    pub rho: f64,
    /// Shrink coefficient (σ).
    pub sigma: f64,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            alpha: 1.0,
            gamma: 2.0,
            rho: 0.5,
            sigma: 0.5,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Vertex {
    point: Vec<f64>,
    value: f64,
}

/// Internal state machine: what the kernel is waiting to hear about.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum State {
    /// Collecting values for the initial vertices.
    Init { points: Vec<Vec<f64>>, next: usize },
    /// Waiting for the reflection point's value.
    Reflect { centroid: Vec<f64>, point: Vec<f64> },
    /// Waiting for the expansion point's value.
    Expand {
        point: Vec<f64>,
        reflect_point: Vec<f64>,
        reflect_value: f64,
    },
    /// Waiting for a contraction point's value.
    Contract {
        point: Vec<f64>,
        reflect_value: f64,
        outside: bool,
    },
    /// Re-evaluating shrunk vertices one at a time.
    Shrink { idx: usize, point: Vec<f64> },
    /// Re-measuring existing vertices (after a training stage, so stale
    /// estimated values can't outvote live measurements).
    Refresh { idx: usize },
}

/// The Nelder-Mead kernel over a discrete [`ParameterSpace`], maximizing.
///
/// Proposals are continuous simplex points;
/// [`next_config`](SimplexKernel::next_config) projects them to the nearest feasible
/// configuration ("nearest integer point", §2). The caller measures — or
/// estimates — that configuration's performance and reports it through
/// [`observe`](SimplexKernel::observe).
///
/// # Examples
///
/// The ask-tell loop:
///
/// ```
/// use harmony::kernel::{InitStrategy, SimplexKernel};
/// use harmony_space::{Configuration, ParamDef, ParameterSpace};
///
/// let space = ParameterSpace::builder()
///     .param(ParamDef::int("x", 0, 100, 50, 1))
///     .param(ParamDef::int("y", 0, 100, 50, 1))
///     .build()
///     .unwrap();
/// let mut kernel = SimplexKernel::new(space, InitStrategy::EvenSpread);
/// for _ in 0..80 {
///     let cfg = kernel.next_config();           // ask
///     let perf = -((cfg.get(0) - 70).pow(2) + (cfg.get(1) - 20).pow(2)) as f64;
///     kernel.observe(perf);                     // tell
/// }
/// let (best, value) = kernel.best().unwrap();
/// assert!(value > -20.0, "found {best} at {value}");
/// ```
#[derive(Debug, Clone)]
pub struct SimplexKernel {
    space: ParameterSpace,
    opts: SimplexOptions,
    vertices: Vec<Vertex>,
    state: State,
    best_config: Option<(Configuration, f64)>,
    observations: u64,
    /// Running range of raw observed values, used to scale the
    /// out-of-box penalty.
    seen_min: f64,
    seen_max: f64,
}

impl SimplexKernel {
    /// Fresh kernel: the first `n+1` proposals come from `init`.
    pub fn new(space: ParameterSpace, init: InitStrategy) -> Self {
        let points = init.initial_points(&space);
        SimplexKernel {
            space,
            opts: SimplexOptions::default(),
            vertices: Vec::with_capacity(points.len()),
            state: State::Init { points, next: 0 },
            best_config: None,
            observations: 0,
            seen_min: f64::INFINITY,
            seen_max: f64::NEG_INFINITY,
        }
    }

    /// Kernel warm-started from prior experience (§4.2's training stage
    /// output): the seeds become the initial simplex, skipping live
    /// exploration of the init phase entirely. Seeds beyond the best `n+1`
    /// are ignored; if fewer than `n+1` are given, the remainder are
    /// EvenSpread points still needing evaluation.
    pub fn with_seeded_simplex(
        space: ParameterSpace,
        mut seeds: Vec<(Configuration, f64)>,
    ) -> Self {
        let n = space.len();
        seeds.sort_by(|a, b| b.1.total_cmp(&a.1));
        seeds.truncate(n + 1);
        let mut vertices: Vec<Vertex> = Vec::with_capacity(n + 1);
        let mut best_config = None;
        for (cfg, value) in &seeds {
            if best_config.is_none() {
                best_config = Some((cfg.clone(), *value));
            }
            vertices.push(Vertex {
                point: cfg.to_point(),
                value: *value,
            });
        }
        let missing = (n + 1).saturating_sub(vertices.len());
        let seed_min = seeds.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
        let seed_max = seeds.iter().map(|s| s.1).fold(f64::NEG_INFINITY, f64::max);
        let mut kernel = SimplexKernel {
            space,
            opts: SimplexOptions::default(),
            vertices,
            state: State::Init {
                points: Vec::new(),
                next: 0,
            },
            best_config,
            observations: 0,
            seen_min: seed_min,
            seen_max: seed_max,
        };
        if missing > 0 {
            // Fill with axis offsets around the best seed (±25% of each
            // range) so the simplex spans all dimensions even when the
            // prior run's records cluster at its converged optimum. A
            // collapsed seed simplex would otherwise trip the convergence
            // criteria before live search even starts.
            let anchor: Vec<f64> = kernel
                .vertices
                .first()
                .map(|v| v.point.clone())
                .unwrap_or_else(|| kernel.space.default_configuration().to_point());
            let n = kernel.space.len();
            let fill: Vec<Vec<f64>> = (0..missing)
                .map(|k| {
                    let j = k % n;
                    let p = kernel.space.param(j);
                    let span = (p.static_max() - p.static_min()) as f64;
                    let step = span * 0.25 * (1.0 + (k / n) as f64);
                    let mut pt = anchor.clone();
                    // Offset toward the side with more room.
                    let mid = (p.static_max() + p.static_min()) as f64 / 2.0;
                    pt[j] += if pt[j] <= mid { step } else { -step };
                    pt
                })
                .collect();
            kernel.state = State::Init {
                points: fill,
                next: 0,
            };
        } else {
            kernel.begin_iteration();
        }
        kernel
    }

    /// Override the simplex coefficients.
    pub fn with_options(mut self, opts: SimplexOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The space being searched.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// The continuous point awaiting evaluation.
    pub fn next_point(&self) -> Vec<f64> {
        match &self.state {
            State::Init { points, next } => points[*next].clone(),
            State::Reflect { point, .. }
            | State::Expand { point, .. }
            | State::Contract { point, .. }
            | State::Shrink { point, .. } => point.clone(),
            State::Refresh { idx } => self.vertices[*idx].point.clone(),
        }
    }

    /// Rebuild the simplex around the current best vertex: keep it, move
    /// every other vertex to an axis offset of `fraction` of that axis's
    /// range (toward whichever side has more room). Used to restart a
    /// collapsed simplex — e.g. one trained from a prior run that had
    /// already converged — so the live search has geometry to work with.
    /// Call [`refresh`](Self::refresh) afterwards to (re)measure the new
    /// vertices.
    pub fn expand_around_best(&mut self, fraction: f64) {
        assert!(fraction > 0.0, "expansion fraction must be positive");
        if self.vertices.is_empty() {
            return;
        }
        let bi = self.best_index();
        let anchor = self.vertices[bi].point.clone();
        let n = self.space.len();
        let mut k = 0usize;
        for (vi, v) in self.vertices.iter_mut().enumerate() {
            if vi == bi {
                continue;
            }
            let j = k % n;
            let p = self.space.param(j);
            let span = (p.static_max() - p.static_min()) as f64;
            let step = span * fraction * (1.0 + (k / n) as f64);
            let mut pt = anchor.clone();
            let mid = (p.static_max() + p.static_min()) as f64 / 2.0;
            pt[j] += if pt[j] <= mid { step } else { -step };
            v.point = pt;
            k += 1;
        }
    }

    /// Queue a live re-measurement of every current vertex before the
    /// search resumes. Called when switching from estimated (training
    /// stage) to measured values: an estimate from prior experience may be
    /// systematically optimistic for the *current* workload, and the
    /// ordinary replace-if-better rule would then never let reality
    /// displace it — the simplex would converge onto stale history. The
    /// prior run still decides *where* the simplex starts; it no longer
    /// decides what those points are worth.
    pub fn refresh(&mut self) {
        if !self.vertices.is_empty() && self.initialized() {
            crate::obs::simplex_refresh_total().inc();
            self.state = State::Refresh { idx: 0 };
        }
    }

    /// The feasible configuration awaiting evaluation (the projection of
    /// [`next_point`](Self::next_point)).
    pub fn next_config(&self) -> Configuration {
        self.space.project(&self.next_point())
    }

    /// Every proposal whose configuration is already decided — the
    /// measurements can be gathered as one parallel batch and fed back
    /// through [`observe`](Self::observe) in order.
    ///
    /// During the `Init` phase the remaining initial vertices are all
    /// known up front, and during `Refresh` the remaining vertices are
    /// re-measured as-is: in both phases the proposal sequence does not
    /// depend on the values observed along the way, so batching is
    /// exact. Everywhere else (reflect/expand/contract/shrink) the next
    /// proposal is computed *from* the previous observation, and the
    /// batch degenerates to the single outstanding configuration.
    pub fn batchable_configs(&self) -> Vec<Configuration> {
        match &self.state {
            State::Init { points, next } => points[*next..]
                .iter()
                .map(|p| self.space.project(p))
                .collect(),
            State::Refresh { idx } => self.vertices[*idx..]
                .iter()
                .map(|v| self.space.project(&v.point))
                .collect(),
            _ => vec![self.next_config()],
        }
    }

    /// Report the performance of the configuration from
    /// [`next_config`](Self::next_config). Advances the state machine.
    pub fn observe(&mut self, value: f64) {
        self.observations += 1;
        let cfg = self.next_config();
        match &self.best_config {
            Some((_, best)) if *best >= value => {}
            _ => self.best_config = Some((cfg, value)),
        }
        // The state machine compares penalized values so that out-of-box
        // proposals lose; the raw value above still counts for `best()`
        // (the projected configuration really was measured).
        let proposal = self.next_point();
        self.seen_min = self.seen_min.min(value);
        self.seen_max = self.seen_max.max(value);
        let value = self.penalized(&proposal, value);

        // Take the state out to appease the borrow checker while mutating.
        let state = std::mem::replace(
            &mut self.state,
            State::Init {
                points: Vec::new(),
                next: 0,
            },
        );
        match state {
            State::Init { points, next } => {
                self.vertices.push(Vertex {
                    point: points[next].clone(),
                    value,
                });
                let next = next + 1;
                if next < points.len() {
                    self.state = State::Init { points, next };
                } else {
                    self.begin_iteration();
                }
            }
            State::Reflect { centroid, point } => {
                let best = self.best_value();
                let second_worst = self.second_worst_value();
                if value > best {
                    // Try to expand past the reflection.
                    crate::obs::simplex_expand_total().inc();
                    let expand = vecops::lerp(&centroid, &point, self.opts.gamma);
                    self.state = State::Expand {
                        point: expand,
                        reflect_point: point,
                        reflect_value: value,
                    };
                } else if value > second_worst {
                    self.replace_worst(point, value);
                    self.begin_iteration();
                } else {
                    // Contract: outside if the reflection at least beat the
                    // worst vertex, inside otherwise.
                    let worst = self.worst_value();
                    let outside = value > worst;
                    let target = if outside {
                        point.clone()
                    } else {
                        self.vertices[self.worst_index()].point.clone()
                    };
                    crate::obs::simplex_contract_total().inc();
                    let contract = vecops::lerp(&centroid, &target, self.opts.rho);
                    self.state = State::Contract {
                        point: contract,
                        reflect_value: value,
                        outside,
                    };
                }
            }
            State::Expand {
                point,
                reflect_point,
                reflect_value,
            } => {
                if value > reflect_value {
                    self.replace_worst(point, value);
                } else {
                    self.replace_worst(reflect_point, reflect_value);
                }
                self.begin_iteration();
            }
            State::Contract {
                point,
                reflect_value,
                outside,
            } => {
                let accept = if outside {
                    value >= reflect_value
                } else {
                    value > self.worst_value()
                };
                if accept {
                    self.replace_worst(point, value);
                    self.begin_iteration();
                } else {
                    self.begin_shrink();
                }
            }
            State::Shrink { idx, point } => {
                self.vertices[idx] = Vertex { point, value };
                self.continue_shrink(idx + 1);
            }
            State::Refresh { idx } => {
                self.vertices[idx].value = value;
                if idx + 1 < self.vertices.len() {
                    self.state = State::Refresh { idx: idx + 1 };
                } else {
                    self.begin_iteration();
                }
            }
        }
    }

    /// Best configuration observed so far, with its performance.
    pub fn best(&self) -> Option<(Configuration, f64)> {
        self.best_config.clone()
    }

    /// Total observations reported.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// True once the initial simplex is fully evaluated.
    pub fn initialized(&self) -> bool {
        !matches!(self.state, State::Init { .. })
    }

    /// Relative spread of vertex values — a convergence signal: when every
    /// vertex performs nearly identically, the simplex has collapsed onto
    /// a plateau.
    pub fn value_spread(&self) -> f64 {
        if self.vertices.len() < 2 {
            return f64::INFINITY;
        }
        let best = self.best_value();
        let worst = self.worst_value();
        if best == 0.0 {
            (best - worst).abs()
        } else {
            (best - worst).abs() / best.abs()
        }
    }

    /// Maximum range-normalized distance between any vertex and the best
    /// vertex, measured on the *continuous* simplex — the geometric
    /// convergence signal. (Projected configurations would collapse at the
    /// space boundary and fake convergence while the simplex is still
    /// wandering outside it.)
    pub fn point_spread(&self) -> f64 {
        if self.vertices.len() < 2 {
            return f64::INFINITY;
        }
        let best = &self.vertices[self.best_index()].point;
        self.vertices
            .iter()
            .map(|v| {
                v.point
                    .iter()
                    .zip(best)
                    .enumerate()
                    .map(|(j, (a, b))| {
                        let p = self.space.param(j);
                        let range = (p.static_max() - p.static_min()).max(1) as f64;
                        let d = (a - b) / range;
                        d * d
                    })
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(0.0, f64::max)
    }

    fn best_index(&self) -> usize {
        self.vertices
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.value.total_cmp(&b.1.value))
            .expect("non-empty simplex")
            .0
    }

    fn worst_index(&self) -> usize {
        self.vertices
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.value.total_cmp(&b.1.value))
            .expect("non-empty simplex")
            .0
    }

    fn best_value(&self) -> f64 {
        self.vertices[self.best_index()].value
    }

    fn worst_value(&self) -> f64 {
        self.vertices[self.worst_index()].value
    }

    /// The second-lowest vertex value (the Nelder-Mead acceptance bar for
    /// a plain reflection).
    fn second_worst_value(&self) -> f64 {
        let w = self.worst_index();
        self.vertices
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != w)
            .map(|(_, v)| v.value)
            .fold(f64::INFINITY, f64::min)
    }

    fn replace_worst(&mut self, point: Vec<f64>, value: f64) {
        let w = self.worst_index();
        self.vertices[w] = Vertex { point, value };
    }

    /// Compute the next reflection proposal.
    fn begin_iteration(&mut self) {
        debug_assert!(!self.vertices.is_empty());
        crate::obs::simplex_reflect_total().inc();
        let w = self.worst_index();
        let others: Vec<&[f64]> = self
            .vertices
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != w)
            .map(|(_, v)| v.point.as_slice())
            .collect();
        let centroid = if others.is_empty() {
            self.vertices[w].point.clone()
        } else {
            vecops::centroid(&others)
        };
        let worst = &self.vertices[w].point;
        // Reflection: c + α(c − x_worst).
        let point: Vec<f64> = centroid
            .iter()
            .zip(worst)
            .map(|(c, w)| c + self.opts.alpha * (c - w))
            .collect();
        self.state = State::Reflect { centroid, point };
    }

    /// Normalized distance by which a continuous point lies outside the
    /// search box (0 when inside).
    fn out_of_box(&self, point: &[f64]) -> f64 {
        point
            .iter()
            .enumerate()
            .map(|(j, &x)| {
                let p = self.space.param(j);
                let (lo, hi) = (p.static_min() as f64, p.static_max() as f64);
                let range = (hi - lo).max(1.0);
                let excess = if x < lo {
                    lo - x
                } else if x > hi {
                    x - hi
                } else {
                    0.0
                };
                excess / range
            })
            .sum()
    }

    /// The value the state machine compares: out-of-box proposals are
    /// penalized below every in-box observation, by an amount growing with
    /// how far outside they are. Plain coordinate clamping would pile
    /// distinct proposals onto the same boundary point and collapse the
    /// simplex onto a face; the penalty instead makes the ordinary
    /// contraction machinery pull the simplex back inside while its
    /// geometry stays consistent.
    fn penalized(&self, point: &[f64], value: f64) -> f64 {
        let out = self.out_of_box(point);
        if out == 0.0 {
            return value;
        }
        let lo = self.seen_min.min(value);
        let hi = self.seen_max.max(value);
        let span = (hi - lo).max(1.0);
        lo - span * (1.0 + out)
    }

    fn begin_shrink(&mut self) {
        crate::obs::simplex_shrink_total().inc();
        self.continue_shrink(0);
    }

    /// Propose the shrunken position of vertex `idx` (skipping the best
    /// vertex); when all are re-evaluated, start a new iteration.
    fn continue_shrink(&mut self, mut idx: usize) {
        let bi = self.best_index();
        while idx < self.vertices.len() {
            if idx != bi {
                let best_point = self.vertices[bi].point.clone();
                let shrunk = vecops::lerp(&best_point, &self.vertices[idx].point, self.opts.sigma);
                self.state = State::Shrink { idx, point: shrunk };
                return;
            }
            idx += 1;
        }
        self.begin_iteration();
    }
}

// Hand-written serialization: `seen_min`/`seen_max` start at ±infinity,
// which the JSON layer flattens to `null`, so both travel as the exact
// `f64::to_bits` pattern (reinterpreted as `i64`, which round-trips
// losslessly). Every other field uses its ordinary representation.
impl Serialize for SimplexKernel {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("space".into(), self.space.to_value());
        m.insert("opts".into(), self.opts.to_value());
        m.insert("vertices".into(), self.vertices.to_value());
        m.insert("state".into(), self.state.to_value());
        m.insert("best_config".into(), self.best_config.to_value());
        m.insert(
            "observations".into(),
            Value::Number(Number::Int(self.observations as i64)),
        );
        m.insert(
            "seen_min_bits".into(),
            Value::Number(Number::Int(self.seen_min.to_bits() as i64)),
        );
        m.insert(
            "seen_max_bits".into(),
            Value::Number(Number::Int(self.seen_max.to_bits() as i64)),
        );
        Value::Object(m)
    }
}

impl Deserialize for SimplexKernel {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let bits = |key: &str| -> Result<f64, DeError> {
            let n = v
                .field(key)?
                .as_i64()
                .ok_or_else(|| DeError::expected("integer bit pattern", v.field(key).unwrap()))?;
            Ok(f64::from_bits(n as u64))
        };
        let mut space = ParameterSpace::from_value(v.field("space")?)?;
        space.reindex();
        Ok(SimplexKernel {
            space,
            opts: SimplexOptions::from_value(v.field("opts")?)?,
            vertices: Vec::from_value(v.field("vertices")?)?,
            state: State::from_value(v.field("state")?)?,
            best_config: Option::from_value(v.field("best_config")?)?,
            observations: u64::from_value(v.field("observations")?)?,
            seen_min: bits("seen_min_bits")?,
            seen_max: bits("seen_max_bits")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_space::ParamDef;

    fn space2() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::int("x", 0, 100, 50, 1))
            .param(ParamDef::int("y", 0, 100, 50, 1))
            .build()
            .unwrap()
    }

    /// Drive the kernel against a closure for `iters` observations.
    fn drive(kernel: &mut SimplexKernel, f: impl Fn(&Configuration) -> f64, iters: usize) {
        for _ in 0..iters {
            let cfg = kernel.next_config();
            let v = f(&cfg);
            kernel.observe(v);
        }
    }

    fn paraboloid(cfg: &Configuration) -> f64 {
        let x = cfg.get(0) as f64;
        let y = cfg.get(1) as f64;
        1000.0 - (x - 62.0).powi(2) - 1.5 * (y - 31.0).powi(2)
    }

    #[test]
    fn init_phase_emits_all_initial_vertices() {
        let mut k = SimplexKernel::new(space2(), InitStrategy::EvenSpread);
        assert!(!k.initialized());
        drive(&mut k, paraboloid, 3);
        assert!(k.initialized());
        assert_eq!(k.observations(), 3);
    }

    #[test]
    fn maximizes_a_paraboloid() {
        let mut k = SimplexKernel::new(space2(), InitStrategy::EvenSpread);
        drive(&mut k, paraboloid, 120);
        let (best, val) = k.best().unwrap();
        assert!(val > 980.0, "best value {val} at {best}");
        assert!((best.get(0) - 62).abs() <= 4, "x={}", best.get(0));
        assert!((best.get(1) - 31).abs() <= 6, "y={}", best.get(1));
    }

    #[test]
    fn extreme_corners_also_converges_but_starts_at_extremes() {
        let mut k = SimplexKernel::new(space2(), InitStrategy::ExtremeCorners);
        let first = k.next_config();
        assert_eq!(
            first.values(),
            &[0, 0],
            "original kernel starts at an extreme corner"
        );
        // Boundary-heavy starts converge noticeably slower (that is §4.1's
        // whole point), so give it a generous budget.
        drive(&mut k, paraboloid, 400);
        assert!(k.best().unwrap().1 > 950.0, "{}", k.best().unwrap().1);
    }

    #[test]
    fn best_tracks_the_maximum_observation() {
        let mut k = SimplexKernel::new(space2(), InitStrategy::EvenSpread);
        let mut max_seen = f64::NEG_INFINITY;
        for _ in 0..60 {
            let cfg = k.next_config();
            let v = paraboloid(&cfg);
            max_seen = max_seen.max(v);
            k.observe(v);
            assert_eq!(k.best().unwrap().1, max_seen);
        }
    }

    #[test]
    fn value_spread_shrinks_as_it_converges() {
        let mut k = SimplexKernel::new(space2(), InitStrategy::EvenSpread);
        drive(&mut k, paraboloid, 5);
        let early = k.value_spread();
        drive(&mut k, paraboloid, 200);
        let late = k.value_spread();
        assert!(
            late < early,
            "spread should shrink: early {early}, late {late}"
        );
        assert!(k.point_spread() < 0.5);
    }

    #[test]
    fn respects_space_bounds_always() {
        let mut k = SimplexKernel::new(space2(), InitStrategy::ExtremeCorners);
        for _ in 0..200 {
            let cfg = k.next_config();
            assert!(
                k.space().is_feasible(&cfg).unwrap(),
                "infeasible proposal {cfg}"
            );
            // Adversarial objective: reward the boundary to push the
            // simplex outward.
            let v = cfg.get(0) as f64 + cfg.get(1) as f64;
            k.observe(v);
        }
        let (best, _) = k.best().unwrap();
        assert_eq!(
            best.values(),
            &[100, 100],
            "should find the boundary optimum"
        );
    }

    #[test]
    fn seeded_simplex_skips_init() {
        let seeds = vec![
            (
                Configuration::new(vec![60, 30]),
                paraboloid(&Configuration::new(vec![60, 30])),
            ),
            (
                Configuration::new(vec![65, 35]),
                paraboloid(&Configuration::new(vec![65, 35])),
            ),
            (
                Configuration::new(vec![55, 28]),
                paraboloid(&Configuration::new(vec![55, 28])),
            ),
        ];
        let mut k = SimplexKernel::with_seeded_simplex(space2(), seeds);
        assert!(k.initialized(), "seeded kernel must skip the init phase");
        drive(&mut k, paraboloid, 40);
        let (best, val) = k.best().unwrap();
        assert!(
            val > 990.0,
            "warm start should converge fast: {val} at {best}"
        );
    }

    #[test]
    fn seeded_simplex_with_too_few_seeds_fills_in() {
        let seeds = vec![(Configuration::new(vec![60, 30]), 900.0)];
        let mut k = SimplexKernel::with_seeded_simplex(space2(), seeds);
        assert!(!k.initialized(), "one seed in 2-D needs two more vertices");
        drive(&mut k, paraboloid, 80);
        assert!(k.best().unwrap().1 > 950.0);
    }

    #[test]
    fn seeded_simplex_keeps_only_best_seeds() {
        // 5 seeds in a 2-D space: kernel keeps the top 3.
        let mk = |x: i64, y: i64| Configuration::new(vec![x, y]);
        let seeds = vec![
            (mk(0, 0), 1.0),
            (mk(10, 10), 2.0),
            (mk(60, 30), 999.0),
            (mk(62, 31), 1000.0),
            (mk(64, 33), 998.0),
        ];
        let k = SimplexKernel::with_seeded_simplex(space2(), seeds);
        assert!(k.initialized());
        assert_eq!(k.best().unwrap().1, 1000.0);
        assert_eq!(k.vertices.len(), 3);
        assert!(k.vertices.iter().all(|v| v.value >= 998.0));
    }

    #[test]
    fn refresh_remeasures_every_vertex() {
        let seeds = vec![
            (Configuration::new(vec![10, 10]), 5.0),
            (Configuration::new(vec![20, 10]), 4.0),
            (Configuration::new(vec![10, 20]), 3.0),
        ];
        let expected: std::collections::BTreeSet<Configuration> =
            seeds.iter().map(|(c, _)| c.clone()).collect();
        let mut k = SimplexKernel::with_seeded_simplex(space2(), seeds);
        k.refresh();
        // The next three proposals are exactly the three vertices.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..3 {
            seen.insert(k.next_config());
            k.observe(paraboloid(&k.next_config()));
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn expand_around_best_restores_geometry() {
        // All seeds at one point: spread is zero until re-expansion.
        let seeds = vec![
            (Configuration::new(vec![50, 50]), 1.0),
            (Configuration::new(vec![50, 50]), 1.0),
            (Configuration::new(vec![50, 50]), 1.0),
        ];
        let mut k = SimplexKernel::with_seeded_simplex(space2(), seeds);
        assert!(k.point_spread() < 1e-9);
        k.expand_around_best(0.25);
        assert!(k.point_spread() > 0.2, "spread {}", k.point_spread());
        // All vertices still inside the box.
        for v in &k.vertices {
            for (j, &x) in v.point.iter().enumerate() {
                let p = k.space().param(j);
                assert!(x >= p.static_min() as f64 && x <= p.static_max() as f64);
            }
        }
    }

    #[test]
    fn batchable_init_matches_sequential_stepping() {
        let mut seq = SimplexKernel::new(space2(), InitStrategy::EvenSpread);
        let mut bat = seq.clone();
        let batch = bat.batchable_configs();
        assert_eq!(batch.len(), 3, "init proposes the whole initial simplex");
        for v in batch.iter().map(paraboloid) {
            bat.observe(v);
        }
        drive(&mut seq, paraboloid, 3);
        assert_eq!(seq.next_config(), bat.next_config());
        assert_eq!(
            bat.batchable_configs(),
            vec![bat.next_config()],
            "post-init iterations are strictly sequential"
        );
    }

    #[test]
    fn batchable_refresh_lists_remaining_vertices() {
        let seeds = vec![
            (Configuration::new(vec![10, 10]), 5.0),
            (Configuration::new(vec![20, 10]), 4.0),
            (Configuration::new(vec![10, 20]), 3.0),
        ];
        let mut k = SimplexKernel::with_seeded_simplex(space2(), seeds);
        k.refresh();
        assert_eq!(k.batchable_configs().len(), 3);
        k.observe(1.0);
        assert_eq!(k.batchable_configs().len(), 2);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = SimplexKernel::new(space2(), InitStrategy::EvenSpread);
        drive(&mut a, paraboloid, 10);
        let mut b = a.clone();
        drive(&mut b, paraboloid, 50);
        assert!(b.observations() > a.observations());
    }

    #[test]
    fn serde_round_trip_continues_bit_identically() {
        // Interrupt the kernel at several depths — including before the
        // init simplex is complete, where seen_min/seen_max are still at
        // their ±infinity sentinels — and check the revived copy replays
        // the exact proposal/observation trajectory of the original.
        for cut in [0usize, 1, 2, 7, 23, 61] {
            let mut live = SimplexKernel::new(space2(), InitStrategy::EvenSpread);
            drive(&mut live, paraboloid, cut);
            let json = serde_json::to_string(&live).unwrap();
            let mut revived: SimplexKernel = serde_json::from_str(&json).unwrap();
            assert_eq!(revived.seen_min.to_bits(), live.seen_min.to_bits());
            assert_eq!(revived.seen_max.to_bits(), live.seen_max.to_bits());
            for _ in 0..80 {
                assert_eq!(revived.next_config(), live.next_config(), "cut at {cut}");
                let v = paraboloid(&live.next_config());
                live.observe(v);
                revived.observe(v);
            }
            assert_eq!(revived.best(), live.best());
            assert_eq!(revived.observations(), live.observations());
        }
    }
}
