//! The one center-based clustering app. Fuzzy C-means, K-means and
//! deterministic annealing share everything but their membership rule:
//! the state (centers, objective history, last shift), the map over the
//! center panel, the reduce, the center update and the checkpoint codec
//! are [`Centers`]; what differs is a [`Rule`] — how one point is
//! weighted against the centers, its hard label, and when the iteration
//! stops. `CMeans`, `KMeans` and `DaKmeans` are `Centers` of their rule.

use crate::common::{
    max_center_shift, par_block_fold, BlockSums, CenterPanel, ClusterPartial, PanelScratch,
};
use parking_lot::RwLock;
use prs_core::{CheckpointableApp, DeviceClass, IterativeApp, Key, SpmdApp};
use prs_data::matrix::MatrixF32;
use roofline::model::DataResidency;
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::Arc;

/// The part of a center-based clusterer that is its own: everything
/// else is [`Centers`]. Dispatch is static, so a rule's `weigh` inlines
/// into the map loop. Sealed: the rules are this crate's three.
pub trait Rule: sealed::Sealed + Send + Sync + 'static {
    /// What the rule carries across iterations besides the centers (DA's
    /// temperature and phase); `()` for a rule that carries nothing.
    type Schedule: Copy + Default + Send + Sync;

    /// Points per rayon chunk inside one map task. Chunks merge in index
    /// order, so this fixes the floating-point bits of a map output.
    const CHUNK: usize;

    /// Arithmetic intensity per center, in flops per byte (Table 5).
    const AI_PER_CENTER: f64;

    /// Whether the map emits the block's objective under key `k`. A rule
    /// that has none must not emit it: the extra key moves shuffle bytes
    /// and virtual time.
    const OBJECTIVE: bool;

    /// Adds one point's contribution to the block sums and their
    /// objective, at schedule `at`; `s.xf` and `s.d2` are filled.
    fn weigh(&self, at: &Self::Schedule, s: &mut PanelScratch, sums: &mut BlockSums);

    /// The cluster of one point; `s.d2` is filled.
    fn label(&self, s: &mut PanelScratch) -> usize;

    /// Whether the run has converged once the centers moved by `shift`;
    /// may advance the schedule. Default: the shift fell under `epsilon`.
    fn converged(&self, _schedule: &mut Self::Schedule, shift: f64, epsilon: f64) -> bool {
        shift < epsilon
    }

    /// Appends `schedule` to a checkpoint, after the fields every rule
    /// shares. Default: nothing.
    fn save_schedule(_schedule: &Self::Schedule, _out: &mut Vec<u8>) {}

    /// Reads back what [`Rule::save_schedule`] wrote; `next(n)` returns
    /// the next `n` checkpoint bytes as a little-endian integer.
    fn restore_schedule(_next: impl FnMut(usize) -> u64) -> Self::Schedule {
        Self::Schedule::default()
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for crate::cmeans::Fuzzy {}
    impl Sealed for crate::kmeans::Nearest {}
    impl Sealed for crate::dakmeans::Annealing {}
}

/// Mutable model state, replicated identically on every "node" (shared
/// in one address space here).
struct State<S> {
    centers: MatrixF32,
    objective: Vec<f64>,
    last_shift: f64,
    schedule: S,
}

/// A center-based clusterer on the PRS: `k` centers moved to the
/// rule-weighted means of the points each iteration.
pub struct Centers<R: Rule> {
    points: Arc<MatrixF32>,
    k: usize,
    epsilon: f64,
    rule: R,
    state: RwLock<State<R::Schedule>>,
}

impl<R: Rule> Centers<R> {
    /// The app over `points` from starting `centers`; the rules'
    /// constructors pick both.
    pub(crate) fn with_rule(
        points: Arc<MatrixF32>,
        centers: MatrixF32,
        epsilon: f64,
        rule: R,
        schedule: R::Schedule,
    ) -> Self {
        assert!(centers.rows() >= 1 && centers.rows() < points.rows());
        Centers {
            points,
            k: centers.rows(),
            epsilon,
            rule,
            state: RwLock::new(State {
                centers,
                objective: Vec::new(),
                last_shift: f64::INFINITY,
                schedule,
            }),
        }
    }

    /// Snapshot of the current cluster centers.
    pub fn centers(&self) -> MatrixF32 {
        self.state.read().centers.clone()
    }

    /// The objective after each completed iteration: J_m (Equation (12))
    /// for C-means, the sum of squared errors for K-means; empty for a
    /// rule without one (DA).
    pub fn objective_history(&self) -> Vec<f64> {
        self.state.read().objective.clone()
    }

    /// Hard labels for a matrix of points under the current centers.
    pub fn labels(&self, points: &MatrixF32) -> Vec<u32> {
        let panel = CenterPanel::new(&self.state.read().centers);
        let mut s = panel.scratch();
        (0..points.rows())
            .map(|i| {
                panel.sq_dists(points.row(i), &mut s);
                self.rule.label(&mut s) as u32
            })
            .collect()
    }

    /// The rule's current schedule.
    pub(crate) fn schedule(&self) -> R::Schedule {
        self.state.read().schedule
    }

    /// The map task: per-cluster partial sums over `range` and the
    /// block's objective. Each chunk of `R::CHUNK` points weighs its
    /// points in index order; chunks merge in index order.
    pub(crate) fn block_partials(&self, range: Range<usize>) -> (Vec<ClusterPartial>, f64) {
        let (panel, schedule) = {
            let st = self.state.read();
            (CenterPanel::new(&st.centers), st.schedule)
        };
        let zero = || BlockSums::zero(self.k, self.points.cols());
        let sums = par_block_fold(
            range,
            R::CHUNK,
            |chunk| {
                let (mut s, mut sums) = (panel.scratch(), zero());
                for i in chunk {
                    panel.sq_dists(self.points.row(i), &mut s);
                    self.rule.weigh(&schedule, &mut s, &mut sums);
                }
                sums
            },
            zero(),
            |mut acc, part| {
                acc.merge(&part);
                acc
            },
        );
        let objective = sums.objective;
        (sums.into_partials(), objective)
    }
}

impl<R: Rule> SpmdApp for Centers<R> {
    type Inter = ClusterPartial;
    type Output = ClusterPartial;

    fn num_items(&self) -> usize {
        self.points.rows()
    }

    fn item_bytes(&self) -> u64 {
        4 * self.points.cols() as u64
    }

    fn workload(&self) -> Workload {
        // The points stay cached in GPU memory over iterations.
        Workload::uniform(R::AI_PER_CENTER * self.k as f64, DataResidency::Resident)
    }

    fn cpu_map(&self, _node: usize, range: Range<usize>) -> Vec<(Key, ClusterPartial)> {
        let (partials, objective) = self.block_partials(range);
        // Sized for the objective too: a block's output stays alive until
        // its node drains the map stage, and a push past a collected
        // `Vec`'s length would double it.
        let mut out = Vec::with_capacity(partials.len() + usize::from(R::OBJECTIVE));
        out.extend(partials.into_iter().enumerate().map(|(j, p)| (j as Key, p)));
        if R::OBJECTIVE {
            let mut p = ClusterPartial::zero(1);
            p.add(objective, &[1.0]);
            out.push((self.k as Key, p));
        }
        out
    }

    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, ClusterPartial)> {
        // Same numerics as the CPU flavour (the paper notes CPU and GPU
        // sources are often identical for such kernels).
        self.cpu_map(node, range)
    }

    fn reduce(&self, _d: DeviceClass, _key: Key, values: Vec<ClusterPartial>) -> ClusterPartial {
        let mut acc = values[0].clone();
        for v in &values[1..] {
            acc.merge(v);
        }
        acc
    }

    fn combine(&self, key: Key, values: Vec<ClusterPartial>) -> Vec<ClusterPartial> {
        vec![self.reduce(DeviceClass::Cpu, key, values)]
    }

    fn inter_bytes(&self, value: &ClusterPartial) -> u64 {
        value.wire_bytes()
    }

    fn output_bytes(&self, value: &ClusterPartial) -> u64 {
        value.wire_bytes()
    }
}

impl<R: Rule> IterativeApp for Centers<R> {
    fn update(&self, outputs: &[(Key, ClusterPartial)]) -> bool {
        let mut state = self.state.write();
        let mut new_centers = state.centers.clone();
        let mut objective = 0.0;
        for (key, partial) in outputs {
            let j = *key as usize;
            if j == self.k {
                objective = partial.weighted_sum[0];
            } else if let Some(c) = partial.center() {
                for (dst, &v) in new_centers.row_mut(j).iter_mut().zip(&c) {
                    *dst = v as f32;
                }
            }
        }
        let shift = max_center_shift(&state.centers, &new_centers);
        state.centers = new_centers;
        if R::OBJECTIVE {
            state.objective.push(objective);
        }
        state.last_shift = shift;
        self.rule
            .converged(&mut state.schedule, shift, self.epsilon)
    }
}

impl<R: Rule> CheckpointableApp for Centers<R> {
    // Everything `update` mutates, bit for bit: center coordinates and
    // the convergence trackers are serialized as raw IEEE-754 bits so a
    // restored run continues from exactly the checkpointed model. The
    // rule's schedule follows the shared fields.
    fn save_state(&self) -> Vec<u8> {
        let st = self.state.read();
        let mut out = Vec::with_capacity(32 + st.centers.len() * 4 + st.objective.len() * 8);
        for n in [st.centers.rows(), st.centers.cols()] {
            out.extend((n as u64).to_le_bytes());
        }
        out.extend(
            st.centers
                .as_slice()
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes()),
        );
        out.extend((st.objective.len() as u64).to_le_bytes());
        out.extend(st.objective.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        out.extend(st.last_shift.to_bits().to_le_bytes());
        R::save_schedule(&st.schedule, &mut out);
        out
    }

    fn restore_state(&self, bytes: &[u8]) {
        let mut at = 0usize;
        // The next `n` (at most 8) little-endian bytes.
        let mut next = |n: usize| {
            let mut word = [0u8; 8];
            word[..n].copy_from_slice(&bytes[at..at + n]);
            at += n;
            u64::from_le_bytes(word)
        };
        let (rows, cols) = (next(8) as usize, next(8) as usize);
        let data = (0..rows * cols)
            .map(|_| f32::from_bits(next(4) as u32))
            .collect();
        let n_obj = next(8) as usize;
        let objective = (0..n_obj).map(|_| f64::from_bits(next(8))).collect();
        let last_shift = f64::from_bits(next(8));
        let schedule = R::restore_schedule(next);
        assert_eq!(at, bytes.len(), "trailing bytes in a center checkpoint");
        *self.state.write() = State {
            centers: MatrixF32::from_vec(rows, cols, data),
            objective,
            last_shift,
            schedule,
        };
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Saves `app`, restores the bytes into `fresh` (built with other
    /// starting centers) and checks that nothing differs.
    pub(crate) fn assert_checkpoint_round_trips<R: Rule>(app: &Centers<R>, fresh: Centers<R>) {
        let bytes = app.save_state();
        assert_ne!(
            fresh.save_state(),
            bytes,
            "the fresh app must start elsewhere"
        );
        fresh.restore_state(&bytes);
        assert_eq!(fresh.save_state(), bytes);
        assert_eq!(fresh.centers().as_slice(), app.centers().as_slice());
        assert_eq!(fresh.objective_history(), app.objective_history());
        let (a, b) = (app.state.read(), fresh.state.read());
        assert_eq!(a.last_shift.to_bits(), b.last_shift.to_bits());
    }

    /// One model update from a whole-input map pass.
    pub(crate) fn step<R: Rule>(app: &Centers<R>) -> bool {
        app.update(&app.cpu_map(0, 0..app.num_items()))
    }
}
