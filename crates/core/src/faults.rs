//! Fault-injection plans: deterministic, seedable failure scenarios
//! threaded through every layer of the runtime.
//!
//! A [`FaultPlan`] travels inside the [`crate::ClusterSpec`] and is applied
//! once, before the simulation starts: GPU crash times and slowdown
//! windows are armed on the [`device`] layer, link disruptions on the
//! [`netsim`] fabric, and node stalls on the per-node sub-task schedulers.
//! Because every fault fires at a fixed virtual time (or is derived from
//! the plan's `seed` by a fixed generator), two runs of the same plan on
//! the same job replay identically — the property the failure-scenario
//! test suite pins down.
//!
//! Times are plain `f64` seconds rather than [`simtime::SimTime`] so plans
//! serialize cleanly into experiment configs.

use device::SlowdownWindow;
use netsim::LinkDisruption;
use serde::{Deserialize, Serialize};
use simtime::SimTime;

/// Kill one GPU's daemon at a fixed virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuCrash {
    /// Node rank.
    pub node: usize,
    /// GPU index within the node.
    pub gpu: usize,
    /// Crash time (virtual seconds). A kernel spanning this instant is
    /// interrupted; work already done on it is lost.
    pub at_secs: f64,
}

/// Stretch CPU task durations on one node during a window (a straggling
/// node whose cores are stolen by an external job).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSlowdown {
    /// Node rank.
    pub node: usize,
    /// Window start (virtual seconds, inclusive).
    pub from_secs: f64,
    /// Window end (virtual seconds, exclusive).
    pub until_secs: f64,
    /// Duration multiplier for tasks starting inside the window (> 1
    /// slows the node down).
    pub factor: f64,
}

/// Stretch GPU kernel durations on one device during a window (thermal
/// throttling, ECC scrubbing).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSlowdown {
    /// Node rank.
    pub node: usize,
    /// GPU index within the node.
    pub gpu: usize,
    /// Window start (virtual seconds, inclusive).
    pub from_secs: f64,
    /// Window end (virtual seconds, exclusive).
    pub until_secs: f64,
    /// Duration multiplier for kernels starting inside the window.
    pub factor: f64,
}

/// Delay a node's control-plane acknowledgements during a window: the
/// node still works, but looks dead to the master's partition timeout —
/// the straggler scenario that triggers reassignment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeStall {
    /// Node rank.
    pub node: usize,
    /// Window start (virtual seconds, inclusive).
    pub from_secs: f64,
    /// Window end (virtual seconds, exclusive).
    pub until_secs: f64,
    /// Extra delay before acknowledging a partition assignment that
    /// arrives inside the window.
    pub ack_delay_secs: f64,
}

/// Kill a whole worker node at a fixed virtual time: every device daemon
/// and the sub-task scheduler on it vanish. Recovery is epoch-based — the
/// crash is detected at the next iteration boundary (plus the heartbeat
/// detection delay), the job rolls back to the last checkpoint, and the
/// surviving nodes re-run the remaining iterations (see
/// [`crate::run_epochs`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeCrash {
    /// Stable node id: a node keeps its id for the job's whole lifetime,
    /// however many other nodes crash or drain before this one fires.
    pub node: usize,
    /// Crash time (virtual seconds, cumulative across recovery epochs).
    pub at_secs: f64,
}

/// Kill the master task scheduler at a fixed virtual time. Failover to a
/// standby master requires a checkpoint interval > 0 — the standby replays
/// from the last `ckpt-NNN.bin`, so the cluster topology is unchanged but
/// the detection + failover delay is charged to the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MasterCrash {
    /// Crash time (virtual seconds, cumulative across recovery epochs).
    pub at_secs: f64,
}

/// Which process a crash fault kills (see [`FaultPlan::earliest_crash`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashEvent {
    /// A whole worker node dies at the given virtual time.
    Node {
        /// Stable node id (see [`NodeCrash::node`]).
        node: usize,
        /// Crash time, virtual seconds.
        at_secs: f64,
    },
    /// The master dies at the given virtual time.
    Master {
        /// Crash time, virtual seconds.
        at_secs: f64,
    },
}

impl CrashEvent {
    /// The crash's virtual time.
    pub fn at_secs(&self) -> f64 {
        match self {
            CrashEvent::Node { at_secs, .. } | CrashEvent::Master { at_secs } => *at_secs,
        }
    }
}

/// Transient network fault on the shuffle/collective path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFault {
    /// Source rank filter (`None` matches any sender).
    pub src: Option<usize>,
    /// Destination rank filter (`None` matches any receiver).
    pub dst: Option<usize>,
    /// Window start (virtual seconds, inclusive).
    pub from_secs: f64,
    /// Window end (virtual seconds, exclusive).
    pub until_secs: f64,
    /// Extra one-way latency (jitter) on matching sends.
    pub extra_latency_secs: f64,
    /// Bandwidth multiplier in `(0, 1]` (congestion).
    pub bandwidth_factor: f64,
    /// Full partition: matching traffic is held until the window closes.
    pub partition: bool,
}

/// A complete, deterministic failure scenario for one job run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the plan's derived faults (see
    /// [`FaultPlan::with_random_jitter`]); also useful as a scenario label.
    pub seed: u64,
    /// GPU daemon crashes.
    pub gpu_crashes: Vec<GpuCrash>,
    /// CPU straggler windows.
    pub cpu_slowdowns: Vec<CpuSlowdown>,
    /// GPU straggler windows.
    pub gpu_slowdowns: Vec<GpuSlowdown>,
    /// Control-plane stall windows.
    pub node_stalls: Vec<NodeStall>,
    /// Network jitter / congestion / partition windows.
    pub link_faults: Vec<LinkFault>,
    /// Whole-node crashes (require the epoch driver).
    pub node_crashes: Vec<NodeCrash>,
    /// Master crashes (require checkpointing + the epoch driver).
    pub master_crashes: Vec<MasterCrash>,
}

/// splitmix64 step — the plan's only randomness source, fully determined
/// by the seed.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.gpu_crashes.is_empty()
            && self.cpu_slowdowns.is_empty()
            && self.gpu_slowdowns.is_empty()
            && self.node_stalls.is_empty()
            && self.link_faults.is_empty()
            && self.node_crashes.is_empty()
            && self.master_crashes.is_empty()
    }

    /// True when the plan contains whole-node or master crashes — faults
    /// only the epoch driver can survive.
    pub fn has_crash_faults(&self) -> bool {
        !self.node_crashes.is_empty() || !self.master_crashes.is_empty()
    }

    /// A copy with the crash faults removed — the plan the epoch
    /// driver hands each attempt's simulation (the driver consumes the
    /// crash events itself between epochs).
    pub fn sans_crashes(&self) -> FaultPlan {
        FaultPlan {
            node_crashes: Vec::new(),
            master_crashes: Vec::new(),
            ..self.clone()
        }
    }

    /// Adds a GPU crash (builder style).
    pub fn crash_gpu(mut self, node: usize, gpu: usize, at_secs: f64) -> Self {
        self.gpu_crashes.push(GpuCrash { node, gpu, at_secs });
        self
    }

    /// Adds a CPU straggler window.
    pub fn slow_cpu(mut self, node: usize, from_secs: f64, until_secs: f64, factor: f64) -> Self {
        self.cpu_slowdowns.push(CpuSlowdown {
            node,
            from_secs,
            until_secs,
            factor,
        });
        self
    }

    /// Adds a GPU straggler window.
    pub fn slow_gpu(
        mut self,
        node: usize,
        gpu: usize,
        from_secs: f64,
        until_secs: f64,
        factor: f64,
    ) -> Self {
        self.gpu_slowdowns.push(GpuSlowdown {
            node,
            gpu,
            from_secs,
            until_secs,
            factor,
        });
        self
    }

    /// Adds a control-plane stall window.
    pub fn stall_node(
        mut self,
        node: usize,
        from_secs: f64,
        until_secs: f64,
        ack_delay_secs: f64,
    ) -> Self {
        self.node_stalls.push(NodeStall {
            node,
            from_secs,
            until_secs,
            ack_delay_secs,
        });
        self
    }

    /// Adds a whole-node crash: every daemon on `node` dies at `at_secs`.
    /// Only [`crate::run_epochs`] accepts plans with crash
    /// faults; the plain drivers reject them at validation.
    pub fn crash_node(mut self, node: usize, at_secs: f64) -> Self {
        self.node_crashes.push(NodeCrash { node, at_secs });
        self
    }

    /// Adds a master crash at `at_secs`. Recovery requires a checkpoint
    /// interval > 0 (the standby master replays the last checkpoint), a
    /// rule enforced by the epoch driver's validation.
    pub fn crash_master(mut self, at_secs: f64) -> Self {
        self.master_crashes.push(MasterCrash { at_secs });
        self
    }

    /// Adds a network jitter window on `src -> dst` (either side `None` =
    /// wildcard).
    pub fn jitter_link(
        mut self,
        src: Option<usize>,
        dst: Option<usize>,
        from_secs: f64,
        until_secs: f64,
        extra_latency_secs: f64,
    ) -> Self {
        self.link_faults.push(LinkFault {
            src,
            dst,
            from_secs,
            until_secs,
            extra_latency_secs,
            bandwidth_factor: 1.0,
            partition: false,
        });
        self
    }

    /// Adds a network partition window on `src -> dst`.
    pub fn partition_link(
        mut self,
        src: Option<usize>,
        dst: Option<usize>,
        from_secs: f64,
        until_secs: f64,
    ) -> Self {
        self.link_faults.push(LinkFault {
            src,
            dst,
            from_secs,
            until_secs,
            extra_latency_secs: 0.0,
            bandwidth_factor: 1.0,
            partition: true,
        });
        self
    }

    /// Derives `count` jitter windows from the plan's seed: each picks a
    /// source rank, a start within `[0, span_secs)`, a duration up to
    /// `span_secs / 4`, and an extra latency up to `max_extra_secs`. The
    /// same seed always derives the same windows.
    pub fn with_random_jitter(
        mut self,
        ranks: usize,
        count: usize,
        span_secs: f64,
        max_extra_secs: f64,
    ) -> Self {
        assert!(ranks > 0);
        let mut state = self.seed ^ 0xa076_1d64_78bd_642f;
        let unit = |s: &mut u64| (splitmix64(s) >> 11) as f64 / (1u64 << 53) as f64;
        for _ in 0..count {
            let src = (splitmix64(&mut state) % ranks as u64) as usize;
            let from = unit(&mut state) * span_secs;
            let len = unit(&mut state) * span_secs / 4.0;
            let extra = unit(&mut state) * max_extra_secs;
            self = self.jitter_link(Some(src), None, from, from + len, extra);
        }
        self
    }

    // ---- Conversions consumed by the runtime when arming the layers. ----

    /// The earliest armed crash time for `(node, gpu)`, if any.
    pub fn gpu_crash_at(&self, node: usize, gpu: usize) -> Option<SimTime> {
        self.gpu_crashes
            .iter()
            .filter(|c| c.node == node && c.gpu == gpu)
            .map(|c| c.at_secs)
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.min(t)))
            })
            .map(SimTime::from_secs_f64)
    }

    /// CPU slowdown windows for `node`, in device form.
    pub fn cpu_windows(&self, node: usize) -> Vec<SlowdownWindow> {
        self.cpu_slowdowns
            .iter()
            .filter(|s| s.node == node)
            .map(|s| {
                SlowdownWindow::new(
                    SimTime::from_secs_f64(s.from_secs),
                    SimTime::from_secs_f64(s.until_secs),
                    s.factor,
                )
            })
            .collect()
    }

    /// GPU slowdown windows for `(node, gpu)`, in device form.
    pub fn gpu_windows(&self, node: usize, gpu: usize) -> Vec<SlowdownWindow> {
        self.gpu_slowdowns
            .iter()
            .filter(|s| s.node == node && s.gpu == gpu)
            .map(|s| {
                SlowdownWindow::new(
                    SimTime::from_secs_f64(s.from_secs),
                    SimTime::from_secs_f64(s.until_secs),
                    s.factor,
                )
            })
            .collect()
    }

    /// Stall windows for `node` (used by its sub-task scheduler).
    pub fn stalls_for(&self, node: usize) -> Vec<NodeStall> {
        self.node_stalls
            .iter()
            .filter(|s| s.node == node)
            .copied()
            .collect()
    }

    /// All link faults, in fabric form.
    pub fn link_disruptions(&self) -> Vec<LinkDisruption> {
        self.link_faults
            .iter()
            .map(|f| LinkDisruption {
                src: f.src,
                dst: f.dst,
                from: SimTime::from_secs_f64(f.from_secs),
                until: SimTime::from_secs_f64(f.until_secs),
                extra_latency: SimTime::from_secs_f64(f.extra_latency_secs),
                bandwidth_factor: f.bandwidth_factor,
                partition: f.partition,
            })
            .collect()
    }

    /// The earliest pending crash fault, if any. Ties between a node and
    /// a master crash at the same instant resolve to the node crash (the
    /// bigger loss), then to the lowest rank — fully deterministic.
    pub fn earliest_crash(&self) -> Option<CrashEvent> {
        let nodes = self.node_crashes.iter().map(|c| CrashEvent::Node {
            node: c.node,
            at_secs: c.at_secs,
        });
        let masters = self.master_crashes.iter().map(|c| CrashEvent::Master {
            at_secs: c.at_secs,
        });
        let key = |c: &CrashEvent| match *c {
            CrashEvent::Node { node, at_secs } => (at_secs, 0, node),
            CrashEvent::Master { at_secs } => (at_secs, 1, 0),
        };
        // Of equal keys `min_by` keeps the first, as a strict `<` scan would.
        nodes.chain(masters).min_by(|a, b| {
            let order = key(a).partial_cmp(&key(b));
            order.unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Shifts every fault time back by `base_secs` — the virtual time a
    /// failed recovery epoch consumed — dropping faults and clipping
    /// windows that now lie entirely in the past. Fault times in a plan
    /// are absolute in the cumulative (cross-epoch) virtual timeline; each
    /// attempt's simulation clock restarts at zero, so the epoch
    /// driver rebases the plan before every retry.
    pub fn rebased(&self, base_secs: f64) -> FaultPlan {
        assert!(base_secs >= 0.0 && base_secs.is_finite());
        // An instant fault is kept while it is still ahead, a window
        // while it is not yet over; both move onto the new clock.
        let ahead = |at: &mut f64| {
            let keep = *at > base_secs;
            *at -= base_secs;
            keep
        };
        let open = |from: &mut f64, until: &mut f64| {
            *from = (*from - base_secs).max(0.0);
            ahead(until)
        };
        let mut out = self.clone();
        out.gpu_crashes.retain_mut(|c| ahead(&mut c.at_secs));
        out.cpu_slowdowns
            .retain_mut(|s| open(&mut s.from_secs, &mut s.until_secs));
        out.gpu_slowdowns
            .retain_mut(|s| open(&mut s.from_secs, &mut s.until_secs));
        out.node_stalls
            .retain_mut(|s| open(&mut s.from_secs, &mut s.until_secs));
        out.link_faults
            .retain_mut(|f| open(&mut f.from_secs, &mut f.until_secs));
        out.node_crashes.retain_mut(|c| ahead(&mut c.at_secs));
        out.master_crashes.retain_mut(|c| ahead(&mut c.at_secs));
        out
    }

    /// The plan with every node reference sent through `f`. A fault whose
    /// node — or either named end of its link — maps to `None` is
    /// dropped; link wildcards (`None`) and master crashes name no node
    /// and are kept.
    fn map_nodes(&self, f: impl Fn(usize) -> Option<usize>) -> FaultPlan {
        let node = |n: &mut usize| f(*n).map(|mapped| *n = mapped).is_some();
        let end = |e: &mut Option<usize>| e.as_mut().is_none_or(node);
        let mut out = self.clone();
        out.gpu_crashes.retain_mut(|c| node(&mut c.node));
        out.cpu_slowdowns.retain_mut(|s| node(&mut s.node));
        out.gpu_slowdowns.retain_mut(|s| node(&mut s.node));
        out.node_stalls.retain_mut(|s| node(&mut s.node));
        out.link_faults
            .retain_mut(|l| end(&mut l.src) && end(&mut l.dst));
        out.node_crashes.retain_mut(|c| node(&mut c.node));
        out
    }

    /// Removes the departed node `id` from the plan: its remaining faults
    /// are dropped (the hardware no longer exists) while every other
    /// node's faults keep their ids. Node references in a plan live in
    /// the *stable id* space — a node keeps its id for the job's whole
    /// lifetime, however many lower-id nodes crash or drain before it —
    /// so removing one node never shifts the attribution of later events
    /// (the driver projects stable ids onto each attempt's contiguous
    /// rank space with [`FaultPlan::project`]). Link-fault wildcards
    /// (`None`) are preserved.
    pub fn without_node(&self, id: usize) -> FaultPlan {
        self.map_nodes(|n| (n != id).then_some(n))
    }

    /// Projects a stable-id plan onto one attempt's contiguous rank
    /// space: `node_ids[rank]` is the stable id simulated at `rank`, so a
    /// fault on stable id `n` lands on `node_ids.position(n)`. Faults
    /// referencing ids no longer (or not yet) in the cluster are dropped.
    /// With the identity mapping `[0, 1, ..., n-1]` the projection is the
    /// plan itself — plain fixed-cluster runs are untouched.
    pub fn project(&self, node_ids: &[usize]) -> FaultPlan {
        self.map_nodes(|n| node_ids.iter().position(|&id| id == n))
    }

    /// Largest node rank referenced anywhere in the plan, for validation.
    pub fn max_node_ref(&self) -> Option<usize> {
        let max = std::cell::Cell::new(None);
        self.map_nodes(|n| {
            max.set(max.get().max(Some(n)));
            Some(n)
        });
        max.get()
    }

    /// Checks internal consistency (finite, ordered windows; positive
    /// factors). Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for c in &self.gpu_crashes {
            if !c.at_secs.is_finite() || c.at_secs < 0.0 {
                return Err(format!("gpu crash time {} must be finite and >= 0", c.at_secs));
            }
        }
        let window = |from: f64, until: f64, what: &str| -> Result<(), String> {
            if !from.is_finite() || !until.is_finite() || from < 0.0 || until <= from {
                return Err(format!("{what} window [{from}, {until}) is invalid"));
            }
            Ok(())
        };
        for s in &self.cpu_slowdowns {
            window(s.from_secs, s.until_secs, "cpu slowdown")?;
            if !s.factor.is_finite() || s.factor <= 0.0 {
                return Err(format!("cpu slowdown factor {} must be positive", s.factor));
            }
        }
        for s in &self.gpu_slowdowns {
            window(s.from_secs, s.until_secs, "gpu slowdown")?;
            if !s.factor.is_finite() || s.factor <= 0.0 {
                return Err(format!("gpu slowdown factor {} must be positive", s.factor));
            }
        }
        for s in &self.node_stalls {
            window(s.from_secs, s.until_secs, "node stall")?;
            if !s.ack_delay_secs.is_finite() || s.ack_delay_secs < 0.0 {
                return Err(format!("stall ack delay {} must be >= 0", s.ack_delay_secs));
            }
        }
        for f in &self.link_faults {
            window(f.from_secs, f.until_secs, "link fault")?;
            if !f.extra_latency_secs.is_finite() || f.extra_latency_secs < 0.0 {
                return Err(format!(
                    "link extra latency {} must be >= 0",
                    f.extra_latency_secs
                ));
            }
            if !f.bandwidth_factor.is_finite()
                || f.bandwidth_factor <= 0.0
                || f.bandwidth_factor > 1.0
            {
                return Err(format!(
                    "link bandwidth factor {} must be in (0, 1]",
                    f.bandwidth_factor
                ));
            }
        }
        for c in &self.node_crashes {
            if !c.at_secs.is_finite() || c.at_secs < 0.0 {
                return Err(format!(
                    "node crash time {} must be finite and >= 0",
                    c.at_secs
                ));
            }
        }
        for c in &self.master_crashes {
            if !c.at_secs.is_finite() || c.at_secs < 0.0 {
                return Err(format!(
                    "master crash time {} must be finite and >= 0",
                    c.at_secs
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_and_validate() {
        let plan = FaultPlan::seeded(7)
            .crash_gpu(0, 0, 1.5)
            .slow_cpu(1, 0.0, 2.0, 3.0)
            .stall_node(2, 0.0, 1.0, 0.5)
            .jitter_link(Some(0), None, 0.0, 1.0, 0.01)
            .partition_link(None, Some(1), 2.0, 3.0);
        assert!(!plan.is_empty());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.max_node_ref(), Some(2));
        assert_eq!(
            plan.gpu_crash_at(0, 0),
            Some(SimTime::from_secs_f64(1.5))
        );
        assert_eq!(plan.gpu_crash_at(0, 1), None);
        assert_eq!(plan.cpu_windows(1).len(), 1);
        assert_eq!(plan.cpu_windows(0).len(), 0);
        assert_eq!(plan.link_disruptions().len(), 2);
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(FaultPlan::default()
            .crash_gpu(0, 0, -1.0)
            .validate()
            .is_err());
        assert!(FaultPlan::default()
            .slow_cpu(0, 2.0, 1.0, 2.0)
            .validate()
            .is_err());
        assert!(FaultPlan::default()
            .slow_cpu(0, 0.0, 1.0, 0.0)
            .validate()
            .is_err());
        let mut bad_bw = FaultPlan::default().jitter_link(None, None, 0.0, 1.0, 0.0);
        bad_bw.link_faults[0].bandwidth_factor = 1.5;
        assert!(bad_bw.validate().is_err());
    }

    #[test]
    fn seeded_jitter_is_reproducible() {
        let a = FaultPlan::seeded(42).with_random_jitter(4, 5, 10.0, 0.01);
        let b = FaultPlan::seeded(42).with_random_jitter(4, 5, 10.0, 0.01);
        let c = FaultPlan::seeded(43).with_random_jitter(4, 5, 10.0, 0.01);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.link_faults.len(), 5);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn earliest_crash_wins() {
        let plan = FaultPlan::default().crash_gpu(0, 0, 5.0).crash_gpu(0, 0, 2.0);
        assert_eq!(plan.gpu_crash_at(0, 0), Some(SimTime::from_secs_f64(2.0)));
    }

    #[test]
    fn crash_builders_accumulate_and_validate() {
        let plan = FaultPlan::seeded(11).crash_node(2, 1.25).crash_master(3.0);
        assert!(!plan.is_empty());
        assert!(plan.has_crash_faults());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.max_node_ref(), Some(2));
        assert_eq!(plan.node_crashes.len(), 1);
        assert_eq!(plan.master_crashes.len(), 1);
        assert!(!FaultPlan::seeded(11).crash_gpu(0, 0, 1.0).has_crash_faults());
    }

    #[test]
    fn crash_before_t0_is_rejected() {
        assert!(FaultPlan::default().crash_node(0, -0.5).validate().is_err());
        assert!(FaultPlan::default().crash_master(-1.0).validate().is_err());
        assert!(FaultPlan::default()
            .crash_node(0, f64::NAN)
            .validate()
            .is_err());
        assert!(FaultPlan::default().crash_node(0, 0.0).validate().is_ok());
        assert!(FaultPlan::default().crash_master(0.0).validate().is_ok());
    }

    #[test]
    fn earliest_crash_is_deterministic() {
        let plan = FaultPlan::default()
            .crash_master(2.0)
            .crash_node(1, 2.0)
            .crash_node(0, 2.0)
            .crash_node(3, 5.0);
        // Same instant: node crash beats master crash, lowest rank first.
        assert_eq!(
            plan.earliest_crash(),
            Some(CrashEvent::Node {
                node: 0,
                at_secs: 2.0
            })
        );
        assert_eq!(FaultPlan::default().earliest_crash(), None);
        assert_eq!(
            FaultPlan::default().crash_master(1.0).earliest_crash(),
            Some(CrashEvent::Master { at_secs: 1.0 })
        );
    }

    #[test]
    fn rebase_shifts_and_drops() {
        let plan = FaultPlan::seeded(3)
            .crash_gpu(0, 0, 1.0)
            .crash_gpu(1, 0, 4.0)
            .slow_cpu(0, 1.0, 5.0, 2.0)
            .stall_node(1, 0.0, 1.5, 0.2)
            .crash_node(1, 6.0)
            .crash_master(1.5);
        let r = plan.rebased(2.0);
        assert_eq!(r.seed, 3);
        // Past faults dropped, future ones shifted, spanning windows clipped.
        assert_eq!(r.gpu_crashes.len(), 1);
        assert_eq!(r.gpu_crashes[0].at_secs, 2.0);
        assert_eq!(r.cpu_slowdowns.len(), 1);
        assert_eq!(r.cpu_slowdowns[0].from_secs, 0.0);
        assert_eq!(r.cpu_slowdowns[0].until_secs, 3.0);
        assert!(r.node_stalls.is_empty());
        assert_eq!(r.node_crashes.len(), 1);
        assert_eq!(r.node_crashes[0].at_secs, 4.0);
        assert!(r.master_crashes.is_empty());
        assert!(r.validate().is_ok());
    }

    #[test]
    fn without_node_drops_without_remapping() {
        let plan = FaultPlan::seeded(9)
            .crash_gpu(1, 0, 1.0)
            .crash_gpu(2, 1, 2.0)
            .slow_cpu(0, 0.0, 1.0, 2.0)
            .stall_node(1, 0.0, 1.0, 0.1)
            .jitter_link(Some(2), None, 0.0, 1.0, 0.01)
            .jitter_link(Some(1), Some(0), 0.0, 1.0, 0.01)
            .crash_node(1, 3.0)
            .crash_node(2, 4.0)
            .crash_master(5.0);
        let r = plan.without_node(1);
        // Node 1's faults vanish; node 2 keeps its stable id, so the
        // later crash's blame never shifts onto a surviving node.
        assert_eq!(r.gpu_crashes.len(), 1);
        assert_eq!(r.gpu_crashes[0].node, 2);
        assert_eq!(r.cpu_slowdowns.len(), 1);
        assert_eq!(r.cpu_slowdowns[0].node, 0);
        assert!(r.node_stalls.is_empty());
        assert_eq!(r.link_faults.len(), 1);
        assert_eq!(r.link_faults[0].src, Some(2));
        assert_eq!(r.node_crashes.len(), 1);
        assert_eq!(r.node_crashes[0].node, 2);
        assert_eq!(r.master_crashes.len(), 1);
        assert_eq!(r.max_node_ref(), Some(2));
    }

    #[test]
    fn project_maps_stable_ids_to_attempt_ranks() {
        let plan = FaultPlan::seeded(9)
            .crash_gpu(2, 1, 2.0)
            .slow_cpu(0, 0.0, 1.0, 2.0)
            .slow_cpu(1, 0.0, 1.0, 3.0) // id 1 is gone: dropped
            .jitter_link(Some(2), None, 0.0, 1.0, 0.01)
            .crash_node(2, 4.0)
            .crash_master(5.0);
        // Survivors are stable ids 0 and 2, simulated at ranks 0 and 1.
        let r = plan.project(&[0, 2]);
        assert_eq!(r.gpu_crashes.len(), 1);
        assert_eq!(r.gpu_crashes[0].node, 1);
        assert_eq!(r.cpu_slowdowns.len(), 1);
        assert_eq!(r.cpu_slowdowns[0].node, 0);
        assert_eq!(r.link_faults.len(), 1);
        assert_eq!(r.link_faults[0].src, Some(1));
        assert_eq!(r.node_crashes.len(), 1);
        assert_eq!(r.node_crashes[0].node, 1);
        assert_eq!(r.master_crashes.len(), 1);
        // The identity projection is the plan itself.
        assert_eq!(plan.project(&[0, 1, 2]), plan);
    }
}
