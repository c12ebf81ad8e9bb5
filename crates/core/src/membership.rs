//! Elastic cluster membership: seeded, serializable churn plans and the
//! autoscaler policy the epoch driver ([`crate::run_epochs`]) executes.
//!
//! A [`MembershipPlan`] is the membership counterpart of
//! [`crate::FaultPlan`]: a deterministic schedule of scale-out,
//! graceful-drain, and forced-evict events in virtual time. Planned
//! churn degrades *gracefully* where a crash cannot: a draining node
//! stops receiving new work at the event's iteration boundary and its
//! in-flight results are kept (no rollback); only a blown drain deadline
//! falls back to the checkpoint-handoff path. Scale-out admits nodes
//! through a join handshake with retry + exponential backoff over lossy
//! links, and Equation (8) is re-solved over the surviving set at the
//! next iteration boundary simply because every epoch re-partitions over
//! the current profile list.
//!
//! Node references in a plan live in the *stable id* space: a node keeps
//! the id it was born with for the job's whole lifetime, however many
//! lower-id nodes leave first, and scale-out assigns fresh ids past the
//! largest ever used. The driver projects stable ids onto each attempt's
//! contiguous rank space with [`crate::FaultPlan::project`].

use serde::{Deserialize, Serialize};

/// The most nodes one plan may admit in total. A count read from a plan
/// file must be bounded before a cluster is sized from it: every node
/// costs its processes' futures, its device state and its share of every
/// collective, and each epoch of an elastic run builds the whole cluster
/// again. This bound is far past any elastic experiment here.
pub const MAX_SCALE_OUT_NODES: usize = 4096;

/// Admit `count` new nodes at a fixed virtual time. The new nodes clone
/// the cluster's node-0 profile (homogeneous growth) and receive fresh
/// stable ids past the largest ever assigned.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleOut {
    /// How many nodes join together.
    pub count: usize,
    /// Join time (virtual seconds, cumulative across epochs).
    pub at_secs: f64,
}

/// Gracefully remove one node: from the first iteration boundary at or
/// after `at_secs` the master stops scheduling onto it and its in-flight
/// results are kept. If the boundary has not been reached
/// `deadline_secs` after the drain began, the node checkpoint-hands-off
/// instead (rollback to the last checkpoint, no detection delay).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Drain {
    /// Stable node id to drain.
    pub node: usize,
    /// Drain start (virtual seconds, cumulative across epochs).
    pub at_secs: f64,
    /// Grace window before the checkpoint-handoff path kicks in.
    pub deadline_secs: f64,
}

/// Forcibly evict one node at a fixed virtual time: the master cuts it
/// off without a handshake, so the interrupted iteration rolls back to
/// the last checkpoint — but unlike a crash there is no heartbeat
/// detection delay (the master initiated the removal and knows).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Evict {
    /// Stable node id to evict.
    pub node: usize,
    /// Eviction time (virtual seconds, cumulative across epochs).
    pub at_secs: f64,
}

/// One pending membership event (see [`MembershipPlan::earliest_event`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MembershipEvent {
    /// A forced eviction fires.
    Evict(Evict),
    /// A graceful drain begins.
    Drain(Drain),
    /// New nodes join.
    ScaleOut(ScaleOut),
}

impl MembershipEvent {
    /// The event's virtual time.
    pub fn at_secs(&self) -> f64 {
        match self {
            MembershipEvent::Evict(e) => e.at_secs,
            MembershipEvent::Drain(d) => d.at_secs,
            MembershipEvent::ScaleOut(s) => s.at_secs,
        }
    }

    /// Deterministic ordering rank for same-instant ties: evictions are
    /// the most disruptive and go first, then drains, then scale-outs;
    /// within a kind the lowest node id (or count) wins.
    fn order_key(&self) -> (f64, u8, usize) {
        match self {
            MembershipEvent::Evict(e) => (e.at_secs, 0, e.node),
            MembershipEvent::Drain(d) => (d.at_secs, 1, d.node),
            MembershipEvent::ScaleOut(s) => (s.at_secs, 2, s.count),
        }
    }
}

/// A complete, deterministic membership scenario for one job run — the
/// churn counterpart of [`crate::FaultPlan`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MembershipPlan {
    /// Scenario seed/label (reserved for derived-churn generators; the
    /// explicit event lists below are the plan's only behavior today).
    pub seed: u64,
    /// Scale-out events.
    pub scale_outs: Vec<ScaleOut>,
    /// Graceful drains.
    pub drains: Vec<Drain>,
    /// Forced evictions.
    pub evicts: Vec<Evict>,
}

impl MembershipPlan {
    /// An empty plan (no churn) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        MembershipPlan {
            seed,
            ..MembershipPlan::default()
        }
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.scale_outs.is_empty() && self.drains.is_empty() && self.evicts.is_empty()
    }

    /// Total nodes admitted by all scale-out events (saturating, so an
    /// absurd plan reads as `usize::MAX` for [`Self::validate`] to reject).
    pub fn total_scale_out(&self) -> usize {
        self.scale_outs
            .iter()
            .fold(0, |n, s| n.saturating_add(s.count))
    }

    /// Adds a scale-out event (builder style).
    pub fn scale_out(mut self, count: usize, at_secs: f64) -> Self {
        self.scale_outs.push(ScaleOut { count, at_secs });
        self
    }

    /// Adds a graceful drain.
    pub fn drain(mut self, node: usize, at_secs: f64, deadline_secs: f64) -> Self {
        self.drains.push(Drain {
            node,
            at_secs,
            deadline_secs,
        });
        self
    }

    /// Adds a forced eviction.
    pub fn evict(mut self, node: usize, at_secs: f64) -> Self {
        self.evicts.push(Evict { node, at_secs });
        self
    }

    /// The earliest pending event, with deterministic same-instant
    /// tie-breaking (see `MembershipEvent::order_key`).
    pub fn earliest_event(&self) -> Option<MembershipEvent> {
        let evicts = self.evicts.iter().map(|e| MembershipEvent::Evict(*e));
        let drains = self.drains.iter().map(|d| MembershipEvent::Drain(*d));
        let scale_outs = self
            .scale_outs
            .iter()
            .map(|s| MembershipEvent::ScaleOut(*s));
        // Of equal keys `min_by` keeps the first, as a strict `<` scan would.
        evicts.chain(drains).chain(scale_outs).min_by(|a, b| {
            let order = a.order_key().partial_cmp(&b.order_key());
            order.unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Removes the first event equal to `ev` — the driver consumes each
    /// processed event explicitly, so two events between the same pair
    /// of iteration boundaries are handled one epoch at a time rather
    /// than silently dropped together.
    pub fn consumed(&self, ev: &MembershipEvent) -> MembershipPlan {
        fn remove_first<T: PartialEq>(events: &mut Vec<T>, ev: &T) {
            if let Some(i) = events.iter().position(|x| x == ev) {
                events.remove(i);
            }
        }
        let mut out = self.clone();
        match ev {
            MembershipEvent::Evict(e) => remove_first(&mut out.evicts, e),
            MembershipEvent::Drain(d) => remove_first(&mut out.drains, d),
            MembershipEvent::ScaleOut(s) => remove_first(&mut out.scale_outs, s),
        }
        out
    }

    /// Shifts every event back by `base_secs` (the virtual time the last
    /// epoch consumed), clamping to zero rather than dropping: an event
    /// whose time already passed but was not yet processed fires at the
    /// next boundary instead of vanishing. Compare
    /// [`crate::FaultPlan::rebased`], which drops past faults — a fault
    /// that did not fire can no longer happen, but a membership order
    /// still stands.
    pub fn rebased(&self, base_secs: f64) -> MembershipPlan {
        assert!(base_secs >= 0.0 && base_secs.is_finite());
        let shift = |at: &mut f64| *at = (*at - base_secs).max(0.0);
        let mut out = self.clone();
        out.scale_outs
            .iter_mut()
            .for_each(|s| shift(&mut s.at_secs));
        out.drains.iter_mut().for_each(|d| shift(&mut d.at_secs));
        out.evicts.iter_mut().for_each(|e| shift(&mut e.at_secs));
        out
    }

    /// Drops every drain/evict referencing the departed node `id` — a
    /// node that crashed mid-drain has no drain left to finish.
    pub fn without_node(&self, id: usize) -> MembershipPlan {
        let mut out = self.clone();
        out.drains.retain(|d| d.node != id);
        out.evicts.retain(|e| e.node != id);
        out
    }

    /// Largest stable node id referenced by a drain/evict, for validation.
    pub fn max_node_ref(&self) -> Option<usize> {
        self.drains
            .iter()
            .map(|d| d.node)
            .chain(self.evicts.iter().map(|e| e.node))
            .max()
    }

    /// Checks internal consistency: finite non-negative times, positive
    /// scale-out counts totalling at most [`MAX_SCALE_OUT_NODES`],
    /// non-negative drain deadlines, and no node drained or evicted twice
    /// (each removal is final).
    pub fn validate(&self) -> Result<(), String> {
        let time = |t: f64, what: &str| -> Result<(), String> {
            if !t.is_finite() || t < 0.0 {
                return Err(format!("{what} time {t} must be finite and >= 0"));
            }
            Ok(())
        };
        for s in &self.scale_outs {
            time(s.at_secs, "scale-out")?;
            if s.count == 0 {
                return Err("scale-out count must be >= 1".into());
            }
        }
        if self.total_scale_out() > MAX_SCALE_OUT_NODES {
            return Err(format!(
                "scale-out events admit {} nodes in total, more than the {MAX_SCALE_OUT_NODES} \
                 a run can simulate",
                self.total_scale_out()
            ));
        }
        for d in &self.drains {
            time(d.at_secs, "drain")?;
            if !d.deadline_secs.is_finite() || d.deadline_secs < 0.0 {
                return Err(format!(
                    "drain deadline {} must be finite and >= 0",
                    d.deadline_secs
                ));
            }
        }
        for e in &self.evicts {
            time(e.at_secs, "evict")?;
        }
        let mut removed: Vec<usize> = self
            .drains
            .iter()
            .map(|d| d.node)
            .chain(self.evicts.iter().map(|e| e.node))
            .collect();
        removed.sort_unstable();
        for w in removed.windows(2) {
            if w[0] == w[1] {
                return Err(format!(
                    "node {} is drained/evicted more than once — each removal is final",
                    w[0]
                ));
            }
        }
        Ok(())
    }

    /// Parses the membership plan TOML format (grammar: [`insight::toml`];
    /// keys: `docs/elasticity.md`):
    ///
    /// ```toml
    /// seed = 7
    /// [[scale_out]]
    /// at_s = 0.5
    /// count = 1
    /// [[drain]]
    /// node = 2
    /// at_s = 0.4
    /// deadline_s = 0.2
    /// [[evict]]
    /// node = 1
    /// at_s = 0.6
    /// ```
    pub fn from_toml(text: &str) -> Result<MembershipPlan, String> {
        let mut plan = MembershipPlan::default();
        for table in insight::toml::parse(text)? {
            let keys: &[&str] = match (table.array, table.name.as_str()) {
                (false, "") => &["seed"],
                (true, "scale_out") => &["count", "at_s"],
                (true, "drain") => &["node", "at_s", "deadline_s"],
                (true, "evict") => &["node", "at_s"],
                _ => return Err(table.unknown()),
            };
            for e in &table.entries {
                e.num()?;
                if !keys.contains(&e.key.as_str()) {
                    return Err(e.error("is not a key of this section"));
                }
            }
            // A key the table does not set reads as its default.
            let num = |key: &str| table.get(key).map_or(Ok(0.0), |e| e.num());
            let index = |key: &str, default: usize| match table.get(key) {
                Ok(e) => insight::toml::whole(e.num()?, usize::MAX as u64)
                    .map(|n| n as usize)
                    .ok_or_else(|| e.error("wants a whole number from 0 to 2^64")),
                Err(_) => Ok(default),
            };
            match table.name.as_str() {
                "" => plan.seed = index("seed", 0)? as u64,
                "scale_out" => plan = plan.scale_out(index("count", 1)?, num("at_s")?),
                "drain" => plan = plan.drain(index("node", 0)?, num("at_s")?, num("deadline_s")?),
                _ => plan = plan.evict(index("node", 0)?, num("at_s")?),
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

/// Hysteresis-based autoscaler: grows the cluster when iterations run
/// slow (queue pressure / stragglers) for `grow_streak` consecutive
/// evaluations, shrinks it after `shrink_streak` consecutive idle
/// windows, and refuses to flap by sitting out `cooldown_evals`
/// evaluations after every action. Evaluations happen every
/// `eval_interval_iters` iteration boundaries; every decision — held or
/// acted on — lands in `decisions.jsonl` with its full inputs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalePolicy {
    /// Iterations between policy evaluations (>= 1).
    pub eval_interval_iters: usize,
    /// Never shrink below this many nodes.
    pub min_nodes: usize,
    /// Never grow past this many nodes.
    pub max_nodes: usize,
    /// Mean per-iteration seconds above which an evaluation votes grow.
    pub grow_above_secs: f64,
    /// Mean per-iteration seconds below which an evaluation votes shrink.
    pub shrink_below_secs: f64,
    /// Consecutive grow votes required before acting.
    pub grow_streak: usize,
    /// Consecutive shrink votes required before acting.
    pub shrink_streak: usize,
    /// Evaluations to sit out after an action (hysteresis).
    pub cooldown_evals: usize,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        AutoscalePolicy {
            eval_interval_iters: 2,
            min_nodes: 1,
            max_nodes: 8,
            grow_above_secs: 0.5,
            shrink_below_secs: 0.05,
            grow_streak: 2,
            shrink_streak: 2,
            cooldown_evals: 1,
        }
    }
}

impl AutoscalePolicy {
    /// Checks the policy's knobs for consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.eval_interval_iters == 0 {
            return Err("autoscale eval interval must be >= 1 iteration".into());
        }
        if self.min_nodes == 0 {
            return Err("autoscale min_nodes must be >= 1".into());
        }
        if self.max_nodes < self.min_nodes {
            return Err(format!(
                "autoscale max_nodes {} < min_nodes {}",
                self.max_nodes, self.min_nodes
            ));
        }
        if !self.grow_above_secs.is_finite() || !self.shrink_below_secs.is_finite() {
            return Err("autoscale thresholds must be finite".into());
        }
        if self.shrink_below_secs > self.grow_above_secs {
            return Err(format!(
                "autoscale shrink_below_secs {} > grow_above_secs {} — the dead band is inverted",
                self.shrink_below_secs, self.grow_above_secs
            ));
        }
        if self.grow_streak == 0 || self.shrink_streak == 0 {
            return Err("autoscale streaks must be >= 1".into());
        }
        Ok(())
    }
}

/// What the membership state machine did over a whole elastic run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MembershipCounters {
    /// Nodes admitted through the join handshake.
    pub joins: u64,
    /// Join handshake sends lost to partition windows and retried.
    pub join_retries: u64,
    /// Graceful drains completed (in-flight work kept).
    pub drains: u64,
    /// Forced evictions (rollback, no detection delay).
    pub evictions: u64,
    /// Drains whose deadline blew: checkpoint-handoff rollbacks.
    pub handoffs: u64,
    /// Autoscaler grow actions taken.
    pub grow_decisions: u64,
    /// Autoscaler shrink actions taken.
    pub shrink_decisions: u64,
    /// Virtual seconds the whole cluster spent waiting on join
    /// handshakes (charged once per scale-out, not per joiner).
    pub secs_waiting_joins: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_and_validate() {
        let plan = MembershipPlan::seeded(7)
            .scale_out(2, 0.5)
            .drain(1, 0.4, 0.2)
            .evict(2, 0.6);
        assert!(!plan.is_empty());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.total_scale_out(), 2);
        assert_eq!(plan.max_node_ref(), Some(2));
        assert!(MembershipPlan::seeded(1).is_empty());
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(MembershipPlan::default().scale_out(0, 1.0).validate().is_err());
        assert!(MembershipPlan::default().scale_out(1, -1.0).validate().is_err());
        assert!(MembershipPlan::default().drain(0, 1.0, -0.5).validate().is_err());
        assert!(MembershipPlan::default()
            .evict(0, f64::NAN)
            .validate()
            .is_err());
        // A node can only leave once.
        assert!(MembershipPlan::default()
            .drain(1, 1.0, 0.1)
            .evict(1, 2.0)
            .validate()
            .is_err());
    }

    #[test]
    fn earliest_event_orders_deterministically() {
        let plan = MembershipPlan::default()
            .scale_out(1, 1.0)
            .drain(2, 1.0, 0.5)
            .evict(3, 1.0);
        // Same instant: evict < drain < scale-out.
        assert_eq!(
            plan.earliest_event(),
            Some(MembershipEvent::Evict(Evict {
                node: 3,
                at_secs: 1.0
            }))
        );
        let plan = MembershipPlan::default().scale_out(1, 0.5).drain(2, 1.0, 0.5);
        assert_eq!(
            plan.earliest_event(),
            Some(MembershipEvent::ScaleOut(ScaleOut {
                count: 1,
                at_secs: 0.5
            }))
        );
        assert_eq!(MembershipPlan::default().earliest_event(), None);
    }

    #[test]
    fn consumed_removes_exactly_one_event() {
        let plan = MembershipPlan::default().drain(1, 1.0, 0.5).drain(2, 2.0, 0.5);
        let ev = plan.earliest_event().unwrap();
        let rest = plan.consumed(&ev);
        assert_eq!(rest.drains.len(), 1);
        assert_eq!(rest.drains[0].node, 2);
    }

    #[test]
    fn rebase_clamps_instead_of_dropping() {
        let plan = MembershipPlan::seeded(3)
            .scale_out(1, 0.5)
            .drain(1, 2.0, 0.25)
            .evict(2, 3.0);
        let r = plan.rebased(1.0);
        assert_eq!(r.seed, 3);
        // A passed-but-unprocessed event fires at the next boundary
        // rather than vanishing.
        assert_eq!(r.scale_outs[0].at_secs, 0.0);
        assert_eq!(r.drains[0].at_secs, 1.0);
        assert_eq!(r.drains[0].deadline_secs, 0.25);
        assert_eq!(r.evicts[0].at_secs, 2.0);
    }

    #[test]
    fn without_node_drops_that_nodes_events() {
        let plan = MembershipPlan::default()
            .drain(1, 1.0, 0.5)
            .evict(2, 2.0)
            .scale_out(1, 3.0);
        let r = plan.without_node(1);
        assert!(r.drains.is_empty());
        assert_eq!(r.evicts.len(), 1);
        assert_eq!(r.scale_outs.len(), 1);
    }

    #[test]
    fn toml_round_trip_and_errors() {
        let text = "\
seed = 7
# churn scenario
[[scale_out]]
at_s = 0.5
count = 2
[[drain]]
node = 2
at_s = 0.4
deadline_s = 0.2
[[evict]]
node = 1
at_s = 0.6
";
        let plan = MembershipPlan::from_toml(text).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.scale_outs, vec![ScaleOut { count: 2, at_secs: 0.5 }]);
        assert_eq!(
            plan.drains,
            vec![Drain {
                node: 2,
                at_secs: 0.4,
                deadline_secs: 0.2
            }]
        );
        assert_eq!(plan.evicts, vec![Evict { node: 1, at_secs: 0.6 }]);
        assert!(MembershipPlan::from_toml("").unwrap().is_empty());
        assert!(MembershipPlan::from_toml("[server]\n").is_err());
        assert!(MembershipPlan::from_toml("[[drain]]\nnode = -1\n").is_err());
        assert!(MembershipPlan::from_toml("[[drain]]\nwhat = 1\n").is_err());
        assert!(MembershipPlan::from_toml("node = 1\n").is_err());
        // Validation runs on the parsed plan too.
        assert!(MembershipPlan::from_toml("[[scale_out]]\ncount = 0\n").is_err());
    }

    #[test]
    fn unsimulable_scale_out_totals_are_rejected() {
        let section = |count: &str| format!("[[scale_out]]\ncount = {count}\nat_s = 0.01\n");
        // One count no cluster could hold; two whose sum overflows `usize`.
        for text in [
            section("200000000000"),
            section("18446744073709551615").repeat(2),
        ] {
            let err = MembershipPlan::from_toml(&text).unwrap_err();
            assert!(err.contains("more than the 4096"), "{err}");
        }
        let at_ceiling = MembershipPlan::default().scale_out(MAX_SCALE_OUT_NODES, 1.0);
        assert!(at_ceiling.validate().is_ok());
        assert!(at_ceiling.scale_out(1, 2.0).validate().is_err());
    }

    #[test]
    fn autoscale_policy_validates() {
        assert!(AutoscalePolicy::default().validate().is_ok());
        let bad = [
            AutoscalePolicy {
                eval_interval_iters: 0,
                ..AutoscalePolicy::default()
            },
            AutoscalePolicy {
                min_nodes: 0,
                ..AutoscalePolicy::default()
            },
            AutoscalePolicy {
                max_nodes: 1,
                min_nodes: 2,
                ..AutoscalePolicy::default()
            },
            AutoscalePolicy {
                shrink_below_secs: 2.0,
                grow_above_secs: 1.0,
                ..AutoscalePolicy::default()
            },
            AutoscalePolicy {
                grow_streak: 0,
                ..AutoscalePolicy::default()
            },
        ];
        for p in bad {
            assert!(p.validate().is_err(), "{p:?} must fail validation");
        }
    }
}
