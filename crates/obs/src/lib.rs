//! Structured observability for the co-processing runtime: a lock-cheap
//! event bus, a metrics registry, and a scheduler-decision audit log.
//!
//! The paper's central claim is that the analytic model (Equations
//! (1)–(11)) picks a near-optimal CPU/GPU split. This crate makes that
//! claim *inspectable*: every layer of the two-level runtime — master
//! task scheduler, per-node sub-task schedulers, CPU/GPU daemons, and
//! the network simulator — emits structured events stamped with virtual
//! [`simtime::SimTime`], counters/gauges/histograms accumulate into a
//! Prometheus-style registry, and every split decision is audited with
//! its inputs (arithmetic intensity, ridge points, surviving devices),
//! the regime that fired, and the predicted-vs-observed per-device time
//! so roofline-model error becomes a first-class, queryable quantity.
//!
//! # Zero overhead when disabled
//!
//! All three sinks share the same design: a `None` inner behind a cheap
//! `Clone`. A disabled sink answers every call with a branch on an
//! `Option` — no locks, no allocation — and, crucially, recording never
//! advances virtual time, so an instrumented run's `total_seconds` is
//! bit-identical to an uninstrumented one (CI enforces this).
//!
//! # Determinism
//!
//! The simulation scheduler is deterministic, so append order into each
//! sink is deterministic too; exporters additionally canonically sort
//! their output so that a seeded run reproduces byte-identical
//! `events.jsonl` / `metrics.prom` / `decisions.jsonl` artifacts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod bus;
pub mod jsonl;
pub mod metrics;
pub mod name;
pub mod profile;
pub mod recorder;
pub mod rollup;
pub mod trace_ctx;

pub use audit::{AuditLog, DecisionId, DecisionRecord, DECISIONS_SCHEMA};
pub use bus::{Event, EventBus, EventDraft, Subscription, EVENTS_SCHEMA};
pub use metrics::{MetricsRegistry, METRICS_SCHEMA};
pub use name::{cmp_names, Attrs, Name, Names};
pub use profile::{profile, Frame, FrameSet, Profile, PROFILE_SCHEMA, STACKS_SCHEMA};
pub use recorder::{Capture, FoldBin, Recorder, RecorderConfig, RecorderSummary, CAPTURE_SCHEMA};
pub use jsonl::JsonlError;
pub use rollup::{rollup, EventView, Rollup, RollupConfig, RollupEvent};
pub use trace_ctx::{flow_id, TraceCtx, CONTROL_RANK};

/// Worker node index of a `node{r}-…` or `net-rank{r}` lane; `None` for
/// lanes that belong to no worker (`master`, `resilience`, `membership`).
pub fn lane_node(lane: &str) -> Option<u64> {
    let rest = lane
        .strip_prefix("node")
        .or_else(|| lane.strip_prefix("net-rank"))?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The bundle threaded through the runtime: one event bus, one metrics
/// registry, one decision audit log. Cloning shares the underlying
/// sinks (it is an `Arc` handle, not a copy).
#[derive(Clone, Default)]
pub struct Obs {
    /// Structured span/event sink.
    pub bus: EventBus,
    /// Counter / gauge / histogram registry.
    pub metrics: MetricsRegistry,
    /// Scheduler-decision audit log.
    pub audit: AuditLog,
    /// Stack-frame recorder feeding the virtual-time profiler
    /// ([`mod@profile`]).
    pub stack: simtime::StackCtx,
    /// Bounded-memory flight recorder ([`mod@recorder`]); disabled by
    /// default — drivers pump it at iteration boundaries when enabled.
    pub recorder: Recorder,
}

impl Obs {
    /// A live bundle: all four sinks record.
    pub fn recording() -> Self {
        Self {
            bus: EventBus::recording(),
            metrics: MetricsRegistry::recording(),
            audit: AuditLog::recording(),
            stack: simtime::StackCtx::recording(),
            recorder: Recorder::disabled(),
        }
    }

    /// A live bundle with the flight recorder enabled. When `bounded`
    /// is true the recorder owns bus retention (each pump trims the
    /// ingested prefix, so resident memory stays O(budget) — the
    /// `--record`-without-`--obs` mode); when false it shadows the bus
    /// without trimming so a full export remains possible.
    pub fn recording_with_recorder(cfg: RecorderConfig, bounded: bool) -> Self {
        let mut obs = Self::recording();
        obs.recorder = if bounded {
            Recorder::bounded(cfg)
        } else {
            Recorder::shadow(cfg)
        };
        obs
    }

    /// A disabled bundle: every call is a no-op branch. This is the
    /// default, so un-instrumented entry points pay nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether any recording will actually happen.
    pub fn is_enabled(&self) -> bool {
        self.bus.is_enabled()
            || self.metrics.is_enabled()
            || self.audit.is_enabled()
            || self.stack.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        assert!(obs.bus.event("lane", "kind", simtime::SimTime::ZERO).is_none());
        obs.metrics.counter_add("c", &[], 1.0);
        assert_eq!(obs.metrics.to_prometheus(), "");
        assert!(obs.audit.records().is_empty());
    }

    #[test]
    fn lane_node_reads_the_worker_rank() {
        assert_eq!(lane_node("node12-gpu0-compute"), Some(12));
        assert_eq!(lane_node("node0-sched"), Some(0));
        assert_eq!(lane_node("net-rank7"), Some(7));
        assert_eq!(lane_node("node"), None);
        assert_eq!(lane_node("nodeX-sched"), None);
        assert_eq!(lane_node("node99999999999999999999-sched"), None);
        assert_eq!(lane_node("master"), None);
        assert_eq!(lane_node("resilience"), None);
    }

    #[test]
    fn recording_bundle_is_enabled_and_shared_across_clones() {
        let obs = Obs::recording();
        assert!(obs.is_enabled());
        let clone = obs.clone();
        clone
            .bus
            .event("lane", "kind", simtime::SimTime::from_secs(1))
            .unwrap()
            .commit();
        assert_eq!(obs.bus.len(), 1);
    }
}
