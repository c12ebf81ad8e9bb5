//! Trace-driven insight layer: critical-path analysis and online
//! roofline recalibration.
//!
//! PR 2's observability stack records what happened — spans on every
//! lane, a metrics registry, and a decision audit with predicted-vs-
//! observed map times. This crate is the layer that *consumes* those
//! artifacts:
//!
//! - [`trace`] normalizes events from a live [`obs::EventBus`] or an
//!   exported `events.jsonl` into one owned representation;
//! - [`critical`] rebuilds the per-iteration span DAG (partition send →
//!   CPU/GPU map → combine → shuffle → reduce → barrier), extracts the
//!   critical path and per-lane slack, and blames each iteration
//!   (`cpu-bound` / `gpu-bound` / `comm-bound` / `straggler` /
//!   `recovery`);
//! - [`calibrate`] fits the roofline hardware constants (peak flops,
//!   DRAM/PCI-E/network bandwidth) from observed spans via EWMA into a
//!   [`CalibrationProfile`] whose [`profile`](CalibrationProfile::profile)
//!   is a drop-in `DeviceProfile`, so Equations (1)–(11) can be re-solved
//!   against measured hardware instead of the data-sheet presets;
//! - [`profile_toml`] persists fitted profiles (`prs calibrate -o
//!   profile.toml`, loadable wherever `profiles.rs` presets are accepted);
//! - [`toml`] is the one reader of the workspace's TOML input files:
//!   fitted profiles, membership plans and SLO rules;
//! - [`report`] renders the deterministic `report.json` /
//!   `critical_path.json` artifacts and the human summary table behind
//!   `prs analyze`.
//!
//! Everything here is pure post-hoc analysis over `f64` virtual
//! timestamps: no simulation state is touched, so analyzing a run can
//! never change it. The online feedback path (recomputing `p` each
//! iteration from the running fit) lives in `prs-core`, built on
//! [`CalibrationProfile`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod critical;
pub mod diff;
pub mod postmortem;
pub mod profile_toml;
pub mod report;
pub mod toml;
pub mod trace;

pub use calibrate::{fit_from_events, CalibrationProfile, SampleCounts, DEFAULT_ALPHA};
pub use critical::{
    analyze, analyze_view, Analysis, Blame, IterationAnalysis, LaneSlack, PathSegment,
};
pub use diff::{diff, diff_events, BlameShift, Diff, StageDelta, DIFF_SCHEMA};
pub use postmortem::{parse_capture_jsonl, CaptureDoc, POSTMORTEM_SCHEMA};
pub use report::{critical_path_json, report_json, summary_table};
pub use trace::{canonical_view, from_bus, pair_flows, parse_events_jsonl, Flow, TraceEvent};
