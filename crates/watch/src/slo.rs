//! Declarative SLO rules and burn-rate evaluation.
//!
//! A rule binds a detector to an *objective* (the healthy value of the
//! detector's measurement) and fires when the **burn rate** — measured
//! value divided by objective — stays at or above `threshold` for
//! `min_samples` consecutive samples in one scope, or spikes past
//! `fast_factor × threshold` on any single sample (classic multi-window
//! burn-rate alerting, collapsed onto the virtual-time stream).
//!
//! Rules are declared in TOML (see `docs/alerting.md`):
//!
//! ```toml
//! merge_gap_s = 0.0            # incident merge gap; 0 = auto
//!
//! [[rule]]
//! name = "cpu-latency-drift"
//! detector = "latency-drift"   # detector catalog name
//! class = "cpu"                # cpu | gpu | node | master | cluster | any
//! objective = 1.0              # healthy measurement
//! threshold = 1.55             # burn rate that breaches
//! fast_factor = 2.0            # 0 disables the fast path
//! min_samples = 6              # consecutive breaches before firing
//! window_s = 0.0               # detector window; 0 = auto
//! alpha = 0.3                  # EWMA smoothing
//! severity = "page"            # page | ticket
//! enabled = true
//! ```

use crate::detect::{DetectorKind, LaneClass, Signal};
use crate::{Alert, FaultHint};
use std::collections::BTreeMap;

/// The finest explicit detector window, virtual seconds: every window is
/// a rollup bin, so a finer one turns even a short run into millions of
/// them.
pub const MIN_WINDOW_S: f64 = 1e-6;

/// The most windows one rule may cut a bundle's horizon into
/// ([`WatchConfig::check_windows`]).
const MAX_WINDOWS: f64 = 100_000.0;

/// Alert severity: `Page` wakes an operator, `Ticket` queues for triage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Queue for triage.
    Ticket,
    /// Wake an operator.
    Page,
}

impl Severity {
    /// Stable string form.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Ticket => "ticket",
            Severity::Page => "page",
        }
    }

    /// Parses the string form.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ticket" => Some(Severity::Ticket),
            "page" => Some(Severity::Page),
            _ => None,
        }
    }
}

/// One declarative SLO rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Rule name, unique within a config; stamped into alerts.
    pub name: String,
    /// Detector the rule listens to.
    pub detector: DetectorKind,
    /// Lane-class filter; `None` accepts every signal class (`"any"`).
    pub class: Option<LaneClass>,
    /// Healthy value of the detector measurement (burn = value / objective).
    pub objective: f64,
    /// Burn rate at or above which a sample breaches.
    pub threshold: f64,
    /// Single-sample fast-burn multiplier on `threshold`; `0` disables.
    pub fast_factor: f64,
    /// Consecutive breaching samples required to fire.
    pub min_samples: usize,
    /// Detector window in virtual seconds; `0` picks the auto rollup width.
    pub window_s: f64,
    /// EWMA smoothing factor for drift-style detectors.
    pub alpha: f64,
    /// Severity stamped on fired alerts.
    pub severity: Severity,
    /// Disabled rules are skipped entirely.
    pub enabled: bool,
}

impl SloRule {
    fn new(name: &str, detector: DetectorKind, class: Option<LaneClass>) -> Self {
        SloRule {
            name: name.to_string(),
            detector,
            class,
            objective: 1.0,
            threshold: 1.0,
            fast_factor: 0.0,
            min_samples: 1,
            window_s: 0.0,
            alpha: 0.3,
            severity: Severity::Ticket,
            enabled: true,
        }
    }
}

/// A full watchdog configuration: the rule set plus incident assembly
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchConfig {
    /// SLO rules, evaluated independently.
    pub rules: Vec<SloRule>,
    /// Incident merge gap in virtual seconds; `0` picks one auto rollup
    /// window over the run horizon.
    pub merge_gap_s: f64,
}

impl Default for WatchConfig {
    /// The built-in rule set, tuned against the seeded chaos grid (see
    /// `docs/alerting.md` for the rationale behind each threshold).
    fn default() -> Self {
        let mut rules = Vec::new();

        let mut r = SloRule::new("node-heartbeat-gap", DetectorKind::HeartbeatGap, Some(LaneClass::Node));
        r.objective = 1e-9; // any confirmed gap is a page
        r.severity = Severity::Page;
        rules.push(r);

        let mut r = SloRule::new("master-heartbeat-gap", DetectorKind::HeartbeatGap, Some(LaneClass::Master));
        r.objective = 1e-9;
        r.severity = Severity::Page;
        rules.push(r);

        let mut r = SloRule::new("cpu-latency-drift", DetectorKind::LatencyDrift, Some(LaneClass::Cpu));
        r.threshold = 1.55; // above the 1.5x straggler factor
        r.fast_factor = 2.0;
        r.min_samples = 6;
        r.severity = Severity::Page;
        rules.push(r);

        let mut r = SloRule::new("gpu-latency-drift", DetectorKind::LatencyDrift, Some(LaneClass::Gpu));
        r.threshold = 1.55;
        r.fast_factor = 2.0;
        r.min_samples = 6;
        r.severity = Severity::Page;
        rules.push(r);

        let mut r = SloRule::new("recovery-storm", DetectorKind::RecoveryStorm, Some(LaneClass::Cluster));
        r.threshold = 4.0; // >= 4 recovery actions in one window
        rules.push(r);

        let mut r = SloRule::new("throughput-drop", DetectorKind::ThroughputDrop, Some(LaneClass::Cluster));
        r.threshold = 2.5; // utilization collapsed to < 40% of trailing EWMA
        r.min_samples = 2;
        rules.push(r);

        let mut r = SloRule::new("comm-stall", DetectorKind::CommStall, Some(LaneClass::Cluster));
        r.min_samples = 3; // three consecutive stalled windows
        rules.push(r);

        let mut r = SloRule::new("regime-shift", DetectorKind::RegimeShift, Some(LaneClass::Node));
        // The signal is the Eq-(8) map error relative to the node's own
        // trailing error (ratio ≈ 1 in regime), so the objective stays 1.
        r.threshold = 2.0;
        r.min_samples = 3;
        rules.push(r);

        let mut r = SloRule::new(
            "membership-flap",
            DetectorKind::MembershipFlap,
            Some(LaneClass::Cluster),
        );
        // A planned drain / scale-out is one transition per window; three
        // or more in a single window means the cluster is flapping. The
        // membership lane only exists on elastic runs, so this rule can
        // never fire on a fixed-cluster bundle.
        r.threshold = 3.0;
        rules.push(r);

        WatchConfig { rules, merge_gap_s: 0.0 }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Num(f64),
    Bool(bool),
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_scalar(raw: &str, lineno: usize) -> Result<Scalar, String> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| format!("line {lineno}: unterminated string"))?;
        return Ok(Scalar::Str(inner.to_string()));
    }
    match raw {
        "true" => return Ok(Scalar::Bool(true)),
        "false" => return Ok(Scalar::Bool(false)),
        _ => {}
    }
    raw.parse::<f64>()
        .map(Scalar::Num)
        .map_err(|_| format!("line {lineno}: expected string, number, or bool, got `{raw}`"))
}

fn expect_str(v: Scalar, key: &str, lineno: usize) -> Result<String, String> {
    match v {
        Scalar::Str(s) => Ok(s),
        _ => Err(format!("line {lineno}: `{key}` wants a quoted string")),
    }
}

/// Every numeric key is a finite, non-negative number.
fn expect_num(v: Scalar, key: &str, lineno: usize) -> Result<f64, String> {
    match v {
        Scalar::Num(n) if n.is_finite() && n >= 0.0 => Ok(n),
        Scalar::Num(n) => {
            Err(format!("line {lineno}: `{key}` wants a finite number >= 0, got {n}"))
        }
        _ => Err(format!("line {lineno}: `{key}` wants a number")),
    }
}

fn set_rule_field(rule: &mut SloRule, key: &str, v: Scalar, lineno: usize) -> Result<(), String> {
    match key {
        "name" => rule.name = expect_str(v, key, lineno)?,
        "detector" => {
            let s = expect_str(v, key, lineno)?;
            rule.detector = DetectorKind::parse(&s)
                .ok_or_else(|| format!("line {lineno}: unknown detector `{s}`"))?;
        }
        "class" => {
            let s = expect_str(v, key, lineno)?;
            rule.class = LaneClass::parse(&s)
                .ok_or_else(|| format!("line {lineno}: unknown class `{s}`"))?;
        }
        "objective" => rule.objective = expect_num(v, key, lineno)?,
        "threshold" => rule.threshold = expect_num(v, key, lineno)?,
        "fast_factor" => rule.fast_factor = expect_num(v, key, lineno)?,
        "min_samples" => rule.min_samples = expect_num(v, key, lineno)?.max(1.0) as usize,
        "window_s" => {
            let w = expect_num(v, key, lineno)?;
            if w > 0.0 && w < MIN_WINDOW_S {
                return Err(format!(
                    "line {lineno}: `window_s` = {w:e} is below the 1e-6 s minimum \
                     (0 picks the auto width)"
                ));
            }
            rule.window_s = w;
        }
        "alpha" => {
            let a = expect_num(v, key, lineno)?;
            if a > 1.0 {
                return Err(format!("line {lineno}: `alpha` = {a} is outside [0, 1]"));
            }
            rule.alpha = a;
        }
        "severity" => {
            let s = expect_str(v, key, lineno)?;
            rule.severity = Severity::parse(&s)
                .ok_or_else(|| format!("line {lineno}: unknown severity `{s}`"))?;
        }
        "enabled" => {
            rule.enabled = match v {
                Scalar::Bool(b) => b,
                _ => return Err(format!("line {lineno}: `enabled` wants true/false")),
            }
        }
        other => return Err(format!("line {lineno}: unknown rule key `{other}`")),
    }
    Ok(())
}

impl WatchConfig {
    /// Parses a rule file. `[[rule]]` sections replace the built-in rule
    /// set entirely; top-level `merge_gap_s` tunes incident assembly. A
    /// file with no `[[rule]]` section keeps the defaults.
    pub fn from_toml(text: &str) -> Result<WatchConfig, String> {
        let mut cfg = WatchConfig::default();
        let mut rules: Vec<SloRule> = Vec::new();
        let mut saw_rule = false;
        let mut cur: Option<SloRule> = None;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[rule]]" {
                saw_rule = true;
                if let Some(r) = cur.take() {
                    rules.push(r);
                }
                cur = Some(SloRule::new("", DetectorKind::LatencyDrift, None));
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("line {lineno}: unknown section `{line}`"));
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            let key = k.trim();
            let val = parse_scalar(v, lineno)?;
            match cur.as_mut() {
                Some(rule) => set_rule_field(rule, key, val, lineno)?,
                None => match key {
                    "merge_gap_s" => cfg.merge_gap_s = expect_num(val, key, lineno)?,
                    other => {
                        return Err(format!("line {lineno}: unknown top-level key `{other}`"))
                    }
                },
            }
        }
        if let Some(r) = cur.take() {
            rules.push(r);
        }
        if saw_rule {
            for (i, r) in rules.iter().enumerate() {
                if r.name.is_empty() {
                    return Err(format!("rule #{} has no name", i + 1));
                }
            }
            cfg.rules = rules;
        }
        Ok(cfg)
    }

    /// Refuses a rule whose own window would cut `horizon` virtual
    /// seconds into more than 100 000 windows: watching takes time and
    /// memory in proportion to the windows.
    pub fn check_windows(&self, horizon: f64) -> Result<(), String> {
        for r in self.rules.iter().filter(|r| r.enabled && r.window_s > 0.0) {
            let windows = horizon / r.window_s;
            if windows > MAX_WINDOWS {
                return Err(format!(
                    "rule `{}`: window_s = {} cuts the {horizon:.6} s horizon into {windows:.0} \
                     windows, above the limit of {MAX_WINDOWS}",
                    r.name, r.window_s
                ));
            }
        }
        Ok(())
    }
}

/// The fault hypothesis implied by a rule scope.
fn hint_for(detector: DetectorKind, class: LaneClass) -> FaultHint {
    match (detector, class) {
        (DetectorKind::HeartbeatGap, LaneClass::Node) => FaultHint::NodeCrash,
        (DetectorKind::HeartbeatGap, LaneClass::Master) => FaultHint::MasterCrash,
        (DetectorKind::LatencyDrift, LaneClass::Cpu) => FaultHint::CpuSlowdown,
        (DetectorKind::LatencyDrift, LaneClass::Gpu) => FaultHint::GpuSlowdown,
        (DetectorKind::MembershipFlap, LaneClass::Cluster) => FaultHint::MembershipFlap,
        _ => FaultHint::Unknown,
    }
}

/// Evaluates one rule over its detector's signals: groups samples by
/// scope `(class, node)`, walks each group in time order tracking the
/// breaching streak, and emits one [`Alert`] per contiguous breach that
/// reaches `min_samples` (or trips the fast-burn path).
pub fn evaluate_rule(rule: &SloRule, signals: &[Signal]) -> Vec<Alert> {
    let mut groups: BTreeMap<(LaneClass, Option<u64>), Vec<&Signal>> = BTreeMap::new();
    for s in signals {
        if let Some(want) = rule.class {
            if s.class != want {
                continue;
            }
        }
        groups.entry((s.class, s.node)).or_default().push(s);
    }
    let objective = rule.objective.max(1e-12);
    let mut alerts = Vec::new();
    for ((class, node), mut group) in groups {
        group.sort_by(|a, b| a.t.total_cmp(&b.t).then_with(|| a.value.total_cmp(&b.value)));
        let hint = hint_for(rule.detector, class);
        let mut streak: Vec<(&Signal, f64)> = Vec::new();
        let mut open: Option<Alert> = None;
        for s in group {
            let burn = s.value / objective;
            if burn >= rule.threshold {
                streak.push((s, burn));
                let fast = rule.fast_factor > 0.0 && burn >= rule.fast_factor * rule.threshold;
                match open.as_mut() {
                    Some(a) => {
                        a.t_end = s.t;
                        a.burn = a.burn.max(burn);
                        a.t_cause = a.t_cause.min(s.t_cause);
                    }
                    None if streak.len() >= rule.min_samples || fast => {
                        open = Some(Alert {
                            rule: rule.name.clone(),
                            detector: rule.detector,
                            class,
                            node,
                            severity: rule.severity,
                            t_start: streak[0].0.t,
                            t_fire: s.t,
                            t_end: s.t,
                            t_cause: streak
                                .iter()
                                .map(|(s, _)| s.t_cause)
                                .fold(f64::INFINITY, f64::min),
                            burn: streak.iter().map(|(_, b)| *b).fold(0.0, f64::max),
                            threshold: rule.threshold,
                            hint,
                        });
                    }
                    None => {}
                }
            } else {
                if let Some(a) = open.take() {
                    alerts.push(a);
                }
                streak.clear();
            }
        }
        if let Some(a) = open.take() {
            alerts.push(a);
        }
    }
    alerts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(t: f64, value: f64) -> Signal {
        Signal {
            t,
            t_cause: t,
            node: Some(0),
            class: LaneClass::Cpu,
            value,
        }
    }

    fn drift_rule() -> SloRule {
        let mut r = SloRule::new("r", DetectorKind::LatencyDrift, Some(LaneClass::Cpu));
        r.threshold = 1.5;
        r.fast_factor = 3.0;
        r.min_samples = 3;
        r
    }

    #[test]
    fn streak_must_reach_min_samples() {
        let rule = drift_rule();
        // Two breaches, a dip, two breaches: never 3 in a row.
        let s: Vec<_> = [1.6, 1.7, 1.0, 1.8, 1.9].iter().enumerate()
            .map(|(i, v)| sig(i as f64, *v)).collect();
        assert!(evaluate_rule(&rule, &s).is_empty());
        // Three in a row fires once and extends.
        let s: Vec<_> = [1.6, 1.7, 1.8, 1.9, 1.0].iter().enumerate()
            .map(|(i, v)| sig(i as f64, *v)).collect();
        let alerts = evaluate_rule(&rule, &s);
        assert_eq!(alerts.len(), 1);
        let a = &alerts[0];
        assert_eq!(a.t_start, 0.0);
        assert_eq!(a.t_fire, 2.0);
        assert_eq!(a.t_end, 3.0);
        assert!((a.burn - 1.9).abs() < 1e-12);
    }

    #[test]
    fn fast_burn_fires_on_one_sample() {
        let rule = drift_rule(); // fast at burn >= 4.5
        let alerts = evaluate_rule(&rule, &[sig(1.0, 5.0)]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].t_fire, 1.0);
    }

    #[test]
    fn scopes_do_not_mix() {
        let rule = drift_rule();
        let mut s = vec![sig(0.0, 1.6), sig(1.0, 1.6)];
        s.push(Signal { t: 2.0, t_cause: 2.0, node: Some(1), class: LaneClass::Cpu, value: 1.6 });
        // node0 has 2 breaches, node1 has 1: neither reaches 3.
        assert!(evaluate_rule(&rule, &s).is_empty());
    }

    #[test]
    fn class_filter_drops_foreign_signals() {
        let rule = drift_rule();
        let s = vec![Signal { t: 0.0, t_cause: 0.0, node: None, class: LaneClass::Cluster, value: 9.0 }];
        assert!(evaluate_rule(&rule, &s).is_empty());
    }

    #[test]
    fn toml_round_trip_overrides_rules() {
        let text = r#"
# custom rule file
merge_gap_s = 0.75

[[rule]]
name = "only-heartbeat"          # trailing comment
detector = "heartbeat-gap"
class = "node"
objective = 1e-9
severity = "page"

[[rule]]
name = "disabled-drift"
detector = "latency-drift"
class = "any"
enabled = false
"#;
        let cfg = WatchConfig::from_toml(text).unwrap();
        assert_eq!(cfg.merge_gap_s, 0.75);
        assert_eq!(cfg.rules.len(), 2);
        assert_eq!(cfg.rules[0].name, "only-heartbeat");
        assert_eq!(cfg.rules[0].detector, DetectorKind::HeartbeatGap);
        assert_eq!(cfg.rules[0].severity, Severity::Page);
        assert_eq!(cfg.rules[1].class, None);
        assert!(!cfg.rules[1].enabled);
    }

    #[test]
    fn toml_without_rules_keeps_defaults() {
        let cfg = WatchConfig::from_toml("merge_gap_s = 2.0\n").unwrap();
        assert_eq!(cfg.merge_gap_s, 2.0);
        assert_eq!(cfg.rules, WatchConfig::default().rules);
    }

    #[test]
    fn toml_refuses_numbers_out_of_range() {
        let rule = |line: &str| format!("[[rule]]\nname = \"r\"\n{line}\n");
        for (line, says) in [
            ("window_s = 1e-12", "below the 1e-6 s minimum"),
            ("window_s = -1", "finite number >= 0"),
            ("threshold = nan", "finite number >= 0"),
            ("objective = inf", "finite number >= 0"),
            ("min_samples = -3", "finite number >= 0"),
            ("alpha = 1.5", "outside [0, 1]"),
        ] {
            let err = WatchConfig::from_toml(&rule(line)).unwrap_err();
            assert!(err.starts_with("line 3: ") && err.contains(says), "{line}: {err}");
        }
        let err = WatchConfig::from_toml("merge_gap_s = -0.5\n").unwrap_err();
        assert!(err.starts_with("line 1: "), "{err}");
        for line in ["window_s = 1e-6", "window_s = 0", "alpha = 0", "alpha = 1"] {
            assert!(WatchConfig::from_toml(&rule(line)).is_ok(), "{line}");
        }
    }

    #[test]
    fn a_window_may_not_cut_the_horizon_too_fine() {
        let mut cfg = WatchConfig::from_toml("[[rule]]\nname = \"r\"\nwindow_s = 1e-6\n").unwrap();
        assert!(cfg.check_windows(0.05).is_ok(), "50 000 windows");
        let err = cfg.check_windows(0.2).unwrap_err();
        assert!(err.contains("rule `r`") && err.contains("200000 windows"), "{err}");
        cfg.rules[0].enabled = false;
        assert!(cfg.check_windows(0.2).is_ok(), "a disabled rule cuts nothing");
        assert!(WatchConfig::default().check_windows(1e9).is_ok(), "auto windows scale");
    }

    #[test]
    fn toml_errors_name_the_line() {
        let err = WatchConfig::from_toml("[[rule]]\ndetector = \"nope\"\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = WatchConfig::from_toml("[server]\n").unwrap_err();
        assert!(err.contains("unknown section"), "{err}");
        let err = WatchConfig::from_toml("[[rule]]\ndetector = \"heartbeat-gap\"\n").unwrap_err();
        assert!(err.contains("no name"), "{err}");
    }
}
