//! The scheduler-decision audit log.
//!
//! Every static-split and dynamic-poll decision the two-level runtime
//! takes is recorded with its *inputs* (arithmetic intensities, ridge
//! points, surviving device census), the Equation (1)–(11) regime that
//! fired, the *output* (`p`, block size), and the roofline-predicted
//! per-device map time. Once the iteration completes, the worker calls
//! [`AuditLog::complete`] with the observed virtual times, making
//! analytic-model error a first-class queryable quantity — the same
//! predicted-vs-measured feedback loop StarPU uses for calibration.

use crate::jsonl::{as_u64, JsonlError, ScanError, Scanner};
use parking_lot::Mutex;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Schema tag on the `decisions.jsonl` meta line (the first line of a
/// non-empty export). It declares how many scheduling decisions follow;
/// [`AuditLog::read_jsonl`] holds the file to that count.
pub const DECISIONS_SCHEMA: &str = "prs-decisions-v1";

/// Handle returned by [`AuditLog::begin`]; pass it back to
/// [`AuditLog::complete`] once observed times are known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionId(usize);

/// One audited scheduling decision, predicted and (once the iteration
/// ran) observed.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionRecord {
    /// Worker node rank the decision applies to.
    pub node: usize,
    /// Outer iteration index.
    pub iteration: usize,
    /// Scheduling mode (`static`, `dynamic`, `cpu-only`, `gpu-only`).
    pub mode: String,
    /// What prompted the decision: `initial` (per-iteration static
    /// split), `survivor-recompute` (Eq. (8) rerun after GPU deaths),
    /// or `override` (user-pinned `p`).
    pub trigger: String,
    /// CPU arithmetic intensity, flops/byte.
    pub ai_cpu: f64,
    /// GPU effective arithmetic intensity, flops/byte.
    pub ai_gpu: f64,
    /// CPU ridge point, flops/byte.
    pub cpu_ridge: f64,
    /// GPU ridge point (at the workload's residency), flops/byte.
    pub gpu_ridge: f64,
    /// Which regime of Equations (1)–(11) fired.
    pub regime: String,
    /// GPUs configured on the node.
    pub gpus_total: usize,
    /// GPUs still alive when the decision was taken.
    pub gpus_usable: usize,
    /// Chosen CPU fraction `p`.
    pub cpu_fraction: f64,
    /// Dynamic-mode block size in items (0 for static splits).
    pub block_items: usize,
    /// Items this node processes this iteration.
    pub items: usize,
    /// Bytes this node processes this iteration.
    pub bytes: u64,
    /// Roofline-predicted CPU-side map time, virtual seconds.
    pub predicted_cpu_secs: f64,
    /// Roofline-predicted GPU-side map time, virtual seconds.
    pub predicted_gpu_secs: f64,
    /// Predicted map-stage makespan: max of the two sides.
    pub predicted_map_secs: f64,
    /// Observed virtual time the CPU side spent in the map stage.
    pub observed_cpu_secs: Option<f64>,
    /// Observed virtual time the GPU side spent in the map stage.
    pub observed_gpu_secs: Option<f64>,
    /// Observed map-stage makespan.
    pub observed_map_secs: Option<f64>,
}

impl DecisionRecord {
    /// Relative roofline-model error on the map makespan:
    /// `|predicted - observed| / observed`. `None` until completed or
    /// if the observed time is zero.
    pub fn map_error(&self) -> Option<f64> {
        let obs = self.observed_map_secs?;
        if obs <= 0.0 {
            return None;
        }
        Some((self.predicted_map_secs - obs).abs() / obs)
    }

    /// JSON object for one decision; deterministic key order.
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        let mut num = |k: &str, v: f64| {
            m.insert(k.to_string(), Value::Number(v));
        };
        num("node", self.node as f64);
        num("iter", self.iteration as f64);
        num("ai_cpu", self.ai_cpu);
        num("ai_gpu", self.ai_gpu);
        num("cpu_ridge", self.cpu_ridge);
        num("gpu_ridge", self.gpu_ridge);
        num("gpus_total", self.gpus_total as f64);
        num("gpus_usable", self.gpus_usable as f64);
        num("p", self.cpu_fraction);
        num("block_items", self.block_items as f64);
        num("items", self.items as f64);
        num("bytes", self.bytes as f64);
        num("pred_cpu_s", self.predicted_cpu_secs);
        num("pred_gpu_s", self.predicted_gpu_secs);
        num("pred_map_s", self.predicted_map_secs);
        if let Some(v) = self.observed_cpu_secs {
            num("obs_cpu_s", v);
        }
        if let Some(v) = self.observed_gpu_secs {
            num("obs_gpu_s", v);
        }
        if let Some(v) = self.observed_map_secs {
            num("obs_map_s", v);
        }
        if let Some(e) = self.map_error() {
            num("map_err", e);
        }
        m.insert("mode".to_string(), Value::String(self.mode.clone()));
        m.insert("trigger".to_string(), Value::String(self.trigger.clone()));
        m.insert("regime".to_string(), Value::String(self.regime.clone()));
        Value::Object(m)
    }

    /// Rebuilds the fields `prs advise --from-trace` needs from an
    /// already parsed `decisions.jsonl` line ([`AuditLog::parse_jsonl`]
    /// reads the text directly, with the same fallbacks). Unknown/missing
    /// keys fall back to zero; observed fields stay `None` when absent.
    pub fn from_value(v: &Value) -> Option<Self> {
        let obj = v.as_object()?;
        let num = |k: &str| obj.get(k).and_then(Value::as_f64);
        let s = |k: &str| obj.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        Some(Self {
            node: num("node")? as usize,
            iteration: num("iter")? as usize,
            mode: s("mode"),
            trigger: s("trigger"),
            ai_cpu: num("ai_cpu").unwrap_or(0.0),
            ai_gpu: num("ai_gpu").unwrap_or(0.0),
            cpu_ridge: num("cpu_ridge").unwrap_or(0.0),
            gpu_ridge: num("gpu_ridge").unwrap_or(0.0),
            regime: s("regime"),
            gpus_total: num("gpus_total").unwrap_or(0.0) as usize,
            gpus_usable: num("gpus_usable").unwrap_or(0.0) as usize,
            cpu_fraction: num("p").unwrap_or(0.0),
            block_items: num("block_items").unwrap_or(0.0) as usize,
            items: num("items").unwrap_or(0.0) as usize,
            bytes: num("bytes").unwrap_or(0.0) as u64,
            predicted_cpu_secs: num("pred_cpu_s").unwrap_or(0.0),
            predicted_gpu_secs: num("pred_gpu_s").unwrap_or(0.0),
            predicted_map_secs: num("pred_map_s").unwrap_or(0.0),
            observed_cpu_secs: num("obs_cpu_s"),
            observed_gpu_secs: num("obs_gpu_s"),
            observed_map_secs: num("obs_map_s"),
        })
    }
}

/// A shared, cheaply clonable decision sink. The default value is
/// *disabled*: `begin` returns `None` and nothing is stored.
#[derive(Clone, Default)]
pub struct AuditLog {
    inner: Option<Arc<Mutex<Vec<DecisionRecord>>>>,
    /// Autoscaler / membership decisions, already rendered as JSON lines.
    /// These carry no `node`/`iter` keys, so [`AuditLog::parse_jsonl`]
    /// skips them and trace tooling sees only scheduling decisions.
    scale: Option<Arc<Mutex<Vec<String>>>>,
}

impl AuditLog {
    /// A live audit log.
    pub fn recording() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Vec::new()))),
            scale: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    /// A disabled log (same as `AuditLog::default()`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether decisions will actually be stored.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a decision with its inputs and predictions; returns a
    /// handle for [`Self::complete`], or `None` when disabled.
    pub fn begin(&self, rec: DecisionRecord) -> Option<DecisionId> {
        let inner = self.inner.as_ref()?;
        let mut v = inner.lock();
        v.push(rec);
        Some(DecisionId(v.len() - 1))
    }

    /// Fills in the observed per-device times once the iteration ran.
    pub fn complete(&self, id: DecisionId, cpu_secs: f64, gpu_secs: f64, map_secs: f64) {
        if let Some(inner) = &self.inner {
            let mut v = inner.lock();
            if let Some(rec) = v.get_mut(id.0) {
                rec.observed_cpu_secs = Some(cpu_secs);
                rec.observed_gpu_secs = Some(gpu_secs);
                rec.observed_map_secs = Some(map_secs);
            }
        }
    }

    /// Snapshot of all decisions, in append order.
    pub fn records(&self) -> Vec<DecisionRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.lock().clone())
    }

    /// Appends a pre-rendered autoscaler/membership decision line. The
    /// caller is responsible for deterministic key order (a
    /// `BTreeMap`-backed [`Value::Object`]); lines are exported in append
    /// order after the canonical scheduling decisions. No-op when
    /// disabled.
    pub fn scale_line(&self, line: String) {
        if let Some(scale) = &self.scale {
            scale.lock().push(line);
        }
    }

    /// Snapshot of the autoscaler/membership decision lines, in append
    /// order.
    pub fn scale_lines(&self) -> Vec<String> {
        self.scale.as_ref().map_or_else(Vec::new, |s| s.lock().clone())
    }

    /// Canonical JSONL export, sorted by `(iteration, node, bytes)` so
    /// identical runs render byte-identically regardless of the order
    /// worker processes appended.
    pub fn to_jsonl(&self) -> String {
        let mut lines: Vec<(usize, usize, String)> = self
            .records()
            .iter()
            .map(|r| (r.iteration, r.node, r.to_value().to_json_string()))
            .collect();
        lines.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let scale = self.scale_lines();
        let mut out = String::new();
        if !lines.is_empty() || !scale.is_empty() {
            let mut meta = BTreeMap::new();
            meta.insert(
                "schema".to_string(),
                Value::String(DECISIONS_SCHEMA.to_string()),
            );
            meta.insert("decisions".to_string(), Value::Number(lines.len() as f64));
            out.push_str(&Value::Object(meta).to_json_string());
            out.push('\n');
        }
        for (_, _, l) in lines {
            out.push_str(&l);
            out.push('\n');
        }
        for l in scale {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }

    /// Reads a `decisions.jsonl` file back into records, strictly: a
    /// line that is not a JSON object is an error naming it (1-based),
    /// and so is a file holding a different number of scheduling
    /// decisions than its meta line declares — a bundle cut short must
    /// not be analysed as if it were whole. Autoscaler lines (objects
    /// without `node`/`iter`) are passed over and, like the writer's
    /// count, not counted; a file without a meta line is read as it is.
    pub fn read_jsonl(text: &str) -> Result<Vec<DecisionRecord>, JsonlError> {
        const FILE: &str = "decisions.jsonl";
        let mut out = Vec::new();
        let mut declared: Option<u64> = None;
        for (i, line) in text.lines().enumerate() {
            let bad = |msg: String| JsonlError::Line {
                file: FILE,
                line: i + 1,
                msg,
            };
            match read_decision_line(line).map_err(|e| bad(e.to_string()))? {
                DecisionLine::Blank | DecisionLine::Other => {}
                DecisionLine::NotObject => return Err(bad("not an object".into())),
                DecisionLine::Meta { decisions } => {
                    if let Some(n) = decisions {
                        declared = Some(declared.unwrap_or(0).saturating_add(n));
                    }
                }
                DecisionLine::Record(rec) => out.push(*rec),
            }
        }
        match declared {
            Some(declared) if declared != out.len() as u64 => Err(JsonlError::Count {
                file: FILE,
                declared,
                read: out.len() as u64,
            }),
            _ => Ok(out),
        }
    }

    /// [`Self::read_jsonl`] for callers that want whatever can be read:
    /// lines that fail to parse are skipped and no count is checked.
    pub fn parse_jsonl(text: &str) -> Vec<DecisionRecord> {
        text.lines()
            .filter_map(|l| match read_decision_line(l) {
                Ok(DecisionLine::Record(rec)) => Some(*rec),
                _ => None,
            })
            .collect()
    }
}

/// What one line of `decisions.jsonl` is.
enum DecisionLine {
    /// Nothing but whitespace.
    Blank,
    /// Valid JSON, but not an object.
    NotObject,
    /// An object carrying `schema`: the meta line and the count it
    /// declares.
    Meta { decisions: Option<u64> },
    /// An object without a numeric `node`/`iter`: an autoscaler line.
    Other,
    /// A scheduling decision.
    Record(Box<DecisionRecord>),
}

/// Numeric members of a decision line, in [`DecisionRecord`] order.
const NUM_KEYS: [&str; 18] = [
    "node", "iter", "ai_cpu", "ai_gpu", "cpu_ridge", "gpu_ridge", "gpus_total", "gpus_usable",
    "p", "block_items", "items", "bytes", "pred_cpu_s", "pred_gpu_s", "pred_map_s", "obs_cpu_s",
    "obs_gpu_s", "obs_map_s",
];
const STR_KEYS: [&str; 3] = ["mode", "trigger", "regime"];

/// One line of `decisions.jsonl` read without building a `Value`, with
/// the same fallbacks as [`DecisionRecord::from_value`].
fn read_decision_line(line: &str) -> Result<DecisionLine, ScanError> {
    if line.trim().is_empty() {
        return Ok(DecisionLine::Blank);
    }
    let mut sc = Scanner::new(line);
    let mut num = [None; NUM_KEYS.len()];
    let mut text = [None, None, None];
    let mut meta = false;
    let mut declared = None;
    if !sc.begin_object() {
        sc.skip_value()?;
        sc.end()?;
        return Ok(DecisionLine::NotObject);
    }
    while let Some(key) = sc.next_key()? {
        if let Some(i) = NUM_KEYS.iter().position(|k| *k == key) {
            num[i] = sc.number()?;
        } else if let Some(i) = STR_KEYS.iter().position(|k| *k == key) {
            text[i] = sc.string()?;
        } else if key == "schema" {
            meta = true;
            sc.skip_value()?;
        } else if key == "decisions" {
            declared = sc.number()?.and_then(as_u64);
        } else {
            sc.skip_value()?;
        }
    }
    sc.end()?;
    if meta {
        return Ok(DecisionLine::Meta { decisions: declared });
    }
    let (Some(node), Some(iteration)) = (num[0], num[1]) else {
        return Ok(DecisionLine::Other);
    };
    let n = |i: usize| num[i].unwrap_or(0.0);
    let mut s = |i: usize| text[i].take().map(|s| s.into_owned()).unwrap_or_default();
    Ok(DecisionLine::Record(Box::new(DecisionRecord {
        node: node as usize,
        iteration: iteration as usize,
        mode: s(0),
        trigger: s(1),
        ai_cpu: n(2),
        ai_gpu: n(3),
        cpu_ridge: n(4),
        gpu_ridge: n(5),
        regime: s(2),
        gpus_total: n(6) as usize,
        gpus_usable: n(7) as usize,
        cpu_fraction: n(8),
        block_items: n(9) as usize,
        items: n(10) as usize,
        bytes: n(11) as u64,
        predicted_cpu_secs: n(12),
        predicted_gpu_secs: n(13),
        predicted_map_secs: n(14),
        observed_cpu_secs: num[15],
        observed_gpu_secs: num[16],
        observed_map_secs: num[17],
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: usize, iter: usize) -> DecisionRecord {
        DecisionRecord {
            node,
            iteration: iter,
            mode: "static".into(),
            trigger: "initial".into(),
            ai_cpu: 100.0,
            ai_gpu: 80.0,
            cpu_ridge: 12.5,
            gpu_ridge: 40.0,
            regime: "BothPeakBound".into(),
            gpus_total: 1,
            gpus_usable: 1,
            cpu_fraction: 0.25,
            block_items: 0,
            items: 1000,
            bytes: 64_000,
            predicted_cpu_secs: 0.010,
            predicted_gpu_secs: 0.012,
            predicted_map_secs: 0.012,
            observed_cpu_secs: None,
            observed_gpu_secs: None,
            observed_map_secs: None,
        }
    }

    #[test]
    fn disabled_log_refuses_begin() {
        let log = AuditLog::disabled();
        assert!(log.begin(rec(0, 0)).is_none());
        assert_eq!(log.to_jsonl(), "");
    }

    #[test]
    fn begin_complete_round_trip_with_model_error() {
        let log = AuditLog::recording();
        let id = log.begin(rec(0, 0)).unwrap();
        log.complete(id, 0.011, 0.015, 0.015);
        let r = &log.records()[0];
        assert_eq!(r.observed_map_secs, Some(0.015));
        let err = r.map_error().unwrap();
        assert!((err - (0.015 - 0.012) / 0.015).abs() < 1e-12);
        let jsonl = log.to_jsonl();
        let parsed = AuditLog::parse_jsonl(&jsonl);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0], log.records()[0]);
    }

    #[test]
    fn scale_lines_export_after_decisions_and_parse_skips_them() {
        let log = AuditLog::recording();
        log.begin(rec(0, 0)).unwrap();
        log.scale_line(r#"{"action":"grow","mean_iter_s":0.5}"#.to_string());
        log.scale_line(r#"{"action":"hold","mean_iter_s":0.1}"#.to_string());
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        // Meta counts only canonical scheduling decisions.
        assert!(lines[0].contains("\"decisions\":1"));
        assert!(lines[2].contains("\"action\":\"grow\""));
        assert!(lines[3].contains("\"action\":\"hold\""));
        // Trace tooling sees only the scheduling decision.
        assert_eq!(AuditLog::parse_jsonl(&jsonl).len(), 1);
        // A disabled log swallows scale lines too.
        let off = AuditLog::disabled();
        off.scale_line("{}".to_string());
        assert_eq!(off.to_jsonl(), "");
    }

    #[test]
    fn jsonl_sorts_by_iteration_then_node() {
        let log = AuditLog::recording();
        log.begin(rec(1, 1)).unwrap();
        log.begin(rec(0, 1)).unwrap();
        log.begin(rec(1, 0)).unwrap();
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains(&format!("\"schema\":\"{DECISIONS_SCHEMA}\"")));
        assert!(lines[1].contains("\"iter\":0"));
        assert!(lines[2].contains("\"node\":0"));
        assert!(lines[3].contains("\"node\":1"));
    }
}
