//! Readers for the user-facing outputs the benchmark relies on:
//! `prs run --json`, `metrics.prom`, `events.jsonl` counts,
//! `/proc/<pid>/status`, and content hashes of bundle artifacts.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// The fields of `prs run --json` the benchmark reads.
#[derive(Debug, Clone, PartialEq)]
pub struct RunJson {
    pub iterations: u64,
    pub setup_seconds: f64,
    pub compute_seconds: f64,
    pub sim_events: u64,
    /// `null` when the scheduling mode has no static split.
    pub cpu_fraction: Option<f64>,
    pub cpu_map_tasks: u64,
    pub gpu_map_tasks: u64,
}

impl RunJson {
    /// The paper's headline number: virtual setup + compute seconds.
    pub fn makespan(&self) -> f64 {
        self.setup_seconds + self.compute_seconds
    }

    /// CPU share of the map: the static split where the mode has one,
    /// else the share of map tasks the CPU ended up running.
    pub fn cpu_share(&self) -> f64 {
        self.cpu_fraction.unwrap_or_else(|| {
            self.cpu_map_tasks as f64 / (self.cpu_map_tasks + self.gpu_map_tasks).max(1) as f64
        })
    }
}

fn field<'a>(doc: &'a Value, key: &str) -> Result<&'a Value, String> {
    doc.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn number(doc: &Value, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("field '{key}' is not a finite number"))
}

fn whole(doc: &Value, key: &str) -> Result<u64, String> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not a whole number"))
}

pub fn parse_run_json(text: &str) -> Result<RunJson, String> {
    let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
    Ok(RunJson {
        iterations: whole(&doc, "iterations")?,
        setup_seconds: number(&doc, "setup_seconds")?,
        compute_seconds: number(&doc, "compute_seconds")?,
        sim_events: whole(&doc, "sim_events")?,
        cpu_fraction: field(&doc, "cpu_fraction")?.as_f64(),
        cpu_map_tasks: whole(&doc, "cpu_map_tasks")?,
        gpu_map_tasks: whole(&doc, "gpu_map_tasks")?,
    })
}

/// One sample line of a Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    pub name: String,
    pub labels: BTreeMap<String, String>,
    pub value: f64,
}

/// Parses `name{k="v",...} value` lines, skipping comments and lines it
/// cannot read (label values in `metrics.prom` never contain quotes or
/// commas, so a plain split is exact for this producer).
pub fn parse_prom(text: &str) -> Vec<PromSample> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let value: f64 = value.parse().ok()?;
            let (name, labels) = match series.split_once('{') {
                None => (series, BTreeMap::new()),
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}')?;
                    let mut labels = BTreeMap::new();
                    for pair in body.split(',').filter(|p| !p.is_empty()) {
                        let (k, v) = pair.split_once('=')?;
                        labels.insert(k.to_string(), v.trim_matches('"').to_string());
                    }
                    (name, labels)
                }
            };
            Some(PromSample {
                name: name.to_string(),
                labels,
                value,
            })
        })
        .collect()
}

/// Values of every sample of family `name`, optionally only those whose
/// label `key` contains `needle`.
pub fn family(samples: &[PromSample], name: &str, label: Option<(&str, &str)>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| match label {
            None => true,
            Some((key, needle)) => s.labels.get(key).is_some_and(|v| v.contains(needle)),
        })
        .map(|s| s.value)
        .collect()
}

/// One numeric field (`Threads`, `VmHWM`, ...) of `/proc/<pid>/status`
/// text; sizes are in the file's own unit (kB).
pub fn proc_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// FNV-1a over `bytes`: a content fingerprint for comparing artifacts
/// between repetitions (not a security hash).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a and length of a file, streamed: the harness must stay small
/// (see `pass_in_fresh_process`), and bundle files run to tens of MiB.
fn hash_file(path: &Path) -> std::io::Result<(u64, u64)> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut buf = [0u8; 64 * 1024];
    let (mut h, mut len) = (FNV_OFFSET, 0u64);
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok((h, len));
        }
        h = fnv1a_extend(h, &buf[..n]);
        len += n as u64;
    }
}

/// `(file name → (content hash, bytes))` of every regular file directly
/// inside `dir`, sorted by name.
pub fn hash_dir(dir: &Path) -> Result<BTreeMap<String, (u64, u64)>, String> {
    let io = |e: std::io::Error| format!("reading {}: {e}", dir.display());
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let entry = entry.map_err(io)?;
        let path = entry.path();
        if path.is_file() {
            let name = entry.file_name().to_string_lossy().into_owned();
            out.insert(name, hash_file(&path).map_err(io)?);
        }
    }
    Ok(out)
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN_JSON: &str = r#"{
  "app": "C-means",
  "compute_seconds": 0.008134459269739519,
  "cpu_fraction": 0.11206896551724138,
  "cpu_map_tasks": 3840,
  "extra": "final J_m = 1.1363e7",
  "gflops_per_node": 629.4238953345885,
  "gpu_map_tasks": 320,
  "iterations": 10,
  "nodes": 4,
  "points": 400000,
  "seconds_per_iteration": 0.0008134459269739519,
  "setup_seconds": 0.08433604347826089,
  "sim_events": 14387
}"#;

    #[test]
    fn run_json_fields_are_read_exactly() {
        let r = parse_run_json(RUN_JSON).unwrap();
        assert_eq!(r.iterations, 10);
        assert_eq!(r.sim_events, 14387);
        assert_eq!(r.setup_seconds.to_bits(), 0.08433604347826089f64.to_bits());
        assert_eq!(
            r.compute_seconds.to_bits(),
            0.008134459269739519f64.to_bits()
        );
        assert_eq!(r.cpu_fraction, Some(0.11206896551724138));
        assert_eq!(r.cpu_share(), 0.11206896551724138);
        assert!((r.makespan() - 0.09247050274800041).abs() < 1e-15);
    }

    #[test]
    fn run_json_rejects_missing_or_mistyped_fields() {
        assert!(parse_run_json("{}").unwrap_err().contains("iterations"));
        assert!(parse_run_json("not json").is_err());
        let bad = RUN_JSON.replace("14387", "\"many\"");
        assert!(parse_run_json(&bad).unwrap_err().contains("sim_events"));
        let null_p = RUN_JSON.replace("0.11206896551724138", "null");
        let dynamic = parse_run_json(&null_p).unwrap();
        assert_eq!(dynamic.cpu_fraction, None);
        assert_eq!(dynamic.cpu_share(), 3840.0 / 4160.0);
    }

    const PROM: &str = "\
# TYPE prs_net_bytes_total counter
prs_net_bytes_total{src=\"0\"} 659990
prs_net_bytes_total{src=\"1\"} 15600
# TYPE prs_device_utilization gauge
prs_device_utilization{device=\"node0-cpu\"} 0.25
prs_device_utilization{device=\"node0-gpu0\"} 0.5
prs_queue_depth_peak{node=\"0\",queue=\"shared\"} 3
prs_compute_seconds 0.0021827978478252963
prs_block_wait_seconds_sum{device=\"node0-cpu\"} 0.125
garbage line without a value
";

    #[test]
    fn prom_families_and_labels() {
        let s = parse_prom(PROM);
        assert_eq!(s.len(), 7);
        assert_eq!(
            family(&s, "prs_net_bytes_total", None).iter().sum::<f64>(),
            675590.0
        );
        assert_eq!(
            family(&s, "prs_device_utilization", Some(("device", "gpu"))),
            vec![0.5]
        );
        assert_eq!(
            family(&s, "prs_device_utilization", Some(("device", "cpu"))),
            vec![0.25]
        );
        assert_eq!(
            family(&s, "prs_compute_seconds", None),
            vec![0.0021827978478252963]
        );
        let q = s.iter().find(|x| x.name == "prs_queue_depth_peak").unwrap();
        assert_eq!(q.labels.get("queue").map(String::as_str), Some("shared"));
        assert!(family(&s, "absent", None).is_empty());
    }

    #[test]
    fn proc_status_fields() {
        let text = "Name:\tprs\nVmHWM:\t  123456 kB\nThreads:\t2051\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(proc_status_field(text, "Threads"), Some(2051));
        assert_eq!(proc_status_field(text, "VmHWM"), Some(123456));
        assert_eq!(proc_status_field(text, "VmRSS"), None);
        assert_eq!(proc_status_field("Threads: x\n", "Threads"), None);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        assert_eq!(fnv1a_extend(fnv1a(b"ab"), b"cd"), fnv1a(b"abcd"));
    }
}
