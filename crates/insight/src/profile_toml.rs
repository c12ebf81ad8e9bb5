//! TOML persistence for [`CalibrationProfile`] — the artifact behind
//! `prs calibrate -o profile.toml` and `prs run --profile-file`.
//!
//! The workspace is hermetic (no crates.io), so this is a deliberately
//! small hand-rolled reader/writer covering exactly the grammar the
//! profile format uses: `key = value` pairs, `[section]` tables,
//! `[[profile.gpu]]` array-of-tables, basic strings, numbers, and `#`
//! comments. Floats round-trip exactly: the writer uses Rust's
//! shortest-round-trip formatting and the reader `str::parse`.

use crate::calibrate::{CalibrationProfile, SampleCounts};
use roofline::profiles::{CpuSpec, DeviceProfile, GpuSpec};
use std::fmt::Write as _;

/// Schema tag written to (and required from) every profile file.
pub const SCHEMA: &str = "prs-calibration-v1";

fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Renders a fitted profile as TOML text.
pub fn to_toml(cal: &CalibrationProfile) -> String {
    let p = cal.profile();
    let mut out = String::new();
    let _ = writeln!(out, "# Fitted roofline calibration profile (prs calibrate).");
    let _ = writeln!(out, "schema = \"{SCHEMA}\"");
    let _ = writeln!(out, "alpha = {}", fmt_f64(cal.alpha));
    let _ = writeln!(out);
    let _ = writeln!(out, "[samples]");
    let _ = writeln!(out, "cpu = {}", cal.samples.cpu);
    let _ = writeln!(out, "gpu = {}", cal.samples.gpu);
    let _ = writeln!(out, "pcie = {}", cal.samples.pcie);
    let _ = writeln!(out, "net = {}", cal.samples.net);
    if let Some(bw) = cal.net_bw {
        let _ = writeln!(out);
        let _ = writeln!(out, "[network]");
        let _ = writeln!(out, "bandwidth = {}", fmt_f64(bw));
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "[profile]");
    let _ = writeln!(out, "name = {:?}", p.name);
    let _ = writeln!(out);
    let _ = writeln!(out, "[profile.cpu]");
    let _ = writeln!(out, "model = {:?}", p.cpu.model);
    let _ = writeln!(out, "cores = {}", p.cpu.cores);
    let _ = writeln!(out, "peak_flops = {}", fmt_f64(p.cpu.peak_flops));
    let _ = writeln!(out, "dram_bw = {}", fmt_f64(p.cpu.dram_bw));
    let _ = writeln!(out, "mem_bytes = {}", p.cpu.mem_bytes);
    for g in &p.gpus {
        let _ = writeln!(out);
        let _ = writeln!(out, "[[profile.gpu]]");
        let _ = writeln!(out, "model = {:?}", g.model);
        let _ = writeln!(out, "cores = {}", g.cores);
        let _ = writeln!(out, "peak_flops = {}", fmt_f64(g.peak_flops));
        let _ = writeln!(out, "dram_bw = {}", fmt_f64(g.dram_bw));
        let _ = writeln!(out, "pcie_peak_bw = {}", fmt_f64(g.pcie_peak_bw));
        let _ = writeln!(out, "pcie_eff_bw = {}", fmt_f64(g.pcie_eff_bw));
        let _ = writeln!(out, "mem_bytes = {}", g.mem_bytes);
        let _ = writeln!(out, "hw_queues = {}", g.hw_queues);
    }
    out
}

#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Str(String),
    Num(f64),
}

impl TomlValue {
    fn as_f64(&self, key: &str) -> Result<f64, String> {
        match self {
            TomlValue::Num(n) => Ok(*n),
            TomlValue::Str(_) => Err(format!("key {key:?}: expected a number")),
        }
    }

    fn as_str(&self, key: &str) -> Result<&str, String> {
        match self {
            TomlValue::Str(s) => Ok(s),
            TomlValue::Num(_) => Err(format!("key {key:?}: expected a string")),
        }
    }
}

fn parse_value(raw: &str, lineno: usize) -> Result<TomlValue, String> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| format!("line {lineno}: unterminated string"))?;
        // The writer only escapes via {:?}; undo the two escapes it can
        // produce.
        Ok(TomlValue::Str(inner.replace("\\\"", "\"").replace("\\\\", "\\")))
    } else {
        raw.parse::<f64>()
            .map(TomlValue::Num)
            .map_err(|_| format!("line {lineno}: invalid number {raw:?}"))
    }
}

/// Flat key-value store per section, with `[[profile.gpu]]` occurrences
/// kept in order.
#[derive(Default)]
struct Doc {
    root: Vec<(String, TomlValue)>,
    sections: Vec<(String, Vec<(String, TomlValue)>)>,
    gpus: Vec<Vec<(String, TomlValue)>>,
}

impl Doc {
    fn section(&self, name: &str) -> Option<&[(String, TomlValue)]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, kv)| kv.as_slice())
    }
}

fn get<'a>(kv: &'a [(String, TomlValue)], key: &str) -> Result<&'a TomlValue, String> {
    kv.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

/// The most CPU cores a node may have: each is a simulated process, and
/// the cluster's processes must fit in the address space.
const MAX_CPU_CORES: u32 = 4096;

/// A rate or a bandwidth, per second: finite and at least 1.
fn rate(kv: &[(String, TomlValue)], key: &str) -> Result<f64, String> {
    let v = get(kv, key)?.as_f64(key)?;
    if v.is_finite() && v >= 1.0 {
        Ok(v)
    } else {
        Err(format!("key {key:?}: {v:?} is not a finite rate of at least 1 per second"))
    }
}

/// A core count from 1 to `max`.
fn cores(kv: &[(String, TomlValue)], max: u32) -> Result<u32, String> {
    let v = get(kv, "cores")?.as_f64("cores")?;
    if (1.0..=f64::from(max)).contains(&v) {
        Ok(v as u32)
    } else {
        Err(format!("key \"cores\": {v:?} is not a count from 1 to {max}"))
    }
}

fn parse_doc(text: &str) -> Result<Doc, String> {
    let mut doc = Doc::default();
    // Which bucket `key = value` lines currently land in.
    enum Cursor {
        Root,
        Section(usize),
        Gpu(usize),
    }
    let mut cursor = Cursor::Root;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = match line.find('#') {
            // `#` inside a quoted string never happens in this format.
            Some(pos) => &line[..pos],
            None => line,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            if name.trim() != "profile.gpu" {
                return Err(format!("line {lineno}: unknown array table {name:?}"));
            }
            doc.gpus.push(Vec::new());
            cursor = Cursor::Gpu(doc.gpus.len() - 1);
        } else if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            doc.sections.push((name.trim().to_string(), Vec::new()));
            cursor = Cursor::Section(doc.sections.len() - 1);
        } else if let Some((key, value)) = line.split_once('=') {
            let pair = (key.trim().to_string(), parse_value(value, lineno)?);
            match cursor {
                Cursor::Root => doc.root.push(pair),
                Cursor::Section(s) => doc.sections[s].1.push(pair),
                Cursor::Gpu(g) => doc.gpus[g].push(pair),
            }
        } else {
            return Err(format!("line {lineno}: expected `key = value` or a [section]"));
        }
    }
    Ok(doc)
}

fn parse_gpu(kv: &[(String, TomlValue)]) -> Result<GpuSpec, String> {
    Ok(GpuSpec {
        model: get(kv, "model")?.as_str("model")?.to_string(),
        cores: cores(kv, u32::MAX)?,
        peak_flops: rate(kv, "peak_flops")?,
        dram_bw: rate(kv, "dram_bw")?,
        pcie_peak_bw: rate(kv, "pcie_peak_bw")?,
        pcie_eff_bw: rate(kv, "pcie_eff_bw")?,
        mem_bytes: get(kv, "mem_bytes")?.as_f64("mem_bytes")? as u64,
        hw_queues: get(kv, "hw_queues")?.as_f64("hw_queues")? as u32,
    })
}

/// Parses profile TOML text back into a [`CalibrationProfile`].
pub fn parse_toml(text: &str) -> Result<CalibrationProfile, String> {
    let doc = parse_doc(text)?;
    let schema = get(&doc.root, "schema")?.as_str("schema")?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
    }
    let alpha = get(&doc.root, "alpha")?.as_f64("alpha")?;
    if !(0.0..=1.0).contains(&alpha) {
        return Err(format!("alpha {alpha} out of [0,1]"));
    }
    let prof = doc
        .section("profile")
        .ok_or("missing [profile] section")?;
    let cpu_kv = doc
        .section("profile.cpu")
        .ok_or("missing [profile.cpu] section")?;
    let cpu = CpuSpec {
        model: get(cpu_kv, "model")?.as_str("model")?.to_string(),
        cores: cores(cpu_kv, MAX_CPU_CORES)?,
        peak_flops: rate(cpu_kv, "peak_flops")?,
        dram_bw: rate(cpu_kv, "dram_bw")?,
        mem_bytes: get(cpu_kv, "mem_bytes")?.as_f64("mem_bytes")? as u64,
    };
    let gpus = doc
        .gpus
        .iter()
        .map(|kv| parse_gpu(kv))
        .collect::<Result<Vec<_>, _>>()?;
    let fitted = DeviceProfile {
        name: get(prof, "name")?.as_str("name")?.to_string(),
        cpu,
        gpus,
    };
    let samples = match doc.section("samples") {
        Some(kv) => SampleCounts {
            cpu: get(kv, "cpu")?.as_f64("cpu")? as u64,
            gpu: get(kv, "gpu")?.as_f64("gpu")? as u64,
            pcie: get(kv, "pcie")?.as_f64("pcie")? as u64,
            net: get(kv, "net")?.as_f64("net")? as u64,
        },
        None => SampleCounts::default(),
    };
    let net_bw = match doc.section("network") {
        Some(kv) => Some(rate(kv, "bandwidth")?),
        None => None,
    };
    Ok(CalibrationProfile::from_parts(fitted, alpha, samples, net_bw))
}

/// Convenience for callers that only need the hardware numbers: parses
/// profile TOML and returns the fitted [`DeviceProfile`].
pub fn parse_device_profile(text: &str) -> Result<DeviceProfile, String> {
    parse_toml(text).map(|cal| cal.profile().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_exact() {
        let mut cal = CalibrationProfile::new(DeviceProfile::delta_node(), 0.3);
        cal.observe_cpu_rate(500.0, 121.7e9);
        cal.observe_gpu_rate(500.0, 987.6543e9);
        cal.observe_pcie_bw(0.8912345e9);
        cal.observe_net_bw(3.2e9);
        let text = to_toml(&cal);
        let back = parse_toml(&text).unwrap();
        assert_eq!(back, cal);
        // And the text itself is stable.
        assert_eq!(to_toml(&back), text);
    }

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        assert!(parse_toml("schema = \"other\"\nalpha = 0.3\n").is_err());
        assert!(parse_toml("what even is this").is_err());
        assert!(parse_toml("schema = \"prs-calibration-v1\"\nalpha = 2.0\n").is_err());
    }

    #[test]
    fn rates_and_core_counts_must_be_in_range() {
        let text = to_toml(&CalibrationProfile::new(DeviceProfile::delta_node(), 0.3));
        let with = |key: &str, value: &str| {
            let at = text.find(&format!("\n{key} = ")).expect("key written") + 1;
            let end = at + text[at..].find('\n').expect("line ends");
            format!("{}{key} = {value}{}", &text[..at], &text[end..])
        };
        assert!(parse_toml(&with("cores", "1")).is_ok());
        assert!(parse_toml(&with("cores", "4096")).is_ok());
        assert!(parse_toml(&with("cores", "4097")).unwrap_err().contains("from 1 to 4096"));
        for key in ["peak_flops", "dram_bw", "pcie_peak_bw", "pcie_eff_bw", "cores"] {
            for value in ["0.0", "-5.0", "0.5", "5e-324", "nan", "inf", "-inf", "1e400"] {
                let err = parse_toml(&with(key, value)).expect_err(value);
                assert!(err.contains(&format!("key {key:?}")), "{key} = {value}: {err}");
            }
        }
        let mut cal = CalibrationProfile::new(DeviceProfile::delta_node(), 0.3);
        cal.observe_net_bw(3.2e9);
        let text = to_toml(&cal).replace("bandwidth = 3200000000.0", "bandwidth = 0.0");
        assert!(parse_toml(&text).unwrap_err().contains("\"bandwidth\""));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let cal = CalibrationProfile::new(DeviceProfile::bigred2_node(), 0.25);
        let mut text = String::from("# leading comment\n\n");
        text.push_str(&to_toml(&cal));
        text.push_str("\n# trailing\n");
        let back = parse_toml(&text).unwrap();
        assert_eq!(back.profile().name, "BigRed2+fitted");
        assert_eq!(back.alpha, 0.25);
    }

    #[test]
    fn device_profile_view_matches_preset() {
        let cal = CalibrationProfile::new(DeviceProfile::delta_node(), 0.3);
        let p = parse_device_profile(&to_toml(&cal)).unwrap();
        let base = DeviceProfile::delta_node();
        assert_eq!(p.cpu, base.cpu);
        assert_eq!(p.gpus, base.gpus);
    }
}
