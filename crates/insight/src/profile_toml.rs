//! TOML persistence for [`CalibrationProfile`] — the artifact behind
//! `prs calibrate -o profile.toml` and `prs run --profile-file`.
//!
//! The text is read under the one grammar of [`crate::toml`]; this module
//! maps its tables onto a profile and checks the schema, the rates and the
//! counts. Strings are written with [`toml::quote`] and floats with Rust's
//! shortest-round-trip formatting, so a profile reads back exactly.

use crate::calibrate::{CalibrationProfile, SampleCounts};
use crate::toml::{self, Table};
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
    let _ = writeln!(out, "\n[samples]");
    let _ = writeln!(out, "cpu = {}", cal.samples.cpu);
    let _ = writeln!(out, "gpu = {}", cal.samples.gpu);
    let _ = writeln!(out, "pcie = {}", cal.samples.pcie);
    let _ = writeln!(out, "net = {}", cal.samples.net);
    if let Some(bw) = cal.net_bw {
        let _ = writeln!(out, "\n[network]");
        let _ = writeln!(out, "bandwidth = {}", fmt_f64(bw));
    }
    let _ = writeln!(out, "\n[profile]");
    let _ = writeln!(out, "name = {}", toml::quote(&p.name));
    let _ = writeln!(out, "\n[profile.cpu]");
    let _ = writeln!(out, "model = {}", toml::quote(&p.cpu.model));
    let _ = writeln!(out, "cores = {}", p.cpu.cores);
    let _ = writeln!(out, "peak_flops = {}", fmt_f64(p.cpu.peak_flops));
    let _ = writeln!(out, "dram_bw = {}", fmt_f64(p.cpu.dram_bw));
    let _ = writeln!(out, "mem_bytes = {}", p.cpu.mem_bytes);
    for g in &p.gpus {
        let _ = writeln!(out, "\n[[profile.gpu]]");
        let _ = writeln!(out, "model = {}", toml::quote(&g.model));
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

/// The most CPU cores a node may have: each is a simulated process, and
/// the cluster's processes must fit in the address space.
const MAX_CPU_CORES: u64 = 4096;

/// A rate or a bandwidth, per second: finite and at least 1.
fn rate(t: &Table, key: &str) -> Result<f64, String> {
    match t.get(key)?.num()? {
        v if v.is_finite() && v >= 1.0 => Ok(v),
        v => Err(format!("key {key:?}: {v:?} is not a finite rate of at least 1 per second")),
    }
}

/// A count from `min` to `max` (see [`toml::whole`]).
fn count(t: &Table, key: &str, min: u64, max: u64) -> Result<u64, String> {
    let v = t.get(key)?.num()?;
    let n = toml::whole(v, max).filter(|&n| n >= min);
    n.ok_or_else(|| format!("key {key:?}: {v:?} is not a count from {min} to {max}"))
}

fn parse_gpu(t: &Table) -> Result<GpuSpec, String> {
    Ok(GpuSpec {
        model: t.get("model")?.str()?.to_string(),
        cores: count(t, "cores", 1, u32::MAX.into())? as u32,
        peak_flops: rate(t, "peak_flops")?,
        dram_bw: rate(t, "dram_bw")?,
        pcie_peak_bw: rate(t, "pcie_peak_bw")?,
        pcie_eff_bw: rate(t, "pcie_eff_bw")?,
        mem_bytes: count(t, "mem_bytes", 0, u64::MAX)?,
        hw_queues: count(t, "hw_queues", 0, u32::MAX.into())? as u32,
    })
}

/// Parses profile TOML text back into a [`CalibrationProfile`].
pub fn parse_toml(text: &str) -> Result<CalibrationProfile, String> {
    let tables = toml::parse(text)?;
    if let Some(t) = tables.iter().find(|t| t.array && t.name != "profile.gpu") {
        return Err(t.unknown());
    }
    let section = |name: &str| tables.iter().find(|t| !t.array && t.name == name);
    let root = &tables[0];
    let schema = root.get("schema")?.str()?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
    }
    let alpha = root.get("alpha")?.num()?;
    if !(0.0..=1.0).contains(&alpha) {
        return Err(format!("alpha {alpha} out of [0,1]"));
    }
    let prof = section("profile").ok_or("missing [profile] section")?;
    let cpu_t = section("profile.cpu").ok_or("missing [profile.cpu] section")?;
    let cpu = CpuSpec {
        model: cpu_t.get("model")?.str()?.to_string(),
        cores: count(cpu_t, "cores", 1, MAX_CPU_CORES)? as u32,
        peak_flops: rate(cpu_t, "peak_flops")?,
        dram_bw: rate(cpu_t, "dram_bw")?,
        mem_bytes: count(cpu_t, "mem_bytes", 0, u64::MAX)?,
    };
    let gpus = tables.iter().filter(|t| t.array).map(parse_gpu);
    let gpus = gpus.collect::<Result<Vec<_>, _>>()?;
    let fitted = DeviceProfile {
        name: prof.get("name")?.str()?.to_string(),
        cpu,
        gpus,
    };
    let samples = match section("samples") {
        Some(t) => SampleCounts {
            cpu: count(t, "cpu", 0, u64::MAX)?,
            gpu: count(t, "gpu", 0, u64::MAX)?,
            pcie: count(t, "pcie", 0, u64::MAX)?,
            net: count(t, "net", 0, u64::MAX)?,
        },
        None => SampleCounts::default(),
    };
    let net_bw = section("network").map(|t| rate(t, "bandwidth")).transpose()?;
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
        // Names and models read back whatever characters they hold.
        let mut odd = DeviceProfile::delta_node();
        odd.name = "rack #3 \"east\"\tC:\\".into();
        odd.cpu.model = "Xeon # \\\"12\"".into();
        odd.gpus[1].model = "\t#\"\\".into();
        let cal = CalibrationProfile::new(odd, 0.3);
        let text = to_toml(&cal);
        assert_eq!(parse_toml(&text).unwrap(), cal, "{text}");
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
        for key in ["mem_bytes", "hw_queues", "cpu", "gpu", "pcie", "net", "cores"] {
            for value in ["-5", "-0.5", "2.5", "5e-324", "nan", "inf", "-inf", "1e400"] {
                let err = parse_toml(&with(key, value)).expect_err(value);
                assert!(err.contains(&format!("key {key:?}")), "{key} = {value}: {err}");
            }
        }
        assert!(parse_toml(&with("mem_bytes", "0")).is_ok());
        assert!(parse_toml(&with("hw_queues", "4294967295")).is_ok());
        assert!(parse_toml(&with("hw_queues", "4294967296")).unwrap_err().contains("from 0 to"));
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
