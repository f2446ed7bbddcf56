//! The benchmark's metric tables and its output: labelled report lines
//! for people, then one JSON object on the last line for machines.
//!
//! The tables here are the single source of metric names, units and
//! directions; `BENCHMARK.json` at the repository root lists the same
//! names (a unit test holds the two together).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric's identity.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// For a ratio: the metric holding its denominator, emitted beside
    /// it so a reader can tell 3 of 4 from 3000 of 4000.
    pub base: Option<&'static str>,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better,
        base: None,
    }
}

const fn r(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    base: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        base: Some(base),
    }
}

/// End-to-end metrics, printed by every untraced run. `a.` and `b.` are
/// the workload's two measured phases (see the README table).
pub const END_TO_END: &[Spec] = &[
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("a.cpu_us_per_op", "us", "lower"),
    m("b.cpu_us_per_op", "us", "lower"),
];

/// Per-layer metrics, printed by every traced run; a layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[Spec] = &[
    m("nn.data_s", "s", "lower"),
    m("nn.train_s", "s", "lower"),
    m("compile.s", "s", "lower"),
    m("compile.tiles", "count", "lower"),
    m("plan.first_run_ms", "ms", "lower"),
    m("kernel.samples", "count", "higher"),
    r(
        "kernel.s1_encode_ms_per_ksample",
        "ms",
        "lower",
        "kernel.samples",
    ),
    r(
        "kernel.crossbar_ms_per_ksample",
        "ms",
        "lower",
        "kernel.samples",
    ),
    r(
        "kernel.s2_decode_ms_per_ksample",
        "ms",
        "lower",
        "kernel.samples",
    ),
    r("kernel.mvms_per_sample", "count", "lower", "kernel.samples"),
    r("kernel.bytes_per_sample", "B", "lower", "kernel.samples"),
    m("kernel.wordline_encodes", "count", "higher"),
    r(
        "kernel.zero_skip_frac",
        "frac",
        "higher",
        "kernel.wordline_encodes",
    ),
    m("kernel.blocks", "count", "lower"),
    r("kernel.mean_block", "samples", "higher", "kernel.blocks"),
    r("conv.other_ms_per_ksample", "ms", "lower", "kernel.samples"),
    r("digital.ms_per_ksample", "ms", "lower", "kernel.samples"),
    m("serve.replies", "count", "higher"),
    r("serve.encode_us", "us", "lower", "serve.replies"),
    r("serve.decode_us", "us", "lower", "serve.replies"),
    m("serve.server_p50_ms", "ms", "lower"),
    m("serve.outside_server_ms", "ms", "lower"),
    m("serve.engine_block1_us", "us", "lower"),
    m("serve.batches", "count", "lower"),
    r("serve.mean_batch", "samples", "higher", "serve.batches"),
    m("serve.rejected_busy", "count", "lower"),
    m("serve.expired", "count", "lower"),
    m("serve.engine_errors", "count", "lower"),
    r("registry.replica_skew", "ratio", "lower", "serve.replies"),
    m("scrub.passes", "count", "lower"),
    m("scrub.tiles", "count", "lower"),
    m("scrub.repairs", "count", "lower"),
    m("epoch.plan_swaps", "count", "lower"),
    m("scrub.pass_ms", "ms", "lower"),
    m("aging.age_ms", "ms", "lower"),
    m("analog.mac.solves", "count", "lower"),
    m("analog.mac.dense_solves", "count", "lower"),
    m("analog.tile.symbolic_analyses", "count", "lower"),
    m("analog.tile.numeric_refactors", "count", "lower"),
    m("analog.tile.reused_factor_solves", "count", "higher"),
    m("analog.tile.nonzeros", "count", "lower"),
    m("host.busy_s", "s", "lower"),
    r("host.steal_frac", "frac", "lower", "host.busy_s"),
    m("host.cpu_s", "s", "lower"),
    r("host.wall_over_cpu", "ratio", "lower", "host.cpu_s"),
    m("serve.generator_late_ms_p99", "ms", "lower"),
    m("trace.baseline_us", "us", "lower"),
    r("trace.overhead_us", "us", "lower", "trace.baseline_us"),
];

/// Metric values gathered by a run, by name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name` (which must be in one of the tables).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Report lines for `specs`: each value with its unit and, for ratios,
/// its base. Unset metrics print as 0 (a layer this workload skips).
pub fn lines(specs: &[Spec], values: &Values) -> Vec<String> {
    specs
        .iter()
        .map(|s| {
            let v = values.get(s.name).unwrap_or(0.0);
            let mut line = format!(
                "metric {} = {v} {} ({} is better)",
                s.name, s.unit, s.better
            );
            if let Some(base) = s.base {
                let unit = PER_LAYER
                    .iter()
                    .find(|b| b.name == base)
                    .map_or("", |b| b.unit);
                let bv = values.get(base).unwrap_or(0.0);
                let _ = write!(line, " [base {base} = {bv} {unit}]");
            }
            line
        })
        .collect()
}

/// The final JSON line. End-to-end metrics must all be set, finite and
/// positive; per-layer metrics default to 0.
///
/// # Errors
///
/// Names the first end-to-end metric that is missing, zero or not finite.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &Values,
    require_positive: bool,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, s) in specs.iter().enumerate() {
        let v = match values.get(s.name) {
            Some(v) => v,
            None if !require_positive => 0.0,
            None => return Err(format!("metric {} was not measured", s.name)),
        };
        if !v.is_finite() || (require_positive && v <= 0.0) {
            return Err(format!("metric {} measured {v}", s.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            s.name, s.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_ratio(s: &Spec) -> bool {
        s.name.contains("_per_")
            || s.name.contains("frac")
            || s.name.contains("mean_")
            || s.name.contains("skew")
            || s.name.contains("_over_")
    }

    #[test]
    fn every_per_layer_ratio_is_emitted_with_its_base() {
        for s in PER_LAYER.iter().filter(|s| is_ratio(s)) {
            let base = s
                .base
                .unwrap_or_else(|| panic!("{} is a ratio without a base", s.name));
            assert!(
                PER_LAYER.iter().any(|b| b.name == base),
                "{}'s base {base} is not itself emitted",
                s.name
            );
        }
        let mut v = Values::default();
        v.set("kernel.wordline_encodes", 4000.0);
        v.set("kernel.zero_skip_frac", 0.75);
        let out = lines(PER_LAYER, &v);
        let skip = out
            .iter()
            .find(|l| l.starts_with("metric kernel.zero_skip_frac "))
            .unwrap();
        assert!(skip.contains("= 0.75 frac"), "{skip}");
        assert!(
            skip.contains("[base kernel.wordline_encodes = 4000 count]"),
            "{skip}"
        );
        for (line, s) in out.iter().zip(PER_LAYER) {
            assert_eq!(line.contains("[base "), s.base.is_some(), "{line}");
        }
        let json = json_line(true, 1, 0, PER_LAYER, &v, false).unwrap();
        for s in PER_LAYER {
            assert!(
                json.contains(&format!("\"{}\": {{\"value\"", s.name)),
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, s) in all.iter().enumerate() {
            assert!(s.name.len() <= 64 && s.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(s.unit.len() <= 16);
            assert!(s.better == "lower" || s.better == "higher");
            assert!(
                all[i + 1..].iter().all(|o| o.name != s.name),
                "{} twice",
                s.name
            );
        }
    }

    #[test]
    fn end_to_end_json_refuses_missing_or_zero_values() {
        let mut v = Values::default();
        for s in END_TO_END {
            v.set(s.name, 1.5);
        }
        let line = json_line(true, 10, 0, END_TO_END, &v, true).unwrap();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        v.set("setup_s", 0.0);
        assert!(json_line(true, 10, 0, END_TO_END, &v, true).is_err());
        assert!(json_line(true, 10, 0, END_TO_END, &Values::default(), true).is_err());
    }

    #[test]
    fn benchmark_manifest_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(manifest) = std::fs::read_to_string(path) else {
            return; // checked where the manifest is present
        };
        let listed = manifest.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for s in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                s.name, s.unit, s.better
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
