//! The metric catalogue — every name a later issue may cite, with its unit,
//! direction and (for end-to-end metrics) regression bound — and the report a
//! run fills in. `BENCHMARK.json` at the repo root lists the same metrics; a
//! unit test keeps the two in step.

use crate::json::Json;
use std::collections::BTreeMap;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "wire_point",
        "2 TCP clients send unique-key probes: almost no evaluation, so server framing, admission and the per-request index build are all there is; cache, VM and WAL idle",
    ),
    (
        "embedded_analytic",
        "1 in-process caller, cache off, eight query shapes: plan executor, bytecode VM, optimizer and big-step fallback do all the work; no wire, no cache, no WAL",
    ),
    (
        "session_hot",
        "2 in-process sessions draw Zipf from 32 cached read-only texts: evaluation is bypassed, leaving front end, snapshot clone, cache mutex and value clone under contention",
    ),
    (
        "wire_mixed_durable",
        "2 TCP clients, 1 write in 8, fsync per commit, periodic checkpoints, then recovery: the write side of cache, scheduler, store and WAL that a read-path gain could be paid from",
    ),
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before it
    /// counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const END_TO_END: [MetricDef; 5] = [
    e2e("throughput_rps", "req/s", "higher", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_p95_ms", "ms", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

pub const PER_LAYER: [MetricDef; 44] = [
    layer("syntax.parse_us", "us", "lower"),
    layer("schema.resolve_us", "us", "lower"),
    layer("types.check_us", "us", "lower"),
    layer("effects.infer_us", "us", "lower"),
    layer("frontend.share_of_request", "ratio", "lower"),
    layer("opt.optimize_us", "us", "lower"),
    layer("opt.rewrites_per_query", "count", "higher"),
    layer("plan.lower_us", "us", "lower"),
    layer("plan.lowered_share", "ratio", "higher"),
    layer("plan.vm_share", "ratio", "higher"),
    layer("plan.exec_us", "us", "lower"),
    layer("plan.rows_per_result", "ratio", "lower"),
    layer("eval.bigstep_us", "us", "lower"),
    layer("shape.scan_project.p50_ms", "ms", "lower"),
    layer("shape.filter_scan.p50_ms", "ms", "lower"),
    layer("shape.agg_sum.p50_ms", "ms", "lower"),
    layer("shape.point_probe.p50_ms", "ms", "lower"),
    layer("shape.join_late_filter.p50_ms", "ms", "lower"),
    layer("shape.setop_union.p50_ms", "ms", "lower"),
    layer("shape.def_call.p50_ms", "ms", "lower"),
    layer("shape.method_call.p50_ms", "ms", "lower"),
    layer("store.snapshot_us", "us", "lower"),
    layer("store.chunks", "count", "lower"),
    layer("store.cow_copied_chunks_per_write", "count", "lower"),
    layer("store.wal_append_us", "us", "lower"),
    layer("store.wal_bytes_per_commit", "bytes", "lower"),
    layer("core.cache.hit_share", "ratio", "higher"),
    layer("core.cache.evictions", "count", "lower"),
    layer("core.sched.snapshot_share", "ratio", "higher"),
    layer("core.session.query_us", "us", "lower"),
    layer("core.kernel.self_us", "us", "lower"),
    layer("core.server.wire_us", "us", "lower"),
    layer("core.server.reply_bytes", "bytes", "lower"),
    layer("core.durable.checkpoint_ms", "ms", "lower"),
    layer("core.durable.recovery_ms", "ms", "lower"),
    layer("core.durable.replayed", "count", "lower"),
    layer("telemetry.on_cost_share", "ratio", "lower"),
    layer("harness.slice_spread", "ratio", "lower"),
    layer("harness.trace_overhead_share", "ratio", "lower"),
    // Wanted as end-to-end metrics by the issue; here because the driver's
    // contract wants every end-to-end metric on every workload and never 0.
    layer("write_p50_ms", "ms", "lower"),
    layer("failed_share", "ratio", "lower"),
    layer("harness.latency_samples", "count", "higher"),
    layer("harness.traced_requests", "count", "higher"),
    layer("harness.acked_writes", "count", "higher"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// Which metrics a result line carries (`--trace`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Emit {
    /// `--trace 0`: every end-to-end metric.
    EndToEnd,
    /// `--trace 1`: every per-layer metric; a layer that is not on the
    /// workload's path reads 0 (the driver wants every key on every run).
    PerLayer,
    /// `--trace 2` (the full report): end-to-end plus the per-layer metrics
    /// that apply to the workload — the rest are left out, not zeroed.
    Both,
}

/// The metrics one run measured. A metric that does not apply to the
/// workload is simply never set.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values.insert(def.name, value);
    }

    pub fn set_opt(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of a result line.
    pub fn metrics_json(&self, emit: Emit) -> Result<Json, String> {
        let mut out = Vec::new();
        let mut push = |def: &MetricDef, value: f64| {
            if !value.is_finite() {
                return Err(format!("metric {} is not a finite number", def.name));
            }
            out.push((
                def.name.to_string(),
                Json::Object(vec![
                    ("value".into(), Json::Number(value)),
                    ("unit".into(), Json::String(def.unit.into())),
                ]),
            ));
            Ok(())
        };
        if emit != Emit::PerLayer {
            for def in &END_TO_END {
                let v = self
                    .get(def.name)
                    .ok_or_else(|| format!("end-to-end metric {} was not measured", def.name))?;
                push(def, v)?;
            }
        }
        if emit != Emit::EndToEnd {
            for def in &PER_LAYER {
                match (self.get(def.name), emit) {
                    (Some(v), _) => push(def, v)?,
                    (None, Emit::PerLayer) => push(def, 0.0)?,
                    (None, _) => {}
                }
            }
        }
        Ok(Json::Object(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_report() -> Report {
        let mut r = Report::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            r.set(d.name, 1.5 + i as f64);
        }
        r.set("syntax.parse_us", 4.25);
        r.set("core.cache.hit_share", 0.0);
        r
    }

    #[test]
    fn result_lines_carry_every_metric_with_its_unit_and_omit_what_does_not_apply() {
        let r = full_report();
        let e2e = r.metrics_json(Emit::EndToEnd).unwrap();
        assert_eq!(e2e.members().len(), END_TO_END.len());
        let layers = r.metrics_json(Emit::PerLayer).unwrap();
        assert_eq!(layers.members().len(), PER_LAYER.len());
        for (json, defs) in [(&e2e, &END_TO_END[..]), (&layers, &PER_LAYER[..])] {
            for d in defs {
                let m = json
                    .get(d.name)
                    .unwrap_or_else(|| panic!("{} missing", d.name));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
                assert!(m.get("value").and_then(Json::as_f64).is_some());
            }
        }
        // The full report leaves out what was never measured, and keeps a
        // measured zero.
        let both = r.metrics_json(Emit::Both).unwrap();
        assert_eq!(both.members().len(), END_TO_END.len() + 2);
        assert!(both.get("core.server.wire_us").is_none());
        assert_eq!(
            both.get("core.cache.hit_share")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        // A missing end-to-end metric, or a NaN, is an error, not a 0.
        assert!(Report::default().metrics_json(Emit::EndToEnd).is_err());
        let mut bad = full_report();
        bad.set("latency_p50_ms", f64::NAN);
        assert!(bad.metrics_json(Emit::EndToEnd).is_err());
    }

    /// `BENCHMARK.json` names the same workloads and metrics, with the same
    /// units, directions and bounds, as this catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = crate::json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|(n, _)| n.to_string()));
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            assert_eq!(names(key), defs.iter().map(|d| d.name).collect::<Vec<_>>());
            for (m, d) in json.get(key).unwrap().items().iter().zip(defs) {
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(d.better),
                    "{}",
                    d.name
                );
                assert_eq!(m.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        for (m, (_, why)) in json.get("workloads").unwrap().items().iter().zip(WORKLOADS) {
            assert_eq!(m.get("why").and_then(Json::as_str), Some(why));
        }
    }
}
