//! What the benchmark measures: its workloads and the name, unit,
//! direction and regression bound of every metric. `BENCHMARK.json` at
//! the repository root mirrors these tables; a unit test keeps the two
//! in step.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The workloads, with the reason each was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "tune-cold",
        "7 certified tunes, each on a fresh engine: mostly simulation, so the simulator and plan lowering dominate",
    ),
    (
        "tune-warm",
        "the same 7 tunes over a store filled in setup: every point is a store hit, so search and store reads dominate",
    ),
    (
        "serve-mix",
        "2 closed-loop clients send a seeded tune/metrics/stats/ping mix to the daemon: framing, request dedupe, shared memo",
    ),
    (
        "fig4a",
        "the paper's Figure 4(a) at 2 threads, checked byte-for-byte against the committed CSV and manifest",
    ),
];

/// Metrics printed by an untraced run (`--trace 0`), for every
/// workload. What a round and an op are differs per workload (see
/// README.md); each is fixed work, so medians compare across runs. The
/// time bounds are as wide as the run-to-run spread of a shared 2-core
/// host demands (README.md, "Noise").
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("points_per_s", "1/s", Higher, 0.25),
    e2e("op_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Metrics printed by a traced run (`--trace 1`), for every workload.
/// Values are per traced round; a layer a workload does not exercise
/// reads 0.
pub const PER_LAYER: &[Metric] = &[
    layer("search.self_ms", "ms", Lower),
    layer("search.derive_ms", "ms", Lower),
    layer("search.points", "count", Lower),
    layer("search.variants_derived", "count", Lower),
    layer("search.certified", "count", Lower),
    layer("search.rejected", "count", Lower),
    layer("search.batches", "count", Lower),
    layer("engine.open_ms", "ms", Lower),
    layer("engine.eval_ms", "ms", Lower),
    layer("engine.requested", "count", Lower),
    layer("engine.evaluated", "count", Lower),
    layer("engine.memo_hits", "count", Higher),
    layer("engine.memo_hit_ratio", "ratio", Higher),
    layer("engine.store_hits", "count", Higher),
    layer("engine.dedup_waits", "count", Higher),
    layer("engine.parallel_eff", "ratio", Higher),
    layer("plan.compiles", "count", Lower),
    layer("plan.compile_ms", "ms", Lower),
    layer("plan.insts", "count", Lower),
    layer("sim.ms", "ms", Lower),
    layer("sim.accesses", "count", Lower),
    layer("sim.ns_per_access", "ns", Lower),
    layer("sim.ff_windows", "count", Higher),
    layer("sim.ff_accesses", "count", Higher),
    layer("sim.ff_share", "ratio", Higher),
    layer("store.puts", "count", Lower),
    layer("store.put_us_p50", "us", Lower),
    layer("store.gets", "count", Lower),
    layer("store.get_us_p50", "us", Lower),
    layer("store.bytes_written", "bytes", Lower),
    layer("serve.req_p90_ms", "ms", Lower),
    layer("serve.tune_p90_ms", "ms", Lower),
    layer("serve.ping_p50_ms", "ms", Lower),
    layer("serve.stats_p50_ms", "ms", Lower),
    layer("serve.metrics_p50_ms", "ms", Lower),
    layer("serve.server_tune_p50_ms", "ms", Lower),
    layer("serve.deduped", "count", Higher),
    layer("serve.dedupe_ratio", "ratio", Higher),
    layer("serve.connections", "count", Lower),
    layer("baselines.native_ms", "ms", Lower),
    layer("baselines.atlas_ms", "ms", Lower),
    layer("baselines.vendor_ms", "ms", Lower),
    layer("figure.eco_tune_ms", "ms", Lower),
    layer("figure.measure_ms", "ms", Lower),
    layer("figure.measure_points", "count", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead", "ratio", Lower),
];

/// Looks a metric up in either table.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The values one run measured, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`, which must be a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name (a bug in this benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(metric(name).is_some(), "undeclared metric {name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_core::events::Json;

    /// `BENCHMARK.json` must declare exactly these workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|i| {
                        i.get("name")
                            .and_then(Json::as_str)
                            .expect("name")
                            .to_string()
                    })
                    .collect(),
                _ => panic!("{key} must be an array"),
            }
        };
        let want: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names("workloads"), want);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(names(key), want, "{key} names");
            let Some(Json::Arr(items)) = doc.get(key) else {
                unreachable!()
            };
            for (item, m) in items.iter().zip(table) {
                assert_eq!(
                    item.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    item.get("better").and_then(Json::as_str),
                    Some(m.better.name()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    item.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn values_reject_undeclared_names() {
        let mut v = Values::default();
        v.set("sim.ms", 1.5);
        assert_eq!(v.get("sim.ms"), 1.5);
        assert_eq!(v.get("sim.accesses"), 0.0, "unset reads 0");
        let caught = std::panic::catch_unwind(move || v.set("nope", 1.0));
        assert!(caught.is_err());
    }
}
