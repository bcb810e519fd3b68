//! Deterministic run manifests.
//!
//! A manifest is the reproducibility contract of one optimization run:
//! everything that identifies the run (kernel, machine model, search
//! options, engine configuration) plus everything it decided (per-stage
//! point counts, the selected point and its lineage), rendered through
//! the order-preserving [`Json`] builder so that **two runs with the
//! same inputs produce byte-identical manifests** — at any thread
//! count, because nothing latency-dependent (timestamps, thread counts,
//! wall times) is recorded. `repro check` and CI diff these bytes
//! against the committed golden manifests.

use crate::api::TuneResponse;
use crate::search::SearchOptions;
use eco_exec::events::{Fnv64, Json};
use eco_exec::{program_fingerprint, EngineConfig};
use eco_machine::MachineDesc;
use std::hash::{Hash, Hasher as _};

/// Format version stamped into every manifest; bump on any field or
/// rendering change so drift is self-describing.
///
/// Version 2 added the `options.certify` flag and the
/// `search.points_certified` / `search.points_rejected` counters of the
/// static certification pass.
pub const MANIFEST_VERSION: u64 = 2;

/// The stable content fingerprint of a machine description — the same
/// value the engine folds into every memo key.
pub fn machine_fingerprint(machine: &MachineDesc) -> u64 {
    let mut h = Fnv64::new();
    machine.hash(&mut h);
    h.finish()
}

/// Builds the run manifest for one optimization run.
///
/// `kernel` is the kernel name as the caller knows it (e.g. `"mm"`);
/// `engine` is the configuration the run's [`Engine`](crate::Engine)
/// was built from — only its deterministic field (memoize) is
/// recorded, never the thread count. The engine block also names the
/// executor, which is always the compiled plan. The `options` object is
/// [`SearchOptions::to_json`] verbatim, so the serialized options in a
/// manifest and in a [`TuneRequest`](crate::TuneRequest) are the same
/// bytes.
pub fn run_manifest(
    kernel: &str,
    machine: &MachineDesc,
    opts: &SearchOptions,
    engine: &EngineConfig,
    report: &TuneResponse,
) -> Json {
    let tuned = &report.tuned;
    let options = opts.to_json();
    // ParamValues is a BTreeMap, so parameter order is deterministic.
    let mut params = Json::obj();
    for (name, value) in &tuned.params {
        params = params.field(name, Json::UInt(*value));
    }
    let prefetches = Json::Arr(
        tuned
            .prefetches
            .iter()
            .map(|(array, d)| {
                Json::obj()
                    .field("array", Json::str(array))
                    .field("distance", Json::Int(*d))
            })
            .collect(),
    );
    let mut per_stage = Json::obj();
    for (stage, points) in &tuned.stats.per_stage {
        per_stage = per_stage.field(stage, Json::UInt(*points as u64));
    }
    let lineage = Json::Arr(
        tuned
            .stats
            .lineage
            .iter()
            .map(|step| {
                Json::obj()
                    .field("stage", Json::str(&step.stage))
                    .field("cycles", Json::UInt(step.cycles))
            })
            .collect(),
    );
    Json::obj()
        .field("manifest_version", Json::UInt(MANIFEST_VERSION))
        .field("kernel", Json::str(kernel))
        .field(
            "machine",
            Json::obj().field("name", Json::str(&machine.name)).field(
                "fingerprint",
                Json::fingerprint(machine_fingerprint(machine)),
            ),
        )
        .field("options", options)
        .field(
            "engine",
            Json::obj()
                .field("backend", Json::str("compiled"))
                .field("memoize", Json::Bool(engine.memoize)),
        )
        .field(
            "search",
            Json::obj()
                .field("points", Json::UInt(tuned.stats.points as u64))
                .field(
                    "variants_derived",
                    Json::UInt(tuned.stats.variants_derived as u64),
                )
                .field(
                    "variants_searched",
                    Json::UInt(tuned.stats.variants_searched as u64),
                )
                .field(
                    "points_certified",
                    Json::UInt(tuned.stats.points_certified as u64),
                )
                .field(
                    "points_rejected",
                    Json::UInt(tuned.stats.points_rejected as u64),
                )
                .field("per_stage", per_stage),
        )
        .field(
            "engine_stats",
            Json::obj()
                .field("requested", Json::UInt(report.engine.requested))
                .field("evaluated", Json::UInt(report.engine.evaluated))
                .field("cache_hits", Json::UInt(report.engine.cache_hits))
                .field("errors", Json::UInt(report.engine.errors)),
        )
        .field(
            "selected",
            Json::obj()
                .field("variant", Json::str(&tuned.variant.name))
                .field("params", params)
                .field("prefetches", prefetches)
                .field(
                    "program_fingerprint",
                    Json::fingerprint(program_fingerprint(&tuned.program)),
                )
                .field("cycles", Json::UInt(tuned.counters.cycles()))
                .field("lineage", lineage),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TuneRequest;
    use eco_kernels::Kernel;

    fn tiny_run(threads: usize) -> (TuneResponse, MachineDesc, SearchOptions, EngineConfig) {
        let machine = MachineDesc::sgi_r10000().scaled(32);
        let opts = SearchOptions::builder()
            .search_n(16)
            .max_variants(1)
            .build()
            .expect("options");
        let config = EngineConfig::new().threads(threads);
        let report = TuneRequest::new(Kernel::matmul(), machine.clone())
            .options(opts.clone())
            .engine(config.clone())
            .run()
            .expect("tuned");
        (report, machine, opts, config)
    }

    #[test]
    fn manifest_is_byte_identical_across_runs_and_thread_counts() {
        let (r1, machine, opts, config1) = tiny_run(1);
        let (r2, _, _, _) = tiny_run(1);
        let (r3, _, _, config3) = tiny_run(3);
        let m1 = run_manifest("mm", &machine, &opts, &config1, &r1).render();
        let m2 = run_manifest("mm", &machine, &opts, &config1, &r2).render();
        let m3 = run_manifest("mm", &machine, &opts, &config3, &r3).render();
        assert_eq!(m1, m2, "same inputs must render identical bytes");
        assert_eq!(m1, m3, "thread count must not leak into the manifest");
        assert!(!m1.contains("threads"), "{m1}");
    }

    #[test]
    fn manifest_records_run_identity_and_outcome() {
        let (report, machine, opts, config) = tiny_run(1);
        let text = run_manifest("mm", &machine, &opts, &config, &report).render();
        for needle in [
            "\"manifest_version\": 2",
            "\"certify\"",
            "\"points_certified\"",
            "\"kernel\": \"mm\"",
            "\"fingerprint\": \"0x",
            "\"backend\": \"compiled\"",
            "\"strategy\": {\n      \"name\": \"guided\"\n    }",
            "\"per_stage\"",
            "\"program_fingerprint\"",
            "\"lineage\"",
            "\"stage\": \"screen\"",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(
            text.matches("\"cycles\"").count() >= 2,
            "selected cycles + lineage cycles:\n{text}"
        );
        assert!(
            text.contains(&format!("\"points\": {}", report.tuned.stats.points)),
            "{text}"
        );
    }
}
