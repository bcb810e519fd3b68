//! Sweep-pipeline integration tests: the plan → execute → gather path
//! reproduces the serial figure runner byte-for-byte (CSV and run
//! manifest), a re-run against the same store skips every completed
//! shard and still gathers identical bytes, and the `repro plan` /
//! `repro shard` CLI round-trips a shard manifest through a worker
//! process.

use eco_bench::figures::{family_programs, figure_manifest, ProgramFor, RunOpts};
use eco_bench::sweep::{execute_shard, gather, run_sweep, SweepConfig};
use eco_bench::{mflops_sweep, Sweep};
use eco_core::events::Json;
use eco_core::sweep::{FamilySpec, SweepPlan, SweepSpec};
use eco_core::{Engine, EngineConfig};
use eco_ir::Program;
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use eco_store::ResultStore;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eco-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A figure-shaped spec small enough for debug-build workers: one
/// tuned family and one measure-only family over two sizes.
fn tiny_spec() -> SweepSpec {
    SweepSpec {
        figure: "figtest".to_string(),
        kernel: Kernel::matmul(),
        machine: MachineDesc::sgi_r10000().scaled(32),
        search_n: 8,
        families: vec![
            FamilySpec::new("ECO", true),
            FamilySpec::new("Native", false),
        ],
        sizes: vec![8, 16],
    }
}

/// The serial reference for [`tiny_spec`]: every family's search and
/// the whole measurement batch on one engine, exactly like
/// `figures::run` but silent. Returns `(csv, manifest)`.
fn serial_reference(spec: &SweepSpec) -> (String, String) {
    let engine = Engine::with_config(spec.machine.clone(), EngineConfig::new()).expect("engine");
    let mut manifest = String::new();
    let mut families: Vec<(String, ProgramFor)> = Vec::new();
    for family in &spec.families {
        let (programs, tuned) =
            family_programs(&family.name, &spec.kernel, &engine, spec.search_n, false)
                .expect("family programs");
        if let Some(tuned) = tuned {
            manifest = figure_manifest(
                &spec.kernel,
                &engine,
                &EngineConfig::new(),
                spec.search_n,
                &tuned,
            );
        }
        families.push((family.name.clone(), programs));
    }
    let series: Vec<(&str, &dyn Fn(i64) -> Program)> = families
        .iter()
        .map(|(name, f)| (name.as_str(), f.as_ref() as &dyn Fn(i64) -> Program))
        .collect();
    let sweep = mflops_sweep(&engine, &spec.kernel, &spec.sizes, &series);
    (sweep.to_csv(), manifest)
}

/// Executes every shard of `plan` in-process against a shared store
/// (tune stage first, like the orchestrator) and returns the results
/// keyed by shard fingerprint.
fn execute_plan(plan: &SweepPlan, store: &Path) -> BTreeMap<u64, Json> {
    let mut results = BTreeMap::new();
    for shard in plan.tune_shards().chain(plan.measure_shards()) {
        let config = EngineConfig::new().store(store.display().to_string());
        let result = execute_shard(shard, config).expect("shard executes");
        results.insert(shard.fingerprint(), result);
    }
    results
}

#[test]
fn sharded_execution_reproduces_the_serial_bytes() {
    let spec = tiny_spec();
    let (serial_csv, serial_manifest) = serial_reference(&spec);
    assert!(!serial_manifest.is_empty());

    let dir = scratch("bytes");
    let plan = SweepPlan::plan(&spec, 1).expect("plan");
    // One tune shard (ECO) plus one measure shard per (family, size).
    assert_eq!(plan.shards.len(), 1 + 2 * spec.sizes.len());
    let results = execute_plan(&plan, &dir.join("store"));
    let (sweep, manifest) = gather(&spec, &plan, &results).expect("gather");

    assert_eq!(sweep.to_csv(), serial_csv, "sharded CSV must match serial");
    assert_eq!(
        manifest, serial_manifest,
        "sharded manifest must match serial"
    );
}

#[test]
fn gather_refuses_incomplete_results() {
    let spec = tiny_spec();
    let dir = scratch("partial");
    let plan = SweepPlan::plan(&spec, 1).expect("plan");
    let mut results = execute_plan(&plan, &dir.join("store"));
    let dropped = *results.keys().next().expect("nonempty");
    results.remove(&dropped);
    let err = match gather(&spec, &plan, &results) {
        Ok(_) => panic!("gather accepted a missing shard"),
        Err(e) => e,
    };
    assert!(err.contains("0x"), "error names the missing shard: {err}");
}

fn sweep_config(store: &Path, sweep_dir: &Path) -> SweepConfig {
    SweepConfig {
        opts: RunOpts::default(),
        workers: 2,
        sizes_per_shard: 1,
        store: store.to_path_buf(),
        sweep_dir: sweep_dir.to_path_buf(),
        worker_exe: PathBuf::from(env!("CARGO_BIN_EXE_repro")),
        remote: None,
        verbose: false,
    }
}

#[test]
fn resumed_sweep_skips_completed_shards_and_matches() {
    let spec = tiny_spec();
    let dir = scratch("resume");
    let store = dir.join("store");

    let first = run_sweep(&spec, &sweep_config(&store, &dir.join("run1"))).expect("first sweep");
    assert_eq!(first.skipped, 0);
    assert_eq!(first.executed, first.planned);

    // Same store, fresh sweep dir: every shard's completion record is
    // already present, so nothing re-runs and the bytes are identical.
    let second = run_sweep(&spec, &sweep_config(&store, &dir.join("run2"))).expect("second sweep");
    assert_eq!(second.executed, 0);
    assert_eq!(second.skipped, second.planned);
    assert_eq!(second.sweep.to_csv(), first.sweep.to_csv());
    assert_eq!(second.manifest, first.manifest);

    // The orchestrator left its artifacts behind for `eco report`.
    assert!(dir.join("run1/plan.json").is_file());
    assert!(dir.join("run1/sweep.events.jsonl").is_file());
}

#[test]
fn plan_and_shard_cli_round_trip() {
    let dir = scratch("cli");
    let repro = env!("CARGO_BIN_EXE_repro");

    // `repro plan` writes a parseable plan artifact for a real figure.
    let plan_path = dir.join("plan.json");
    let out = Command::new(repro)
        .args(["plan", "fig5a", "--plan-out"])
        .arg(&plan_path)
        .output()
        .expect("repro plan runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&plan_path).expect("plan file");
    let doc = Json::parse(&text).expect("plan parses");
    let shards = match doc.get("shards") {
        Some(Json::Arr(items)) => items,
        other => panic!("plan has no shard list: {other:?}"),
    };
    assert!(!shards.is_empty());

    // `repro shard` executes one shard manifest and records completion
    // in the shared store, which a resumed orchestrator keys on.
    let spec = tiny_spec();
    let plan = SweepPlan::plan(&spec, 1).expect("plan");
    let shard = plan.measure_shards().next().expect("measure shard");
    let shard_path = dir.join("shard.json");
    std::fs::write(&shard_path, shard.to_json().render()).expect("shard file");
    let store = dir.join("store");
    let out = Command::new(repro)
        .arg("shard")
        .arg("--shard")
        .arg(&shard_path)
        .arg("--store")
        .arg(&store)
        .output()
        .expect("repro shard runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let store = ResultStore::open(&store).expect("store opens");
    let record = store
        .shard_complete(shard.fingerprint())
        .expect("completion record");
    assert_eq!(
        record.get("figure").and_then(Json::as_str),
        Some(spec.figure.as_str())
    );
}

#[test]
fn sweep_csv_shape_is_stable() {
    // Guard the gather-side CSV contract the goldens rely on: header
    // `N,<series...>`, one row per size, `{:.1}` formatting.
    let sweep = Sweep {
        sizes: vec![8, 16],
        series: vec![
            ("ECO".to_string(), vec![1.25, 2.0]),
            ("Native".to_string(), vec![0.5, 0.75]),
        ],
    };
    assert_eq!(sweep.to_csv(), "N,ECO,Native\n8,1.2,0.5\n16,2.0,0.8\n");
}
