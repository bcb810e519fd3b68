//! Integration tests for the observability layer: the structured event
//! stream a full optimization run emits, its agreement with the
//! engine's own statistics, and the CLI-level fail-fast and
//! manifest-determinism contracts that `repro check` and CI rely on.

use eco_core::events::{check_stream, field};
use eco_core::{EngineConfig, SearchOptions, TuneRequest, TuneResponse};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eco-observability-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One real (small) tune of MM with the event stream captured to a
/// file; returns the report and the raw stream text.
fn tuned_with_events(tag: &str, threads: usize) -> (TuneResponse, String) {
    let dir = scratch(tag);
    let path = dir.join("events.jsonl");
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let opts = SearchOptions::builder()
        .search_n(16)
        .max_variants(2)
        .build()
        .expect("options");
    let config = EngineConfig::new().threads(threads).events(&path);
    let report = TuneRequest::new(Kernel::matmul(), machine)
        .options(opts)
        .engine(config)
        .run()
        .expect("tuned");
    let text = fs::read_to_string(&path).expect("event stream");
    let _ = fs::remove_dir_all(&dir);
    (report, text)
}

#[test]
fn tune_event_stream_is_balanced_and_covers_search_stages() {
    let (report, text) = tuned_with_events("stages", 1);
    let summary = check_stream(&text).expect("well-formed stream");
    // Exactly one root span per run, closed like every other span
    // (check_stream already rejects unbalanced or non-LIFO nesting).
    assert_eq!(summary.spans_named("optimize"), 1, "{text}");
    assert_eq!(summary.spans_named("screen"), 1);
    // Every §3.2 stage of the guided search shows up as a span.
    for stage in [
        "variant", "stage", "shape", "halve", "refine", "prefetch", "adjust",
    ] {
        assert!(
            summary.spans_named(stage) >= 1,
            "missing {stage} span; spans: {:?}",
            summary.span_names
        );
    }
    // And the engine-side events ride along in the same stream.
    for ev in [
        "point",
        "batch",
        "engine_stats",
        "plan_compile",
        "variant_kept",
    ] {
        assert!(
            summary.events_named(ev) >= 1,
            "missing {ev} event; events: {:?}",
            summary.event_names
        );
    }
    // The per-stage counters the manifest records agree with the
    // stream: every searched point produced a `point` event.
    let per_stage_total: usize = report.tuned.stats.per_stage.iter().map(|(_, n)| n).sum();
    assert!(per_stage_total > 0);
    assert_eq!(
        summary.events_named("point") as u64,
        report.engine.requested
    );
}

#[test]
fn memo_hit_point_events_match_engine_cache_stats() {
    let (report, text) = tuned_with_events("memo", 2);
    let point_lines: Vec<&str> = text
        .lines()
        .filter(|l| field(l, "name") == Some("point"))
        .collect();
    assert_eq!(point_lines.len() as u64, report.engine.requested);
    let hits = point_lines
        .iter()
        .filter(|l| field(l, "cache_hit") == Some("true"))
        .count() as u64;
    assert_eq!(
        hits, report.engine.cache_hits,
        "memo-hit point events must match the engine's cache stats"
    );
    let misses = point_lines.len() as u64 - hits;
    assert_eq!(misses, report.engine.evaluated);
}

#[test]
fn eco_cli_writes_valid_events_and_deterministic_manifests() {
    let dir = scratch("cli");
    let eco = env!("CARGO_BIN_EXE_eco");
    let run = |threads: &str, tag: &str| -> (String, String) {
        let events = dir.join(format!("{tag}.events.jsonl"));
        let manifest = dir.join(format!("{tag}.manifest.json"));
        let out = Command::new(eco)
            .args([
                "tune",
                "mm",
                "--search-n",
                "16",
                "--threads",
                threads,
                "--events",
                events.to_str().unwrap(),
                "--manifest",
                manifest.to_str().unwrap(),
            ])
            .output()
            .expect("run eco");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            fs::read_to_string(&events).expect("events"),
            fs::read_to_string(&manifest).expect("manifest"),
        )
    };
    let (events1, manifest1) = run("1", "a");
    let (_, manifest2) = run("1", "b");
    let (_, manifest3) = run("3", "c");
    let summary = check_stream(&events1).expect("well-formed CLI stream");
    assert_eq!(summary.spans_named("optimize"), 1);
    assert!(summary.events_named("point") > 0);
    assert_eq!(manifest1, manifest2, "same run must render identical bytes");
    assert_eq!(
        manifest1, manifest3,
        "thread count must not leak into the manifest"
    );
    assert!(manifest1.contains("\"kernel\": \"mm\""));
    let _ = fs::remove_dir_all(&dir);
}

/// Command lines that must fail with exit 2 before doing any work,
/// with a fragment of the expected error.
#[rustfmt::skip]
const BAD_COMMAND_LINES: &[(&str, &str)] = &[
    // Unwritable telemetry paths fail before the search starts.
    ("eco tune mm --search-n 16 --events /nonexistent-dir/t.jsonl", "cannot create events file"),
    ("eco tune mm --search-n 16 --manifest /nonexistent-dir/t.json", "cannot create manifest file"),
    // A command rejects every flag it does not read.
    ("eco variants mm --threads 4 --code --events /nonexistent/x", "unknown option --threads"),
    ("eco lint mm --store /nonexistent --events /nonexistent/x", "unknown option --store"),
    ("repro table1 --figure-scale 1 --workers 4 --plan-out /x", "unknown option --figure-scale"),
    ("repro table2 --json /nonexistent/x", "unknown option --json"),
    ("eco show mm --bogus", "unknown option --bogus"),
    ("eco client ping --sockt x", "unknown option --sockt"),
    ("eco tune mm --n 64", "unknown option --n"),
    ("eco lint --seed 3", "unknown option --seed"),
    ("eco report --events e.jsonl --buf-size 1", "unknown option --buf-size"),
    ("eco report --compare a b", "unknown option --compare"),
    ("repro --smoke", "unknown command --smoke"),
    ("repro smoke", "unknown command smoke"),
    ("repro bench", "unknown command bench"),
    ("eco trace a b", "unexpected argument b"),
    // Values that would panic later or be ignored.
    ("eco top --interval inf", "bad --interval"),
    ("eco report --scale 4", "--scale needs --machine"),
];

#[test]
fn cli_fails_fast_on_bad_command_lines() {
    for (line, expected) in BAD_COMMAND_LINES {
        let mut argv = line.split_whitespace();
        let bin = match argv.next() {
            Some("eco") => env!("CARGO_BIN_EXE_eco"),
            _ => env!("CARGO_BIN_EXE_repro"),
        };
        let out = Command::new(bin).args(argv).output().expect("run the CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(
            stderr.contains(expected),
            "{line}: unexpected stderr: {stderr}"
        );
        // Fail-fast: no work ran, so nothing was printed.
        assert!(out.stdout.is_empty(), "{line}: work ran before the error");
    }
}
