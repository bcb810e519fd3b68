//! Report-subsystem integration tests: the fixture stream parses the
//! same at any read-chunk size, a committed golden fixture, and a live
//! tune → report round trip.

use eco_core::{EngineConfig, SearchOptions, TuneRequest};
use eco_events::read::read_records;
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use eco_report::{
    analyze_stream, render_attribution_ascii, render_html, render_profile_ascii,
    render_profile_csv, ReportOptions, RunReport,
};

fn fixture(name: &str) -> String {
    let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {path}: {e}"))
}

fn analyze_fixture() -> RunReport {
    let stream = fixture("mm_tune.events.jsonl");
    analyze_stream(&stream, "mm_tune.events.jsonl", &ReportOptions::default())
        .expect("fixture stream analyzes")
}

/// The exact composition `eco report --out` writes to `report.txt`.
fn compose_txt(report: &RunReport) -> String {
    let mut text = render_profile_ascii(report);
    text.push_str(&render_attribution_ascii(&report.attribution));
    text.push('\n');
    text
}

#[test]
fn fixture_records_are_identical_for_any_read_chunk() {
    let stream = fixture("mm_tune.events.jsonl");
    let baseline = read_records(stream.as_bytes(), 64 * 1024).expect("fixture reads");
    assert!(!baseline.is_empty());
    for chunk in [1usize, 3, 17, 4096, 1 << 20] {
        assert_eq!(
            read_records(stream.as_bytes(), chunk).expect("fixture reads"),
            baseline,
            "chunk {chunk}"
        );
    }
}

#[test]
fn golden_fixture_renders_byte_identically() {
    let report = analyze_fixture();
    assert_eq!(compose_txt(&report), fixture("mm_tune.report.txt"));
    assert_eq!(
        render_profile_csv(&report.profile),
        fixture("mm_tune.profile.csv")
    );
    assert_eq!(
        render_html(std::slice::from_ref(&report)),
        fixture("mm_tune.report.html")
    );
}

#[test]
fn fixture_profile_reconstructs_the_search() {
    let report = analyze_fixture();
    let p = &report.profile;
    assert_eq!(p.kernel, "mm");
    assert_eq!(p.search_n, 24);
    assert!(p.points > 0, "profile found no points");
    assert!(p.selected.is_some(), "no selected variant");
    assert!(
        p.stages.iter().any(|s| s.stage == "screen"),
        "no screen stage row"
    );
    assert!(!p.variants.is_empty(), "no variant rows");
    assert!(
        p.lineage
            .last()
            .is_some_and(|l| l.label.starts_with("selected")),
        "lineage does not end at the selected variant"
    );
    assert_eq!(report.records, report.summary.records);
}

#[test]
fn live_tune_stream_analyzes_end_to_end() {
    let events_path = std::env::temp_dir().join(format!(
        "eco-report-live-{}.events.jsonl",
        std::process::id()
    ));
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let opts = SearchOptions::builder()
        .search_n(24)
        .max_variants(1)
        .build()
        .expect("options");
    let config = EngineConfig::new().events(events_path.display().to_string());
    let report = TuneRequest::new(Kernel::matmul(), machine)
        .options(opts)
        .engine(config)
        .run()
        .expect("tune succeeds");
    let stream = std::fs::read_to_string(&events_path).expect("events written");
    let _ = std::fs::remove_file(&events_path);

    let analyzed =
        analyze_stream(&stream, "live", &ReportOptions::default()).expect("live stream analyzes");
    assert_eq!(
        analyzed.profile.selected.as_deref(),
        Some(report.tuned.variant.name.as_str()),
        "report's selected variant disagrees with the tuner"
    );
    assert_eq!(
        analyzed.profile.selected_cycles,
        Some(report.tuned.counters.cycles())
    );
    assert!(analyzed.profile.points as u64 >= report.tuned.stats.points as u64);
}
