//! A whole fig4a run pointed (`--results DIR`) at a tampered copy of the
//! committed goldens must fail: exit 1, and a result line that reports
//! the failed operation.

use eco_core::events::Json;
use std::path::Path;
use std::process::Command;

#[test]
fn fig4a_run_fails_against_tampered_goldens() {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = package.join("..");
    let dir = package
        .join(".work")
        .join(format!("tampered-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let csv = std::fs::read_to_string(root.join("results/fig4a.csv")).expect("golden CSV");
    let tampered = csv.replacen("24,69.0,", "24,69.1,", 1);
    assert_ne!(tampered, csv, "the tampered cell exists");
    std::fs::write(dir.join("fig4a.csv"), tampered).expect("write CSV");
    std::fs::copy(
        root.join("results/fig4a.manifest.json"),
        dir.join("fig4a.manifest.json"),
    )
    .expect("copy manifest");

    let output = Command::new(env!("CARGO_BIN_EXE_eco-benchmark"))
        .current_dir(&root)
        .args([
            "--workload",
            "fig4a",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .arg("--results")
        .arg(&dir)
        .output()
        .expect("run the benchmark");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");

    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(result.get("attempted").and_then(Json::as_u64), Some(1));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(1));
    assert!(
        stderr.contains("fig4a: CSV differs from the golden"),
        "stderr: {stderr}"
    );
    assert!(
        !stderr.contains("manifest differs"),
        "only the CSV was tampered: {stderr}"
    );
}
