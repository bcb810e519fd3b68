//! Deterministic ASCII and CSV renderings of the report views.
//!
//! Everything here is pure formatting over already-computed structures:
//! the same [`RunReport`] always renders the same
//! bytes, which the determinism tests and the golden fixture assert.

use crate::attribution::VariantAttribution;
use crate::profile::SearchProfile;
use crate::RunReport;
use std::fmt::Write as _;

fn ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1000.0)
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// The `cert` cell: `certified/rejected` counts of the static
/// certifier, or `-` when the run did not certify.
fn cert_cell(certified: u64, rejected: u64) -> String {
    if certified + rejected == 0 {
        "-".to_string()
    } else {
        format!("{certified}/{rejected}")
    }
}

/// Renders one column-aligned table: `widths` are computed from the
/// rows, every cell is left-padded to its column.
fn table(out: &mut String, indent: &str, rows: &[Vec<String>]) {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let _ = write!(line, "{cell:<width$}", width = widths[i]);
        }
        let _ = writeln!(out, "{indent}{}", line.trim_end());
    }
}

/// The search profile as human-readable ASCII (header, stage table,
/// variant table, lineage tree).
pub fn render_profile_ascii(report: &RunReport) -> String {
    let p = &report.profile;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ECO search report — kernel {}, strategy {}, N {}",
        p.kernel, p.strategy, p.search_n
    );
    let _ = writeln!(out, "source: {}", report.source);
    let _ = writeln!(
        out,
        "records {}, points {}, memo hits {} ({}), errors {}, wall {} ms",
        report.records,
        p.points,
        p.memo_hits,
        pct(p.hit_rate()),
        p.errors,
        ms(p.wall_us)
    );
    if p.certified + p.rejected > 0 {
        let _ = writeln!(
            out,
            "certified: {} candidates statically proven, {} rejected before measurement",
            p.certified, p.rejected
        );
    }
    match (&p.selected, p.selected_cycles) {
        (Some(v), Some(c)) => {
            let _ = writeln!(out, "selected: {v} at {c} cycles");
        }
        _ => {
            let _ = writeln!(out, "selected: (none)");
        }
    }

    let _ = writeln!(out, "\nStage profile:");
    let mut rows = vec![vec![
        "stage".to_string(),
        "spans".to_string(),
        "points".to_string(),
        "memo".to_string(),
        "wall_ms".to_string(),
    ]];
    for s in &p.stages {
        rows.push(vec![
            s.stage.clone(),
            s.spans.to_string(),
            s.points.to_string(),
            s.memo_hits.to_string(),
            ms(s.wall_us),
        ]);
    }
    table(&mut out, "  ", &rows);

    let _ = writeln!(out, "\nVariant profile:");
    let mut rows = vec![vec![
        "variant".to_string(),
        "points".to_string(),
        "memo".to_string(),
        "cert".to_string(),
        "cycles".to_string(),
        "outcome".to_string(),
        "wall_ms".to_string(),
    ]];
    for v in &p.variants {
        rows.push(vec![
            v.name.clone(),
            v.points.to_string(),
            v.memo_hits.to_string(),
            cert_cell(v.certified, v.rejected),
            v.cycles.map_or_else(|| "-".to_string(), |c| c.to_string()),
            v.outcome.clone(),
            ms(v.wall_us),
        ]);
    }
    table(&mut out, "  ", &rows);

    if !p.shards.is_empty() {
        let _ = writeln!(out, "\nShard timeline:");
        // The error column appears only when some shard failed with a
        // recorded error, so all-ok timelines keep their exact shape.
        let with_error = p.shards.iter().any(|s| !s.error.is_empty());
        let mut header = vec![
            "shard".to_string(),
            "figure".to_string(),
            "family".to_string(),
            "kind".to_string(),
            "status".to_string(),
            "wall_ms".to_string(),
        ];
        if with_error {
            header.push("error".to_string());
        }
        let mut rows = vec![header];
        for s in &p.shards {
            let mut row = vec![
                s.fingerprint.clone(),
                s.figure.clone(),
                s.family.clone(),
                s.kind.clone(),
                s.status.clone(),
                s.wall_ms.to_string(),
            ];
            if with_error {
                row.push(s.error.clone());
            }
            rows.push(row);
        }
        table(&mut out, "  ", &rows);
    }

    if !p.lineage.is_empty() {
        let _ = writeln!(out, "\nBest-point lineage:");
        for (i, node) in p.lineage.iter().enumerate() {
            let branch = if i + 1 == p.lineage.len() {
                "└─"
            } else {
                "├─"
            };
            let pad = "│  ".repeat(node.depth);
            let cycles = node
                .cycles
                .map_or_else(String::new, |c| format!("  {c} cycles"));
            let _ = writeln!(out, "  {pad}{branch} {}{cycles}", node.label);
        }
    }
    out
}

/// The profile as CSV: one `section` column discriminates stage rows,
/// variant rows and lineage milestones.
pub fn render_profile_csv(profile: &SearchProfile) -> String {
    let mut out = String::from(
        "section,name,spans,points,memo_hits,wall_us,cycles,outcome,certified,rejected\n",
    );
    for s in &profile.stages {
        let _ = writeln!(
            out,
            "stage,{},{},{},{},{},,,,",
            csv_escape(&s.stage),
            s.spans,
            s.points,
            s.memo_hits,
            s.wall_us
        );
    }
    for v in &profile.variants {
        let _ = writeln!(
            out,
            "variant,{},1,{},{},{},{},{},{},{}",
            csv_escape(&v.name),
            v.points,
            v.memo_hits,
            v.wall_us,
            v.cycles.map_or_else(String::new, |c| c.to_string()),
            csv_escape(&v.outcome),
            v.certified,
            v.rejected
        );
    }
    for l in &profile.lineage {
        let _ = writeln!(
            out,
            "lineage,{},,,,,{},,,",
            csv_escape(&l.label),
            l.cycles.map_or_else(String::new, |c| c.to_string())
        );
    }
    // Shard rows reuse the shared columns: `name` is the shard's
    // figure/family/kind path, `outcome` its status, `wall_us` the
    // orchestrator-observed wall time.
    for s in &profile.shards {
        let _ = writeln!(
            out,
            "shard,{},,,,{},,{},,",
            csv_escape(&format!("{}/{}/{}", s.figure, s.family, s.kind)),
            s.wall_ms * 1000,
            csv_escape(&s.status)
        );
    }
    out
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The attribution tables as ASCII: per variant, one row per array and
/// one model/sim column pair per level.
pub fn render_attribution_ascii(tables: &[VariantAttribution]) -> String {
    let mut out = String::new();
    for t in tables {
        let params: Vec<String> = t.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(
            out,
            "\nAttribution — {} ({}), N {}, {} cycles\n  params: {}",
            t.variant,
            t.point,
            t.n,
            t.cycles,
            params.join(" ")
        );
        let mut header = vec![
            "array".to_string(),
            "refs(mod)".to_string(),
            "refs(sim)".to_string(),
        ];
        if let Some(first) = t.rows.first() {
            for cell in &first.levels {
                header.push(format!("{}(mod)", cell.level));
                header.push(format!("{}(sim)", cell.level));
            }
        }
        header.push("flags".to_string());
        let mut rows = vec![header];
        for r in &t.rows {
            let mut row = vec![
                r.array.clone(),
                format!("{:.0}", r.refs_model),
                r.refs_sim.to_string(),
            ];
            for cell in &r.levels {
                row.push(format!("{:.0}", cell.model));
                row.push(cell.simulated.to_string());
            }
            row.push(r.flags.join("; "));
            rows.push(row);
        }
        table(&mut out, "  ", &rows);
    }
    out
}

/// The attribution tables as long-format CSV
/// (`variant,point,array,level,model,simulated,flags`).
pub fn render_attribution_csv(tables: &[VariantAttribution]) -> String {
    let mut out = String::from("variant,point,array,level,model,simulated,flags\n");
    for t in tables {
        for r in &t.rows {
            let flags = csv_escape(&r.flags.join("; "));
            let _ = writeln!(
                out,
                "{},{},{},refs,{:.0},{},{}",
                csv_escape(&t.variant),
                t.point,
                csv_escape(&r.array),
                r.refs_model,
                r.refs_sim,
                flags
            );
            for cell in &r.levels {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{:.0},{},{}",
                    csv_escape(&t.variant),
                    t.point,
                    csv_escape(&r.array),
                    cell.level,
                    cell.model,
                    cell.simulated,
                    flags
                );
            }
        }
    }
    out
}
