//! Self-contained static HTML report with inline SVG.
//!
//! No external assets, scripts, or stylesheets are referenced: the
//! document embeds its own CSS and draws the stage timeline, the
//! search-landscape heatmap, and the best-so-far trajectory as inline
//! SVG, so the file can be archived next to the run's events and
//! opened years later. Rendering is deterministic for a given
//! [`RunReport`].

use crate::profile::SpanTree;
use crate::RunReport;
use eco_events::Json;
use std::fmt::Write as _;

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Green→red ramp over `t` in [0, 1].
fn heat_color(t: f64) -> String {
    let t = t.clamp(0.0, 1.0);
    let r = (40.0 + t * 200.0).round() as u32;
    let g = (200.0 - t * 150.0).round() as u32;
    format!("#{r:02x}{g:02x}3c")
}

/// Fixed palette for span depths in the timeline.
const DEPTH_COLORS: [&str; 5] = ["#4a6fa5", "#5d9b68", "#c7a53c", "#b06558", "#8a6fae"];

/// One heatmap row: variant name and its best cycles per stage column.
type HeatRow = (String, Vec<Option<u64>>);

/// `(best cycles per (variant, stage), stage order)` for the heatmap.
fn heatmap_cells(tree: &SpanTree) -> (Vec<HeatRow>, Vec<String>) {
    let stages = ["shape", "halve", "refine", "prefetch", "adjust"];
    let mut rows = Vec::new();
    for (i, node) in tree.nodes.iter().enumerate() {
        if node.name != "variant" {
            continue;
        }
        let name = node
            .open_attr("variant")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let mut cells: Vec<Option<u64>> = vec![None; stages.len()];
        // Best cycles per stage name anywhere under this variant.
        fn walk(tree: &SpanTree, idx: usize, stages: &[&str], cells: &mut Vec<Option<u64>>) {
            for &c in &tree.nodes[idx].children {
                let node = &tree.nodes[c];
                if let Some(si) = stages.iter().position(|s| *s == node.name) {
                    let (_, _, _, best) = tree.subtree_points(c);
                    let best = best.or_else(|| node.close_attr("cycles").and_then(Json::as_u64));
                    cells[si] = match (cells[si], best) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
                walk(tree, c, stages, cells);
            }
        }
        walk(tree, i, &stages, &mut cells);
        rows.push((name, cells));
    }
    (rows, stages.iter().map(|s| s.to_string()).collect())
}

fn svg_heatmap(tree: &SpanTree) -> String {
    let (rows, stages) = heatmap_cells(tree);
    if rows.is_empty() {
        return String::from("<p>(no variant spans in stream)</p>");
    }
    let all: Vec<u64> = rows
        .iter()
        .flat_map(|(_, cs)| cs.iter().flatten().copied())
        .collect();
    let (lo, hi) = (
        all.iter().copied().min().unwrap_or(0),
        all.iter().copied().max().unwrap_or(1),
    );
    let cell_w = 90;
    let cell_h = 26;
    let label_w = 280;
    let width = label_w + stages.len() * cell_w + 10;
    let height = (rows.len() + 1) * cell_h + 10;
    let mut s = format!(
        "<svg viewBox=\"0 0 {width} {height}\" width=\"{width}\" height=\"{height}\" \
         xmlns=\"http://www.w3.org/2000/svg\" font-family=\"monospace\" font-size=\"12\">\n"
    );
    for (si, stage) in stages.iter().enumerate() {
        let x = label_w + si * cell_w + cell_w / 2;
        let _ = writeln!(
            s,
            "<text x=\"{x}\" y=\"16\" text-anchor=\"middle\">{}</text>",
            esc(stage)
        );
    }
    for (ri, (variant, cells)) in rows.iter().enumerate() {
        let y = (ri + 1) * cell_h + 8;
        let _ = writeln!(
            s,
            "<text x=\"{}\" y=\"{}\" text-anchor=\"end\">{}</text>",
            label_w - 8,
            y + cell_h / 2,
            esc(variant)
        );
        for (si, cell) in cells.iter().enumerate() {
            let x = label_w + si * cell_w;
            match cell {
                Some(c) => {
                    let t = if hi > lo {
                        (*c - lo) as f64 / (hi - lo) as f64
                    } else {
                        0.0
                    };
                    let _ = writeln!(
                        s,
                        "<rect x=\"{x}\" y=\"{y}\" width=\"{}\" height=\"{}\" fill=\"{}\">\
                         <title>{}: {} best {c} cycles</title></rect>",
                        cell_w - 2,
                        cell_h - 2,
                        heat_color(t),
                        esc(variant),
                        esc(&stages[si]),
                    );
                    let _ = writeln!(
                        s,
                        "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\" fill=\"#fff\">{c}</text>",
                        x + cell_w / 2,
                        y + cell_h / 2 + 5,
                    );
                }
                None => {
                    let _ = writeln!(
                        s,
                        "<rect x=\"{x}\" y=\"{y}\" width=\"{}\" height=\"{}\" fill=\"#ddd\"/>",
                        cell_w - 2,
                        cell_h - 2,
                    );
                }
            }
        }
    }
    s.push_str("</svg>\n");
    s
}

fn svg_timeline(tree: &SpanTree) -> String {
    // Flatten spans depth-first with depth annotations.
    fn flatten(tree: &SpanTree, idx: usize, depth: usize, out: &mut Vec<(usize, usize)>) {
        out.push((idx, depth));
        for &c in &tree.nodes[idx].children {
            flatten(tree, c, depth + 1, out);
        }
    }
    let mut spans = Vec::new();
    for &r in &tree.roots {
        flatten(tree, r, 0, &mut spans);
    }
    if spans.is_empty() {
        return String::from("<p>(no spans in stream)</p>");
    }
    let t_end = spans
        .iter()
        .map(|&(i, _)| tree.nodes[i].t_close_us)
        .max()
        .unwrap_or(1)
        .max(1);
    let width = 960;
    let row_h = 18;
    let label_w = 200;
    let chart_w = width - label_w - 10;
    let height = spans.len() * row_h + 30;
    let mut s = format!(
        "<svg viewBox=\"0 0 {width} {height}\" width=\"{width}\" height=\"{height}\" \
         xmlns=\"http://www.w3.org/2000/svg\" font-family=\"monospace\" font-size=\"11\">\n"
    );
    for (ri, &(i, depth)) in spans.iter().enumerate() {
        let node = &tree.nodes[i];
        let y = ri * row_h + 20;
        let x0 = label_w + (node.t_open_us as f64 / t_end as f64 * chart_w as f64) as usize;
        let w = ((node.wall_us() as f64 / t_end as f64 * chart_w as f64) as usize).max(2);
        let color = DEPTH_COLORS[depth % DEPTH_COLORS.len()];
        let label = match node.open_attr("variant").and_then(Json::as_str) {
            Some(v) => format!("{} {v}", node.name),
            None => node.name.clone(),
        };
        let _ = writeln!(
            s,
            "<text x=\"{}\" y=\"{}\" text-anchor=\"end\">{}</text>",
            label_w - 6,
            y + 12,
            esc(&label)
        );
        let _ = writeln!(
            s,
            "<rect x=\"{x0}\" y=\"{y}\" width=\"{w}\" height=\"{}\" fill=\"{color}\">\
             <title>{} — {:.1} ms</title></rect>",
            row_h - 4,
            esc(&label),
            node.wall_us() as f64 / 1000.0,
        );
    }
    s.push_str("</svg>\n");
    s
}

fn svg_trajectory(tree: &SpanTree) -> String {
    // All point cycles in emission order, across the whole forest.
    let mut points: Vec<(u64, u64)> = Vec::new(); // (seq, cycles)
    for node in &tree.nodes {
        for e in &node.events {
            if e.name.as_deref() == Some("point") {
                if let Some(c) = e.attr_u64("cycles") {
                    points.push((e.seq, c));
                }
            }
        }
    }
    for e in &tree.toplevel {
        if e.name.as_deref() == Some("point") {
            if let Some(c) = e.attr_u64("cycles") {
                points.push((e.seq, c));
            }
        }
    }
    points.sort_unstable();
    if points.is_empty() {
        return String::from("<p>(no measured points in stream)</p>");
    }
    let mut best = u64::MAX;
    let series: Vec<u64> = points
        .iter()
        .map(|&(_, c)| {
            best = best.min(c);
            best
        })
        .collect();
    let lo = *series.last().expect("non-empty");
    let hi = points
        .iter()
        .map(|&(_, c)| c)
        .max()
        .unwrap_or(1)
        .max(lo + 1);
    let (width, height, pad) = (960, 180, 30);
    let mut s = format!(
        "<svg viewBox=\"0 0 {width} {height}\" width=\"{width}\" height=\"{height}\" \
         xmlns=\"http://www.w3.org/2000/svg\" font-family=\"monospace\" font-size=\"11\">\n"
    );
    let x_of = |i: usize| -> f64 {
        pad as f64 + i as f64 / (series.len().max(2) - 1) as f64 * (width - 2 * pad) as f64
    };
    let y_of = |c: u64| -> f64 {
        let t = (c - lo) as f64 / (hi - lo) as f64;
        (height - pad) as f64 - t * (height - 2 * pad) as f64
    };
    // Raw points as dots, best-so-far as a polyline.
    for (i, &(_, c)) in points.iter().enumerate() {
        let _ = writeln!(
            s,
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"1.5\" fill=\"#999\"/>",
            x_of(i),
            y_of(c)
        );
    }
    let poly: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, &c)| format!("{:.1},{:.1}", x_of(i), y_of(c)))
        .collect();
    let _ = writeln!(
        s,
        "<polyline points=\"{}\" fill=\"none\" stroke=\"#2c7a3d\" stroke-width=\"2\"/>",
        poly.join(" ")
    );
    let _ = writeln!(
        s,
        "<text x=\"{pad}\" y=\"14\">best-so-far cycles ({} points, best {lo})</text>",
        series.len()
    );
    s.push_str("</svg>\n");
    s
}

fn html_table(out: &mut String, headers: &[&str], rows: &[Vec<String>]) {
    out.push_str("<table><tr>");
    for h in headers {
        let _ = write!(out, "<th>{}</th>", esc(h));
    }
    out.push_str("</tr>\n");
    for row in rows {
        out.push_str("<tr>");
        for cell in row {
            let _ = write!(out, "<td>{}</td>", esc(cell));
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n");
}

/// Renders the full self-contained HTML report for one or more runs.
pub fn render_html(reports: &[RunReport]) -> String {
    let mut s = String::from(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n\
         <title>ECO search report</title>\n<style>\n\
         body{font-family:monospace;margin:24px;color:#222;max-width:1100px}\n\
         h1{font-size:20px} h2{font-size:16px;margin-top:28px} h3{font-size:14px}\n\
         table{border-collapse:collapse;margin:8px 0}\n\
         th,td{border:1px solid #bbb;padding:3px 8px;text-align:right}\n\
         th{background:#eee} td:first-child,th:first-child{text-align:left}\n\
         .flag{color:#a33}\n</style></head><body>\n\
         <h1>ECO search report</h1>\n",
    );
    for report in reports {
        let p = &report.profile;
        let _ = writeln!(
            s,
            "<h2>{} — kernel {}, strategy {}, N {}</h2>",
            esc(&report.source),
            esc(&p.kernel),
            esc(&p.strategy),
            p.search_n
        );
        let selected = match (&p.selected, p.selected_cycles) {
            (Some(v), Some(c)) => format!("{v} at {c} cycles"),
            _ => "(none)".to_string(),
        };
        let _ = writeln!(
            s,
            "<p>records {}, points {}, memo hits {} ({:.1}%), errors {}, wall {:.1} ms<br>\
             selected: {}</p>",
            report.records,
            p.points,
            p.memo_hits,
            p.hit_rate() * 100.0,
            p.errors,
            p.wall_us as f64 / 1000.0,
            esc(&selected)
        );

        s.push_str("<h3>Search landscape (best cycles per variant and stage)</h3>\n");
        s.push_str(&svg_heatmap(&report.tree));
        s.push_str("<h3>Best-so-far trajectory</h3>\n");
        s.push_str(&svg_trajectory(&report.tree));
        s.push_str("<h3>Stage timeline</h3>\n");
        s.push_str(&svg_timeline(&report.tree));

        s.push_str("<h3>Stage profile</h3>\n");
        let rows: Vec<Vec<String>> = p
            .stages
            .iter()
            .map(|st| {
                vec![
                    st.stage.clone(),
                    st.spans.to_string(),
                    st.points.to_string(),
                    st.memo_hits.to_string(),
                    format!("{:.1}", st.wall_us as f64 / 1000.0),
                ]
            })
            .collect();
        html_table(
            &mut s,
            &["stage", "spans", "points", "memo", "wall ms"],
            &rows,
        );

        s.push_str("<h3>Variant profile</h3>\n");
        let rows: Vec<Vec<String>> = p
            .variants
            .iter()
            .map(|v| {
                let cert = if v.certified + v.rejected == 0 {
                    "-".to_string()
                } else {
                    format!("{}/{}", v.certified, v.rejected)
                };
                vec![
                    v.name.clone(),
                    v.points.to_string(),
                    v.memo_hits.to_string(),
                    cert,
                    v.cycles.map_or_else(|| "-".to_string(), |c| c.to_string()),
                    v.outcome.clone(),
                    format!("{:.1}", v.wall_us as f64 / 1000.0),
                ]
            })
            .collect();
        html_table(
            &mut s,
            &[
                "variant", "points", "memo", "cert", "cycles", "outcome", "wall ms",
            ],
            &rows,
        );

        if !report.attribution.is_empty() {
            s.push_str("<h3>Memory-hierarchy attribution (model vs simulated)</h3>\n");
            for t in &report.attribution {
                let params: Vec<String> =
                    t.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let _ = writeln!(
                    s,
                    "<p><b>{} ({})</b> — N {}, {} cycles, params {}</p>",
                    esc(&t.variant),
                    esc(&t.point),
                    t.n,
                    t.cycles,
                    esc(&params.join(" "))
                );
                let mut headers: Vec<String> =
                    vec!["array".into(), "refs(mod)".into(), "refs(sim)".into()];
                if let Some(first) = t.rows.first() {
                    for cell in &first.levels {
                        headers.push(format!("{}(mod)", cell.level));
                        headers.push(format!("{}(sim)", cell.level));
                    }
                }
                headers.push("flags".into());
                let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
                let rows: Vec<Vec<String>> = t
                    .rows
                    .iter()
                    .map(|r| {
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
                        row
                    })
                    .collect();
                html_table(&mut s, &headers, &rows);
            }
        }

        if !p.lineage.is_empty() {
            s.push_str("<h3>Best-point lineage</h3>\n<pre>");
            for node in &p.lineage {
                let cycles = node
                    .cycles
                    .map_or_else(String::new, |c| format!("  {c} cycles"));
                let _ = writeln!(
                    s,
                    "{}{}{}",
                    "  ".repeat(node.depth),
                    esc(&node.label),
                    cycles
                );
            }
            s.push_str("</pre>\n");
        }
    }
    s.push_str("</body></html>\n");
    s
}
