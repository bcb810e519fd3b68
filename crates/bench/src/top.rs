//! `eco top` — a polling dashboard over a running daemon's `metrics`
//! op (DESIGN.md §"Operating the daemon").
//!
//! Each tick sends one `metrics` request, parses the Prometheus text
//! with [`eco_metrics::parse_exposition`], and renders a four-section
//! summary (serve / engine / store / sweep) with counter totals,
//! per-second deltas against the previous tick, hit rates and latency
//! quantiles. `--once` takes a single snapshot and prints it without
//! rates or screen control — the deterministic mode the CI
//! observability job asserts on.
//!
//! Rendering is a pure function of two expositions
//! ([`render_top`]), so the dashboard is unit-testable without a
//! daemon.

use crate::serve;
use eco_core::events::Json;
use eco_metrics::{parse_exposition, Exposition};
use std::path::Path;

/// One snapshot older than the current one, with the seconds elapsed
/// between them — the basis for per-second rates.
pub struct Baseline<'a> {
    /// The previous tick's parsed exposition.
    pub prev: &'a Exposition,
    /// Seconds between the two snapshots (> 0).
    pub elapsed_secs: f64,
}

fn fmt_count(v: f64) -> String {
    if v >= 10_000_000.0 {
        format!("{:.1}M", v / 1_000_000.0)
    } else if v >= 10_000.0 {
        format!("{:.1}k", v / 1_000.0)
    } else {
        format!("{}", v as u64)
    }
}

fn fmt_us(v: f64) -> String {
    if v >= 1_000_000.0 {
        format!("{:.1}s", v / 1_000_000.0)
    } else if v >= 1_000.0 {
        format!("{:.1}ms", v / 1_000.0)
    } else {
        format!("{}us", v as u64)
    }
}

fn pct(part: f64, whole: f64) -> String {
    if whole <= 0.0 {
        "-".to_string()
    } else {
        format!("{:.0}%", 100.0 * part / whole)
    }
}

/// Renders one dashboard frame from the current exposition, with
/// per-second rates when a [`Baseline`] is given. Pure: same inputs,
/// same text.
pub fn render_top(cur: &Exposition, base: Option<&Baseline<'_>>) -> String {
    let rate = |name: &str| -> String {
        match base {
            Some(b) if b.elapsed_secs > 0.0 => {
                let d = (cur.total(name) - b.prev.total(name)).max(0.0);
                format!("{:7.1}/s", d / b.elapsed_secs)
            }
            _ => "        -".to_string(),
        }
    };
    let quantiles = |name: &str, labels: &[(&str, &str)]| -> String {
        let q = |q: f64| {
            cur.quantile(name, labels, q)
                .map_or_else(|| "-".to_string(), fmt_us)
        };
        format!("p50 {} p90 {} p99 {}", q(0.50), q(0.90), q(0.99))
    };

    let mut out = String::new();
    // serve: totals, rates, in-flight, then the per-op breakdown.
    let requests = cur.total("eco_serve_requests_total");
    out.push_str(&format!(
        "serve    requests {:>8} {}   errors {}  deduped {}  slow {}  in-flight {}\n",
        fmt_count(requests),
        rate("eco_serve_requests_total"),
        fmt_count(cur.total("eco_serve_errors_total")),
        fmt_count(cur.total("eco_serve_deduped_requests_total")),
        fmt_count(cur.total("eco_serve_slow_requests_total")),
        fmt_count(cur.total("eco_serve_inflight")),
    ));
    let mut ops: Vec<(&str, f64)> = cur
        .samples
        .iter()
        .filter(|s| s.name == "eco_serve_requests_total" && s.value > 0.0)
        .filter_map(|s| {
            s.labels
                .iter()
                .find(|(k, _)| k == "op")
                .map(|(_, v)| (v.as_str(), s.value))
        })
        .collect();
    ops.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite counts")
            .then(a.0.cmp(b.0))
    });
    for (op, count) in ops {
        out.push_str(&format!(
            "         {op:<12} {:>8}   {}\n",
            fmt_count(count),
            quantiles("eco_serve_request_duration_us", &[("op", op)]),
        ));
    }

    // engine: work totals, hit rates, eval latency.
    let requested = cur.total("eco_engine_points_requested_total");
    let evaluated = cur.total("eco_engine_points_evaluated_total");
    let memo = cur.total("eco_engine_memo_hits_total");
    out.push_str(&format!(
        "engine   points {:>8} {}   evaluated {}  memo {} ({})  store {}  dedup {}  errors {}\n",
        fmt_count(requested),
        rate("eco_engine_points_requested_total"),
        fmt_count(evaluated),
        fmt_count(memo),
        pct(memo, requested),
        fmt_count(cur.total("eco_engine_store_hits_total")),
        fmt_count(cur.total("eco_engine_dedup_waits_total")),
        fmt_count(cur.total("eco_engine_eval_errors_total")),
    ));
    out.push_str(&format!(
        "         eval {}   plans {}\n",
        quantiles("eco_engine_eval_duration_us", &[]),
        fmt_count(cur.total("eco_engine_plan_compiles_total")),
    ));

    // store: persistent-result-store traffic.
    let hits = cur.total("eco_store_hits_total");
    let misses = cur.total("eco_store_misses_total");
    out.push_str(&format!(
        "store    hits {:>8} ({})  misses {}  puts {}  rejected {}  gc evicted {}  written {}\n",
        fmt_count(hits),
        pct(hits, hits + misses),
        fmt_count(misses),
        fmt_count(cur.total("eco_store_puts_total")),
        fmt_count(cur.total("eco_store_rejected_total")),
        fmt_count(cur.total("eco_store_gc_evicted_total")),
        fmt_count(cur.total("eco_store_bytes_written_total")),
    ));

    // sweep: shard lifecycle inside the daemon.
    out.push_str(&format!(
        "sweep    shards started {}  completed {}  failed {}  resumed {}  points/s {}\n",
        fmt_count(cur.total("eco_sweep_shards_started_total")),
        fmt_count(cur.total("eco_sweep_shards_completed_total")),
        fmt_count(cur.total("eco_sweep_shards_failed_total")),
        fmt_count(cur.total("eco_sweep_shards_resumed_total")),
        fmt_count(cur.total("eco_sweep_points_per_second")),
    ));
    out
}

/// One `metrics` round trip: scrape and parse the daemon's exposition.
///
/// # Errors
///
/// Returns a message when the request fails or the text does not
/// parse as a Prometheus exposition.
pub fn scrape(socket: &Path) -> Result<Exposition, String> {
    let response = serve::request(socket, &Json::obj().field("op", Json::str("metrics")))?;
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("metrics request failed")
            .to_string());
    }
    let text = response
        .get("metrics")
        .and_then(Json::as_str)
        .ok_or("metrics response has no 'metrics' field")?;
    parse_exposition(text)
}

/// Runs the dashboard: a single deterministic frame (`once`), or a
/// clear-screen poll loop every `interval_secs` until the daemon goes
/// away.
///
/// # Errors
///
/// Returns a message when the first scrape fails; once the loop is
/// running, a scrape failure (daemon shut down) ends it cleanly.
pub fn run(socket: &Path, once: bool, interval_secs: f64) -> Result<(), String> {
    let mut prev = scrape(socket)?;
    if once {
        print!("{}", render_top(&prev, None));
        return Ok(());
    }
    let interval = std::time::Duration::from_secs_f64(interval_secs.max(0.1));
    loop {
        std::thread::sleep(interval);
        let Ok(cur) = scrape(socket) else {
            println!("eco top: daemon at {} went away", socket.display());
            return Ok(());
        };
        // ANSI clear-screen + home, like top(1).
        print!(
            "\x1b[2J\x1b[Heco top — {} (every {:.1}s, ctrl-c to quit)\n{}",
            socket.display(),
            interval.as_secs_f64(),
            render_top(
                &cur,
                Some(&Baseline {
                    prev: &prev,
                    elapsed_secs: interval.as_secs_f64(),
                })
            )
        );
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        prev = cur;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exposition(text: &str) -> Exposition {
        parse_exposition(text).expect("test exposition parses")
    }

    #[test]
    fn render_is_deterministic_and_sectioned() {
        let cur = exposition(
            "# TYPE eco_serve_requests_total counter\n\
             eco_serve_requests_total{op=\"ping\"} 3\n\
             eco_serve_requests_total{op=\"tune\"} 2\n\
             # TYPE eco_serve_request_duration_us histogram\n\
             eco_serve_request_duration_us_bucket{le=\"100\",op=\"tune\"} 1\n\
             eco_serve_request_duration_us_bucket{le=\"+Inf\",op=\"tune\"} 2\n\
             eco_serve_request_duration_us_sum{op=\"tune\"} 5000\n\
             eco_serve_request_duration_us_count{op=\"tune\"} 2\n\
             # TYPE eco_engine_points_requested_total counter\n\
             eco_engine_points_requested_total 100\n\
             # TYPE eco_engine_memo_hits_total counter\n\
             eco_engine_memo_hits_total 25\n\
             # TYPE eco_store_hits_total counter\n\
             eco_store_hits_total 8\n\
             # TYPE eco_store_misses_total counter\n\
             eco_store_misses_total 2\n",
        );
        let a = render_top(&cur, None);
        let b = render_top(&cur, None);
        assert_eq!(a, b, "same exposition renders the same frame");
        for section in ["serve", "engine", "store", "sweep"] {
            assert!(
                a.lines().any(|l| l.starts_with(section)),
                "frame has a {section} section:\n{a}"
            );
        }
        // ping (3 requests) sorts above tune (2) in the per-op table.
        let ping = a.find("ping").expect("ping row");
        let tune = a.find("tune").expect("tune row");
        assert!(ping < tune, "per-op rows sort by count desc");
        assert!(a.contains("memo 25 (25%)"), "memo hit rate:\n{a}");
        assert!(a.contains("(80%)"), "store hit rate:\n{a}");
        // No baseline → no rates.
        assert!(a.contains("-"), "rates blank without a baseline");
    }

    #[test]
    fn rates_use_the_baseline_delta() {
        let prev = exposition("eco_serve_requests_total{op=\"ping\"} 10\n");
        let cur = exposition("eco_serve_requests_total{op=\"ping\"} 30\n");
        let frame = render_top(
            &cur,
            Some(&Baseline {
                prev: &prev,
                elapsed_secs: 2.0,
            }),
        );
        assert!(
            frame.contains("10.0/s"),
            "20 new requests over 2s is 10.0/s:\n{frame}"
        );
    }
}
