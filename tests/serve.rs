//! Service-layer integration tests: the `eco serve` protocol over a
//! Unix socket — concurrent identical tune requests share one search
//! (in-flight dedupe plus the shared engine's memo cache), responses
//! embed the same deterministic manifest a local run renders, and the
//! stats/store-stats/ping/shutdown ops answer as documented.

use eco_bench::serve::{self, LogLevel, ServeConfig, Server};
use eco_core::events::Json;
use eco_core::{EngineConfig, SearchOptions, TuneRequest};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use std::path::PathBuf;

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eco-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny_request() -> TuneRequest {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let opts = SearchOptions::builder()
        .search_n(16)
        .max_variants(1)
        .build()
        .expect("options");
    TuneRequest::new(Kernel::matmul(), machine).options(opts)
}

/// Starts a server on a scratch socket and returns it with the join
/// handle of its accept loop.
fn start_server(
    dir: &std::path::Path,
    engine: EngineConfig,
) -> (PathBuf, std::thread::JoinHandle<()>) {
    let socket = dir.join("eco.sock");
    let server = Server::bind(ServeConfig {
        socket: socket.clone(),
        engine,
        events: Some(dir.join("serve.events.jsonl").display().to_string()),
        log_level: LogLevel::Quiet,
        slow_ms: 1000,
    })
    .expect("bind");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    // The listener is bound before `bind` returns, so clients can
    // connect immediately; no readiness poll needed.
    (socket, handle)
}

fn shutdown(socket: &std::path::Path) {
    let doc =
        serve::request(socket, &Json::obj().field("op", Json::str("shutdown"))).expect("shutdown");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn concurrent_identical_tunes_share_one_simulation_pass() {
    // What one isolated run of the same request evaluates — the
    // deterministic search makes this the exact unique-point count.
    let expected = tiny_request().run().expect("local run").engine.evaluated;
    assert!(expected > 0);

    let dir = scratch("dedupe");
    let store = dir.join("store");
    let (socket, handle) =
        start_server(&dir, EngineConfig::new().store(store.display().to_string()));

    let tune_line = Json::obj()
        .field("op", Json::str("tune"))
        .field("request", tiny_request().to_json());
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let socket = socket.clone();
            let line = tune_line.render_compact();
            std::thread::spawn(move || {
                let doc = Json::parse(&line).expect("request parses");
                serve::request(&socket, &doc).expect("tune request")
            })
        })
        .collect();
    let responses: Vec<Json> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();

    for doc in &responses {
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{doc:?}");
    }
    let first = responses[0].render();
    for doc in &responses[1..] {
        assert_eq!(doc.render(), first, "identical requests, identical bytes");
    }

    // The dedupe assert: 4 concurrent tunes of the same request must
    // cost exactly one simulation pass. Whether a request waited on the
    // in-flight owner or re-ran against the shared engine, the engine's
    // unique-evaluation count cannot exceed one isolated run's.
    let stats =
        serve::request(&socket, &Json::obj().field("op", Json::str("stats"))).expect("stats");
    assert_eq!(stats.get("tunes").and_then(Json::as_u64), Some(4));
    let engines = match stats.get("engines") {
        Some(Json::Obj(fields)) => fields,
        other => panic!("engines object missing: {other:?}"),
    };
    assert_eq!(engines.len(), 1, "one machine, one shared engine");
    let evaluated = engines[0]
        .1
        .get("evaluated")
        .and_then(Json::as_u64)
        .expect("evaluated");
    assert_eq!(
        evaluated, expected,
        "4 identical tunes must simulate exactly one search's worth of points"
    );
    let deduped = stats
        .get("deduped_requests")
        .and_then(Json::as_u64)
        .expect("deduped_requests");
    assert!(deduped <= 3, "at most 3 of 4 requests can be followers");

    // The shared store saw the searched points.
    let store_stats = serve::request(&socket, &Json::obj().field("op", Json::str("store-stats")))
        .expect("store-stats");
    assert_eq!(
        store_stats.get("configured").and_then(Json::as_bool),
        Some(true)
    );
    assert!(
        store_stats
            .get("puts")
            .and_then(Json::as_u64)
            .expect("puts")
            > 0
    );

    shutdown(&socket);
    handle.join().expect("server thread");

    // The request-level event stream recorded every protocol request.
    let events = std::fs::read_to_string(dir.join("serve.events.jsonl")).expect("events");
    assert!(
        events.matches("serve_request").count() >= 7,
        "4 tunes + stats + store-stats + shutdown:\n{events}"
    );
    assert_eq!(
        events.matches("serve_request").count(),
        events.matches("serve_done").count(),
        "every request gets a done event"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `stats` op and the per-server metrics registry it reads:
/// mixed concurrent traffic — pings, unknown ops, identical
/// tunes — then exact totals from both the `stats` op and a parsed
/// `metrics` exposition.
#[test]
fn mixed_concurrent_traffic_counts_exactly() {
    use eco_metrics::parse_exposition;

    let dir = scratch("mixed");
    let (socket, handle) = start_server(&dir, EngineConfig::new());

    let mut clients = Vec::new();
    for _ in 0..3 {
        let socket = socket.clone();
        clients.push(std::thread::spawn(move || {
            let doc =
                serve::request(&socket, &Json::obj().field("op", Json::str("ping"))).expect("ping");
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        }));
    }
    for _ in 0..2 {
        let socket = socket.clone();
        clients.push(std::thread::spawn(move || {
            let doc = serve::request(&socket, &Json::obj().field("op", Json::str("explode")))
                .expect("error response");
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        }));
    }
    for _ in 0..4 {
        let socket = socket.clone();
        let line = Json::obj()
            .field("op", Json::str("tune"))
            .field("request", tiny_request().to_json())
            .render_compact();
        clients.push(std::thread::spawn(move || {
            let doc = serve::request(&socket, &Json::parse(&line).expect("request parses"))
                .expect("tune");
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{doc:?}");
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }

    // Exact `stats` totals: 3 pings + 2 unknown + 4 tunes + this
    // stats request itself = 10 requests, 2 of them errors.
    let stats =
        serve::request(&socket, &Json::obj().field("op", Json::str("stats"))).expect("stats");
    assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(10));
    assert_eq!(stats.get("tunes").and_then(Json::as_u64), Some(4));
    assert_eq!(stats.get("shards").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("errors").and_then(Json::as_u64), Some(2));
    let deduped = stats
        .get("deduped_requests")
        .and_then(Json::as_u64)
        .expect("deduped_requests");
    assert!(deduped <= 3, "at most 3 of 4 identical tunes follow");

    // The same totals through the metrics op, as Prometheus text. The
    // per-server registry makes these exact even under a parallel test
    // run (global-registry engine counters would cross-pollute).
    let scraped =
        serve::request(&socket, &Json::obj().field("op", Json::str("metrics"))).expect("metrics");
    assert_eq!(scraped.get("ok").and_then(Json::as_bool), Some(true));
    let text = scraped
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics text");
    let exp = parse_exposition(text).expect("exposition parses");
    assert_eq!(
        exp.value("eco_serve_requests_total", &[("op", "ping")]),
        Some(3.0)
    );
    assert_eq!(
        exp.value("eco_serve_requests_total", &[("op", "tune")]),
        Some(4.0)
    );
    assert_eq!(
        exp.value("eco_serve_requests_total", &[("op", "other")]),
        Some(2.0),
        "unknown ops land in the bounded 'other' label"
    );
    assert_eq!(
        exp.value("eco_serve_requests_total", &[("op", "stats")]),
        Some(1.0)
    );
    assert_eq!(exp.value("eco_serve_errors_total", &[]), Some(2.0));
    assert_eq!(
        exp.value("eco_serve_deduped_requests_total", &[]),
        Some(deduped as f64)
    );
    // 10 handled so far — the metrics scrape does not count itself.
    assert_eq!(exp.total("eco_serve_requests_total"), 10.0);
    assert_eq!(
        exp.value("eco_serve_request_duration_us_count", &[("op", "tune")]),
        Some(4.0),
        "every tune request is timed"
    );
    assert_eq!(
        exp.value("eco_serve_inflight", &[]),
        Some(0.0),
        "the scrape excludes itself from the in-flight gauge"
    );
    assert_eq!(
        exp.types
            .get("eco_serve_requests_total")
            .map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        exp.types
            .get("eco_serve_request_duration_us")
            .map(String::as_str),
        Some("histogram")
    );

    shutdown(&socket);
    handle.join().expect("server thread");

    // Failed requests carry the error string on their serve_done event.
    let events = std::fs::read_to_string(dir.join("serve.events.jsonl")).expect("events");
    let error_dones = events
        .lines()
        .filter(|l| l.contains("serve_done") && l.contains("unknown op 'explode'"))
        .count();
    assert_eq!(
        error_dones, 2,
        "both failures record their error:\n{events}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The live-telemetry ops: `watch` replays a completed tune's event
/// stream over the connection, and `trace` returns the same stream
/// with the stored response for offline rendering.
#[test]
fn watch_and_trace_replay_a_completed_tune() {
    use eco_core::events::check_stream;

    let dir = scratch("watch");
    let (socket, handle) = start_server(&dir, EngineConfig::new());

    let served = serve::request(
        &socket,
        &Json::obj()
            .field("op", Json::str("tune"))
            .field("request", tiny_request().to_json()),
    )
    .expect("tune");
    assert_eq!(served.get("ok").and_then(Json::as_bool), Some(true));
    let fp_text = served
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_string();
    let fp = u64::from_str_radix(fp_text.trim_start_matches("0x"), 16).expect("hex fingerprint");

    // watch replays the search's event stream line by line.
    let mut lines = Vec::new();
    let header = serve::watch(&socket, fp, |line| lines.push(line.to_string())).expect("watch");
    assert_eq!(header.get("live").and_then(Json::as_bool), Some(false));
    assert!(!lines.is_empty(), "a tune search emits events");
    let replayed = lines.join("\n") + "\n";
    check_stream(&replayed).expect("replayed stream is well-formed");

    // trace returns the identical stream plus the stored response.
    let traced = serve::request(
        &socket,
        &Json::obj()
            .field("op", Json::str("trace"))
            .field("fingerprint", Json::str(&fp_text)),
    )
    .expect("trace");
    assert_eq!(traced.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(traced.get("op").and_then(Json::as_str), Some("tune"));
    assert_eq!(
        traced.get("events").and_then(Json::as_str),
        Some(replayed.as_str()),
        "trace and watch see the same stored stream"
    );
    assert_eq!(
        traced
            .get_path("response.manifest")
            .map(eco_core::events::Json::render),
        served.get("manifest").map(eco_core::events::Json::render),
        "trace stores the original response"
    );

    // trace without a fingerprint returns the latest completed request.
    let latest = serve::request(&socket, &Json::obj().field("op", Json::str("trace")))
        .expect("trace latest");
    assert_eq!(
        latest.get("fingerprint").and_then(Json::as_str),
        Some(fp_text.as_str())
    );

    // Watching an unknown fingerprint is an error, not a hang.
    let missing = serve::watch(&socket, fp ^ 0xdead_beef, |_| {});
    assert!(missing.is_err(), "unknown fingerprint refuses cleanly");

    shutdown(&socket);
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_tune_matches_a_local_manifest_and_reports_errors() {
    let dir = scratch("manifest");
    let (socket, handle) = start_server(&dir, EngineConfig::new());

    // ping answers with the protocol and API versions.
    let pong = serve::request(&socket, &Json::obj().field("op", Json::str("ping"))).expect("ping");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        pong.get("api_version").and_then(Json::as_u64),
        Some(eco_core::API_VERSION)
    );

    // A served tune embeds the byte-identical local manifest.
    let request = tiny_request();
    let local = request.run().expect("local run");
    let local_manifest = eco_core::run_manifest(
        &request.kernel.name,
        &request.machine,
        &request.options,
        &EngineConfig::new(),
        &local,
    )
    .render();
    let served = serve::request(
        &socket,
        &Json::obj()
            .field("op", Json::str("tune"))
            .field("request", request.to_json()),
    )
    .expect("served tune");
    assert_eq!(served.get("ok").and_then(Json::as_bool), Some(true));
    let manifest = served.get("manifest").expect("manifest in response");
    assert_eq!(
        manifest.render(),
        local_manifest,
        "served and local manifests must be the same bytes"
    );

    // Unknown ops and malformed tunes answer ok=false, not a hangup.
    let bad = serve::request(&socket, &Json::obj().field("op", Json::str("explode")))
        .expect("error response");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    assert!(bad
        .get("error")
        .and_then(Json::as_str)
        .expect("error message")
        .contains("unknown op"));
    let bad_tune = serve::request(
        &socket,
        &Json::obj()
            .field("op", Json::str("tune"))
            .field("request", Json::obj()),
    )
    .expect("error response");
    assert_eq!(bad_tune.get("ok").and_then(Json::as_bool), Some(false));

    shutdown(&socket);
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversize_request_line_gets_an_error_and_a_hangup() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let dir = scratch("oversize");
    let (socket, handle) = start_server(&dir, EngineConfig::new());

    let stream = UnixStream::connect(&socket).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    std::thread::scope(|s| {
        // The daemon stops reading at the cap and hangs up, so the
        // rest of this write fails; only the reply matters.
        s.spawn(move || {
            let mut line = vec![b'x'; 2 << 20];
            line.push(b'\n');
            let _ = writer.write_all(&line);
        });
        reader.read_line(&mut reply).expect("error reply");
    });
    let doc = Json::parse(reply.trim_end()).expect("reply is JSON");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert!(doc
        .get("error")
        .and_then(Json::as_str)
        .expect("error message")
        .contains("exceeds"));
    // The connection is closed after the reply.
    let mut rest = String::new();
    assert!(
        matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
        "{rest}"
    );

    // The daemon still serves new connections.
    let pong = serve::request(&socket, &Json::obj().field("op", Json::str("ping"))).expect("ping");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

    // The oversize line counts as a request (op `other`) as well as an
    // error: oversize + ping + this stats request = 3 requests.
    let stats =
        serve::request(&socket, &Json::obj().field("op", Json::str("stats"))).expect("stats");
    assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(3));
    assert_eq!(stats.get("errors").and_then(Json::as_u64), Some(1));

    shutdown(&socket);
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A long-lived daemon joins the threads of ended connections on each
/// accept, so it holds one handle per live connection rather than one
/// per connection it ever served.
#[test]
fn ended_connection_threads_are_joined() {
    use eco_metrics::parse_exposition;
    let dir = scratch("reap");
    let (socket, handle) = start_server(&dir, EngineConfig::new());
    let ping = Json::obj().field("op", Json::str("ping"));
    for _ in 0..20 {
        let pong = serve::request(&socket, &ping).expect("ping");
        assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    }
    // Each scrape is itself an accept; a thread whose client has gone
    // may take a moment to notice the hangup, so poll briefly.
    let metrics = Json::obj().field("op", Json::str("metrics"));
    let mut held = f64::INFINITY;
    for _ in 0..200 {
        let scraped = serve::request(&socket, &metrics).expect("metrics");
        let text = scraped.get("metrics").and_then(Json::as_str).expect("text");
        let exp = parse_exposition(text).expect("exposition parses");
        held = exp
            .value("eco_serve_connection_threads", &[])
            .expect("thread gauge");
        if held <= 2.0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        held <= 2.0,
        "{held} connection threads held after 20 closed"
    );

    shutdown(&socket);
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
