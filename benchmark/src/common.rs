//! Pieces every workload shares: run settings, the seeded generator,
//! the result of a run, set-up timing and memory readings.

use crate::spec::Values;
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Engine worker threads, and serve clients: sized for a 2-core host.
pub const THREADS: usize = 2;

/// Each workload sets up at least this many times, and a cheap set-up
/// repeats until [`SETUP_MIN_SECS`] have passed; `setup_s` is the
/// median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 0.2;

/// A set-up faster than this is timed in batches of repetitions that
/// take about this long, so timer and scheduler jitter do not dominate
/// a microsecond reading.
const SETUP_SAMPLE_SECS: f64 = 0.01;

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory holding the golden `fig4a.csv` / `fig4a.manifest.json`.
    pub results: PathBuf,
    /// Scratch directory of this run (removed at the end).
    pub work: PathBuf,
}

impl Ctx {
    /// Whether the timed phase has run long enough: its budget is spent
    /// and, in a traced run, at least one traced and one untraced round
    /// have run so both are measured.
    pub fn done(&self, started: Instant, rounds: usize) -> bool {
        let min_rounds = if self.trace { 2 } else { 1 };
        rounds >= min_rounds && started.elapsed().as_secs_f64() >= self.seconds
    }
}

/// In a traced run rounds alternate untraced, traced, untraced, ... so
/// `trace.overhead` compares rounds measured under the same conditions.
pub fn traced_round(ctx: &Ctx, round: usize) -> bool {
    ctx.trace && round % 2 == 1
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Operations whose output or accounting was wrong.
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// Counts one attempted operation, failed when `problems` is
    /// non-empty.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }
}

/// A seeded splitmix64 generator: the only source of workload inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled copy of `items` (Fisher-Yates).
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut v = items.to_vec();
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Runs `setup` repeatedly (see [`SETUP_REPS`]), returning the median
/// time in seconds and the last repetition's product. Each repetition
/// gets its index so it can work in a directory of its own.
pub fn timed_setup<T>(mut setup: impl FnMut(usize) -> T) -> (f64, T) {
    let mut samples = Vec::new();
    let (mut reps, mut spent) = (0, 0.0);
    let mut batch = 1;
    let mut last = None;
    while samples.len() < SETUP_REPS || spent < SETUP_MIN_SECS {
        let started = Instant::now();
        for _ in 0..batch {
            last = Some(setup(reps));
            reps += 1;
        }
        let took = started.elapsed().as_secs_f64();
        spent += took;
        samples.push(took / batch as f64);
        if reps == 1 && took < SETUP_SAMPLE_SECS {
            batch = (SETUP_SAMPLE_SECS / took.max(1e-9)).ceil() as usize;
        }
    }
    (
        median(&samples).expect("at least one sample"),
        last.expect("at least one repetition"),
    )
}

/// The untraced rounds' timings, the basis of the end-to-end metrics.
#[derive(Debug, Default)]
pub struct Timings {
    walls: Vec<f64>,
    points: f64,
    /// Latencies, in ms, of the workload's operations, by request.
    ops: BTreeMap<usize, Vec<f64>>,
}

impl Timings {
    /// Records a round's wall time and the engine points it requested.
    pub fn round(&mut self, wall: f64, points: f64) {
        self.walls.push(wall);
        self.points += points;
    }

    /// Records one op's latency; `request` tells the workload's distinct
    /// requests apart.
    pub fn op(&mut self, request: usize, ms: f64) {
        self.ops.entry(request).or_default().push(ms);
    }

    /// Sets every end-to-end metric: `wall_s` is the median round,
    /// `points_per_s` all rounds' points over their time, `op_ms` the
    /// mean over requests of each request's median latency. Requests
    /// differ in cost by up to 20×, so the median of all ops would sit
    /// between two requests' latency clusters and jump from one to the
    /// other between runs; here every request counts once, by its cost.
    pub fn record(&self, v: &mut Values, setup_s: f64, peak_rss_mb: f64) {
        let total: f64 = self.walls.iter().sum();
        v.set("setup_s", setup_s);
        v.set("wall_s", median(&self.walls).unwrap_or(0.0));
        v.set(
            "points_per_s",
            if total > 0.0 {
                self.points / total
            } else {
                0.0
            },
        );
        let medians: Vec<f64> = self.ops.values().filter_map(|l| median(l)).collect();
        v.set(
            "op_ms",
            medians.iter().sum::<f64>() / medians.len().max(1) as f64,
        );
        v.set("peak_rss_mb", peak_rss_mb);
    }
}

/// Peak resident set (VmHWM) of process `pid` (`"self"` for this one),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Removes a scratch directory, ignoring one that is already gone.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
