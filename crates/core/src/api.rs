//! The service-layer tuning API: one request/response pair.
//!
//! [`TuneRequest`] carries everything one tuning run needs — the
//! kernel, the machine description, the [`SearchOptions`] and the
//! [`EngineConfig`] — and is the *same* type whether the run is
//! launched from a test, from the `eco`/`repro` CLIs, or shipped over
//! the `eco serve` socket: [`TuneRequest::to_json`] and
//! [`TuneRequest::from_json`] round-trip it through the deterministic
//! [`Json`] builder (stable field order), so the rendered bytes double
//! as a replay log and as the input to [`TuneRequest::fingerprint`].
//!
//! [`TuneResponse`] pairs the tuning result with the engine's work
//! totals. The pre-service-layer names (`OptimizeRequest`,
//! `OptimizeReport`, `Optimizer::run`) are gone; DESIGN.md §"Service
//! layer" documents the request/response API.
//!
//! # Examples
//!
//! ```
//! use eco_core::{SearchOptions, TuneRequest};
//! use eco_kernels::Kernel;
//! use eco_machine::MachineDesc;
//!
//! # fn main() -> Result<(), eco_core::EcoError> {
//! let request = TuneRequest::new(Kernel::matmul(), MachineDesc::sgi_r10000().scaled(32))
//!     .options(SearchOptions::builder().search_n(24).max_variants(1).build()?);
//! let response = request.run()?;
//! assert!(response.tuned.stats.points > 0);
//! assert!(response.engine.evaluated > 0);
//! # Ok(())
//! # }
//! ```

use crate::search::{Optimizer, SearchOptions, Tuned};
use crate::EcoError;
use eco_exec::events::{Fnv64, Json};
use eco_exec::{Engine, EngineConfig, EngineStats, Evaluator};
use eco_kernels::Kernel;
use eco_machine::{CacheDesc, CostModel, MachineDesc, TlbDesc};
use std::hash::Hasher as _;

/// Version stamped into every serialized [`TuneRequest`]; bump on any
/// field or rendering change so drift is self-describing.
pub const API_VERSION: u64 = 1;

/// Everything one tuning run needs, in one serializable value.
#[derive(Debug, Clone)]
pub struct TuneRequest {
    /// The kernel to tune.
    pub kernel: Kernel,
    /// The machine the run targets.
    pub machine: MachineDesc,
    /// Search options.
    pub options: SearchOptions,
    /// Evaluation-engine configuration.
    pub engine: EngineConfig,
}

/// What a tuning run returns: the tuned kernel plus the engine's work
/// totals (evaluations, memo/store hits, errors).
#[derive(Debug, Clone)]
pub struct TuneResponse {
    /// The tuning result.
    pub tuned: Tuned,
    /// Evaluation-engine totals for this run.
    pub engine: EngineStats,
}

impl TuneRequest {
    /// A request for `kernel` on `machine` with default options and
    /// engine configuration.
    pub fn new(kernel: Kernel, machine: MachineDesc) -> Self {
        TuneRequest {
            kernel,
            machine,
            options: SearchOptions::default(),
            engine: EngineConfig::new(),
        }
    }

    /// Sets the search options (builder style).
    #[must_use]
    pub fn options(mut self, options: SearchOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the engine configuration (builder style).
    #[must_use]
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Runs the full two-phase optimization, constructing a private
    /// [`Engine`] from the request's configuration.
    ///
    /// # Errors
    ///
    /// Fails on invalid options, an unopenable trace file or result
    /// store, an unanalyzable kernel, or when no variant could be
    /// generated and measured.
    pub fn run(&self) -> Result<TuneResponse, EcoError> {
        let engine = Engine::with_config(self.machine.clone(), self.engine.clone())?;
        self.run_on(&engine)
    }

    /// Runs the optimization against a caller-supplied [`Evaluator`]
    /// (a shared engine amortizes the memo cache and result store
    /// across requests — this is what `eco serve` does; tests
    /// substitute counting evaluators). The request's own `engine`
    /// configuration is ignored on this path.
    ///
    /// # Errors
    ///
    /// Fails on invalid options, an engine targeting a different
    /// machine, an unanalyzable kernel, or when no variant could be
    /// generated and measured.
    pub fn run_on(&self, engine: &dyn Evaluator) -> Result<TuneResponse, EcoError> {
        let mut optimizer = Optimizer::new(self.machine.clone());
        optimizer.opts = self.options.clone();
        let stats_before = engine.stats();
        let tuned = optimizer.run_with(&self.kernel, engine)?;
        let after = engine.stats();
        Ok(TuneResponse {
            tuned,
            engine: EngineStats {
                requested: after.requested - stats_before.requested,
                evaluated: after.evaluated - stats_before.evaluated,
                cache_hits: after.cache_hits - stats_before.cache_hits,
                store_hits: after.store_hits - stats_before.store_hits,
                dedup_waits: after.dedup_waits - stats_before.dedup_waits,
                errors: after.errors - stats_before.errors,
                ..EngineStats::default()
            },
        })
    }

    /// Renders the request through the order-preserving [`Json`]
    /// builder: `api_version`, the kernel *by name* (kernels are code,
    /// not data — [`TuneRequest::from_json`] resolves the name against
    /// [`Kernel::all`]), the full machine description, and the
    /// [`SearchOptions::to_json`] / [`EngineConfig::to_json`] objects.
    /// Two requests with equal content render byte-identical documents.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("api_version", Json::UInt(API_VERSION))
            .field("kernel", Json::str(&self.kernel.name))
            .field("machine", machine_to_json(&self.machine))
            .field("options", self.options.to_json())
            .field("engine", self.engine.to_json())
    }

    /// Parses a request rendered by [`TuneRequest::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed field, an
    /// unknown kernel name, an unsupported `api_version`, or invalid
    /// options.
    pub fn from_json(doc: &Json) -> Result<TuneRequest, String> {
        let version = doc
            .get("api_version")
            .and_then(Json::as_u64)
            .ok_or("request: missing field 'api_version'")?;
        if version != API_VERSION {
            return Err(format!(
                "request: api_version {version} not supported (this build speaks {API_VERSION})"
            ));
        }
        let name = doc
            .get("kernel")
            .and_then(Json::as_str)
            .ok_or("request: field 'kernel' must be a kernel name")?;
        let kernel = Kernel::all()
            .into_iter()
            .find(|k| k.name == name)
            .ok_or_else(|| {
                let known: Vec<String> = Kernel::all().into_iter().map(|k| k.name).collect();
                format!(
                    "request: unknown kernel '{name}' (known: {})",
                    known.join(", ")
                )
            })?;
        let machine = machine_from_json(
            doc.get("machine")
                .ok_or("request: missing field 'machine'")?,
        )?;
        let options = SearchOptions::from_json(
            doc.get("options")
                .ok_or("request: missing field 'options'")?,
        )?;
        let engine =
            EngineConfig::from_json(doc.get("engine").ok_or("request: missing field 'engine'")?)?;
        Ok(TuneRequest {
            kernel,
            machine,
            options,
            engine,
        })
    }

    /// The FNV-1a fingerprint of the rendered request — the identity
    /// `eco serve` dedupes identical in-flight requests by, and the
    /// natural key for logging a request stream.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(self.to_json().render().as_bytes());
        h.finish()
    }
}

/// Renders a full machine description as deterministic [`Json`] (every
/// field explicit, stable order) — the wire form used inside
/// [`TuneRequest::to_json`].
pub fn machine_to_json(machine: &MachineDesc) -> Json {
    let caches = Json::Arr(
        machine
            .caches
            .iter()
            .map(|c| {
                Json::obj()
                    .field("name", Json::str(&c.name))
                    .field("capacity_bytes", Json::UInt(c.capacity_bytes as u64))
                    .field("associativity", Json::UInt(c.associativity as u64))
                    .field("line_bytes", Json::UInt(c.line_bytes as u64))
                    .field("miss_penalty_cycles", Json::UInt(c.miss_penalty_cycles))
            })
            .collect(),
    );
    Json::obj()
        .field("name", Json::str(&machine.name))
        .field("clock_mhz", Json::UInt(machine.clock_mhz))
        .field("fp_registers", Json::UInt(machine.fp_registers as u64))
        .field("caches", caches)
        .field(
            "tlb",
            Json::obj()
                .field("entries", Json::UInt(machine.tlb.entries as u64))
                .field("page_bytes", Json::UInt(machine.tlb.page_bytes as u64))
                .field(
                    "miss_penalty_cycles",
                    Json::UInt(machine.tlb.miss_penalty_cycles),
                ),
        )
        .field(
            "cost",
            Json::obj()
                .field(
                    "flop_cycles_x1000",
                    Json::UInt(machine.cost.flop_cycles_x1000),
                )
                .field(
                    "mem_issue_cycles_x1000",
                    Json::UInt(machine.cost.mem_issue_cycles_x1000),
                )
                .field(
                    "prefetch_issue_cycles_x1000",
                    Json::UInt(machine.cost.prefetch_issue_cycles_x1000),
                )
                .field(
                    "loop_overhead_cycles_x1000",
                    Json::UInt(machine.cost.loop_overhead_cycles_x1000),
                )
                .field(
                    "memory_bandwidth_cycles_per_line_x1000",
                    Json::UInt(machine.cost.memory_bandwidth_cycles_per_line_x1000),
                ),
        )
}

/// Parses a machine description rendered by [`machine_to_json`].
///
/// # Errors
///
/// Returns a message naming the missing or ill-typed field.
pub fn machine_from_json(doc: &Json) -> Result<MachineDesc, String> {
    fn uint(doc: &Json, ctx: &str, name: &str) -> Result<u64, String> {
        doc.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{ctx}: field '{name}' must be a non-negative integer"))
    }
    fn text(doc: &Json, ctx: &str, name: &str) -> Result<String, String> {
        Ok(doc
            .get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: field '{name}' must be a string"))?
            .to_string())
    }
    let caches = match doc.get("caches") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|c| {
                Ok(CacheDesc {
                    name: text(c, "cache", "name")?,
                    capacity_bytes: uint(c, "cache", "capacity_bytes")? as usize,
                    associativity: uint(c, "cache", "associativity")? as usize,
                    line_bytes: uint(c, "cache", "line_bytes")? as usize,
                    miss_penalty_cycles: uint(c, "cache", "miss_penalty_cycles")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("machine: field 'caches' must be an array".into()),
    };
    let tlb = doc
        .get("tlb")
        .ok_or("machine: missing field 'tlb'")
        .map(|t| {
            Ok::<TlbDesc, String>(TlbDesc {
                entries: uint(t, "tlb", "entries")? as usize,
                page_bytes: uint(t, "tlb", "page_bytes")? as usize,
                miss_penalty_cycles: uint(t, "tlb", "miss_penalty_cycles")?,
            })
        })??;
    let cost = doc
        .get("cost")
        .ok_or("machine: missing field 'cost'")
        .map(|c| {
            Ok::<CostModel, String>(CostModel {
                flop_cycles_x1000: uint(c, "cost", "flop_cycles_x1000")?,
                mem_issue_cycles_x1000: uint(c, "cost", "mem_issue_cycles_x1000")?,
                prefetch_issue_cycles_x1000: uint(c, "cost", "prefetch_issue_cycles_x1000")?,
                loop_overhead_cycles_x1000: uint(c, "cost", "loop_overhead_cycles_x1000")?,
                memory_bandwidth_cycles_per_line_x1000: uint(
                    c,
                    "cost",
                    "memory_bandwidth_cycles_per_line_x1000",
                )?,
            })
        })??;
    Ok(MachineDesc {
        name: text(doc, "machine", "name")?,
        clock_mhz: uint(doc, "machine", "clock_mhz")?,
        fp_registers: uint(doc, "machine", "fp_registers")? as usize,
        caches,
        tlb,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchStrategy;

    #[test]
    fn request_round_trips_through_json() {
        let request =
            TuneRequest::new(Kernel::jacobi3d(), MachineDesc::ultrasparc_iie().scaled(16))
                .options(
                    SearchOptions::builder()
                        .search_n(20)
                        .max_variants(2)
                        .robustness_sizes(vec![16, 32])
                        .strategy(SearchStrategy::Random { points: 9, seed: 3 })
                        .tlb_prune(true)
                        .certify(true)
                        .build()
                        .expect("options"),
                )
                .engine(EngineConfig::new().threads(3).memoize(false));
        let doc = request.to_json();
        let text = doc.render();
        let reparsed = Json::parse(&text).expect("parses");
        let back = TuneRequest::from_json(&reparsed).expect("round-trips");
        assert_eq!(back.kernel.name, request.kernel.name);
        assert_eq!(back.machine, request.machine);
        assert_eq!(back.options, request.options);
        assert_eq!(back.engine, request.engine);
        assert_eq!(back.to_json().render(), text, "render is canonical");
        assert_eq!(back.fingerprint(), request.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_requests() {
        let machine = MachineDesc::sgi_r10000().scaled(32);
        let a = TuneRequest::new(Kernel::matmul(), machine.clone());
        let b = TuneRequest::new(Kernel::jacobi3d(), machine.clone());
        let opts = SearchOptions {
            search_n: 47,
            ..SearchOptions::default()
        };
        let c = TuneRequest::new(Kernel::matmul(), machine).options(opts);
        assert_ne!(a.fingerprint(), b.fingerprint(), "kernel matters");
        assert_ne!(a.fingerprint(), c.fingerprint(), "options matter");
        assert_eq!(
            a.fingerprint(),
            a.clone().fingerprint(),
            "fingerprint is stable"
        );
    }

    #[test]
    fn from_json_rejects_bad_requests() {
        let good = TuneRequest::new(Kernel::matmul(), MachineDesc::sgi_r10000()).to_json();
        let err = |doc: &Json| TuneRequest::from_json(doc).expect_err("must fail");
        assert!(err(&Json::obj()).contains("api_version"));
        let wrong_version = Json::obj().field("api_version", Json::UInt(99));
        assert!(err(&wrong_version).contains("not supported"));
        let mut unknown = Json::parse(&good.render()).expect("parses");
        if let Json::Obj(fields) = &mut unknown {
            for (key, value) in fields.iter_mut() {
                if key == "kernel" {
                    *value = Json::str("nope");
                }
            }
        }
        let msg = err(&unknown);
        assert!(msg.contains("unknown kernel 'nope'"), "{msg}");
        assert!(msg.contains("mm"), "lists known kernels: {msg}");
    }

    #[test]
    fn machine_description_round_trips() {
        for machine in [
            MachineDesc::sgi_r10000(),
            MachineDesc::ultrasparc_iie(),
            MachineDesc::sgi_r10000().scaled(32),
        ] {
            let doc = machine_to_json(&machine);
            let back =
                machine_from_json(&Json::parse(&doc.render()).expect("parses")).expect("machine");
            assert_eq!(back, machine);
        }
        assert!(machine_from_json(&Json::obj()).is_err());
    }
}
