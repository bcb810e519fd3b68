//! Phase 2 of the paper: the model-guided empirical search (§3.2).
//!
//! For each variant the search proceeds in stages:
//!
//! 1. **Tiling parameters** — stages group parameters that share a
//!    constraint (the paper: a parameter associated with two levels puts
//!    both levels in one stage). Within a stage, starting from
//!    model-derived initial values (balanced shape at the constraint's
//!    footprint), a *shape* search doubles one dimension while halving
//!    another at constant footprint; when no shape move helps, the
//!    footprint is halved and the shape search repeats; finally a linear
//!    refinement nudges each parameter.
//! 2. **Prefetching** — one data structure at a time: if a distance-1
//!    prefetch helps, nearby distances are explored and the best kept,
//!    otherwise the prefetch is dropped.
//! 3. **Tile adjustment** — after prefetching, the innermost loop's
//!    tile parameter is grown while it keeps helping.
//!
//! Every point is *executed* on the simulated machine, exactly as the
//! paper executes candidates on real hardware; cycle counts decide.
//! Execution goes through the [`Evaluator`] abstraction from `eco-exec`:
//! independent candidates are submitted as batches, so the engine can
//! deduplicate them against its memo cache and run the rest in parallel.
//! All search decisions are made from batch results in submission order,
//! which keeps the chosen variant, parameters and prefetches independent
//! of the engine's thread count.

use crate::codegen::generate;
use crate::variant::{derive_variants, ParamValues, Variant};
use crate::EcoError;
use eco_analysis::NestInfo;
use eco_exec::events::{Attrs, Json, Scope, SpanId};
use eco_exec::{Counters, EvalJob, Evaluator, Params};
use eco_ir::{ArrayId, Program};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use eco_transform::insert_prefetch;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Candidates per wave for the non-guided (grid/random) strategies: a
/// fixed batch size, *not* the thread count, so search decisions are
/// identical no matter how the engine is configured.
const SWEEP_WAVE: usize = 16;

/// How Phase 2 explores each variant's parameter space.
///
/// [`SearchStrategy::Guided`] is the paper's §3.2 algorithm; the others
/// exist for the ablation the paper's related-work section anticipates
/// ("we anticipate the kind of domain knowledge used in our approach
/// could be effectively combined with such heuristic search
/// techniques") and to quantify what the guidance buys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchStrategy {
    /// The staged model-guided search of §3.2 (default).
    Guided,
    /// Exhaustive power-of-two grid over all parameters, capped.
    Grid {
        /// Maximum points to execute.
        max_points: usize,
    },
    /// Uniform random sampling of feasible power-of-two points.
    Random {
        /// Points to execute.
        points: usize,
        /// Deterministic seed.
        seed: u64,
    },
}

/// Options controlling the empirical search.
///
/// Construct via [`SearchOptions::builder`] to get validation, or fill
/// fields directly (they are validated again when the optimizer runs).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOptions {
    /// Representative problem size at which candidates are executed.
    pub search_n: i64,
    /// Keep at most this many variants for the full search after the
    /// initial screening pass (the models' job is to keep this small).
    pub max_variants: usize,
    /// Prefetch distances explored when distance 1 helps.
    pub prefetch_distances: Vec<i64>,
    /// Keep no-copy twins of copy variants (for ablation studies);
    /// by default the models prefer the copy variant and prune the twin.
    pub keep_copy_alternatives: bool,
    /// Extra problem sizes measured alongside `search_n` for every
    /// point: the paper tunes on "representative input data sets"
    /// (plural), and adding one conflict-prone (power-of-two) size keeps
    /// the search from selecting variants that collapse at pathological
    /// leading dimensions. Empty = single-size tuning.
    pub robustness_sizes: Vec<i64>,
    /// Parameter-space exploration strategy.
    pub strategy: SearchStrategy,
    /// Prune variants whose per-level retained tiles exceed the TLB's
    /// coverage at the initial parameter values (the paper's §4.2:
    /// "taking the TLB behavior into account results in pruning more
    /// variants"). Off by default so search statistics stay comparable
    /// with and without it; `repro` and the tests exercise both.
    pub tlb_prune: bool,
    /// Statically certify every generated candidate (`eco-verify`)
    /// before it is measured: bounds, dependence preservation, scalar
    /// replacement and copy coherence are proven at each tuning size,
    /// and a rejected point is treated as infeasible instead of being
    /// executed. Always on in debug builds; opt-in (`--certify`) in
    /// release builds.
    pub certify: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            search_n: 48,
            max_variants: 4,
            prefetch_distances: vec![1, 2, 4, 8],
            keep_copy_alternatives: false,
            robustness_sizes: Vec::new(),
            strategy: SearchStrategy::Guided,
            tlb_prune: false,
            certify: cfg!(debug_assertions),
        }
    }
}

impl SearchOptions {
    /// A validating builder starting from the defaults.
    pub fn builder() -> SearchOptionsBuilder {
        SearchOptionsBuilder {
            opts: SearchOptions::default(),
            robustness_set: false,
        }
    }

    /// Checks the options for nonsensical budgets.
    ///
    /// # Errors
    ///
    /// Returns [`EcoError::BadParams`] naming the offending field.
    pub fn validate(&self) -> Result<(), EcoError> {
        if self.search_n < 1 {
            return Err(EcoError::BadParams(format!(
                "search_n must be >= 1, got {}",
                self.search_n
            )));
        }
        if self.max_variants == 0 {
            return Err(EcoError::BadParams("max_variants must be >= 1".into()));
        }
        if self.prefetch_distances.is_empty() {
            return Err(EcoError::BadParams(
                "prefetch_distances must not be empty".into(),
            ));
        }
        if let Some(&d) = self.prefetch_distances.iter().find(|&&d| d < 1) {
            return Err(EcoError::BadParams(format!(
                "prefetch distances must be >= 1, got {d}"
            )));
        }
        if let Some(&n) = self.robustness_sizes.iter().find(|&&n| n < 1) {
            return Err(EcoError::BadParams(format!(
                "robustness sizes must be >= 1, got {n}"
            )));
        }
        match self.strategy {
            SearchStrategy::Grid { max_points: 0 } => {
                Err(EcoError::BadParams("grid max_points must be >= 1".into()))
            }
            SearchStrategy::Random { points: 0, .. } => {
                Err(EcoError::BadParams("random points must be >= 1".into()))
            }
            _ => Ok(()),
        }
    }

    /// Renders the options through the order-preserving [`Json`]
    /// builder: stable field order, every field explicit. This is the
    /// canonical serialized form — run manifests embed it verbatim (so
    /// the bytes are golden-gated), [`TuneRequest`](crate::TuneRequest)
    /// fingerprints it, and [`SearchOptions::from_json`] round-trips it.
    pub fn to_json(&self) -> Json {
        let strategy = {
            let doc = Json::obj().field("name", Json::str(strategy_name(&self.strategy)));
            match &self.strategy {
                SearchStrategy::Guided => doc,
                SearchStrategy::Grid { max_points } => {
                    doc.field("max_points", Json::UInt(*max_points as u64))
                }
                SearchStrategy::Random { points, seed } => doc
                    .field("points", Json::UInt(*points as u64))
                    .field("seed", Json::UInt(*seed)),
            }
        };
        Json::obj()
            .field("search_n", Json::Int(self.search_n))
            .field("max_variants", Json::UInt(self.max_variants as u64))
            .field(
                "prefetch_distances",
                Json::Arr(
                    self.prefetch_distances
                        .iter()
                        .map(|&d| Json::Int(d))
                        .collect(),
                ),
            )
            .field(
                "keep_copy_alternatives",
                Json::Bool(self.keep_copy_alternatives),
            )
            .field(
                "robustness_sizes",
                Json::Arr(
                    self.robustness_sizes
                        .iter()
                        .map(|&n| Json::Int(n))
                        .collect(),
                ),
            )
            .field("strategy", strategy)
            .field("tlb_prune", Json::Bool(self.tlb_prune))
            .field("certify", Json::Bool(self.certify))
    }

    /// Parses options previously rendered by [`SearchOptions::to_json`]
    /// and validates them. Every field is required — the serialized
    /// form is explicit, not a patch over the defaults.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed field, or the
    /// [`SearchOptions::validate`] error text for nonsensical budgets.
    pub fn from_json(doc: &Json) -> Result<SearchOptions, String> {
        let field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| format!("options: missing field '{name}'"))
        };
        let int = |name: &str| {
            field(name)?
                .as_i64()
                .ok_or_else(|| format!("options: field '{name}' must be an integer"))
        };
        let uint = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| format!("options: field '{name}' must be a non-negative integer"))
        };
        let boolean = |name: &str| {
            field(name)?
                .as_bool()
                .ok_or_else(|| format!("options: field '{name}' must be a boolean"))
        };
        let ints = |name: &str| -> Result<Vec<i64>, String> {
            match field(name)? {
                Json::Arr(items) => items
                    .iter()
                    .map(|v| {
                        v.as_i64().ok_or_else(|| {
                            format!("options: field '{name}' must hold only integers")
                        })
                    })
                    .collect(),
                _ => Err(format!("options: field '{name}' must be an array")),
            }
        };
        let strategy_doc = field("strategy")?;
        let sub = |name: &str| {
            strategy_doc
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| {
                    format!("options: strategy field '{name}' must be a non-negative integer")
                })
        };
        let strategy = match strategy_doc.get("name").and_then(Json::as_str) {
            Some("guided") => SearchStrategy::Guided,
            Some("grid") => SearchStrategy::Grid {
                max_points: sub("max_points")? as usize,
            },
            Some("random") => SearchStrategy::Random {
                points: sub("points")? as usize,
                seed: sub("seed")?,
            },
            Some(other) => return Err(format!("options: unknown strategy '{other}'")),
            None => return Err("options: strategy must name 'guided', 'grid' or 'random'".into()),
        };
        let opts = SearchOptions {
            search_n: int("search_n")?,
            max_variants: uint("max_variants")? as usize,
            prefetch_distances: ints("prefetch_distances")?,
            keep_copy_alternatives: boolean("keep_copy_alternatives")?,
            robustness_sizes: ints("robustness_sizes")?,
            strategy,
            tlb_prune: boolean("tlb_prune")?,
            certify: boolean("certify")?,
        };
        opts.validate().map_err(|e| e.to_string())?;
        Ok(opts)
    }
}

/// Builder for [`SearchOptions`]; [`SearchOptionsBuilder::build`]
/// rejects zero budgets and explicitly-empty robustness sizes.
#[derive(Debug, Clone)]
pub struct SearchOptionsBuilder {
    opts: SearchOptions,
    robustness_set: bool,
}

impl SearchOptionsBuilder {
    /// Sets the representative search size.
    #[must_use]
    pub fn search_n(mut self, n: i64) -> Self {
        self.opts.search_n = n;
        self
    }

    /// Sets the post-screening variant budget.
    #[must_use]
    pub fn max_variants(mut self, n: usize) -> Self {
        self.opts.max_variants = n;
        self
    }

    /// Sets the prefetch distances explored when distance 1 helps.
    #[must_use]
    pub fn prefetch_distances(mut self, distances: Vec<i64>) -> Self {
        self.opts.prefetch_distances = distances;
        self
    }

    /// Keeps no-copy twins of copy variants (for ablations).
    #[must_use]
    pub fn keep_copy_alternatives(mut self, keep: bool) -> Self {
        self.opts.keep_copy_alternatives = keep;
        self
    }

    /// Sets the extra tuning sizes; passing an empty vector is a build
    /// error (omit the call for single-size tuning).
    #[must_use]
    pub fn robustness_sizes(mut self, sizes: Vec<i64>) -> Self {
        self.opts.robustness_sizes = sizes;
        self.robustness_set = true;
        self
    }

    /// Sets the exploration strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.opts.strategy = strategy;
        self
    }

    /// Enables TLB-based variant pruning (§4.2).
    #[must_use]
    pub fn tlb_prune(mut self, prune: bool) -> Self {
        self.opts.tlb_prune = prune;
        self
    }

    /// Enables (or disables) static certification of every candidate
    /// before measurement. Defaults to on in debug builds.
    #[must_use]
    pub fn certify(mut self, certify: bool) -> Self {
        self.opts.certify = certify;
        self
    }

    /// Validates and returns the options.
    ///
    /// # Errors
    ///
    /// Returns [`EcoError::BadParams`] for zero budgets, empty or
    /// non-positive prefetch distances, non-positive sizes, or an
    /// explicitly-set empty robustness list.
    pub fn build(self) -> Result<SearchOptions, EcoError> {
        if self.robustness_set && self.opts.robustness_sizes.is_empty() {
            return Err(EcoError::BadParams(
                "robustness_sizes set to an empty list; omit the call for single-size tuning"
                    .into(),
            ));
        }
        self.opts.validate()?;
        Ok(self.opts)
    }
}

/// Statistics of one optimization run (the paper's §4.3 search cost).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Code versions actually executed and measured.
    pub points: usize,
    /// Variants produced by Phase 1.
    pub variants_derived: usize,
    /// Variants fully searched after screening.
    pub variants_searched: usize,
    /// Points generated per search stage, stage names sorted
    /// (deterministic; recorded in run manifests).
    pub per_stage: Vec<(String, usize)>,
    /// Unique points statically certified safe before measurement
    /// (0 when certification is off).
    pub points_certified: usize,
    /// Unique points the certifier rejected (never executed).
    pub points_rejected: usize,
    /// How the winning point's cycle count evolved through the stages:
    /// milestones of the selected variant, in search order.
    pub lineage: Vec<LineageStep>,
}

/// One milestone on the winning point's path through the staged
/// search: the best cycle count after `stage` finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageStep {
    /// Stage label (`screen`, `tiles`, `prefetch`, `adjust`).
    pub stage: String,
    /// Best cycles at the end of that stage.
    pub cycles: u64,
}

impl LineageStep {
    /// A milestone for `stage` at `cycles`.
    pub fn new(stage: impl Into<String>, cycles: u64) -> Self {
        LineageStep {
            stage: stage.into(),
            cycles,
        }
    }
}

/// The result of optimizing a kernel.
#[derive(Debug, Clone)]
pub struct Tuned {
    /// The winning variant.
    pub variant: Variant,
    /// Chosen parameter values.
    pub params: ParamValues,
    /// Chosen prefetches: `(array name, distance)`.
    pub prefetches: Vec<(String, i64)>,
    /// The final generated program.
    pub program: Program,
    /// Counters of the final program at the search size.
    pub counters: Counters,
    /// Search cost.
    pub stats: SearchStats,
}

/// The ECO optimizer: Phase 1 variant derivation plus Phase 2
/// model-guided empirical search.
#[derive(Debug, Clone)]
pub struct Optimizer {
    machine: MachineDesc,
    /// Search options (public so callers can tune the budget).
    pub opts: SearchOptions,
}

/// One candidate point of the search: a variant with parameter values
/// and a prefetch plan.
struct Point<'v> {
    variant: &'v Variant,
    params: ParamValues,
    prefetches: Vec<(ArrayId, i64)>,
}

/// Bridges the search to an [`Evaluator`]: generates the program for
/// each point (caching generation, which is pure), batches the
/// measurements, and counts unique generated points for [`SearchStats`].
struct PointEval<'a> {
    kernel: &'a Kernel,
    nest: &'a NestInfo,
    engine: &'a dyn Evaluator,
    sizes: Vec<i64>,
    /// Point key -> generated program (`None` = generation infeasible),
    /// shared with the point's jobs. Measurement results are *not*
    /// cached here — that is the engine's memo cache's job, so repeated
    /// points surface as cache hits.
    programs: HashMap<String, Option<Arc<Program>>>,
    points: usize,
    /// Points generated per stage label (for [`SearchStats::per_stage`]).
    per_stage: BTreeMap<String, usize>,
    /// Current search stage, recorded in trace labels.
    stage: &'static str,
    /// The observability scope (no-op when events are off) and the span
    /// measurements are currently attributed to.
    scope: Scope,
    span: Option<SpanId>,
    /// Statically certify each unique generated point before it may be
    /// measured ([`SearchOptions::certify`]).
    certify: bool,
    /// Unique points proven safe / rejected by the certifier.
    certified: usize,
    rejected: usize,
}

impl PointEval<'_> {
    /// Opens a stage span under the current span and redirects point
    /// attribution into it; returns the state [`PointEval::leave`]
    /// restores.
    fn enter(
        &mut self,
        stage: &'static str,
        attrs: Attrs,
    ) -> (&'static str, Option<SpanId>, Option<SpanId>) {
        let opened = self.scope.span(stage, self.span, attrs);
        let saved = (self.stage, self.span, opened);
        self.stage = stage;
        if opened.is_some() {
            self.span = opened;
        }
        saved
    }

    /// Closes the span opened by the matching [`PointEval::enter`] and
    /// restores the previous stage attribution.
    fn leave(&mut self, saved: (&'static str, Option<SpanId>, Option<SpanId>), attrs: Attrs) {
        let (stage, span, opened) = saved;
        self.scope.close(opened, attrs);
        self.stage = stage;
        self.span = span;
    }
    /// The generated program for a point, `None` if generation or
    /// prefetch insertion is infeasible.
    fn program_for(
        &mut self,
        variant: &Variant,
        params: &ParamValues,
        prefetches: &[(ArrayId, i64)],
    ) -> Option<Arc<Program>> {
        let key = format!("{}|{params:?}|{prefetches:?}", variant.name);
        if let Some(hit) = self.programs.get(&key) {
            return hit.clone();
        }
        let mut program = (|| -> Option<Program> {
            let mut program = generate(
                self.kernel,
                self.nest,
                variant,
                params,
                self.engine.machine(),
            )
            .ok()?;
            let carrier = variant.register_carrier();
            for &(array, dist) in prefetches {
                program = insert_prefetch(&program, carrier, array, dist).ok()?;
            }
            Some(program)
        })();
        // Translation validation: prove the candidate safe at every
        // tuning size before it is allowed anywhere near the engine.
        // Each unique point is certified once (this cache) and the
        // verdict becomes a typed event.
        if self.certify {
            if let Some(p) = &program {
                let size_name = self.kernel.program.var(self.kernel.size).name.clone();
                let verdict = self.sizes.iter().find_map(|&n| {
                    let cert =
                        eco_verify::certify(&self.kernel.program, p, &[(size_name.clone(), n)]);
                    cert.first_error().map(|code| {
                        let msg = cert
                            .diagnostics
                            .iter()
                            .find(|d| d.code == code)
                            .map(|d| d.message.clone())
                            .unwrap_or_default();
                        (code, msg, n)
                    })
                });
                match verdict {
                    Some((code, msg, n)) => {
                        self.rejected += 1;
                        self.scope.event(
                            "certify",
                            self.span,
                            Attrs::new()
                                .str("variant", &variant.name)
                                .bool("ok", false)
                                .str("code", code.as_str())
                                .str("msg", &msg)
                                .int("n", n),
                        );
                        program = None;
                    }
                    None => {
                        self.certified += 1;
                        self.scope.event(
                            "certify",
                            self.span,
                            Attrs::new().str("variant", &variant.name).bool("ok", true),
                        );
                    }
                }
            }
        }
        if program.is_some() {
            self.points += 1;
            *self.per_stage.entry(self.stage.to_string()).or_insert(0) += 1;
        }
        let program = program.map(Arc::new);
        self.programs.insert(key, program.clone());
        program
    }

    /// Measures a batch of points; per point, the total cycles over all
    /// tuning sizes, or `None` if generation or any measurement failed.
    /// Results are in submission order regardless of engine parallelism.
    fn eval_batch(&mut self, pts: &[Point<'_>]) -> Vec<Option<u64>> {
        let mut jobs: Vec<EvalJob> = Vec::new();
        let mut spans: Vec<Option<std::ops::Range<usize>>> = Vec::with_capacity(pts.len());
        for pt in pts {
            match self.program_for(pt.variant, &pt.params, &pt.prefetches) {
                Some(program) => {
                    let start = jobs.len();
                    for &n in &self.sizes {
                        jobs.push(
                            EvalJob::new(
                                Arc::clone(&program),
                                Params::new().with(self.kernel.size, n),
                            )
                            .with_label(format!("{}/{}", pt.variant.name, self.stage))
                            .in_span(self.span),
                        );
                    }
                    spans.push(Some(start..jobs.len()));
                }
                None => spans.push(None),
            }
        }
        let results = self.engine.eval_batch(&jobs);
        spans
            .into_iter()
            .map(|span| {
                let mut total = 0u64;
                for r in &results[span?] {
                    total += r.as_ref().ok()?.cycles();
                }
                Some(total)
            })
            .collect()
    }

    /// Measures a single point.
    fn eval_one(
        &mut self,
        variant: &Variant,
        params: &ParamValues,
        prefetches: &[(ArrayId, i64)],
    ) -> Option<u64> {
        self.eval_batch(&[Point {
            variant,
            params: params.clone(),
            prefetches: prefetches.to_vec(),
        }])[0]
    }

    /// Measures many parameter candidates of one variant (no prefetch).
    fn eval_params(&mut self, variant: &Variant, cands: &[ParamValues]) -> Vec<Option<u64>> {
        let pts: Vec<Point<'_>> = cands
            .iter()
            .map(|params| Point {
                variant,
                params: params.clone(),
                prefetches: Vec::new(),
            })
            .collect();
        self.eval_batch(&pts)
    }
}

impl Optimizer {
    /// An optimizer for `machine` with default search options.
    pub fn new(machine: MachineDesc) -> Self {
        Optimizer {
            machine,
            opts: SearchOptions::default(),
        }
    }

    /// The machine this optimizer targets.
    pub fn machine(&self) -> &MachineDesc {
        &self.machine
    }

    /// Runs the full two-phase optimization against a caller-supplied
    /// [`Evaluator`] (shared engines amortize the memo cache across
    /// kernels and baselines; tests substitute counting evaluators).
    ///
    /// # Errors
    ///
    /// Fails on invalid options, an engine targeting a different
    /// machine, an unanalyzable kernel, or when no variant could be
    /// generated and measured.
    pub fn run_with(&self, kernel: &Kernel, engine: &dyn Evaluator) -> Result<Tuned, EcoError> {
        self.opts.validate()?;
        if engine.machine() != &self.machine {
            return Err(EcoError::BadParams(format!(
                "engine simulates '{}' but the optimizer targets '{}'",
                engine.machine().name,
                self.machine.name
            )));
        }
        let scope = Scope::new(engine.events().cloned());
        let root = scope.span(
            "optimize",
            None,
            Attrs::new()
                .str("kernel", &kernel.program.name)
                .int("search_n", self.opts.search_n)
                .str("strategy", strategy_name(&self.opts.strategy)),
        );
        let result = self.search(kernel, engine, &scope, root);
        match &result {
            Ok(t) => scope.close(
                root,
                Attrs::new()
                    .uint("points", t.stats.points as u64)
                    .str("selected", &t.variant.name)
                    .uint("cycles", t.counters.cycles()),
            ),
            Err(e) => scope.close(root, Attrs::new().str("error", e.to_string())),
        }
        scope.flush();
        result
    }

    /// The body of [`Optimizer::run_with`], running inside the
    /// `optimize` root span (the caller closes it on every path).
    fn search(
        &self,
        kernel: &Kernel,
        engine: &dyn Evaluator,
        scope: &Scope,
        root: Option<SpanId>,
    ) -> Result<Tuned, EcoError> {
        let nest = NestInfo::from_program(&kernel.program)?;
        let mut variants = derive_variants(&nest, &self.machine, &kernel.program);
        let variants_derived = variants.len();
        if !self.opts.keep_copy_alternatives {
            variants = prune_copy_twins(variants);
        }
        if self.opts.tlb_prune {
            let kept: Vec<Variant> = variants
                .iter()
                .filter(|v| self.tlb_feasible(&nest, v, self.opts.search_n.unsigned_abs()))
                .cloned()
                .collect();
            // Best-effort: if the model rejects everything, fall back to
            // the unpruned set rather than failing.
            if !kept.is_empty() {
                variants = kept;
            }
        }
        if variants.is_empty() {
            return Err(EcoError::NoVariants);
        }
        let mut sizes = vec![self.opts.search_n];
        sizes.extend(self.opts.robustness_sizes.iter().copied());
        let mut ev = PointEval {
            kernel,
            nest: &nest,
            engine,
            sizes,
            programs: HashMap::new(),
            points: 0,
            per_stage: BTreeMap::new(),
            stage: "screen",
            scope: scope.clone(),
            span: root,
            certify: self.opts.certify,
            certified: 0,
            rejected: 0,
        };

        // ---- screening: one model-derived point per variant ----
        // The register constraint is only an upper bound (rotating
        // replacement needs a ring per reference group), so back off the
        // unroll factors until the point generates — the paper's "the
        // search detects the largest unroll factors that do not cause
        // register pressure". All variants still screening in a round
        // are evaluated as one batch.
        let screen_span = ev.enter(
            "screen",
            Attrs::new().uint("variants", variants.len() as u64),
        );
        let mut slots: Vec<(Variant, ParamValues, Option<u64>)> = variants
            .into_iter()
            .map(|v| {
                let init = self.initial_params(&v);
                (v, init, None)
            })
            .collect();
        let mut active: Vec<usize> = (0..slots.len()).collect();
        for _round in 0..8 {
            if active.is_empty() {
                break;
            }
            let results = {
                let pts: Vec<Point<'_>> = active
                    .iter()
                    .map(|&s| Point {
                        variant: &slots[s].0,
                        params: slots[s].1.clone(),
                        prefetches: Vec::new(),
                    })
                    .collect();
                ev.eval_batch(&pts)
            };
            let mut still = Vec::new();
            for (k, &s) in active.iter().enumerate() {
                match results[k] {
                    Some(c) => slots[s].2 = Some(c),
                    None => {
                        let Some((nm, val)) = slots[s]
                            .1
                            .iter()
                            .filter(|(n, _)| n.starts_with('U'))
                            .max_by_key(|&(_, v)| *v)
                            .map(|(n, &v)| (n.clone(), v))
                        else {
                            continue;
                        };
                        if val < 2 {
                            continue;
                        }
                        slots[s].1.insert(nm, val / 2);
                        still.push(s);
                    }
                }
            }
            active = still;
        }
        let mut screened: Vec<(Variant, ParamValues, u64)> = slots
            .into_iter()
            .filter_map(|(v, init, c)| c.map(|c| (v, init, c)))
            .collect();
        screened.sort_by_key(|&(_, _, c)| c);
        screened.truncate(self.opts.max_variants);
        let variants_searched = screened.len();
        for (v, _, c) in &screened {
            ev.scope.event(
                "variant_kept",
                ev.span,
                Attrs::new().str("variant", &v.name).uint("cycles", *c),
            );
        }
        ev.leave(
            screen_span,
            Attrs::new().uint("kept", variants_searched as u64),
        );
        if screened.is_empty() {
            return Err(EcoError::NoVariants);
        }

        // ---- full search per surviving variant ----
        type BestPoint = (
            Variant,
            ParamValues,
            Vec<(ArrayId, i64)>,
            u64,
            Vec<LineageStep>,
        );
        let mut best: Option<BestPoint> = None;
        for (variant, init, screen_cycles) in screened {
            let mut params = init;
            let mut lineage = vec![LineageStep::new("screen", screen_cycles)];
            let vsaved = ev.span;
            let vspan = ev.scope.span(
                "variant",
                ev.span,
                Attrs::new().str("variant", &variant.name),
            );
            if vspan.is_some() {
                ev.span = vspan;
            }
            ev.stage = "tiles";
            match &self.opts.strategy {
                SearchStrategy::Guided => {
                    for stage in stages(&variant) {
                        self.stage_search(&mut ev, &variant, &mut params, &stage);
                    }
                }
                SearchStrategy::Grid { max_points } => {
                    grid_search(&mut ev, &variant, &mut params, *max_points);
                }
                SearchStrategy::Random { points, seed } => {
                    random_search(&mut ev, &variant, &mut params, *points, *seed);
                }
            }
            ev.stage = "tiles";
            let mut cycles = match ev.eval_one(&variant, &params, &[]) {
                Some(c) => c,
                None => {
                    ev.scope
                        .close(vspan, Attrs::new().str("outcome", "infeasible"));
                    ev.span = vsaved;
                    continue;
                }
            };
            lineage.push(LineageStep::new("tiles", cycles));
            // prefetch search, one data structure at a time
            let pf_span = ev.enter("prefetch", Attrs::new());
            let mut plan: Vec<(ArrayId, i64)> = Vec::new();
            for (array, array_name) in self.prefetch_candidates(&ev, &variant, &params) {
                let decision = |ev: &mut PointEval<'_>, kept: bool, d: i64, cycles: u64| {
                    ev.scope.event(
                        "prefetch_decision",
                        ev.span,
                        Attrs::new()
                            .str("array", &array_name)
                            .bool("kept", kept)
                            .int("distance", d)
                            .uint("cycles", cycles),
                    );
                };
                let mut cand: Vec<(ArrayId, i64)> = plan.clone();
                cand.push((array, 1));
                let Some(c1) = ev.eval_one(&variant, &params, &cand) else {
                    continue;
                };
                if c1 >= cycles {
                    decision(&mut ev, false, 1, c1);
                    continue; // no benefit: remove the prefetch
                }
                // Distance 1 helps: sweep the other distances as one
                // batch and keep the earliest minimum (matching the
                // serial strict-`<` scan).
                let sweep = {
                    let pts: Vec<Point<'_>> = self.opts.prefetch_distances[1..]
                        .iter()
                        .map(|&d| {
                            let mut pf = cand.clone();
                            pf.last_mut().expect("candidate").1 = d;
                            Point {
                                variant: &variant,
                                params: params.clone(),
                                prefetches: pf,
                            }
                        })
                        .collect();
                    ev.eval_batch(&pts)
                };
                let mut best_d = (1, c1);
                for (&d, r) in self.opts.prefetch_distances[1..].iter().zip(&sweep) {
                    if let Some(c) = r {
                        if *c < best_d.1 {
                            best_d = (d, *c);
                        }
                    }
                }
                cand.last_mut().expect("candidate").1 = best_d.0;
                plan.push((array, best_d.0));
                cycles = best_d.1;
                decision(&mut ev, true, best_d.0, best_d.1);
            }
            ev.leave(pf_span, Attrs::new().uint("kept", plan.len() as u64));
            lineage.push(LineageStep::new("prefetch", cycles));
            // adjust tiling after prefetch: grow the innermost tile
            let adj_span = ev.enter("adjust", Attrs::new());
            if let Some(nm) = variant.tile_param(variant.register_carrier()) {
                let nm = nm.to_string();
                loop {
                    let mut cand = params.clone();
                    let v = cand[&nm] * 2;
                    cand.insert(nm.clone(), v);
                    match ev.eval_one(&variant, &cand, &plan) {
                        Some(c) if c < cycles => {
                            params = cand;
                            cycles = c;
                        }
                        _ => break,
                    }
                }
            }
            ev.leave(adj_span, Attrs::new().uint("cycles", cycles));
            lineage.push(LineageStep::new("adjust", cycles));
            ev.scope.close(vspan, Attrs::new().uint("cycles", cycles));
            ev.span = vsaved;
            if best.as_ref().is_none_or(|&(_, _, _, b, _)| cycles < b) {
                best = Some((variant, params, plan, cycles, lineage));
            }
        }

        let (variant, params, plan, _, lineage) = best.ok_or(EcoError::NoVariants)?;
        let mut program = generate(kernel, &nest, &variant, &params, &self.machine)?;
        let mut prefetches = Vec::new();
        for &(array, d) in &plan {
            program = insert_prefetch(&program, variant.register_carrier(), array, d)?;
            prefetches.push((program.array(array).name.clone(), d));
        }
        let exec_params = Params::new().with(kernel.size, self.opts.search_n);
        let program = Arc::new(program);
        let counters = engine.eval(
            EvalJob::new(Arc::clone(&program), exec_params)
                .with_label(format!("{}/final", variant.name))
                .in_span(root),
        )?;
        let program = Arc::unwrap_or_clone(program);
        Ok(Tuned {
            variant,
            params,
            prefetches,
            program,
            counters,
            stats: SearchStats {
                points: ev.points,
                variants_derived,
                variants_searched,
                per_stage: ev.per_stage.into_iter().collect(),
                points_certified: ev.certified,
                points_rejected: ev.rejected,
                lineage,
            },
        })
    }

    /// True if every cache level's retained tile can fit the TLB's page
    /// coverage for *some* parameter setting — evaluated at the smallest
    /// plausible tile values (4), so only variants that no tuning can
    /// save are pruned. This is the §4.2 pruning model ("variants with
    /// tiling for both L1 and L2 are pruned, as they would suffer cache
    /// and TLB conflicts"); untiled loops count at their full trip,
    /// which is exactly what dooms the pruned shapes. Public so
    /// ablations can query it directly.
    pub fn tlb_feasible(&self, nest: &NestInfo, variant: &Variant, n: u64) -> bool {
        use eco_analysis::footprint::{footprint_pages, Trips};
        let page_elems = (self.machine.tlb.page_bytes / 8) as u64;
        let vars: Vec<eco_ir::VarId> = nest.loop_vars();
        for level in &variant.levels[1..] {
            if level.retained.is_empty() {
                continue;
            }
            let mut trips = Trips::with_default(1);
            for &v in &vars {
                let t = if v == level.carrier {
                    1
                } else if variant.tile_param(v).is_some() {
                    4.min(n)
                } else {
                    n
                };
                trips = trips.set(v, t);
            }
            let pages = footprint_pages(nest, &level.retained, &trips, page_elems, n);
            if pages > self.machine.tlb.entries as u64 {
                return false;
            }
        }
        true
    }

    /// Model-derived initial parameter values: each constraint's
    /// footprint is spread evenly (power-of-two) across its parameters,
    /// the tightest constraint winning.
    pub fn initial_params(&self, variant: &Variant) -> ParamValues {
        let mut values: ParamValues = ParamValues::new();
        for name in variant.param_names() {
            values.insert(name, 0);
        }
        for c in variant.constraints() {
            if c.bound == u64::MAX || c.factors.is_empty() {
                continue;
            }
            let share = nice_root(c.bound, c.factors.len() as u32);
            for f in &c.factors {
                let cur = values.get(f).copied().unwrap_or(0);
                if cur == 0 || share < cur {
                    values.insert(f.clone(), share);
                }
            }
        }
        for (_, v) in values.iter_mut() {
            if *v == 0 {
                *v = 32; // unconstrained parameter: a moderate default
            }
        }
        values
    }

    /// One search stage: shape moves at constant footprint, footprint
    /// halving, then linear refinement (§3.2). All candidates of one
    /// decision round are submitted as a single batch; the winner is the
    /// best improving candidate, ties broken by submission order, so the
    /// outcome never depends on evaluation order.
    fn stage_search(
        &self,
        ev: &mut PointEval<'_>,
        variant: &Variant,
        params: &mut ParamValues,
        stage: &[String],
    ) {
        let group = ev.enter("stage", Attrs::new().str("params", stage.join(",")));
        ev.stage = "tiles";
        let Some(mut best) = ev.eval_one(variant, params, &[]) else {
            ev.leave(group, Attrs::new().str("outcome", "infeasible"));
            return;
        };
        let shape_pass = |ev: &mut PointEval<'_>, params: &mut ParamValues, best: &mut u64| {
            if stage.len() < 2 {
                return;
            }
            let span = ev.enter("shape", Attrs::new());
            loop {
                // Propose every double-one/halve-another move from the
                // current point, evaluate them together, keep the best.
                let mut cands: Vec<ParamValues> = Vec::new();
                for i in 0..stage.len() {
                    for j in 0..stage.len() {
                        if i == j || params[&stage[j]] < 2 {
                            continue;
                        }
                        let mut cand = params.clone();
                        cand.insert(stage[i].clone(), params[&stage[i]] * 2);
                        cand.insert(stage[j].clone(), params[&stage[j]] / 2);
                        cands.push(cand);
                    }
                }
                if cands.is_empty() {
                    break;
                }
                let results = ev.eval_params(variant, &cands);
                let mut pick: Option<usize> = None;
                for (k, r) in results.iter().enumerate() {
                    if let Some(c) = r {
                        if *c < *best && pick.is_none_or(|p| *c < results[p].expect("picked")) {
                            pick = Some(k);
                        }
                    }
                }
                match pick {
                    Some(k) => {
                        *best = results[k].expect("picked");
                        *params = cands[k].clone();
                    }
                    None => break,
                }
            }
            ev.leave(span, Attrs::new().uint("cycles", *best));
        };
        shape_pass(ev, params, &mut best);
        // footprint halving
        let halve_span = ev.enter("halve", Attrs::new());
        loop {
            let largest = stage
                .iter()
                .max_by_key(|nm| params[*nm])
                .expect("stage nonempty")
                .clone();
            if params[&largest] < 2 {
                break;
            }
            let saved = params.clone();
            let saved_best = best;
            params.insert(largest.clone(), params[&largest] / 2);
            match ev.eval_one(variant, params, &[]) {
                Some(c) if c < best => {
                    best = c;
                    shape_pass(ev, params, &mut best);
                }
                _ => {
                    *params = saved;
                    best = saved_best;
                    break;
                }
            }
        }
        ev.leave(halve_span, Attrs::new().uint("cycles", best));
        // linear refinement: both nudges of a parameter go out as one
        // batch; the up-move wins ties, like the serial scan it replaces.
        let refine_span = ev.enter("refine", Attrs::new());
        for nm in stage {
            loop {
                let cur = params[nm];
                let step = (cur / 4).max(1);
                let nudges: Vec<u64> = [cur + step, cur.saturating_sub(step).max(1)]
                    .into_iter()
                    .filter(|&v| v != cur)
                    .collect();
                let cands: Vec<ParamValues> = nudges
                    .iter()
                    .map(|&v| {
                        let mut cand = params.clone();
                        cand.insert(nm.clone(), v);
                        cand
                    })
                    .collect();
                let results = ev.eval_params(variant, &cands);
                let mut moved = false;
                for (k, r) in results.iter().enumerate() {
                    if let Some(c) = r {
                        if *c < best {
                            best = *c;
                            *params = cands[k].clone();
                            moved = true;
                            break;
                        }
                    }
                }
                if !moved {
                    break;
                }
            }
        }
        ev.leave(refine_span, Attrs::new().uint("cycles", best));
        ev.leave(group, Attrs::new().uint("cycles", best));
    }

    /// Arrays referenced in the generated innermost loop — the prefetch
    /// candidates, tried one at a time — with their names (ids index the
    /// *generated* program, which may add copy buffers the kernel
    /// program does not have).
    fn prefetch_candidates(
        &self,
        ev: &PointEval<'_>,
        variant: &Variant,
        params: &ParamValues,
    ) -> Vec<(ArrayId, String)> {
        let Ok(program) = generate(ev.kernel, ev.nest, variant, params, &self.machine) else {
            return Vec::new();
        };
        let Some(inner) = program.find_loop(variant.register_carrier()) else {
            return Vec::new();
        };
        let mut arrays = Vec::new();
        for s in &inner.body {
            s.for_each_ref(&mut |r, _| {
                if !arrays.iter().any(|&(a, _)| a == r.array) {
                    arrays.push((r.array, program.array(r.array).name.clone()));
                }
            });
        }
        arrays
    }
}

/// The short tag naming a [`SearchStrategy`] in the root `optimize`
/// span and in run manifests.
pub fn strategy_name(s: &SearchStrategy) -> &'static str {
    match s {
        SearchStrategy::Guided => "guided",
        SearchStrategy::Grid { .. } => "grid",
        SearchStrategy::Random { .. } => "random",
    }
}

/// Groups a variant's parameters into search stages: parameters sharing
/// a constraint search together (the paper's "same stage" rule for
/// shared parameters like TK); the register-level unrolls always form
/// the first stage.
pub fn stages(variant: &Variant) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = Vec::new();
    let reg: Vec<String> = variant.levels[0]
        .unrolls
        .iter()
        .map(|(_, n)| n.clone())
        .collect();
    if !reg.is_empty() {
        out.push(reg);
    }
    for level in &variant.levels[1..] {
        let mut names: Vec<String> = level.tiles.iter().map(|(_, n)| n.clone()).collect();
        // pull in shared parameters from this level's constraint
        for f in &level.constraint.factors {
            if f.starts_with('T') && !names.contains(f) {
                names.push(f.clone());
            }
        }
        names.retain(|n| !out.iter().any(|s| s.contains(n)));
        if names.is_empty() {
            continue;
        }
        // merge with an earlier stage if a constraint factor lives there
        let linked = out.iter().position(|s| {
            level
                .constraint
                .factors
                .iter()
                .any(|f| s.contains(f) && f.starts_with('T'))
        });
        match linked {
            Some(i) => out[i].extend(names),
            None => out.push(names),
        }
    }
    out
}

/// Drops no-copy twins when a structurally-identical copy variant
/// exists (the models prefer copying; §3.1.2).
fn prune_copy_twins(variants: Vec<Variant>) -> Vec<Variant> {
    let key = |v: &Variant| -> String {
        v.levels
            .iter()
            .map(|l| format!("{}:{:?}:{:?}:{:?};", l.level, l.carrier, l.tiles, l.unrolls))
            .collect()
    };
    let copies = |v: &Variant| v.levels.iter().filter(|l| l.copy.is_some()).count();
    let mut best: Vec<Variant> = Vec::new();
    for v in variants {
        let k = key(&v);
        match best.iter_mut().find(|b| key(b) == k) {
            Some(b) => {
                if copies(&v) > copies(b) {
                    *b = v;
                }
            }
            None => best.push(v),
        }
    }
    best
}

/// Rounds `bound^(1/k)` down to a power of two (the search's favoured
/// "nice" values: multiples compose well with unroll factors).
fn nice_root(bound: u64, k: u32) -> u64 {
    let root = (bound as f64).powf(1.0 / k as f64);
    let mut v = 1u64;
    while (v * 2) as f64 <= root {
        v *= 2;
    }
    v.max(1)
}

/// The power-of-two candidate values a non-guided strategy considers
/// for each parameter.
fn pow2_candidates(variant: &Variant, name: &str) -> Vec<u64> {
    // bound by the tightest constraint mentioning the parameter
    let cap = variant
        .constraints()
        .iter()
        .filter(|c| c.factors.iter().any(|f| f == name))
        .map(|c| c.bound)
        .min()
        .unwrap_or(256)
        .min(256);
    let mut v = Vec::new();
    let mut x = 1u64;
    while x <= cap {
        v.push(x);
        x *= 2;
    }
    v
}

/// Exhaustive (capped) power-of-two grid search over all parameters,
/// submitted in fixed-size waves ([`SWEEP_WAVE`]) so the engine can
/// parallelize without affecting which point wins.
fn grid_search(
    ev: &mut PointEval<'_>,
    variant: &Variant,
    params: &mut ParamValues,
    max_points: usize,
) {
    let names = variant.param_names();
    let candidates: Vec<Vec<u64>> = names.iter().map(|n| pow2_candidates(variant, n)).collect();
    let mut best = ev.eval_one(variant, params, &[]);
    let mut idx = vec![0usize; names.len()];
    let mut exhausted = false;
    let mut executed = 0usize;
    while !exhausted && executed < max_points {
        // Collect the next wave of feasible grid points in odometer
        // order.
        let mut wave: Vec<ParamValues> = Vec::new();
        'fill: while wave.len() < SWEEP_WAVE {
            let mut cand = params.clone();
            for (i, n) in names.iter().enumerate() {
                cand.insert(n.clone(), candidates[i][idx[i]]);
            }
            // odometer increment
            let mut rolled = true;
            for i in 0..names.len() {
                idx[i] += 1;
                if idx[i] < candidates[i].len() {
                    rolled = false;
                    break;
                }
                idx[i] = 0;
            }
            if variant.feasible(&cand) {
                wave.push(cand);
            }
            if rolled || names.is_empty() {
                exhausted = true;
                break 'fill;
            }
        }
        let results = ev.eval_params(variant, &wave);
        for (cand, r) in wave.iter().zip(&results) {
            if let Some(c) = r {
                executed += 1;
                if best.is_none_or(|b| *c < b) {
                    best = Some(*c);
                    *params = cand.clone();
                }
                if executed >= max_points {
                    break;
                }
            }
        }
    }
}

/// Uniform random sampling of feasible power-of-two points (a simple
/// deterministic LCG; no RNG dependency needed in the optimizer),
/// submitted in fixed-size waves like [`grid_search`].
fn random_search(
    ev: &mut PointEval<'_>,
    variant: &Variant,
    params: &mut ParamValues,
    points: usize,
    seed: u64,
) {
    let names = variant.param_names();
    let candidates: Vec<Vec<u64>> = names.iter().map(|n| pow2_candidates(variant, n)).collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % m.max(1)
    };
    let mut best = ev.eval_one(variant, params, &[]);
    let mut executed = 0usize;
    let mut attempts = 0usize;
    while executed < points && attempts < points * 20 {
        let mut wave: Vec<ParamValues> = Vec::new();
        while wave.len() < SWEEP_WAVE && attempts < points * 20 {
            attempts += 1;
            let mut cand = params.clone();
            for (i, n) in names.iter().enumerate() {
                cand.insert(n.clone(), candidates[i][next(candidates[i].len())]);
            }
            if variant.feasible(&cand) {
                wave.push(cand);
            }
        }
        let results = ev.eval_params(variant, &wave);
        for (cand, r) in wave.iter().zip(&results) {
            if let Some(c) = r {
                executed += 1;
                if best.is_none_or(|b| *c < b) {
                    best = Some(*c);
                    *params = cand.clone();
                }
                if executed >= points {
                    break;
                }
            }
        }
    }
}
