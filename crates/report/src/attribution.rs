//! Memory-hierarchy attribution: model-predicted vs. simulated cost
//! per array reference, per level.
//!
//! The paper's search trusts the static footprint model for screening
//! and constraints, then lets empirical measurement overrule it. This
//! module makes that tension visible: for every variant a run searched,
//! it regenerates the variant's program, re-measures it with per-array
//! attribution ([`eco_core::EvalJob::attributed`]), and joins the simulator's
//! per-tag counters against the static model's per-reference
//! predictions ([`eco_core::model::estimate_refs`]) — one table per
//! variant, one row per array, one column pair per memory level
//! (register-level traffic, each cache, the TLB), flagging the spots
//! where the model misled the search.

use crate::profile::SearchProfile;
use eco_core::model::{estimate_refs, RefEstimate};
use eco_core::{derive_variants, generate, Optimizer, ParamValues};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;

/// Model-vs-simulated figures for one memory level of one array.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelCell {
    /// Level label (`L1`, `L2`, …).
    pub level: String,
    /// Model-predicted misses (0 for arrays the model does not see,
    /// e.g. generated copy buffers).
    pub model: f64,
    /// Simulated misses from the attributed run.
    pub simulated: u64,
}

impl LevelCell {
    /// How far the model is off, as `simulated / model` (`None` when
    /// the model predicts ~0).
    pub fn ratio(&self) -> Option<f64> {
        (self.model > 1e-9).then(|| self.simulated as f64 / self.model)
    }
}

/// One attribution row: one array of the generated program.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Array name in the generated program (copy buffers included).
    pub array: String,
    /// Model-predicted references issued (post register tiling).
    pub refs_model: f64,
    /// Simulated accesses reaching the hierarchy (loads + stores).
    pub refs_sim: u64,
    /// One cell per cache level, then the TLB (label `TLB`).
    pub levels: Vec<LevelCell>,
    /// Human-readable flags (`copy (not modeled)`, `model 8x low at
    /// L2`, …), deterministic order.
    pub flags: Vec<String>,
}

/// The attribution table of one variant.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantAttribution {
    /// Variant name.
    pub variant: String,
    /// Label of the point measured (`initial` or `tuned`).
    pub point: String,
    /// Parameter values the program was generated at (sorted by name).
    pub params: Vec<(String, u64)>,
    /// Problem size.
    pub n: i64,
    /// Measured cycles of the attributed run.
    pub cycles: u64,
    /// One row per array, in `ArrayId` order of the generated program.
    pub rows: Vec<AttributionRow>,
}

/// Where `attribute_run` gets the context it cannot read from the
/// stream itself.
#[derive(Debug, Clone, Default)]
pub struct AttributionOptions {
    /// Machine override; by default the machine is resolved from the
    /// stream's `engine_init` fingerprint.
    pub machine: Option<MachineDesc>,
    /// Tuned parameter values of the selected variant (typically read
    /// from the run manifest); adds a `tuned` table for it.
    pub tuned: Option<(String, Vec<(String, u64)>)>,
    /// Worker threads for the re-measurement pass (0 = auto).
    /// Currently advisory: variants are re-measured serially.
    pub threads: usize,
}

/// Resolves a machine description from the fingerprint recorded by the
/// engine's `engine_init` event, by scanning the workspace's machine
/// models across plausible scale factors.
pub fn resolve_machine(fingerprint: u64) -> Option<MachineDesc> {
    let bases = [MachineDesc::sgi_r10000(), MachineDesc::ultrasparc_iie()];
    for base in &bases {
        if eco_core::machine_fingerprint(base) == fingerprint {
            return Some(base.clone());
        }
        for scale in 2..=256usize {
            // `scaled` panics past its validity limit; stop scanning a
            // base machine once the scale is no longer representable.
            let valid = base
                .caches
                .iter()
                .all(|c| c.capacity_bytes / scale >= c.line_bytes * c.associativity)
                && base.tlb.page_bytes / scale >= base.caches[0].line_bytes;
            if !valid {
                break;
            }
            let m = base.scaled(scale);
            if eco_core::machine_fingerprint(&m) == fingerprint {
                return Some(m);
            }
        }
    }
    None
}

/// The `engine_init` machine fingerprint of a stream, if recorded.
pub fn stream_machine_fingerprint(toplevel: &[eco_events::read::Record]) -> Option<u64> {
    toplevel
        .iter()
        .find(|r| r.name.as_deref() == Some("engine_init"))
        .and_then(|r| r.attr_str("machine_fingerprint"))
        .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
}

fn kernel_by_name(name: &str) -> Option<Kernel> {
    Kernel::all()
        .into_iter()
        .find(|k| k.name == name || k.program.name == name)
}

/// Builds the per-level attribution tables for a profiled run: one per
/// variant the search kept (at the optimizer's initial parameter
/// point), plus a `tuned` table when [`AttributionOptions::tuned`]
/// provides the winning parameters.
///
/// # Errors
///
/// Fails when the kernel or machine cannot be resolved, or when
/// generation/measurement of a variant fails.
pub fn attribute_run(
    profile: &SearchProfile,
    toplevel: &[eco_events::read::Record],
    opts: &AttributionOptions,
) -> Result<Vec<VariantAttribution>, String> {
    let kernel = kernel_by_name(&profile.kernel)
        .ok_or_else(|| format!("unknown kernel '{}' in stream", profile.kernel))?;
    let machine = match &opts.machine {
        Some(m) => m.clone(),
        None => {
            let fp = stream_machine_fingerprint(toplevel)
                .ok_or("stream has no engine_init machine fingerprint; pass --machine/--scale")?;
            resolve_machine(fp).ok_or_else(|| {
                format!("machine fingerprint {fp:#018x} matches no known machine/scale")
            })?
        }
    };
    let n = if profile.search_n > 0 {
        profile.search_n
    } else {
        48
    };
    let nest = eco_analysis::NestInfo::from_program(&kernel.program)
        .map_err(|e| format!("kernel '{}' not analyzable: {e}", kernel.name))?;
    let variants = derive_variants(&nest, &machine, &kernel.program);
    let optimizer = Optimizer::new(machine.clone());

    // Which variants to attribute: the ones the search fully explored,
    // in span order; fall back to the screened list.
    let mut targets: Vec<(String, String, ParamValues)> = Vec::new();
    let names: Vec<String> = if profile.variants.is_empty() {
        profile.screened.iter().map(|(v, _)| v.clone()).collect()
    } else {
        profile.variants.iter().map(|v| v.name.clone()).collect()
    };
    for name in names {
        let Some(variant) = variants.iter().find(|v| v.name == name) else {
            continue;
        };
        targets.push((
            name.clone(),
            "initial".to_string(),
            optimizer.initial_params(variant),
        ));
    }
    if let Some((selected, params)) = &opts.tuned {
        if variants.iter().any(|v| v.name == *selected) {
            let mut values = ParamValues::new();
            for (k, v) in params {
                values.insert(k.clone(), *v);
            }
            targets.push((selected.clone(), "tuned".to_string(), values));
        }
    }

    let mut out = Vec::new();
    for (name, point, params) in targets {
        let variant = variants
            .iter()
            .find(|v| v.name == name)
            .expect("targets built from variants");
        let program = generate(&kernel, &nest, variant, &params, &machine)
            .map_err(|e| format!("{name}: generation failed: {e}"))?;
        let plan = eco_exec::ExecutablePlan::compile(&program)
            .map_err(|e| format!("{name}: compilation failed: {e}"))?;
        let counters = plan
            .measure_attributed(
                &eco_exec::Params::new().with(kernel.size, n),
                &machine,
                &eco_exec::LayoutOptions::default(),
            )
            .map_err(|e| format!("{name}: measurement failed: {e}"))?;
        let model = estimate_refs(&nest, variant, &params, &machine, n as u64);

        // Model predictions per original array (summed over its refs).
        let arrays = &kernel.program;
        let model_for = |array_name: &str| -> Option<Vec<&RefEstimate>> {
            let hits: Vec<&RefEstimate> = model
                .iter()
                .filter(|r| arrays.array(r.array).name == array_name)
                .collect();
            (!hits.is_empty()).then_some(hits)
        };

        let mut rows = Vec::new();
        for (ti, tag) in counters.per_tag.iter().enumerate() {
            let array_name = program
                .arrays
                .get(ti)
                .map_or_else(|| format!("tag{ti}"), |a| a.name.clone());
            let refs = model_for(&array_name);
            let mut flags = Vec::new();
            let refs_model = match &refs {
                Some(rs) => rs.iter().map(|r| r.loads).sum(),
                None => {
                    flags.push("copy (not modeled)".to_string());
                    0.0
                }
            };
            let mut levels = Vec::new();
            for (ci, cache) in machine.caches.iter().enumerate() {
                let model_m = refs
                    .as_ref()
                    .map_or(0.0, |rs| rs.iter().map(|r| r.misses[ci]).sum());
                levels.push(LevelCell {
                    level: cache.name.clone(),
                    model: model_m,
                    simulated: *tag.misses.get(ci).unwrap_or(&0),
                });
            }
            levels.push(LevelCell {
                level: "TLB".to_string(),
                model: refs
                    .as_ref()
                    .map_or(0.0, |rs| rs.iter().map(|r| r.tlb_misses).sum()),
                simulated: tag.tlb_misses,
            });
            // Flag levels where the model is badly off on non-trivial
            // traffic: that is exactly where a model-only search would
            // have been misled.
            for cell in &levels {
                if cell.simulated < 64 && cell.model < 64.0 {
                    continue;
                }
                match cell.ratio() {
                    Some(r) if r >= 4.0 => {
                        flags.push(format!("model {:.0}x low at {}", r, cell.level))
                    }
                    Some(r) if r <= 0.25 => flags.push(format!(
                        "model {:.0}x high at {}",
                        (1.0 / r.max(1e-12)).min(9999.0),
                        cell.level
                    )),
                    None => flags.push(format!("unmodeled traffic at {}", cell.level)),
                    _ => {}
                }
            }
            rows.push(AttributionRow {
                array: array_name,
                refs_model,
                refs_sim: tag.accesses,
                levels,
                flags,
            });
        }
        let mut sorted_params: Vec<(String, u64)> =
            params.iter().map(|(k, v)| (k.clone(), *v)).collect();
        sorted_params.sort();
        out.push(VariantAttribution {
            variant: name,
            point,
            params: sorted_params,
            n,
            cycles: counters.cycles(),
            rows,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_resolution_round_trips_fingerprints() {
        for m in [
            MachineDesc::sgi_r10000(),
            MachineDesc::sgi_r10000().scaled(32),
            MachineDesc::ultrasparc_iie().scaled(8),
        ] {
            let fp = eco_core::machine_fingerprint(&m);
            let resolved = resolve_machine(fp).expect("resolves");
            assert_eq!(eco_core::machine_fingerprint(&resolved), fp);
            assert_eq!(resolved.name, m.name);
        }
        assert!(resolve_machine(0xdead_beef).is_none());
    }
}
