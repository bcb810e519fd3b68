//! The static-certification sweep behind `eco lint`.
//!
//! Derives every Phase-1 variant of a kernel, generates each at its
//! model-derived initial parameters (backing off unroll factors exactly
//! like the search's screening round when register pressure rejects the
//! point), and certifies the result — plus one prefetch-augmented
//! artifact per prefetchable array — against the original kernel with
//! `eco-verify`. CI runs this over the Table-4 / Figure-1 kernels and
//! fails on any diagnostic.

use crate::codegen::generate;
use crate::search::Optimizer;
use crate::variant::derive_variants;
use crate::EcoError;
use eco_analysis::NestInfo;
use eco_ir::ArrayId;
use eco_kernels::Kernel;
use eco_machine::MachineDesc;
use eco_transform::insert_prefetch;
use eco_verify::{certify, Certificate};

/// One certified artifact of a lint sweep.
#[derive(Debug, Clone)]
pub struct LintEntry {
    /// The variant it was generated from.
    pub variant: String,
    /// Which artifact: `base`, or `prefetch ARRAY@D`.
    pub artifact: String,
    /// The certificate (the binding it holds under is recorded inside).
    pub cert: Certificate,
}

/// Certifies every derived variant of `kernel` (no copy-twin pruning:
/// the full Table-4 set) at problem size `n`, each at its model-derived
/// initial parameters, plus one artifact per prefetchable kernel data
/// array at `prefetch_distance`.
///
/// Variants that cannot generate even after unroll backoff are skipped
/// (they are equally unreachable for the search); arrays without
/// prefetchable references are skipped silently.
///
/// # Errors
///
/// Fails only if the kernel itself is unanalyzable.
pub fn lint_kernel(
    kernel: &Kernel,
    machine: &MachineDesc,
    n: i64,
    prefetch_distance: i64,
) -> Result<Vec<LintEntry>, EcoError> {
    let nest = NestInfo::from_program(&kernel.program)?;
    let variants = derive_variants(&nest, machine, &kernel.program);
    let opt = Optimizer::new(machine.clone());
    let binding = vec![(kernel.program.var(kernel.size).name.clone(), n)];
    let mut out = Vec::new();
    for v in &variants {
        let mut params = opt.initial_params(v);
        // The search's screening backoff: halve the largest unroll
        // factor until the point generates.
        let program = loop {
            match generate(kernel, &nest, v, &params, machine) {
                Ok(p) => break Some(p),
                Err(_) => {
                    let Some((nm, val)) = params
                        .iter()
                        .filter(|(nm, _)| nm.starts_with('U'))
                        .max_by_key(|&(_, val)| *val)
                        .map(|(nm, &val)| (nm.clone(), val))
                    else {
                        break None;
                    };
                    if val < 2 {
                        break None;
                    }
                    params.insert(nm, val / 2);
                }
            }
        };
        let Some(program) = program else {
            continue;
        };
        out.push(LintEntry {
            variant: v.name.clone(),
            artifact: "base".into(),
            cert: certify(&kernel.program, &program, &binding),
        });
        let carrier = v.register_carrier();
        // Prefetch artifacts cover the kernel's own data structures
        // (the paper's per-data-structure prefetch search of §3.2);
        // copy buffers are search-discovered artifacts certified by
        // `--certify`. Kernel arrays keep their ids in the generated
        // program — transforms only append copy buffers after them.
        for a in 0..kernel.program.arrays.len() {
            let array = ArrayId(a as u32);
            let Ok(pf) = insert_prefetch(&program, carrier, array, prefetch_distance) else {
                continue; // no prefetchable reference of this array
            };
            out.push(LintEntry {
                variant: v.name.clone(),
                artifact: format!(
                    "prefetch {}@{}",
                    program.array(array).name,
                    prefetch_distance
                ),
                cert: certify(&kernel.program, &pf, &binding),
            });
        }
    }
    Ok(out)
}
