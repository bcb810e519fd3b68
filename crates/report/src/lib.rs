//! Trace analysis and reporting for ECO search runs.
//!
//! The search emits a JSONL event stream (`--events`); this crate turns
//! that stream back into something a person can reason about:
//!
//! - [`profile`] — reconstructs the span tree and derives the search
//!   profile: per-stage and per-variant wall time, point counts, memo
//!   hit rates, and the best-point lineage.
//! - [`attribution`] — re-measures each searched variant with
//!   per-array attribution and joins the simulator's counters against
//!   the static footprint model, level by level, flagging where the
//!   model misled the search.
//! - [`render`] — deterministic ASCII and CSV renderings.
//! - [`html`] — a self-contained static HTML report with inline SVG
//!   (stage timeline, search-landscape heatmap, best-so-far
//!   trajectory).
//!
//! The entry point is [`analyze_stream`]: validate with
//! [`eco_events::check_stream`], parse with
//! [`eco_events::read::read_records`], build the tree and profile, and
//! optionally attribute. Every rendering of the resulting [`RunReport`]
//! is byte-deterministic.

pub mod attribution;
pub mod html;
pub mod profile;
pub mod render;

pub use attribution::{
    attribute_run, resolve_machine, stream_machine_fingerprint, AttributionOptions, AttributionRow,
    LevelCell, VariantAttribution,
};
pub use html::render_html;
pub use profile::{LineageNode, SearchProfile, SpanNode, SpanTree, StageRow, VariantRow};
pub use render::{
    render_attribution_ascii, render_attribution_csv, render_profile_ascii, render_profile_csv,
};

use eco_events::read::read_records;
use eco_events::StreamSummary;

/// Chunk size [`analyze_stream`] hands to [`read_records`]: the text is
/// already in memory and the parse is the same at any chunk size.
const READ_CHUNK: usize = 64 * 1024;

/// How [`analyze_stream`] enriches a stream.
#[derive(Debug, Clone, Default)]
pub struct ReportOptions {
    /// Whether to run the attributed re-measurement pass. Off by
    /// default: it needs the kernel and machine to be resolvable.
    pub attribute: bool,
    /// Context for the attribution pass.
    pub attribution: AttributionOptions,
}

/// Everything derived from one event stream.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Where the stream came from (file name or label).
    pub source: String,
    /// Number of records in the stream.
    pub records: usize,
    /// Invariant-checker summary of the stream.
    pub summary: StreamSummary,
    /// The reconstructed span forest.
    pub tree: SpanTree,
    /// The derived search profile.
    pub profile: SearchProfile,
    /// Per-variant attribution tables (empty unless
    /// [`ReportOptions::attribute`] was set and succeeded).
    pub attribution: Vec<VariantAttribution>,
    /// Why attribution was skipped, when it was requested but failed
    /// (e.g. a synthetic stream with no resolvable kernel).
    pub attribution_error: Option<String>,
}

/// Analyzes one JSONL event stream into a [`RunReport`].
///
/// # Errors
///
/// Fails when the stream violates the emitter invariants
/// ([`eco_events::check_stream`]), cannot be parsed into records, or
/// has malformed span nesting. A failed attribution pass is recorded in
/// [`RunReport::attribution_error`] rather than failing the report.
pub fn analyze_stream(text: &str, source: &str, opts: &ReportOptions) -> Result<RunReport, String> {
    let summary = eco_events::check_stream(text).map_err(|e| format!("{source}: {e}"))?;
    let records =
        read_records(text.as_bytes(), READ_CHUNK).map_err(|e| format!("{source}: {e}"))?;
    let tree = SpanTree::build(&records).map_err(|e| format!("{source}: {e}"))?;
    let profile = SearchProfile::from_tree(&tree);
    let (attribution, attribution_error) = if opts.attribute {
        match attribute_run(&profile, &tree.toplevel, &opts.attribution) {
            Ok(tables) => (tables, None),
            Err(e) => (Vec::new(), Some(e)),
        }
    } else {
        (Vec::new(), None)
    };
    Ok(RunReport {
        source: source.to_string(),
        records: records.len(),
        summary,
        tree,
        profile,
        attribution,
        attribution_error,
    })
}
