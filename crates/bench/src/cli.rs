//! Flag parsing shared by the `eco` and `repro` binaries (and their
//! `serve`/`client` subcommands): the machine selection
//! (`--machine`/`--scale`) and the engine flags
//! (`--threads`/`--store`) used to be parsed ad hoc in each
//! binary; this module is the one place their names, defaults and error
//! messages live.

use eco_exec::EngineConfig;
use eco_machine::MachineDesc;

/// Pulls the value of `--flag` off the argument iterator.
///
/// # Errors
///
/// Returns `"<flag> needs a value"` when the arguments end early.
pub fn flag_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Resolves `--machine NAME --scale F` to a machine description:
/// `sgi` or `sun`, shrunk by `scale` when it is above 1.
///
/// # Errors
///
/// Returns a message listing the known machine names, or rejects a
/// zero scale.
pub fn parse_machine(name: &str, scale: usize) -> Result<MachineDesc, String> {
    if scale == 0 {
        return Err("--scale must be positive".to_string());
    }
    let base = match name {
        "sgi" => MachineDesc::sgi_r10000(),
        "sun" => MachineDesc::ultrasparc_iie(),
        other => return Err(format!("unknown machine {other} (sgi|sun)")),
    };
    Ok(if scale > 1 { base.scaled(scale) } else { base })
}

/// The engine flags every command accepts: thread count and the
/// persistent result store. Defaults: auto threads, no store.
#[derive(Debug, Clone, Default)]
pub struct EngineFlags {
    /// `--threads N` (0 = auto).
    pub threads: usize,
    /// `--store DIR`: root of the on-disk result store shared across
    /// processes (see `eco-store`).
    pub store: Option<String>,
}

impl EngineFlags {
    /// Fresh flags with the defaults.
    pub fn new() -> Self {
        EngineFlags::default()
    }

    /// Tries to consume `arg` (and its value from `it`) as one of the
    /// shared engine flags. Returns `Ok(true)` when the flag was
    /// handled, `Ok(false)` when it belongs to the caller.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing or malformed value.
    pub fn accept<'a>(
        &mut self,
        arg: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        match arg {
            "--threads" => {
                self.threads = flag_value("--threads", it)?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--store" => self.store = Some(flag_value("--store", it)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Applies the flags to an engine configuration.
    #[must_use]
    pub fn apply(&self, mut cfg: EngineConfig) -> EngineConfig {
        cfg = cfg.threads(self.threads);
        if let Some(dir) = &self.store {
            cfg = cfg.store(dir.clone());
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn machine_parsing_resolves_and_scales() {
        assert_eq!(parse_machine("sgi", 1).expect("sgi").name, "SGI R10000");
        assert_eq!(
            parse_machine("sgi", 32).expect("scaled").caches[0].capacity_bytes,
            1024
        );
        assert!(parse_machine("vax", 1)
            .expect_err("unknown")
            .contains("sgi|sun"));
        assert_eq!(
            parse_machine("sgi", 0).expect_err("zero scale"),
            "--scale must be positive"
        );
    }

    #[test]
    fn engine_flags_accept_their_flags_and_reject_others() {
        let args = strings(&["--threads", "3", "--store", "/tmp/s"]);
        let mut it = args.iter();
        let mut flags = EngineFlags::new();
        while let Some(a) = it.next() {
            assert!(flags.accept(a, &mut it).expect("parses"));
        }
        assert_eq!(flags.threads, 3);
        assert_eq!(flags.store.as_deref(), Some("/tmp/s"));
        let cfg = flags.apply(EngineConfig::new());
        assert_eq!(cfg.threads, 3);
        assert!(cfg.store_path.is_some());

        let other = strings(&["--n"]);
        let mut it = other.iter();
        let a = it.next().expect("arg");
        assert!(!EngineFlags::new().accept(a, &mut it).expect("not ours"));

        let truncated = strings(&["--threads"]);
        let mut it = truncated.iter();
        let a = it.next().expect("arg");
        assert!(EngineFlags::new()
            .accept(a, &mut it)
            .expect_err("missing value")
            .contains("needs a value"));
    }
}
