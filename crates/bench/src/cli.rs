//! The one command-line parser of the `eco` and `repro` binaries.
//!
//! Each binary declares its commands in a table of [`Command`] rows,
//! and [`run`] parses every command line against that table: a command
//! accepts exactly the flags its row lists, anything else fails with
//! `unknown option X` (or `unexpected argument X` for an extra
//! positional), and every usage line is rendered from the same row.

use eco_exec::EngineConfig;
use eco_machine::MachineDesc;
use std::str::FromStr;

/// A flag as it appears in a usage line: its name, then the
/// placeholder of its value if it takes one (`"--certify"`,
/// `"--threads N"`).
pub type Flag = &'static str;

/// Evaluation threads (0 = auto).
pub const THREADS: Flag = "--threads N";
/// The persistent result store.
pub const STORE: Flag = "--store DIR";
/// The engine flags: threads, store and the event stream.
pub const ENGINE: &[Flag] = &[THREADS, STORE, "--events PATH"];
/// The machine selection, resolved by [`machine`].
pub const MACHINE: &[Flag] = &["--machine sgi|sun", "--scale F"];

/// Runs one command on its parsed arguments.
pub type Handler = fn(&Args) -> Result<(), String>;

/// One row of a binary's command table.
#[derive(Debug)]
pub struct Command {
    name: &'static str,
    positionals: &'static str,
    flags: &'static [&'static [Flag]],
    run: Handler,
}

impl Command {
    /// A table row: `name` is the words that select the command (they
    /// lead the command line, in order), `positionals` its placeholders
    /// (a `[bracketed]` one is optional), `flags` every flag it accepts.
    pub const fn new(
        name: &'static str,
        positionals: &'static str,
        flags: &'static [&'static [Flag]],
        run: Handler,
    ) -> Command {
        Command {
            name,
            positionals,
            flags,
            run,
        }
    }

    /// The usage line, rendered from the row.
    fn usage(&self, bin: &str) -> String {
        let mut words = vec![format!("usage: {bin} {}", self.name)];
        words.extend(self.positionals.split_whitespace().map(String::from));
        words.extend(self.specs().map(|f| format!("[{f}]")));
        words.join(" ")
    }

    fn head(&self) -> &'static str {
        self.name.split(' ').next().unwrap_or_default()
    }

    fn specs(&self) -> impl Iterator<Item = Flag> {
        self.flags.iter().flat_map(|group| group.iter().copied())
    }

    /// The accepted flag named `name`, as its usage spec.
    fn spec(&self, name: &str) -> Option<Flag> {
        self.specs().find(|f| f.split(' ').next() == Some(name))
    }

    /// The arguments left after the selecting words, when `argv`
    /// selects this command.
    fn select(&self, argv: &[String]) -> Option<Vec<String>> {
        let mut rest = argv.iter();
        for word in self.name.split(' ') {
            if rest.next()? != word {
                return None;
            }
        }
        Some(rest.cloned().collect())
    }
}

/// A parsed command line.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    flags: Vec<(String, Option<String>)>,
    /// The positional arguments; every required one is present.
    pub positionals: Vec<String>,
}

impl Args {
    /// The selected command's name.
    pub fn command(&self) -> &'static str {
        self.command.name
    }

    /// The last `name` on the command line, with its value if it takes
    /// one.
    ///
    /// # Panics
    ///
    /// Panics when the command's row does not list `name`: a handler
    /// must read only the flags its row accepts.
    fn last(&self, name: &str) -> Option<&Option<String>> {
        assert!(
            self.command.spec(name).is_some(),
            "`{}` reads {name}, which its command row does not accept",
            self.command.name
        );
        let (_, value) = self.flags.iter().rev().find(|(n, _)| n == name)?;
        Some(value)
    }

    /// The value of the last `name` on the command line.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.last(name)?.as_deref()
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    /// The value of `name` parsed as a `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns `"bad <name>: <reason>"` when the value does not parse.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad {name}: {e}")),
        }
    }
}

/// Selects the command `argv` names from `commands` and parses the
/// rest of `argv` against its row.
///
/// # Errors
///
/// Returns a usage message for an empty or unknown command line or a
/// missing positional, `unknown option X` for a flag the row does not
/// list, `X needs a value` for a truncated flag and
/// `unexpected argument X` for a positional beyond the row's.
pub fn parse(bin: &str, commands: &'static [Command], argv: &[String]) -> Result<Args, String> {
    let mut heads: Vec<&str> = commands.iter().map(Command::head).collect();
    heads.dedup();
    let overview = format!("usage: {bin} <{}> ...", heads.join("|"));
    let name = argv.first().ok_or(&overview)?;
    let Some((command, rest)) = commands.iter().find_map(|c| Some((c, c.select(argv)?))) else {
        let usages: Vec<String> = commands
            .iter()
            .filter(|c| c.head() == name)
            .map(|c| c.usage(bin))
            .collect();
        return Err(if usages.is_empty() {
            format!("unknown command {name}; {overview}")
        } else {
            usages.join("\n")
        });
    };
    let mut args = Args {
        command,
        flags: Vec::new(),
        positionals: Vec::new(),
    };
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            args.positionals.push(arg);
            continue;
        }
        let spec = command
            .spec(&arg)
            .ok_or_else(|| format!("unknown option {arg}"))?;
        let value = if spec.contains(' ') {
            Some(it.next().ok_or_else(|| format!("{arg} needs a value"))?)
        } else {
            None
        };
        args.flags.push((arg, value));
    }
    let slots: Vec<&str> = command.positionals.split_whitespace().collect();
    if let Some(extra) = args.positionals.get(slots.len()) {
        return Err(format!("unexpected argument {extra}"));
    }
    if args.positionals.len() < slots.iter().filter(|s| !s.starts_with('[')).count() {
        return Err(command.usage(bin));
    }
    Ok(args)
}

/// Parses `argv` against `commands` and runs the selected command.
///
/// # Errors
///
/// Returns the parse error, or the handler's.
pub fn run(bin: &str, commands: &'static [Command], argv: &[String]) -> Result<(), String> {
    let args = parse(bin, commands, argv)?;
    (args.command.run)(&args)
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

/// The machine the [`MACHINE`] flags select; the SGI at 1/32 scale by
/// default.
///
/// # Errors
///
/// Returns a message for a malformed scale or an unknown machine.
pub fn machine(args: &Args) -> Result<MachineDesc, String> {
    parse_machine(
        args.get("--machine").unwrap_or("sgi"),
        args.num("--scale", 32)?,
    )
}

/// Thread count and persistent result store. Defaults: auto threads,
/// no store.
#[derive(Debug, Clone, Default)]
pub struct EngineFlags {
    /// `--threads N` (0 = auto).
    pub threads: usize,
    /// `--store DIR`: root of the on-disk result store shared across
    /// processes (see `eco-store`).
    pub store: Option<String>,
}

impl EngineFlags {
    /// The `--threads`/`--store` a command was given.
    ///
    /// # Errors
    ///
    /// Returns a message for a malformed thread count.
    pub fn from_args(args: &Args) -> Result<EngineFlags, String> {
        Ok(EngineFlags {
            threads: args.num("--threads", 0)?,
            store: args.get("--store").map(String::from),
        })
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

    #[rustfmt::skip]
    const TABLE: &[Command] = &[
        Command::new("show", "<kernel>", &[], |_| Ok(())),
        Command::new("tune", "<kernel>", &[ENGINE, MACHINE], |_| Ok(())),
        Command::new("lint", "<kernel>", &[MACHINE], |_| Ok(())),
        Command::new("client tune", "<kernel>", &[&["--socket S", "--search-n N"]], |_| Ok(())),
        Command::new("trace", "[FP]", &[&["--socket S"]], |_| Ok(())),
        Command::new("report", "", &[&["--out DIR", "--no-attribution"]], |_| Ok(())),
    ];

    fn parse_line(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse("eco", TABLE, &argv)
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
        let args = parse_line("tune mm --machine sun --scale 4").expect("parses");
        let sun = MachineDesc::ultrasparc_iie().scaled(4);
        assert_eq!(machine(&args).expect("machine").name, sun.name);
    }

    #[test]
    fn engine_flags_resolve_and_apply() {
        let args = parse_line("tune mm --threads 3 --store /tmp/s").expect("parses");
        let flags = EngineFlags::from_args(&args).expect("engine flags");
        assert_eq!((flags.threads, flags.store.as_deref()), (3, Some("/tmp/s")));
        let cfg = flags.apply(EngineConfig::new());
        assert_eq!(cfg.threads, 3);
        assert!(cfg.store_path.is_some());
        let bad = parse_line("tune mm --threads x").expect("parses");
        let err = EngineFlags::from_args(&bad).expect_err("malformed");
        assert!(err.starts_with("bad --threads: "), "{err}");
    }

    #[test]
    fn parse_errors_name_the_offending_argument() {
        let overview = "usage: eco <show|tune|lint|client|trace|report> ...";
        for (line, err) in [
            ("report --out", "--out needs a value"),
            ("tune mm --threads", "--threads needs a value"),
            ("show mm --threads 4", "unknown option --threads"),
            ("client tune mm --sockt x", "unknown option --sockt"),
            ("lint --seed 3", "unknown option --seed"),
            ("trace a b", "unexpected argument b"),
            ("show", "usage: eco show <kernel>"),
            (
                "client",
                "usage: eco client tune <kernel> [--socket S] [--search-n N]",
            ),
            ("", overview),
        ] {
            assert_eq!(parse_line(line).expect_err(line), err, "{line}");
        }
        let err = parse_line("bogus").expect_err("unknown command");
        assert_eq!(err, format!("unknown command bogus; {overview}"));
    }

    #[test]
    fn values_are_read_back_by_name() {
        let args = parse_line("report --out d --no-attribution").expect("parses");
        assert_eq!(args.get("--out"), Some("d"));
        assert!(args.has("--no-attribution"));
        assert_eq!(args.get("--no-attribution"), None);
        // A repeated flag keeps its last value.
        let args = parse_line("tune mm --threads 2 --threads 5").expect("parses");
        assert_eq!(args.num("--threads", 0usize), Ok(5));
        assert_eq!(args.get("--store"), None);
        assert!(parse_line("trace").expect("parses").positionals.is_empty());
    }

    #[test]
    fn flags_interleave_with_positionals_and_mode_words() {
        let args = parse_line("client tune mm --socket S --search-n 16").expect("parses");
        assert_eq!(args.command(), "client tune");
        assert_eq!(args.positionals, ["mm"]);
        assert_eq!(args.get("--socket"), Some("S"));
        assert_eq!(args.num("--search-n", 96i64), Ok(16));
        let args = parse_line("client tune --socket S mm").expect("parses");
        assert_eq!(args.positionals, ["mm"]);
        assert_eq!(parse_line("lint mm").expect("parses").command(), "lint");
    }

    #[test]
    #[should_panic(expected = "does not accept")]
    fn reading_an_undeclared_flag_is_a_bug() {
        let _ = parse_line("show mm").expect("parses").get("--threads");
    }
}
