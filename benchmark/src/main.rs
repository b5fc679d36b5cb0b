//! The repository's serving benchmark.
//!
//! Driver mode (what `BENCHMARK.json` names):
//!
//! ```text
//! cm_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! runs one workload in this process against a live in-process
//! `MatchServer` over loopback TCP and prints one JSON object as the last
//! line of stdout. The other modes — `suite`, `repeat N`, `diff A B`,
//! `check` — run whole suites, one child process per workload. See
//! `README.md` beside this crate.

mod catalog;
mod json;
mod probe;
mod report;
mod run;
mod spans;
mod stats;
mod workload;

use report::SuiteOptions;
use run::{Limit, Options};
use workload::Kind;

const USAGE: &str = "usage:
  cm_benchmark --workload <sw_scan|plain_rtt|ifp_scan|tenant_churn> --seed <n> --seconds <s> --trace <0|1> [--rounds <n>] [--quick]
  cm_benchmark suite    [--seed <n>] [--seconds <s>] [--quick]
  cm_benchmark repeat <N> [--seed <n>] [--seconds <s>] [--quick]
  cm_benchmark check    [--seed <n>] [--rounds <n>]
  cm_benchmark diff <A.json> <B.json>";

/// Seconds a suite-mode workload measures unless told otherwise: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(name @ ("quick" | "detail")) => flags.push((name.to_string(), None)),
                Some(name) => {
                    let value = args.next().ok_or(format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), Some(value)));
                }
                None => positional.push(arg),
            }
        }
        Ok(Args { positional, flags })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, value)) => value
                .as_deref()
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or(format!("--{name}: bad value")),
        }
    }
}

fn real_main() -> Result<i32, String> {
    let args = Args::parse()?;
    let quick = args.has("quick");
    let seed: u64 = args.value("seed")?.unwrap_or(1);
    let rounds: Option<usize> = args.value("rounds")?;
    let seconds: f64 = args
        .value("seconds")?
        .unwrap_or(if quick { 1.0 } else { DEFAULT_SECONDS });
    let suite_options = SuiteOptions {
        seed,
        seconds,
        rounds,
        quick,
    };

    match args.positional.first().map(String::as_str) {
        None => {
            let name: String = args.value("workload")?.ok_or(USAGE)?;
            let kind = Kind::parse(&name).ok_or(format!("unknown workload {name}\n{USAGE}"))?;
            let trace = match args.value::<u8>("trace")?.unwrap_or(0) {
                0 => false,
                1 => true,
                _ => return Err("--trace takes 0 or 1".into()),
            };
            let limit = match rounds {
                Some(n) => Limit::Rounds(n),
                None => Limit::Seconds(seconds),
            };
            let outcome = run::run(Options {
                kind,
                seed,
                limit,
                trace,
                quick,
            })
            .map_err(|e| format!("{name}: {e}"))?;
            report::print_table(&name, &outcome);
            let line = report::result_line(&outcome, trace, args.has("detail"))?;
            println!("{line}");
            Ok(0)
        }
        Some("suite") => report::suite(&suite_options),
        Some("repeat") => {
            let n = args
                .positional
                .get(1)
                .and_then(|n| n.parse().ok())
                .ok_or("repeat needs a count")?;
            report::repeat(&suite_options, n)
        }
        Some("check") => report::check(&SuiteOptions {
            // Fixed rounds, so operation and byte counts can be compared.
            rounds: Some(rounds.unwrap_or(3)),
            quick: true,
            ..suite_options
        }),
        Some("diff") => match &args.positional[1..] {
            [a, b] => report::diff(a, b),
            _ => Err("diff needs two result files".into()),
        },
        Some(other) => Err(format!("unknown mode {other}\n{USAGE}")),
    }
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}
