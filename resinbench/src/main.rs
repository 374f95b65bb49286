//! End-to-end and per-layer benchmark of the RESIN workspace.
//!
//! ```text
//! resinbench --workload forum_read|forum_write|rsl_wiki|all --seed N
//!            --seconds S --trace 0|1
//! ```
//!
//! Prints a table, then as the last line of stdout one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`. Exits
//! 1 when the response oracle or the durability check fails, 2 on a
//! usage or set-up error. See README.md for the workloads and metrics.

mod client;
mod content;
mod forum;
mod report;
mod rng;
mod stats;
mod trace;
mod wiki;

use std::path::PathBuf;
use std::process::{exit, Command, Stdio};

use report::{END_TO_END, PER_LAYER};

pub const WORKLOADS: &[&str] = &["forum_read", "forum_write", "rsl_wiki"];

const USAGE: &str = "usage: resinbench --workload forum_read|forum_write|rsl_wiki|all \
                     --seed N --seconds S --trace 0|1";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where span files go; kept after the run.
    pub out: PathBuf,
    /// Per-run data directories; removed when the run ends.
    pub scratch: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|_| "--seconds takes a number")?
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let out = PathBuf::from(".resinbench");
        let scratch = out.join(format!("run-{}", std::process::id()));
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            out,
            scratch,
        })
    }
}

/// Runs each workload in a child process of its own, so each reports
/// its own peak memory; exits with the worst child's code.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("resinbench: {e}");
            return 2;
        }
    };
    let mut worst = 0;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::inherit())
            .status();
        let code = match status {
            Ok(s) => s.code().unwrap_or(2),
            Err(e) => {
                eprintln!("resinbench: {w}: {e}");
                2
            }
        };
        worst = worst.max(code);
    }
    worst
}

fn main() {
    let args = Args::parse().unwrap_or_else(|e| {
        eprintln!("resinbench: {e}\n{USAGE}");
        exit(2)
    });
    if args.workload == "all" {
        exit(run_all(&args));
    }
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("resinbench: {}: {e}", args.scratch.display());
        exit(2);
    }
    let result = match args.workload.as_str() {
        "forum_read" => forum::run(forum::Mix::Read, &args),
        "forum_write" => forum::run(forum::Mix::Write, &args),
        "rsl_wiki" => wiki::run(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&args.scratch);
    match result {
        Ok(report) => {
            print!("{}", report.table(&args.workload));
            println!(
                "{}",
                report.json(if args.trace { PER_LAYER } else { END_TO_END })
            );
            exit(if report.correct() { 0 } else { 1 })
        }
        Err(e) => {
            eprintln!("resinbench: {}: {e}", args.workload);
            exit(2)
        }
    }
}
