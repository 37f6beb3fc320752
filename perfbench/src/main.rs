//! `perfbench`: the end-to-end and per-layer benchmark of the holistic
//! indexing engine.
//!
//! ```text
//! perfbench --workload <explore|serve-hot|ingest> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! A run executes `--seconds / 4` rounds (at least one) of the workload's
//! fixed, seeded operation sequence, each round on a fresh engine, and
//! checks every answer against an independent model outside the timed
//! regions. With `--trace 0` it prints the ten end-to-end metrics; with
//! `--trace 1` it first runs the untraced workload in a child process,
//! then runs it again recording spans around every call into a layer,
//! and prints the per-layer metrics plus the tracing overhead (traced
//! minus untraced) of every end-to-end metric. The last line of standard
//! output is the result as one JSON object; the exit code is non-zero
//! when any answer was wrong.
//!
//! Self-test options: `--tiny` runs every workload on small columns in
//! well under a second; `--corrupt-reference` corrupts the first
//! reference answer, so the run must report a wrong answer and fail. See
//! `README.md` in this directory.

mod durable;
mod env;
mod explore;
mod ingest;
mod measure;
mod reference;
mod replay;
mod report;
mod serve_hot;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use reference::Verifier;
use report::{layer_metrics, parse_values, print_table, result_line, E2e, Layers, END_TO_END};
use trace::Tracer;
use workload::Params;

/// Nominal seconds of work per round on the reference machine.
const SECONDS_PER_ROUND: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Explore,
    ServeHot,
    Ingest,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "explore" => Some(Workload::Explore),
            "serve-hot" => Some(Workload::ServeHot),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::ServeHot => "serve-hot",
            Workload::Ingest => "ingest",
        }
    }

    fn run(self, p: &Params, tr: &mut Tracer, v: &mut Verifier) -> (E2e, Layers) {
        match self {
            Workload::Explore => explore::run(p, tr, v),
            Workload::ServeHot => serve_hot::run(p, tr, v),
            Workload::Ingest => ingest::run(p, tr, v),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    corrupt_reference: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 15, false);
    let (mut tiny, mut corrupt_reference) = (false, false);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--tiny" => {
                tiny = true;
                continue;
            }
            "--corrupt-reference" => {
                corrupt_reference = true;
                continue;
            }
            _ => {}
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
        corrupt_reference,
    })
}

/// Where a run keeps its files: next to the build, inside the checkout.
fn scratch_root() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
        .join("perfbench")
}

/// Runs the same workload untraced in a fresh child process and returns
/// its end-to-end values.
fn untraced_baseline(args: &Args) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"]);
    if args.tiny {
        cmd.arg("--tiny");
    }
    if args.corrupt_reference {
        cmd.arg("--corrupt-reference");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("untraced child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    Ok(parse_values(last, &names))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <explore|serve-hot|ingest> --seed <n> --seconds <n> --trace <0|1> [--tiny] [--corrupt-reference]"
            );
            return ExitCode::from(2);
        }
    };
    let untraced = if args.trace {
        match untraced_baseline(&args) {
            Ok(values) => values,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Vec::new()
    };

    let root = scratch_root();
    let dir = root.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let params = Params {
        seed: args.seed,
        rounds: (args.seconds / SECONDS_PER_ROUND).max(1) as usize,
        tiny: args.tiny,
        dir: dir.clone(),
    };
    println!(
        "# perfbench workload={} seed={} rounds={} trace={}",
        args.workload.name(),
        args.seed,
        params.rounds,
        u8::from(args.trace)
    );
    env::print(&dir);

    let mut tracer = Tracer::new(args.trace);
    let mut verifier = Verifier::new(args.corrupt_reference);
    let (e2e, layers) = args.workload.run(&params, &mut tracer, &mut verifier);
    let end_to_end = e2e.metrics();
    let _ = std::fs::remove_dir_all(&dir);

    let correct = verifier.mismatches == 0;
    println!(
        "# checked {} answers: {} wrong; {} of {} operations failed",
        verifier.checked,
        verifier.mismatches,
        verifier.failed(),
        verifier.attempted
    );
    let printed = if args.trace {
        print_table("end-to-end metrics of the traced run", &end_to_end);
        let per_layer = layer_metrics(&layers, &end_to_end, &untraced);
        print_table("per-layer metrics (traced run)", &per_layer);
        println!("# span summary: name count total_us self_us");
        for (name, (count, total, own)) in tracer.summary() {
            println!("#   {name:<28} {count:>9} {total:>16.1} {own:>16.1}");
        }
        let spans = root.join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        match tracer.write(&spans) {
            Ok(()) => println!("# spans written to {}", spans.display()),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
        per_layer
    } else {
        print_table("end-to-end metrics", &end_to_end);
        end_to_end
    };
    println!(
        "{}",
        result_line(
            correct,
            verifier.attempted.max(1),
            verifier.failed(),
            &printed
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
