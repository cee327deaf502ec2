//! End-to-end benchmark of the AimTS reproduction.
//!
//! One binary runs one of three workloads, selected with `--workload`:
//!
//! * `pretrain` — `AimTs::pretrain` on a Monash-like pool (2 workers);
//! * `finetune` — `AimTs::fine_tune` + `evaluate` over nine UCR/UEA-like
//!   datasets from one shared pre-trained encoder;
//! * `serve` — an in-process `aimts_serve::Server` under open-loop load.
//!
//! All inputs come from `--seed`. With `--trace 0` the run measures the
//! end-to-end metrics for `--seconds` seconds with no tracing at all. With
//! `--trace 1` it runs the traced pass instead: it re-composes a
//! pre-training micro-batch, a data-parallel round and every fine-tuning
//! step from public calls, records spans around each layer in memory, and
//! reports per-layer self times for all three paths (any `--workload`
//! prints the whole per-layer table). Every run checks its outputs; the last
//! stdout line is a JSON object `{correct, attempted, failed, metrics}` and
//! the process exits 1 when any check failed. Detailed results (notes,
//! checks, host, spans) go to `bench_e2e/results/`.

mod finetune;
mod pretrain;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;

use std::process::ExitCode;

use aimts_bench::memprof::CountingAllocator;

use crate::report::Report;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Pretrain,
    Finetune,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "pretrain" => Ok(Workload::Pretrain),
            "finetune" => Ok(Workload::Finetune),
            "serve" => Ok(Workload::Serve),
            other => Err(format!(
                "unknown workload `{other}` (expected pretrain, finetune or serve)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pretrain => "pretrain",
            Workload::Finetune => "finetune",
            Workload::Serve => "serve",
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: aimts-e2e-bench --workload pretrain|finetune|serve --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(args.workload, args.seed, args.trace);
    if args.trace {
        let tracer = trace::Tracer::new();
        pretrain::traced(args.seed, &tracer, &mut report);
        finetune::traced(args.seed, &tracer, &mut report);
        serve::traced(args.seed, &tracer, &mut report);
        report.attach_spans(&tracer);
    } else {
        match args.workload {
            Workload::Pretrain => pretrain::run(args.seed, args.seconds, &mut report),
            Workload::Finetune => finetune::run(args.seed, args.seconds, &mut report),
            Workload::Serve => serve::run(args.seed, args.seconds, &mut report),
        }
    }
    report.finish()
}
