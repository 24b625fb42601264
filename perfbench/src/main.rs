//! `perfbench`: the repository's benchmark. One seeded workload per run,
//! either untraced (end-to-end metrics) or as a traced layer ladder
//! (per-layer metrics). Usually started through `perfbench/run.py`, which
//! builds this crate and the release `connectit-serve` first:
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//!           --serve PATH --work-dir DIR [--rustc VERSION]
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it name every figure with its
//! unit. The exit code is non-zero on any validation mismatch.

mod gen;
mod ladder;
mod oracle;
mod server;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Outcome};

const WORKLOADS: [&str; 4] = ["static", "ingest", "churn", "point"];

struct Args {
    workload: String,
    trace: bool,
    rustc: String,
    ctx: Ctx,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut serve, mut work, mut rustc) = (None, None, String::from("unknown"));
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&val.as_str()) => workload = Some(val.clone()),
            "--workload" => return Err(format!("unknown workload {val:?} (one of {WORKLOADS:?})")),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--serve" => serve = Some(PathBuf::from(val)),
            "--work-dir" => work = Some(PathBuf::from(val)),
            "--rustc" => rustc = val.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("{f} is required");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        rustc,
        ctx: Ctx {
            serve: serve.ok_or_else(|| missing("--serve"))?,
            work: work.ok_or_else(|| missing("--work-dir"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        },
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_json(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload W --seed N --seconds S --trace 0|1 \
                 --serve PATH --work-dir DIR [--rustc VERSION]"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={nproc} cpu={:?} rustc={:?}",
        args.workload,
        args.ctx.seed,
        args.ctx.seconds,
        u8::from(args.trace),
        cpu_model(),
        args.rustc,
    );
    if let Err(e) = std::fs::create_dir_all(&args.ctx.work) {
        eprintln!("perfbench: work dir: {e}");
        return ExitCode::FAILURE;
    }
    let ctx = &args.ctx;
    let result = if args.trace {
        ladder::run(ctx, &args.workload)
    } else {
        match args.workload.as_str() {
            "static" => workloads::run_static(ctx),
            "ingest" => workloads::run_stream(ctx, false),
            "churn" => workloads::run_stream(ctx, true),
            _ => workloads::run_point(ctx),
        }
    };
    match result {
        Ok(out) => {
            for line in &out.lines {
                println!("{line}");
            }
            for (name, value, unit) in &out.metrics {
                println!("metric {name} = {value} {unit}");
            }
            let finite = out.metrics.iter().all(|m| m.1.is_finite());
            let correct = out.mismatches == 0 && finite;
            println!("{}", result_json(&out, correct));
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: validation failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
