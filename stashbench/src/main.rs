//! `stashbench` — end-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! stashbench --workload <paper-matrix|crash-recover|design-space|daemon-mix>
//!            --seed N --seconds S --trace 0|1 --stashd PATH --work DIR
//!            [--stream-seed N] [--trace-seed N] [--audit-seed N]
//! ```
//!
//! Every workload runs the sequential engine on one simulation thread.
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer split instead: the workload's own
//! layers over its full input, and every other workload's layers from a
//! small probe, so that every per-layer metric is measured in every
//! traced run. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod crash;
mod daemon;
mod dse;
mod matrix;
mod measure;

use std::path::PathBuf;

use measure::Outcome;

/// The workload names, in the order `--trace 1` probes them.
const WORKLOADS: [&str; 4] = [
    "paper-matrix",
    "crash-recover",
    "design-space",
    "daemon-mix",
];

/// Set-up repetitions of a full run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// How much of a workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workload's full input.
    Full,
    /// A small input, enough to measure each of its layers once.
    Probe,
}

/// Command-line settings shared by every workload.
pub struct Ctx {
    /// Seconds of timed work per run (whole rounds, at least one).
    pub seconds: f64,
    /// Orders cells and requests.
    pub stream_seed: u64,
    /// Generates the `run-trace` inputs.
    pub trace_seed: u64,
    /// Picks the design-space audit sample.
    pub audit_seed: u64,
    /// The `stashd` binary.
    pub stashd: PathBuf,
    /// Directory for checkpoint and cache files.
    pub work: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("stashbench: {msg}");
    eprintln!(
        "usage: stashbench --workload <{}> --seed N --seconds S --trace 0|1 \
         --stashd PATH --work DIR [--stream-seed N] [--trace-seed N] [--audit-seed N]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn run(name: &str, ctx: &Ctx, scale: Scale, traced: bool) -> Outcome {
    match name {
        "paper-matrix" => matrix::run(ctx, scale, traced),
        "crash-recover" => crash::run(ctx, scale, traced),
        "design-space" => dse::run(ctx, scale, traced),
        "daemon-mix" => daemon::run(ctx, scale, traced),
        _ => unreachable!("validated workload name"),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut flags = std::collections::HashMap::new();
    while let Some(flag) = args.next() {
        let Some(key) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument {flag:?}"));
        };
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        flags.insert(key.to_string(), value);
    }
    let text = |k: &str| -> String {
        flags
            .get(k)
            .cloned()
            .unwrap_or_else(|| usage(&format!("--{k} is required")))
    };
    let number = |k: &str, default: Option<u64>| -> u64 {
        match (flags.get(k), default) {
            (Some(v), _) => v
                .parse()
                .unwrap_or_else(|_| usage(&format!("--{k} needs a whole number, got {v:?}"))),
            (None, Some(d)) => d,
            (None, None) => usage(&format!("--{k} is required")),
        }
    };
    let workload = text("workload");
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seed = number("seed", None);
    let traced = match number("trace", None) {
        0 => false,
        1 => true,
        _ => usage("--trace is 0 or 1"),
    };
    let mut ctx = Ctx {
        seconds: number("seconds", None) as f64,
        stream_seed: number("stream-seed", Some(measure::sub_seed(seed, 1))),
        trace_seed: number("trace-seed", Some(measure::sub_seed(seed, 2))),
        audit_seed: number("audit-seed", Some(measure::sub_seed(seed, 3))),
        stashd: PathBuf::from(text("stashd")),
        work: PathBuf::from(text("work")),
    };
    ctx.stashd = std::fs::canonicalize(&ctx.stashd)
        .ok()
        .filter(|p| p.is_file())
        .unwrap_or_else(|| usage(&format!("no stashd binary at {}", ctx.stashd.display())));
    let _ = std::fs::remove_dir_all(&ctx.work);
    ctx.work = std::fs::create_dir_all(&ctx.work)
        .and_then(|()| std::fs::canonicalize(&ctx.work))
        .unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", ctx.work.display())));

    println!(
        "stashbench {workload} seed {seed} (stream {}, trace {}, audit {}) seconds {} trace {}",
        ctx.stream_seed,
        ctx.trace_seed,
        ctx.audit_seed,
        ctx.seconds,
        u8::from(traced)
    );
    let mut out = run(&workload, &ctx, Scale::Full, traced);
    // Which probe each per-layer metric came from, if not the workload.
    let mut probed = std::collections::BTreeMap::new();
    if traced {
        for other in WORKLOADS.iter().filter(|w| **w != workload) {
            let mut probe = run(other, &ctx, Scale::Probe, true);
            probe.metrics.retain(|k, _| !k.starts_with("trace."));
            probed.extend(probe.metrics.keys().map(|k| (k.clone(), *other)));
            out.absorb(probe);
        }
        out.notes.push(format!(
            "metrics marked [probe: W] come from a small input of workload W, \
             not comparable with W's own traced run; the rest from {workload}'s full input"
        ));
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    for (name, (value, _)) in &out.metrics {
        if !value.is_finite() {
            out.errors.push(format!("{name} is not a finite number"));
        }
    }

    for note in &out.notes {
        println!("{note}");
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    for (name, (value, unit)) in &out.metrics {
        match probed.get(name) {
            Some(w) => println!("{name:<32} {value:>16.4} {unit:<10} [probe: {w}]"),
            None => println!("{name:<32} {value:>16.4} {unit}"),
        }
    }
    println!("attempted {} failed {}", out.attempted, out.failed);
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
