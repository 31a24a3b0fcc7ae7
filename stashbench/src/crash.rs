//! `crash-recover`: checkpoint at every phase barrier, persist through
//! `CheckpointStore`, drop the machine as a simulated kill, then recover
//! through `CheckpointStore::latest_valid` and `Machine::resume` and run
//! on to the next barrier.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gpu::config::MemConfigKind;
use gpu::machine::{program_fingerprint, Machine, RunCursor};
use gpu::program::Program;
use gpu::report::RunReport;
use sim::config::SystemConfig;
use sim::snapshot::{CheckpointStore, Writer};
use sim::SimError;
use workloads::suite;

use crate::measure::{self, EndToEnd, Outcome};
use crate::{Ctx, Scale, SETUP_REPS};

/// The error the barrier hook returns to stop the run: the kill.
const KILL: &str = "simulated kill after checkpoint";

struct Cell {
    name: &'static str,
    kind: MemConfigKind,
    sys: SystemConfig,
    program: Program,
    dir: PathBuf,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}", self.name, self.kind.name())
    }
}

/// Many barriers (lud, 46), few large snapshots (stencil, 4 of about
/// 1 MB), and small snapshots on the one-CU machine (the
/// microbenchmarks). pathfinder, whose 10 barriers take 2.5 times lud's
/// time each, would put exactly the ten slowest operations of a round
/// in one cell, and so `op_tail_ms`, which has ten operations beyond
/// it, on the edge between that cell and the rest.
fn cell_list(scale: Scale) -> Vec<(&'static str, MemConfigKind)> {
    use MemConfigKind::{Cache, Scratch, Stash, StashG};
    match scale {
        Scale::Full => vec![
            ("lud", StashG),
            ("stencil", Stash),
            ("reuse", Stash),
            ("reuse", Scratch),
            ("pollution", Stash),
            ("ondemand", Cache),
        ],
        Scale::Probe => vec![("reuse", Stash)],
    }
}

/// Per-layer host time of one round, summed over its barriers.
#[derive(Default)]
struct Split {
    fingerprint: Duration,
    memsys_save: Duration,
    checkpoint: Duration,
    encode: Duration,
    persist: Duration,
    recover: Duration,
    resume: Duration,
    run_from: Duration,
    snapshot_bytes: usize,
    barriers: usize,
}

/// Runs `cell` from `machine`, killing and recovering it at every
/// barrier; pushes each recovery's latency to `latencies` and adds the
/// timed work to `wall`. `split` gets the per-layer timings when traced.
/// Returns the final report and state digest.
fn kill_and_recover(
    cell: &Cell,
    store: &CheckpointStore,
    mut machine: Machine,
    mut split: Option<&mut Split>,
    latencies: &mut Vec<Duration>,
    wall: &mut Duration,
) -> Result<(RunReport, u64), String> {
    let program = &cell.program;
    let mut cursor = RunCursor::default();
    let mut recheck_at = (program.phases.len() / 2).max(1);
    loop {
        let segment = Instant::now();
        let mut hook_at = None;
        let result = machine.run_from(program, None, &mut cursor, |m, c| {
            hook_at = Some(Instant::now());
            let saved = if let Some(s) = split.as_deref_mut() {
                s.fingerprint += measure::timed(|| program_fingerprint(program)).1;
                s.memsys_save += measure::timed(|| m.memory().save(&mut Writer::new())).1;
                let (snap, d) = measure::timed(|| m.checkpoint(program, *c));
                s.checkpoint += d;
                let (bytes, d) = measure::timed(|| snap.to_bytes());
                s.encode += d;
                s.snapshot_bytes += bytes.len();
                let (saved, d) = measure::timed(|| store.save(&snap));
                s.persist += d;
                saved
            } else {
                store.save(&m.checkpoint(program, *c))
            };
            saved.map_err(|e| SimError::Config(format!("checkpoint write failed: {e}")))?;
            Err(SimError::Config(KILL.to_string()))
        });
        let Some(at) = hook_at else {
            // No barrier left: the run completed (or failed) in one go.
            *wall += segment.elapsed();
            let report = result.map_err(|e| e.to_string())?;
            return Ok((report, machine.memory().state_digest()));
        };
        match result {
            Err(SimError::Config(m)) if m == KILL => {}
            other => return Err(format!("barrier hook failed: {other:?}")),
        }
        let before_hook = at - segment;
        drop(machine);
        let (latest, recover) = measure::timed(|| store.latest_valid());
        let (_, snap, rejected) = latest.ok_or("no valid checkpoint to recover")?;
        if !rejected.is_empty() {
            return Err(format!("recovery rejected {rejected:?}"));
        }
        let (resumed, resume) = measure::timed(|| Machine::resume(&snap, program));
        let latency = at.elapsed();
        let (m, c) = resumed.map_err(|e| format!("resume failed: {e}"))?;
        *wall += before_hook + latency;
        latencies.push(latency);
        if let Some(s) = split.as_deref_mut() {
            s.recover += recover;
            s.resume += resume;
            s.run_from += before_hook;
            s.barriers += 1;
        }
        // Untimed: re-checkpointing the resumed machine gives the bytes
        // it was restored from.
        if c.next_phase == recheck_at {
            recheck_at = usize::MAX;
            if m.checkpoint(program, c).to_bytes() != snap.to_bytes() {
                return Err(format!(
                    "re-checkpoint after resume at phase {} differs",
                    c.next_phase
                ));
            }
        }
        machine = m;
        cursor = c;
    }
}

fn open_store(dir: &PathBuf) -> CheckpointStore {
    let _ = std::fs::remove_dir_all(dir);
    CheckpointStore::open(dir).unwrap_or_else(|e| {
        eprintln!("crash-recover: cannot open {}: {e}", dir.display());
        std::process::exit(1);
    })
}

/// Lowers the cells, builds their machines and opens their stores.
fn set_up(ctx: &Ctx, scale: Scale) -> (Vec<Cell>, Vec<(CheckpointStore, Machine)>) {
    let mut cells = Vec::new();
    let mut ready = Vec::new();
    for (name, kind) in cell_list(scale) {
        let w = suite::by_name(name).expect("registered workload");
        let sys = w.set.system_config();
        let program = (w.build)(kind);
        let dir = ctx
            .work
            .join("crash")
            .join(format!("{name}-{}", kind.name()));
        ready.push((open_store(&dir), Machine::new(sys.clone(), kind)));
        cells.push(Cell {
            name,
            kind,
            sys,
            program,
            dir,
        });
    }
    (cells, ready)
}

/// Runs the workload: the timed rounds, then the checks.
pub fn run(ctx: &Ctx, scale: Scale, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let reps = if scale == Scale::Full { SETUP_REPS } else { 1 };
    let mut setup = Vec::new();
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let (s, d) = measure::timed(|| set_up(ctx, scale));
        setup.push(d.as_secs_f64());
        state = Some(s);
    }
    let (cells, ready) = state.expect("at least one set-up");

    let mut ready = Some(ready);
    let mut latencies = Vec::new();
    let mut finals: Vec<Option<(RunReport, u64)>> = vec![None; cells.len()];
    let mut split = Split::default();
    let mut round = |traced_round: bool, out: &mut Outcome| -> Duration {
        let mut prepared: Vec<Option<(CheckpointStore, Machine)>> = match ready.take() {
            Some(r) => r.into_iter().map(Some).collect(),
            None => cells
                .iter()
                .map(|c| Some((open_store(&c.dir), Machine::new(c.sys.clone(), c.kind))))
                .collect(),
        };
        let mut wall = Duration::ZERO;
        // The cells run in a fixed order. The machines built in set-up
        // wait for their turn, so the order sets the peak resident set:
        // shuffled orders moved it between 65 and 82 MB.
        for (i, cell) in cells.iter().enumerate() {
            let (store, machine) = prepared[i].take().expect("prepared once");
            let s = traced_round.then_some(&mut split);
            let before = latencies.len();
            let result = kill_and_recover(cell, &store, machine, s, &mut latencies, &mut wall);
            let _ = std::fs::remove_dir_all(&cell.dir);
            let recoveries = latencies.len() - before;
            if recoveries != cell.program.phases.len() {
                out.fail(format!(
                    "{}: {recoveries} recoveries for {} barriers",
                    cell.label(),
                    cell.program.phases.len()
                ));
            }
            let result = result
                .map_err(|e| out.fail(format!("{}: {e}", cell.label())))
                .ok();
            match (&finals[i], result) {
                (None, r) => finals[i] = r,
                (Some(a), Some(b)) if *a == b => {}
                _ => out.fail(format!("{}: rounds disagree on the result", cell.label())),
            }
        }
        wall
    };

    if traced {
        let untraced = round(false, &mut out);
        let traced_wall = round(true, &mut out);
        measure::overhead(&mut out, untraced, traced_wall);
    } else {
        // The peak is read after the first round: a round takes about as
        // long as a run measures, so how many rounds fit depends on the
        // host, and later rounds, which build their machines afresh, may
        // raise it.
        let mut peak_rss_mb = 0.0;
        let wall = measure::run_rounds(ctx.seconds, |r| {
            let wall = round(false, &mut out);
            if r == 0 {
                peak_rss_mb = measure::peak_rss_mb(None);
            }
            wall
        });
        EndToEnd {
            setup,
            latencies: latencies.clone(),
            wall,
            round_ops: cells.iter().map(|c| c.program.phases.len()).sum(),
            peak_rss_mb,
        }
        .report(&mut out);
    }
    out.attempted = latencies.len() as u64;

    // Recovery at every barrier ends where a straight-through run does.
    for (cell, fin) in cells.iter().zip(&finals) {
        let mut m = Machine::new(cell.sys.clone(), cell.kind);
        match m.run(&cell.program) {
            Ok(report) => {
                let straight = (report, m.memory().state_digest());
                if fin.as_ref() != Some(&straight) {
                    out.fail(format!(
                        "{}: recovered run differs from a straight-through run",
                        cell.label()
                    ));
                }
            }
            Err(e) => out.fail(format!(
                "{}: straight-through run failed: {e}",
                cell.label()
            )),
        }
    }
    if traced {
        let n = split.barriers.max(1) as f64;
        out.put("ckpt.checkpoint_ms", measure::ms(split.checkpoint), "ms");
        out.put("ckpt.fingerprint_ms", measure::ms(split.fingerprint), "ms");
        out.put("ckpt.memsys_save_ms", measure::ms(split.memsys_save), "ms");
        out.put("ckpt.encode_ms", measure::ms(split.encode), "ms");
        out.put("ckpt.persist_ms", measure::ms(split.persist), "ms");
        out.put("ckpt.recover_ms", measure::ms(split.recover), "ms");
        out.put("ckpt.resume_ms", measure::ms(split.resume), "ms");
        out.put("ckpt.run_from_ms", measure::ms(split.run_from), "ms");
        out.put(
            "ckpt.snapshot_kb",
            split.snapshot_bytes as f64 / 1024.0 / n,
            "KB",
        );
    }
    out.notes.push(format!(
        "crash-recover: {} cells, files under {}",
        cells.len(),
        ctx.work.join("crash").display()
    ));
    out
}
