//! `design-space`: `verify::dse::evaluate_space` rankings of the default
//! design space for two Stash cells of Figure 5, after the sensitivity
//! pass. The timed part runs no simulation.

use std::time::{Duration, Instant};

use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use gpu::program::Program;
use sim::config::SystemConfig;
use verify::dse::{evaluate_space, sensitivities, validation_sample, Evaluated, Space};
use workloads::suite::{self, Workload};

use crate::measure::{self, EndToEnd, Outcome};
use crate::{Ctx, Scale, SETUP_REPS};

/// Top picks and seeded audit picks the simulator validates per cell.
const TOP_K: usize = 2;
const AUDIT_N: usize = 2;

struct Cell {
    workload: Workload,
    kind: MemConfigKind,
    sys: SystemConfig,
    program: Program,
    space: Space,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}", self.workload.name, self.kind.name())
    }
}

fn cell_list(scale: Scale) -> Vec<(Workload, MemConfigKind)> {
    let names: &[&str] = match scale {
        // The two Stash cells of Figure 5 whose rankings cost the same,
        // about 0.6 s each, so every ranking samples one latency and the
        // median is taken over all of them. Ondemand (0.07 s) and
        // pollution (1.5 s) would leave the median on the two middle
        // cells' samples alone, and it moved up to 28 % between runs.
        Scale::Full => &["implicit", "reuse"],
        Scale::Probe => &["implicit"],
    };
    names
        .iter()
        .map(|n| (suite::by_name(n).expect("registered"), MemConfigKind::Stash))
        .collect()
}

/// Lowers each cell, runs the sensitivity pass and prunes the provably
/// monotone dimensions of the default space. The sensitivity pass is
/// timed set-up work, as in the `dse` binary, whose result the rankings
/// do not use; the pruning does not depend on it. Returns the cells and
/// the time the sensitivity pass took.
fn set_up(scale: Scale) -> (Vec<Cell>, Duration) {
    let mut sens = Duration::ZERO;
    let cells = cell_list(scale)
        .into_iter()
        .map(|(workload, kind)| {
            let sys = workload.set.system_config();
            let program = (workload.build)(kind);
            let mut space = Space::default_space();
            let (deltas, d) = measure::timed(|| sensitivities(&program, &sys, kind, &space));
            std::hint::black_box(deltas);
            sens += d;
            space.prune_provably_monotone();
            Cell {
                workload,
                kind,
                sys,
                program,
                space,
            }
        })
        .collect();
    (cells, sens)
}

/// Runs the workload: the timed rounds, then the checks.
pub fn run(ctx: &Ctx, scale: Scale, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let reps = if scale == Scale::Full { SETUP_REPS } else { 1 };
    let mut setup = Vec::new();
    let mut sens_ms = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..reps {
        cells.clear();
        let ((c, sens), d) = measure::timed(|| set_up(scale));
        setup.push(d.as_secs_f64());
        sens_ms.push(measure::ms(sens));
        cells = c;
    }
    let mut order: Vec<usize> = (0..cells.len()).collect();
    sim::rng::SplitMix64::new(ctx.stream_seed).shuffle(&mut order);

    let mut latencies = Vec::new();
    let mut rankings: Vec<Option<Vec<Evaluated>>> = vec![None; cells.len()];
    let mut eval = Duration::ZERO;
    let mut points = 0usize;
    let mut round = |out: &mut Outcome| -> Duration {
        let start = Instant::now();
        for &i in &order {
            let c = &cells[i];
            let (ranked, d) =
                measure::timed(|| evaluate_space(&c.program, &c.sys, c.kind, &c.space));
            latencies.push(d);
            eval += d;
            points += ranked.len();
            match &rankings[i] {
                None => rankings[i] = Some(ranked),
                Some(first) => {
                    let same = first.len() == ranked.len()
                        && first
                            .iter()
                            .zip(&ranked)
                            .all(|(a, b)| (a.index, a.est_picos) == (b.index, b.est_picos));
                    if !same {
                        out.fail(format!("{}: rankings differ between rounds", c.label()));
                    }
                }
            }
        }
        start.elapsed()
    };

    if traced {
        let untraced = round(&mut out);
        let traced_wall = round(&mut out);
        measure::overhead(&mut out, untraced, traced_wall);
    } else {
        let wall = measure::run_rounds(ctx.seconds, |_| round(&mut out));
        EndToEnd {
            setup,
            latencies: latencies.clone(),
            wall,
            round_ops: cells.len(),
            peak_rss_mb: measure::peak_rss_mb(None),
        }
        .report(&mut out);
    }
    out.attempted = latencies.len() as u64;

    for (n, (c, ranked)) in cells.iter().zip(&rankings).enumerate() {
        let ranked = ranked.as_ref().expect("every cell ranked");
        check_ranking(
            c,
            ranked,
            measure::sub_seed(ctx.audit_seed, n as u64),
            &mut out,
        );
    }
    if traced {
        out.put("dse.sensitivities_ms", measure::median(&sens_ms), "ms");
        out.put("dse.evaluate_space_ms", measure::ms(eval) / 2.0, "ms");
        out.put(
            "dse.points_per_s",
            points as f64 / eval.as_secs_f64().max(1e-9),
            "1/s",
        );
    }
    out.notes.push(format!(
        "design-space: {} cells, {} points each after pruning",
        cells.len(),
        cells.first().map_or(0, |c| c.space.len())
    ));
    out
}

/// The ranking is sorted by (estimate, index) and covers the space; the
/// simulator's exact counters equal the surrogate's at every validated
/// point (top picks plus seeded audit picks).
fn check_ranking(c: &Cell, ranked: &[Evaluated], audit_seed: u64, out: &mut Outcome) {
    let sorted = ranked
        .windows(2)
        .all(|w| (w[0].est_picos, w[0].index) < (w[1].est_picos, w[1].index));
    if !sorted || ranked.len() != c.space.len() {
        out.fail(format!(
            "{}: ranking not sorted by (estimate, index)",
            c.label()
        ));
    }
    for rank in validation_sample(ranked.len(), TOP_K, AUDIT_N, audit_seed) {
        let e = &ranked[rank];
        let sys = e.point.apply(&c.sys);
        match Machine::new(sys, c.kind).run(&c.program) {
            Ok(report) => {
                let p = &e.prediction;
                let mut bad = p.gpu_instructions != report.gpu_instructions;
                for &(counter, v) in &p.exact {
                    bad |= report.counters.value(counter) != v;
                }
                if bad {
                    out.fail(format!(
                        "{} rank {rank} ({}): exact counters differ from the surrogate",
                        c.label(),
                        e.point.label()
                    ));
                }
            }
            Err(err) => out.fail(format!("{} at {}: {err}", c.label(), e.point.label())),
        }
    }
}
