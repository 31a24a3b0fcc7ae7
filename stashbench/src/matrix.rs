//! `paper-matrix`: the 51 Figure 5 and Figure 6 cells, each one
//! `Machine::new` plus `Machine::run` of a program lowered during set-up.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use gpu::program::Program;
use gpu::report::RunReport;
use sim::config::SystemConfig;
use sim::stats::Counter;
use sim::trace::StallReason;
use workloads::suite::{self, Workload};

use crate::measure::{self, EndToEnd, Outcome};
use crate::{Ctx, Scale, SETUP_REPS};

/// The six configurations, by the names the per-layer metrics use.
const CONFIGS: [MemConfigKind; 6] = MemConfigKind::ALL;

/// Event-ring capacity of a traced cell; the stall breakdown is kept
/// outside the ring, so the capacity only bounds memory.
const TRACE_RING: usize = 1 << 16;

/// Simulated work counts read from each cell's report.
const COUNTS: [(&str, Counter); 11] = [
    ("sim.gpu.l1.load_tx", Counter::GpuL1LoadTx),
    ("sim.gpu.l1.store_tx", Counter::GpuL1StoreTx),
    ("sim.gpu.l1.miss", Counter::GpuL1Miss),
    ("sim.stash.load_tx", Counter::StashLoadTx),
    ("sim.stash.store_tx", Counter::StashStoreTx),
    ("sim.stash.miss", Counter::StashMiss),
    ("sim.scratch.access", Counter::ScratchAccess),
    ("sim.dma.words", Counter::DmaWords),
    ("sim.llc.access", Counter::LlcAccess),
    ("sim.dram.line_fetch", Counter::DramLineFetch),
    ("sim.remote.forward", Counter::RemoteForward),
];

struct Cell {
    workload: Workload,
    kind: MemConfigKind,
    sys: SystemConfig,
    program: Program,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}", self.workload.name, self.kind.name())
    }
}

fn cell_list(scale: Scale) -> Vec<(Workload, MemConfigKind)> {
    match scale {
        Scale::Full => {
            let mut cells = Vec::new();
            for w in suite::micros().into_iter().chain(suite::applications()) {
                for &kind in w.set.figure_kinds() {
                    cells.push((w, kind));
                }
            }
            cells
        }
        // One cell per configuration, the cheapest that covers all six.
        Scale::Probe => {
            let implicit = suite::by_name("implicit").expect("registered");
            let backprop = suite::by_name("backprop").expect("registered");
            let mut cells: Vec<_> = MemConfigKind::FIGURE5
                .iter()
                .map(|&k| (implicit, k))
                .collect();
            cells.push((backprop, MemConfigKind::ScratchG));
            cells.push((backprop, MemConfigKind::StashG));
            cells
        }
    }
}

/// Lowers every cell: the set-up the timed part starts from. Returns the
/// cells and the lowering time. Machines are built inside each
/// operation, as the figure binaries' jobs build them; holding all 51
/// at once would take about a gigabyte.
fn set_up(scale: Scale) -> (Vec<Cell>, Duration) {
    let mut build = Duration::ZERO;
    let mut cells = Vec::new();
    for (workload, kind) in cell_list(scale) {
        let (program, d) = measure::timed(|| (workload.build)(kind));
        build += d;
        cells.push(Cell {
            workload,
            kind,
            sys: workload.set.system_config(),
            program,
        });
    }
    (cells, build)
}

/// One round: every cell once, in `order`. Returns per-cell reports and
/// host times (indexed like `cells`), per-CU stall breakdowns when
/// traced, and the round's wall.
struct Round {
    reports: Vec<RunReport>,
    times: Vec<Duration>,
    stalls: Vec<Vec<sim::trace::StallBreakdown>>,
    wall: Duration,
}

fn run_round(cells: &[Cell], order: &[usize], traced: bool) -> Round {
    let mut reports: Vec<Option<RunReport>> = vec![None; cells.len()];
    let mut times = vec![Duration::ZERO; cells.len()];
    let mut stalls = vec![Vec::new(); cells.len()];
    let start = Instant::now();
    for &i in order {
        let c = &cells[i];
        let t = Instant::now();
        let mut m = Machine::new(c.sys.clone(), c.kind);
        if traced {
            m.memory_mut().enable_trace(TRACE_RING);
        }
        let report = m.run(&c.program);
        times[i] = t.elapsed();
        reports[i] = Some(report.unwrap_or_else(|e| {
            eprintln!("paper-matrix: {} failed: {e}", cells[i].label());
            std::process::exit(1);
        }));
        if let Some(sink) = m.memory_mut().take_trace() {
            stalls[i] = sink.breakdowns().to_vec();
        }
    }
    Round {
        reports: reports
            .into_iter()
            .map(|r| r.expect("every cell ran"))
            .collect(),
        times,
        stalls,
        wall: start.elapsed(),
    }
}

/// Runs the workload: the timed rounds, then the checks.
pub fn run(ctx: &Ctx, scale: Scale, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let reps = if scale == Scale::Full { SETUP_REPS } else { 1 };
    let mut setup = Vec::new();
    let mut build_ms = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..reps {
        cells.clear();
        let ((c, build), d) = measure::timed(|| set_up(scale));
        setup.push(d.as_secs_f64());
        build_ms.push(measure::ms(build));
        cells = c;
    }
    let mut order: Vec<usize> = (0..cells.len()).collect();
    sim::rng::SplitMix64::new(ctx.stream_seed).shuffle(&mut order);

    let mut first: Option<Round> = None;
    let mut latencies = Vec::new();
    let mut round = |r: usize, traced_round: bool, out: &mut Outcome| -> Duration {
        let res = run_round(&cells, &order, traced_round);
        latencies.extend(order.iter().map(|&i| res.times[i]));
        let wall = res.wall;
        match first.as_mut() {
            None => first = Some(res),
            Some(f) => {
                for (i, c) in cells.iter().enumerate() {
                    if f.reports[i] != res.reports[i] {
                        out.fail(format!(
                            "{}: round {r} report differs from round 0",
                            c.label()
                        ));
                    }
                }
                // The stall taxonomy comes from the traced round; host
                // times stay those of the untraced round.
                if traced_round {
                    f.stalls = res.stalls;
                }
            }
        }
        wall
    };

    if traced {
        let untraced = round(0, false, &mut out);
        let traced_wall = round(1, true, &mut out);
        measure::overhead(&mut out, untraced, traced_wall);
    } else {
        let wall = measure::run_rounds(ctx.seconds, |r| round(r, false, &mut out));
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
    let first = first.expect("at least one round");

    check_predictions(&cells, &first.reports, &mut out);
    if scale == Scale::Full {
        check_orderings(&cells, &first.reports, &mut out);
    }
    if traced {
        check_stalls(&cells, &first, &mut out);
        layers(&cells, &first, measure::median(&build_ms), &mut out);
    }
    let digest = sim::snapshot::fnv1a(format!("{:?}", first.reports).as_bytes());
    out.notes.push(format!(
        "paper-matrix: {} cells, simulated-work digest {digest:016x}",
        cells.len()
    ));
    out
}

/// Every cell's instructions and exact counters equal the static
/// prediction; modelled counters fall within the documented tolerance.
fn check_predictions(cells: &[Cell], reports: &[RunReport], out: &mut Outcome) {
    for (c, r) in cells.iter().zip(reports) {
        let pred = verify::analyze::predict::predict(&c.program, &c.sys, c.kind);
        for e in verify::validate_prediction(&pred, r) {
            out.fail(format!("{}: {e}", c.label()));
        }
    }
}

/// The paper's §6.2 and §6.3 orderings.
fn check_orderings(cells: &[Cell], reports: &[RunReport], out: &mut Outcome) {
    use MemConfigKind::{Cache, Scratch, ScratchG, ScratchGD, Stash, StashG};
    let get = |name: &str, kind: MemConfigKind| -> &RunReport {
        let i = cells
            .iter()
            .position(|c| c.workload.name == name && c.kind == kind)
            .expect("cell in the matrix");
        &reports[i]
    };
    // §6.2: the stash beats scratchpad and cache on every microbenchmark.
    for w in suite::micros() {
        let (st, sc, ca) = (get(w.name, Stash), get(w.name, Scratch), get(w.name, Cache));
        if !(st.total_picos < sc.total_picos
            && st.total_energy() < sc.total_energy()
            && st.total_picos <= ca.total_picos
            && st.total_energy() < ca.total_energy())
        {
            out.fail(format!(
                "§6.2: Stash does not beat Scratch and Cache on {}",
                w.name
            ));
        }
    }
    // §6.2: DMA loses on On-demand and Reuse.
    for name in ["ondemand", "reuse"] {
        let (st, dma) = (get(name, Stash), get(name, ScratchGD));
        if !(st.total_energy() < dma.total_energy()
            && st.traffic.total_crossings() < dma.traffic.total_crossings())
        {
            out.fail(format!("§6.2: Stash does not beat ScratchGD on {name}"));
        }
    }
    // §6.3: StashG beats Scratch in energy on every application and in
    // time on average; ScratchG is slower than Scratch on average;
    // Cache beats Scratch on Pathfinder.
    let apps = suite::applications();
    let (mut stashg, mut scratchg) = (0u64, 0u64);
    for w in &apps {
        let sc = get(w.name, Scratch);
        if get(w.name, StashG).total_energy() >= sc.total_energy() {
            out.fail(format!(
                "§6.3: StashG energy not below Scratch on {}",
                w.name
            ));
        }
        stashg += get(w.name, StashG).time_percent_of(sc);
        scratchg += get(w.name, ScratchG).time_percent_of(sc);
    }
    let n = apps.len() as u64;
    if stashg / n >= 100 || scratchg / n <= 100 {
        out.fail(format!(
            "§6.3: average time vs Scratch is StashG {}% and ScratchG {}%",
            stashg / n,
            scratchg / n
        ));
    }
    if get("pathfinder", Cache).total_picos >= get("pathfinder", Scratch).total_picos {
        out.fail("§6.3: Cache does not beat Scratch on pathfinder".to_string());
    }
}

/// In the traced round every CU's stall breakdown sums to the cell's
/// GPU cycles exactly.
fn check_stalls(cells: &[Cell], round: &Round, out: &mut Outcome) {
    for ((c, r), stalls) in cells.iter().zip(&round.reports).zip(&round.stalls) {
        if stalls.is_empty() {
            out.fail(format!(
                "{}: the traced round recorded no stalls",
                c.label()
            ));
        }
        for (cu, b) in stalls.iter().enumerate() {
            if b.total() != r.gpu_cycles {
                out.fail(format!(
                    "{} cu{cu}: stalls sum to {} of {} GPU cycles",
                    c.label(),
                    b.total(),
                    r.gpu_cycles
                ));
            }
        }
    }
}

fn config_key(kind: MemConfigKind) -> String {
    kind.name().to_ascii_lowercase()
}

/// Per-layer metrics: lowering time, host time and simulation speed
/// per configuration (untraced round), simulated work counts, and the
/// simulator's stall taxonomy (traced round).
fn layers(cells: &[Cell], round: &Round, build_ms: f64, out: &mut Outcome) {
    out.put("workloads.build_ms", build_ms, "ms");
    let mut per_cfg: BTreeMap<String, (Duration, u64)> = CONFIGS
        .iter()
        .map(|&k| (config_key(k), (Duration::ZERO, 0)))
        .collect();
    for ((c, r), t) in cells.iter().zip(&round.reports).zip(&round.times) {
        let e = per_cfg.get_mut(&config_key(c.kind)).expect("known config");
        e.0 += *t;
        e.1 += r.gpu_cycles + r.cpu_cycles;
    }
    for (k, (t, cycles)) in per_cfg {
        out.put(&format!("gpu.run_ms.{k}"), measure::ms(t), "ms");
        out.put(
            &format!("gpu.mcycles_per_s.{k}"),
            cycles as f64 / t.as_secs_f64().max(1e-9) / 1e6,
            "Mcycles/s",
        );
    }
    let sum = |f: &dyn Fn(&RunReport) -> u64| round.reports.iter().map(f).sum::<u64>() as f64;
    out.put("sim.gpu_cycles", sum(&|r| r.gpu_cycles), "cycles");
    out.put("sim.cpu_cycles", sum(&|r| r.cpu_cycles), "cycles");
    out.put(
        "sim.gpu_instructions",
        sum(&|r| r.gpu_instructions),
        "count",
    );
    for (name, counter) in COUNTS {
        out.put(name, sum(&|r| r.counters.value(counter)), "count");
    }
    out.put(
        "sim.noc.flit_crossings",
        sum(&|r| r.traffic.total_crossings()),
        "count",
    );
    out.put("sim.energy.total_fj", sum(&|r| r.total_energy()), "fJ");
    for reason in StallReason::ALL {
        let cycles: u64 = round.stalls.iter().flatten().map(|b| b.get(reason)).sum();
        out.put(
            &format!("gpu.stall.{}", reason.name()),
            cycles as f64,
            "cycles",
        );
    }
}
