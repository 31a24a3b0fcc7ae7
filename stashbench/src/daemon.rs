//! `daemon-mix`: one client in a closed loop against a resident
//! `stashd --threads 1` over stdio. Repeats of the `loadgen` template
//! set are cache hits; fresh `run-trace` requests in the shape of
//! `examples/histogram.trace` are misses. Every
//! round is one daemon lifetime and ends with a request line of deeply
//! nested `[`, which must be answered with an `error` event.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use bench::chaos;
use bench::cli::json_escape;
use bench::json::{self, Value};
use bench::server::{mix_templates, parse_request, ResultCache, Server, DEFAULT_CACHE_MAX};
use gpu::config::MemConfigKind;
use gpu::machine::Machine;
use sim::rng::SplitMix64;
use workloads::suite;

use crate::measure::{self, EndToEnd, Outcome};
use crate::{Ctx, Scale};

/// Nesting depth of the last request of every round.
const DEEP_NESTING: usize = 60_000;

/// Requests per round: `(hits, misses)`. Three hits to one miss, the
/// hit rate of the published `loadgen` mix (`BENCH_010.json`, 0.75).
fn round_mix(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (90, 30),
        Scale::Probe => (6, 2),
    }
}

/// One generated `run-trace` miss in the shape of
/// `examples/histogram.trace`: an 8,192-element sample array and a
/// 512-element lookup table, two kernels of two blocks whose tasks each
/// cover 2,048 samples, then a CPU sweep. Every miss simulates the same
/// amount of work; `index` makes its array names unique, and `seed`
/// places each block's task within its own half of the sample array.
pub fn gen_trace(index: u64, seed: u64) -> String {
    let mut place = SplitMix64::new(measure::sub_seed(seed, index));
    let p = format!("h{index:03}x{:04x}", place.next_below(1 << 16));
    let mut t = format!(
        "machine micro\narray {p}samples elems=8192 object=32 field=4\n\
         array {p}lut elems=512 object=4\n"
    );
    for kernel in 0..2 {
        t += "kernel\n";
        for half in 0..2u64 {
            t += "block\n";
            if kernel == 0 {
                t += &format!("task {p}lut 0 512 r global compute=2\n");
            }
            let offset = half * 4096 + 64 * place.next_below(33);
            t += &format!("task {p}samples {offset} 2048 rw local compute=6\n");
        }
    }
    t + &format!("cpu_sweep {p}samples cores=15\n")
}

fn trace_request(trace: &str) -> String {
    format!(
        "{{\"cmd\":\"run-trace\",\"trace\":\"{}\"}}",
        json_escape(trace)
    )
}

/// One round's request stream: `hits` repeats spread evenly over the
/// template set of `loadgen` ([`mix_templates`]: `advise` for each
/// microbenchmark, `fig5` and `chaos`) and `misses` fresh traces, in
/// seeded order. The even spread keeps every seed's hit cost the same.
fn stream(ctx: &Ctx, scale: Scale, templates: &[String]) -> Vec<String> {
    let (hits, misses) = round_mix(scale);
    let mut reqs: Vec<String> = (0..hits)
        .map(|i| templates[i % templates.len()].clone())
        .collect();
    reqs.extend((0..misses as u64).map(|i| trace_request(&gen_trace(i, ctx.trace_seed))));
    SplitMix64::new(ctx.stream_seed).shuffle(&mut reqs);
    reqs
}

/// One answered request as the client saw it.
struct Reply {
    cached: bool,
    payload: String,
    error: Option<String>,
    latency: Duration,
}

/// A `stashd` child on the stdio transport.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    next_id: u64,
}

impl Daemon {
    /// Spawns the daemon inside `dir` (so anything a crash leaves there
    /// is removed with it) with its cache under `dir/cache`.
    fn spawn(exe: &Path, dir: &Path) -> std::io::Result<Daemon> {
        let mut child = Command::new(exe)
            .args(["--threads", "1", "--cache-dir", "cache"])
            .current_dir(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped");
        let stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut d = Daemon {
            child,
            stdin,
            stdout,
            next_id: 1,
        };
        let hello = d.read_event()?;
        if hello.get_str("event") != Some("hello") {
            return Err(std::io::Error::other("no hello line"));
        }
        Ok(d)
    }

    /// Reads one protocol line and the time it arrived.
    fn read_line(&mut self) -> std::io::Result<(String, Instant)> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed its stdout",
            ));
        }
        Ok((line, Instant::now()))
    }

    fn read_event(&mut self) -> std::io::Result<Value> {
        decode(&self.read_line()?.0)
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()
    }

    /// Sends a request template (a JSON object without `id`) and waits
    /// for its `result` or `error`, skipping `progress` events. The
    /// latency runs from sending the request to the arrival of its
    /// answer line; decoding the line is this client's work, not the
    /// daemon's, and is left out.
    fn request(&mut self, template: &str) -> std::io::Result<Reply> {
        let id = self.next_id;
        self.next_id += 1;
        let start = Instant::now();
        self.send(&format!("{{\"id\":{id},{}", &template[1..]))?;
        loop {
            let (line, arrived) = self.read_line()?;
            let v = decode(&line)?;
            if v.get_u64("id") != Some(id) {
                continue;
            }
            match v.get_str("event") {
                Some("progress") => {}
                Some(ev @ ("result" | "error")) => {
                    return Ok(Reply {
                        cached: v.get("cached") == Some(&Value::Bool(true)),
                        payload: v.get_str("payload").unwrap_or("").to_string(),
                        error: (ev == "error")
                            .then(|| v.get_str("error").unwrap_or("?").to_string()),
                        latency: arrived - start,
                    })
                }
                _ => return Err(std::io::Error::other("unexpected event")),
            }
        }
    }

    /// Sends `stats` and returns the event.
    fn stats(&mut self) -> std::io::Result<Value> {
        self.send("{\"cmd\":\"stats\"}")?;
        loop {
            let v = self.read_event()?;
            if v.get_str("event") == Some("stats") {
                return Ok(v);
            }
        }
    }

    /// The deeply nested line, then `stats`: success is an `error`
    /// event followed by the `stats` answer.
    fn deep_request(&mut self) -> bool {
        let ok = (|| -> std::io::Result<bool> {
            self.send(&"[".repeat(DEEP_NESTING))?;
            let first = self.read_event()?;
            let stats = self.stats()?;
            Ok(first.get_str("event") == Some("error") && stats.get_str("event") == Some("stats"))
        })();
        ok.unwrap_or(false)
    }

    /// Ends the daemon (it may have died already) and reaps it.
    fn finish(mut self) -> String {
        let _ = self.send("{\"cmd\":\"shutdown\"}");
        drop(self.stdin);
        let status = self.child.wait();
        status.map_or_else(|e| e.to_string(), |s| s.to_string())
    }
}

fn decode(line: &str) -> std::io::Result<Value> {
    json::parse(line.trim_end())
        .map_err(|e| std::io::Error::other(format!("bad protocol line: {e}")))
}

/// What the rounds saw, across all of them.
#[derive(Default)]
struct Seen {
    /// First answer per distinct request.
    answers: HashMap<String, String>,
    latencies: Vec<Duration>,
    hit_latencies: Vec<Duration>,
    miss_latencies: Vec<Duration>,
    setup: Vec<f64>,
    spawn_ms: Vec<f64>,
    prime_ms: Vec<f64>,
    rss_mb: Vec<f64>,
    attempted: u64,
    failed: u64,
    exits: Vec<String>,
    stats: Option<Value>,
}

impl Seen {
    fn answer(&mut self, req: &str, reply: &Reply, out: &mut Outcome) {
        if let Some(e) = &reply.error {
            out.fail(format!("request failed: {e}"));
            return;
        }
        match self.answers.get(req) {
            None => {
                self.answers.insert(req.to_string(), reply.payload.clone());
            }
            Some(first) if *first == reply.payload => {}
            Some(_) => out.fail("a repeat differs from its first answer".to_string()),
        }
    }
}

fn fatal(context: &str, e: &std::io::Error) -> ! {
    eprintln!("daemon-mix: {context}: {e}");
    std::process::exit(1);
}

/// One daemon lifetime: spawn, prime, the timed stream, then the deep
/// request. Returns the timed wall of the stream.
fn round(
    ctx: &Ctx,
    scale: Scale,
    templates: &[String],
    reqs: &[String],
    traced: bool,
    seen: &mut Seen,
    out: &mut Outcome,
) -> Duration {
    let dir = ctx.work.join("daemon").join("round");
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        fatal("creating the daemon directory", &e);
    }
    let start = Instant::now();
    let mut d = Daemon::spawn(&ctx.stashd, &dir).unwrap_or_else(|e| fatal("spawning stashd", &e));
    let spawned = start.elapsed();
    for t in templates {
        let reply = d.request(t).unwrap_or_else(|e| fatal("priming", &e));
        seen.answer(t, &reply, out);
    }
    let setup = start.elapsed();
    seen.spawn_ms.push(measure::ms(spawned));
    seen.prime_ms.push(measure::ms(setup - spawned));
    seen.setup.push(setup.as_secs_f64());

    let timed = Instant::now();
    let mut hits = 0;
    for r in reqs {
        let reply = d.request(r).unwrap_or_else(|e| fatal("request", &e));
        seen.answer(r, &reply, out);
        seen.latencies.push(reply.latency);
        if reply.cached {
            hits += 1;
            seen.hit_latencies.push(reply.latency);
        } else {
            seen.miss_latencies.push(reply.latency);
        }
    }
    let wall = timed.elapsed();
    if hits != round_mix(scale).0 {
        out.fail(format!(
            "{hits} cache hits in a round of {} repeats",
            round_mix(scale).0
        ));
    }
    seen.attempted += reqs.len() as u64;
    if traced {
        seen.stats = Some(d.stats().unwrap_or_else(|e| fatal("stats", &e)));
    }
    seen.rss_mb.push(measure::peak_rss_mb(Some(d.child.id())));
    // The deep request is counted but not timed: how long a daemon
    // takes to die depends on the host's core-dump settings.
    if scale == Scale::Full {
        seen.attempted += 1;
        if !d.deep_request() {
            seen.failed += 1;
        }
    }
    seen.exits.push(d.finish());
    let _ = std::fs::remove_dir_all(&dir);
    wall
}

/// Runs the workload: the timed rounds, then the checks.
pub fn run(ctx: &Ctx, scale: Scale, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let templates = mix_templates();
    let reqs = stream(ctx, scale, &templates);
    let mut seen = Seen::default();
    if traced {
        let untraced = round(ctx, scale, &templates, &reqs, false, &mut seen, &mut out);
        let (n_lat, n_hit, n_miss) = (
            seen.latencies.len(),
            seen.hit_latencies.len(),
            seen.miss_latencies.len(),
        );
        let traced_wall = round(ctx, scale, &templates, &reqs, true, &mut seen, &mut out);
        measure::overhead(&mut out, untraced, traced_wall);
        // Client-side splits come from the traced round alone.
        seen.latencies.drain(..n_lat);
        seen.hit_latencies.drain(..n_hit);
        seen.miss_latencies.drain(..n_miss);
        layers(ctx, &templates, &reqs, &seen, &mut out);
    } else {
        let wall = measure::run_rounds(ctx.seconds, |_| {
            round(ctx, scale, &templates, &reqs, false, &mut seen, &mut out)
        });
        EndToEnd {
            setup: seen.setup.clone(),
            latencies: seen.latencies.clone(),
            wall,
            round_ops: reqs.len() + 1,
            peak_rss_mb: measure::median(&seen.rss_mb),
        }
        .report(&mut out);
    }
    if scale == Scale::Full {
        out.attempted = seen.attempted;
        out.failed = seen.failed;
    }
    check_answers(&seen.answers, &mut out);
    let mut exits = std::collections::BTreeMap::new();
    for e in &seen.exits {
        *exits.entry(e.as_str()).or_insert(0) += 1;
    }
    out.notes.push(format!(
        "daemon-mix: {} templates, {} hits + {} misses{} per round; daemon exits {exits:?}",
        templates.len(),
        round_mix(scale).0,
        round_mix(scale).1,
        if scale == Scale::Full {
            " + 1 deep request"
        } else {
            ""
        },
    ));
    out
}

/// Every distinct answer equals a direct computation in this process.
fn check_answers(answers: &HashMap<String, String>, out: &mut Outcome) {
    for (req, payload) in answers {
        let v = json::parse(req).expect("generated request parses");
        let expected = match v.get_str("cmd") {
            Some("fig5") => {
                let kinds = MemConfigKind::FIGURE5;
                bench::csv_bytes(&bench::run_matrix(&suite::micros(), &kinds), &kinds)
            }
            Some("advise") => direct_advise(v.get_str("workload").unwrap_or("")),
            Some("chaos") => direct_chaos(
                v.get_str("workload").unwrap_or(""),
                v.get_u64("seed").unwrap_or(0),
                v.get_u64("seeds").unwrap_or(0),
            ),
            _ => direct_trace(v.get_str("trace").unwrap_or("")),
        };
        if *payload != expected {
            out.fail(format!(
                "answer to {} differs from a direct computation",
                &req[..req.len().min(60)]
            ));
        }
    }
}

/// An `advise` answer computed directly: the static analysis's notes
/// and estimates beside each figure configuration's measured time.
fn direct_advise(name: &str) -> String {
    let Some(wl) = suite::by_name(name) else {
        return format!("unknown workload {name}");
    };
    let sys = wl.set.system_config();
    let kinds = wl.set.figure_kinds();
    let analysis = verify::analyze_workload(wl.build, &sys, kinds, &verify::Symbols::new());
    let measured: Vec<(MemConfigKind, u64)> = kinds
        .iter()
        .map(|&kind| {
            let report = Machine::new(sys.clone(), kind).run(&(wl.build)(kind));
            (kind, report.map_or(0, |r| r.total_picos))
        })
        .collect();
    let mut s = format!("workload {name}\n");
    for note in &analysis.notes {
        s += &format!("note {} {}\n", note.rule.code(), note.message);
    }
    for (pred, (kind, picos)) in analysis.predictions.iter().zip(&measured) {
        s += &format!(
            "config {} est_ps {} measured_ps {picos}\n",
            kind.name(),
            pred.est_picos
        );
    }
    let best = measured
        .iter()
        .min_by_key(|&&(_, t)| t)
        .map_or("-", |&(k, _)| k.name());
    let agreement = if verify::recommendation_ok(analysis.recommended, &measured) {
        "ok"
    } else {
        "MISMATCH"
    };
    s + &format!(
        "recommended {} measured_best {best} agreement {agreement}\n",
        analysis.recommended.name()
    )
}

/// A `chaos` answer computed directly: the campaign's classification
/// counts and every injected run's outcome and fingerprint hash.
fn direct_chaos(name: &str, seed: u64, seeds: u64) -> String {
    let Some(wl) = suite::by_name(name) else {
        return format!("unknown workload {name}");
    };
    let target = chaos::Target {
        name: name.to_string(),
        sys: wl.set.system_config(),
        build: &wl.build,
    };
    let cfg = chaos::CampaignConfig::new((0..seeds).map(|i| seed.wrapping_add(i)).collect(), 1);
    let campaign = match chaos::run_campaign(&[target], wl.set.figure_kinds(), &cfg) {
        Ok(c) => c,
        Err(e) => return e,
    };
    let mut s = format!(
        "cells {} recovered {} detected {} escapes {} injected {} retries {}\n",
        campaign.cells.len(),
        campaign.recovered(),
        campaign.detected(),
        campaign.escapes().len(),
        campaign.total_injected(),
        campaign.total_retries(),
    );
    for c in &campaign.cells {
        s += &format!(
            "cell {} {} seed {} {} fp {}\n",
            c.workload,
            c.kind.name(),
            c.seed,
            c.outcome.label(),
            sim::snapshot::fnv1a(c.fingerprint.as_bytes()),
        );
    }
    s
}

/// A `run-trace` answer computed directly: every configuration's time,
/// energy, instructions, flits and state digest.
fn direct_trace(trace: &str) -> String {
    let Ok(tw) = workloads::trace::parse_trace(trace) else {
        return "unparsable trace".to_string();
    };
    let mut s = format!("trace configs {}\n", MemConfigKind::ALL.len());
    for kind in MemConfigKind::ALL {
        let mut m = Machine::new(tw.set().system_config(), kind);
        match m.run(&tw.build(kind)) {
            Ok(r) => {
                s += &format!(
                    "config {} time_ps {} energy_fj {} instrs {} flits {} state_digest {:016x}\n",
                    kind.name(),
                    r.total_picos,
                    r.total_energy(),
                    r.gpu_instructions,
                    r.traffic.total_flits(),
                    m.memory().state_digest(),
                );
            }
            Err(e) => s += &format!("error {e}\n"),
        }
    }
    s
}

/// Per-layer metrics: the daemon's own split from the traced round, and
/// in-process timings of the same stream replayed through
/// `bench::server`.
fn layers(ctx: &Ctx, templates: &[String], reqs: &[String], seen: &Seen, out: &mut Outcome) {
    let p50 = |v: &[Duration]| {
        let mut sorted = v.to_vec();
        sorted.sort_unstable();
        bench::timing::percentile(&sorted, 50).unwrap_or_default()
    };
    out.put("stashd.spawn_ms", measure::median(&seen.spawn_ms), "ms");
    out.put("stashd.prime_ms", measure::median(&seen.prime_ms), "ms");
    let hit_p50 = p50(&seen.hit_latencies);
    out.put("stashd.hit_ms_p50", measure::ms(hit_p50), "ms");
    out.put(
        "stashd.miss_ms_p50",
        measure::ms(p50(&seen.miss_latencies)),
        "ms",
    );
    out.put(
        "stashd.hit_ratio",
        seen.hit_latencies.len() as f64 / seen.latencies.len().max(1) as f64,
        "ratio",
    );
    let stat = |k: &str| seen.stats.as_ref().and_then(|s| s.get_u64(k)).unwrap_or(0) as f64;
    out.put("stashd.hits", stat("hits"), "count");
    out.put("stashd.misses", stat("misses"), "count");
    out.put(
        "stashd.resident_programs",
        stat("resident_programs"),
        "count",
    );

    let dir = ctx.work.join("daemon").join("replay");
    let _ = std::fs::remove_dir_all(&dir);
    let open = |name: &str| {
        ResultCache::on_disk(&dir.join(name), DEFAULT_CACHE_MAX)
            .unwrap_or_else(|e| fatal("opening the replay cache", &e))
    };
    let mut server = Server::new(1, open("server"));
    let mut cache = open("lookup");
    let (mut json_us, mut parse_us, mut key_us, mut lookup_us) = (vec![], vec![], vec![], vec![]);
    let (mut store_ms, mut hit_ms, mut miss_ms, mut in_process_hit) =
        (vec![], vec![], vec![], vec![]);
    for (n, body) in templates.iter().chain(reqs).enumerate() {
        let line = format!("{{\"id\":{n},{}", &body[1..]);
        let (v, t_json) = measure::timed(|| json::parse(&line));
        let Ok(v) = v else {
            out.fail("replay: a request does not parse".to_string());
            continue;
        };
        let (req, t_parse) = measure::timed(|| parse_request(&v));
        let Ok(req) = req else {
            out.fail("replay: a request does not validate".to_string());
            continue;
        };
        let (key, t_key) = measure::timed(|| server.request_key(&req));
        let Ok(key) = key else {
            out.fail("replay: no cache key".to_string());
            continue;
        };
        let (found, t_lookup) = measure::timed(|| cache.lookup(&key));
        let mut event = String::new();
        let (_, t_batch) = measure::timed(|| {
            server.handle_batch(&[(n as u64, req)], &mut |l| {
                if !l.contains("\"event\":\"progress\"") {
                    event = l.to_string();
                }
            });
        });
        let ev = json::parse(&event).unwrap_or(Value::Null);
        let payload = ev.get_str("payload").unwrap_or("");
        if seen.answers.get(body).map(String::as_str) != Some(payload) {
            out.fail("replay: in-process answer differs from the daemon's".to_string());
        }
        let t_store = found
            .is_none()
            .then(|| measure::timed(|| cache.store(&key, payload)).1);
        if n < templates.len() {
            continue; // the priming pass
        }
        json_us.push(measure::us(t_json));
        parse_us.push(measure::us(t_parse));
        key_us.push(measure::us(t_key));
        lookup_us.push(measure::us(t_lookup));
        if let Some(t) = t_store {
            store_ms.push(measure::ms(t));
        }
        if ev.get("cached") == Some(&Value::Bool(true)) {
            hit_ms.push(measure::ms(t_batch));
            in_process_hit.push(t_json + t_parse + t_batch);
        } else {
            miss_ms.push(measure::ms(t_batch));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.put("server.json_parse_us", measure::median(&json_us), "us");
    out.put("server.parse_request_us", measure::median(&parse_us), "us");
    out.put("server.request_key_us", measure::median(&key_us), "us");
    out.put("server.cache_lookup_us", measure::median(&lookup_us), "us");
    out.put("server.cache_store_ms", measure::median(&store_ms), "ms");
    out.put("server.batch_hit_ms", measure::median(&hit_ms), "ms");
    out.put("server.batch_miss_ms", measure::median(&miss_ms), "ms");
    out.put(
        "stashd.transport_us",
        measure::us(hit_p50) - measure::us(p50(&in_process_hit)),
        "us",
    );
}
