//! Closed-loop round benchmark for the dpbfl workspace.
//!
//! ```text
//! dpbfl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dpbfl-perfbench --pin <name>
//! ```
//!
//! One *unit* is a whole run of the workload's pinned config: set-up
//! (`prepare` + `InProcessTransport::new`, or the `BoundServer` admission
//! for `served`), then every round, each waiting for its cohort's uploads.
//! Units repeat on the same seed until `--seconds` have passed (at least
//! two, so the same-seed byte-identity check always runs). With
//! `--trace 1`, untraced and traced units alternate, and the run ends with
//! unit-cost replays; it reports the per-layer metrics instead of the
//! end-to-end ones. The last line of standard output is the result JSON;
//! see `README.md` beside this package for every metric.

mod probe;
mod replay;
mod workload;

use dpbfl::prelude::*;
use dpbfl::simulation::{resolve_sigma, round_cohort};
use probe::Probe;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::Workload;

/// Set-up-only repetitions before every untraced unit (in-process
/// workloads): at least this many, and until this many seconds have passed.
/// Spread over the run, they sample the host as the units do.
const SETUP_MIN_REPS: usize = 2;
const SETUP_S: f64 = 0.25;

/// Client threads (one connection each) of the `served` workload.
const SERVED_CLIENTS: usize = 2;

/// Per-layer metrics printed but kept out of the result: each reads exactly
/// 0 on every run of a workload that has no such span (label-flip attacks
/// craft nothing; streaming folds run both stages inside `collect`; only
/// `served` has a wire).
const PRINTED_ONLY: [&str; 4] = [
    "core.attack.ms",
    "core.first_stage.stage1_ms",
    "core.second_stage.stage2_ms",
    "core.serving.wire_ms",
];

/// Spans the round loop records directly (not nested in another span).
const TOP_SPANS: [&str; 6] = ["collect", "attack", "stage1", "stage2", "aggregate", "eval"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    Pin(String),
}

fn parse_args() -> Result<Command, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.trim_start_matches("--").to_string(), value.clone())
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        };
    }
    if let Some(name) = flags.remove("pin") {
        return Ok(Command::Pin(name));
    }
    let mut take = |key: &str| flags.remove(key).ok_or(format!("missing --{key}"));
    let workload = take("workload")?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if let Some(key) = flags.keys().next() {
        return Err(format!("unknown flag --{key}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Command::Run(Args { workload, seed, seconds, trace }))
}

/// Median of `xs` (mean of the middle two for even lengths).
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, the rule `ServingReport` uses.
fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((p / 100.0) * (v.len() - 1) as f64).round() as usize]
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// What a traced unit saw, summed over the unit.
#[derive(Default)]
struct Trace {
    rounds: usize,
    /// First round trip to the end of the run, seconds.
    window_s: f64,
    /// Total seconds and call count per span name.
    spans: BTreeMap<String, (f64, usize)>,
    /// Seconds inside `round_trip` and inside the forwarded fold.
    round_trip_s: f64,
    fold_s: f64,
    /// Uploads the transport delivered through the timed fold.
    uploads: u64,
    /// KS decisions (exact, fast) as the probe read them from `CheckInfo`.
    probe_ks: (u64, u64),
    /// KS decisions (exact, fast) as the run's ledger counted them.
    ledger_ks: (u64, u64),
}

impl Trace {
    fn from_sink(sink: &MemorySink) -> Trace {
        let mut t = Trace::default();
        for s in &sink.spans {
            let e = t.spans.entry(s.name.clone()).or_default();
            e.0 += s.micros as f64 * 1e-6;
            e.1 += 1;
        }
        for r in &sink.rounds {
            t.ledger_ks.0 += r.ks_exact_fallback;
            t.ledger_ks.1 += r.ks_fast_path;
        }
        t
    }

    fn span_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.0)
    }
}

/// One whole run of the workload.
struct Unit {
    setup_s: f64,
    rounds: usize,
    /// Round-loop wall time, seconds (set-up excluded).
    loop_s: f64,
    /// Per-round wall times (in-process only; served reports percentiles).
    round_ms: Vec<f64>,
    /// Served round latency percentiles from the `ServingReport`.
    served_p50_p99: Option<(f64, f64)>,
    result: RunResult,
    summary: String,
    /// Summaries the served clients received at the end of the run.
    client_summaries: Vec<String>,
    dropped: u64,
    trace: Option<Trace>,
}

fn summary_json(result: &RunResult) -> String {
    serde_json::to_string(&result.summary()).expect("summary serializes")
}

fn memory_telemetry(traced: bool) -> (Arc<Mutex<MemorySink>>, Telemetry) {
    let sink = Arc::new(Mutex::new(MemorySink::default()));
    let tel = if traced { Telemetry::new(Box::new(sink.clone())) } else { Telemetry::null() };
    (sink, tel)
}

/// `prepare` + `InProcessTransport::new`, timed.
fn setup_s(w: &Workload, dp: &DpSgdConfig) -> f64 {
    let t0 = Instant::now();
    let prep = prepare(&w.cfg);
    let transport = InProcessTransport::new(&w.cfg, &prep, dp);
    let s = t0.elapsed().as_secs_f64();
    drop(std::hint::black_box(transport));
    s
}

fn in_process_unit(w: &Workload, dp: &DpSgdConfig, traced: bool) -> Unit {
    let t0 = Instant::now();
    let prep = prepare(&w.cfg);
    let transport = InProcessTransport::new(&w.cfg, &prep, dp);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut probe = Probe::new(transport, traced);
    let (sink, tel) = memory_telemetry(traced);
    let start = Instant::now();
    let result = run_with_transport_telemetry(&w.cfg, &prep, &mut probe, &tel);
    let end = Instant::now();
    let round_ms = probe.round_ms(end);
    let trace = traced.then(|| {
        let mut t = Trace::from_sink(&sink.lock().expect("sink lock"));
        t.rounds = round_ms.len();
        t.window_s = (end - probe.starts[0]).as_secs_f64();
        t.round_trip_s = probe.round_trip.as_secs_f64();
        t.fold_s = probe.fold.as_secs_f64();
        t.uploads = probe.uploads;
        t.probe_ks = (probe.ks_exact, probe.ks_fast);
        t
    });
    Unit {
        setup_s,
        rounds: round_ms.len(),
        loop_s: (end - start).as_secs_f64(),
        round_ms,
        served_p50_p99: None,
        summary: summary_json(&result),
        result,
        client_summaries: Vec::new(),
        dropped: 0,
        trace,
    }
}

/// One served run: `BoundServer` on an ephemeral loopback port,
/// [`SERVED_CLIENTS`] `run_client` threads with one connection each.
fn served_unit(w: &Workload, traced: bool) -> Result<Unit, String> {
    let cfg = &w.cfg;
    let pool = thread_pool(1);
    let server = BoundServer::bind("tcp://127.0.0.1:0")?;
    let addr = server.local_addr().to_string();
    let workers: Vec<usize> = data_member_indices(cfg).iter().map(|&i| i as usize).collect();
    let (sink, tel) = memory_telemetry(traced);
    let t0 = Instant::now();
    let (served, client_summaries) = std::thread::scope(|scope| {
        let clients: Vec<_> = workers
            .chunks(workers.len().div_ceil(SERVED_CLIENTS))
            .map(|ws| {
                let addr = addr.clone();
                scope.spawn(move || {
                    thread_pool(1).install(|| run_client(&addr, ws, &ClientOptions::default()))
                })
            })
            .collect();
        let served = pool.install(|| server.serve_telemetry(cfg, &RoundPolicy::default(), &tel));
        let summaries: Result<Vec<String>, String> =
            clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect();
        (served, summaries)
    });
    let wall = t0.elapsed().as_secs_f64();
    let (result, report) = served?;
    let client_summaries = client_summaries?;
    let loop_s = report.rounds as f64 / report.rounds_per_sec;
    let trace = traced.then(|| {
        let mut t = Trace::from_sink(&sink.lock().expect("sink lock"));
        t.rounds = report.rounds;
        t.window_s = loop_s;
        t.round_trip_s = t.span_s("collect");
        t
    });
    Ok(Unit {
        setup_s: wall - loop_s,
        rounds: report.rounds,
        loop_s,
        round_ms: Vec::new(),
        served_p50_p99: Some((report.p50_round_ms, report.p99_round_ms)),
        summary: summary_json(&result),
        result,
        client_summaries,
        dropped: report.dropped_uploads,
        trace,
    })
}

fn thread_pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool")
}

/// Named output checks; each one counts as an operation attempted.
#[derive(Default)]
struct Checks(Vec<(String, bool)>);

impl Checks {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("check failed: {name}");
        }
        self.0.push((name, ok));
    }
    fn failed(&self) -> usize {
        self.0.iter().filter(|(_, ok)| !ok).count()
    }
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
    fn to_value(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .filter(|(name, _, _)| !PRINTED_ONLY.contains(&name.as_str()))
                .map(|(name, value, unit)| {
                    let v = Value::Obj(vec![
                        ("value".into(), Value::Float(*value)),
                        ("unit".into(), Value::Str((*unit).into())),
                    ]);
                    (name.clone(), v)
                })
                .collect(),
        )
    }
    fn print(&self, header: &str) {
        println!("{header}");
        for (name, value, unit) in &self.0 {
            let note =
                if PRINTED_ONLY.contains(&name.as_str()) { "  (not in the result)" } else { "" };
            println!("  {name:<34} {value:>14.6} {unit}{note}");
        }
    }
}

/// Cohort uploads attempted over one run: (all, honest).
fn uploads_attempted(cfg: &SimulationConfig) -> (u64, u64) {
    (0..cfg.iterations()).fold((0, 0), |(all, honest), t| {
        let cohort = round_cohort(cfg, t);
        let h = cohort.iter().filter(|&&i| i < cfg.n_honest).count();
        (all + cohort.len() as u64, honest + h as u64)
    })
}

/// Output checks. `units` all ran on the run's seed (untraced first);
/// `reference` ran on the workload's pinned seed; `twins` are in-process
/// runs of a served workload's seed (one rayon thread, then in traced runs
/// one thread per client connection).
fn check_units(
    w: &Workload,
    units: &[&Unit],
    reference: &Unit,
    twins: &[Unit],
    checks: &mut Checks,
) {
    let first = &units[0].summary;
    let labelled = units.iter().enumerate().map(|(k, u)| (format!("unit {k}"), *u));
    for (label, u) in labelled.chain(std::iter::once(("reference".to_string(), reference))) {
        let r = &u.result;
        checks.check(format!("{label}: sigma is the pinned value"), r.sigma == w.sigma);
        checks.check(format!("{label}: delta is the pinned value"), r.delta == w.delta);
        for (c, s) in u.client_summaries.iter().enumerate() {
            checks.check(format!("{label}: client {c} received the run summary"), s == &u.summary);
        }
        if w.served {
            checks.check(format!("{label}: 0 dropped uploads ({})", u.dropped), u.dropped == 0);
        }
    }
    for (k, u) in units.iter().enumerate() {
        checks.check(format!("unit {k}: same-seed summary is byte-identical"), &u.summary == first);
        if let Some(twin) = twins.first() {
            let same = u.summary == twin.summary;
            checks.check(format!("unit {k}: served summary equals the in-process twin"), same);
        }
        if let Some(t) = &u.trace {
            // Label-flip runs deliver every cohort upload through the
            // transport, so the probe sees exactly what the ledger counts.
            if t.probe_ks != (0, 0) && w.cfg.attack.needs_poisoned_workers() {
                let same = t.probe_ks == t.ledger_ks;
                checks.check(format!("unit {k}: probe KS counts equal the ledger's"), same);
            }
        }
    }
    for (k, twin) in twins.iter().enumerate().skip(1) {
        let same = twin.summary == twins[0].summary;
        checks.check(format!("twin {k}: summary is identical across thread counts"), same);
    }
    if w.name == "quickstart" {
        let acc = format!("{:.3}", reference.result.final_accuracy);
        checks.check(format!("reference: quickstart accuracy reads 1.000 ({acc})"), acc == "1.000");
    }
}

/// Rounds per second over all of `units`: every round they ran divided by
/// their summed round-loop wall time.
fn rounds_per_s(units: &[&Unit]) -> f64 {
    let rounds: usize = units.iter().map(|u| u.rounds).sum();
    rounds as f64 / units.iter().map(|u| u.loop_s).sum::<f64>()
}

/// The end-to-end metrics: speed over every untraced unit (`units`, the
/// reference unit included), defense quality from the reference unit on
/// the pinned seed.
fn end_to_end(
    w: &Workload,
    units: &[&Unit],
    reference: &Unit,
    setups: &[f64],
    (failed, attempted): (u64, u64),
) -> Metrics {
    let r = &reference.result;
    let stats = &r.defense_stats;
    let (_, honest) = uploads_attempted(&w.at_pinned_seed().cfg);
    let reject = stats.first_stage_rejected_honest as f64 / honest as f64;
    let byz = stats.byzantine_selected as f64 / stats.total_selected as f64;
    let failed_share = failed as f64 / attempted as f64;
    let (p50, p99) = if w.served {
        let p50: Vec<f64> = units.iter().map(|u| u.served_p50_p99.expect("served").0).collect();
        let p99: Vec<f64> = units.iter().map(|u| u.served_p50_p99.expect("served").1).collect();
        (median(&p50), median(&p99))
    } else {
        let all: Vec<f64> = units.iter().flat_map(|u| u.round_ms.iter().copied()).collect();
        (percentile(&all, 50.0), percentile(&all, 99.0))
    };
    let mut m = Metrics(Vec::new());
    m.put("rounds_per_s", rounds_per_s(units), "1/s");
    m.put("setup_s", median(setups), "s");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    m.put("final_accuracy", r.final_accuracy, "share");
    m.put("honest_accept_share", 1.0 - reject, "share");
    m.put("honest_selected_share", 1.0 - byz, "share");
    m.put("round_p50_ms", p50, "ms");
    m.put("round_p99_ms", p99, "ms");
    m.put("ok_share", 1.0 - failed_share, "share");
    let mut named = Metrics(Vec::new());
    named.put("honest_reject_share", reject, "share");
    named.put("byzantine_selected_share", byz, "share");
    named.put("failed_share", failed_share, "share");
    named.print("shares (the result reports their complements):");
    m
}

fn per_layer(w: &Workload, plain: &[&Unit], traced: &[&Unit], twins: &[Unit]) -> Metrics {
    let ts: Vec<&Trace> = traced.iter().map(|u| u.trace.as_ref().expect("traced unit")).collect();
    let sum = |f: &dyn Fn(&Trace) -> f64| ts.iter().map(|t| f(t)).sum::<f64>();
    let rounds = sum(&|t| t.rounds as f64);
    let per_round_ms = |name: &str| sum(&|t| t.span_s(name)) / rounds * 1e3;
    let twin_trace = |k: usize| twins[k].trace.as_ref().expect("traced twin");
    // Client and fold costs come from the in-process probe: on `served`,
    // from the one-thread in-process twin of the same config.
    let probe_src: Vec<&Trace> = if w.served { vec![twin_trace(0)] } else { ts.clone() };
    let uploads = probe_src.iter().map(|t| t.uploads).sum::<u64>().max(1) as f64;
    let fold_s: f64 = probe_src.iter().map(|t| t.fold_s).sum();
    let trip_s: f64 = probe_src.iter().map(|t| t.round_trip_s).sum();
    let (exact, fast) = ts.iter().fold((0, 0), |(e, f), t| (e + t.ledger_ks.0, f + t.ledger_ks.1));
    let top: f64 = TOP_SPANS.iter().map(|s| sum(&|t| t.span_s(s))).sum();
    let mean_span_ms =
        |t: &Trace, name: &str| t.spans.get(name).map_or(0.0, |&(s, n)| s / n.max(1) as f64 * 1e3);
    // Compared with the twin that steps members on as many threads as the
    // served run has client connections.
    let wire_ms = if w.served {
        let served: Vec<f64> = ts.iter().map(|t| mean_span_ms(t, "serving_round")).collect();
        median(&served) - mean_span_ms(twin_trace(1), "collect")
    } else {
        0.0
    };

    let mut m = Metrics(Vec::new());
    m.put("core.round.wall_ms", sum(&|t| t.window_s) / rounds * 1e3, "ms");
    m.put("core.round.collect_ms", sum(&|t| t.round_trip_s) / rounds * 1e3, "ms");
    m.put("core.worker.client_us", (trip_s - fold_s) / uploads * 1e6, "us");
    m.put("core.first_stage.fold_us", fold_s / uploads * 1e6, "us");
    m.put("core.first_stage.ks_exact_share", exact as f64 / (exact + fast).max(1) as f64, "share");
    m.put("core.attack.ms", per_round_ms("attack"), "ms");
    m.put("core.first_stage.stage1_ms", per_round_ms("stage1"), "ms");
    m.put("core.second_stage.stage2_ms", per_round_ms("stage2"), "ms");
    m.put("core.round.aggregate_ms", per_round_ms("aggregate"), "ms");
    m.put("core.round.eval_ms", per_round_ms("eval"), "ms");
    m.put("core.round.unspanned_ms", (sum(&|t| t.window_s) - top) / rounds * 1e3, "ms");
    m.put("core.serving.wire_ms", wire_ms, "ms");
    for (name, value, unit) in replay::unit_costs(w) {
        m.put(name, value, unit);
    }
    m.put("trace.rounds_per_s_delta", rounds_per_s(traced) - rounds_per_s(plain), "1/s");
    m
}

fn stamp(w: &Workload, args: &Args) -> Value {
    let env = |key: &str| Value::Str(std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Obj(vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("seed".into(), Value::Int(args.seed as i64)),
        ("trace".into(), Value::Bool(args.trace)),
        ("git_sha".into(), env("PERFBENCH_GIT_SHA")),
        ("source_sha256".into(), env("PERFBENCH_SOURCE_SHA256")),
        ("rustc".into(), env("PERFBENCH_RUSTC")),
        ("nproc".into(), Value::Int(nproc as i64)),
        ("rayon_threads".into(), Value::Int(1)),
        ("cache_key".into(), Value::Str(PreparedRun::cache_key(&w.cfg))),
    ])
}

fn run(args: &Args) -> Result<(), String> {
    let w = workload::load(&args.workload, args.seed)?;
    let (sigma, _) = resolve_sigma(&w.cfg);
    let mut dp = w.cfg.dp.clone();
    dp.noise_multiplier = sigma;
    let pool = thread_pool(1);
    // Set-up alone, repeated before every untraced unit; the served set-up
    // is only measured per unit.
    let mut setups = Vec::new();
    let mut unit = |w: &Workload, traced: bool| -> Result<Unit, String> {
        let start = Instant::now();
        let mut reps = 0;
        while !w.served
            && !traced
            && (reps < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_S)
        {
            setups.push(pool.install(|| setup_s(w, &dp)));
            reps += 1;
        }
        let u = match w.served {
            true => served_unit(w, traced)?,
            false => pool.install(|| in_process_unit(w, &dp, traced)),
        };
        if !traced {
            setups.push(u.setup_s);
        }
        Ok(u)
    };

    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        plain.push(unit(&w, false)?);
        if args.trace {
            traced.push(unit(&w, true)?);
        }
    }
    // On the pinned seed the first unit already is the reference.
    let pinned = w.at_pinned_seed();
    let extra_reference = (args.seed != w.pinned_seed).then(|| unit(&pinned, false)).transpose()?;
    let mut twins = Vec::new();
    if w.served {
        twins.push(pool.install(|| in_process_unit(&w, &dp, args.trace)));
        if args.trace {
            let clients = thread_pool(SERVED_CLIENTS);
            twins.push(clients.install(|| in_process_unit(&w, &dp, true)));
        }
    }

    let plain: Vec<&Unit> = plain.iter().collect();
    let traced: Vec<&Unit> = traced.iter().collect();
    let all: Vec<&Unit> = plain.iter().chain(&traced).copied().collect();
    let reference = extra_reference.as_ref().unwrap_or(plain[0]);
    let mut checks = Checks::default();
    check_units(&w, &all, reference, &twins, &mut checks);
    let ran: Vec<(&Unit, &SimulationConfig)> = all
        .iter()
        .map(|u| (*u, &w.cfg))
        .chain(extra_reference.iter().map(|u| (u, &pinned.cfg)))
        .collect();
    let uploads: u64 = ran.iter().map(|(_, cfg)| uploads_attempted(cfg).0).sum();
    let dropped: u64 = ran.iter().map(|(u, _)| u.dropped).sum();
    let attempted = uploads + checks.0.len() as u64;
    let failed = checks.failed() as u64 + dropped;

    println!("stamp {}", serde_json::to_string(&Raw(stamp(&w, args))).expect("stamp"));
    println!(
        "units: {} untraced, {} traced, reference on seed {}; {} checks, {} set-ups",
        plain.len(),
        traced.len(),
        w.pinned_seed,
        checks.0.len(),
        setups.len()
    );
    let untraced: Vec<&Unit> = plain.iter().copied().chain(&extra_reference).collect();
    for u in &untraced {
        println!("untraced unit: {:.3} rounds/s", u.rounds as f64 / u.loop_s);
    }
    let e2e = end_to_end(&w, &untraced, reference, &setups, (failed, attempted));
    e2e.print("end-to-end (tracing off):");
    let metrics = if args.trace {
        let layers = per_layer(&w, &plain, &traced, &twins);
        layers.print("per-layer (traced):");
        layers
    } else {
        e2e
    };
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::Int(attempted as i64)),
        ("failed".into(), Value::Int(failed as i64)),
        ("metrics".into(), metrics.to_value()),
    ]);
    println!("{}", serde_json::to_string(&Raw(result)).expect("result serializes"));
    Ok(())
}

/// Prints a `Value` through the vendored serializer.
pub(crate) struct Raw(pub(crate) Value);

impl serde::Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn main() {
    let outcome = match parse_args() {
        Ok(Command::Pin(name)) => workload::pin(&name).map(|text| println!("{text}")),
        Ok(Command::Run(args)) => run(&args),
        Err(e) => Err(e),
    };
    if let Err(e) = outcome {
        eprintln!("dpbfl-perfbench: {e}");
        std::process::exit(2);
    }
}
