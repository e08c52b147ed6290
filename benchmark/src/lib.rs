//! The repository benchmark: end-to-end and per-layer metrics of the
//! Galois engine on `x10` worlds, driven from one harness thread.
//!
//! [`run`] sets the workload's worlds up (several times, to time set-up),
//! then runs timed passes for the requested number of seconds and checks
//! every answer. With tracing off it reports the end-to-end metrics; with
//! tracing on it reports the per-layer metrics, a self-time table per
//! layer and a Chrome trace file. `README.md` beside this crate says why
//! each workload and metric was chosen.

mod model;
mod trace;
mod workload;

pub use workload::Workload;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use galois_core::QueryStats;
use trace::Tracer;
use workload::{set_up, timed_pass, traced, Answer, Pass, Session, World};

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every world of the run derives from.
    pub seed: u64,
    /// Seconds of timed passes (at least one round always runs).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// World scale factor (`Scenario::generate_scaled`).
    pub scale: usize,
    /// Worlds per run.
    pub worlds: usize,
    /// Times set-up is repeated to take its median.
    pub setup_reps: usize,
    /// Where the traced run writes its Chrome trace.
    pub trace_file: PathBuf,
}

impl Config {
    /// The benchmark's settings: three `x10` worlds (138 queries) and
    /// set-up timed three times.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace,
            scale: 10,
            worlds: 3,
            setup_reps: 3,
            trace_file: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}-{seed}.json", workload.name())),
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A run's outcome.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every answer passed its check.
    pub correct: bool,
    /// Queries executed in timed (and, when tracing, probe) passes.
    pub attempted: usize,
    /// Queries among them that failed.
    pub failed: usize,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable tables printed before the JSON line.
    pub text: String,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Formats `v` with every digit Rust's shortest round-trip form gives,
/// as a JSON number (non-finite values, which JSON cannot carry, become
/// `null`).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The `p`-quantile of `values` by nearest rank (`0` when empty).
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle pair when even).
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = values.into_iter().collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

const NS_PER_MS: f64 = 1e6;

/// Best time of the calibration loop on a reference machine; host
/// times are reported as if measured there.
const CALIBRATION_REFERENCE_NS: f64 = 10e6;

/// Times a fixed loop of string formatting, hashing and sorting, the
/// kind of work the engine's host time is made of, and independent of
/// the engine's code. Other tenants of a shared machine slow it as they
/// slow the engine, so its best time over a run measures the machine's
/// speed during that run.
fn calibration_ns() -> u64 {
    let started = Instant::now();
    let mut map = std::collections::HashMap::new();
    for i in 0..20_000u64 {
        map.insert(format!("calibration key {i} {}", i * 7919), i);
    }
    let mut total = 0u64;
    for i in 0..20_000u64 {
        let key = format!("calibration key {i} {}", i * 7919);
        total += map.get(&key).copied().unwrap_or(0);
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort();
    std::hint::black_box((total, keys.len()));
    started.elapsed().as_nanos() as u64
}

/// Timed passes, one round (every world once) after another.
struct Rounds {
    rounds: Vec<Vec<Pass>>,
    /// Whether each round ran with spans on.
    traced: Vec<bool>,
    /// Best time of the calibration loop, run between rounds.
    calibration_ns: u64,
}

impl Rounds {
    fn passes(&self) -> impl Iterator<Item = &Pass> {
        self.rounds.iter().flatten()
    }

    /// Each query's best host time, in nanoseconds: the minimum over the
    /// rounds run with spans on (`traced`) or off. Other tenants of a
    /// shared machine stall the harness in bursts, so the best of several
    /// repetitions is the steady estimate of what the engine costs.
    fn best_ns(&self, traced: bool) -> Vec<u64> {
        let mut best: Vec<Vec<u64>> = Vec::new();
        for (round, _) in self
            .rounds
            .iter()
            .zip(&self.traced)
            .filter(|(_, t)| **t == traced)
        {
            if best.is_empty() {
                best = round.iter().map(|p| p.query_host_ns.clone()).collect();
                continue;
            }
            for (world, pass) in best.iter_mut().zip(round) {
                for (b, &ns) in world.iter_mut().zip(&pass.query_host_ns) {
                    *b = (*b).min(ns);
                }
            }
        }
        best.concat()
    }

    /// Queries per second of best host time (see [`Rounds::best_ns`]).
    fn qps(&self, traced: bool) -> f64 {
        let best = self.best_ns(traced);
        best.len() as f64 / (best.iter().sum::<u64>() as f64 / 1e9)
    }

    /// The factor that turns a host time measured in this run into the
    /// time on the reference machine (see [`calibration_ns`]).
    fn to_reference(&self) -> f64 {
        CALIBRATION_REFERENCE_NS / self.calibration_ns as f64
    }
}

/// Runs `f` on the session a pass over `world` uses: a fresh replaying
/// session, or the world's warmed one (`paper-warm`).
fn on_session<T>(
    workload: Workload,
    world: &World,
    tracer: Option<&Arc<Tracer>>,
    f: impl FnOnce(&Session) -> T,
) -> T {
    match &world.warm {
        Some(session) => f(session),
        None => f(&world.replay_session(workload, tracer.cloned())),
    }
}

fn run_rounds(cfg: &Config, worlds: &[World], tracer: Option<&Arc<Tracer>>) -> Rounds {
    let mut out = Rounds {
        rounds: Vec::new(),
        traced: Vec::new(),
        calibration_ns: u64::MAX,
    };
    let started = Instant::now();
    loop {
        // With a tracer, rounds alternate untraced and traced so the
        // tracing overhead is measured on the same worlds.
        let on = tracer.is_some() && out.rounds.len() % 2 == 1;
        let t = if on { tracer.map(Arc::as_ref) } else { None };
        let round: Vec<Pass> = worlds
            .iter()
            .map(|world| {
                on_session(cfg.workload, world, tracer, |session| {
                    session.boundary.set_tracing(on);
                    let pass = traced(t, "bench.pass", || {
                        timed_pass(cfg.workload, world, session, t)
                    });
                    session.boundary.set_tracing(false);
                    pass
                })
            })
            .collect();
        out.rounds.push(round);
        out.traced.push(on);
        for _ in 0..3 {
            out.calibration_ns = out.calibration_ns.min(calibration_ns());
        }
        let min_rounds = if tracer.is_some() { 2 } else { 1 };
        if out.rounds.len() >= min_rounds && started.elapsed().as_secs_f64() >= cfg.seconds {
            return out;
        }
    }
}

fn set_up_all(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> Result<Vec<World>, String> {
    (0..cfg.worlds)
        .map(|i| {
            traced(tracer.map(Arc::as_ref), "bench.setup", || {
                set_up(cfg.workload, cfg.seed, i, cfg.scale, tracer)
            })
        })
        .collect()
}

fn failures(passes: &[&Pass]) -> (usize, usize, Vec<String>) {
    let attempted = passes.iter().map(|p| p.queries).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    let errors = passes
        .iter()
        .flat_map(|p| p.errors.iter().cloned())
        .take(5)
        .collect();
    (attempted, failed, errors)
}

/// Runs the benchmark: set-up, timed passes, checks, metrics.
pub fn run(cfg: &Config) -> Result<Report, String> {
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

fn run_untraced(cfg: &Config) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(cfg.setup_reps);
    let mut worlds = Vec::new();
    for _ in 0..cfg.setup_reps.max(1) {
        worlds.clear();
        let started = Instant::now();
        worlds = set_up_all(cfg, None)?;
        setup_s.push(started.elapsed().as_secs_f64());
    }
    worlds.iter_mut().for_each(World::score);
    let rounds = run_rounds(cfg, &worlds, None);
    let passes: Vec<&Pass> = rounds.passes().collect();
    let (attempted, failed, errors) = failures(&passes);

    let first = &rounds.rounds[0];
    let queries: usize = first.iter().map(|p| p.queries).sum();
    // Host times are reported at the reference machine's speed.
    let to_ref = rounds.to_reference();
    let host_ms: Vec<f64> = rounds
        .best_ns(false)
        .iter()
        .map(|&ns| ns as f64 / NS_PER_MS * to_ref)
        .collect();
    let virtual_ms: Vec<f64> = first
        .iter()
        .flat_map(|p| p.virtual_ms.iter().map(|&ms| ms as f64))
        .collect();
    // `paper-warm` makes no model calls in a timed pass; it bills the
    // calls of the session's life, its warm-up pass plus one timed pass.
    let billed_queries = if cfg.workload == Workload::PaperWarm {
        2 * queries
    } else {
        queries
    };
    let calls: usize = worlds.iter().map(|w| w.warmup.calls).sum::<usize>()
        + first.iter().map(|p| p.usage.calls).sum::<usize>();
    let tokens: usize = worlds
        .iter()
        .map(|w| w.warmup.prompt_tokens + w.warmup.completion_tokens)
        .sum::<usize>()
        + first
            .iter()
            .map(|p| p.usage.prompt_tokens + p.usage.completion_tokens)
            .sum::<usize>();

    let metrics = vec![
        metric("host_qps", rounds.qps(false) / to_ref, "queries/s"),
        metric("host_latency_p50_ms", percentile(&host_ms, 0.5), "ms"),
        metric("host_latency_p90_ms", percentile(&host_ms, 0.9), "ms"),
        metric(
            "virtual_latency_p50_ms",
            percentile(&virtual_ms, 0.5),
            "virtual_ms",
        ),
        metric(
            "virtual_latency_p90_ms",
            percentile(&virtual_ms, 0.9),
            "virtual_ms",
        ),
        metric(
            "virtual_makespan_ms",
            mean(first.iter().map(|p| p.makespan_ms as f64)),
            "virtual_ms",
        ),
        metric(
            "model_calls_per_query",
            calls as f64 / billed_queries as f64,
            "calls/query",
        ),
        metric(
            "tokens_per_query",
            tokens as f64 / billed_queries as f64,
            "tokens/query",
        ),
        metric(
            "answer_match_pct",
            mean(worlds.iter().map(World::match_pct)),
            "%",
        ),
        metric("setup_s", median(setup_s.iter().map(|s| s * to_ref)), "s"),
    ];

    let mut text = format!(
        "workload {} seed {}: {} worlds x{}, {} queries timed in each of {} rounds \
         (host times: best of the rounds per query)\n\
         calibration loop best {:.3} ms, reference {:.3} ms: host times x {:.4} \
         (unscaled host_qps {:.2}, setup_s {:.4})\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.worlds,
        cfg.scale,
        queries,
        rounds.rounds.len(),
        rounds.calibration_ns as f64 / NS_PER_MS,
        CALIBRATION_REFERENCE_NS / NS_PER_MS,
        to_ref,
        rounds.qps(false),
        median(setup_s.iter().copied()),
    );
    text.push_str(&render_metrics(&metrics));
    text.push_str(&format!(
        "{:<28} {:>16} {}\n",
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "share"
    ));
    for e in &errors {
        text.push_str(&format!("error: {e}\n"));
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        text,
    })
}

fn render_metrics(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("{:<28} {:>16.4} {}\n", m.name, m.value, m.unit))
        .collect()
}

/// What the probe pass measured on one query.
struct Probe {
    parse_ns: u64,
    plan_ns: u64,
    qerror: f64,
}

/// The probe pass: every query parsed, planned and executed one after
/// another on a session like the timed passes', with spans around each
/// call. It gives the layer timings the timed passes cannot call from
/// outside (`galois_sql::parse`, `Galois::plan`, and `Galois::execute`
/// on `stack-sessions16`, whose timed passes go through
/// `run_multi_query`).
fn probe_pass(
    cfg: &Config,
    world: &World,
    tracer: &Arc<Tracer>,
    failed: &mut Vec<String>,
) -> Vec<Probe> {
    on_session(cfg.workload, world, Some(tracer), |session| {
        session.boundary.set_tracing(true);
        let t = Some(tracer.as_ref());
        let mut probes = Vec::with_capacity(world.sqls.len());
        for (i, sql) in world.sqls.iter().enumerate() {
            tracer.set_query(i as u64 + 1);
            let started = Instant::now();
            let parsed = traced(t, "sql.parse", || galois_sql::parse(sql));
            let parse_ns = started.elapsed().as_nanos() as u64;
            let started = Instant::now();
            let planned = traced(t, "core.plan_choice.plan", || session.galois.plan(sql));
            let plan_ns = started.elapsed().as_nanos() as u64;
            let result = traced(t, "core.session.execute", || session.galois.execute(sql));
            let (Ok(_), Ok(planned), Ok(result)) = (parsed, planned, result) else {
                failed.push(format!(
                    "probe: query {} failed to parse, plan or execute",
                    i + 1
                ));
                continue;
            };
            // The probe executes serially; on `stack-sessions16` only the
            // replayed clocks differ from the scheduled reference.
            let clocks = |a: Answer| Answer {
                stats: QueryStats {
                    virtual_ms: 0,
                    queue_ms: 0,
                    ..a.stats
                },
                ..a
            };
            if clocks(Answer::of(&result)) != clocks(world.reference[i].clone()) {
                failed.push(format!(
                    "probe: query {} differs from the recording pass",
                    i + 1
                ));
            }
            let est = planned.report.est_total_prompts.max(1.0);
            let act = (result.stats.total_prompts() as f64).max(1.0);
            probes.push(Probe {
                parse_ns,
                plan_ns,
                qerror: (est / act).max(act / est),
            });
        }
        session.boundary.set_tracing(false);
        probes
    })
}

fn run_traced(cfg: &Config) -> Result<Report, String> {
    let tracer = Arc::new(Tracer::default());
    let mut worlds = set_up_all(cfg, Some(&tracer))?;
    worlds.iter_mut().for_each(World::score);
    let probe_from = tracer.span_count();
    let mut probe_errors = Vec::new();
    let probes: Vec<Probe> = worlds
        .iter()
        .flat_map(|w| {
            traced(Some(&tracer), "bench.probe", || {
                probe_pass(cfg, w, &tracer, &mut probe_errors)
            })
        })
        .collect();
    let rounds_from = tracer.span_count();
    let rounds = run_rounds(cfg, &worlds, Some(&tracer));
    let spans = tracer.spans();
    let self_ns = trace::self_ns(&spans);

    let passes: Vec<&Pass> = rounds.passes().collect();
    let (mut attempted, mut failed, mut errors) = failures(&passes);
    attempted += worlds.iter().map(|w| w.sqls.len()).sum::<usize>();
    failed += probe_errors.len();
    errors.extend(probe_errors);

    let first = &rounds.rounds[0];
    let n_worlds = first.len() as f64;
    let per_world = |f: &dyn Fn(&Pass) -> f64| first.iter().map(f).sum::<f64>() / n_worlds;
    let traced_passes = rounds.traced.iter().filter(|t| **t).count() as f64 * n_worlds;
    let probe_table = trace::layer_table(&spans, &self_ns, probe_from..rounds_from);
    let round_table = trace::layer_table(&spans, &self_ns, rounds_from..spans.len());
    let table_ms = |table: &std::collections::BTreeMap<&'static str, trace::LayerTime>,
                    name: &str,
                    self_time: bool,
                    passes: f64| {
        table.get(name).map_or(0.0, |t| {
            (if self_time { t.self_ns } else { t.total_ns }) as f64 / NS_PER_MS / passes
        })
    };
    // `Galois::execute` is timed in the traced rounds on `paper-*`, and
    // in the probe pass on `stack-sessions16`.
    let (session_table, session_passes) = if cfg.workload.is_paper() {
        (&round_table, traced_passes)
    } else {
        (&probe_table, n_worlds)
    };
    let untraced_qps = rounds.qps(false);
    let traced_qps = rounds.qps(true);
    let client = |f: &dyn Fn(&galois_llm::ClientStats) -> usize| {
        first.iter().map(|p| f(&p.client)).sum::<usize>() as f64
    };
    let phase = |f: &dyn Fn(&QueryStats) -> u64| {
        per_world(&|p: &Pass| p.stats.iter().map(f).sum::<u64>() as f64)
    };
    let stack = !cfg.workload.is_paper();

    let metrics = vec![
        metric(
            "dataset.generate_s",
            median(worlds.iter().map(|w| w.generate_ns as f64 / 1e9)),
            "s",
        ),
        metric(
            "sql.parse_us",
            median(probes.iter().map(|p| p.parse_ns as f64 / 1e3)),
            "us",
        ),
        metric(
            "relational.exec_ms",
            mean(
                worlds
                    .iter()
                    .flat_map(|w| w.exec_ns.iter().map(|&ns| ns as f64 / NS_PER_MS)),
            ),
            "ms",
        ),
        metric(
            "core.plan_choice.plan_us",
            median(probes.iter().map(|p| p.plan_ns as f64 / 1e3)),
            "us",
        ),
        metric(
            "core.plan_choice.prompt_qerror",
            median(probes.iter().map(|p| p.qerror)),
            "ratio",
        ),
        metric(
            "core.session.execute_ms",
            table_ms(session_table, "core.session.execute", false, session_passes),
            "ms",
        ),
        metric(
            "core.session.self_ms",
            table_ms(session_table, "core.session.execute", true, session_passes),
            "ms",
        ),
        metric(
            "core.session.list_virtual_ms",
            phase(&|s| s.list_virtual_ms),
            "virtual_ms",
        ),
        metric(
            "core.session.filter_virtual_ms",
            phase(&|s| s.filter_virtual_ms),
            "virtual_ms",
        ),
        metric(
            "core.session.fetch_virtual_ms",
            phase(&|s| s.fetch_virtual_ms),
            "virtual_ms",
        ),
        // Lane gain at query level: the client charges each batch on
        // its own, and its lanes only pack prompts within one batch.
        metric(
            "core.session.lane_speedup",
            phase(&|s| s.serial_virtual_ms) / phase(&|s| s.virtual_ms).max(1.0),
            "ratio",
        ),
        metric(
            "llm.client.batches",
            client(&|c| c.batches) / n_worlds,
            "count",
        ),
        metric(
            "llm.client.hit_ratio",
            client(&|c| c.cache_hits) / client(&|c| c.cache_hits + c.prompts).max(1.0),
            "ratio",
        ),
        metric(
            "llm.model.calls",
            per_world(&|p: &Pass| p.usage.calls as f64),
            "count",
        ),
        metric(
            "llm.model.prompt_tokens",
            per_world(&|p: &Pass| p.usage.prompt_tokens as f64),
            "count",
        ),
        metric(
            "llm.model.completion_tokens",
            per_world(&|p: &Pass| p.usage.completion_tokens as f64),
            "count",
        ),
        metric(
            "llm.model.replay_ms",
            table_ms(&round_table, "llm.model.replay", false, traced_passes),
            "ms",
        ),
        metric(
            "llm.model.sim_ms",
            mean(worlds.iter().map(|w| w.sim_ns as f64 / NS_PER_MS)),
            "ms",
        ),
        metric(
            "llm.model.transcript_misses",
            passes.iter().map(|p| p.usage.misses).sum::<usize>() as f64,
            "count",
        ),
        metric(
            "llm.key_universe.concepts",
            per_world(&|p: &Pass| p.concepts as f64),
            "count",
        ),
        metric(
            "core.multi.call_ms",
            if stack {
                median(passes.iter().map(|p| p.host_ns as f64 / NS_PER_MS))
            } else {
                0.0
            },
            "ms",
        ),
        metric(
            "core.multi.queue_ms",
            per_world(&|p: &Pass| p.queue_ms as f64),
            "virtual_ms",
        ),
        metric(
            "core.multi.lane_utilisation",
            per_world(&|p: &Pass| p.lane_utilisation),
            "ratio",
        ),
        metric("trace.untraced_host_qps", untraced_qps, "queries/s"),
        metric("trace.traced_host_qps", traced_qps, "queries/s"),
        metric(
            "trace.overhead_pct",
            100.0 * (untraced_qps / traced_qps - 1.0),
            "%",
        ),
    ];

    let limit = 100_000;
    trace::write_chrome_trace(&cfg.trace_file, &spans, limit)
        .map_err(|e| format!("writing {}: {e}", cfg.trace_file.display()))?;
    let mut text = format!(
        "workload {} seed {} (traced): {} worlds x{}, {} timed rounds ({} traced), {} spans\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.worlds,
        cfg.scale,
        rounds.rounds.len(),
        rounds.traced.iter().filter(|t| **t).count(),
        spans.len(),
    );
    text.push_str(&render_metrics(&metrics));
    text.push_str("\nself time per layer, set-up and probe pass:\n");
    text.push_str(&trace::render_table(&trace::layer_table(
        &spans,
        &self_ns,
        0..rounds_from,
    )));
    text.push_str("\nself time per layer, traced timed rounds:\n");
    text.push_str(&trace::render_table(&round_table));
    text.push_str(&format!(
        "\ntrace: {} (first {} of {} spans)\n",
        cfg.trace_file.display(),
        spans.len().min(limit),
        spans.len()
    ));
    for e in &errors {
        text.push_str(&format!("error: {e}\n"));
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        text,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_medians() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(median(v.iter().copied()), 5.5);
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
