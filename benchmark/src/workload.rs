//! The three workloads: their engine configuration, per-world set-up and
//! one timed pass over a world.
//!
//! Every workload runs the 46-query suite of `Scenario::generate_scaled`
//! worlds from one harness thread. Set-up generates each world, computes
//! ground truth with `Database::execute`, and records the `SimLlm`
//! transcript with a reference pass. Timed passes replay the transcript
//! and must reproduce the reference pass's relations and `QueryStats`.

use std::sync::Arc;
use std::time::Instant;

use galois_core::{
    run_multi_query, Admission, AdmissionPolicy, Galois, GaloisOptions, GaloisResult, QueryStats,
};
use galois_dataset::Scenario;
use galois_llm::{ClientStats, LanguageModel, ModelProfile, SimLlm};
use galois_relational::{Relation, Value};

use crate::model::{Boundary, Transcript, Usage};
use crate::trace::Tracer;

/// Lowest mean `match_records` score, in percent, a `paper-*` world may
/// have. The noisy `chatgpt` profile scores 45-50 % on x10 worlds; a
/// world below this floor means the engine lost answers.
pub const MATCH_FLOOR_PCT: f64 = 30.0;

/// Closed-loop sessions the `stack-sessions16` suite is dealt over.
const SESSIONS: usize = 16;
/// In-flight query cap of `stack-sessions16`, two below the session
/// count so admission queueing is exercised without serialising the
/// suite.
const MAX_INFLIGHT: usize = 14;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's configuration on a fresh session per world.
    PaperCold,
    /// The paper's configuration on a session a set-up pass warmed.
    PaperWarm,
    /// The optimised stack dealt over 16 closed-loop sessions.
    StackSessions16,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCold,
        Workload::PaperWarm,
        Workload::StackSessions16,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper-cold",
            Workload::PaperWarm => "paper-warm",
            Workload::StackSessions16 => "stack-sessions16",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the two paper-configuration workloads.
    pub fn is_paper(self) -> bool {
        self != Workload::StackSessions16
    }

    /// The simulated model's profile.
    pub fn profile(self) -> ModelProfile {
        if self.is_paper() {
            ModelProfile::chatgpt()
        } else {
            token_honest()
        }
    }

    /// The engine options under test.
    pub fn options(self) -> GaloisOptions {
        if self.is_paper() {
            GaloisOptions::default()
        } else {
            GaloisOptions {
                admission: Admission::Fair(AdmissionPolicy {
                    max_inflight: MAX_INFLIGHT,
                    ..Default::default()
                }),
                ..galois_bench::grid_stack_options(8, 10, 6)
            }
        }
    }
}

/// Oracle answers priced like a hosted model: 200 ms per request plus
/// 5 ms per completion token. The name stays `oracle`, so prompts are
/// rendered exactly as for the oracle.
fn token_honest() -> ModelProfile {
    ModelProfile {
        latency_ms: 200,
        latency_per_token_ms: 5,
        ..ModelProfile::oracle()
    }
}

/// The seed of world `index` of a run with workload seed `seed`
/// (splitmix64, so neighbouring seeds give unrelated worlds).
fn world_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a query returned, in the form passes are compared in: rendered
/// rows in order and the stats without the host clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Rendered rows, in result order.
    pub rows: Vec<Vec<String>>,
    /// Prompt accounting with `wall_ms` zeroed.
    pub stats: QueryStats,
}

impl Answer {
    /// The comparable form of `result`.
    pub fn of(result: &GaloisResult) -> Self {
        Answer {
            rows: render(&result.relation),
            stats: QueryStats {
                wall_ms: 0,
                ..result.stats
            },
        }
    }
}

fn render(relation: &Relation) -> Vec<Vec<String>> {
    relation
        .rows
        .iter()
        .map(|row| row.iter().map(Value::render).collect())
        .collect()
}

/// `rows` as a sorted multiset, each fractional number written to ten
/// significant digits: an aggregate summed in another order differs from
/// ground truth only in its last bits.
fn multiset(rows: &[Vec<String>]) -> Vec<Vec<String>> {
    let cell = |c: &String| match c.parse::<f64>() {
        Ok(v) if c.contains('.') => format!("{v:.9e}"),
        _ => c.clone(),
    };
    let mut rows: Vec<Vec<String>> = rows.iter().map(|r| r.iter().map(cell).collect()).collect();
    rows.sort();
    rows
}

/// Runs `f`, inside a span when tracing.
pub fn traced<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, f),
        None => f(),
    }
}

/// A session over a replaying boundary, with the boundary kept for its
/// counters.
pub struct Session {
    /// The engine session.
    pub galois: Galois,
    /// The model boundary behind it.
    pub boundary: Arc<Boundary>,
}

/// One set-up world.
pub struct World {
    /// The generated world.
    pub scenario: Scenario,
    /// The suite's SQL text, in suite order.
    pub sqls: Vec<String>,
    /// Ground truth per query, as a multiset of rendered rows.
    pub truth: Vec<Vec<Vec<String>>>,
    /// Ground-truth relations, in suite order.
    pub truth_relations: Vec<Relation>,
    /// `galois_eval::match_records` score of each reference answer
    /// (filled by [`World::score`]).
    pub scores: Vec<f64>,
    /// The recorded `SimLlm` completions.
    pub transcript: Arc<Transcript>,
    /// What a timed pass must return, per query.
    pub reference: Vec<Answer>,
    /// Boundary usage of the warm-up pass (`paper-warm` only).
    pub warmup: Usage,
    /// The warmed session timed passes reuse (`paper-warm` only).
    pub warm: Option<Session>,
    /// Host nanoseconds `SimLlm` spent recording the transcript.
    pub sim_ns: u64,
    /// Host nanoseconds `Scenario::generate_scaled` took.
    pub generate_ns: u64,
    /// Host nanoseconds of each ground-truth `Database::execute`.
    pub exec_ns: Vec<u64>,
}

impl World {
    /// Scores every reference answer against ground truth. Kept out of
    /// [`set_up`], whose time is the `setup_s` metric: scoring checks
    /// the output rather than preparing the run.
    pub fn score(&mut self) {
        self.scores = self
            .reference
            .iter()
            .zip(&self.truth_relations)
            .map(|(answer, truth)| galois_eval::match_records(truth, &answer.rows).score())
            .collect();
    }

    /// Mean answer score in percent.
    pub fn match_pct(&self) -> f64 {
        100.0 * self.scores.iter().sum::<f64>() / self.scores.len().max(1) as f64
    }

    /// A session over a boundary replaying this world's transcript.
    pub fn replay_session(&self, workload: Workload, tracer: Option<Arc<Tracer>>) -> Session {
        let sim = SimLlm::new(self.scenario.knowledge.clone(), workload.profile());
        let boundary = Arc::new(Boundary::replaying(
            sim,
            Arc::clone(&self.transcript),
            tracer,
        ));
        let model: Arc<dyn LanguageModel> = boundary.clone();
        Session {
            galois: Galois::with_options(model, self.scenario.database.clone(), workload.options()),
            boundary,
        }
    }
}

/// Executes the suite one query after another, timing each call.
fn serial(
    galois: &Galois,
    sqls: &[String],
    tracer: Option<&Tracer>,
) -> (Vec<galois_core::Result<GaloisResult>>, Vec<u64>) {
    let mut results = Vec::with_capacity(sqls.len());
    let mut host_ns = Vec::with_capacity(sqls.len());
    for (i, sql) in sqls.iter().enumerate() {
        if let Some(tracer) = tracer {
            tracer.set_query(i as u64 + 1);
        }
        let started = Instant::now();
        let result = traced(tracer, "core.session.execute", || galois.execute(sql));
        host_ns.push(started.elapsed().as_nanos() as u64);
        results.push(result);
    }
    (results, host_ns)
}

/// The stack workload's assignment: query `i` to session `i mod 16`.
fn session_of(queries: usize) -> Vec<usize> {
    (0..queries).map(|i| i % SESSIONS).collect()
}

/// Runs the suite through the cross-query scheduler.
fn multi(galois: &Galois, sqls: &[String]) -> galois_core::Result<galois_core::MultiQueryReport> {
    let queries: Vec<&str> = sqls.iter().map(String::as_str).collect();
    let policy = galois.options().admission.policy().unwrap_or_default();
    run_multi_query(galois, &queries, &session_of(queries.len()), &policy)
}

fn answers(
    results: Vec<galois_core::Result<GaloisResult>>,
    what: &str,
) -> Result<Vec<Answer>, String> {
    results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            r.as_ref()
                .map(Answer::of)
                .map_err(|e| format!("{what}: query {} failed: {e}", i + 1))
        })
        .collect()
}

/// Sets up world `index`: generation, ground truth, the recording pass
/// and, on `paper-warm`, the warm-up pass.
pub fn set_up(
    workload: Workload,
    seed: u64,
    index: usize,
    scale: usize,
    tracer: Option<&Arc<Tracer>>,
) -> Result<World, String> {
    let t = tracer.map(Arc::as_ref);
    let started = Instant::now();
    let scenario = traced(t, "dataset.generate", || {
        Scenario::generate_scaled(world_seed(seed, index), scale)
    });
    let generate_ns = started.elapsed().as_nanos() as u64;
    let sqls: Vec<String> = scenario.suite.iter().map(|q| q.to_sql()).collect();

    let mut truth_relations = Vec::with_capacity(sqls.len());
    let mut exec_ns = Vec::with_capacity(sqls.len());
    for sql in &sqls {
        let started = Instant::now();
        let truth = traced(t, "relational.exec", || scenario.database.execute(sql))
            .map_err(|e| format!("ground truth failed on `{sql}`: {e}"))?;
        exec_ns.push(started.elapsed().as_nanos() as u64);
        truth_relations.push(truth);
    }

    let sim = SimLlm::new(scenario.knowledge.clone(), workload.profile());
    let recorder = Arc::new(Boundary::recording(sim, tracer.cloned()));
    let model: Arc<dyn LanguageModel> = recorder.clone();
    let galois = Galois::with_options(model, scenario.database.clone(), workload.options());
    let (reference, first_pass) = traced(t, "bench.record", || -> Result<_, String> {
        Ok(match workload {
            Workload::PaperCold => (answers(serial(&galois, &sqls, None).0, "recording")?, None),
            Workload::PaperWarm => {
                let cold = answers(serial(&galois, &sqls, None).0, "recording")?;
                let warm = answers(serial(&galois, &sqls, None).0, "recording, warm")?;
                (warm, Some(cold))
            }
            Workload::StackSessions16 => {
                let report = multi(&galois, &sqls).map_err(|e| format!("recording: {e}"))?;
                let answers = report
                    .outcomes
                    .iter()
                    .map(|o| Answer::of(&o.result))
                    .collect();
                (answers, None)
            }
        })
    })?;
    let usage = recorder.usage();
    let mut world = World {
        scores: Vec::new(),
        truth: truth_relations
            .iter()
            .map(|r| multiset(&render(r)))
            .collect(),
        truth_relations,
        transcript: Arc::new(recorder.take_transcript()),
        reference,
        warmup: Usage::default(),
        warm: None,
        sim_ns: usage.sim_ns,
        generate_ns,
        exec_ns,
        scenario,
        sqls,
    };

    if let Some(cold) = first_pass {
        let session = world.replay_session(workload, tracer.cloned());
        let (results, _) = traced(t, "bench.warmup", || {
            serial(&session.galois, &world.sqls, None)
        });
        if answers(results, "warm-up")? != cold {
            return Err("warm-up pass differs from the recording pass".into());
        }
        world.warmup = session.boundary.usage();
        world.warm = Some(session);
    }
    Ok(world)
}

/// What one timed pass over one world measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Queries executed.
    pub queries: usize,
    /// Queries that failed: `Err`, a differing relation or stats, an
    /// answer unequal to ground truth (`stack-sessions16`), or every
    /// query of a pass whose boundary counts disagree with the client or
    /// whose world scores below [`MATCH_FLOOR_PCT`] (`paper-*`).
    pub failed: usize,
    /// Why queries failed (first few).
    pub errors: Vec<String>,
    /// Host time of the timed calls.
    pub host_ns: u64,
    /// Host time per `Galois::execute` (`paper-*`), or the
    /// `run_multi_query` time spread evenly over the suite.
    pub query_host_ns: Vec<u64>,
    /// Virtual latency per query, arrival to finish.
    pub virtual_ms: Vec<u64>,
    /// When the world's last query finished, virtual ms.
    pub makespan_ms: u64,
    /// Boundary usage during the pass.
    pub usage: Usage,
    /// Client stats accumulated during the pass.
    pub client: ClientStats,
    /// Per-query stats, in suite order (default for failed queries).
    pub stats: Vec<QueryStats>,
    /// Key-universe store size after the pass.
    pub concepts: usize,
    /// Total admission-queue delay of `run_multi_query`, virtual ms.
    pub queue_ms: u64,
    /// Lane utilisation of the shared pool.
    pub lane_utilisation: f64,
}

impl Pass {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// Marks every query of the pass failed.
    fn fail_all(&mut self, why: String) {
        self.failed = self.queries;
        self.errors.truncate(4);
        self.errors.push(why);
    }
}

fn client_delta(after: ClientStats, before: ClientStats) -> ClientStats {
    ClientStats {
        prompts: after.prompts - before.prompts,
        cache_hits: after.cache_hits - before.cache_hits,
        batches: after.batches - before.batches,
        prompt_tokens: after.prompt_tokens - before.prompt_tokens,
        completion_tokens: after.completion_tokens - before.completion_tokens,
        virtual_ms: after.virtual_ms - before.virtual_ms,
        serial_ms: after.serial_ms - before.serial_ms,
        ..ClientStats::default()
    }
}

/// One timed pass over `world` on `session`: the suite through
/// `Galois::execute` (`paper-*`) or `run_multi_query`
/// (`stack-sessions16`), checked against the reference pass.
pub fn timed_pass(
    workload: Workload,
    world: &World,
    session: &Session,
    tracer: Option<&Tracer>,
) -> Pass {
    let n = world.sqls.len();
    let usage_before = session.boundary.usage();
    let client_before = session.galois.session_stats();
    let mut pass = Pass {
        queries: n,
        ..Pass::default()
    };
    let mut got: Vec<Option<GaloisResult>> = Vec::with_capacity(n);
    if workload.is_paper() {
        let (results, host_ns) = serial(&session.galois, &world.sqls, tracer);
        pass.host_ns = host_ns.iter().sum();
        pass.query_host_ns = host_ns;
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok(r) => {
                    pass.virtual_ms.push(r.stats.virtual_ms);
                    got.push(Some(r));
                }
                Err(e) => {
                    pass.fail(format!("query {} returned Err: {e}", i + 1));
                    got.push(None);
                }
            }
        }
        pass.makespan_ms = pass.virtual_ms.iter().sum();
    } else {
        if let Some(tracer) = tracer {
            tracer.set_query(0);
        }
        let started = Instant::now();
        let report = traced(tracer, "core.multi.run", || {
            multi(&session.galois, &world.sqls)
        });
        pass.host_ns = started.elapsed().as_nanos() as u64;
        pass.query_host_ns = vec![pass.host_ns / n as u64; n];
        match report {
            Ok(report) => {
                pass.makespan_ms = report.makespan_ms;
                pass.queue_ms = report.total_queue_ms;
                pass.lane_utilisation = report.lane_utilisation;
                for outcome in report.outcomes {
                    pass.virtual_ms.push(outcome.latency_ms());
                    got.push(Some(outcome.result));
                }
            }
            Err(e) => {
                pass.fail_all(format!("run_multi_query returned Err: {e}"));
                got.resize_with(n, || None);
            }
        }
    }

    for (i, result) in got.iter().enumerate() {
        let Some(result) = result else {
            pass.stats.push(QueryStats::default());
            continue;
        };
        pass.stats.push(result.stats);
        let answer = Answer::of(result);
        if answer != world.reference[i] {
            pass.fail(format!(
                "query {}: relation or stats differ from the recording pass",
                i + 1
            ));
        } else if !workload.is_paper() && multiset(&answer.rows) != world.truth[i] {
            pass.fail(format!(
                "query {}: rows differ from Database::execute",
                i + 1
            ));
        }
    }

    if workload.is_paper() && world.match_pct() < MATCH_FLOOR_PCT {
        pass.fail_all(format!(
            "answer match {:.1} % is below the {MATCH_FLOOR_PCT} % floor",
            world.match_pct()
        ));
    }

    pass.usage = session.boundary.usage().since(&usage_before);
    pass.client = client_delta(session.galois.session_stats(), client_before);
    pass.concepts = session
        .galois
        .key_universe_store()
        .map_or(0, |store| store.len());
    let boundary_agrees = pass.usage.calls == pass.client.prompts
        && pass.usage.prompt_tokens == pass.client.prompt_tokens
        && pass.usage.completion_tokens == pass.client.completion_tokens;
    if pass.usage.misses > 0 || !boundary_agrees {
        pass.fail_all(format!(
            "boundary {:?} vs client prompts {} / tokens {}+{}",
            pass.usage,
            pass.client.prompts,
            pass.client.prompt_tokens,
            pass.client.completion_tokens
        ));
    }
    pass
}
