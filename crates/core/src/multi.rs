//! Cross-query scheduling: many in-flight queries over one shared lane
//! pool.
//!
//! The single-query engine runs each statement to completion on its own
//! private `K`-lane [`EventClock`](galois_llm::EventClock); a suite clock
//! is therefore a *sum* of per-query makespans, and each query's
//! list-bound tail leaves most lanes idle. This module lifts the lanes
//! into a shared [`LanePool`] and replays the
//! queries' micro-batch task traces against it, so one query's waits are
//! overlapped by another's filter/fetch work.
//!
//! ## Two-level design
//!
//! Determinism (and bit-exact answers) come from splitting *what runs*
//! from *when it runs*:
//!
//! 1. **Logical pass** — queries execute serially, in canonical workload
//!    order, through the ordinary streaming engine
//!    (`Galois::execute_traced`). Prompts, cache hits, result relations
//!    and per-phase accounting are therefore identical to running the
//!    suite back-to-back, whatever the session assignment. Each query
//!    yields its dataflow's task trace: every micro-batch the private
//!    clock scheduled, with its private release/duration/completion.
//! 2. **Global replay** — a discrete-event simulation packs the traced
//!    tasks onto one shared pool of `sessions × K` lanes under the
//!    [`AdmissionPolicy`]: closed-loop sessions, FIFO admission with a
//!    `max_inflight` cap (the wait is
//!    [`QueryStats::queue_ms`](crate::QueryStats::queue_ms)), and
//!    deficit-ms fair share between sessions with ready tasks at the same
//!    instant — the session with the least lane-busy time served so far
//!    goes first, ties to the lowest session index.
//!
//! A task may start once every earlier task of the same query that
//! *preceded it* in the private schedule (private completion ≤ the
//! task's private release) has completed in the replay — the trace's
//! happens-before edges, nothing more. With one session and no in-flight
//! cap the replay reproduces the private schedule bit-exactly, which is
//! what the determinism battery asserts.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeSet, BinaryHeap};

use galois_llm::LanePool;

use crate::error::{GaloisError, Result};
use crate::session::{AdmissionPolicy, Galois, GaloisResult, TracedTask};

/// One query's outcome under cross-query scheduling.
#[derive(Debug, Clone)]
pub struct MultiQueryOutcome {
    /// The query's result — identical relation and prompt accounting to a
    /// serial run; only the clock fields (`virtual_ms`, `queue_ms`)
    /// reflect the shared pool.
    pub result: GaloisResult,
    /// Session (tenant) the query belonged to.
    pub session: usize,
    /// Virtual instant the query arrived (closed-loop: when the session's
    /// previous query finished; `0` for each session's first).
    pub arrival_ms: u64,
    /// Virtual instant the admission controller let it start.
    pub admitted_ms: u64,
    /// Virtual instant its last task completed.
    pub finished_ms: u64,
}

impl MultiQueryOutcome {
    /// End-to-end virtual latency the session observed: queueing delay
    /// plus execution (`finished − arrival`).
    pub fn latency_ms(&self) -> u64 {
        self.finished_ms.saturating_sub(self.arrival_ms)
    }
}

/// Report of one [`run_multi_query`] replay.
#[derive(Debug, Clone)]
pub struct MultiQueryReport {
    /// Per-query outcomes, in the canonical input order.
    pub outcomes: Vec<MultiQueryOutcome>,
    /// Virtual instant the last query finished.
    pub makespan_ms: u64,
    /// Lanes in the shared pool the replay ran on.
    pub pool_lanes: usize,
    /// Closed-loop sessions the queries were spread across.
    pub sessions: usize,
    /// Fraction of the `pool_lanes × makespan` budget spent doing work.
    pub lane_utilisation: f64,
    /// Total queueing delay across all queries.
    pub total_queue_ms: u64,
}

impl MultiQueryReport {
    /// The `p`-th percentile (0.0–1.0) of per-query virtual latency
    /// (`finished − arrival`), by nearest rank over the sorted latencies.
    pub fn latency_percentile_ms(&self, p: f64) -> u64 {
        if self.outcomes.is_empty() {
            return 0;
        }
        let mut lat: Vec<u64> = self.outcomes.iter().map(|o| o.latency_ms()).collect();
        lat.sort_unstable();
        let idx = ((lat.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        lat[idx]
    }

    /// Median per-query virtual latency.
    pub fn p50_latency_ms(&self) -> u64 {
        self.latency_percentile_ms(0.50)
    }

    /// 99th-percentile per-query virtual latency.
    pub fn p99_latency_ms(&self) -> u64 {
        self.latency_percentile_ms(0.99)
    }
}

/// A query mid-replay: its trace, dependency pointer and clock marks.
struct ReplayQuery {
    session: usize,
    trace: Vec<TracedTask>,
    /// Replay completion instant per task (`None` while pending/running).
    done_at: Vec<Option<u64>>,
    /// Next trace index to submit (tasks submit strictly in fire order).
    next: usize,
    /// Tasks submitted but not yet completed.
    running: usize,
    arrival: u64,
    admitted: u64,
    finished: u64,
}

impl ReplayQuery {
    /// True when the next task's happens-before edges are all satisfied:
    /// no in-flight earlier task finished (privately) at or before the
    /// next task's private release.
    fn next_ready(&self) -> bool {
        if self.next >= self.trace.len() {
            return false;
        }
        let release = self.trace[self.next].release;
        (0..self.next).all(|j| self.done_at[j].is_some() || self.trace[j].completion > release)
    }

    fn all_done(&self) -> bool {
        self.next >= self.trace.len() && self.running == 0
    }
}

/// Runs `queries` through the session's engine once (canonical order),
/// then replays their task traces over a shared lane pool under `policy`,
/// with `session_of[i]` naming each query's closed-loop session.
///
/// Answers are those of a serial run by construction; the replay decides
/// only the clocks. Each outcome's
/// [`stats.virtual_ms`](crate::QueryStats::virtual_ms) is overridden to
/// `finished − admitted` and
/// [`stats.queue_ms`](crate::QueryStats::queue_ms) to
/// `admitted − arrival`.
///
/// Returns [`GaloisError::Unsupported`] unless the session runs
/// [`Pipeline::Streaming`](crate::Pipeline::Streaming) (the drain trigger
/// has no task trace to replay) and `session_of` names one session per
/// query.
pub fn run_multi_query(
    galois: &Galois,
    queries: &[&str],
    session_of: &[usize],
    policy: &AdmissionPolicy,
) -> Result<MultiQueryReport> {
    if session_of.len() != queries.len() {
        return Err(GaloisError::Unsupported(format!(
            "run_multi_query needs one session per query: got {} sessions for {} queries",
            session_of.len(),
            queries.len()
        )));
    }
    let sessions = session_of.iter().map(|s| s + 1).max().unwrap_or(1);
    let pool_lanes = sessions * galois.options().parallelism.get();

    // Logical pass: canonical order, shared caches warm in workload order
    // exactly as a serial suite would — the session assignment cannot
    // change any answer or prompt count.
    let mut results = Vec::with_capacity(queries.len());
    let mut replay: Vec<ReplayQuery> = Vec::with_capacity(queries.len());
    for (sql, &session) in queries.iter().zip(session_of) {
        let (result, trace) = galois.execute_traced(sql)?;
        results.push(result);
        replay.push(ReplayQuery {
            session,
            done_at: vec![None; trace.len()],
            trace,
            next: 0,
            running: 0,
            arrival: 0,
            admitted: 0,
            finished: 0,
        });
    }

    // Closed-loop session chains: each session issues its queries in
    // canonical order, the next arriving the instant the previous
    // finishes.
    let mut chain: Vec<Vec<usize>> = vec![Vec::new(); sessions];
    for (i, &s) in session_of.iter().enumerate() {
        chain[s].push(i);
    }
    let mut chain_pos: Vec<usize> = vec![0; sessions];

    let mut pool = LanePool::new(pool_lanes, sessions);
    // FIFO admission queue, ordered by (arrival, canonical index).
    let mut waiting: BTreeSet<(u64, usize)> = BTreeSet::new();
    // Admitted queries that still have tasks to submit or complete.
    let mut inflight: Vec<usize> = Vec::new();
    // Completion events: (time, submission seq, query index, task index).
    let mut events: BinaryHeap<Reverse<(u64, u64, usize, usize)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut makespan: u64 = 0;
    let mut total_queue: u64 = 0;

    // Arrive each session's first query at t = 0.
    for (s, members) in chain.iter().enumerate() {
        if let Some(&q) = members.first() {
            chain_pos[s] = 1;
            waiting.insert((0, q));
        }
    }

    // One instant of admission: drain the FIFO queue into the in-flight
    // set while the cap allows. Empty-trace queries (EXPLAIN, pure-DB
    // plans) finish the instant they are admitted, so their closed-loop
    // successor arrives — and may itself be admitted — within the loop.
    macro_rules! admit_and_finish {
        ($t:expr) => {{
            let t = $t;
            while let Some(&(arr, q)) = waiting.first() {
                debug_assert!(arr <= t);
                if policy.max_inflight > 0 && inflight.len() >= policy.max_inflight {
                    break;
                }
                waiting.remove(&(arr, q));
                replay[q].admitted = t;
                total_queue += t - arr;
                if replay[q].trace.is_empty() {
                    replay[q].finished = t;
                    makespan = makespan.max(t);
                    let s = replay[q].session;
                    if let Some(&next_q) = chain[s].get(chain_pos[s]) {
                        chain_pos[s] += 1;
                        replay[next_q].arrival = t;
                        waiting.insert((t, next_q));
                    }
                } else {
                    inflight.push(q);
                }
            }
        }};
    }

    // One instant of submission: while some in-flight query has a ready
    // task, schedule the fair-share winner's next task on the pool
    // (release = now). The winner is the ready query whose session has
    // been served least, ties to the lowest session and then the lowest
    // query index; recomputed after every pick, as `served_ms` moves.
    macro_rules! submit_ready {
        ($t:expr) => {{
            let t = $t;
            while let Some(q) = inflight
                .iter()
                .copied()
                .filter(|&q| replay[q].next_ready())
                .min_by_key(|&q| {
                    let s = replay[q].session;
                    (pool.served_ms(s), s, q)
                })
            {
                let idx = replay[q].next;
                let duration = replay[q].trace[idx].duration;
                let done = pool.schedule(replay[q].session, t, duration);
                replay[q].next = idx + 1;
                replay[q].running += 1;
                events.push(Reverse((done, seq, q, idx)));
                seq += 1;
            }
        }};
    }

    admit_and_finish!(0);
    submit_ready!(0);

    while let Some(&Reverse((t, _, _, _))) = events.peek() {
        // Drain every completion at this instant, finishing queries and
        // arriving their closed-loop successors.
        loop {
            let Reverse((_, _, q, idx)) = match events.peek_mut() {
                Some(head) if head.0 .0 == t => PeekMut::pop(head),
                _ => break,
            };
            replay[q].done_at[idx] = Some(t);
            replay[q].running -= 1;
            if replay[q].all_done() {
                replay[q].finished = t;
                makespan = makespan.max(t);
                inflight.retain(|&x| x != q);
                let s = replay[q].session;
                if let Some(&next_q) = chain[s].get(chain_pos[s]) {
                    chain_pos[s] += 1;
                    replay[next_q].arrival = t;
                    waiting.insert((t, next_q));
                }
            }
        }
        admit_and_finish!(t);
        submit_ready!(t);
    }

    debug_assert!(waiting.is_empty() && inflight.is_empty());

    let outcomes = results
        .into_iter()
        .zip(replay)
        .map(|(mut result, rq)| {
            result.stats.virtual_ms = rq.finished - rq.admitted;
            result.stats.queue_ms = rq.admitted - rq.arrival;
            MultiQueryOutcome {
                result,
                session: rq.session,
                arrival_ms: rq.arrival,
                admitted_ms: rq.admitted,
                finished_ms: rq.finished,
            }
        })
        .collect();
    Ok(MultiQueryReport {
        outcomes,
        makespan_ms: makespan,
        pool_lanes,
        sessions,
        lane_utilisation: pool.utilisation(),
        total_queue_ms: total_queue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use galois_dataset::Scenario;
    use galois_llm::{ModelProfile, Parallelism, SimLlm};

    use crate::session::{GaloisOptions, Pipeline, PromptBatch};

    const SUITE: [&str; 4] = [
        "SELECT name, population FROM city WHERE elevation < 100",
        "SELECT name FROM city WHERE population > 1000000",
        "SELECT name, elevation FROM city WHERE population > 500000",
        "SELECT name FROM city WHERE elevation < 500",
    ];

    fn streaming_session(lanes: usize) -> Galois {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                pipeline: Pipeline::Streaming,
                prompt_batch: PromptBatch::Keys(10),
                parallelism: Parallelism::new(lanes),
                ..Default::default()
            },
        )
    }

    #[test]
    fn single_session_replay_is_bit_exact_with_serial_runs() {
        let serial = streaming_session(8);
        let reference: Vec<GaloisResult> = SUITE
            .iter()
            .map(|sql| serial.execute(sql).unwrap())
            .collect();

        let galois = streaming_session(8);
        let report =
            run_multi_query(&galois, &SUITE, &[0, 0, 0, 0], &AdmissionPolicy::default()).unwrap();

        assert_eq!(report.sessions, 1);
        assert_eq!(report.pool_lanes, 8);
        assert_eq!(report.total_queue_ms, 0);
        let mut clock = 0;
        for (out, want) in report.outcomes.iter().zip(&reference) {
            assert_eq!(out.result.relation.rows, want.relation.rows);
            // The full stats struct matches the serial run bit for bit:
            // queue_ms stays zero and virtual_ms replays identically.
            let mut replayed = out.result.stats;
            replayed.wall_ms = want.stats.wall_ms;
            assert_eq!(replayed, want.stats);
            // Closed loop: each query arrives the instant its predecessor
            // finishes, so the suite clock is the serial sum.
            assert_eq!(out.arrival_ms, clock);
            assert_eq!(out.admitted_ms, clock);
            clock += want.stats.virtual_ms;
            assert_eq!(out.finished_ms, clock);
        }
        assert_eq!(report.makespan_ms, clock);
    }

    #[test]
    fn concurrent_sessions_beat_the_serial_suite_clock() {
        let serial = streaming_session(8);
        let serial_sum: u64 = SUITE
            .iter()
            .map(|sql| serial.execute(sql).unwrap().stats.virtual_ms)
            .sum();

        let galois = streaming_session(8);
        let report =
            run_multi_query(&galois, &SUITE, &[0, 1, 2, 3], &AdmissionPolicy::default()).unwrap();
        assert_eq!(report.sessions, 4);
        assert_eq!(report.pool_lanes, 32);
        assert!(
            report.makespan_ms < serial_sum,
            "overlapped replay {} ms should beat the serial suite {} ms",
            report.makespan_ms,
            serial_sum
        );
        assert!(report.lane_utilisation > 0.0 && report.lane_utilisation <= 1.0);
    }

    #[test]
    fn session_assignment_never_changes_answers_or_prompts() {
        let galois = streaming_session(8);
        let spread =
            run_multi_query(&galois, &SUITE, &[0, 1, 0, 1], &AdmissionPolicy::default()).unwrap();
        let galois = streaming_session(8);
        let packed =
            run_multi_query(&galois, &SUITE, &[0, 0, 0, 0], &AdmissionPolicy::default()).unwrap();
        for (a, b) in spread.outcomes.iter().zip(&packed.outcomes) {
            assert_eq!(a.result.relation.rows, b.result.relation.rows);
            assert_eq!(
                a.result.stats.total_prompts(),
                b.result.stats.total_prompts()
            );
            assert_eq!(a.result.stats.cache_hits, b.result.stats.cache_hits);
        }
    }

    #[test]
    fn inflight_cap_tallies_queue_delay() {
        let galois = streaming_session(8);
        let policy = AdmissionPolicy {
            max_inflight: 1,
            ..Default::default()
        };
        let report = run_multi_query(&galois, &SUITE, &[0, 1, 2, 3], &policy).unwrap();
        assert!(report.total_queue_ms > 0);
        let stats_queue: u64 = report
            .outcomes
            .iter()
            .map(|o| o.result.stats.queue_ms)
            .sum();
        assert_eq!(stats_queue, report.total_queue_ms);
        for o in &report.outcomes {
            assert_eq!(o.admitted_ms - o.arrival_ms, o.result.stats.queue_ms);
            assert_eq!(o.finished_ms - o.admitted_ms, o.result.stats.virtual_ms);
        }
        // A 1-at-a-time cap serialises the suite: makespan equals the sum
        // of the per-query clocks.
        let run_sum: u64 = report
            .outcomes
            .iter()
            .map(|o| o.result.stats.virtual_ms)
            .sum();
        assert_eq!(report.makespan_ms, run_sum);
    }

    #[test]
    fn session_assignment_must_cover_every_query() {
        let galois = streaming_session(8);
        let err =
            run_multi_query(&galois, &SUITE, &[0, 1], &AdmissionPolicy::default()).unwrap_err();
        assert!(matches!(err, crate::GaloisError::Unsupported(_)));
        assert!(err.to_string().contains("2 sessions for 4 queries"));
        // Nothing ran: the check precedes the logical pass.
        assert_eq!(galois.session_stats().prompts, 0);
    }

    #[test]
    fn explain_and_wave_edge_cases() {
        // EXPLAIN produces an empty trace: the query finishes the instant
        // it is admitted and its closed-loop successor still runs.
        let galois = streaming_session(8);
        let report = run_multi_query(
            &galois,
            &[
                "EXPLAIN SELECT name FROM city WHERE population > 1000000",
                "SELECT name FROM city WHERE population > 1000000",
            ],
            &[0, 0],
            &AdmissionPolicy::default(),
        )
        .unwrap();
        assert_eq!(report.outcomes[0].finished_ms, 0);
        assert!(report.outcomes[1].finished_ms > 0);

        // The drain trigger has no trace to replay.
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let wave = Galois::new(model, s.database.clone());
        let err = run_multi_query(
            &wave,
            &["SELECT name FROM city WHERE population > 1000000"],
            &[0],
            &AdmissionPolicy::default(),
        )
        .unwrap_err();
        assert!(matches!(err, crate::GaloisError::Unsupported(_)));
    }
}
