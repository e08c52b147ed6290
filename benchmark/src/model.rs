//! The model boundary: the one place where the engine's requests meet the
//! simulated LLM.
//!
//! During set-up a [`Boundary`] in recording mode forwards every prompt to
//! `SimLlm` and keeps the completion (the *transcript*). Timed passes use
//! a replaying boundary that answers from that transcript, so host time
//! measures the engine rather than the simulator. A prompt the transcript
//! lacks falls back to `SimLlm` and is counted as a transcript miss; the
//! benchmark treats any miss as a failed run.
//!
//! Both modes count calls and tokens at the boundary, which is what the
//! end-to-end `model_calls_per_query` and `tokens_per_query` metrics bill.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use galois_llm::{Completion, LanguageModel, SimLlm};

use crate::trace::Tracer;

/// Recorded completions, keyed by the full prompt text.
pub type Transcript = HashMap<String, Completion>;

enum Source {
    Record(Mutex<Transcript>),
    Replay(Arc<Transcript>),
}

/// Counters taken at the boundary. All are statistics that publish no
/// other data, so `Relaxed` ordering suffices.
#[derive(Default)]
struct Counters {
    calls: AtomicUsize,
    prompt_tokens: AtomicUsize,
    completion_tokens: AtomicUsize,
    misses: AtomicUsize,
    /// Host nanoseconds spent inside `SimLlm` (recording and misses).
    sim_ns: AtomicU64,
}

/// A snapshot of the boundary counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Completions that crossed the boundary.
    pub calls: usize,
    /// Prompt tokens of those completions.
    pub prompt_tokens: usize,
    /// Completion tokens of those completions.
    pub completion_tokens: usize,
    /// Prompts the transcript lacked (answered by `SimLlm`).
    pub misses: usize,
    /// Host nanoseconds spent inside `SimLlm`.
    pub sim_ns: u64,
}

impl Usage {
    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &Usage) -> Usage {
        Usage {
            calls: self.calls - before.calls,
            prompt_tokens: self.prompt_tokens - before.prompt_tokens,
            completion_tokens: self.completion_tokens - before.completion_tokens,
            misses: self.misses - before.misses,
            sim_ns: self.sim_ns - before.sim_ns,
        }
    }
}

/// The benchmark-owned `LanguageModel` every session talks to.
pub struct Boundary {
    sim: SimLlm,
    source: Source,
    counters: Counters,
    tracer: Option<Arc<Tracer>>,
    /// Whether calls are recorded as spans on `tracer`.
    tracing: AtomicBool,
}

impl Boundary {
    /// A boundary that answers with `sim` and records every completion.
    pub fn recording(sim: SimLlm, tracer: Option<Arc<Tracer>>) -> Self {
        Boundary {
            sim,
            source: Source::Record(Mutex::new(Transcript::new())),
            counters: Counters::default(),
            tracing: AtomicBool::new(tracer.is_some()),
            tracer,
        }
    }

    /// A boundary that answers from `transcript`, falling back to `sim`.
    pub fn replaying(
        sim: SimLlm,
        transcript: Arc<Transcript>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        Boundary {
            sim,
            source: Source::Replay(transcript),
            counters: Counters::default(),
            tracing: AtomicBool::new(tracer.is_some()),
            tracer,
        }
    }

    /// Turns span recording on or off (a no-op without a tracer).
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Takes the completions recorded so far (empty for a replaying
    /// boundary).
    pub fn take_transcript(&self) -> Transcript {
        match &self.source {
            Source::Record(map) => std::mem::take(&mut *map.lock().expect("no recorder panicked")),
            Source::Replay(_) => Transcript::new(),
        }
    }

    /// Current counter values.
    pub fn usage(&self) -> Usage {
        let c = &self.counters;
        Usage {
            calls: c.calls.load(Ordering::Relaxed),
            prompt_tokens: c.prompt_tokens.load(Ordering::Relaxed),
            completion_tokens: c.completion_tokens.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            sim_ns: c.sim_ns.load(Ordering::Relaxed),
        }
    }

    fn simulate(&self, prompt: &str) -> Completion {
        let started = Instant::now();
        let completion = self.sim.complete(prompt);
        let ns = started.elapsed().as_nanos() as u64;
        self.counters.sim_ns.fetch_add(ns, Ordering::Relaxed);
        completion
    }

    fn answer(&self, prompt: &str) -> Completion {
        match &self.source {
            Source::Record(map) => {
                let completion = self.simulate(prompt);
                map.lock()
                    .expect("no recorder panicked")
                    .insert(prompt.to_string(), completion.clone());
                completion
            }
            Source::Replay(transcript) => match transcript.get(prompt) {
                Some(completion) => completion.clone(),
                None => {
                    self.counters.misses.fetch_add(1, Ordering::Relaxed);
                    self.simulate(prompt)
                }
            },
        }
    }
}

impl LanguageModel for Boundary {
    fn name(&self) -> &str {
        self.sim.name()
    }

    fn context_window(&self) -> usize {
        self.sim.context_window()
    }

    fn signature(&self) -> String {
        self.sim.signature()
    }

    fn complete(&self, prompt: &str) -> Completion {
        let completion = match &self.tracer {
            Some(tracer) if self.tracing.load(Ordering::Relaxed) => {
                let name = match self.source {
                    Source::Record(_) => "llm.model.sim",
                    Source::Replay(_) => "llm.model.replay",
                };
                let start = tracer.now_ns();
                let completion = self.answer(prompt);
                tracer.leaf(name, start, tracer.now_ns());
                completion
            }
            _ => self.answer(prompt),
        };
        let c = &self.counters;
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.prompt_tokens
            .fetch_add(completion.usage.prompt_tokens, Ordering::Relaxed);
        c.completion_tokens
            .fetch_add(completion.usage.completion_tokens, Ordering::Relaxed);
        completion
    }
}
