//! # galois-bench
//!
//! Reproduction harness: one binary per table/figure of the paper (see
//! `DESIGN.md` §4 for the experiment index) plus Criterion microbenchmarks
//! in `benches/`.
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — cardinality difference per model |
//! | `table2` | Table 2 — cell-match % per method and query class |
//! | `timing` | §5 prompt-count / latency statistics |
//! | `plan_demo` | Figure 3 — compiled plan with LLM operators |
//! | `prompt_demo` | Figure 4 — few-shot prompt rendering |
//! | `ablation_pushdown` | §6 — prompt pushdown on/off |
//! | `ablation_cleaning` | §4 — cleaning on/off |
//! | `ablation_iteration` | §4 — "more results" iteration cap sweep |
//! | `ablation_planner` | §6 — cost-based planner vs. fixed heuristic |
//! | `ablation_batch` | multi-key prompt batching factor sweep (B ∈ {1, 2, 5, 10, 25}) |
//! | `ablation_grid` | grid fusion factor sweep (keys × attributes per prompt) |
//! | `ablation_limit` | LIMIT-aware early termination — window size sweep on a 120-key concept |
//! | `load_gen` | closed-loop multi-session load sweep over the shared lane pool |
//! | `perf_report` | end-to-end accounting (`BENCH_e2e.json`), incl. the planner and batched rows |
//!
//! Every binary accepts `--seed <u64>` (default 42). The suite-setup
//! boilerplate the binaries share — flag parsing, the engine option
//! stacks each BENCH row names, fresh-session construction — lives here
//! so a configuration is defined once and every ablation, the load
//! generator and `perf_report` measure the same stack.

#![warn(missing_docs)]

use std::sync::Arc;

use galois_core::{Galois, GaloisOptions, ListStore, Parallelism, Pipeline, Planner, PromptBatch};
use galois_dataset::Scenario;
use galois_llm::{FaultProfile, ModelProfile, SimLlm};

/// Parses a `--seed N` argument pair from `std::env::args`, defaulting to
/// 42. Shared by all reproduction binaries.
pub fn seed_from_args() -> u64 {
    parsed_flag("--seed").unwrap_or(42)
}

/// Parses a `--parallelism K` argument pair (request lanes per session),
/// defaulting to 8 — the BENCH configuration.
pub fn lanes_from_args() -> usize {
    parsed_flag("--parallelism").unwrap_or(8).max(1)
}

/// Parses a `--model NAME` argument pair into a [`ModelProfile`], falling
/// back to the oracle when absent or unknown.
pub fn model_from_args() -> ModelProfile {
    string_flag("--model")
        .and_then(|name| ModelProfile::by_name(&name))
        .unwrap_or_else(ModelProfile::oracle)
}

/// The cost-planned stack: `Planner::CostBased` over `lanes` request
/// lanes (the `galois_cost_planner` BENCH row).
pub fn cost_planned_options(lanes: usize) -> GaloisOptions {
    GaloisOptions {
        parallelism: Parallelism::new(lanes),
        planner: Planner::CostBased,
        ..Default::default()
    }
}

/// The batched stack: cost-planned plus `PromptBatch::Keys(batch)` (the
/// `galois_batched` BENCH row).
pub fn batched_options(lanes: usize, batch: usize) -> GaloisOptions {
    GaloisOptions {
        prompt_batch: PromptBatch::Keys(batch.max(1)),
        ..cost_planned_options(lanes)
    }
}

/// The pipelined stack: batched plus `Pipeline::Streaming` (the
/// `galois_pipelined` BENCH row).
pub fn pipelined_options(lanes: usize, batch: usize) -> GaloisOptions {
    GaloisOptions {
        pipeline: Pipeline::Streaming,
        ..batched_options(lanes, batch)
    }
}

/// The full grid-fused stack: streaming, cost-planned, key-universe store
/// on, `PromptBatch::Grid { keys, attrs }` (the `galois_grid_fused` BENCH
/// row, and the base configuration of the multi-query rows).
pub fn grid_stack_options(lanes: usize, keys: usize, attrs: usize) -> GaloisOptions {
    GaloisOptions {
        list_store: ListStore::On,
        prompt_batch: PromptBatch::Grid {
            keys: keys.max(1),
            attrs: attrs.max(1),
        },
        pipeline: Pipeline::Streaming,
        ..cost_planned_options(lanes)
    }
}

/// A fresh Galois session over the scenario's knowledge under `profile`
/// and `options` — the construction every bin repeats for cold-session
/// measurements.
pub fn fresh_session(
    scenario: &Scenario,
    profile: &ModelProfile,
    options: GaloisOptions,
) -> Galois {
    Galois::with_options(
        Arc::new(SimLlm::new(scenario.knowledge.clone(), profile.clone())),
        scenario.database.clone(),
        options,
    )
}

/// A fault profile whose every fault is marker-detectable (truncated
/// answers excluded): the retry loop catches them all, keeping
/// resilience sweeps' row counts meaningful across policies.
pub fn detectable_fault_profile(rate: f64) -> FaultProfile {
    FaultProfile {
        fault_rate: rate,
        truncated_weight: 0,
        ..FaultProfile::default()
    }
}

/// Parses an arbitrary `<flag> <value>` pair from `std::env::args`.
pub fn parsed_flag<T: std::str::FromStr>(flag: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == flag)
        .and_then(|w| w[1].parse().ok())
}

/// Parses a `<flag> <value>` string pair from `std::env::args`
/// (convenience alias for `parsed_flag::<String>`, whose parse is
/// infallible).
pub fn string_flag(flag: &str) -> Option<String> {
    parsed_flag(flag)
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_seed_is_42() {
        // Arguments of the test harness never contain --seed.
        assert_eq!(super::seed_from_args(), 42);
    }

    #[test]
    fn absent_flags_parse_to_none() {
        assert_eq!(super::parsed_flag::<usize>("--no-such-flag"), None);
        assert_eq!(super::string_flag("--no-such-flag"), None);
    }

    #[test]
    fn default_lanes_and_model_match_the_bench_configuration() {
        assert_eq!(super::lanes_from_args(), 8);
        assert_eq!(super::model_from_args().name, "oracle");
    }

    #[test]
    fn option_stacks_compose_incrementally() {
        use galois_core::{ListStore, Pipeline, Planner, PromptBatch};
        let cost = super::cost_planned_options(8);
        assert_eq!(cost.planner, Planner::CostBased);
        assert_eq!(cost.parallelism.get(), 8);
        assert_eq!(cost.pipeline, Pipeline::Off);
        let batched = super::batched_options(8, 10);
        assert_eq!(batched.prompt_batch, PromptBatch::Keys(10));
        assert_eq!(batched.pipeline, Pipeline::Off);
        let pipelined = super::pipelined_options(8, 10);
        assert_eq!(pipelined.prompt_batch, PromptBatch::Keys(10));
        assert_eq!(pipelined.pipeline, Pipeline::Streaming);
        let grid = super::grid_stack_options(8, 10, 6);
        assert_eq!(grid.prompt_batch, PromptBatch::Grid { keys: 10, attrs: 6 });
        assert_eq!(grid.pipeline, Pipeline::Streaming);
        assert_eq!(grid.list_store, ListStore::On);
        assert_eq!(grid.planner, Planner::CostBased);
    }

    #[test]
    fn detectable_fault_profile_excludes_truncation() {
        let p = super::detectable_fault_profile(0.2);
        assert_eq!(p.fault_rate, 0.2);
        assert_eq!(p.truncated_weight, 0);
    }
}
