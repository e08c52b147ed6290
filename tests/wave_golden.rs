//! Golden reference for both retrieval triggers.
//!
//! `tests/fixtures/wave_golden.txt` (`Pipeline::Off`, the drain trigger)
//! and `tests/fixtures/stream_golden.txt` (`Pipeline::Streaming`) record,
//! for every query of the 46-query paper suite and the 18-query operator
//! suite (`small_config`, seed 42), the exact `QueryStats` snapshot (every
//! field except the measured `wall_ms`) and an FNV-1a digest of the result
//! rows in order, across the same lattice under each pipeline:
//!
//! * lanes {1, 2, 8} × batch {`Off`, `Keys(1)`, `Keys(10)`, `Grid{10,1}`,
//!   `Grid{10,6}`} × store {`Off`, `On` cold pass, `On` warm pass} on the
//!   oracle model, both suites;
//! * `EarlyStop::Limit` on the operator suite (inert under the drain
//!   trigger, cutting list pages and fetches under streaming);
//! * `Resilience::On` over `common::faulty_oracle`, the noisy `chatgpt`
//!   profile, and `common::LineDropper` (which drives every batched
//!   fallback rung, the grid ladder's three included), both suites at
//!   lanes {1, 8}.
//!
//! The drain numbers are the paper-faithful barrier-wave pipeline's
//! prompts, cache hits, clocks and rows; the streaming numbers pin the
//! event-driven trigger's micro-batching per query, which the
//! relation-level equivalence batteries alone do not. Regenerate both
//! fixtures (only when a change is *meant* to move these numbers) with
//!
//! ```text
//! cargo test --release --test wave_golden -- --ignored
//! ```

mod common;

use common::{faulty_oracle, session_with_model, small_config, LineDropper};
use galois::core::{
    EarlyStop, Galois, GaloisOptions, ListStore, Parallelism, Pipeline, PromptBatch, QueryStats,
    Resilience, RetryPolicy,
};
use galois::dataset::{build_operator_suite, Scenario};
use galois::llm::{FaultProfile, LanguageModel, ModelProfile, SimLlm};
use galois::relational::Relation;
use std::fmt::Write as _;
use std::sync::Arc;

/// Each pipeline's fixture.
const DRAIN_FIXTURE: &str = "tests/fixtures/wave_golden.txt";
const STREAM_FIXTURE: &str = "tests/fixtures/stream_golden.txt";

const LANES: [usize; 3] = [1, 2, 8];
const BATCHES: [PromptBatch; 5] = [
    PromptBatch::Off,
    PromptBatch::Keys(1),
    PromptBatch::Keys(10),
    PromptBatch::Grid { keys: 10, attrs: 1 },
    PromptBatch::Grid { keys: 10, attrs: 6 },
];

/// Which model a pass runs against.
#[derive(Clone, Copy, Debug)]
enum Model {
    Oracle,
    Chatgpt,
    LineDropper,
    /// `faulty_oracle` under `Resilience::On(RetryPolicy::default())`.
    FaultyRetry,
}

/// Which query suite a pass runs.
#[derive(Clone, Copy, Debug)]
enum Suite {
    Paper,
    Operator,
}

/// One session configuration of the lattice; `warm` passes run the suite
/// twice on one session and record both.
struct Pass {
    pipeline: Pipeline,
    suite: Suite,
    model: Model,
    lanes: usize,
    batch: PromptBatch,
    store: bool,
    early_stop: bool,
}

impl Pass {
    fn label(&self) -> String {
        format!(
            "{:?} {:?} K={} {:?} store={} limit={}",
            self.suite,
            self.model,
            self.lanes,
            self.batch,
            if self.store { "On" } else { "Off" },
            self.early_stop
        )
    }
}

fn lattice(pipeline: Pipeline) -> Vec<Pass> {
    let mut passes = Vec::new();
    for suite in [Suite::Paper, Suite::Operator] {
        for lanes in LANES {
            for batch in BATCHES {
                for store in [false, true] {
                    passes.push(Pass {
                        pipeline,
                        suite,
                        model: Model::Oracle,
                        lanes,
                        batch,
                        store,
                        early_stop: false,
                    });
                }
            }
        }
        for model in [Model::FaultyRetry, Model::Chatgpt, Model::LineDropper] {
            for lanes in [1, 8] {
                for batch in BATCHES {
                    passes.push(Pass {
                        pipeline,
                        suite,
                        model,
                        lanes,
                        batch,
                        store: false,
                        early_stop: false,
                    });
                }
            }
        }
    }
    for lanes in LANES {
        for batch in BATCHES {
            passes.push(Pass {
                pipeline,
                suite: Suite::Operator,
                model: Model::Oracle,
                lanes,
                batch,
                store: false,
                early_stop: true,
            });
        }
    }
    passes
}

fn session(s: &Scenario, pass: &Pass) -> Galois {
    let model: Arc<dyn LanguageModel> = match pass.model {
        Model::Oracle => Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle())),
        Model::Chatgpt => Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::chatgpt())),
        Model::LineDropper => Arc::new(LineDropper::oracle(s)),
        Model::FaultyRetry => faulty_oracle(s, FaultProfile::default()),
    };
    let opts = GaloisOptions {
        pipeline: pass.pipeline,
        prompt_batch: pass.batch,
        parallelism: Parallelism::new(pass.lanes),
        list_store: if pass.store {
            ListStore::On
        } else {
            ListStore::Off
        },
        early_stop: if pass.early_stop {
            EarlyStop::Limit
        } else {
            EarlyStop::Off
        },
        resilience: match pass.model {
            Model::FaultyRetry => Resilience::On(RetryPolicy::default()),
            _ => Resilience::Off,
        },
        ..Default::default()
    };
    session_with_model(model, s, opts)
}

/// FNV-1a over the rendered rows, in order.
fn row_digest(rel: &Relation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for row in &rel.rows {
        for cell in row {
            eat(cell.render().as_bytes());
            eat(&[0x1f]);
        }
        eat(&[0x1e]);
    }
    h
}

/// Every `QueryStats` field but `wall_ms`, in declaration order. The
/// exhaustive destructuring makes a newly added field a compile error
/// here, so the fixture can never silently stop covering one.
fn stats_record(stats: &QueryStats) -> String {
    let QueryStats {
        list_prompts,
        filter_prompts,
        fetch_prompts,
        cache_hits,
        prompt_tokens,
        completion_tokens,
        virtual_ms,
        serial_virtual_ms,
        list_virtual_ms,
        filter_virtual_ms,
        fetch_virtual_ms,
        wall_ms: _,
        rows_retrieved,
        retries,
        timeouts,
        rate_limited,
        breaker_fastfails,
        failed_cells,
        queue_ms,
    } = *stats;
    [
        list_prompts as u64,
        filter_prompts as u64,
        fetch_prompts as u64,
        cache_hits as u64,
        prompt_tokens as u64,
        completion_tokens as u64,
        virtual_ms,
        serial_virtual_ms,
        list_virtual_ms,
        filter_virtual_ms,
        fetch_virtual_ms,
        rows_retrieved as u64,
        retries as u64,
        timeouts as u64,
        rate_limited as u64,
        breaker_fastfails as u64,
        failed_cells as u64,
        queue_ms,
    ]
    .iter()
    .map(u64::to_string)
    .collect::<Vec<_>>()
    .join(" ")
}

/// Runs one pass and renders its block: a `# label` header, then one
/// `<query> <stats…> <digest>` line per query (both passes when warm).
fn run_pass(s: &Scenario, pass: &Pass) -> String {
    let queries: Vec<(String, String)> = match pass.suite {
        Suite::Paper => s
            .suite
            .iter()
            .map(|q| (format!("q{}", q.id), q.to_sql()))
            .collect(),
        Suite::Operator => build_operator_suite(&s.world)
            .into_iter()
            .map(|q| (format!("op{}", q.id), q.sql))
            .collect(),
    };
    let g = session(s, pass);
    let mut out = format!("# {}\n", pass.label());
    let rounds: &[&str] = if pass.store { &["cold", "warm"] } else { &[""] };
    for round in rounds {
        for (id, sql) in &queries {
            let tag = if round.is_empty() {
                id.clone()
            } else {
                format!("{id}/{round}")
            };
            match g.execute(sql) {
                Ok(r) => writeln!(
                    out,
                    "{tag} {} {:016x}",
                    stats_record(&r.stats),
                    row_digest(&r.relation)
                ),
                Err(e) => writeln!(out, "{tag} err {e}"),
            }
            .expect("write to String");
        }
    }
    out
}

/// Runs the whole lattice under `pipeline`, a few passes at a time, in
/// lattice order.
fn render_lattice(pipeline: Pipeline) -> Vec<String> {
    let s = Scenario::generate_with(42, small_config());
    let passes = lattice(pipeline);
    let threads = 4;
    let mut blocks = vec![String::new(); passes.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let s = &s;
                let passes = &passes;
                scope.spawn(move || {
                    (t..passes.len())
                        .step_by(threads)
                        .map(|i| (i, run_pass(s, &passes[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, block) in handle.join().expect("pass thread") {
                blocks[i] = block;
            }
        }
    });
    blocks
}

/// Compares the lattice under `pipeline` with its fixture line by line,
/// reporting the first mismatches under their pass headers.
fn check_fixture(pipeline: Pipeline, path: &str) {
    let fixture = std::fs::read_to_string(path).expect("golden fixture present");
    let expected: Vec<&str> = fixture.split_inclusive('\n').collect();
    let mut want = expected.iter();
    let mut header = String::new();
    let mut mismatches = Vec::new();
    for block in render_lattice(pipeline) {
        for line in block.split_inclusive('\n') {
            let want_line = want.next().copied().unwrap_or("<missing>\n");
            if line.starts_with('#') {
                header = line.trim_end().to_string();
            }
            if line != want_line && mismatches.len() < 10 {
                mismatches.push(format!(
                    "{header}\n  got:  {}  want: {}",
                    line.trim_end(),
                    want_line.trim_end()
                ));
            }
        }
    }
    assert!(
        want.next().is_none(),
        "fixture has lines the lattice no longer produces"
    );
    assert!(
        mismatches.is_empty(),
        "fields: list filter fetch cache_hits prompt_tok completion_tok virtual serial \
         list_v filter_v fetch_v rows retries timeouts rate_limited fastfails failed \
         queue digest\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn drain_trigger_reproduces_the_wave_golden_fixture() {
    check_fixture(Pipeline::Off, DRAIN_FIXTURE);
}

#[test]
fn streaming_trigger_reproduces_the_stream_golden_fixture() {
    check_fixture(Pipeline::Streaming, STREAM_FIXTURE);
}

#[test]
#[ignore = "regenerates the fixtures; run explicitly"]
fn regenerate_golden_fixtures() {
    std::fs::create_dir_all("tests/fixtures").expect("fixture dir");
    for (pipeline, path) in [
        (Pipeline::Off, DRAIN_FIXTURE),
        (Pipeline::Streaming, STREAM_FIXTURE),
    ] {
        std::fs::write(path, render_lattice(pipeline).concat()).expect("write fixture");
    }
}
