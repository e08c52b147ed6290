//! Edge-case integration tests for the Galois session, run against the
//! noise-free oracle profile (failures here are engine bugs, not noise).

use galois_core::{Galois, GaloisOptions, Parallelism, Pipeline, PromptBatch};
use galois_dataset::Scenario;
use galois_llm::{Completion, LanguageModel, ModelProfile, SimLlm};
use galois_relational::Value;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

fn session(scenario: &Scenario) -> Galois {
    Galois::new(
        Arc::new(SimLlm::new(
            scenario.knowledge.clone(),
            ModelProfile::oracle(),
        )),
        scenario.database.clone(),
    )
}

#[test]
fn limit_and_order_by_over_llm_relation() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let sql = "SELECT name FROM city ORDER BY population DESC LIMIT 3";
    let got = g.execute(sql).unwrap();
    let truth = s.database.execute(sql).unwrap();
    assert_eq!(got.relation.rows, truth.rows);
    assert_eq!(
        got.relation.schema.arity(),
        1,
        "hidden sort column stripped"
    );
}

#[test]
fn distinct_over_llm_relation() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let sql = "SELECT DISTINCT country FROM city ORDER BY country";
    let got = g.execute(sql).unwrap();
    let truth = s.database.execute(sql).unwrap();
    assert_eq!(got.relation.rows, truth.rows);
}

#[test]
fn empty_selection_yields_empty_relation_not_error() {
    let s = Scenario::generate(42);
    let g = session(&s);
    // No city has a negative population.
    let got = g
        .execute("SELECT name FROM city WHERE population < 0")
        .unwrap();
    assert!(got.relation.is_empty());
}

#[test]
fn global_aggregate_over_empty_llm_selection() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let got = g
        .execute("SELECT COUNT(*), SUM(population) FROM city WHERE population < 0")
        .unwrap();
    assert_eq!(got.relation.rows[0][0], Value::Int(0));
    assert!(got.relation.rows[0][1].is_null());
}

#[test]
fn self_join_of_one_relation_under_two_bindings() {
    let s = Scenario::generate(42);
    let g = session(&s);
    // Pairs of distinct cities in the same country. Each binding gets its
    // own retrieval step and temp table.
    let sql = "SELECT a.name, b.name FROM city a, city b \
               WHERE a.country = b.country AND a.name < b.name";
    let got = g.execute(sql).unwrap();
    let truth = s.database.execute(sql).unwrap();
    assert_eq!(got.relation.len(), truth.len());
    assert!(got.stats.list_prompts >= 2, "two scans expected");
}

#[test]
fn in_and_like_filters_via_prompts() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let continent = s.world.countries[0].continent.clone();
    let sql = format!("SELECT name FROM country WHERE continent IN ('{continent}')");
    let got = g.execute(&sql).unwrap();
    let truth = s.database.execute(&sql).unwrap();
    assert_eq!(got.relation.len(), truth.len());
}

#[test]
fn between_filter_via_prompts() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let sql = "SELECT name FROM city WHERE population BETWEEN 100000 AND 5000000";
    let got = g.execute(sql).unwrap();
    let truth = s.database.execute(sql).unwrap();
    assert_eq!(got.relation.len(), truth.len());
}

#[test]
fn is_not_null_filter_keeps_all_known_rows() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let sql = "SELECT name FROM city WHERE population IS NOT NULL";
    let got = g.execute(sql).unwrap();
    let truth = s.database.execute(sql).unwrap();
    assert_eq!(got.relation.len(), truth.len());
}

#[test]
fn unknown_table_is_a_clean_error() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let err = g.execute("SELECT x FROM volcanoes").unwrap_err();
    assert!(err.to_string().contains("volcanoes"), "{err}");
}

#[test]
fn aggregate_only_query_costs_no_fetch_prompts() {
    let s = Scenario::generate(42);
    let g = session(&s);
    // COUNT(*) needs keys only: no attribute fetches, no filters.
    let got = g.execute("SELECT COUNT(*) FROM city").unwrap();
    assert_eq!(got.stats.fetch_prompts, 0);
    assert_eq!(got.stats.filter_prompts, 0);
    assert!(got.stats.list_prompts > 0);
}

#[test]
fn stats_virtual_seconds_consistent_with_ms() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let got = g.execute("SELECT COUNT(*) FROM country").unwrap();
    assert!((got.stats.virtual_seconds() - got.stats.virtual_ms as f64 / 1000.0).abs() < 1e-9);
}

#[test]
fn max_iterations_one_truncates_but_still_returns() {
    let s = Scenario::generate(42);
    let model: Arc<SimLlm> = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
    let g = Galois::with_options(
        model,
        s.database.clone(),
        GaloisOptions {
            max_list_iterations: 1,
            ..Default::default()
        },
    );
    let got = g.execute("SELECT name FROM city").unwrap();
    // The oracle's page size is large enough for one page to be complete,
    // so this also guards the "no spurious repeats" property.
    let truth = s.database.execute("SELECT name FROM city").unwrap();
    assert!(!got.relation.is_empty());
    assert!(got.relation.len() <= truth.len());
    assert_eq!(got.stats.list_prompts, 1);
}

/// The oracle, recording the thread every completion runs on.
struct ThreadRecorder {
    inner: SimLlm,
    threads: Mutex<Vec<ThreadId>>,
}

impl LanguageModel for ThreadRecorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn complete(&self, prompt: &str) -> Completion {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        self.inner.complete(prompt)
    }

    fn signature(&self) -> String {
        self.inner.signature()
    }
}

#[test]
fn retrieval_runs_on_the_calling_thread_at_any_lane_count() {
    let s = Scenario::generate(42);
    let queries = [
        "SELECT c.name, k.gdp FROM city c, country k \
         WHERE c.country = k.name AND c.population > 1000000",
        "SELECT name, population FROM city WHERE population > 1000000",
    ];
    for pipeline in [Pipeline::Off, Pipeline::Streaming] {
        let model = Arc::new(ThreadRecorder {
            inner: SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()),
            threads: Mutex::new(Vec::new()),
        });
        let g = Galois::with_options(
            model.clone(),
            s.database.clone(),
            GaloisOptions {
                parallelism: Parallelism::new(8),
                pipeline,
                prompt_batch: PromptBatch::Grid { keys: 10, attrs: 6 },
                ..Default::default()
            },
        );
        for sql in queries {
            let got = g.execute(sql).unwrap();
            let truth = s.database.execute(sql).unwrap();
            assert_eq!(got.relation.len(), truth.len(), "{pipeline:?}: {sql}");
        }
        let seen = model.threads.lock().unwrap();
        assert!(seen.len() > 1, "{pipeline:?}: the queries must prompt");
        let caller = std::thread::current().id();
        assert!(
            seen.iter().all(|&id| id == caller),
            "{pipeline:?}: a completion ran off the calling thread"
        );
    }
}
