//! End-to-end benchmarks: a full Galois query (plan → prompts → parse →
//! clean → relational tail) per query class, plus the QA baseline path.
//! These are the macro-level numbers behind the reproduction tables.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galois_core::{BaselineKind, Galois, GaloisOptions, Parallelism, QaBaseline};
use galois_dataset::Scenario;
use galois_eval::model_for;
use galois_llm::ModelProfile;

fn bench_galois_queries(c: &mut Criterion) {
    let s = Scenario::generate(42);
    // One session per benchmark; the cache is cleared each iteration so
    // every sample pays the full retrieval cost.
    for (name, sql) in [
        (
            "e2e_selection",
            "SELECT name FROM city WHERE population > 1000000",
        ),
        ("e2e_aggregate", "SELECT COUNT(*) FROM city"),
        (
            "e2e_join",
            "SELECT p.name, r.birthDate FROM city p, cityMayor r WHERE p.mayor = r.name",
        ),
    ] {
        let galois = Galois::new(model_for(&s, ModelProfile::chatgpt()), s.database.clone());
        c.bench_function(name, |b| {
            b.iter(|| {
                galois.client().clear_cache();
                galois.execute(black_box(sql)).unwrap()
            })
        });
    }
}

/// The 10× world: same 46 query shapes over relations ten times larger,
/// so retrieval wall-clock is dominated by prompt volume. One 1-lane and
/// one 8-lane session run the same query: both execute every request on
/// the calling thread, so the pair measures the host cost of the lane
/// accounting (wave packing, speculative paging width), not thread
/// fan-out.
fn bench_galois_scaled_world(c: &mut Criterion) {
    let s = Scenario::generate_scaled(42, 10);
    let sql = "SELECT name, population FROM city WHERE elevation < 800";
    for (name, parallelism) in [("e2e_scaled10_seq", 1), ("e2e_scaled10_par8", 8)] {
        let galois = Galois::with_options(
            model_for(&s, ModelProfile::chatgpt()),
            s.database.clone(),
            GaloisOptions {
                parallelism: Parallelism::new(parallelism),
                ..Default::default()
            },
        );
        c.bench_function(name, |b| {
            b.iter(|| {
                galois.client().clear_cache();
                galois.execute(black_box(sql)).unwrap()
            })
        });
    }
}

fn bench_qa_baseline(c: &mut Criterion) {
    let s = Scenario::generate(42);
    let baseline = QaBaseline::new(model_for(&s, ModelProfile::chatgpt()));
    let question = s.suite[0].question();
    c.bench_function("e2e_qa_baseline", |b| {
        b.iter(|| baseline.ask(black_box(&question), BaselineKind::Plain))
    });
}

criterion_group!(
    benches,
    bench_galois_queries,
    bench_galois_scaled_world,
    bench_qa_baseline
);
criterion_main!(benches);
