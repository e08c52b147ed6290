//! Microbenchmarks for the virtual-lane clock at 8 and 64 lanes:
//! [`lane_schedule`] over one 10k-item wave and over a stream of
//! 10-item batches (the shape the client accounts on every prompt
//! batch), and the raw [`EventClock`] the streaming pipeline drives
//! with staggered releases.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galois_llm::{lane_schedule, EventClock};

/// Deterministic pseudo-random durations (xorshift), with plenty of ties.
fn durations(n: usize) -> Vec<u64> {
    let mut x = 0x9e3779b97f4a7c15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 400
        })
        .collect()
}

fn bench_lane_schedule(c: &mut Criterion) {
    let wave = durations(10_000);
    let batches: Vec<&[u64]> = wave.chunks(10).collect();
    for lanes in [8usize, 64] {
        c.bench_function(&format!("lane_schedule_10k_{lanes}lanes"), |b| {
            b.iter(|| lane_schedule(black_box(&wave).iter().copied(), lanes))
        });
        c.bench_function(&format!("lane_schedule_batchstream_{lanes}lanes"), |b| {
            b.iter(|| {
                batches
                    .iter()
                    .map(|batch| lane_schedule(black_box(batch).iter().copied(), lanes))
                    .sum::<u64>()
            })
        });
    }
}

fn bench_event_clock(c: &mut Criterion) {
    let wave = durations(10_000);
    for lanes in [8usize, 64] {
        c.bench_function(&format!("event_clock_10k_released_{lanes}lanes"), |b| {
            b.iter(|| {
                let mut clock = EventClock::new(lanes);
                // Staggered releases, the streaming driver's shape.
                for (i, &d) in wave.iter().enumerate() {
                    clock.schedule((i as u64) * 3, d);
                }
                clock.makespan()
            })
        });
    }
}

criterion_group!(benches, bench_lane_schedule, bench_event_clock);
criterion_main!(benches);
