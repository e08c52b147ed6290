//! The prompt scheduler: real worker threads for independent retrieval
//! requests.
//!
//! The session's retrieval dataflow fires its work in rounds of
//! independent client requests — one barrier wave of a step under the
//! drain trigger, or one resolved virtual instant's micro-batches under
//! the streaming trigger. A round's requests share no data dependencies,
//! so [`Scheduler::run_wave_streaming`] may execute them on up to `K` OS
//! threads (`K` = the session's [`Parallelism`] knob), handing each
//! `(index, result)` pair to a sink on the calling thread as soon as the
//! request finishes; the dataflow keys every result by its index, so the
//! interleaving is invisible to it. [`Scheduler::run_wave`] is the
//! positional form — results returned in submission order — used by the
//! evaluation harness to run whole queries as concurrent streams.
//!
//! With `Parallelism(1)` the scheduler runs every unit inline on the
//! calling thread, in submission order, which keeps the sequential path
//! bit-for-bit reproducible.
//!
//! Virtual-time accounting is deliberately *not* done here: units return
//! their own virtual cost and the caller packs those costs onto simulated
//! lanes ([`galois_llm::lane_schedule`] per barrier wave, or the streaming
//! trigger's [`galois_llm::EventClock`]), so the virtual clock is a
//! deterministic function of the work, not of OS thread timing.

use galois_llm::Parallelism;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex as StdMutex, OnceLock};

thread_local! {
    /// Set on scheduler worker threads so *nested* waves (the harness
    /// wave running whole queries, each firing its own request rounds)
    /// run inline instead of multiplying threads — real concurrency stays
    /// bounded by the top-level wave's `K` rather than compounding to
    /// `K²`.
    static IN_WAVE_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Executes waves of independent closures across a bounded worker pool.
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    workers: usize,
}

impl Scheduler {
    /// A scheduler running at most `parallelism` units concurrently.
    pub fn new(parallelism: Parallelism) -> Self {
        Scheduler {
            workers: parallelism.get(),
        }
    }

    /// The worker-pool bound.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs one wave of independent units, returning their results in
    /// submission order.
    ///
    /// Units are claimed from a shared queue by up to `workers` scoped
    /// threads; with one worker (or at most one unit), or when already on
    /// a wave worker thread (nested waves), everything runs inline on the
    /// calling thread — real thread count is bounded by the *outermost*
    /// wave's worker count. A panicking unit propagates when the scope
    /// joins. The virtual clock never depends on this choice: callers
    /// account unit costs structurally via `lane_schedule`.
    ///
    /// Results land in lock-free write-once slots ([`OnceLock`]), which is
    /// where the `T: Sync` bound comes from: every slot is visible to all
    /// workers, though only the claimer of its index ever writes it.
    pub fn run_wave<T, F>(&self, units: Vec<F>) -> Vec<T>
    where
        T: Send + Sync,
        F: FnOnce() -> T + Send,
    {
        if self.workers <= 1 || units.len() <= 1 || IN_WAVE_WORKER.with(Cell::get) {
            return units.into_iter().map(|unit| unit()).collect();
        }
        let n = units.len();
        let jobs: Vec<Mutex<Option<F>>> = units.into_iter().map(|u| Mutex::new(Some(u))).collect();
        // Result slots are written exactly once, by whichever worker
        // claimed index `i` from the atomic counter — a lock-free
        // write-once cell, not a mutex, so storing a result never contends
        // with another worker storing its own.
        let results: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(|| {
                    IN_WAVE_WORKER.with(|flag| flag.set(true));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let unit = jobs[i].lock().take().expect("each unit claimed once");
                        if results[i].set(unit()).is_err() {
                            unreachable!("slot {i} written twice");
                        }
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every unit ran"))
            .collect()
    }

    /// Runs one wave of independent units, delivering each `(index,
    /// result)` pair to `sink` **in completion order** — the caller sees
    /// results the moment they land instead of waiting for the whole wave
    /// to join.
    ///
    /// [`Scheduler::run_wave`] is the positional form: it blocks until
    /// every unit has finished and hands back a submission-ordered `Vec`.
    /// This form instead pushes results through a sink running on the
    /// *calling* thread (the sink needs no `Send` bound and may freely
    /// mutate caller state). Completion order is nondeterministic by
    /// construction — callers that need determinism must key their state
    /// by the delivered index, exactly like the session's dataflow does.
    ///
    /// The inline cases (one worker, one unit, nested waves) deliver in
    /// submission order. A panicking unit propagates when the scope joins,
    /// after the surviving units have been delivered.
    pub fn run_wave_streaming<T, F, S>(&self, units: Vec<F>, mut sink: S)
    where
        T: Send,
        F: FnOnce() -> T + Send,
        S: FnMut(usize, T),
    {
        if self.workers <= 1 || units.len() <= 1 || IN_WAVE_WORKER.with(Cell::get) {
            for (i, unit) in units.into_iter().enumerate() {
                sink(i, unit());
            }
            return;
        }
        let n = units.len();
        let jobs: Vec<Mutex<Option<F>>> = units.into_iter().map(|u| Mutex::new(Some(u))).collect();
        let next = AtomicUsize::new(0);
        // Landed results plus a count of units lost to panics: the drain
        // loop must terminate even when a worker unwinds mid-unit, or the
        // scope join (which re-raises the panic) would never be reached.
        struct Landing<T> {
            items: Vec<(usize, T)>,
            lost: usize,
        }
        let landing: StdMutex<Landing<T>> = StdMutex::new(Landing {
            items: Vec::new(),
            lost: 0,
        });
        let ready = Condvar::new();
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(|| {
                    IN_WAVE_WORKER.with(|flag| flag.set(true));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let unit = jobs[i].lock().take().expect("each unit claimed once");
                        // Unwind guard: a panicking unit still counts
                        // towards termination of the drain loop.
                        struct LostGuard<'a, T> {
                            landing: &'a StdMutex<Landing<T>>,
                            ready: &'a Condvar,
                            armed: bool,
                        }
                        impl<T> Drop for LostGuard<'_, T> {
                            fn drop(&mut self) {
                                if self.armed {
                                    self.landing.lock().unwrap_or_else(|e| e.into_inner()).lost +=
                                        1;
                                    self.ready.notify_all();
                                }
                            }
                        }
                        let mut guard = LostGuard {
                            landing: &landing,
                            ready: &ready,
                            armed: true,
                        };
                        let result = unit();
                        guard.armed = false;
                        landing
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .items
                            .push((i, result));
                        ready.notify_all();
                    }
                });
            }
            let mut delivered = 0;
            let mut slot = landing.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                let batch: Vec<(usize, T)> = slot.items.drain(..).collect();
                if batch.is_empty() {
                    if delivered + slot.lost >= n {
                        break;
                    }
                    slot = ready.wait(slot).unwrap_or_else(|e| e.into_inner());
                    continue;
                }
                drop(slot);
                for (i, result) in batch {
                    delivered += 1;
                    sink(i, result);
                }
                slot = landing.lock().unwrap_or_else(|e| e.into_inner());
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_submission_order() {
        let sched = Scheduler::new(Parallelism::new(4));
        let units: Vec<_> = (0..32)
            .map(|i| {
                move || {
                    // Stagger so late units often finish first.
                    std::thread::sleep(std::time::Duration::from_micros((32 - i as u64) * 50));
                    i * 10
                }
            })
            .collect();
        let got = sched.run_wave(units);
        assert_eq!(got, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_runs_inline_in_order() {
        let sched = Scheduler::new(Parallelism::new(1));
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        let units: Vec<_> = (0..5)
            .map(|i| {
                let log = log.clone();
                move || {
                    log.lock().push(i);
                    i
                }
            })
            .collect();
        let got = sched.run_wave(units);
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_waves_run_inline_on_the_worker_thread() {
        let sched = Scheduler::new(Parallelism::new(4));
        let units: Vec<_> = (0..4)
            .map(|_| {
                move || {
                    let outer_thread = std::thread::current().id();
                    let inner = Scheduler::new(Parallelism::new(4));
                    let inner_units: Vec<_> = (0..3)
                        .map(|_| move || std::thread::current().id())
                        .collect();
                    inner
                        .run_wave(inner_units)
                        .into_iter()
                        .all(|id| id == outer_thread)
                }
            })
            .collect();
        assert!(
            sched.run_wave(units).into_iter().all(|inline| inline),
            "nested waves must not spawn further threads"
        );
    }

    #[test]
    fn lockfree_result_slots_preserve_order_under_contention() {
        // Many more units than workers, adversarially staggered so claim
        // order and completion order disagree wildly: the write-once slots
        // must still return results in exact submission order, run after
        // run.
        let sched = Scheduler::new(Parallelism::new(8));
        for round in 0..5u64 {
            let units: Vec<_> = (0..64u64)
                .map(|i| {
                    move || {
                        let jitter = ((i * 7 + round * 13) % 11) * 40;
                        std::thread::sleep(std::time::Duration::from_micros(jitter));
                        (i, i * i)
                    }
                })
                .collect();
            let got = sched.run_wave(units);
            let expected: Vec<(u64, u64)> = (0..64).map(|i| (i, i * i)).collect();
            assert_eq!(got, expected, "round {round}");
        }
    }

    #[test]
    fn streaming_delivers_every_result_exactly_once() {
        let sched = Scheduler::new(Parallelism::new(4));
        let units: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_micros(((i * 13) % 7) * 40));
                    i * 10
                }
            })
            .collect();
        let mut got = vec![None; 32];
        sched.run_wave_streaming(units, |i, r| {
            assert!(got[i].is_none(), "index {i} delivered twice");
            got[i] = Some(r);
        });
        for (i, slot) in got.iter().enumerate() {
            assert_eq!(*slot, Some(i as u64 * 10));
        }
    }

    #[test]
    fn streaming_delivers_in_completion_order() {
        // Unit 0 sleeps far longer than its siblings: with several real
        // workers the fast units must be sunk before it, proving delivery
        // is by completion, not submission.
        let sched = Scheduler::new(Parallelism::new(4));
        let units: Vec<_> = (0..4u64)
            .map(|i| {
                move || {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(60));
                    }
                    i
                }
            })
            .collect();
        let mut order = Vec::new();
        sched.run_wave_streaming(units, |i, _| order.push(i));
        assert_eq!(order.len(), 4);
        assert_eq!(*order.last().unwrap(), 0, "slow unit arrived {order:?}");
    }

    #[test]
    fn streaming_single_worker_is_submission_ordered() {
        let sched = Scheduler::new(Parallelism::new(1));
        let units: Vec<_> = (0..5).map(|i| move || i).collect();
        let mut order = Vec::new();
        sched.run_wave_streaming(units, |i, r| {
            assert_eq!(i, r);
            order.push(i);
        });
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn streaming_panic_propagates_without_deadlock() {
        let sched = Scheduler::new(Parallelism::new(4));
        let units: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("unit exploded");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut delivered = 0usize;
            sched.run_wave_streaming(units, |_, _| delivered += 1);
            delivered
        }));
        assert!(outcome.is_err(), "the unit panic must propagate");
    }

    #[test]
    fn empty_wave_is_fine() {
        let sched = Scheduler::new(Parallelism::new(8));
        let got: Vec<i32> = sched.run_wave(Vec::<fn() -> i32>::new());
        assert!(got.is_empty());
    }

    #[test]
    fn wave_actually_uses_multiple_threads() {
        let sched = Scheduler::new(Parallelism::new(4));
        let concurrent = std::sync::Arc::new(AtomicUsize::new(0));
        let peak = std::sync::Arc::new(AtomicUsize::new(0));
        let units: Vec<_> = (0..8)
            .map(|_| {
                let concurrent = concurrent.clone();
                let peak = peak.clone();
                move || {
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        sched.run_wave(units);
        assert!(
            peak.load(Ordering::SeqCst) > 1,
            "expected overlapping units, peak {}",
            peak.load(Ordering::SeqCst)
        );
    }
}
