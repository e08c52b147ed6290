//! The Galois session: end-to-end SQL execution over an LLM (paper §4
//! "Workflow").
//!
//! ```text
//! (1) plan the SQL against the user-provided schema
//! (2) retrieve tuples: key scans (iterated until exhaustion), per-key
//!     filter checks, per-key attribute fetches — all as text prompts
//! (3) convert answer strings to typed CELL values (parse + clean)
//! (4) run the remaining operators (joins, aggregates, …) traditionally
//! ```
//!
//! Retrieval (steps 2–3) runs through one dataflow executor. Every LLM
//! scan step of the compiled query becomes a stage chain — the key-list
//! stream, one stage per filter condition (in conjunctive short-circuit
//! order: a key is asked about condition *n + 1* only if it survived
//! condition *n*), and the fetch cells — and the session's [`Pipeline`]
//! picks the *trigger* deciding when a stage's accumulated keys fire:
//!
//! * the **drain trigger** ([`Pipeline::Off`], the default) fires a stage
//!   only once its upstream has fully drained, as barrier waves whose
//!   time packs onto `K` simulated request lanes
//!   ([`galois_llm::lane_schedule`]) — the paper's phase-by-phase
//!   protocol; `Parallelism(1)` is the strictly sequential accounting;
//! * the **streaming trigger** ([`Pipeline::Streaming`]) fires per-key
//!   micro-batches the moment they fill, under an event-driven virtual
//!   clock shared by every step of the query.
//!
//! Prompts execute on the calling thread, in fire order; `K` =
//! [`GaloisOptions::parallelism`] sets how many *virtual* request lanes the
//! triggers' clocks pack them onto (a networked backend brings its own
//! concurrency behind the [`LanguageModel`] boundary).
//! [`GaloisOptions::prompt_batch`]
//! picks the prompt *shape* independently of the trigger: one key per
//! prompt ([`PromptBatch::Off`]), `B`-key prompts with per-key sub-entry
//! caching and single-key fallback re-asks ([`PromptBatch::Keys`]), or
//! `B`-key × `A`-attribute grid fetches ([`PromptBatch::Grid`]).

use crate::clean::{clean_to_type, normalise_text, CleaningPolicy};
use crate::compile::{CompileOptions, CompiledQuery, LlmScanStep};
use crate::error::{GaloisError, Result};
use crate::parse::{parse_boolean_answer, parse_list_answer, parse_value_answer, ListAnswer};
use crate::plan_choice::{plan_query, PlannedQuery, Planner, PlannerParams};
use crate::prompts::{FetchTemplate, PromptBuilder};
use galois_llm::faults::is_fault_text;
use galois_llm::intent::{split_batched_answer, split_grid_answer, Condition, TaskIntent};
use galois_llm::{
    lane_schedule, BatchOutcome, ClientStats, KeyUniverse, KeyUniverseStore, LanguageModel,
    LlmClient, Parallelism, RetryPolicy, SubEntryLookup,
};
use galois_relational::{Column, Database, Relation, Table, TableSchema, Value};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Multi-key prompt batching: how many keys of one retrieval cell (one
/// filter condition, or one fetched attribute) are fused into a single
/// prompt.
///
/// The paper's dominant cost is prompt volume (§5: ~110 *batched* prompts
/// and ~20 s per query); fusing keys amortises the fixed preamble and
/// instruction tokens every per-key prompt re-pays. The protocol is
/// line-oriented ([`galois_llm::intent::TaskIntent::FetchAttrBatch`] /
/// [`galois_llm::intent::TaskIntent::FilterKeysBatch`]): the prompt lists
/// the keys one per line, the model answers one `key: value` line per key,
/// and any key whose line fails to parse is re-asked with the single-key
/// prompt — batching can cost extra prompts, never accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PromptBatch {
    /// One task per prompt — the paper-faithful protocol, bit-identical to
    /// the pre-batching pipeline (prompts, cache hits, virtual clocks).
    /// The default.
    #[default]
    Off,
    /// Fuse up to `n` keys per prompt (clamped to ≥ 1). `Keys(1)` uses the
    /// multi-key protocol with one key per prompt — the ablation base case
    /// isolating the protocol's own overhead.
    Keys(usize),
    /// Grid fusion: fetch prompts ask up to `attrs` attributes for up to
    /// `keys` keys at once (both clamped to ≥ 1), cutting the fetch phase
    /// from `C × ceil(keys / B)` prompts to `ceil(C / A) × ceil(keys / B)`
    /// per step ([`galois_llm::intent::TaskIntent::FetchGridBatch`]). The
    /// filter phase behaves exactly like `Keys(keys)` — only fetch cells
    /// have a second axis to fuse. Unparseable cells fall down the ladder
    /// grid → per-attribute key batch → per-key single prompt, so grid
    /// fusion may cost extra prompts, never accuracy. A group with spare
    /// width (fewer than `attrs` pending columns) is speculatively padded
    /// with the relation's other columns (schema order, key and fetched
    /// columns excluded): the pad
    /// cells seed the per-(key, attr) sub-entry store at no extra prompt
    /// cost, so later queries touching the same table fetch from cache —
    /// the lever that breaks the one-new-column-per-query fetch floor
    /// across a suite. `Grid { keys: B, attrs: 1 }` is the ablation base
    /// case isolating the grid protocol's own overhead against `Keys(B)`
    /// (no spare width, so no speculation).
    Grid {
        /// Keys fused per prompt (the `B` of `⌈keys/B⌉` chunks).
        keys: usize,
        /// Fetched attributes fused per prompt (the `A` of `⌈C/A⌉`
        /// attr-groups).
        attrs: usize,
    },
}

impl PromptBatch {
    /// Keys fused per prompt (1 when off).
    pub fn keys_per_prompt(self) -> usize {
        match self {
            PromptBatch::Off => 1,
            PromptBatch::Keys(n) => n.max(1),
            PromptBatch::Grid { keys, .. } => keys.max(1),
        }
    }

    /// Attributes fused per fetch prompt (1 unless grid mode).
    pub fn attrs_per_prompt(self) -> usize {
        match self {
            PromptBatch::Grid { attrs, .. } => attrs.max(1),
            _ => 1,
        }
    }

    /// True when the multi-key protocol is in use.
    pub fn is_on(self) -> bool {
        !matches!(self, PromptBatch::Off)
    }

    /// True when the fetch phase fuses attributes as well as keys.
    pub fn is_grid(self) -> bool {
        matches!(self, PromptBatch::Grid { .. })
    }
}

/// The trigger policy of the retrieval dataflow: when a stage's
/// accumulated keys fire.
///
/// Both variants run the same executor — list stream → filter stages →
/// fetch cells, with the same prompts, parsers, sub-entry store, grid
/// fallback ladder and key-universe store. They differ only in when work
/// fires and how the virtual clock is charged.
///
/// [`Pipeline::Off`] is the **drain trigger**, the paper's three-phase
/// protocol (list keys → check filters → fetch attributes): a stage fires
/// only once its upstream stage has fully drained, its keys cut into
/// chunks at once — single-key prompts grouped `batch_size` per client
/// request, or `B`-key prompts under [`PromptBatch::Keys`]/[`PromptBatch::Grid`],
/// with each fallback rung fired as a chained wave. Each such barrier wave
/// costs the lane-packed makespan of its requests; waves add up within a
/// step, and the query's steps pack onto the `K` lanes. That leaves a
/// latency floor — each phase boundary idles every request lane until the
/// slowest request of the previous phase lands.
///
/// [`Pipeline::Streaming`] removes the barriers: keys flow through the
/// filter chain and into fetch micro-batches the moment they
/// are known to survive, and the virtual clock becomes an event-driven
/// simulation ([`galois_llm::EventClock`]) in which each micro-batch is
/// released at the instant its inputs exist. A micro-batch fires when it
/// reaches `B` keys
/// ([`GaloisOptions::prompt_batch`]; `B = 1` when batching is off), when
/// a **lane goes idle** after a virtual instant has fully resolved
/// (holding a partial batch back while lanes sit empty is pure latency),
/// or at **upstream drain** — the flush that ends each stream. The idle
/// flush is speculative: if the inputs of a stage later grow a chunk the
/// flush already split (a later list page, or survivors of a filter
/// stage whose chunks completed at different instants), streaming spends
/// *more* prompts than the drain trigger — extra partial chunks buy
/// latency, never accuracy. When each stage's input arrives at one
/// instant — single-page key streams feeding pushed-down scans, the
/// benchmark configuration — chunk membership and counts match the drain
/// trigger exactly.
///
/// Invariants:
///
/// * [`Pipeline::Off`] (the default) is bit-exact with the paper-faithful
///   barrier-wave pipeline — prompts per kind, cache hits, both clocks,
///   relations (`tests/wave_golden.rs` pins it);
/// * streaming never changes `R_M` on a noise-free model, for any lane
///   count or batch factor; its cache-hit totals always match the drain
///   run's, and its prompt bill is never lower (and is *equal* whenever
///   the idle flush never splits a chunk that later input would have
///   filled);
/// * streaming pays one request overhead per micro-batch (a real
///   streaming deployment cannot fuse requests it has not accumulated),
///   so with a single lane it is *slower* than the drain trigger, which
///   amortises the overhead across up to `batch_size` prompts per
///   request. Pipelining is a concurrency optimisation: the overheads
///   overlap across lanes, and the phase barriers disappear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pipeline {
    /// Drain trigger: a stage fires once its upstream has fully drained,
    /// in barrier-separated waves — the paper-faithful dataflow. The
    /// default.
    #[default]
    Off,
    /// Streaming trigger: per-key micro-batches under the event-driven
    /// virtual clock — list pages feed filter micro-batches, survivors
    /// stream into the next condition and then into fetch micro-batches.
    Streaming,
}

impl Pipeline {
    /// True when the streaming trigger is selected.
    pub fn is_streaming(self) -> bool {
        matches!(self, Pipeline::Streaming)
    }
}

/// Cross-query key-universe store for the LIST phase.
///
/// The paper's protocol re-enumerates a concept's keys query after query;
/// by PR 5 that serial listing chain was ~90 % of the pipelined critical
/// path, because even prompt-cache hits ride in a batch request (one
/// overhead each) and the exclusion-list iteration is inherently
/// sequential. With the store enabled, the first query on a concept pages
/// keys out of the model — *speculatively*: once page 1 reveals the page
/// size, later pages are requested by offset
/// ([`galois_llm::intent::TaskIntent::ListKeysPage`]) in parallel waves
/// across the session's lanes — and publishes the universe under the
/// concept's signature (table, key attribute, rendered scan condition),
/// keyed by the model's [`LanguageModel::signature`]. Every later query
/// on that concept reads the warm universe at **zero prompt and zero
/// virtual cost**, counting the stored frontier's iterations as cache
/// hits (the bill a re-listing run would have paid in prompt-cache hits);
/// a partial frontier (iteration-capped listing) is resumed with classic
/// exclusion paging and extended append-only.
///
/// Invariants:
///
/// * [`ListStore::Off`] (the default) is bit-identical to the store-less
///   pipeline — prompts per kind, cache hits, both clocks, relations;
/// * on a noise-free model, store-on execution never changes `R_M`, for
///   any lane count, batch factor or pipeline mode, and a warm run's
///   relations are bit-identical to its cold run's;
/// * a model-signature change (a different noise profile) invalidates a
///   stored universe on first read — the follow-up query re-lists from
///   scratch, exactly like a fresh session.
#[derive(Debug, Clone, Default)]
pub enum ListStore {
    /// No cross-query list state — the paper-faithful re-listing
    /// behaviour, bit-identical to the pre-store pipeline. The default.
    #[default]
    Off,
    /// Session-private store: queries of this session share listed
    /// universes with each other.
    On,
    /// An externally owned store, shared across sessions (hand the same
    /// `Arc` to several sessions — model-signature keying keeps universes
    /// from leaking across differently-configured models).
    Shared(Arc<KeyUniverseStore>),
}

impl ListStore {
    /// True when some store (private or shared) is enabled.
    pub fn is_on(&self) -> bool {
        !matches!(self, ListStore::Off)
    }
}

impl PartialEq for ListStore {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ListStore::Off, ListStore::Off) => true,
            (ListStore::On, ListStore::On) => true,
            (ListStore::Shared(a), ListStore::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// LIMIT-aware early termination of streaming retrieval.
///
/// The paper's protocol materialises a concept's full key universe before
/// the residual plan runs, so `SELECT … LIMIT 10` over a 100-key concept
/// pays the whole prompt bill and throws 90 rows away. With early stop
/// enabled, [`Pipeline::Streaming`] queries whose residual plan is a
/// plain window — `Limit` over row-wise projections of a single LLM scan
/// (see [`crate::compile::limit_hint`]) — stop retrieval as soon as the
/// window is covered:
///
/// * list paging halts once `n + offset` keys have **survived every
///   filter verdict** (in-flight keys count zero until their verdicts
///   land, so the stop is never speculative);
/// * keys listed past the point of coverage are pruned before entering
///   the filter/fetch dataflow — but only when enough *earlier* keys are
///   already confirmed, so the surfaced window is exactly the one the
///   full run would produce;
/// * keys whose verdicts are already in flight (including batched-answer
///   fallback re-asks) always complete — early stop cancels unissued
///   work, never in-flight work.
///
/// Invariants:
///
/// * [`EarlyStop::Off`] (the default) is bit-identical to the
///   exhaustive pipeline — prompts per kind, cache hits, both clocks,
///   relations;
/// * on a noise-free model, an early-stopped `LIMIT` query returns
///   exactly the full evaluation truncated to the window, and never
///   issues more prompts than the unlimited query;
/// * under [`Pipeline::Off`] (the drain trigger) the knob is inert:
///   barrier waves have no per-key release points to cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EarlyStop {
    /// Always materialise the full key universe — the paper-faithful
    /// behaviour, bit-identical to the pre-limit pipeline. The default.
    #[default]
    Off,
    /// Stop streaming retrieval once a plain `LIMIT` window is covered by
    /// confirmed survivors.
    Limit,
}

impl EarlyStop {
    /// True when LIMIT-aware early termination is enabled.
    pub fn is_on(self) -> bool {
        !matches!(self, EarlyStop::Off)
    }
}

/// Resilience knob: what the client does when a model request fails.
///
/// Invariants:
///
/// * [`Resilience::Off`] (the default) is bit-identical to the
///   pre-resilience engine — faults' degraded completions flow downstream
///   untouched, and on a fault-free model nothing changes at all;
/// * on a fault-free model, `On` changes nothing either: the retry loop
///   never fires, no backoff is billed, the breaker never opens;
/// * with a bounded fault schedule (consecutive failures per prompt ≤ the
///   retry budget, e.g. [`galois_llm::FaultProfile`]'s default cap under
///   the default [`RetryPolicy`]), `On` reproduces the fault-free run's
///   relations, prompt counts, cache hits and token totals bit-exactly —
///   only the virtual clock grows by the billed retry/backoff time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Resilience {
    /// No retries: a failed request's degraded completion goes straight
    /// into parsing, and graceful degradation (Nulls, dropped verdicts,
    /// resumable partial listings) is the only defence. The default.
    #[default]
    Off,
    /// Bounded retries with exponential backoff + jitter billed in
    /// virtual time, per-request timeouts, and a circuit breaker that
    /// fails fast after a streak of retry-exhausted requests.
    On(RetryPolicy),
}

impl Resilience {
    /// The retry policy, if resilience is on.
    pub fn policy(&self) -> Option<RetryPolicy> {
        match self {
            Resilience::Off => None,
            Resilience::On(policy) => Some(*policy),
        }
    }

    /// True when the retry loop is enabled.
    pub fn is_on(&self) -> bool {
        matches!(self, Resilience::On(_))
    }
}

/// Cross-query admission control for [`crate::multi::run_multi_query`].
///
/// [`Admission::Off`] (the default) leaves the single-query engine
/// untouched: each `execute` call still packs its own tasks onto the
/// session's private `K` lanes, and the multi-query runner falls back to
/// the default [`AdmissionPolicy`]. `Fair(policy)` makes the policy the
/// session's — the multi-query runner schedules every admitted query's
/// micro-batch tasks onto one shared [`galois_llm::LanePool`] under it,
/// and `EXPLAIN` gains an `admission:` line describing the queueing
/// behaviour a query will see.
///
/// Admission control never changes *what* a query answers — queries
/// always execute logically in workload order with identical prompts,
/// cache hits and result relations; the policy only governs when their
/// traced tasks run on the shared clock (see [`crate::multi`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Admission {
    /// No cross-query scheduling configured (the default).
    #[default]
    Off,
    /// Fair-share admission over a shared lane pool under this policy.
    Fair(AdmissionPolicy),
}

impl Admission {
    /// The configured policy (`None` when off).
    pub fn policy(&self) -> Option<AdmissionPolicy> {
        match self {
            Admission::Off => None,
            Admission::Fair(policy) => Some(*policy),
        }
    }

    /// True when a cross-query policy is configured.
    pub fn is_on(&self) -> bool {
        matches!(self, Admission::Fair(_))
    }
}

/// How the multi-query runner admits queries onto the shared lane pool.
///
/// The pool is always `sessions × K` lanes (every session brings its
/// configured parallelism, so capacity matches `sessions` independent
/// `K`-lane query streams), and sessions with ready tasks at the same
/// virtual instant are served least-served first (deficit-ms fair share,
/// ties to the lowest session index). The default policy has no in-flight
/// cap, which makes a single-session multi-query run bit-exact with
/// running the same queries back-to-back through the private streaming
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionPolicy {
    /// Maximum queries admitted (running) at once; `0` is unlimited.
    /// Arrivals beyond the cap wait in FIFO order, and their wait is
    /// tallied as [`QueryStats::queue_ms`].
    pub max_inflight: usize,
    /// Always `()`. It keeps `AdmissionPolicy { max_inflight,
    /// ..Default::default() }` free of clippy's `needless_update` lint, so
    /// callers written against the wider policy of earlier releases still
    /// build warning-free.
    #[doc(hidden)]
    pub _reserved: (),
}

/// Tuning knobs of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct GaloisOptions {
    /// Plan-compilation options (source routing, filter mode, pushdown).
    pub compile: CompileOptions,
    /// Cleaning policy for answer strings.
    pub cleaning: CleaningPolicy,
    /// Maximum "Return more results" iterations per key scan (the paper
    /// iterates "until we stop getting new results"; the cap is the
    /// user-specified threshold alternative).
    pub max_list_iterations: usize,
    /// Prompts per batch request.
    pub batch_size: usize,
    /// Concurrency knob: simulated request lanes for the virtual clock
    /// (wave packing, the streaming event clock and the speculative
    /// list-paging ramp). Requests still execute one after another on the
    /// calling thread. `Parallelism(1)` (the default) is the
    /// paper-faithful sequential configuration.
    pub parallelism: Parallelism,
    /// Plan-choice strategy. [`Planner::Heuristic`] (the default)
    /// reproduces the pre-planner pipeline bit for bit — same plans, same
    /// prompts, same tables; [`Planner::CostBased`] picks prompt pushdowns
    /// and step order by estimated prompt/latency cost (see
    /// [`crate::plan_choice`]).
    pub planner: Planner,
    /// Multi-key prompt batching factor for the filter and fetch phases.
    /// [`PromptBatch::Off`] (the default) keeps the one-task-per-prompt
    /// protocol bit for bit; `Keys(B)` emits `ceil(keys / B)` prompts per
    /// retrieval cell instead of `keys`, with a per-key fallback re-ask
    /// for unparseable batched answers.
    pub prompt_batch: PromptBatch,
    /// Trigger policy of the retrieval dataflow. [`Pipeline::Off`] (the
    /// default) is the drain trigger: barrier-separated waves, bit for bit
    /// the paper-faithful pipeline; [`Pipeline::Streaming`] streams keys
    /// through filter and fetch micro-batches under the event-driven
    /// virtual clock, issuing the same prompts without the phase barriers
    /// (see [`Pipeline`]).
    pub pipeline: Pipeline,
    /// Cross-query key-universe store for the LIST phase.
    /// [`ListStore::Off`] (the default) re-lists every query bit for bit;
    /// `On`/`Shared` serve warm concepts at zero prompt cost and page
    /// cold ones speculatively (see [`ListStore`]).
    pub list_store: ListStore,
    /// LIMIT-aware early termination for streaming retrieval.
    /// [`EarlyStop::Off`] (the default) materialises every key universe
    /// in full bit for bit; [`EarlyStop::Limit`] stops listing and prunes
    /// unissued filter/fetch work once a plain `LIMIT` window is covered
    /// by confirmed survivors (see [`EarlyStop`]).
    pub early_stop: EarlyStop,
    /// Fault handling for model requests. [`Resilience::Off`] (the
    /// default) hands degraded completions straight to the parsers bit
    /// for bit; [`Resilience::On`] retries failed requests with backoff
    /// billed in virtual time (see [`Resilience`]).
    pub resilience: Resilience,
    /// Cross-query admission control. [`Admission::Off`] (the default)
    /// changes nothing about single-query execution; [`Admission::Fair`]
    /// configures how [`crate::multi::run_multi_query`] shares the lane
    /// pool across concurrent sessions (see [`Admission`]).
    pub admission: Admission,
}

impl Default for GaloisOptions {
    fn default() -> Self {
        GaloisOptions {
            compile: CompileOptions::default(),
            cleaning: CleaningPolicy::default(),
            max_list_iterations: 32,
            batch_size: 20,
            parallelism: Parallelism::default(),
            planner: Planner::default(),
            prompt_batch: PromptBatch::default(),
            pipeline: Pipeline::default(),
            list_store: ListStore::default(),
            early_stop: EarlyStop::default(),
            resilience: Resilience::default(),
            admission: Admission::default(),
        }
    }
}

/// Prompt accounting for one query (paper §5 reports ≈110 batched prompts
/// and ≈20 s per query).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Key-listing prompts.
    pub list_prompts: usize,
    /// Filter prompts issued: one per key when [`PromptBatch::Off`]
    /// (cache-served prompts included, as they still ride in a batch
    /// request); fused multi-key prompts plus single-key fallbacks when
    /// batching — keys served from per-key sub-entries issue no prompt
    /// and count under `cache_hits` instead.
    pub filter_prompts: usize,
    /// Attribute-fetch prompts issued (same accounting as
    /// `filter_prompts`).
    pub fetch_prompts: usize,
    /// Prompts served from the client cache (raw prompt cache, in-flight
    /// dedup waiters, and — in batched mode — per-key sub-entries).
    pub cache_hits: usize,
    /// Total prompt tokens.
    pub prompt_tokens: usize,
    /// Total completion tokens.
    pub completion_tokens: usize,
    /// Virtual milliseconds spent in the model under the session's lane
    /// count (drain trigger: sequential waves sum and independent units
    /// pack onto the lanes; streaming: the event clock's makespan).
    pub virtual_ms: u64,
    /// Virtual milliseconds a single-lane run would have spent on the same
    /// batches (`serial_virtual_ms == virtual_ms` at `Parallelism(1)`).
    pub serial_virtual_ms: u64,
    /// Virtual milliseconds attributed to the key-listing phase. Phase
    /// fields measure lane-busy time per protocol phase: under the drain
    /// trigger each phase's lane-packed wave times, under the streaming
    /// trigger the scheduled durations of that phase's tasks. Within one
    /// step the drain trigger's phases sum to the step's virtual time;
    /// across steps (and when streaming) phases overlap on the lanes, so
    /// the three fields may sum to more than `virtual_ms` — they locate
    /// where the model time lives, not how it packs.
    pub list_virtual_ms: u64,
    /// Virtual milliseconds attributed to the filter phase (see
    /// `list_virtual_ms` for the accounting rule).
    pub filter_virtual_ms: u64,
    /// Virtual milliseconds attributed to the attribute-fetch phase (see
    /// `list_virtual_ms` for the accounting rule).
    pub fetch_virtual_ms: u64,
    /// Real wall-clock milliseconds spent executing the query.
    pub wall_ms: u64,
    /// Rows materialised from the LLM across all scans.
    pub rows_retrieved: usize,
    /// Re-asks issued by the resilient retry loop (prompt counters stay
    /// net of retries).
    pub retries: usize,
    /// Attempts that exceeded their deadline (timeout faults plus
    /// slower-than-policy successes).
    pub timeouts: usize,
    /// Attempts the model refused with a rate-limit signal.
    pub rate_limited: usize,
    /// Requests failed fast by the open circuit breaker.
    pub breaker_fastfails: usize,
    /// Retrieval cells (list pages, filter verdicts, fetched values) that
    /// still held a degraded answer after all defences: the verdict was
    /// dropped, the value annotated as `Null`, or the listing left
    /// resumable instead of exhausted.
    pub failed_cells: usize,
    /// Virtual milliseconds the query waited between arriving and being
    /// admitted by the cross-query scheduler (always zero outside
    /// [`crate::multi::run_multi_query`], and under an unlimited
    /// [`AdmissionPolicy::max_inflight`]).
    pub queue_ms: u64,
}

impl QueryStats {
    /// All prompts that reached the model.
    pub fn total_prompts(&self) -> usize {
        self.list_prompts + self.filter_prompts + self.fetch_prompts
    }

    /// Virtual seconds spent.
    pub fn virtual_seconds(&self) -> f64 {
        self.virtual_ms as f64 / 1000.0
    }

    /// Virtual speedup over a single-lane run (1.0 when sequential).
    pub fn virtual_speedup(&self) -> f64 {
        if self.virtual_ms == 0 {
            1.0
        } else {
            self.serial_virtual_ms as f64 / self.virtual_ms as f64
        }
    }

    /// Fraction of the `lanes × virtual_ms` budget that did useful work.
    pub fn lane_utilisation(&self, lanes: usize) -> f64 {
        let budget = (lanes.max(1) as u64 * self.virtual_ms) as f64;
        if budget == 0.0 {
            0.0
        } else {
            self.serial_virtual_ms as f64 / budget
        }
    }
}

/// Retrieval-protocol phase a batch of virtual time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Key listing.
    List,
    /// Per-key filter checks.
    Filter,
    /// Per-key attribute fetches.
    Fetch,
}

/// Accounting accumulated by the retrieval dataflow, folded into
/// [`QueryStats`] once it completes.
#[derive(Debug, Clone, Copy, Default)]
struct StepStats {
    list_prompts: usize,
    filter_prompts: usize,
    fetch_prompts: usize,
    cache_hits: usize,
    prompt_tokens: usize,
    completion_tokens: usize,
    /// Phase-attributed virtual time, indexed by [`Phase`] discriminant
    /// order (list, filter, fetch).
    phase_ms: [u64; 3],
    serial_ms: u64,
    retries: usize,
    timeouts: usize,
    rate_limited: usize,
    breaker_fastfails: usize,
    failed_cells: usize,
}

impl StepStats {
    /// Folds one request's counters in (time is phase-structured and
    /// charged separately; retry accounting is per model call, never per
    /// key).
    ///
    /// `keyed` requests — multi-key-protocol prompts (chunks, grid rungs
    /// and their single-key fallbacks) — skip the prompt-level cache hits:
    /// their keys are billed per signature by the sub-entry store at
    /// extraction time. Counting a raw-cache hit on such a prompt would
    /// bill the same keys twice — and, because raw-cache hits on chunk
    /// strings only arise when concurrent queries race into identical
    /// chunks, would make `cache_hits` depend on arrival order. On a
    /// single calling thread both forms agree exactly: a pending key is by
    /// construction not yet stored, so a re-ask chunk can never reproduce
    /// an earlier chunk's prompt string and such hits are zero.
    fn absorb(&mut self, outcome: &BatchOutcome, keyed: bool) {
        if !keyed {
            self.cache_hits += outcome.hits;
        }
        self.prompt_tokens += outcome.prompt_tokens;
        self.completion_tokens += outcome.completion_tokens;
        self.serial_ms += outcome.serial_ms;
        self.retries += outcome.retries;
        self.timeouts += outcome.timeouts;
        self.rate_limited += outcome.rate_limited;
        self.breaker_fastfails += outcome.breaker_fastfails;
    }

    /// Attributes virtual time to a phase (the query clock is the
    /// trigger's own makespan, not a sum of phases).
    fn charge_phase(&mut self, phase: Phase, ms: u64) {
        self.phase_ms[phase as usize] += ms;
    }
}

/// The result of one Galois query.
#[derive(Debug, Clone)]
pub struct GaloisResult {
    /// The output relation `R_M`.
    pub relation: Relation,
    /// Prompt accounting.
    pub stats: QueryStats,
}

/// A Galois session over one LLM and one schema catalog.
///
/// The [`Database`] provides the *schema* (the paper assumes "the schema
/// (but no instances) is provided together with the query") and any
/// `DB.`-qualified instance data for hybrid queries; LLM-sourced relations
/// are materialised through prompts at query time.
///
/// Sessions are `Sync`: one session may serve queries from many threads
/// concurrently, sharing the prompt cache.
pub struct Galois {
    client: LlmClient,
    db: Database,
    prompt_builder: PromptBuilder,
    options: GaloisOptions,
    /// Cost-model calibration, frozen at the session's first planner use
    /// so plan choice stays a deterministic function of the query — never
    /// of which concurrent query's prompts happened to land first in the
    /// shared client stats. [`Galois::recalibrate_planner`] re-freezes it.
    calibration: parking_lot::Mutex<Option<PlannerParams>>,
    /// The resolved key-universe store (`None` when [`ListStore::Off`]).
    list_store: Option<Arc<KeyUniverseStore>>,
    /// The model's behaviour fingerprint, keying store entries so a
    /// profile change invalidates stored universes cleanly.
    model_sig: String,
}

impl Galois {
    /// Creates a session with default options.
    pub fn new(model: Arc<dyn LanguageModel>, db: Database) -> Self {
        Self::with_options(model, db, GaloisOptions::default())
    }

    /// Creates a session with explicit options.
    pub fn with_options(
        model: Arc<dyn LanguageModel>,
        db: Database,
        options: GaloisOptions,
    ) -> Self {
        let prompt_builder = PromptBuilder::for_model(model.name());
        let model_sig = model.signature();
        let list_store = match &options.list_store {
            ListStore::Off => None,
            ListStore::On => Some(Arc::new(KeyUniverseStore::new())),
            ListStore::Shared(store) => Some(Arc::clone(store)),
        };
        let mut client = LlmClient::with_parallelism(model, options.parallelism);
        if let Some(policy) = options.resilience.policy() {
            client = client.with_resilience(policy);
        }
        Galois {
            client,
            db,
            prompt_builder,
            options,
            calibration: parking_lot::Mutex::new(None),
            list_store,
            model_sig,
        }
    }

    /// The key-universe store in use (`None` when [`ListStore::Off`]).
    pub fn key_universe_store(&self) -> Option<&Arc<KeyUniverseStore>> {
        self.list_store.as_ref()
    }

    /// The underlying client (stats, cache control).
    pub fn client(&self) -> &LlmClient {
        &self.client
    }

    /// The schema/DB catalog in use.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Options in use.
    pub fn options(&self) -> &GaloisOptions {
        &self.options
    }

    /// The cost-model calibration computed from the client's stats *right
    /// now*: batch size and lanes from the options, expected per-prompt
    /// latency and cache-hit rate from the observed stats. This is the
    /// live reading; plan choice uses the frozen snapshot of
    /// [`Galois::recalibrate_planner`].
    pub fn planner_params(&self) -> PlannerParams {
        PlannerParams::from_session(
            self.options.batch_size,
            self.options.parallelism,
            &self.client.stats(),
        )
        .with_batch_keys(self.options.prompt_batch.keys_per_prompt())
        .with_batch_attrs(self.options.prompt_batch.attrs_per_prompt())
        .with_pipeline(self.options.pipeline.is_streaming())
        .with_early_stop(self.options.early_stop == EarlyStop::Limit)
        .with_resilience(self.options.resilience.policy())
        .with_admission(self.options.admission.policy())
    }

    /// The calibration snapshot plan choice uses, frozen at the session's
    /// first planner invocation. Freezing keeps the chosen plan a
    /// deterministic function of the query even when many threads share
    /// the session (live stats would race); a fresh session freezes the
    /// documented cold-start defaults.
    fn calibration(&self) -> PlannerParams {
        self.calibration
            .lock()
            .get_or_insert_with(|| self.planner_params())
            .clone()
    }

    /// Re-freezes the planner calibration from the client's current stats
    /// — opt-in adaptivity for long-lived sessions (call between
    /// workloads, not concurrently with queries whose plans should match).
    pub fn recalibrate_planner(&self) {
        *self.calibration.lock() = Some(self.planner_params());
    }

    /// The parameters one planning pass uses: the frozen calibration,
    /// overlaid with the key-universe store's *live* warm-concept
    /// cardinalities. The overlay is intentionally live where the
    /// calibration is frozen — which concepts are warm is exact knowledge
    /// (stored key counts), not a drifting rate estimate, and the whole
    /// point of planner-visible list caching is that a concept listed by
    /// an earlier query plans as free for the next one. With the store
    /// off this is exactly the frozen calibration.
    fn planning_params(&self) -> PlannerParams {
        let params = self.calibration();
        match &self.list_store {
            Some(store) => params.with_warm_lists(store.warm_map(&self.model_sig)),
            None => params,
        }
    }

    /// Parses one statement, mapping the SQL error into the session's.
    fn parse_statement(&self, sql: &str) -> Result<galois_sql::Statement> {
        galois_sql::parse(sql)
            .map_err(|e| GaloisError::from(galois_relational::EngineError::from(e)))
    }

    /// Plans an already-parsed SELECT through the session's [`Planner`]
    /// with one fixed calibration snapshot.
    fn plan_statement(
        &self,
        select: &galois_sql::SelectStatement,
        params: &PlannerParams,
    ) -> Result<PlannedQuery> {
        let plan = self.db.plan_statement(select).map_err(GaloisError::from)?;
        plan_query(
            &plan,
            self.db.catalog(),
            &self.options.compile,
            self.options.planner,
            params,
        )
    }

    /// Plans a query through the session's [`Planner`] without executing
    /// it, returning the compiled retrieval program plus its cost report.
    pub fn plan(&self, sql: &str) -> Result<PlannedQuery> {
        let stmt = self.parse_statement(sql)?;
        self.plan_statement(stmt.select(), &self.planning_params())
    }

    /// Renders the chosen plan with per-operator prompt/latency cost
    /// estimates (the text behind `EXPLAIN <query>`; Figure 3 shape).
    ///
    /// Accepts either a plain query or an `EXPLAIN`-prefixed one.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = self.parse_statement(sql)?;
        let params = self.planning_params();
        let planned = self.plan_statement(stmt.select(), &params)?;
        Ok(planned.render(self.db.catalog(), &params))
    }

    /// Executes a SQL query against the LLM (and DB for hybrid sources).
    ///
    /// An `EXPLAIN <query>` statement is not executed: it returns the
    /// chosen plan and its cost report as a one-column `QUERY PLAN`
    /// relation with zero prompt accounting.
    pub fn execute(&self, sql: &str) -> Result<GaloisResult> {
        self.execute_sql(sql).map(|(result, _)| result)
    }

    /// Executes one query, returning the result plus the run's task trace
    /// for cross-query replay. Mirrors [`Galois::execute`] exactly (same
    /// planner paths, same calibration freeze); `EXPLAIN` statements
    /// return their plan relation with an empty trace. Requires
    /// [`Pipeline::Streaming`]: the drain trigger keeps no event clock, so
    /// it has no task trace to replay.
    pub(crate) fn execute_traced(&self, sql: &str) -> Result<(GaloisResult, Vec<TracedTask>)> {
        if !self.options.pipeline.is_streaming() {
            return Err(GaloisError::Unsupported(
                "cross-query scheduling requires Pipeline::Streaming (the drain trigger \
                 has no task trace to replay)"
                    .to_string(),
            ));
        }
        self.execute_sql(sql)
    }

    fn execute_sql(&self, sql: &str) -> Result<(GaloisResult, Vec<TracedTask>)> {
        let stmt = self.parse_statement(sql)?;
        if stmt.is_explain() {
            let params = self.planning_params();
            let planned = self.plan_statement(stmt.select(), &params)?;
            let text = planned.render(self.db.catalog(), &params);
            let result = GaloisResult {
                relation: galois_relational::cost::explain_relation(&text),
                stats: QueryStats::default(),
            };
            return Ok((result, Vec::new()));
        }
        let compiled = match self.options.planner {
            // Fast path, and the bit-exactness invariant made literal: the
            // default mode runs exactly the pre-planner pipeline, no cost
            // estimation on the hot path.
            Planner::Heuristic => {
                let plan = self
                    .db
                    .plan_statement(stmt.select())
                    .map_err(GaloisError::from)?;
                crate::compile::compile(&plan, self.db.catalog(), &self.options.compile)?
            }
            Planner::CostBased => {
                self.plan_statement(stmt.select(), &self.planning_params())?
                    .compiled
            }
        };
        self.execute_compiled_traced(&compiled)
    }

    /// Executes an already-compiled query: every LLM scan step runs
    /// through the retrieval dataflow under the session's [`Pipeline`]
    /// trigger, then the residual plan runs over the materialised steps.
    pub fn execute_compiled(&self, compiled: &CompiledQuery) -> Result<GaloisResult> {
        self.execute_compiled_traced(compiled)
            .map(|(result, _)| result)
    }

    /// [`Galois::execute_compiled`] plus the run's task trace — every
    /// scheduled task's `(release, duration, completion)` on the private
    /// event clock, in fire order (empty under the drain trigger). The
    /// trace is what the cross-query replay ([`crate::multi`]) re-packs
    /// onto a shared lane pool.
    fn execute_compiled_traced(
        &self,
        compiled: &CompiledQuery,
    ) -> Result<(GaloisResult, Vec<TracedTask>)> {
        let started = Instant::now();
        let mut sim = StreamSim::new(self, compiled);
        sim.run();

        let mut stats = QueryStats::default();
        fold_step_stats(&mut stats, &sim.acc);
        stats.virtual_ms = sim.makespan();
        let trace = sim.trace;
        let mut catalog = self.db.catalog().clone();
        for run in sim.steps {
            let rows: Vec<Vec<Value>> = run
                .slots
                .into_iter()
                .zip(run.keys.iter())
                .filter(|(slot, _)| slot.alive)
                .map(|(slot, key)| {
                    if slot.row.is_empty() {
                        key_row(run.step, key, &self.options.cleaning)
                    } else {
                        slot.row
                    }
                })
                .collect();
            let table = materialise_step(run.step, rows)?;
            stats.rows_retrieved += table.len();
            catalog
                .add_table(table)
                .map_err(|e| GaloisError::Compile(format!("temp table: {e}")))?;
        }

        let relation =
            galois_relational::execute(&compiled.plan, &catalog).map_err(GaloisError::from)?;
        stats.wall_ms = started.elapsed().as_millis() as u64;
        Ok((GaloisResult { relation, stats }, trace))
    }

    /// Client-level stats accumulated over the session.
    pub fn session_stats(&self) -> ClientStats {
        self.client.stats()
    }

    // -----------------------------------------------------------------
    // Retrieval (workflow steps 2–3)
    // -----------------------------------------------------------------

    /// Signature prefix shared by every `(cell, key)` sub-entry of one
    /// retrieval cell in the client's extraction cache. `\u{1f}` (ASCII
    /// unit separator) keeps field boundaries unambiguous for keys
    /// containing `:` or commas.
    ///
    /// The prefix is everything but the key, so the per-key loops build
    /// each signature with a single append onto a reused buffer
    /// ([`sig_for_key`]) instead of re-formatting the whole
    /// table/attribute/condition preamble for every key — the
    /// `batched_cells` criterion bench measures that hot path.
    fn cell_sig_prefix(&self, step: &LlmScanStep, cell: &BatchCell) -> String {
        match cell {
            BatchCell::Filter(c) => format!(
                "filter\u{1f}{}\u{1f}{}\u{1f}{}\u{1f}{}\u{1f}",
                step.table,
                step.key_attr,
                c.attribute,
                c.render_phrase(),
            ),
            BatchCell::Fetch(attribute) => format!(
                "fetch\u{1f}{}\u{1f}{}\u{1f}{attribute}\u{1f}",
                step.table, step.key_attr,
            ),
        }
    }

    /// The multi-key intent for one chunk of a cell's keys.
    fn cell_batched_intent(
        &self,
        step: &LlmScanStep,
        cell: &BatchCell,
        chunk_keys: Vec<String>,
    ) -> TaskIntent {
        match cell {
            BatchCell::Filter(c) => TaskIntent::FilterKeysBatch {
                relation: step.table.clone(),
                key_attr: step.key_attr.clone(),
                keys: chunk_keys,
                condition: (*c).clone(),
            },
            BatchCell::Fetch(attribute) => TaskIntent::FetchAttrBatch {
                relation: step.table.clone(),
                key_attr: step.key_attr.clone(),
                keys: chunk_keys,
                attribute: (*attribute).to_string(),
            },
        }
    }
}

/// One retrieval cell of the batched protocol: a filter condition, or a
/// fetched attribute.
enum BatchCell<'a> {
    /// Boolean check of one condition over the cell's keys.
    Filter(&'a Condition),
    /// Fetch of one attribute over the cell's keys.
    Fetch(&'a str),
}

/// Builds one `(cell, key)` sub-entry signature into `buf` from the
/// cell's precomputed prefix — the per-key half of the signature is a
/// single append onto a reused allocation.
fn sig_for_key<'b>(buf: &'b mut String, prefix: &str, key: &str) -> &'b str {
    buf.clear();
    buf.push_str(prefix);
    buf.push_str(key);
    buf
}

/// Folds the dataflow's accounting into the query stats — everything
/// except the virtual clock, which each trigger computes its own way
/// ([`StreamSim::makespan`]).
fn fold_step_stats(stats: &mut QueryStats, step: &StepStats) {
    stats.list_prompts += step.list_prompts;
    stats.filter_prompts += step.filter_prompts;
    stats.fetch_prompts += step.fetch_prompts;
    stats.cache_hits += step.cache_hits;
    stats.prompt_tokens += step.prompt_tokens;
    stats.completion_tokens += step.completion_tokens;
    stats.serial_virtual_ms += step.serial_ms;
    stats.list_virtual_ms += step.phase_ms[Phase::List as usize];
    stats.filter_virtual_ms += step.phase_ms[Phase::Filter as usize];
    stats.fetch_virtual_ms += step.phase_ms[Phase::Fetch as usize];
    stats.retries += step.retries;
    stats.timeouts += step.timeouts;
    stats.rate_limited += step.rate_limited;
    stats.breaker_fastfails += step.breaker_fastfails;
    stats.failed_cells += step.failed_cells;
}

/// A key's materialising row before any fetched value lands: the key
/// cleaned to the key column's type, every other column `Null`.
fn key_row(step: &LlmScanStep, key: &str, cleaning: &CleaningPolicy) -> Vec<Value> {
    let mut row = vec![Value::Null; step.columns.len()];
    let key_type = step.columns[step.key_index].data_type;
    row[step.key_index] = clean_to_type(key, key_type, cleaning).unwrap_or(Value::Null);
    row
}

/// Materialises retrieved rows as a step's temporary table: same column
/// order as the stored schema, everything but the key nullable (unfetched
/// attributes are NULL). Rows whose key failed to clean are unusable and
/// dropped; duplicate keys (hallucinated repeats) are dropped silently —
/// the key-identifies-tuple assumption is enforced here.
fn materialise_step(step: &LlmScanStep, rows: Vec<Vec<Value>>) -> Result<Table> {
    let columns: Vec<Column> = step
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            if i == step.key_index {
                Column::new(c.name.clone(), c.data_type)
            } else {
                Column::nullable(c.name.clone(), c.data_type)
            }
        })
        .collect();
    let schema = TableSchema::new(columns, &step.key_attr)
        .map_err(|e| GaloisError::Compile(format!("temp schema: {e}")))?;
    let mut table = Table::new(step.temp_name.clone(), schema);
    for row in rows {
        if row[step.key_index].is_null() {
            continue;
        }
        let _ = table.insert(row);
    }
    Ok(table)
}

// ---------------------------------------------------------------------
// The retrieval dataflow
// ---------------------------------------------------------------------

/// One scheduled task of a streaming run, as captured for cross-query
/// replay: when the private clock released it, how long it ran, and when
/// it completed. The completion times encode the query's internal
/// dataflow — a task whose release equals an earlier task's completion
/// was (conservatively) triggered by it, which is the dependency rule the
/// replay preserves (see [`crate::multi`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TracedTask {
    pub(crate) release: u64,
    pub(crate) duration: u64,
    pub(crate) completion: u64,
}

/// One accumulator of the dataflow. Stages `0..n_filters` of a step
/// check its filter conditions in conjunction order (stage `i` checks
/// `step.filter_conditions[i]`); every later stage fetches one group of
/// `step.fetch` columns — one column, or up to `A` under
/// [`PromptBatch::Grid`]. Only the prompt shape differs between modes:
/// one key, `B` keys, or `B` keys × the group's attributes.
#[derive(Debug)]
struct StageState {
    /// The columns (indices into `step.columns`) a fetch stage lands, in
    /// prompt order. Empty at a filter stage.
    cols: Vec<usize>,
    /// The attributes a fetch stage's grid prompt asks for, in prompt
    /// order: the names of `cols`, then the group's speculative pad
    /// columns ([`grid_pad_columns`]), which are stored but never landed.
    attrs: Vec<String>,
    /// The single-key prompt template of each of `cols`: the per-key hot
    /// loop splices the key into a prompt rendered once per column.
    templates: Vec<FetchTemplate>,
    /// Sub-entry signature prefixes of the stage's cells: the filter
    /// condition, or one per entry of `attrs` (empty when the multi-key
    /// protocol is off — plain single-key prompts bypass the sub-entry
    /// store).
    sig_prefixes: Vec<String>,
    /// Key slots accumulated towards the next fire: under the streaming
    /// trigger always fewer than the fuse factor (full micro-batches fire
    /// immediately); under the drain trigger every key delivered so far,
    /// cut into chunks once upstream has drained.
    pending: Vec<usize>,
    /// Micro-batches and fallback re-asks in flight.
    inflight: usize,
    /// `(slot, attr ordinal)` cells of a multi-column group extracted
    /// from the sub-entry store on delivery: the key still joins a grid
    /// chunk for its missing cells, whose parse must neither re-land nor
    /// re-ask these.
    answered: std::collections::HashSet<(usize, usize)>,
    /// True once the producing stage (list page stream, or the previous
    /// filter) can no longer deliver keys.
    upstream_drained: bool,
    /// True once this stage has seen its last key and answered it.
    drained: bool,
}

/// One discovered key of a step (its text is `StepRun::keys[slot]`):
/// whether it has survived every filter verdict so far, and its
/// materialising row (empty until the first fetched value lands — keys
/// that die in a filter never build one; see [`key_row`]).
#[derive(Debug)]
struct KeySlot {
    alive: bool,
    row: Vec<Value>,
}

/// Speculative list-paging state of one cold-concept step (store on):
/// offset pages in flight, their buffered answers, and the widening wave
/// ramp.
///
/// Page 1 is the classic first list prompt — identical string, so it
/// shares the prompt cache with store-off runs. Its raw value count is
/// the page-size estimate `P`; later pages are requested as
/// [`TaskIntent::ListKeysPage`] at offsets `P, 2P, …` in waves whose width
/// doubles up to the lane count (the probe wave is one page wide — the
/// estimate may be the whole universe). Under either trigger a wave
/// applies, in offset order, only once it has fully landed; the first
/// exhausted page, short page or page with nothing new ends the universe
/// (pages fired past it are counted waste — speculation buys latency with
/// at most a ramp-width of extra prompts, never accuracy). Hitting the
/// iteration cap leaves a partial frontier.
#[derive(Debug)]
struct SpecState {
    /// Raw value count of page 1 — the offset stride.
    page_est: usize,
    /// First offset of the next wave.
    next_offset: usize,
    /// Pages in the next wave (1, then doubling up to the lane count).
    width: usize,
    /// Pages of the current wave still in flight.
    inflight: usize,
    /// Landed pages of the current wave, keyed by offset so they apply
    /// in universe order regardless of completion order.
    buffered: std::collections::BTreeMap<usize, String>,
}

impl SpecState {
    fn new() -> Self {
        SpecState {
            page_est: 0,
            next_offset: 0,
            width: 1,
            inflight: 0,
            buffered: std::collections::BTreeMap::new(),
        }
    }
}

/// Per-step state of the retrieval dataflow.
struct StepRun<'a> {
    step: &'a LlmScanStep,
    /// Discovered keys in discovery order — slot `i`'s key is `keys[i]`.
    /// Doubles as the exclusion list rendered into each list iteration's
    /// prompt (behind an `Arc`, so rendering an iteration shares rather
    /// than re-clones every seen key).
    keys: Arc<Vec<String>>,
    /// Case-folded dedup of discovered keys.
    seen: std::collections::HashSet<String>,
    /// List iterations fired so far.
    iterations: usize,
    /// Key slots in discovery order — rows materialise in this order
    /// under either trigger.
    slots: Vec<KeySlot>,
    /// Filter stages (in conjunction order) followed by fetch stages.
    stages: Vec<StageState>,
    n_filters: usize,
    /// Key-universe store concept to publish at list finish (`None` when
    /// the store is off, or when the universe was served warm and needs
    /// no re-publish).
    concept: Option<String>,
    /// Whether the key stream ended by exhaustion (terminal page) rather
    /// than the iteration cap — the stored universe's `exhausted` flag.
    list_exhausted: bool,
    /// Guards the one-shot list-finish bookkeeping (publish).
    list_done: bool,
    /// Speculative paging state (cold concept with the store on).
    spec: Option<SpecState>,
    /// The step's clock under the drain trigger: the sum of its barrier
    /// waves' lane-packed makespans.
    wave_ms: u64,
}

impl StepRun<'_> {
    /// The borrowed form of one cell of stage `g`: its filter condition,
    /// or the fetched attribute of ordinal `attr`.
    fn cell(&self, g: usize, attr: usize) -> BatchCell<'_> {
        if g < self.n_filters {
            BatchCell::Filter(&self.step.filter_conditions[g])
        } else {
            BatchCell::Fetch(&self.stages[g].attrs[attr])
        }
    }
}

/// What a fired task is: one list iteration, one speculative offset page,
/// or one rung of a stage's fallback ladder. A key's cells are first
/// asked as a grid chunk (fetch stages under [`PromptBatch::Grid`]) or a
/// multi-key chunk of one cell; a cell whose answer line is dropped or
/// mangled is re-asked one rung down, so batching may cost prompts but
/// never accuracy. With batching off every filter and fetch prompt is a
/// `Single`.
#[derive(Debug)]
enum FireTarget {
    List,
    ListPage {
        offset: usize,
    },
    /// `B` keys × every attribute of a fetch stage's group.
    Grid {
        stage: usize,
        members: Vec<usize>,
    },
    /// `B` keys × one cell (attr ordinal `attr`; 0 at a filter stage).
    Chunk {
        stage: usize,
        attr: usize,
        members: Vec<usize>,
    },
    /// One key × one cell.
    Single {
        stage: usize,
        attr: usize,
        member: usize,
    },
}

/// A task fired during event processing, executed and scheduled when the
/// event's processing completes.
struct Fire {
    step: usize,
    target: FireTarget,
}

/// A task-completion event of the simulation, ordered by `(time, seq)` so
/// simultaneous completions resolve in creation order — the simulation is
/// a pure function of the work, never of thread timing.
struct StreamEvent {
    time: u64,
    seq: u64,
    step: usize,
    target: FireTarget,
    completion: galois_llm::Completion,
}

impl PartialEq for StreamEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for StreamEvent {}
impl PartialOrd for StreamEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for StreamEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The retrieval dataflow of one query: per-step stage state (list
/// stream → filter conditions → fetch cells) plus the [`Pipeline`]
/// trigger deciding when accumulated work fires.
///
/// * The **streaming** trigger is an event-driven simulation: a min-heap
///   of completion events and an [`galois_llm::EventClock`] assigning each
///   fired prompt to a virtual lane ([`StreamSim::run_streaming`]).
/// * The **drain** trigger runs barrier waves: a stage fires only once
///   its upstream has fully drained, and each wave's time is its
///   lane-packed makespan ([`StreamSim::run_drained`]).
///
/// Prompts are *executed* (against the real client, on the calling
/// thread, in fire order) at fire time, because a task's virtual
/// duration — cache hit or model latency — is only known once it has run;
/// its parsed effects are then applied when it completes, which is what
/// releases downstream work.
struct StreamSim<'a> {
    session: &'a Galois,
    clock: galois_llm::EventClock,
    events: std::collections::BinaryHeap<std::cmp::Reverse<StreamEvent>>,
    next_seq: u64,
    steps: Vec<StepRun<'a>>,
    acc: StepStats,
    /// Multi-key protocol on (mirrors `prompt_batch.is_on()`).
    batched: bool,
    /// Keys per chunk (`B`; 1 when batching is off).
    fuse: usize,
    /// The drain trigger ([`Pipeline::Off`]) rather than streaming.
    drain: bool,
    /// Prompts per client request under the drain trigger
    /// ([`GaloisOptions::batch_size`]).
    batch: usize,
    /// LIMIT window size (`n + offset`) when early stop applies: the
    /// session enables [`EarlyStop::Limit`] under the streaming trigger
    /// *and* the residual plan is a plain window over this (single) step's
    /// scan
    /// ([`crate::compile::limit_hint`]). `None` runs to exhaustion.
    limit: Option<usize>,
    /// Per-slot "survived every filter verdict" flags of the sole step
    /// (only maintained when `limit` is set).
    confirmed: Vec<bool>,
    /// Count of `true` flags in `confirmed`.
    confirmed_total: usize,
    /// Every scheduled task's `(release, duration, completion)` in fire
    /// order — the replayable schedule cross-query mode re-packs onto a
    /// shared lane pool.
    trace: Vec<TracedTask>,
    /// Scratch buffer every sub-entry signature is built in
    /// ([`sig_for_key`]).
    sig: String,
}

impl<'a> StreamSim<'a> {
    fn new(session: &'a Galois, compiled: &'a CompiledQuery) -> Self {
        let batched = session.options.prompt_batch.is_on();
        let attr_fuse = session.options.prompt_batch.attrs_per_prompt();
        let stage = |cols, attrs, templates, sig_prefixes| StageState {
            cols,
            attrs,
            templates,
            sig_prefixes,
            pending: Vec::new(),
            inflight: 0,
            answered: std::collections::HashSet::new(),
            upstream_drained: false,
            drained: false,
        };
        let steps = compiled
            .steps
            .iter()
            .map(|step| {
                let mut stages: Vec<StageState> = Vec::new();
                for c in &step.filter_conditions {
                    let sig_prefixes = if batched {
                        vec![session.cell_sig_prefix(step, &BatchCell::Filter(c))]
                    } else {
                        Vec::new()
                    };
                    stages.push(stage(Vec::new(), Vec::new(), Vec::new(), sig_prefixes));
                }
                let n_cols = step.fetch.len();
                for start in (0..n_cols).step_by(attr_fuse) {
                    let len = attr_fuse.min(n_cols - start);
                    let cols = step.fetch[start..start + len].to_vec();
                    let attrs: Vec<String> = cols
                        .iter()
                        .chain(grid_pad_columns(step, start, len, attr_fuse).iter())
                        .map(|&c| step.columns[c].name.clone())
                        .collect();
                    let templates = attrs[..len]
                        .iter()
                        .map(|a| {
                            session
                                .prompt_builder
                                .fetch_template(&step.table, &step.key_attr, a)
                        })
                        .collect();
                    let sig_prefixes = if batched {
                        attrs
                            .iter()
                            .map(|a| session.cell_sig_prefix(step, &BatchCell::Fetch(a)))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    stages.push(stage(cols, attrs, templates, sig_prefixes));
                }
                StepRun {
                    step,
                    keys: Arc::new(Vec::new()),
                    seen: std::collections::HashSet::new(),
                    iterations: 0,
                    slots: Vec::new(),
                    stages,
                    n_filters: step.filter_conditions.len(),
                    concept: None,
                    list_exhausted: false,
                    list_done: false,
                    spec: None,
                    wave_ms: 0,
                }
            })
            .collect();
        let drain = !session.options.pipeline.is_streaming();
        // Waves have no per-key release points to cancel, so early stop
        // is inert under the drain trigger.
        let limit = if session.options.early_stop.is_on() && !drain {
            crate::compile::limit_hint(compiled)
        } else {
            None
        };
        StreamSim {
            session,
            clock: galois_llm::EventClock::new(session.options.parallelism.get()),
            events: std::collections::BinaryHeap::new(),
            next_seq: 0,
            steps,
            acc: StepStats::default(),
            batched,
            fuse: session.options.prompt_batch.keys_per_prompt(),
            drain,
            batch: session.options.batch_size.max(1),
            limit,
            confirmed: Vec::new(),
            confirmed_total: 0,
            trace: Vec::new(),
            sig: String::new(),
        }
    }

    // --- LIMIT-aware early termination -------------------------------

    /// True once the LIMIT window is covered by confirmed survivors —
    /// the signal that stops list paging. In-flight filter verdicts
    /// contribute nothing until they land, so coverage is never
    /// speculative.
    fn limit_covered(&self) -> bool {
        self.limit.is_some_and(|n| self.confirmed_total >= n)
    }

    /// Confirmed survivors among slots strictly before `slot` (discovery
    /// order). Rows materialise in slot order, so once `limit` earlier
    /// slots are confirmed, `slot` can never surface inside the window.
    fn prefix_confirmed(&self, slot: usize) -> usize {
        self.confirmed.iter().take(slot).filter(|&&c| c).count()
    }

    /// Marks one slot as having survived every filter verdict.
    fn confirm_survivor(&mut self, slot: usize) {
        if self.confirmed.len() <= slot {
            self.confirmed.resize(slot + 1, false);
        }
        if !self.confirmed[slot] {
            self.confirmed[slot] = true;
            self.confirmed_total += 1;
        }
    }

    /// Runs the dataflow to quiescence — every step's key stream listed,
    /// filtered, fetched and drained — under the session's trigger.
    fn run(&mut self) {
        if self.drain {
            self.run_drained();
        } else {
            self.run_streaming();
        }
    }

    /// The query's virtual time: the event clock's makespan when
    /// streaming; under the drain trigger, the step clocks packed onto the
    /// lanes (steps are independent, like one wave's units — their sum at
    /// `Parallelism(1)`).
    fn makespan(&self) -> u64 {
        if self.drain {
            let lanes = self.session.options.parallelism.get();
            lane_schedule(self.steps.iter().map(|run| run.wave_ms), lanes)
        } else {
            self.clock.makespan()
        }
    }

    /// The drain trigger ([`Pipeline::Off`]): the paper's barrier-separated
    /// retrieval waves. Steps run one after another, so a step's published
    /// key universe and stored sub-entries reach the next step exactly as
    /// in a sequential run (their clocks still pack onto the lanes, see
    /// [`StreamSim::makespan`]). A stage holds every
    /// key delivered to it until its upstream stage has fully drained,
    /// then cuts them into chunks at once; each round of fires is one
    /// barrier wave ([`StreamSim::execute_wave`]), and processing the
    /// landed wave — verdicts, values, fallback re-asks, the next list
    /// page — yields the next round.
    fn run_drained(&mut self) {
        for s in 0..self.steps.len() {
            let mut fires = Vec::new();
            self.start_step(s, &mut fires);
            while !fires.is_empty() {
                let mut next = Vec::new();
                for (target, text) in self.execute_wave(s, fires) {
                    self.process(s, target, &text, &mut next);
                }
                fires = self.merge_attr_chunks(s, next);
            }
        }
    }

    /// The streaming trigger ([`Pipeline::Streaming`]): an event-driven
    /// simulation in which a micro-batch fires when it reaches `B` keys,
    /// when a lane goes idle ([`StreamSim::flush_idle`]), or at upstream
    /// drain.
    ///
    /// Each iteration resolves one virtual instant completely — every
    /// event carrying that timestamp is processed (in creation order)
    /// before anything fires, so simultaneous chunk completions pool
    /// their deliveries into the accumulators instead of fragmenting
    /// them. Only then does the idle-lane flush run: partial micro-batches
    /// held while lanes sit idle are pure latency, so idle capacity at the
    /// resolved instant releases them early.
    fn run_streaming(&mut self) {
        let mut fires = Vec::new();
        for s in 0..self.steps.len() {
            self.start_step(s, &mut fires);
        }
        self.execute_fires(0, fires);
        while let Some(std::cmp::Reverse(head)) = self.events.peek() {
            let t = head.time;
            let mut fires = Vec::new();
            loop {
                let event = match self.events.peek_mut() {
                    Some(head) if head.0.time == t => {
                        std::collections::binary_heap::PeekMut::pop(head).0
                    }
                    _ => break,
                };
                self.process(event.step, event.target, &event.completion.text, &mut fires);
            }
            self.execute_fires(t, fires);
            self.flush_idle(t);
        }
    }

    /// The "lane goes idle" micro-batch trigger: once an instant has fully
    /// resolved, any lane still free means held-back partial batches are
    /// serialising the tail for nothing — flush every accumulator (in
    /// step/stage order, deterministically). When a stage's whole input
    /// arrives at one instant (a single-page key stream feeding a
    /// pushed-down scan) this changes neither the prompt count nor the
    /// chunk membership; when input keeps arriving afterwards — later
    /// list pages, or survivors of a filter stage whose chunks complete
    /// at different instants — the flush may split a chunk that later
    /// input would have filled, trading extra partial-chunk prompts for
    /// latency. Never accuracy: every key still gets its answer.
    fn flush_idle(&mut self, t: u64) {
        if self.clock.idle_lanes(t) == 0 {
            return;
        }
        let mut fires = Vec::new();
        for s in 0..self.steps.len() {
            for g in 0..self.steps[s].stages.len() {
                if !self.steps[s].stages[g].pending.is_empty() {
                    let members = std::mem::take(&mut self.steps[s].stages[g].pending);
                    self.fire_chunk(s, g, members, &mut fires);
                }
            }
        }
        self.execute_fires(t, fires);
    }

    /// Starts one step's key stream: classic list paging when the store is
    /// off; otherwise a warm universe is injected at zero prompt cost (its
    /// stored iterations billed as cache hits — the bill a re-listing run
    /// would have paid in prompt-cache hits), a partial frontier is
    /// injected and classic paging resumes after it, and a cold concept
    /// lists speculatively.
    fn start_step(&mut self, s: usize, fires: &mut Vec<Fire>) {
        let cap = self.session.options.max_list_iterations;
        if cap == 0 {
            self.finish_list(s, fires);
            return;
        }
        let looked_up = self.session.list_store.as_ref().map(|store| {
            let concept = self.steps[s].step.concept_signature();
            let entry = store.read(&concept, &self.session.model_sig);
            (concept, entry)
        });
        let Some((concept, entry)) = looked_up else {
            self.fire_list(s, fires);
            return;
        };
        match entry {
            Some(stored) if stored.exhausted || stored.iterations >= cap => {
                self.acc.cache_hits += stored.iterations;
                self.absorb_stream_page(s, stored.keys, fires);
                self.steps[s].iterations = stored.iterations;
                self.steps[s].list_exhausted = stored.exhausted;
                // Warm service re-publishes nothing: `concept` stays
                // `None`, so `finish_list` skips the store.
                self.finish_list(s, fires);
            }
            Some(stored) => {
                self.acc.cache_hits += stored.iterations;
                self.absorb_stream_page(s, stored.keys, fires);
                self.steps[s].iterations = stored.iterations;
                self.steps[s].concept = Some(concept);
                if self.limit_covered() {
                    self.finish_list(s, fires);
                } else {
                    self.fire_list(s, fires);
                }
            }
            None => {
                self.steps[s].concept = Some(concept);
                self.steps[s].spec = Some(SpecState::new());
                self.fire_list(s, fires);
            }
        }
    }

    // --- firing ------------------------------------------------------

    fn fire_list(&mut self, s: usize, fires: &mut Vec<Fire>) {
        self.steps[s].iterations += 1;
        fires.push(Fire {
            step: s,
            target: FireTarget::List,
        });
    }

    /// Fires the next speculative page wave: offsets stride by the page
    /// estimate, the width ramps 1 → 2 → … up to the lane count (clamped
    /// by the remaining iteration budget). The probe wave is one page
    /// wide — the estimate may already be the whole universe.
    fn fire_spec_wave(&mut self, s: usize, fires: &mut Vec<Fire>) {
        let cap = self.session.options.max_list_iterations;
        let lanes = self.session.options.parallelism.get();
        let iterations = self.steps[s].iterations;
        let run = &mut self.steps[s];
        let spec = run.spec.as_mut().expect("spec wave outside spec mode");
        let width_now = spec.width.min(cap.saturating_sub(iterations)).max(1);
        for i in 0..width_now {
            fires.push(Fire {
                step: s,
                target: FireTarget::ListPage {
                    offset: spec.next_offset + i * spec.page_est,
                },
            });
        }
        spec.inflight += width_now;
        spec.next_offset += width_now * spec.page_est;
        spec.width = (spec.width * 2).min(lanes.max(1));
        run.iterations += width_now;
    }

    /// Fires one accumulated chunk on its stage's top rung.
    fn fire_chunk(&mut self, s: usize, stage: usize, members: Vec<usize>, fires: &mut Vec<Fire>) {
        let target = if !self.batched {
            debug_assert_eq!(members.len(), 1, "unbatched micro-batches hold one key");
            FireTarget::Single {
                stage,
                attr: 0,
                member: members[0],
            }
        } else if self.session.options.prompt_batch.is_grid() && stage >= self.steps[s].n_filters {
            FireTarget::Grid { stage, members }
        } else {
            FireTarget::Chunk {
                stage,
                attr: 0,
                members,
            }
        };
        self.fire_at(s, stage, target, fires);
    }

    /// Fires a task of one stage, counted in flight until it lands.
    fn fire_at(&mut self, s: usize, stage: usize, target: FireTarget, fires: &mut Vec<Fire>) {
        self.steps[s].stages[stage].inflight += 1;
        fires.push(Fire { step: s, target });
    }

    /// Renders the prompt of one fired task (list prompts read the
    /// exclusion list at render time, which is exactly the state the
    /// firing event left behind).
    fn render_fire(&self, fire: &Fire) -> String {
        let run = &self.steps[fire.step];
        let builder = &self.session.prompt_builder;
        let keys_of = |members: &[usize]| -> Vec<String> {
            members.iter().map(|&i| run.keys[i].clone()).collect()
        };
        match &fire.target {
            FireTarget::List => builder.task(&TaskIntent::ListKeys {
                relation: run.step.table.clone(),
                key_attr: run.step.key_attr.clone(),
                condition: run.step.scan_condition.clone(),
                exclude: Arc::clone(&run.keys),
            }),
            FireTarget::ListPage { offset } => builder.task(&TaskIntent::ListKeysPage {
                relation: run.step.table.clone(),
                key_attr: run.step.key_attr.clone(),
                condition: run.step.scan_condition.clone(),
                offset: *offset,
            }),
            FireTarget::Grid { stage, members } => builder.task(&TaskIntent::FetchGridBatch {
                relation: run.step.table.clone(),
                key_attr: run.step.key_attr.clone(),
                keys: keys_of(members),
                attributes: run.stages[*stage].attrs.clone(),
            }),
            FireTarget::Chunk {
                stage,
                attr,
                members,
            } => builder.task(&self.session.cell_batched_intent(
                run.step,
                &run.cell(*stage, *attr),
                keys_of(members),
            )),
            FireTarget::Single {
                stage,
                attr,
                member,
            } => {
                let key = &run.keys[*member];
                match run.cell(*stage, *attr) {
                    BatchCell::Filter(condition) => builder.task(&TaskIntent::CheckFilter {
                        relation: run.step.table.clone(),
                        key_attr: run.step.key_attr.clone(),
                        key: key.clone(),
                        condition: condition.clone(),
                    }),
                    BatchCell::Fetch(_) => run.stages[*stage].templates[*attr].render(key),
                }
            }
        }
    }

    fn fire_phase(&self, fire: &Fire) -> Phase {
        match fire.target {
            FireTarget::List | FireTarget::ListPage { .. } => Phase::List,
            FireTarget::Grid { stage, .. }
            | FireTarget::Chunk { stage, .. }
            | FireTarget::Single { stage, .. } => {
                if stage < self.steps[fire.step].n_filters {
                    Phase::Filter
                } else {
                    Phase::Fetch
                }
            }
        }
    }

    /// Renders `fires` and executes them as client requests — `bounds`
    /// cuts them into runs sent as one batch each — inline, in fire order,
    /// returning the outcomes in request order. A list prompt reads the
    /// exclusion list at render time, which is exactly the state the
    /// firing event left behind.
    fn run_requests(&self, fires: &[Fire], bounds: &[Range<usize>]) -> Vec<BatchOutcome> {
        let prompts: Vec<String> = fires.iter().map(|f| self.render_fire(f)).collect();
        bounds
            .iter()
            .map(|range| {
                self.session
                    .client
                    .complete_batch_outcome(&prompts[range.clone()])
            })
            .collect()
    }

    /// Bills one request: a prompt per fire to its phase's counter, plus
    /// the batch counters — cache hits included, except on multi-key
    /// protocol prompts (chunks, grid rungs, and single re-asks when
    /// batching is on), whose key-level hits were already billed by
    /// signature at sub-entry extraction (see [`StepStats::absorb`]).
    fn bill(&mut self, fires: &[Fire], outcome: &BatchOutcome) {
        for fire in fires {
            match self.fire_phase(fire) {
                Phase::List => self.acc.list_prompts += 1,
                Phase::Filter => self.acc.filter_prompts += 1,
                Phase::Fetch => self.acc.fetch_prompts += 1,
            }
        }
        let keyed = match fires[0].target {
            FireTarget::List | FireTarget::ListPage { .. } => false,
            FireTarget::Single { .. } => self.batched,
            _ => true,
        };
        self.acc.absorb(outcome, keyed);
    }

    /// Streaming trigger: executes one instant's fired tasks, one request
    /// per prompt, then assigns each task to a virtual lane with release
    /// time `t` — in fire order, so lane assignment is deterministic — and
    /// pushes its completion event.
    fn execute_fires(&mut self, t: u64, fires: Vec<Fire>) {
        if fires.is_empty() {
            return;
        }
        let bounds: Vec<Range<usize>> = (0..fires.len()).map(|i| i..i + 1).collect();
        let outcomes = self.run_requests(&fires, &bounds);
        for (fire, outcome) in fires.into_iter().zip(outcomes) {
            self.bill(std::slice::from_ref(&fire), &outcome);
            self.acc
                .charge_phase(self.fire_phase(&fire), outcome.virtual_ms);
            let done = self.clock.schedule(t, outcome.virtual_ms);
            self.trace.push(TracedTask {
                release: t,
                duration: outcome.virtual_ms,
                completion: done,
            });
            let completion = outcome
                .completions
                .into_iter()
                .next()
                .expect("one completion per prompt");
            let seq = self.next_seq;
            self.next_seq += 1;
            self.events.push(std::cmp::Reverse(StreamEvent {
                time: done,
                seq,
                step: fire.step,
                target: fire.target,
                completion,
            }));
        }
    }

    /// Drain trigger: executes one barrier wave of step `s`. Consecutive
    /// fires of one cell share a client request of up to `batch_size`
    /// prompts (list pages always go alone); the wave's phase and the
    /// step clock are charged the lane-packed makespan of its requests.
    /// Returns each fire's target with its answer, in fire order.
    fn execute_wave(&mut self, s: usize, fires: Vec<Fire>) -> Vec<(FireTarget, String)> {
        let mut bounds = Vec::new();
        let mut start = 0;
        while start < fires.len() {
            let cell = request_cell(&fires[start].target);
            let mut end = start + 1;
            while end < fires.len()
                && end - start < self.batch
                && cell.is_some()
                && request_cell(&fires[end].target) == cell
            {
                end += 1;
            }
            bounds.push(start..end);
            start = end;
        }
        let outcomes = self.run_requests(&fires, &bounds);
        let lanes = self.session.options.parallelism.get();
        let ms = lane_schedule(outcomes.iter().map(|o| o.virtual_ms), lanes);
        // A wave is one phase's work: list pages, one filter condition (or
        // its fallbacks), or the fetch cells.
        let phase = self.fire_phase(&fires[0]);
        debug_assert!(fires.iter().all(|f| self.fire_phase(f) == phase));
        self.acc.charge_phase(phase, ms);
        self.steps[s].wave_ms += ms;
        for (range, outcome) in bounds.into_iter().zip(&outcomes) {
            self.bill(&fires[range], outcome);
        }
        let answers = outcomes
            .into_iter()
            .flat_map(|outcome| outcome.completions)
            .map(|completion| completion.text);
        fires.into_iter().map(|f| f.target).zip(answers).collect()
    }

    /// Drain trigger: a round's multi-key chunks are re-cut per cell as
    /// one key stream into `B`-key chunks. A stage's first rung is already
    /// cut this way (its keys arrive at once, in discovery order); the
    /// grid ladder's middle rung thereby re-asks each attr's failed cells
    /// from the *whole* landed wave — where the streaming trigger re-asks
    /// them per landed grid chunk.
    fn merge_attr_chunks(&mut self, s: usize, fires: Vec<Fire>) -> Vec<Fire> {
        if !fires
            .iter()
            .any(|f| matches!(f.target, FireTarget::Chunk { .. }))
        {
            return fires;
        }
        let mut cells: std::collections::BTreeMap<(usize, usize), Vec<usize>> =
            std::collections::BTreeMap::new();
        let mut out = Vec::with_capacity(fires.len());
        for fire in fires {
            match fire.target {
                FireTarget::Chunk {
                    stage,
                    attr,
                    members,
                } => {
                    self.steps[s].stages[stage].inflight -= 1;
                    cells.entry((stage, attr)).or_default().extend(members);
                }
                target => out.push(Fire {
                    step: fire.step,
                    target,
                }),
            }
        }
        for ((stage, attr), members) in cells {
            for chunk in members.chunks(self.fuse) {
                let target = FireTarget::Chunk {
                    stage,
                    attr,
                    members: chunk.to_vec(),
                };
                self.fire_at(s, stage, target, &mut out);
            }
        }
        out
    }

    // --- event processing --------------------------------------------

    /// Applies one landed task's answer to the step's dataflow.
    fn process(&mut self, s: usize, target: FireTarget, text: &str, fires: &mut Vec<Fire>) {
        match target {
            FireTarget::List => self.process_list(s, text, fires),
            FireTarget::ListPage { offset } => {
                let spec = self.steps[s]
                    .spec
                    .as_mut()
                    .expect("page completion outside spec mode");
                spec.inflight -= 1;
                spec.buffered.insert(offset, text.to_string());
                // Wave barrier: pages apply (in offset order) only once
                // the whole wave has landed, so both triggers count
                // iterations identically.
                if spec.inflight == 0 {
                    self.spec_apply(s, fires);
                }
            }
            FireTarget::Grid { stage, members } => {
                self.steps[s].stages[stage].inflight -= 1;
                self.process_grid_chunk(s, stage, &members, text, fires);
                self.maybe_drain(s, stage, fires);
            }
            FireTarget::Chunk {
                stage,
                attr,
                members,
            } => {
                self.steps[s].stages[stage].inflight -= 1;
                for (slot, sub) in self.split_chunk(s, &members, text) {
                    match sub {
                        Some(answer) => {
                            self.store_answer(s, stage, attr, slot, &answer);
                            self.land(s, stage, attr, slot, &answer, fires);
                        }
                        // The model dropped or mangled this key's line:
                        // re-ask with the single-key prompt, chained
                        // after this batch.
                        None => {
                            let target = FireTarget::Single {
                                stage,
                                attr,
                                member: slot,
                            };
                            self.fire_at(s, stage, target, fires);
                        }
                    }
                }
                self.maybe_drain(s, stage, fires);
            }
            FireTarget::Single {
                stage,
                attr,
                member,
            } => {
                self.steps[s].stages[stage].inflight -= 1;
                if self.batched {
                    self.store_answer(s, stage, attr, member, text);
                }
                self.land(s, stage, attr, member, text, fires);
                self.maybe_drain(s, stage, fires);
            }
        }
    }

    /// Splits a multi-key answer into one line per member slot (`None`
    /// where the model dropped or mangled the key's line).
    fn split_chunk(&self, s: usize, members: &[usize], text: &str) -> Vec<(usize, Option<String>)> {
        let keys: Vec<String> = members
            .iter()
            .map(|&i| self.steps[s].keys[i].clone())
            .collect();
        members
            .iter()
            .copied()
            .zip(split_batched_answer(text, &keys))
            .collect()
    }

    /// Applies one grid chunk's answer: every unanswered `(slot, attr)`
    /// cell lands its parsed line, and each attr's failed cells re-ask
    /// together one rung down ([`FireTarget::Chunk`]).
    fn process_grid_chunk(
        &mut self,
        s: usize,
        stage: usize,
        members: &[usize],
        text: &str,
        fires: &mut Vec<Fire>,
    ) {
        let (cells, width) = {
            let run = &self.steps[s];
            let keys: Vec<String> = members.iter().map(|&i| run.keys[i].clone()).collect();
            let group = &run.stages[stage];
            (
                split_grid_answer(text, &keys, &group.attrs),
                group.cols.len(),
            )
        };
        let mut failed: Vec<Vec<usize>> = vec![Vec::new(); width];
        for (&slot, row) in members.iter().zip(cells) {
            for (ord, cell) in row.into_iter().enumerate() {
                if ord >= width {
                    // Speculative pad cells only seed the sub-entry store
                    // for later queries — no row consumption, no fallback
                    // for a dropped pad line.
                    if let Some(answer) = cell {
                        self.store_answer(s, stage, ord, slot, &answer);
                    }
                } else if !self.steps[s].stages[stage].answered.contains(&(slot, ord)) {
                    match cell {
                        Some(answer) => {
                            self.store_answer(s, stage, ord, slot, &answer);
                            self.land(s, stage, ord, slot, &answer, fires);
                        }
                        None => failed[ord].push(slot),
                    }
                }
            }
        }
        for (attr, members) in failed.into_iter().enumerate() {
            if !members.is_empty() {
                let target = FireTarget::Chunk {
                    stage,
                    attr,
                    members,
                };
                self.fire_at(s, stage, target, fires);
            }
        }
    }

    /// Stores one cell's answer (attr ordinal `ord` of stage `g`, for the
    /// key of `slot`) under its sub-entry signature, so later batched or
    /// single asks of the same cell extract it.
    fn store_answer(&mut self, s: usize, g: usize, ord: usize, slot: usize, answer: &str) {
        let run = &self.steps[s];
        let sig = sig_for_key(
            &mut self.sig,
            &run.stages[g].sig_prefixes[ord],
            &run.keys[slot],
        );
        self.session.client.store_sub_entry(sig, answer);
    }

    /// Looks one cell up in the sub-entry store, returning a stored
    /// answer. A stored answer and an in-flight marker both bill a cache
    /// hit; an in-flight cell is still re-asked locally — the dataflow
    /// never parks a key waiting on another thread.
    fn extract_answer(&mut self, s: usize, g: usize, ord: usize, slot: usize) -> Option<String> {
        let run = &self.steps[s];
        let sig = sig_for_key(
            &mut self.sig,
            &run.stages[g].sig_prefixes[ord],
            &run.keys[slot],
        );
        match self.session.client.extract_sub_entry(sig) {
            SubEntryLookup::Hit(answer) => {
                self.acc.cache_hits += 1;
                Some(answer)
            }
            SubEntryLookup::InFlight => {
                self.acc.cache_hits += 1;
                None
            }
            SubEntryLookup::Miss => None,
        }
    }

    /// Applies one list iteration's answer: new keys enter the dataflow,
    /// and either the next iteration fires or the key stream is finished
    /// (exhausted page, no new keys, or the iteration cap).
    fn process_list(&mut self, s: usize, text: &str, fires: &mut Vec<Fire>) {
        if is_fault_text(text) {
            // A degraded list page ends the key stream *resumably*:
            // `list_exhausted` stays false, so the published universe is a
            // partial frontier a later query resumes — never a poisoned
            // "complete" listing.
            self.acc.failed_cells += 1;
            self.finish_list(s, fires);
            return;
        }
        match parse_list_answer(text) {
            ListAnswer::Exhausted => {
                self.steps[s].list_exhausted = true;
                self.finish_list(s, fires);
            }
            ListAnswer::Values(values) => {
                let raw = values.len();
                let added = self.absorb_stream_page(s, values, fires);
                if added == 0 {
                    self.steps[s].list_exhausted = true;
                    self.finish_list(s, fires);
                    return;
                }
                // LIMIT early stop: the window is covered by confirmed
                // survivors, so no further page can change the result.
                if self.limit_covered() {
                    self.finish_list(s, fires);
                    return;
                }
                // Speculative mode: page 1 just landed — its raw value
                // count is the page-size estimate, and offset probes
                // replace the exclusion-list chain.
                if let Some(spec) = self.steps[s].spec.as_mut() {
                    spec.page_est = raw;
                    spec.next_offset = raw;
                    if self.steps[s].iterations < self.session.options.max_list_iterations {
                        self.fire_spec_wave(s, fires);
                    } else {
                        self.finish_list(s, fires);
                    }
                    return;
                }
                if self.steps[s].iterations < self.session.options.max_list_iterations {
                    self.fire_list(s, fires);
                } else {
                    self.finish_list(s, fires);
                }
            }
        }
    }

    /// Folds one page of raw key surfaces into the step's stream (clean,
    /// case-folded dedup, key slot, dataflow entry), returning how many
    /// new keys entered.
    fn absorb_stream_page(
        &mut self,
        s: usize,
        values: Vec<String>,
        fires: &mut Vec<Fire>,
    ) -> usize {
        let mut new_slots = Vec::new();
        {
            let run = &mut self.steps[s];
            let keys = Arc::make_mut(&mut run.keys);
            for v in values {
                let cleaned = normalise_text(&v);
                if cleaned.is_empty() {
                    continue;
                }
                if run.seen.insert(cleaned.to_ascii_lowercase()) {
                    new_slots.push(keys.len());
                    keys.push(cleaned);
                    run.slots.push(KeySlot {
                        alive: true,
                        row: Vec::new(),
                    });
                }
            }
        }
        for &slot in &new_slots {
            self.enter_dataflow(s, slot, fires);
        }
        new_slots.len()
    }

    /// Applies a fully-landed speculative wave in offset order: each page
    /// feeds the dataflow; the first exhausted page, short page or page
    /// with nothing new ends the universe (pages fired past it are waste,
    /// already billed as iterations). Otherwise the next wave fires, or
    /// the iteration cap leaves a partial frontier.
    fn spec_apply(&mut self, s: usize, fires: &mut Vec<Fire>) {
        let pages: Vec<(usize, String)> = {
            let spec = self.steps[s].spec.as_mut().expect("spec wave landed");
            std::mem::take(&mut spec.buffered).into_iter().collect()
        };
        let mut terminal = false;
        let mut faulted = false;
        for (_, text) in pages {
            if terminal || faulted {
                break;
            }
            if is_fault_text(&text) {
                // A degraded page ends the ramp resumably (pages fired
                // past it are waste, like any speculative overshoot).
                self.acc.failed_cells += 1;
                faulted = true;
                continue;
            }
            match parse_list_answer(&text) {
                ListAnswer::Exhausted => terminal = true,
                ListAnswer::Values(values) => {
                    let raw = values.len();
                    let added = self.absorb_stream_page(s, values, fires);
                    let page_est = self.steps[s].spec.as_ref().expect("spec mode").page_est;
                    if added == 0 || raw < page_est {
                        terminal = true;
                    }
                }
            }
        }
        if terminal {
            self.steps[s].list_exhausted = true;
            self.finish_list(s, fires);
        } else if faulted
            || self.steps[s].iterations >= self.session.options.max_list_iterations
            || self.limit_covered()
        {
            self.finish_list(s, fires);
        } else {
            self.fire_spec_wave(s, fires);
        }
    }

    /// Routes a freshly-listed key into the first stage of the step's
    /// dataflow (first filter condition; fetch stages when there is none).
    fn enter_dataflow(&mut self, s: usize, slot: usize, fires: &mut Vec<Fire>) {
        if let Some(n) = self.limit {
            if self.prefix_confirmed(slot) >= n {
                // The window is already covered by earlier confirmed
                // survivors, so this key can never surface — prune it
                // before any filter or fetch prompt is issued.
                self.steps[s].slots[slot].alive = false;
                return;
            }
        }
        if self.steps[s].n_filters > 0 {
            self.deliver(s, 0, slot, fires);
        } else {
            if self.limit.is_some() {
                self.confirm_survivor(slot);
            }
            for g in 0..self.steps[s].stages.len() {
                self.deliver(s, g, slot, fires);
            }
        }
    }

    /// Routes a key that survived filter stage `g` downstream: into the
    /// next condition, or — past the last condition — fanning out into
    /// every fetch stage.
    fn route_survivor(&mut self, s: usize, g: usize, slot: usize, fires: &mut Vec<Fire>) {
        let n_filters = self.steps[s].n_filters;
        if g + 1 < n_filters {
            self.deliver(s, g + 1, slot, fires);
        } else {
            if let Some(n) = self.limit {
                self.confirm_survivor(slot);
                if self.prefix_confirmed(slot) >= n {
                    // Beyond the window: every verdict landed (the key
                    // stays alive) but its row can never surface, so its
                    // fetch prompts are never issued.
                    return;
                }
            }
            for fg in n_filters..self.steps[s].stages.len() {
                self.deliver(s, fg, slot, fires);
            }
        }
    }

    /// A key arrives at a stage: in batched mode each of its cells is first
    /// looked up in the sub-entry store, and the key joins the accumulator
    /// ([`StreamSim::accumulate`]) only while some cell is still missing.
    /// A multi-column group's extracted cells are marked answered so the
    /// grid parse skips them (grid prompts always ask the whole group, so
    /// their strings stay chunk-membership-deterministic).
    fn deliver(&mut self, s: usize, g: usize, slot: usize, fires: &mut Vec<Fire>) {
        if self.batched {
            // One cell per fetched column; the condition at a filter stage.
            let width = if g < self.steps[s].n_filters {
                1
            } else {
                self.steps[s].stages[g].cols.len()
            };
            let mut missing = false;
            for ord in 0..width {
                match self.extract_answer(s, g, ord, slot) {
                    Some(answer) => {
                        if width > 1 {
                            self.steps[s].stages[g].answered.insert((slot, ord));
                        }
                        self.land(s, g, ord, slot, &answer, fires);
                    }
                    None => missing = true,
                }
            }
            if !missing {
                return;
            }
        }
        self.accumulate(s, g, slot, fires);
    }

    /// Adds a key to a stage's accumulator. The streaming trigger fires a
    /// micro-batch the moment it holds `B` keys; the drain trigger holds
    /// every key until upstream drains.
    fn accumulate(&mut self, s: usize, g: usize, slot: usize, fires: &mut Vec<Fire>) {
        let stage = &mut self.steps[s].stages[g];
        stage.pending.push(slot);
        if !self.drain && stage.pending.len() >= self.fuse {
            let members = std::mem::take(&mut stage.pending);
            self.fire_chunk(s, g, members, fires);
        }
    }

    /// Lands one cell's answer for the key of `slot`. At a filter stage
    /// the verdict routes the key onward or kills it (an unparseable
    /// verdict keeps the tuple out: the predicate did not evaluate to
    /// TRUE); at a fetch stage the value of attr ordinal `attr` lands in
    /// the key's materialising row.
    fn land(
        &mut self,
        s: usize,
        g: usize,
        attr: usize,
        slot: usize,
        answer: &str,
        fires: &mut Vec<Fire>,
    ) {
        if g < self.steps[s].n_filters {
            if is_fault_text(answer) {
                // A degraded verdict keeps the tuple out, like any
                // unparseable one, but is counted as a failed cell.
                self.acc.failed_cells += 1;
                self.steps[s].slots[slot].alive = false;
            } else if parse_boolean_answer(answer).unwrap_or(false) {
                self.route_survivor(s, g, slot, fires);
            } else {
                self.steps[s].slots[slot].alive = false;
            }
            return;
        }
        let col = self.steps[s].stages[g].cols[attr];
        let cleaning = &self.session.options.cleaning;
        let value = if is_fault_text(answer) {
            // A degraded fetch annotates the cell as Null.
            self.acc.failed_cells += 1;
            Value::Null
        } else {
            parse_value_answer(answer)
                .and_then(|raw| {
                    clean_to_type(&raw, self.steps[s].step.columns[col].data_type, cleaning)
                })
                .map(|v| match v {
                    Value::Text(x) => Value::Text(normalise_text(&x)),
                    other => other,
                })
                .unwrap_or(Value::Null)
        };
        let run = &mut self.steps[s];
        let row = &mut run.slots[slot].row;
        if row.is_empty() {
            *row = key_row(run.step, &run.keys[slot], cleaning);
        }
        row[col] = value;
    }

    // --- drain propagation -------------------------------------------

    /// The step's key stream is finished: no further list page can deliver
    /// keys, so the universe publishes to the key-universe store (when one
    /// is attached and the universe wasn't served warm), the first stages'
    /// accumulators flush and drain propagation begins.
    fn finish_list(&mut self, s: usize, fires: &mut Vec<Fire>) {
        if !self.steps[s].list_done {
            self.steps[s].list_done = true;
            if let Some(concept) = self.steps[s].concept.take() {
                if let Some(store) = &self.session.list_store {
                    let run = &self.steps[s];
                    store.publish(
                        &concept,
                        &self.session.model_sig,
                        KeyUniverse {
                            keys: (*run.keys).clone(),
                            iterations: run.iterations,
                            exhausted: run.list_exhausted,
                        },
                    );
                }
            }
        }
        if self.steps[s].n_filters > 0 {
            self.stage_upstream_drained(s, 0, fires);
        } else {
            for g in 0..self.steps[s].stages.len() {
                self.stage_upstream_drained(s, g, fires);
            }
        }
    }

    /// The stage's producer can deliver no further keys: fire what the
    /// accumulator holds — the streaming trigger's partial micro-batch, or
    /// the drain trigger's whole key set cut into `B`-key chunks — and
    /// drain if nothing is left in flight.
    fn stage_upstream_drained(&mut self, s: usize, g: usize, fires: &mut Vec<Fire>) {
        self.steps[s].stages[g].upstream_drained = true;
        let mut members = std::mem::take(&mut self.steps[s].stages[g].pending);
        if self.drain {
            // Survivors land in verdict order (fallback re-asks last); the
            // wave chunks them in discovery order.
            members.sort_unstable();
        }
        if self.batched {
            for chunk in members.chunks(self.fuse) {
                self.fire_chunk(s, g, chunk.to_vec(), fires);
            }
        } else {
            fires.reserve(members.len());
            for member in members {
                let target = FireTarget::Single {
                    stage: g,
                    attr: 0,
                    member,
                };
                self.fire_at(s, g, target, fires);
            }
        }
        self.maybe_drain(s, g, fires);
    }

    /// Marks a stage drained once its upstream is finished and its own
    /// work has all landed, then propagates downstream.
    fn maybe_drain(&mut self, s: usize, g: usize, fires: &mut Vec<Fire>) {
        {
            let stage = &self.steps[s].stages[g];
            if stage.drained
                || !stage.upstream_drained
                || stage.inflight > 0
                || !stage.pending.is_empty()
            {
                return;
            }
        }
        self.steps[s].stages[g].drained = true;
        let n_filters = self.steps[s].n_filters;
        if g + 1 < n_filters {
            self.stage_upstream_drained(s, g + 1, fires);
        } else if g < n_filters {
            for fg in n_filters..self.steps[s].stages.len() {
                self.stage_upstream_drained(s, fg, fires);
            }
        }
        // Fetch stages are the dataflow's sinks: nothing downstream.
    }
}

/// The cell whose fires may share one client request under the drain
/// trigger: `(stage, attr ordinal)`, or `None` for list pages, which
/// always go alone.
fn request_cell(target: &FireTarget) -> Option<(usize, usize)> {
    match *target {
        FireTarget::List | FireTarget::ListPage { .. } => None,
        FireTarget::Grid { stage, .. } => Some((stage, 0)),
        FireTarget::Chunk { stage, attr, .. } | FireTarget::Single { stage, attr, .. } => {
            Some((stage, attr))
        }
    }
}

/// Speculative fill of a grid attr-group's spare width: when the group is
/// the step's *last* (the only one that can be narrower than `A`), the
/// remaining attribute slots are padded with the relation's other columns
/// — schema order, key and already-fetched columns excluded. The padded
/// cells ride along in the same prompt (the group count, and so the
/// prompt count, is untouched), are stored as per-(key, attr) sub-entries
/// for later queries to extract, and never feed rows or the fallback
/// ladder: a dropped pad line is simply not stored. This is the fetch
/// phase's analogue of the key-universe store's speculative paging — it
/// is what lets a suite of narrow queries amortise one table's attribute
/// surface across a handful of grid prompts instead of paying
/// `ceil(keys/B)` prompts per newly-touched column.
///
/// Returns column indices into `step.columns`; empty for every non-last
/// or already-full group (so `A = 1` stays the exact key-batched base
/// case).
fn grid_pad_columns(step: &LlmScanStep, start: usize, len: usize, attr_fuse: usize) -> Vec<usize> {
    if start + len < step.fetch.len() || len >= attr_fuse {
        return Vec::new();
    }
    (0..step.columns.len())
        .filter(|&c| c != step.key_index && !step.fetch.contains(&c))
        .take(attr_fuse - len)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_dataset::Scenario;
    use galois_llm::{ModelProfile, SimLlm};

    fn oracle_session() -> (Scenario, Galois) {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::new(model, s.database.clone());
        (s, g)
    }

    fn oracle_session_parallel(lanes: usize) -> (Scenario, Galois) {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                parallelism: Parallelism::new(lanes),
                ..Default::default()
            },
        );
        (s, g)
    }

    #[test]
    fn oracle_selection_matches_ground_truth() {
        let (s, g) = oracle_session();
        let sql = "SELECT name FROM city WHERE population > 1000000";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        let mut a: Vec<String> = truth.rows.iter().map(|r| r[0].render()).collect();
        let mut b: Vec<String> = got.relation.rows.iter().map(|r| r[0].render()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(got.stats.total_prompts() > 0);
    }

    #[test]
    fn oracle_projection_values_match() {
        let (s, g) = oracle_session();
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        let key = |r: &Vec<Value>| (r[0].render(), r[1].render());
        let mut a: Vec<_> = truth.rows.iter().map(key).collect();
        let mut b: Vec<_> = got.relation.rows.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn oracle_aggregate_matches() {
        let (s, g) = oracle_session();
        let sql = "SELECT COUNT(*) FROM city";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        assert_eq!(truth.rows, got.relation.rows);
    }

    #[test]
    fn oracle_group_by_matches() {
        let (s, g) = oracle_session();
        let sql = "SELECT continent, COUNT(*) FROM country GROUP BY continent ORDER BY continent";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        assert_eq!(truth.rows, got.relation.rows);
    }

    #[test]
    fn oracle_join_matches() {
        let (s, g) = oracle_session();
        let sql = "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        assert_eq!(truth.len(), got.relation.len());
    }

    #[test]
    fn hybrid_query_mixes_llm_and_db() {
        let (s, g) = oracle_session();
        // employees live only in the DB; country GDP comes from the LLM.
        let sql = "SELECT e.countryCode, AVG(e.salary), MAX(k.gdp) \
                   FROM DB.employees e, LLM.country k \
                   WHERE e.countryCode = k.code \
                   GROUP BY e.countryCode ORDER BY e.countryCode";
        let got = g.execute(sql).unwrap();
        assert!(!got.relation.is_empty());
        // Ground truth: the same query entirely inside the DB.
        let truth = s
            .database
            .execute(
                "SELECT e.countryCode, AVG(e.salary), MAX(k.gdp) \
                 FROM employees e, country k WHERE e.countryCode = k.code \
                 GROUP BY e.countryCode ORDER BY e.countryCode",
            )
            .unwrap();
        assert_eq!(truth.len(), got.relation.len());
    }

    #[test]
    fn noisy_model_misses_rows() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::flan()));
        let g = Galois::new(model, s.database.clone());
        let sql = "SELECT name FROM city";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        assert!(
            got.relation.len() < truth.len(),
            "flan returned {} of {}",
            got.relation.len(),
            truth.len()
        );
    }

    #[test]
    fn stats_count_prompt_kinds() {
        let (_, g) = oracle_session();
        let got = g
            .execute("SELECT name, population FROM city WHERE elevation < 100")
            .unwrap();
        assert!(got.stats.list_prompts >= 1);
        assert!(got.stats.filter_prompts > 0);
        assert!(got.stats.fetch_prompts > 0);
        assert!(got.stats.virtual_ms > 0);
    }

    #[test]
    fn sequential_serial_and_virtual_clocks_agree() {
        let (_, g) = oracle_session();
        let got = g
            .execute("SELECT name, population FROM city WHERE elevation < 100")
            .unwrap();
        assert_eq!(got.stats.virtual_ms, got.stats.serial_virtual_ms);
        assert!((got.stats.virtual_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_run_matches_sequential_results_and_counts() {
        let sql = "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name";
        let (_, seq) = oracle_session_parallel(1);
        let base = seq.execute(sql).unwrap();
        for lanes in [2, 8] {
            let (_, par) = oracle_session_parallel(lanes);
            let got = par.execute(sql).unwrap();
            assert_eq!(got.relation.rows, base.relation.rows, "lanes {lanes}");
            assert_eq!(
                got.stats.total_prompts(),
                base.stats.total_prompts(),
                "lanes {lanes}"
            );
            assert_eq!(got.stats.cache_hits, base.stats.cache_hits, "lanes {lanes}");
            assert_eq!(
                got.stats.serial_virtual_ms, base.stats.serial_virtual_ms,
                "lanes {lanes}"
            );
            // Lanes can only shorten the virtual clock.
            assert!(
                got.stats.virtual_ms <= base.stats.virtual_ms,
                "lanes {lanes}"
            );
        }
    }

    #[test]
    fn parallel_join_is_virtually_faster() {
        let sql = "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name";
        let (_, seq) = oracle_session_parallel(1);
        let (_, par) = oracle_session_parallel(8);
        let a = seq.execute(sql).unwrap();
        let b = par.execute(sql).unwrap();
        assert!(
            b.stats.virtual_ms * 2 <= a.stats.virtual_ms,
            "expected ≥2× on a two-step join: {} vs {}",
            a.stats.virtual_ms,
            b.stats.virtual_ms
        );
        assert!(b.stats.virtual_speedup() >= 2.0);
        assert!(b.stats.lane_utilisation(8) <= 1.0 + 1e-12);
    }

    #[test]
    fn explain_shows_llm_steps() {
        let (_, g) = oracle_session();
        let text = g
            .explain("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        assert!(text.contains("[LLM step 1] scan city"));
        assert!(text.contains("planner: heuristic"));
        assert!(text.contains("cost: keys≈"));
        assert!(text.contains("[relational plan]"));
    }

    #[test]
    fn explain_reports_the_early_stop_window_for_limit_sessions() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let sql = "SELECT name FROM city LIMIT 5 OFFSET 2";
        let (_, plain) = oracle_session();
        assert!(
            !plain.explain(sql).unwrap().contains("limit:"),
            "default sessions keep the pre-limit report"
        );
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                early_stop: EarlyStop::Limit,
                ..Default::default()
            },
        );
        assert!(g
            .explain(sql)
            .unwrap()
            .contains("limit: early-stop after ~7 keys"));
        // Ineligible plan shapes stay tag-free even on a limit session.
        assert!(!g
            .explain("SELECT name FROM city ORDER BY population LIMIT 5")
            .unwrap()
            .contains("limit:"));
    }

    #[test]
    fn explain_statement_returns_query_plan_relation() {
        let (_, g) = oracle_session();
        let got = g
            .execute("EXPLAIN SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        assert_eq!(got.stats.total_prompts(), 0, "EXPLAIN must not prompt");
        assert_eq!(got.relation.schema.columns[0].name, "QUERY PLAN");
        let text: Vec<String> = got.relation.rows.iter().map(|r| r[0].render()).collect();
        assert!(text.iter().any(|l| l.contains("[LLM step 1] scan city")));
        assert!(text.iter().any(|l| l.contains("virtual≈")));
    }

    #[test]
    fn planner_calibration_is_frozen_until_recalibrated() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                planner: Planner::CostBased,
                ..Default::default()
            },
        );
        let sql = "SELECT name FROM city WHERE population > 1000000";
        let before = g.explain(sql).unwrap();
        // Executing queries mutates the client stats, but the frozen
        // snapshot keeps the planner's choice (and report) stable.
        g.execute(sql).unwrap();
        assert_eq!(g.explain(sql).unwrap(), before);
        // The live reading has moved; re-freezing adopts it.
        assert_ne!(g.planner_params().prompt_latency_ms, {
            let d = crate::plan_choice::PlannerParams::default();
            d.prompt_latency_ms
        });
        g.recalibrate_planner();
        assert_ne!(g.explain(sql).unwrap(), before);
    }

    #[test]
    fn cost_based_planner_preserves_results_with_fewer_prompts() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let heuristic = Galois::new(model.clone(), s.database.clone());
        let cost_based = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                planner: Planner::CostBased,
                ..Default::default()
            },
        );
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let a = heuristic.execute(sql).unwrap();
        cost_based.client().clear_cache();
        let b = cost_based.execute(sql).unwrap();
        let sort = |rel: &Relation| {
            let mut rows: Vec<Vec<String>> = rel
                .rows
                .iter()
                .map(|r| r.iter().map(Value::render).collect())
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(sort(&a.relation), sort(&b.relation));
        assert!(
            b.stats.total_prompts() < a.stats.total_prompts(),
            "cost-based {} vs heuristic {}",
            b.stats.total_prompts(),
            a.stats.total_prompts()
        );
        assert!(b.stats.virtual_ms < a.stats.virtual_ms);
    }

    fn oracle_session_batched(batch: PromptBatch) -> (Scenario, Galois) {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                prompt_batch: batch,
                ..Default::default()
            },
        );
        (s, g)
    }

    #[test]
    fn batched_mode_matches_off_relations_with_fewer_prompts() {
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let (_, off) = oracle_session_batched(PromptBatch::Off);
        let a = off.execute(sql).unwrap();
        let (_, batched) = oracle_session_batched(PromptBatch::Keys(10));
        let b = batched.execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert!(
            b.stats.total_prompts() < a.stats.total_prompts(),
            "batched {} vs off {}",
            b.stats.total_prompts(),
            a.stats.total_prompts()
        );
        assert!(
            b.stats.virtual_ms < a.stats.virtual_ms,
            "batched {} vs off {} virtual ms",
            b.stats.virtual_ms,
            a.stats.virtual_ms
        );
        // No fallback on the oracle: ceil(keys / B) prompts per cell.
        assert!(b.stats.filter_prompts < a.stats.filter_prompts);
        assert!(b.stats.fetch_prompts < a.stats.fetch_prompts);
    }

    #[test]
    fn batched_joins_and_aggregates_match_off() {
        for sql in [
            "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name",
            "SELECT continent, COUNT(*) FROM country GROUP BY continent ORDER BY continent",
        ] {
            let (_, off) = oracle_session_batched(PromptBatch::Off);
            let (_, batched) = oracle_session_batched(PromptBatch::Keys(5));
            let a = off.execute(sql).unwrap();
            let b = batched.execute(sql).unwrap();
            assert_eq!(a.relation.rows, b.relation.rows, "{sql}");
        }
    }

    #[test]
    fn batch_of_one_matches_off_relations() {
        // Keys(1): the multi-key protocol at its ablation base case — same
        // prompt *count* economics as Off, different prompt text.
        let sql = "SELECT name FROM city WHERE population > 1000000";
        let (_, off) = oracle_session_batched(PromptBatch::Off);
        let (_, one) = oracle_session_batched(PromptBatch::Keys(1));
        let a = off.execute(sql).unwrap();
        let b = one.execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert_eq!(a.stats.total_prompts(), b.stats.total_prompts());
    }

    #[test]
    fn sub_entries_serve_repeat_queries_without_new_prompts() {
        let (_, g) = oracle_session_batched(PromptBatch::Keys(10));
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let first = g.execute(sql).unwrap();
        assert!(first.stats.filter_prompts > 0 && first.stats.fetch_prompts > 0);
        // A second run re-lists keys (raw prompt-cache hits), but every
        // filter/fetch key is served from per-key sub-entries: zero
        // batched prompts, zero fallbacks — chunk boundaries can no longer
        // even matter.
        let second = g.execute(sql).unwrap();
        assert_eq!(first.relation.rows, second.relation.rows);
        assert_eq!(second.stats.filter_prompts, 0);
        assert_eq!(second.stats.fetch_prompts, 0);
        assert!(second.stats.cache_hits > 0);
        assert!(second.stats.virtual_ms < first.stats.virtual_ms);
    }

    #[test]
    fn batched_mode_is_deterministic_across_lane_counts() {
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let base = {
            let s = Scenario::generate(42);
            let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
            Galois::with_options(
                model,
                s.database.clone(),
                GaloisOptions {
                    prompt_batch: PromptBatch::Keys(10),
                    ..Default::default()
                },
            )
            .execute(sql)
            .unwrap()
        };
        for lanes in [2usize, 8] {
            let s = Scenario::generate(42);
            let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
            let got = Galois::with_options(
                model,
                s.database.clone(),
                GaloisOptions {
                    prompt_batch: PromptBatch::Keys(10),
                    parallelism: Parallelism::new(lanes),
                    ..Default::default()
                },
            )
            .execute(sql)
            .unwrap();
            assert_eq!(got.relation.rows, base.relation.rows, "lanes {lanes}");
            assert_eq!(
                got.stats.total_prompts(),
                base.stats.total_prompts(),
                "lanes {lanes}"
            );
        }
    }

    #[test]
    fn grid_mode_matches_off_relations_with_fewer_fetch_prompts() {
        let sql = "SELECT name, population, country FROM city WHERE elevation < 100";
        let (_, off) = oracle_session_batched(PromptBatch::Off);
        let a = off.execute(sql).unwrap();
        let (_, keys) = oracle_session_batched(PromptBatch::Keys(10));
        let b = keys.execute(sql).unwrap();
        let (_, grid) = oracle_session_batched(PromptBatch::Grid { keys: 10, attrs: 4 });
        let c = grid.execute(sql).unwrap();
        assert_eq!(a.relation.rows, c.relation.rows);
        // No fallback on the oracle: the attr-groups fuse the fetch
        // streams, ⌈C/A⌉ × ⌈keys/B⌉ prompts instead of C × ⌈keys/B⌉.
        assert!(
            c.stats.fetch_prompts < b.stats.fetch_prompts,
            "grid {} vs keys-only {}",
            c.stats.fetch_prompts,
            b.stats.fetch_prompts
        );
        assert!(c.stats.total_prompts() < b.stats.total_prompts());
        // The filter phase is untouched by attr fusion.
        assert_eq!(c.stats.filter_prompts, b.stats.filter_prompts);
    }

    #[test]
    fn grid_of_one_attr_matches_keys_batched_counts() {
        // Grid{B, 1}: the grid protocol at its ablation base case — one
        // attribute per prompt, same prompt-count economics as Keys(B),
        // different prompt text.
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let (_, keys) = oracle_session_batched(PromptBatch::Keys(10));
        let a = keys.execute(sql).unwrap();
        let (_, grid) = oracle_session_batched(PromptBatch::Grid { keys: 10, attrs: 1 });
        let b = grid.execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert_eq!(a.stats.total_prompts(), b.stats.total_prompts());
        assert_eq!(a.stats.fetch_prompts, b.stats.fetch_prompts);
    }

    #[test]
    fn grid_repeat_queries_are_served_from_sub_entries() {
        let (_, g) = oracle_session_batched(PromptBatch::Grid { keys: 10, attrs: 4 });
        let sql = "SELECT name, population, country FROM city WHERE elevation < 100";
        let first = g.execute(sql).unwrap();
        assert!(first.stats.fetch_prompts > 0);
        // Grid answers were stored per (key, attr): the repeat run's
        // fetch phase resolves entirely at sub-entry extraction.
        let second = g.execute(sql).unwrap();
        assert_eq!(first.relation.rows, second.relation.rows);
        assert_eq!(second.stats.filter_prompts, 0);
        assert_eq!(second.stats.fetch_prompts, 0);
        assert!(second.stats.cache_hits > 0);
    }

    #[test]
    fn grid_mode_is_deterministic_across_lane_counts() {
        let sql = "SELECT name, population, country FROM city WHERE elevation < 100";
        let run = |lanes: usize| {
            let s = Scenario::generate(42);
            let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
            Galois::with_options(
                model,
                s.database.clone(),
                GaloisOptions {
                    prompt_batch: PromptBatch::Grid { keys: 10, attrs: 2 },
                    parallelism: Parallelism::new(lanes),
                    ..Default::default()
                },
            )
            .execute(sql)
            .unwrap()
        };
        let base = run(1);
        for lanes in [2usize, 8] {
            let got = run(lanes);
            assert_eq!(got.relation.rows, base.relation.rows, "lanes {lanes}");
            assert_eq!(
                got.stats.total_prompts(),
                base.stats.total_prompts(),
                "lanes {lanes}"
            );
        }
    }

    fn oracle_session_pipelined(pipeline: Pipeline, lanes: usize) -> (Scenario, Galois) {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                pipeline,
                prompt_batch: PromptBatch::Keys(10),
                parallelism: Parallelism::new(lanes),
                ..Default::default()
            },
        );
        (s, g)
    }

    #[test]
    fn streaming_beats_the_wave_clock_with_lanes() {
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let (_, wave) = oracle_session_pipelined(Pipeline::Off, 8);
        let (_, stream) = oracle_session_pipelined(Pipeline::Streaming, 8);
        let a = wave.execute(sql).unwrap();
        let b = stream.execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert_eq!(a.stats.total_prompts(), b.stats.total_prompts());
        assert_eq!(a.stats.cache_hits, b.stats.cache_hits);
        // The fetch micro-batches hide behind the exhausted-page check
        // instead of waiting at the phase barrier.
        assert!(
            b.stats.virtual_ms < a.stats.virtual_ms,
            "streaming {} vs wave {}",
            b.stats.virtual_ms,
            a.stats.virtual_ms
        );
    }

    #[test]
    fn streaming_single_lane_serialises_the_micro_batch_overheads() {
        // With one lane there is nothing to overlap: every micro-batch
        // pays its own request overhead back to back, while the wave
        // amortises overheads across up to `batch_size` prompts. The
        // documented trade-off — pipelining is a concurrency optimisation.
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let (_, wave) = oracle_session_pipelined(Pipeline::Off, 1);
        let (_, stream) = oracle_session_pipelined(Pipeline::Streaming, 1);
        let a = wave.execute(sql).unwrap();
        let b = stream.execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert!(
            b.stats.virtual_ms >= a.stats.virtual_ms,
            "single-lane streaming {} must not beat the wave {}",
            b.stats.virtual_ms,
            a.stats.virtual_ms
        );
        // At one lane the event clock degenerates to a running sum.
        assert_eq!(b.stats.virtual_ms, b.stats.serial_virtual_ms);
    }

    #[test]
    fn streaming_grid_matches_wave_grid_prompts_and_relations() {
        let sql = "SELECT name, population, country FROM city WHERE elevation < 100";
        let session = |pipeline| {
            let s = Scenario::generate(42);
            let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
            Galois::with_options(
                model,
                s.database.clone(),
                GaloisOptions {
                    pipeline,
                    prompt_batch: PromptBatch::Grid { keys: 10, attrs: 4 },
                    parallelism: Parallelism::new(8),
                    ..Default::default()
                },
            )
        };
        let a = session(Pipeline::Off).execute(sql).unwrap();
        let b = session(Pipeline::Streaming).execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert_eq!(a.stats.total_prompts(), b.stats.total_prompts());
        assert_eq!(a.stats.cache_hits, b.stats.cache_hits);
        assert!(
            b.stats.virtual_ms < a.stats.virtual_ms,
            "streaming grid {} vs wave grid {}",
            b.stats.virtual_ms,
            a.stats.virtual_ms
        );
    }

    #[test]
    fn phase_breakdown_locates_the_time() {
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let (_, wave) = oracle_session_pipelined(Pipeline::Off, 8);
        let (_, stream) = oracle_session_pipelined(Pipeline::Streaming, 8);
        let a = wave.execute(sql).unwrap();
        let b = stream.execute(sql).unwrap();
        // The list chain is identical in both dataflows (it is inherently
        // sequential); wave phases sum to the step clock pre-packing.
        assert_eq!(a.stats.list_virtual_ms, b.stats.list_virtual_ms);
        assert!(a.stats.list_virtual_ms > 0);
        assert!(a.stats.fetch_virtual_ms > 0);
        assert!(b.stats.fetch_virtual_ms > 0);
    }

    #[test]
    fn streaming_sessions_explain_the_pipeline() {
        let (_, g) = oracle_session_pipelined(Pipeline::Streaming, 8);
        let text = g
            .explain("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        assert!(text.contains("pipeline: streaming"));
        let (_, off) = oracle_session_pipelined(Pipeline::Off, 8);
        let text = off
            .explain("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        assert!(!text.contains("pipeline:"));
    }

    #[test]
    fn streaming_repeat_queries_are_served_from_sub_entries() {
        let (_, g) = oracle_session_pipelined(Pipeline::Streaming, 8);
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let first = g.execute(sql).unwrap();
        let second = g.execute(sql).unwrap();
        assert_eq!(first.relation.rows, second.relation.rows);
        assert_eq!(second.stats.filter_prompts, 0);
        assert_eq!(second.stats.fetch_prompts, 0);
        assert!(second.stats.cache_hits > 0);
        assert!(second.stats.virtual_ms < first.stats.virtual_ms);
    }

    #[test]
    fn pushdown_reduces_prompts() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let plain = Galois::new(model.clone(), s.database.clone());
        let pushed = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                compile: CompileOptions {
                    pushdown: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let sql = "SELECT name FROM city WHERE population > 1000000";
        let a = plain.execute(sql).unwrap();
        let b = pushed.execute(sql).unwrap();
        assert!(
            b.stats.total_prompts() < a.stats.total_prompts(),
            "pushdown {} vs plain {}",
            b.stats.total_prompts(),
            a.stats.total_prompts()
        );
    }
}
