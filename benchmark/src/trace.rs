//! In-memory spans around calls into each layer, recorded from the
//! benchmark's side of the layer's public functions.
//!
//! A span has a name (`<layer>.<operation>`), a start and an end in
//! nanoseconds since the tracer was made, the span that caused it and the
//! query it served. Spans stay in memory until the run ends; then they
//! are written out as Chrome trace-event JSON and folded into a self-time
//! table per layer.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Marks "no open span" in [`Tracer::current`].
const NONE: usize = usize::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and operation, e.g. `core.session.execute`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Query the span served (`0` outside queries).
    pub query: u64,
    /// Small id of the recording thread.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. Spans opened with [`Tracer::span`] nest on the
/// harness thread; leaves recorded from any thread (the engine's lane
/// threads included) hang under the harness's innermost open span.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Innermost open harness span, or [`NONE`].
    current: AtomicUsize,
    /// Query id new spans are tagged with.
    query: AtomicU64,
}

thread_local! {
    static THREAD_ID: Cell<u32> = const { Cell::new(0) };
}
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(1);

fn thread_id() -> u32 {
    THREAD_ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed) as u32);
        }
        id.get()
    })
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicUsize::new(NONE),
            query: AtomicU64::new(0),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags spans opened from now on with `query`.
    pub fn set_query(&self, query: u64) {
        self.query.store(query, Ordering::Relaxed);
    }

    fn parent(&self) -> Option<usize> {
        match self.current.load(Ordering::Acquire) {
            NONE => None,
            index => Some(index),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span. Call from the harness thread only.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.parent();
        let index = {
            let mut spans = self.spans.lock().expect("no span writer panicked");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                query: self.query.load(Ordering::Relaxed),
                thread: thread_id(),
            });
            spans.len() - 1
        };
        self.current.store(index, Ordering::Release);
        let out = f();
        let end = self.now_ns();
        self.spans.lock().expect("no span writer panicked")[index].end_ns = end;
        self.current
            .store(parent.unwrap_or(NONE), Ordering::Release);
        out
    }

    /// Records a finished leaf span under the innermost open harness span.
    pub fn leaf(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let span = Span {
            name,
            start_ns,
            end_ns,
            parent: self.parent(),
            query: self.query.load(Ordering::Relaxed),
            thread: thread_id(),
        };
        self.spans
            .lock()
            .expect("no span writer panicked")
            .push(span);
    }

    /// Number of spans recorded so far (a cursor into [`Tracer::spans`]).
    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("no span writer panicked").len()
    }

    /// Copies of all spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panicked").clone()
    }
}

/// Total and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded under this name.
    pub count: usize,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of span durations minus the part covered by child spans.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals. `spans[i].parent` indexes into `spans`.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            span.ns()
                .saturating_sub(union_ns(kids, span.start_ns, span.end_ns))
        })
        .collect()
}

/// Folds the spans in `range` into per-name total and self time, given
/// every span's self time from [`self_ns`].
pub fn layer_table(
    spans: &[Span],
    self_ns: &[u64],
    range: std::ops::Range<usize>,
) -> BTreeMap<&'static str, LayerTime> {
    let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for i in range {
        let row = table.entry(spans[i].name).or_default();
        row.count += 1;
        row.total_ns += spans[i].ns();
        row.self_ns += self_ns[i];
    }
    table
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Renders the self-time table, heaviest self time first.
pub fn render_table(table: &BTreeMap<&'static str, LayerTime>) -> String {
    let mut rows: Vec<_> = table.iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    let all_self: u64 = rows.iter().map(|(_, t)| t.self_ns).sum();
    let mut out = format!(
        "{:<28} {:>9} {:>12} {:>12} {:>7}\n",
        "layer span", "count", "total_ms", "self_ms", "self%"
    );
    for (name, t) in rows {
        out.push_str(&format!(
            "{:<28} {:>9} {:>12.3} {:>12.3} {:>6.1}%\n",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / all_self.max(1) as f64,
        ));
    }
    out
}

/// Writes `spans` as Chrome trace-event JSON (complete `"X"` events,
/// microsecond timestamps), at most `limit` of them.
pub fn write_chrome_trace(path: &Path, spans: &[Span], limit: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
    for (i, span) in spans.iter().take(limit).enumerate() {
        let parent = span.parent.map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"query\":{}}}}}",
            if i == 0 { "" } else { "," },
            span.name,
            span.name.split('.').next().unwrap_or(span.name),
            span.start_ns as f64 / 1e3,
            span.ns() as f64 / 1e3,
            span.thread,
            i,
            parent,
            span.query,
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: 0,
            thread: 1,
        };
        let spans = vec![
            span("a", 0, 100, None),
            span("b", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("b", 90, 120, Some(0)),
        ];
        let table = layer_table(&spans, &self_ns(&spans), 0..spans.len());
        // Children cover [10, 40) and [90, 100) of the parent.
        assert_eq!(table["a"].self_ns, 100 - 30 - 10);
        assert_eq!(table["b"].count, 3);
        assert_eq!(table["b"].self_ns, 20 + 20 + 30);
    }
}
