//! Outside-in tracing: spans recorded around calls into each layer's
//! public functions, kept in memory and written out when the run ends.

use ps_core::alloc::{PointAllocation, PointScheduler};
use ps_core::exec::Threads;
use ps_core::model::SensorSnapshot;
use ps_core::query::PointQuery;
use ps_core::valuation::quality::QualityModel;
use ps_geo::SensorIndex;
use ps_solver::SolveStatus;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call: which layer, for which slot, when, and the span that
/// caused it (`None` for a root).
#[derive(Debug)]
struct Span {
    name: &'static str,
    slot: usize,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        slot: usize,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            slot,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Per `(slot, name)`: summed duration, summed self time (duration
    /// minus the part of it the span's children cover) and span count.
    pub fn per_slot(&self) -> BTreeMap<(usize, &'static str), SlotTotals> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<(usize, &'static str), SlotTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered_ms(s, children[i].iter().map(|&c| &self.spans[c]));
            let e = out.entry((s.slot, s.name)).or_default();
            e.ms += s.ms();
            e.self_ms += s.ms() - covered;
            e.calls += 1;
        }
        out
    }

    /// Writes every span as one JSON line (times in µs since the tracer
    /// was created).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"slot\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}",
                s.name,
                s.slot,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}

/// Summed timings of one span name within one slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotTotals {
    pub ms: f64,
    pub self_ms: f64,
    pub calls: usize,
}

/// Length of the union of `children`'s intervals clipped to `parent`.
fn covered_ms<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> f64 {
    let mut iv: Vec<(Instant, Instant)> = children
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort();
    let mut total = 0.0;
    let mut cur: Option<(Instant, Instant)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += (cb - ca).as_secs_f64() * 1e3;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += (cb - ca).as_secs_f64() * 1e3;
    }
    total
}

/// One scheduler call seen by [`TimedScheduler`].
#[derive(Debug, Clone, Copy)]
pub struct AllocCall {
    pub start: Instant,
    pub end: Instant,
    pub queries: usize,
    pub status: Option<SolveStatus>,
}

/// Calls recorded by a [`TimedScheduler`], drained by the driver after
/// each slot.
pub type AllocLog = Arc<Mutex<Vec<AllocCall>>>;

/// A [`PointScheduler`] that times every call into the wrapped one.
///
/// All three entry points forward to the same entry point of the inner
/// scheduler: the trait's default bodies would drop the spatial index
/// and the thread budget, silently switching the engine to brute-force
/// candidate scans.
pub struct TimedScheduler<S> {
    inner: S,
    log: AllocLog,
}

impl<S> TimedScheduler<S> {
    pub fn new(inner: S, log: AllocLog) -> Self {
        TimedScheduler { inner, log }
    }

    fn timed(&self, queries: usize, call: impl FnOnce() -> PointAllocation) -> PointAllocation {
        let start = Instant::now();
        let alloc = call();
        let end = Instant::now();
        self.log
            .lock()
            .expect("no scheduler call panicked while holding the log")
            .push(AllocCall {
                start,
                end,
                queries,
                status: alloc.solve_status,
            });
        alloc
    }
}

impl<S: PointScheduler> PointScheduler for TimedScheduler<S> {
    fn schedule(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
    ) -> PointAllocation {
        self.timed(queries.len(), || {
            self.inner.schedule(queries, sensors, quality)
        })
    }

    fn schedule_indexed(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
    ) -> PointAllocation {
        self.timed(queries.len(), || {
            self.inner
                .schedule_indexed(queries, sensors, quality, index)
        })
    }

    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation {
        self.timed(queries.len(), || {
            self.inner
                .schedule_sharded(queries, sensors, quality, index, threads)
        })
    }
}
