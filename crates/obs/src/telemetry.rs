//! The flight recorder: a bounded ring of per-request telemetry events.
//!
//! Where the span [`crate::Recorder`] answers "where did *this* run
//! spend its time", the flight recorder answers "what did the *service*
//! do lately": one compact [`TelemetryEvent`] per completed request
//! (server), run (CLI), or slide (continuous session), kept in a
//! bounded ring that new events overwrite oldest-first. The ring is the
//! substrate of the self-explain loop — `Telemetry::to_table()` (in
//! `scorpion-core`, which can see the table crate) materializes it as a
//! relation the engine itself can explain.
//!
//! Cost model mirrors the span recorder: while disabled (the default),
//! [`Telemetry::record`] is one relaxed atomic load and an immediate
//! return. Enabled, a writer claims a slot with one `fetch_add` and
//! stores the event under that slot's (uncontended) lock — writers
//! never contend on a shared lock, and the ring never exceeds its
//! bound.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default ring capacity in events.
pub const DEFAULT_TELEMETRY_EVENTS: usize = 4096;

/// What a request observed about one cache layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheHit {
    /// The cache answered.
    Hit,
    /// The cache was consulted and missed.
    Miss,
    /// The path has no such cache (e.g. a one-shot CLI run has no plan
    /// cache), or never consulted it (a run whose every predicate the
    /// influence cache answered looks up no clause mask).
    Off,
}

impl CacheHit {
    /// The flag as a categorical column value.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheHit::Hit => "hit",
            CacheHit::Miss => "miss",
            CacheHit::Off => "off",
        }
    }

    /// `Hit` when `hit`, else `Miss`.
    pub fn from_flag(hit: bool) -> CacheHit {
        if hit {
            CacheHit::Hit
        } else {
            CacheHit::Miss
        }
    }
}

/// One completed request/run/slide, as the flight recorder keeps it.
///
/// Every field is either a small categorical dimension (what kind of
/// work was this) or a numeric measure (what did it cost) — exactly the
/// split `scorpion-core`'s `to_table` adapter needs to turn the ring
/// into an explainable relation.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Process-wide request trace id (the `x-scorpion-trace-id` value).
    pub trace_id: u64,
    /// Which surface handled the work (`"explain"`, `"cli.explain"`,
    /// `"stream.slide"`, …).
    pub endpoint: String,
    /// Table the request ran against (`"-"` when not applicable).
    pub table: String,
    /// Registry generation of that table (0 when not applicable).
    pub generation: u64,
    /// Resolved algorithm (`"dt"`, `"mc"`, `"naive"`, `"dt-stream"`,
    /// `"-"` for non-explain endpoints).
    pub algorithm: String,
    /// Aggregate operator name (`"avg"`, `"p99"`, `"-"`).
    pub aggregate: String,
    /// Plan-cache observation.
    pub plan_cache: CacheHit,
    /// Influence-cache observation (hit when any lookup was answered).
    pub influence_cache: CacheHit,
    /// Clause-mask-cache observation.
    pub mask_cache: CacheHit,
    /// Microseconds the request waited for a worker before running.
    pub queue_wait_us: u64,
    /// Per-phase microseconds from the run's `Phases` attribution.
    pub phases_us: Vec<(&'static str, u64)>,
    /// Rows of the backing relation the run scanned.
    pub rows_scanned: u64,
    /// Resident bytes of the producing window (0 offline).
    pub resident_bytes: u64,
    /// Ranked predicates returned.
    pub predicates: u64,
    /// HTTP-style status (200 = success, even off the wire).
    pub status: u16,
    /// Total handling latency in microseconds.
    pub total_us: u64,
}

impl TelemetryEvent {
    /// An empty event: every dimension `"-"`, every measure 0. Fill in
    /// what the path knows.
    pub fn blank(trace_id: u64, endpoint: &str) -> TelemetryEvent {
        TelemetryEvent {
            trace_id,
            endpoint: endpoint.to_owned(),
            table: "-".to_owned(),
            generation: 0,
            algorithm: "-".to_owned(),
            aggregate: "-".to_owned(),
            plan_cache: CacheHit::Off,
            influence_cache: CacheHit::Off,
            mask_cache: CacheHit::Off,
            queue_wait_us: 0,
            phases_us: Vec::new(),
            rows_scanned: 0,
            resident_bytes: 0,
            predicates: 0,
            status: 0,
            total_us: 0,
        }
    }

    /// The top `k` phases by elapsed time, descending.
    pub fn top_phases(&self, k: usize) -> Vec<(&'static str, u64)> {
        let mut phases = self.phases_us.clone();
        phases.sort_by_key(|p| std::cmp::Reverse(p.1));
        phases.truncate(k);
        phases
    }
}

struct Ring {
    slots: Vec<Mutex<Option<TelemetryEvent>>>,
    /// Total events ever recorded; claims slots modulo capacity.
    next: AtomicU64,
}

/// The process-wide flight recorder, reached via [`telemetry`].
pub struct Telemetry {
    enabled: AtomicBool,
    ring: OnceLock<Ring>,
}

static TELEMETRY: Telemetry = Telemetry { enabled: AtomicBool::new(false), ring: OnceLock::new() };

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// The process-wide flight recorder.
pub fn telemetry() -> &'static Telemetry {
    &TELEMETRY
}

/// Issues the next process-wide trace id (unique per process lifetime,
/// starting at 1). The server, the CLI, and continuous sessions all
/// draw from this one sequence, so a slide event and an HTTP response
/// header are correlatable by id.
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

impl Telemetry {
    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on with the default ring capacity (idempotent).
    pub fn enable(&self) {
        self.enable_with_capacity(DEFAULT_TELEMETRY_EVENTS);
    }

    /// Turns recording on; the *first* enable fixes the ring capacity
    /// (at least 1) for the process lifetime.
    pub fn enable_with_capacity(&self, capacity: usize) {
        self.ring.get_or_init(|| Ring {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        });
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns recording off. Already-recorded events stay readable.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Ring capacity in events (0 before the first enable).
    pub fn capacity(&self) -> usize {
        self.ring.get().map(|r| r.slots.len()).unwrap_or(0)
    }

    /// Total events recorded since the first enable (not bounded by the
    /// ring: old events are overwritten, the count keeps climbing).
    pub fn recorded(&self) -> u64 {
        self.ring.get().map(|r| r.next.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Records one event. One relaxed atomic load and an immediate
    /// return while disabled; enabled, one `fetch_add` claims a slot
    /// and the event is stored under that slot's uncontended lock.
    #[inline]
    pub fn record(&self, event: TelemetryEvent) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let Some(ring) = self.ring.get() else { return };
        let idx = ring.next.fetch_add(1, Ordering::Relaxed) as usize % ring.slots.len();
        *ring.slots[idx].lock().unwrap_or_else(|e| e.into_inner()) = Some(event);
    }

    /// A copy of the resident events, oldest first. Length is
    /// `min(recorded, capacity)` once concurrent writers quiesce.
    pub fn snapshot(&self) -> Vec<TelemetryEvent> {
        let Some(ring) = self.ring.get() else { return Vec::new() };
        let cap = ring.slots.len() as u64;
        let total = ring.next.load(Ordering::Relaxed);
        let start = total.saturating_sub(cap);
        (start..total)
            .filter_map(|i| {
                ring.slots[(i % cap) as usize].lock().unwrap_or_else(|e| e.into_inner()).clone()
            })
            .collect()
    }

    /// Empties the ring and resets the recorded count. Intended for
    /// tests sharing the process-wide recorder; racing concurrent
    /// writers may leave a freshly recorded event behind.
    pub fn clear(&self) {
        let Some(ring) = self.ring.get() else { return };
        for slot in &ring.slots {
            *slot.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
        ring.next.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is a process-global shared by every test in this
    // binary: serialize and clear around each use.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_clean_ring(f: impl FnOnce()) {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        telemetry().enable();
        telemetry().clear();
        f();
        telemetry().disable();
        telemetry().clear();
    }

    fn ev(id: u64) -> TelemetryEvent {
        let mut e = TelemetryEvent::blank(id, "test");
        e.total_us = id * 10;
        e
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        telemetry().enable();
        telemetry().clear();
        telemetry().disable();
        let before = telemetry().recorded();
        telemetry().record(ev(1));
        assert_eq!(telemetry().recorded(), before);
        assert!(telemetry().snapshot().is_empty());
        telemetry().clear();
    }

    #[test]
    fn snapshot_is_oldest_first_and_bounded() {
        with_clean_ring(|| {
            let cap = telemetry().capacity();
            assert!(cap >= 1);
            let n = (cap as u64) + 7;
            for i in 0..n {
                telemetry().record(ev(i));
            }
            assert_eq!(telemetry().recorded(), n);
            let snap = telemetry().snapshot();
            assert_eq!(snap.len(), cap, "ring must not exceed its bound");
            // The survivors are the newest `cap` events, oldest first.
            assert_eq!(snap.first().unwrap().trace_id, n - cap as u64);
            assert_eq!(snap.last().unwrap().trace_id, n - 1);
        });
    }

    /// Law: under concurrent writers the ring never exceeds its bound,
    /// and the recorded count equals the writes issued. Readers snapshot
    /// mid-storm and must always observe `len <= capacity`.
    #[test]
    fn concurrent_writers_never_exceed_the_bound() {
        with_clean_ring(|| {
            let cap = telemetry().capacity();
            const WRITERS: u64 = 8;
            let per_writer = (cap as u64 / 2).max(64);
            std::thread::scope(|s| {
                for w in 0..WRITERS {
                    s.spawn(move || {
                        for i in 0..per_writer {
                            telemetry().record(ev(w * per_writer + i));
                        }
                    });
                }
                // A racing reader: every mid-storm snapshot is bounded.
                s.spawn(|| {
                    for _ in 0..50 {
                        assert!(telemetry().snapshot().len() <= telemetry().capacity());
                    }
                });
            });
            assert_eq!(telemetry().recorded(), WRITERS * per_writer);
            let snap = telemetry().snapshot();
            assert_eq!(snap.len(), (WRITERS * per_writer).min(cap as u64) as usize);
        });
    }

    #[test]
    fn top_phases_ranks_by_elapsed() {
        let mut e = TelemetryEvent::blank(1, "x");
        e.phases_us = vec![("a", 5), ("b", 50), ("c", 20)];
        assert_eq!(e.top_phases(2), vec![("b", 50), ("c", 20)]);
    }
}
