//! Named phase timers: coarse, always-on wall-clock attribution.
//!
//! A [`Phases`] accumulator lives wherever timing is collected (a
//! scorer, a stream window) and aggregates `(nanos, count)` per phase
//! name. Scopes are timed with the [`ScopeGuard`] that
//! [`Phases::enter`] returns; the same guard records a span of the
//! same name while the global [`crate::Recorder`] is on, so phase
//! tables and traces share one set of names. Snapshots come out as
//! `Vec<PhaseTiming>` — the payload of `Diagnostics.phases`.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Accumulated wall-clock time of one named phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase name, dotted by convention (`"dt.split"`, `"run.merge"`).
    pub name: &'static str,
    /// Total nanoseconds spent in the phase.
    pub nanos: u64,
    /// Number of times the phase ran.
    pub count: u64,
}

impl PhaseTiming {
    /// Total time in milliseconds.
    pub fn millis(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

/// Merges `src` into `dst`, summing nanos/count of same-named phases
/// and preserving first-seen order.
pub fn merge_phases(dst: &mut Vec<PhaseTiming>, src: impl IntoIterator<Item = PhaseTiming>) {
    for p in src {
        match dst.iter_mut().find(|d| d.name == p.name) {
            Some(d) => {
                d.nanos += p.nanos;
                d.count += p.count;
            }
            None => dst.push(p),
        }
    }
}

/// A thread-safe phase-timing accumulator. Interior mutability so
/// `&self` methods deep inside an engine can record; the phase list is
/// short (tens of entries), so a mutex-guarded vec is cheap.
#[derive(Debug, Default)]
pub struct Phases {
    /// Each phase with the instant its first scope was entered, in that
    /// order — so an enclosing phase lists before the phases it
    /// contains, although it closes after them.
    inner: Mutex<Vec<(Instant, PhaseTiming)>>,
}

impl Phases {
    /// An empty accumulator.
    pub fn new() -> Self {
        Phases::default()
    }

    /// Opens a scope timed as phase `name`; it closes when the guard is
    /// dropped or [finished](ScopeGuard::finish).
    pub fn enter(&self, name: &'static str) -> ScopeGuard<'_> {
        ScopeGuard { name, phases: Some(self), start: Some(Instant::now()) }
    }

    /// Runs `f` inside a scope timed as phase `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _scope = self.enter(name);
        f()
    }

    /// Adds raw `(nanos, count)` to `name`.
    pub fn add_nanos(&self, name: &'static str, nanos: u64, count: u64) {
        self.record(name, Instant::now(), nanos, count);
    }

    /// A copy of the accumulated timings, in first-entered order.
    pub fn snapshot(&self) -> Vec<PhaseTiming> {
        self.lock().iter().map(|(_, p)| p.clone()).collect()
    }

    /// Takes the accumulated timings, leaving the accumulator empty.
    pub fn take(&self) -> Vec<PhaseTiming> {
        std::mem::take(&mut *self.lock()).into_iter().map(|(_, p)| p).collect()
    }

    /// Adds `(nanos, count)` to `name`; a new phase takes its place by
    /// `entered`. Among equal instants it goes first: it closed last, so
    /// it encloses the others.
    fn record(&self, name: &'static str, entered: Instant, nanos: u64, count: u64) {
        let mut list = self.lock();
        if let Some((_, p)) = list.iter_mut().find(|(_, p)| p.name == name) {
            p.nanos += nanos;
            p.count += count;
        } else {
            let at = list.partition_point(|(first, _)| *first < entered);
            list.insert(at, (entered, PhaseTiming { name, nanos, count }));
        }
    }

    // Every update completes under the lock, so a poisoned list is
    // still consistent; recovering keeps a guard dropped during an
    // unwind from panicking.
    fn lock(&self) -> MutexGuard<'_, Vec<(Instant, PhaseTiming)>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard over one timed scope, returned by [`Phases::enter`] (a
/// phase) and by [`span!`](crate::span) (a trace-only scope). It reads
/// the clock once at entry and once at exit. On exit it adds the
/// elapsed time to its phase list, if it has one, and records a span of
/// the same name while the global recorder is on. Closing never panics,
/// so a guard may drop during an unwind.
#[must_use = "a scope guard times until dropped; binding it to _ closes it immediately"]
pub struct ScopeGuard<'p> {
    name: &'static str,
    phases: Option<&'p Phases>,
    /// `None` once closed.
    start: Option<Instant>,
}

impl ScopeGuard<'static> {
    /// Opens a trace-only scope: a span named `name`, no phase. This is
    /// what [`span!`](crate::span) expands to.
    pub fn span(name: &'static str) -> Self {
        ScopeGuard { name, phases: None, start: Some(Instant::now()) }
    }
}

impl ScopeGuard<'_> {
    /// Closes the scope now and returns its elapsed wall-clock time.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let Some(start) = self.start.take() else { return Duration::ZERO };
        let elapsed = start.elapsed();
        if let Some(phases) = self.phases {
            phases.record(self.name, start, elapsed.as_nanos() as u64, 1);
        }
        crate::recorder().record(self.name, start, elapsed);
        elapsed
    }
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_by_name() {
        let p = Phases::new();
        p.add_nanos("a", 10, 1);
        p.add_nanos("b", 5, 1);
        p.add_nanos("a", 30, 2);
        let snap = p.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], PhaseTiming { name: "a", nanos: 40, count: 3 });
        assert_eq!(snap[1].name, "b");
    }

    #[test]
    fn time_charges_the_closure() {
        let p = Phases::new();
        let v = p.time("work", || 7);
        assert_eq!(v, 7);
        let snap = p.snapshot();
        assert_eq!(snap[0].count, 1);
    }

    #[test]
    fn enclosing_phase_lists_first() {
        let p = Phases::new();
        {
            let _outer = p.enter("outer");
            p.time("inner", || ());
            p.time("inner", || ());
        }
        let snap = p.snapshot();
        let names: Vec<_> = snap.iter().map(|t| (t.name, t.count)).collect();
        assert_eq!(names, [("outer", 1), ("inner", 2)]);
        assert!(snap[0].nanos >= snap[1].nanos);
    }

    #[test]
    fn finish_returns_elapsed_and_records_once() {
        let p = Phases::new();
        let scope = p.enter("timed");
        std::thread::sleep(Duration::from_millis(2));
        let elapsed = scope.finish();
        assert!(elapsed >= Duration::from_millis(2));
        assert_eq!(
            p.snapshot(),
            [PhaseTiming { name: "timed", nanos: elapsed.as_nanos() as u64, count: 1 }]
        );
    }

    #[test]
    fn guard_dropped_in_an_unwind_records_and_leaves_phases_usable() {
        let p = Phases::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = p.enter("obs.test.unwind");
            panic!("scope body failed");
        }));
        assert!(caught.is_err());
        assert_eq!(p.snapshot()[0].name, "obs.test.unwind");
        assert_eq!(p.snapshot()[0].count, 1);
        p.time("after", || ());
        assert_eq!(p.take().len(), 2);
    }

    #[test]
    fn take_drains() {
        let p = Phases::new();
        p.add_nanos("a", 1, 1);
        assert_eq!(p.take().len(), 1);
        assert!(p.snapshot().is_empty());
    }

    #[test]
    fn merge_preserves_order() {
        let mut dst = vec![PhaseTiming { name: "x", nanos: 1, count: 1 }];
        merge_phases(
            &mut dst,
            [
                PhaseTiming { name: "y", nanos: 2, count: 1 },
                PhaseTiming { name: "x", nanos: 3, count: 1 },
            ],
        );
        assert_eq!(dst[0], PhaseTiming { name: "x", nanos: 4, count: 2 });
        assert_eq!(dst[1].name, "y");
    }
}
