//! The global span recorder: fine-grained, off-by-default tracing.
//!
//! Every [`ScopeGuard`] — a phase from [`crate::Phases::enter`] or a
//! trace-only [`span!`] — offers its scope here when it closes. While
//! the recorder is disabled — the default — that costs one relaxed
//! atomic load. Enabled, finished spans land in a thread-local buffer
//! that flushes to a bounded global ring; [`Recorder::drain`] takes the
//! ring for export (e.g. as a Chrome trace).
//!
//! [`ScopeGuard`]: crate::ScopeGuard
//! [`span!`]: crate::span

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A completed span: name, start offset from the recorder epoch, and
/// duration, both in microseconds, plus the recording thread's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Name of the scope that recorded the span.
    pub name: &'static str,
    /// Start time, microseconds since the recorder was first enabled.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small dense id of the recording thread (assigned on first use).
    pub tid: u64,
}

/// Spans the global ring retains before dropping the oldest.
const RING_CAPACITY: usize = 1 << 16;
/// Thread-local buffer size that triggers a flush to the ring.
const FLUSH_AT: usize = 64;

/// The global span recorder. One instance per process, reached via
/// [`recorder`].
pub struct Recorder {
    enabled: AtomicBool,
    ring: Mutex<Vec<Span>>,
    dropped: AtomicU64,
    next_tid: AtomicU64,
}

static RECORDER: Recorder = Recorder {
    enabled: AtomicBool::new(false),
    ring: Mutex::new(Vec::new()),
    dropped: AtomicU64::new(0),
    next_tid: AtomicU64::new(1),
};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process-wide recorder.
pub fn recorder() -> &'static Recorder {
    &RECORDER
}

struct ThreadBuf {
    tid: u64,
    spans: Vec<Span>,
}

impl Drop for ThreadBuf {
    // Worker threads (e.g. scoped scoring threads) exit before the
    // request drains the ring; hand their tail of spans over on the
    // way out.
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            RECORDER.push_all(&mut self.spans);
        }
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        tid: RECORDER.next_tid.fetch_add(1, Ordering::Relaxed),
        spans: Vec::new(),
    });
}

impl Recorder {
    /// Whether spans are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on (idempotent). Fixes the trace epoch on first
    /// call.
    pub fn enable(&self) {
        EPOCH.get_or_init(Instant::now);
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns recording off. Already-buffered spans stay drainable.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Takes all completed spans (flushing the calling thread's buffer
    /// first), ordered by flush time. Spans still buffered on *other*
    /// live threads are not included until those threads flush.
    pub fn drain(&self) -> Vec<Span> {
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            if !b.spans.is_empty() {
                let mut spans = std::mem::take(&mut b.spans);
                self.push_all(&mut spans);
            }
        });
        std::mem::take(&mut self.ring())
    }

    /// Spans dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    // Ring updates complete under the lock, so a poisoned ring is still
    // consistent; recovering keeps a closing guard from panicking.
    fn ring(&self) -> MutexGuard<'_, Vec<Span>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push_all(&self, spans: &mut Vec<Span>) {
        let mut ring = self.ring();
        ring.append(spans);
        if ring.len() > RING_CAPACITY {
            let overflow = ring.len() - RING_CAPACITY;
            ring.drain(..overflow);
            self.dropped.fetch_add(overflow as u64, Ordering::Relaxed);
        }
    }

    /// Records a closed scope as a span, if the recorder is on. Called
    /// by [`crate::ScopeGuard`] on close; never panics (a thread whose
    /// buffer is already torn down drops the span).
    pub(crate) fn record(&self, name: &'static str, start: Instant, elapsed: Duration) {
        if !self.enabled() {
            return;
        }
        let epoch = *EPOCH.get_or_init(Instant::now);
        let span = Span {
            name,
            start_us: start.saturating_duration_since(epoch).as_micros() as u64,
            dur_us: elapsed.as_micros() as u64,
            tid: 0,
        };
        let _ = BUF.try_with(|b| {
            let mut b = b.borrow_mut();
            let tid = b.tid;
            b.spans.push(Span { tid, ..span });
            if b.spans.len() >= FLUSH_AT {
                let mut spans = std::mem::take(&mut b.spans);
                self.push_all(&mut spans);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is a process-global; tests share it, so each test
    // serializes on a lock, filters for its own span names, and
    // restores the disabled state.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_yields_no_spans() {
        let _g = test_lock();
        let r = recorder();
        r.disable();
        drop(crate::span!("obs.test.disabled"));
        assert!(!r.drain().iter().any(|s| s.name == "obs.test.disabled"));
    }

    #[test]
    fn phase_scope_records_a_span_of_the_same_name() {
        let _g = test_lock();
        let r = recorder();
        let phases = crate::Phases::new();
        r.enable();
        let elapsed = phases.enter("obs.test.phase").finish();
        r.disable();
        let spans = r.drain();
        let span = spans.iter().find(|s| s.name == "obs.test.phase").expect("phase span");
        assert_eq!(span.dur_us, elapsed.as_micros() as u64);
        assert_eq!(phases.snapshot()[0].name, "obs.test.phase");
    }

    #[test]
    fn enabled_recorder_captures_nested_spans() {
        let _g = test_lock();
        let r = recorder();
        r.enable();
        {
            let _outer = crate::span!("obs.test.outer");
            let _inner = crate::span!("obs.test.inner");
        }
        r.disable();
        let spans = r.drain();
        let outer = spans.iter().find(|s| s.name == "obs.test.outer").expect("outer span");
        let inner = spans.iter().find(|s| s.name == "obs.test.inner").expect("inner span");
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.dur_us <= outer.dur_us);
        assert_eq!(inner.tid, outer.tid);
    }

    #[test]
    fn worker_thread_spans_flush_on_exit() {
        let _g = test_lock();
        let r = recorder();
        r.enable();
        std::thread::spawn(|| {
            let _s = crate::span!("obs.test.worker");
        })
        .join()
        .unwrap();
        r.disable();
        let spans = r.drain();
        assert!(spans.iter().any(|s| s.name == "obs.test.worker"), "{spans:?}");
    }
}
