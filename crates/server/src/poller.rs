//! The readiness poller: the request-grained heart of the server.
//!
//! One poller thread owns the (non-blocking) listener and every parked
//! connection. It sleeps in `epoll_wait(2)` until a socket has bytes,
//! feeds them through the connection's incremental [`RequestParser`],
//! and hands each *complete parsed request* to the bounded
//! [`WorkerPool`]. The connection travels with the request into the
//! worker; after the response is written, keep-alive connections come
//! back through the [`ReturnQueue`] (a self-pipe wakes the poller) and
//! park again.
//!
//! Each accepted socket is registered once, `EPOLLIN | EPOLLONESHOT`,
//! with its slot in the poller's slab as the token. An event disarms the
//! registration, so a connection in a worker's hands raises none; the
//! poller re-arms it (`EPOLL_CTL_MOD`) when it parks the connection
//! again, and the kernel reports bytes that arrived meanwhile at once.
//! A wake-up costs the events it reports, not a pass over every parked
//! socket, and timeouts are swept once per tick. Only the poller thread
//! touches registrations; closing a socket, on any thread, removes its
//! own.
//!
//! Worker occupancy therefore tracks **in-flight requests, not open
//! sockets**: a thousand idle keep-alive dashboards cost a thousand
//! parked fds and zero workers, and a slow client can only burn the
//! poller's non-blocking read, never a worker thread.
//!
//! Slow clients are bounded in both directions: a connection that has
//! started a request but not completed it within the read timeout is
//! closed with 408 (slowloris defense), an idle parked connection is
//! silently closed after the idle timeout, and response writes carry a
//! write timeout (a peer that stops draining gets dropped, counted in
//! `write_timeouts`).

#[cfg(not(target_os = "linux"))]
compile_error!("the scorpion-server poller is built on epoll(7), which only Linux provides");

use crate::http::{error_response, Feed, Request, RequestParser, Response};
use crate::pool::{SubmitError, WorkerPool};
use crate::server::{dispatch_recorded, RequestContext, ServerState};
use crate::stats::Endpoint;
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raw `epoll(7)` binding — the readiness syscalls the server needs,
/// wrapped without a libc dependency.
mod sys {
    use std::ffi::c_int;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    /// The descriptor is readable (or at end of stream).
    pub const EPOLLIN: u32 = 0x001;
    /// Disarm the registration after one event, until `EPOLL_CTL_MOD`.
    pub const EPOLLONESHOT: u32 = 1 << 30;
    /// `accept` fails: the process has no descriptor free.
    pub const EMFILE: i32 = 24;
    /// `accept` fails: the system has no descriptor free.
    pub const ENFILE: i32 = 23;
    const EPOLL_CLOEXEC: c_int = 0o2_000_000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_MOD: c_int = 3;

    /// `struct epoll_event`. The kernel packs it on x86-64 (12 bytes,
    /// `data` at offset 4) and aligns it naturally elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    fn check(rc: c_int) -> io::Result<c_int> {
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(rc)
        }
    }

    /// An epoll instance, closed on drop.
    pub struct Epoll {
        fd: OwnedFd,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers.
            let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            // SAFETY: `fd` is a descriptor epoll_create1 just opened, and
            // nothing else owns it.
            Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
        }

        /// Registers `fd` for `events`, reported with `token`.
        pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Changes a registered `fd`'s events and token; this re-arms a
        /// oneshot registration its last event disarmed.
        pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent { events, data: token };
            // SAFETY: `event` is a live `struct epoll_event` in the
            // kernel's layout for the whole call, which only reads it.
            check(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) }).map(drop)
        }

        /// Waits up to `timeout_ms` for events, retrying on EINTR, and
        /// returns the ready ones (at most `events.len()`).
        pub fn wait<'a>(
            &self,
            events: &'a mut [EpollEvent],
            timeout_ms: c_int,
        ) -> io::Result<&'a [EpollEvent]> {
            let max = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
            loop {
                // SAFETY: `events` is writable for `max` entries in the
                // kernel's layout, and the kernel writes at most `max`.
                let rc = unsafe {
                    epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, timeout_ms)
                };
                match check(rc) {
                    Ok(n) => return Ok(&events[..n as usize]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
    }
}

/// Poller timeouts, resolved from `ServerConfig` milliseconds.
#[derive(Clone, Copy)]
pub(crate) struct PollerConfig {
    /// Max time a connection may sit mid-request before 408/close.
    pub read_timeout: Duration,
    /// Max time a parked connection may idle between requests.
    pub idle_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
}

/// One accepted connection: the socket plus its resumable parse state.
/// Closing is dropping — the `Drop` impl keeps the open-connection
/// gauge honest no matter which thread lets go of the connection.
pub(crate) struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    last_activity: Instant,
    state: Arc<ServerState>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.state.stats.connection_closed();
    }
}

/// The worker → poller hand-back channel: finished keep-alive
/// connections queue here, and a byte on the self-pipe wakes the poller
/// out of `epoll_wait(2)` to re-park them.
pub(crate) struct ReturnQueue {
    queue: Mutex<Vec<Conn>>,
    wake: UnixStream,
}

impl ReturnQueue {
    /// Returns a connection to the poller for re-parking.
    pub fn give(&self, conn: Conn) {
        self.queue.lock().push(conn);
        let _ = (&self.wake).write(&[1]);
    }
}

/// Read chunk size for draining ready sockets.
const READ_CHUNK: usize = 16 << 10;

/// Poll tick: the upper bound on stop-flag latency, and the interval of
/// the timeout sweep.
const POLL_TICK_MS: i32 = 100;

/// Events taken from the kernel per `epoll_wait(2)` call.
const MAX_EVENTS: usize = 256;

/// Tokens of the two registrations that are not connections; a
/// connection's token is its slab slot.
const LISTENER: u64 = u64::MAX;
const WAKE: u64 = u64::MAX - 1;

/// Bound on post-error drains (see [`respond_and_close`]).
const CLOSE_DRAIN_BYTES: u64 = 256 << 10;

/// The connections the poller holds, each in the slab slot its epoll
/// token names, and the epoll instance they are registered with.
struct Parked {
    epoll: sys::Epoll,
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
}

impl Parked {
    /// Holds `conn` and arms its oneshot registration with its slot as
    /// the token: `fresh` registers a newly accepted socket, otherwise
    /// the registration its last event disarmed is re-armed. A socket
    /// the kernel will not watch is closed.
    fn park(&mut self, conn: Conn, fresh: bool) {
        let fd = conn.stream.as_raw_fd();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(conn);
                slot
            }
            None => {
                self.slots.push(Some(conn));
                self.slots.len() - 1
            }
        };
        let events = sys::EPOLLIN | sys::EPOLLONESHOT;
        let armed = if fresh {
            self.epoll.add(fd, events, slot as u64)
        } else {
            self.epoll.modify(fd, events, slot as u64)
        };
        if armed.is_err() {
            drop(self.take(slot));
        }
    }

    /// Takes the connection out of `slot`, if it holds one.
    fn take(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(slot)?.take()?;
        self.free.push(slot);
        Some(conn)
    }

    /// Connections held.
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// The poller: accept loop + parked-connection readiness loop.
pub(crate) struct Poller {
    listener: TcpListener,
    state: Arc<ServerState>,
    pool: WorkerPool,
    stop: Arc<AtomicBool>,
    cfg: PollerConfig,
}

impl Poller {
    pub fn new(
        listener: TcpListener,
        state: Arc<ServerState>,
        pool: WorkerPool,
        stop: Arc<AtomicBool>,
        cfg: PollerConfig,
    ) -> Poller {
        Poller { listener, state, pool, stop, cfg }
    }

    /// Runs until the stop flag is set. Transient wait/accept errors are
    /// tolerated (EMFILE under fd pressure, ECONNABORTED races); only a
    /// persistently failing `epoll_wait` is fatal.
    ///
    /// Out of descriptors, the listener stays readable while `accept`
    /// fails, so every wait would return at once: the poller stops
    /// watching it, and the next sweep (at most one tick later) watches
    /// it again.
    pub fn run(mut self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let (wake_tx, mut wake_rx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        let returns = Arc::new(ReturnQueue { queue: Mutex::new(Vec::new()), wake: wake_tx });
        let mut parked = Parked { epoll: sys::Epoll::new()?, slots: Vec::new(), free: Vec::new() };
        parked.epoll.add(self.listener.as_raw_fd(), sys::EPOLLIN, LISTENER)?;
        parked.epoll.add(wake_rx.as_raw_fd(), sys::EPOLLIN, WAKE)?;

        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let listener_fd = self.listener.as_raw_fd();
        let mut listener_paused = false;
        let mut next_sweep = Instant::now();
        let mut consecutive_failures = 0u32;
        loop {
            if self.stop.load(Ordering::Relaxed) {
                self.pool.detach();
                return Ok(());
            }
            let ready = match parked.epoll.wait(&mut events, POLL_TICK_MS) {
                Ok(ready) => {
                    consecutive_failures = 0;
                    ready
                }
                Err(e) => {
                    consecutive_failures += 1;
                    if consecutive_failures > 100 {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };

            for event in ready {
                let token = event.data;
                match token {
                    // Returned connections: dispatch a request their
                    // parser already holds (no event will announce those
                    // bytes), else park them again.
                    WAKE => {
                        let mut sink = [0u8; 64];
                        while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
                        let returned: Vec<Conn> = std::mem::take(&mut *returns.queue.lock());
                        for conn in returned {
                            if let Some(conn) = self.serve_buffered(conn, &returns) {
                                parked.park(conn, false);
                            }
                        }
                    }
                    LISTENER => loop {
                        let stream = match self.listener.accept() {
                            Ok((stream, _)) => stream,
                            Err(e) => {
                                if matches!(e.raw_os_error(), Some(sys::EMFILE | sys::ENFILE)) {
                                    listener_paused =
                                        parked.epoll.modify(listener_fd, 0, LISTENER).is_ok();
                                }
                                break;
                            }
                        };
                        self.state.stats.connection();
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_nonblocking(true);
                        let conn = Conn {
                            stream,
                            parser: RequestParser::new(),
                            last_activity: Instant::now(),
                            state: self.state.clone(),
                        };
                        parked.park(conn, true);
                    },
                    slot => {
                        if let Some(conn) = parked.take(slot as usize) {
                            if let Some(conn) = self.advance(conn, &returns) {
                                parked.park(conn, false);
                            }
                        }
                    }
                }
            }

            let now = Instant::now();
            if now >= next_sweep {
                if listener_paused {
                    listener_paused =
                        parked.epoll.modify(listener_fd, sys::EPOLLIN, LISTENER).is_err();
                }
                self.sweep(&mut parked, now);
                next_sweep = now + Duration::from_millis(POLL_TICK_MS as u64);
            }
            self.state.stats.set_parked(parked.len() as u64);
        }
    }

    /// Closes the parked connections that timed out: mid-request
    /// staleness is a slow client (408), parked staleness is just an
    /// idle peer (silent close).
    fn sweep(&self, parked: &mut Parked, now: Instant) {
        for slot in 0..parked.slots.len() {
            let Some(conn) = &parked.slots[slot] else { continue };
            let idle = now.duration_since(conn.last_activity);
            let mid_request = conn.parser.mid_request();
            if mid_request && idle >= self.cfg.read_timeout {
                let conn = parked.take(slot).expect("the slot holds a connection");
                self.state.stats.read_timeout();
                self.state.stats.record(Endpoint::Other, 408, Duration::ZERO);
                respond_and_close(
                    conn,
                    error_response(408, "request not completed in time"),
                    self.cfg.write_timeout,
                );
            } else if !mid_request && idle >= self.cfg.idle_timeout {
                drop(parked.take(slot));
            }
        }
    }

    /// Serves what `conn`'s parser already holds: dispatches a complete
    /// request (the connection moves to the worker with it), or answers
    /// malformed bytes and closes. Returns the connection when the parser
    /// needs more bytes.
    fn serve_buffered(&self, mut conn: Conn, returns: &Arc<ReturnQueue>) -> Option<Conn> {
        match conn.parser.next_request() {
            Feed::Request(req) => {
                self.dispatch(conn, req, returns);
                None
            }
            Feed::Malformed(resp) => {
                // Unparseable framing has no endpoint to attribute.
                self.state.stats.record(Endpoint::Other, resp.status, Duration::ZERO);
                respond_and_close(conn, resp, self.cfg.write_timeout);
                None
            }
            Feed::NeedMore => Some(conn),
        }
    }

    /// Pumps one readable parked connection (its parser holds no
    /// complete request): drains its socket through the parser,
    /// dispatching at most one request. Returns the connection if it
    /// should stay parked, `None` if it was dispatched or closed.
    fn advance(&self, mut conn: Conn, returns: &Arc<ReturnQueue>) -> Option<Conn> {
        loop {
            let mut buf = [0u8; READ_CHUNK];
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    if let Some(resp) = conn.parser.on_eof() {
                        self.state.stats.record(Endpoint::Other, resp.status, Duration::ZERO);
                        respond_and_close(conn, resp, self.cfg.write_timeout);
                    }
                    return None;
                }
                Ok(n) => {
                    conn.parser.push(&buf[..n]);
                    conn.last_activity = Instant::now();
                    conn = self.serve_buffered(conn, returns)?;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Some(conn),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return None, // peer reset
            }
        }
    }

    /// Hands a parsed request (and its connection) to the worker pool.
    /// On saturation the request is reclaimed from the undelivered job
    /// and shed with 503, attributed to the endpoint it targeted with
    /// zero queue-wait — never a worker-latency histogram sample.
    fn dispatch(&self, conn: Conn, req: Request, returns: &Arc<ReturnQueue>) {
        let endpoint = Endpoint::of(&req.method, &req.path);
        let received_at = Instant::now();
        // try_submit drops the job closure on saturation, so the
        // connection rides in a shared slot the poller can take back.
        let slot = Arc::new(Mutex::new(Some((conn, req))));
        let job_slot = slot.clone();
        let state = self.state.clone();
        let job_returns = returns.clone();
        let write_timeout = self.cfg.write_timeout;
        let submitted = self.pool.try_submit(move || {
            let Some((conn, req)) = job_slot.lock().take() else { return };
            handle_request(conn, req, received_at, &state, &job_returns, write_timeout);
        });
        match submitted {
            Ok(()) => {}
            Err(SubmitError::Saturated) => {
                if let Some((conn, _)) = slot.lock().take() {
                    self.state.stats.record_shed(endpoint);
                    respond_and_close(
                        conn,
                        error_response(503, "server saturated; retry later"),
                        self.cfg.write_timeout,
                    );
                }
            }
            Err(SubmitError::Closed) => drop(slot.lock().take()),
        }
    }
}

/// Worker-side request lifecycle: route, record, write, then either
/// return the connection to the poller (keep-alive) or drop it.
fn handle_request(
    mut conn: Conn,
    req: Request,
    received_at: Instant,
    state: &Arc<ServerState>,
    returns: &Arc<ReturnQueue>,
    write_timeout: Duration,
) {
    let queue_wait = received_at.elapsed();
    let keep_alive = req.keep_alive();
    let started = Instant::now();
    let ctx = RequestContext { queue_wait_us: queue_wait.as_micros() as u64, received_at };
    let (endpoint, resp, event) = dispatch_recorded(&req, state, &ctx);
    let elapsed = started.elapsed();
    state.stats.record(endpoint, resp.status, elapsed);
    let slow = state.slow_ms().is_some_and(|ms| elapsed >= Duration::from_millis(ms));
    if state.access_log() || slow {
        crate::server::access_log_line(&req, &resp, elapsed, slow, event.as_ref());
    }

    let _ = conn.stream.set_nonblocking(false);
    let _ = conn.stream.set_write_timeout(Some(write_timeout));
    let write_result = resp.write_to(&mut conn.stream, keep_alive);
    // The ring write happens after the response bytes are on the wire —
    // recording stays off the latency-critical path.
    if let Some(event) = event {
        scorpion_obs::telemetry().record(event);
    }
    match write_result {
        Err(e) => {
            if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) {
                state.stats.write_timeout();
            }
        }
        Ok(()) if keep_alive => {
            let _ = conn.stream.set_nonblocking(true);
            conn.last_activity = Instant::now();
            returns.give(conn);
        }
        Ok(()) => {}
    }
}

/// Writes a final response and closes the connection, draining a
/// bounded amount of whatever the peer is still sending first —
/// discarding unread bytes triggers a TCP RST that can destroy the
/// error response before the client reads it. The drain is
/// non-blocking: this runs on the poller thread.
fn respond_and_close(mut conn: Conn, resp: Response, write_timeout: Duration) {
    let _ = conn.stream.set_nonblocking(false);
    let _ = conn.stream.set_write_timeout(Some(write_timeout));
    if resp.write_to(&mut conn.stream, false).is_err() {
        return;
    }
    let _ = conn.stream.set_nonblocking(true);
    let mut drained = 0u64;
    let mut buf = [0u8; READ_CHUNK];
    while drained < CLOSE_DRAIN_BYTES {
        match conn.stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sys::{Epoll, EpollEvent, EPOLLIN, EPOLLONESHOT};
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn tokens(epoll: &Epoll, timeout_ms: i32) -> Vec<u64> {
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        let mut tokens: Vec<u64> =
            epoll.wait(&mut events, timeout_ms).unwrap().iter().map(|e| e.data).collect();
        tokens.sort_unstable();
        tokens
    }

    /// Guards the `epoll_event` layout and the oneshot re-arm the poller
    /// relies on: two readable sockets report their distinct tokens, and
    /// a disarmed registration reports again only once modified. Read
    /// with an unpacked layout on x86-64, the tokens come back garbled.
    #[test]
    fn epoll_reports_each_token_once_until_rearmed() {
        let epoll = Epoll::new().unwrap();
        let (mut a_tx, a_rx) = UnixStream::pair().unwrap();
        let (mut b_tx, b_rx) = UnixStream::pair().unwrap();
        // Every byte differs, so no misread offset can match.
        let (a, b) = (0x0102_0304_0506_0708, 0x1112_1314_1516_1718);
        epoll.add(a_rx.as_raw_fd(), EPOLLIN | EPOLLONESHOT, a).unwrap();
        epoll.add(b_rx.as_raw_fd(), EPOLLIN | EPOLLONESHOT, b).unwrap();
        a_tx.write_all(b"a").unwrap();
        b_tx.write_all(b"b").unwrap();
        assert_eq!(tokens(&epoll, 5_000), [a, b]);
        // The bytes are still unread, but both registrations are disarmed.
        assert_eq!(tokens(&epoll, 0), []);
        epoll.modify(a_rx.as_raw_fd(), EPOLLIN | EPOLLONESHOT, 7).unwrap();
        assert_eq!(tokens(&epoll, 5_000), [7]);
    }
}
