//! The event-loop serving core: epoll reactor shards driving many
//! [`Session`]s per thread.
//!
//! The blocking server ([`crate::server`]) spends a thread (and a stack)
//! per connection; this module spends a thread per *shard* and keeps
//! every connection of that shard in one [`Poller`]. Each shard:
//!
//! - shares the nonblocking listener under `EPOLLEXCLUSIVE` (one
//!   incoming connection wakes one shard),
//! - reads request lines through the resumable
//!   [`CappedLineReader::poll_line`] (a line split across packets picks
//!   up exactly where it stopped),
//! - feeds complete lines to the connection's [`Session`] — the same
//!   state machine the blocking server uses, so answer bytes are
//!   identical by construction,
//! - buffers answers per connection with partial-write continuation and
//!   EPOLLOUT re-arm; past the high-water mark it stops *reading* from
//!   that connection until the backlog drains below the low-water mark
//!   (pipelining backpressure — a client that writes faster than it
//!   reads cannot balloon server memory),
//! - reaps idle connections via a [`TimerWheel`] (`--idle-timeout`),
//!   with lazy reinsertion so an active connection costs no per-request
//!   rescheduling,
//! - refuses connections over `--max-conns` with a best-effort
//!   [`AT_CAPACITY_REPLY`] (admission control), and
//! - on stop, drains gracefully: stops accepting, answers everything
//!   already received (a pending `batch` flushes, as at EOF), flushes,
//!   and closes — with a hard deadline so a stuck peer cannot pin
//!   shutdown.

use crate::protocol::{CappedLineReader, DiscardOutcome, PollLine, OVERSIZED_LINE_REPLY};
use crate::reactor::{Events, Interest, Poller, TimerWheel};
use crate::server::{ServerState, MAX_LINE_BYTES};
use crate::session::Session;
use std::io::{self, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tim_diffusion::DiffusionModel;

/// Answer sent (best-effort) to a connection refused by `--max-conns`.
pub const AT_CAPACITY_REPLY: &str = "error: server at connection capacity";

/// Answer sent (best-effort) before an idle connection is closed.
pub const IDLE_TIMEOUT_REPLY: &str = "error: idle timeout, closing connection";

/// Per-connection answer backlog beyond which the server stops reading
/// from that connection (pipelining backpressure).
const HIGH_WATER: usize = 256 * 1024;
/// Backlog level at which a paused connection resumes reading.
const LOW_WATER: usize = 64 * 1024;
/// Poll timeout when nothing sooner is armed — bounds stop latency.
const HEARTBEAT: Duration = Duration::from_millis(100);
/// Hard deadline for the graceful drain after stop.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Bytes of post-error input discarded before giving up on a graceful
/// close (same budget as the blocking server).
const DRAIN_BUDGET: u64 = 64 * MAX_LINE_BYTES;
/// Readiness events drained per `epoll_wait`.
const EVENTS_CAP: usize = 1024;
/// Accept backlog requested at startup (kernel-capped at somaxconn).
const LISTEN_BACKLOG: i32 = 4096;
/// Timer-wheel slot count.
const WHEEL_SLOTS: usize = 256;

/// Registration token of the shared listener.
const LISTENER_TOKEN: u64 = u64::MAX;

/// Spawns the event-loop shards (one per configured thread) and returns
/// their join handles. The caller owns the stop flag; setting it makes
/// every shard drain and exit within the heartbeat + drain grace.
pub(crate) fn spawn_shards<M: DiffusionModel + Send + Clone + 'static>(
    state: Arc<ServerState<M>>,
    listener: Arc<TcpListener>,
    stop: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    // Best-effort: a shallow backlog only slows mass fan-in (SYN
    // retries), it does not break it.
    let _ = crate::reactor::boost_backlog(&listener, LISTEN_BACKLOG);
    let active = Arc::new(AtomicUsize::new(0));
    (0..state.config().threads)
        .map(|i| {
            let state = Arc::clone(&state);
            let listener = Arc::clone(&listener);
            let stop = Arc::clone(&stop);
            let active = Arc::clone(&active);
            std::thread::Builder::new()
                .name(format!("tim-evloop-{i}"))
                .spawn(move || {
                    if let Err(e) = run_shard(&state, &listener, &stop, &active) {
                        eprintln!("event-loop shard {i} failed: {e}");
                    }
                })
                .expect("spawn event-loop shard")
        })
        .collect()
}

/// What to do with a connection after a progress pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Progress {
    /// Still alive; re-arm interest and wait.
    Keep,
    /// Finished (or failed); deregister and drop.
    Close,
}

/// Connection lifecycle within the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Normal service: read lines, run the session, queue answers.
    Serving,
    /// EOF answered (`Session::finish` queued); flush, then close.
    FlushClose,
    /// A closing error was answered (protocol error or oversized line):
    /// flush, half-close the write side, discard bounded input so the
    /// peer reliably reads the error line, then close.
    ErrorDrain {
        /// Whether the write side has been shut down yet.
        half_closed: bool,
    },
}

/// One event-loop connection: the socket (owned by its line reader), the
/// protocol state machine, and the outbound byte backlog.
struct Conn<'s, M> {
    reader: CappedLineReader<TcpStream>,
    session: Session<'s, M>,
    out: Vec<u8>,
    out_pos: usize,
    interest: Interest,
    phase: Phase,
    /// True while the answer backlog is over [`HIGH_WATER`] and reading
    /// is suspended.
    paused: bool,
    /// The real idle deadline; the wheel entry may lag behind it
    /// (lazy reinsertion).
    idle_deadline: Option<Instant>,
    drain_budget: u64,
}

impl<'s, M: DiffusionModel + Send + Clone + 'static> Conn<'s, M> {
    fn new(stream: TcpStream, session: Session<'s, M>) -> Self {
        Conn {
            reader: CappedLineReader::new(stream),
            session,
            out: Vec::new(),
            out_pos: 0,
            interest: Interest::READ,
            phase: Phase::Serving,
            paused: false,
            idle_deadline: None,
            drain_budget: DRAIN_BUDGET,
        }
    }

    fn stream(&self) -> &TcpStream {
        self.reader.get_ref()
    }

    fn fd(&self) -> i32 {
        self.stream().as_raw_fd()
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn queue_answers(&mut self, answers: &[String]) {
        for a in answers {
            self.out.reserve(a.len() + 1);
            self.out.extend_from_slice(a.as_bytes());
            self.out.push(b'\n');
        }
    }

    fn queue_line(&mut self, line: &str) {
        self.out.reserve(line.len() + 1);
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
    }

    /// Writes as much of the backlog as the socket accepts right now.
    /// `Ok(true)` means fully flushed.
    fn flush_out(&mut self) -> io::Result<bool> {
        while self.out_pos < self.out.len() {
            let mut sock = self.reader.get_ref();
            match sock.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Compact occasionally so a long-lived slow reader
                    // does not pin already-sent bytes.
                    if self.out_pos >= LOW_WATER {
                        self.out.drain(..self.out_pos);
                        self.out_pos = 0;
                    }
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(true)
    }

    /// The interest matching the current phase and backlog.
    fn desired_interest(&self) -> Interest {
        let writable = self.pending_out() > 0;
        let readable = match self.phase {
            Phase::Serving => !self.paused,
            Phase::ErrorDrain { half_closed } => half_closed,
            Phase::FlushClose => false,
        };
        Interest { readable, writable }
    }

    /// Drives the connection as far as the socket allows: flush, then
    /// read/execute/queue in a loop, re-flushing as answers accumulate.
    /// Returns `Close` when the connection reached its natural end; IO
    /// errors bubble up (the caller closes on them too).
    fn make_progress(&mut self, line: &mut String) -> io::Result<Progress> {
        loop {
            let flushed = self.flush_out()?;
            match self.phase {
                Phase::Serving => {
                    if self.paused {
                        if self.pending_out() >= LOW_WATER {
                            return Ok(Progress::Keep);
                        }
                        self.paused = false;
                    }
                    match self.reader.poll_line(line)? {
                        PollLine::Pending => return Ok(Progress::Keep),
                        PollLine::Eof => {
                            let answers = self.session.finish();
                            self.queue_answers(&answers);
                            self.phase = Phase::FlushClose;
                        }
                        PollLine::Line => {
                            let answers = self.session.push_line(line);
                            self.queue_answers(&answers);
                            if self.session.closed() {
                                self.phase = Phase::ErrorDrain { half_closed: false };
                            } else if self.pending_out() > HIGH_WATER {
                                self.paused = true;
                            }
                        }
                        PollLine::Oversized => {
                            self.queue_line(OVERSIZED_LINE_REPLY);
                            self.phase = Phase::ErrorDrain { half_closed: false };
                        }
                    }
                }
                Phase::FlushClose => {
                    return Ok(if flushed {
                        Progress::Close
                    } else {
                        Progress::Keep
                    });
                }
                Phase::ErrorDrain { half_closed } => {
                    if !half_closed {
                        if !flushed {
                            return Ok(Progress::Keep);
                        }
                        // The error answer is out; half-close so the
                        // peer sees EOF after it, then discard input so
                        // the close is graceful (no RST racing the
                        // error line).
                        let _ = self.stream().shutdown(Shutdown::Write);
                        self.phase = Phase::ErrorDrain { half_closed: true };
                    }
                    let mut budget = self.drain_budget;
                    let outcome = self.reader.poll_discard(&mut budget);
                    self.drain_budget = budget;
                    match outcome? {
                        DiscardOutcome::Eof | DiscardOutcome::BudgetExhausted => {
                            return Ok(Progress::Close)
                        }
                        DiscardOutcome::Pending => return Ok(Progress::Keep),
                    }
                }
            }
        }
    }

    /// Queues `Session::finish` answers and moves to `FlushClose` — the
    /// drain-time equivalent of the client half-closing.
    fn begin_close(&mut self) {
        if self.phase == Phase::Serving {
            let answers = self.session.finish();
            self.queue_answers(&answers);
            self.phase = Phase::FlushClose;
        }
    }
}

/// A generational slab: tokens are `(generation << 32) | index`, so a
/// stale timer entry for a recycled slot can never touch the wrong
/// connection.
struct Slab<T> {
    entries: Vec<(u32, Option<T>)>,
    free: Vec<usize>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, val: T) -> u64 {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.entries[idx].1 = Some(val);
                idx
            }
            None => {
                self.entries.push((0, Some(val)));
                self.entries.len() - 1
            }
        };
        ((self.entries[idx].0 as u64) << 32) | idx as u64
    }

    fn split(token: u64) -> (usize, u32) {
        ((token & u32::MAX as u64) as usize, (token >> 32) as u32)
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let (idx, gen) = Self::split(token);
        match self.entries.get_mut(idx) {
            Some((g, slot)) if *g == gen => slot.as_mut(),
            _ => None,
        }
    }

    fn remove(&mut self, token: u64) -> Option<T> {
        let (idx, gen) = Self::split(token);
        match self.entries.get_mut(idx) {
            Some((g, slot)) if *g == gen && slot.is_some() => {
                let val = slot.take();
                *g = g.wrapping_add(1);
                self.free.push(idx);
                val
            }
            _ => None,
        }
    }

    fn tokens(&self) -> Vec<u64> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, (_, slot))| slot.is_some())
            .map(|(idx, (gen, _))| ((*gen as u64) << 32) | idx as u64)
            .collect()
    }

    fn is_empty(&self) -> bool {
        self.entries.iter().all(|(_, slot)| slot.is_none())
    }
}

/// One reactor shard: owns a [`Poller`], a slab of connections, and (if
/// configured) a timer wheel; loops until stop + drain complete.
fn run_shard<M: DiffusionModel + Send + Clone + 'static>(
    state: &ServerState<M>,
    listener: &TcpListener,
    stop: &AtomicBool,
    active: &AtomicUsize,
) -> io::Result<()> {
    let config = state.config();
    let idle_timeout = config.idle_timeout;
    let max_conns = config.max_conns;
    let poller = Poller::new()?;
    poller.add_exclusive(listener.as_raw_fd(), LISTENER_TOKEN)?;
    let start = Instant::now();
    let mut wheel = idle_timeout.map(|idle| {
        let granularity = (idle / 4)
            .max(Duration::from_millis(5))
            .min(Duration::from_secs(1));
        TimerWheel::new(start, granularity, WHEEL_SLOTS)
    });
    let mut conns: Slab<Conn<'_, M>> = Slab::new();
    let mut events = Events::with_capacity(EVENTS_CAP);
    let mut line = String::new();
    let mut due: Vec<(u64, u64)> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let now = Instant::now();
        let mut timeout = HEARTBEAT;
        if let Some(w) = &wheel {
            if !conns.is_empty() {
                timeout = timeout.min(w.until_next_tick(now));
            }
        }
        if let Some(deadline) = drain_deadline {
            timeout = timeout.min(deadline.saturating_duration_since(now));
        }
        poller.wait(&mut events, Some(timeout))?;
        let now = Instant::now();

        // Stop: park the listener and start the graceful drain — answer
        // everything already received, flush, close.
        if stop.load(Ordering::Acquire) && drain_deadline.is_none() {
            drain_deadline = Some(now + DRAIN_GRACE);
            let _ = poller.delete(listener.as_raw_fd());
            for token in conns.tokens() {
                step_conn(&poller, &mut conns, token, &mut line, active, true);
            }
        }
        let draining = drain_deadline.is_some();

        for ev in events.iter() {
            if ev.token == LISTENER_TOKEN {
                accept_burst(
                    state,
                    listener,
                    &poller,
                    &mut conns,
                    &mut wheel,
                    active,
                    max_conns,
                    idle_timeout,
                    draining,
                    now,
                );
            } else {
                if let Some(conn) = conns.get_mut(ev.token) {
                    // Any readiness event is activity for idle purposes
                    // (interest is trimmed to what the connection is
                    // actually waiting for, so events track real IO).
                    if let Some(idle) = idle_timeout {
                        conn.idle_deadline = Some(now + idle);
                    }
                }
                let force_close = ev.closed;
                step_conn(&poller, &mut conns, ev.token, &mut line, active, draining);
                if force_close {
                    // EPOLLERR/EPOLLHUP are level-triggered and forever:
                    // after one final progress pass, the connection goes.
                    close_conn(&poller, &mut conns, ev.token, active);
                }
            }
        }

        // Idle reaping: pop due wheel entries; entries whose real
        // deadline moved later are reinserted (lazy reinsertion).
        if let Some(w) = &mut wheel {
            w.advance(now, &mut due);
            for (token, _) in due.drain(..) {
                let deadline = match conns.get_mut(token) {
                    Some(conn) => conn.idle_deadline,
                    None => continue,
                };
                match deadline {
                    Some(dl) if dl <= now => {
                        if let Some(conn) = conns.get_mut(token) {
                            if conn.pending_out() == 0 {
                                conn.queue_line(IDLE_TIMEOUT_REPLY);
                                let _ = conn.flush_out();
                            }
                        }
                        close_conn(&poller, &mut conns, token, active);
                    }
                    Some(dl) => w.schedule(token, w.tick_at(dl)),
                    None => {}
                }
            }
        }

        if let Some(deadline) = drain_deadline {
            if conns.is_empty() {
                return Ok(());
            }
            if now >= deadline {
                for token in conns.tokens() {
                    close_conn(&poller, &mut conns, token, active);
                }
                return Ok(());
            }
        }
    }
}

/// Accepts until the listener would block, admitting or refusing each
/// connection.
#[allow(clippy::too_many_arguments)]
fn accept_burst<'s, M: DiffusionModel + Send + Clone + 'static>(
    state: &'s ServerState<M>,
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut Slab<Conn<'s, M>>,
    wheel: &mut Option<TimerWheel>,
    active: &AtomicUsize,
    max_conns: Option<usize>,
    idle_timeout: Option<Duration>,
    draining: bool,
    now: Instant,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                // Transient resource errors (EMFILE, …): the listener
                // stays level-triggered readable, so back off briefly
                // instead of spinning the shard.
                eprintln!("accept failed: {e}; retrying");
                std::thread::sleep(Duration::from_millis(10));
                break;
            }
        };
        if draining {
            continue; // dropped: we are shutting down
        }
        if let Some(max) = max_conns {
            // fetch_add + re-check keeps the admission decision atomic
            // across shards.
            if active.fetch_add(1, Ordering::AcqRel) >= max {
                active.fetch_sub(1, Ordering::AcqRel);
                refuse(stream);
                continue;
            }
        } else {
            active.fetch_add(1, Ordering::AcqRel);
        }
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            active.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        let mut conn = Conn::new(stream, state.session());
        if let Some(idle) = idle_timeout {
            conn.idle_deadline = Some(now + idle);
        }
        let fd = conn.fd();
        let token = conns.insert(conn);
        if poller.add(fd, token, Interest::READ).is_err() {
            conns.remove(token);
            active.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        if let (Some(w), Some(idle)) = (wheel.as_mut(), idle_timeout) {
            w.schedule(token, w.tick_at(now + idle));
        }
    }
}

/// Best-effort capacity refusal: one error line, half-close, drop.
fn refuse(stream: TcpStream) {
    stream.set_nonblocking(true).ok();
    let mut sock = &stream;
    let _ = sock.write_all(format!("{AT_CAPACITY_REPLY}\n").as_bytes());
    let _ = stream.shutdown(Shutdown::Write);
}

/// Runs one progress pass on a connection (panic-isolated), closing it
/// on completion, error, or panic; otherwise re-arms its interest.
fn step_conn<M: DiffusionModel + Send + Clone + 'static>(
    poller: &Poller,
    conns: &mut Slab<Conn<'_, M>>,
    token: u64,
    line: &mut String,
    active: &AtomicUsize,
    drain: bool,
) {
    let Some(conn) = conns.get_mut(token) else {
        return;
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let progress = conn.make_progress(line)?;
        if drain && progress == Progress::Keep && conn.phase == Phase::Serving {
            // Drain semantics: everything received is answered; the
            // session then ends as if the client had half-closed.
            conn.begin_close();
            return conn.make_progress(line);
        }
        Ok(progress)
    }));
    match outcome {
        Ok(Ok(Progress::Keep)) => {
            let desired = conn.desired_interest();
            if desired != conn.interest {
                if poller.modify(conn.fd(), token, desired).is_err() {
                    close_conn(poller, conns, token, active);
                    return;
                }
                conn.interest = desired;
            }
        }
        Ok(Ok(Progress::Close)) | Ok(Err(_)) => close_conn(poller, conns, token, active),
        Err(_) => {
            eprintln!("connection handler panicked; event loop continues");
            close_conn(poller, conns, token, active);
        }
    }
}

/// Deregisters and drops a connection, releasing its admission slot.
fn close_conn<M: DiffusionModel + Send + Clone + 'static>(
    poller: &Poller,
    conns: &mut Slab<Conn<'_, M>>,
    token: u64,
    active: &AtomicUsize,
) {
    if let Some(conn) = conns.remove(token) {
        let _ = poller.delete(conn.fd());
        active.fetch_sub(1, Ordering::AcqRel);
    }
}
