//! The raw epoll substrate of the event-loop server: a thin, safe
//! wrapper over the handful of syscalls the reactor needs.
//!
//! No crates.io in this environment means no `mio`/`tokio` *and* no
//! `libc` crate — the declarations below bind the C library symbols
//! directly. The surface is deliberately tiny: a level-triggered
//! [`Poller`] (add/modify/delete/wait), a lazy-reinsertion
//! [`TimerWheel`] for idle deadlines, a nonblocking TCP `connect` for
//! the fan-in client driver, and [`boost_backlog`], which a
//! 10k-connection run needs before the first `accept`. The connection
//! ceiling is the soft `RLIMIT_NOFILE` (`ulimit -n`), which the process
//! inherits.
//!
//! Everything here is Linux-only, like epoll itself; the crate gates the
//! module accordingly.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::time::{Duration, Instant};

// -- libc bindings -----------------------------------------------------

/// One epoll event record. x86-64 is the one ABI where the kernel struct
/// is packed (no padding between `events` and `data`); everywhere else
/// it has natural alignment.
#[derive(Clone, Copy)]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
/// Wake at most one of the epoll instances sharing a listener per
/// incoming connection (herd control across reactor shards). Only valid
/// at `EPOLL_CTL_ADD` time — never combine with `EPOLL_CTL_MOD`.
const EPOLLEXCLUSIVE: u32 = 1 << 28;

const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0o4000;
const SOCK_CLOEXEC: i32 = 0o2000000;
const EINPROGRESS: i32 = 115;

/// `struct sockaddr_in`, with the byte-order-sensitive fields kept as
/// byte arrays so no endianness conversion can be forgotten.
#[repr(C)]
struct SockAddrIn {
    family: u16,
    port_be: [u8; 2],
    addr: [u8; 4],
    zero: [u8; 8],
}

// -- Poller ------------------------------------------------------------

/// What a registration wants to be woken for. Error/hangup conditions
/// are always reported regardless of interest, like epoll itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (includes peer half-close).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither — parked; only error/hangup events fire.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn bits(self) -> u32 {
        let mut bits = 0;
        if self.readable {
            // RDHUP distinguishes an orderly peer shutdown from a
            // connection error without needing a read() probe.
            bits |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or a pending EOF).
    pub readable: bool,
    /// The fd can accept bytes.
    pub writable: bool,
    /// Error or hangup: the connection is dead or dying; reads will
    /// surface the details.
    pub closed: bool,
}

/// Reusable buffer for [`Poller::wait`] results.
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// The events produced by the last wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|e| {
            // Copy out of the (possibly packed) struct before touching
            // the fields — references into packed fields are UB.
            let bits = e.events;
            let token = e.data;
            Event {
                token,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP) != 0,
            }
        })
    }
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Events")
            .field("capacity", &self.buf.len())
            .field("len", &self.len)
            .finish()
    }
}

/// A level-triggered epoll instance. Registrations carry a caller-chosen
/// `u64` token that comes back in each [`Event`].
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers involved.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, bits: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: bits,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel only reads it. The
        // fd is live for the duration of the call by the caller's
        // contract (it owns the socket it registers).
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest.bits(), token)
    }

    /// Registers a shared listener with `EPOLLEXCLUSIVE`: one incoming
    /// connection wakes at most one of the reactor shards watching it.
    /// The registration can never be modified afterwards (a kernel
    /// rule), which is fine — a listener's interest never changes.
    pub fn add_exclusive(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLEXCLUSIVE, token)
    }

    /// Replaces the interest of a registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest.bits(), token)
    }

    /// Removes a registration. Closing the fd does this implicitly (no
    /// other handles exist to our sockets); this is for the explicit
    /// paths (e.g. parking a listener during drain).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event argument must be non-null for portability even
        // though DEL ignores it.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, filling `events`; returns the event count.
    /// `None` blocks indefinitely; sub-millisecond timeouts round up so
    /// a short timeout can never spin at zero.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let millis = match timeout {
            None => -1,
            Some(t) => {
                let ms = t.as_millis();
                if ms == 0 && !t.is_zero() {
                    1
                } else {
                    ms.min(i32::MAX as u128) as i32
                }
            }
        };
        loop {
            // SAFETY: the buffer is a live, exclusively borrowed Vec of
            // EpollEvent with at least `len()` elements; the kernel
            // writes at most `maxevents` records into it.
            let rc = unsafe {
                epoll_wait(
                    self.epfd,
                    events.buf.as_mut_ptr(),
                    events.buf.len() as i32,
                    millis,
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            events.len = rc as usize;
            return Ok(events.len);
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: we own epfd and nothing else closes it.
        unsafe {
            close(self.epfd);
        }
    }
}

// -- Timer wheel -------------------------------------------------------

/// A coarse timer wheel for idle-connection deadlines: `slots` buckets
/// of `granularity` each, holding `(token, deadline_tick)` entries.
///
/// Deadlines that move *later* (every request bumps a connection's idle
/// deadline) are handled lazily: the wheel keeps the entry where it was
/// scheduled, and when it pops the owner compares against the real
/// deadline and reinserts if it moved — one live wheel entry per
/// connection, no per-request rescheduling cost.
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<(u64, u64)>>,
    /// Next tick to be processed by `advance`.
    tick: u64,
    granularity: Duration,
    start: Instant,
}

impl TimerWheel {
    /// A wheel of `slots` buckets, each `granularity` wide, with tick 0
    /// at `start`.
    pub fn new(start: Instant, granularity: Duration, slots: usize) -> TimerWheel {
        assert!(!granularity.is_zero(), "granularity must be positive");
        assert!(slots >= 2, "need at least two slots");
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick: 0,
            granularity,
            start,
        }
    }

    /// The wheel's bucket width.
    pub fn granularity(&self) -> Duration {
        self.granularity
    }

    /// The tick a wall-clock instant falls into (saturating at `start`).
    pub fn tick_at(&self, when: Instant) -> u64 {
        let elapsed = when.saturating_duration_since(self.start);
        (elapsed.as_nanos() / self.granularity.as_nanos()).min(u64::MAX as u128) as u64
    }

    /// Schedules `token` to pop once `deadline_tick` has passed. Entries
    /// scheduled more than a full rotation out still pop no earlier than
    /// their deadline (each lap re-checks and reinserts).
    pub fn schedule(&mut self, token: u64, deadline_tick: u64) {
        // A deadline in an already-processed tick (a lazy reinsertion
        // whose real deadline is moments away) must pop at the *next*
        // advance — its own slot won't be visited again for a full lap.
        let slot = (deadline_tick.max(self.tick) % self.slots.len() as u64) as usize;
        self.slots[slot].push((token, deadline_tick));
    }

    /// Time from `now` until the next tick boundary — the natural poll
    /// timeout while any deadline is armed.
    pub fn until_next_tick(&self, now: Instant) -> Duration {
        let next_nanos = self
            .granularity
            .as_nanos()
            .saturating_mul(self.tick as u128 + 1);
        let elapsed = now.saturating_duration_since(self.start).as_nanos();
        let remaining = next_nanos.saturating_sub(elapsed);
        Duration::from_nanos(remaining.min(u64::MAX as u128) as u64)
    }

    /// Processes every tick up to `now`, appending due `(token,
    /// deadline_tick)` entries to `due`. The caller decides each one's
    /// fate: reap the connection, or reinsert at its (later) real
    /// deadline via [`schedule`](Self::schedule).
    pub fn advance(&mut self, now: Instant, due: &mut Vec<(u64, u64)>) {
        let now_tick = self.tick_at(now);
        if now_tick < self.tick {
            return;
        }
        let len = self.slots.len() as u64;
        // A span beyond one full rotation revisits slots; once is enough.
        let visits = (now_tick - self.tick + 1).min(len);
        let mut pending = Vec::new();
        for i in 0..visits {
            let slot = ((self.tick + i) % len) as usize;
            pending.append(&mut self.slots[slot]);
            for (token, deadline) in pending.drain(..) {
                if deadline <= now_tick {
                    due.push((token, deadline));
                } else {
                    // A future lap's entry sharing this slot: put it back
                    // (the drain snapshot above keeps this loop finite).
                    self.schedule(token, deadline);
                }
            }
        }
        self.tick = now_tick + 1;
    }
}

// -- Process/socket helpers --------------------------------------------

/// Starts a nonblocking IPv4 TCP connect: returns immediately with the
/// socket in progress. Completion is signalled by *writability*; check
/// [`TcpStream::take_error`] there to learn whether it succeeded.
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    let SocketAddr::V4(v4) = addr else {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "nonblocking connect: IPv4 only",
        ));
    };
    // SAFETY: plain syscall, no pointers involved.
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: fd is the socket created above; on any error path below it
    // is closed exactly once before the fd value is dropped.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let sockaddr = SockAddrIn {
        family: AF_INET as u16,
        port_be: v4.port().to_be_bytes(),
        addr: v4.ip().octets(),
        zero: [0; 8],
    };
    // SAFETY: `sockaddr` is a properly initialized sockaddr_in on the
    // stack, outliving the call; the length matches the struct.
    let rc = unsafe {
        connect(
            stream.as_raw_fd(),
            &sockaddr,
            std::mem::size_of::<SockAddrIn>() as u32,
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINPROGRESS) {
            return Err(err);
        }
    }
    Ok(stream)
}

/// Re-`listen()`s on a bound listener with a deeper accept backlog
/// (Linux allows this on an already-listening socket). The kernel
/// silently caps the value at `net.core.somaxconn`; best-effort by
/// design — the default backlog merely makes mass fan-in slow (SYN
/// retries), not wrong.
pub fn boost_backlog(listener: &TcpListener, backlog: i32) -> io::Result<()> {
    // SAFETY: plain syscall on a live fd borrowed from `listener`.
    let rc = unsafe { listen(listener.as_raw_fd(), backlog) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn poller_reports_listener_readable_on_pending_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Events::with_capacity(8);
        // Nothing pending: a short wait returns empty.
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(5)))
                .unwrap(),
            0
        );
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 7);
        assert!(ev.readable);
    }

    #[test]
    fn poller_modify_rearms_for_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .add(server_side.as_raw_fd(), 1, Interest::NONE)
            .unwrap();
        let mut events = Events::with_capacity(8);
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(5)))
                .unwrap(),
            0,
            "parked registration stays silent"
        );
        poller
            .modify(server_side.as_raw_fd(), 1, Interest::WRITE)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().writable);
        drop(client);
    }

    #[test]
    fn connect_nonblocking_completes_against_live_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = connect_nonblocking(listener.local_addr().unwrap()).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(stream.as_raw_fd(), 9, Interest::WRITE).unwrap();
        let mut events = Events::with_capacity(4);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().writable);
        assert!(stream.take_error().unwrap().is_none(), "connect succeeded");
        // Round-trip a byte to prove the socket is genuinely usable.
        let (mut server_side, _) = listener.accept().unwrap();
        server_side.write_all(b"x").unwrap();
        drop(server_side);
        stream.set_nonblocking(false).unwrap();
        let mut buf = Vec::new();
        (&stream).read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"x");
    }

    #[test]
    fn timer_wheel_pops_at_deadline_and_supports_lazy_reinsert() {
        let start = Instant::now();
        let g = Duration::from_millis(10);
        let mut wheel = TimerWheel::new(start, g, 8);
        let t3 = wheel.tick_at(start + 3 * g);
        wheel.schedule(42, t3);
        let mut due = Vec::new();
        wheel.advance(start + g, &mut due);
        assert!(due.is_empty(), "not due yet");
        wheel.advance(start + 4 * g, &mut due);
        assert_eq!(due, vec![(42, t3)]);
        due.clear();
        // Lazy reinsertion: the owner moved the deadline later, so it
        // reschedules on pop; the new entry pops at the new deadline.
        let t9 = wheel.tick_at(start + 9 * g);
        wheel.schedule(42, t9);
        wheel.advance(start + 5 * g, &mut due);
        assert!(due.is_empty());
        wheel.advance(start + 10 * g, &mut due);
        assert_eq!(due, vec![(42, t9)]);
    }

    #[test]
    fn timer_wheel_past_due_reinsert_pops_at_next_advance_not_after_a_lap() {
        let start = Instant::now();
        let g = Duration::from_millis(10);
        let mut wheel = TimerWheel::new(start, g, 8);
        let mut due = Vec::new();
        wheel.advance(start + 3 * g, &mut due);
        assert!(due.is_empty());
        // Lazy reinsertion can target a tick the wheel already
        // processed (the touched connection's real deadline lands just
        // before the next boundary). That slot won't be revisited for a
        // whole lap, so the entry must go into the upcoming slot and
        // pop on the very next advance.
        wheel.schedule(7, wheel.tick_at(start + 2 * g));
        wheel.advance(start + 4 * g, &mut due);
        assert_eq!(due, vec![(7, 2)], "popped one lap late");
    }

    #[test]
    fn timer_wheel_multi_lap_entries_do_not_pop_early() {
        let start = Instant::now();
        let g = Duration::from_millis(10);
        // 4 slots: a deadline 10 ticks out shares a slot with tick 2.
        let mut wheel = TimerWheel::new(start, g, 4);
        wheel.schedule(1, 10);
        let mut due = Vec::new();
        wheel.advance(start + 3 * g, &mut due);
        assert!(due.is_empty(), "lap-ahead entry must not pop early");
        wheel.advance(start + 11 * g, &mut due);
        assert_eq!(due, vec![(1, 10)]);
    }
}
