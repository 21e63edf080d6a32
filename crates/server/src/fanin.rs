//! A fan-in client: runs many scripted protocol sessions against
//! one server, a bounded number at a time, and returns every transcript.
//!
//! The `c10k_fanin` bench and the `serve_session` tests use it to diff
//! fan-in transcripts against serial replays (the determinism contract:
//! answers must not depend on interleaving). Each session is the
//! scripted pattern `tim client` uses: connect, send the whole script,
//! half-close, read the answer stream to EOF.
//!
//! `max_in_flight` client threads run the sessions, each taking the next
//! script when its last one ends. Keep it within the server's accept
//! backlog: beyond it the kernel drops SYNs, and the run would measure
//! retransmission timers, not the server.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Most sessions [`drive_sessions`] keeps in flight: it starts one OS
/// thread per session in flight.
pub const MAX_IN_FLIGHT: usize = 128;

/// What one driven session looked like from the client side.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Every byte the server sent, in order.
    pub transcript: Vec<u8>,
    /// Connect initiation to server EOF.
    pub latency: Duration,
    /// Connect initiation to the first answer byte, if any arrived.
    ///
    /// It counts the session's wait in the server's accept backlog, and
    /// unlike the EOF `latency` it does not grow with the script's
    /// length, so it is the per-session responsiveness number.
    pub first_byte: Option<Duration>,
}

/// The result of a full fan-in run: one outcome per script, in script
/// order.
#[derive(Debug)]
pub struct FaninReport {
    /// Per-session outcomes, index-aligned with the input scripts.
    pub outcomes: Vec<SessionOutcome>,
    /// Wall-clock time for the whole run (first connect to last EOF).
    pub wall: Duration,
}

/// Drives one scripted session per entry of `scripts` against `addr`,
/// keeping at most `max_in_flight` open at once, and returns every
/// transcript. Fails if the whole run exceeds `deadline` (every connect,
/// write and read is bounded by the time left) or any connection errors:
/// this is a measurement tool, and partial success would silently skew
/// results.
///
/// A session writes its whole script before it reads, so a script whose
/// answers outgrow the socket buffers before the upload ends stalls
/// until the deadline; the scripts driven here are a few lines each.
///
/// # Panics
/// Panics unless `1 <= max_in_flight <= MAX_IN_FLIGHT`.
pub fn drive_sessions(
    addr: SocketAddr,
    scripts: &[Vec<u8>],
    max_in_flight: usize,
    deadline: Duration,
) -> io::Result<FaninReport> {
    assert!(
        (1..=MAX_IN_FLIGHT).contains(&max_in_flight),
        "sessions in flight must be 1..={MAX_IN_FLIGHT}, got {max_in_flight}"
    );
    let start = Instant::now();
    let end = start + deadline;
    // Relaxed: neither atomic publishes other data; every outcome comes
    // back through its thread's join.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    // One client thread: sessions one after another, until the scripts
    // run out or any session fails.
    let client = || -> io::Result<Vec<(usize, SessionOutcome)>> {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(script) = scripts.get(idx) else {
                break;
            };
            let outcome = run_session(addr, script, end).map_err(|e| {
                failed.store(true, Ordering::Relaxed);
                io::Error::new(e.kind(), format!("session {idx} ({deadline:?} run): {e}"))
            })?;
            done.push((idx, outcome));
        }
        Ok(done)
    };
    let mut outcomes: Vec<(usize, SessionOutcome)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..max_in_flight.min(scripts.len()))
            .map(|_| scope.spawn(client))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("fan-in client thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?
    .into_iter()
    .flatten()
    .collect();
    let wall = start.elapsed();
    outcomes.sort_unstable_by_key(|&(idx, _)| idx);
    Ok(FaninReport {
        outcomes: outcomes.into_iter().map(|(_, o)| o).collect(),
        wall,
    })
}

/// Runs one scripted session: connect, write the script, half-close,
/// read to EOF. Every blocking call waits at most until `end`.
fn run_session(addr: SocketAddr, script: &[u8], end: Instant) -> io::Result<SessionOutcome> {
    let left = || {
        end.checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "the run's deadline passed"))
    };
    let started = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, left()?)
        .map_err(|e| io::Error::new(e.kind(), format!("connect failed: {e}")))?;
    stream.set_write_timeout(Some(left()?))?;
    stream
        .write_all(script)
        .and_then(|()| stream.shutdown(Shutdown::Write))
        .map_err(|e| io::Error::new(e.kind(), format!("sending script: {e}")))?;
    stream.set_read_timeout(Some(left()?))?;
    let mut transcript = Vec::new();
    let mut first_byte = None;
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                first_byte.get_or_insert_with(|| started.elapsed());
                transcript.extend_from_slice(&buf[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io::Error::new(e.kind(), format!("reading answers: {e}"))),
        }
    }
    Ok(SessionOutcome {
        transcript,
        latency: started.elapsed(),
        first_byte,
    })
}

/// Latency percentiles extracted from a batch of session outcomes:
/// end-to-end (connect → EOF) alongside first-byte (connect → first
/// answer byte). First-byte percentiles cover only the sessions that
/// received at least one byte and are `None` when no session did.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Median connect → EOF, in milliseconds.
    pub p50_ms: f64,
    /// 99th percentile connect → EOF, in milliseconds.
    pub p99_ms: f64,
    /// Median connect → first answer byte, in milliseconds.
    pub first_byte_p50_ms: Option<f64>,
    /// 99th percentile connect → first answer byte, in milliseconds.
    pub first_byte_p99_ms: Option<f64>,
}

/// Nearest-rank percentile (`q` in `[0, 1]`) over a **sorted** sample,
/// in milliseconds. Panics on an empty sample.
pub fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

/// Extracts [`LatencyStats`] from a run's outcomes. Panics if `outcomes`
/// is empty (a measurement with no sessions is a bug, not a data point).
pub fn latency_stats(outcomes: &[SessionOutcome]) -> LatencyStats {
    let mut eof: Vec<Duration> = outcomes.iter().map(|o| o.latency).collect();
    eof.sort_unstable();
    let mut first: Vec<Duration> = outcomes.iter().filter_map(|o| o.first_byte).collect();
    first.sort_unstable();
    LatencyStats {
        p50_ms: percentile_ms(&eof, 0.50),
        p99_ms: percentile_ms(&eof, 0.99),
        first_byte_p50_ms: (!first.is_empty()).then(|| percentile_ms(&first, 0.50)),
        first_byte_p99_ms: (!first.is_empty()).then(|| percentile_ms(&first, 0.99)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(latency_ms: u64, first_byte_ms: Option<u64>) -> SessionOutcome {
        SessionOutcome {
            transcript: Vec::new(),
            latency: Duration::from_millis(latency_ms),
            first_byte: first_byte_ms.map(Duration::from_millis),
        }
    }

    #[test]
    fn a_server_that_never_answers_fails_the_run_at_its_deadline() {
        // The backlog completes the connects, and nobody ever answers.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let scripts = vec![b"ping\n".to_vec(); 3];
        let started = Instant::now();
        let err = drive_sessions(
            listener.local_addr().unwrap(),
            &scripts,
            2,
            Duration::from_millis(300),
        )
        .unwrap_err();
        assert!(err.to_string().contains("reading answers"), "{err}");
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "sessions in flight must be 1..=128")]
    fn in_flight_is_capped_before_any_thread_starts() {
        let addr = "127.0.0.1:1".parse().unwrap();
        let _ = drive_sessions(addr, &[], MAX_IN_FLIGHT + 1, Duration::from_secs(1));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile_ms(&ms, 0.0), 1.0);
        assert_eq!(percentile_ms(&ms, 0.50), 51.0); // rank round(99*0.5)=50
        assert_eq!(percentile_ms(&ms, 0.99), 99.0);
        assert_eq!(percentile_ms(&ms, 1.0), 100.0);
        assert_eq!(percentile_ms(&[Duration::from_millis(7)], 0.99), 7.0);
    }

    #[test]
    fn stats_separate_first_byte_from_session_lifetime() {
        // The admission-queueing shape from an everything-at-once fan-in:
        // every session's EOF lands near the run's wall clock, but each
        // got its first answer byte quickly. First-byte must report the
        // small numbers while EOF reports the big ones.
        let outcomes: Vec<SessionOutcome> = (0..100)
            .map(|i| outcome(25_000 + i, Some(5 + i % 10)))
            .collect();
        let stats = latency_stats(&outcomes);
        assert_eq!(stats.p50_ms, 25_050.0);
        assert_eq!(stats.p99_ms, 25_098.0); // nearest rank: round(99·0.99) = 98
        assert_eq!(stats.first_byte_p50_ms, Some(10.0));
        assert_eq!(stats.first_byte_p99_ms, Some(14.0));
    }

    #[test]
    fn sessions_without_answer_bytes_are_excluded_from_first_byte() {
        let outcomes = vec![
            outcome(40, Some(10)),
            outcome(50, None), // e.g. a script of writes only
            outcome(60, Some(30)),
        ];
        let stats = latency_stats(&outcomes);
        assert_eq!(stats.p50_ms, 50.0);
        assert_eq!(stats.first_byte_p50_ms, Some(30.0));
        assert_eq!(stats.first_byte_p99_ms, Some(30.0));

        let silent = vec![outcome(40, None), outcome(50, None)];
        let stats = latency_stats(&silent);
        assert_eq!(stats.first_byte_p50_ms, None);
        assert_eq!(stats.first_byte_p99_ms, None);
    }

    #[test]
    fn first_byte_never_exceeds_session_latency_in_driver_outcomes() {
        // The driver records first_byte from the same clock as latency,
        // strictly earlier — the extraction must preserve that ordering.
        let outcomes: Vec<SessionOutcome> =
            (1..=9).map(|i| outcome(i * 100, Some(i * 10))).collect();
        let stats = latency_stats(&outcomes);
        assert!(stats.first_byte_p50_ms.unwrap() <= stats.p50_ms);
        assert!(stats.first_byte_p99_ms.unwrap() <= stats.p99_ms);
        assert!(stats.first_byte_p50_ms.unwrap() <= stats.first_byte_p99_ms.unwrap());
    }
}
