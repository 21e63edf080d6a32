//! `tim serve --pool` serves from the pool it loads, as `tim query
//! --pool` does: with a single graph, absent `-k`/`--eps`/`--ell`/
//! `--seed` flags adopt the pool's values, so the loaded pool is the
//! default pool and no other is sampled, and a flag that contradicts the
//! pool is refused before the server binds. The start-up lines name the
//! idle timeout on either serving core.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tim_engine::RrPool;

fn tim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tim"))
}

/// A scratch directory holding a 1,000-node BA graph and a pool built by
/// `tim query --pool` at k = 5, ε = 0.5, seed 7 (not the serving
/// defaults); returns the directory and the answer `tim query` gave to
/// `select 5`.
fn graph_and_pool(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("tim_serve_pool_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let status = tim()
        .args("generate ba --out g.txt --n 1000 --param 3 --seed 1".split(' '))
        .current_dir(&dir)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    let mut query = tim()
        .args("query g.txt --pool p.timp -k 5 --eps 0.5 --seed 7 --quiet".split(' '))
        .current_dir(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    query
        .stdin
        .take()
        .unwrap()
        .write_all(b"select 5\n")
        .unwrap();
    let out = query.wait_with_output().unwrap();
    assert!(out.status.success());
    let answer = String::from_utf8(out.stdout)
        .unwrap()
        .trim_end()
        .to_string();
    assert!(answer.starts_with("seeds: "), "{answer}");
    (dir, answer)
}

/// A running `tim serve` child and the address it printed.
struct Served {
    child: Child,
    addr: String,
}

impl Served {
    fn start(dir: &Path, args: &str) -> Served {
        let mut child = tim()
            .args(args.split(' '))
            .args(["--addr", "127.0.0.1:0"])
            .current_dir(dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("tim serve {args} printed {line:?}"))
            .trim()
            .to_string();
        Served { child, addr }
    }

    /// Sends `lines` over one connection; returns the answer lines.
    fn ask(&self, lines: &str) -> Vec<String> {
        let mut conn = TcpStream::connect(&self.addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        conn.write_all(lines.as_bytes()).unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        BufReader::new(conn).lines().map(Result::unwrap).collect()
    }

    /// Stops the server; returns its stderr.
    fn stop(mut self) -> String {
        self.child.kill().ok();
        let mut stderr = String::new();
        self.child
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut stderr)
            .unwrap();
        stderr
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

#[test]
fn serve_adopts_the_pool_it_loads() {
    let (dir, want) = graph_and_pool("adopt");
    let theta = RrPool::load(dir.join("p.timp")).unwrap().meta.theta;

    // No -k, --eps or --seed: the pool's values are the serving config.
    let served = Served::start(&dir, "serve g.txt --pool p.timp --admin");
    let got = served.ask("select 5\nstats pools\n");
    let stderr = served.stop();
    assert_eq!(got[0], want, "serve answers from the loaded pool");
    let pools = &got[1];
    assert!(pools.contains(" cached=1 "), "{pools}");
    assert!(pools.contains(" builds=0 "), "{pools}");
    assert!(pools.contains(&format!(" theta={theta} ")), "{pools}");
    assert!(
        stderr.contains(&format!(
            "loaded pool p.timp: theta = {theta}, warmed for k <= 5"
        )),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_refuses_a_flag_that_contradicts_the_pool() {
    let (dir, _) = graph_and_pool("contradict");
    let mut child = tim()
        .args("serve g.txt --pool p.timp --eps 0.3 --addr 127.0.0.1:0".split(' '))
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The refusal comes before the server binds; a server that started
    // instead is stopped and fails the test.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().unwrap();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = status.unwrap_or_else(|| panic!("serve kept running: {stderr}"));
    assert!(!status.success(), "{stderr}");
    assert!(
        stderr.contains("--eps 0.3 contradicts the pool"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_serving_line_names_the_idle_timeout() {
    let (dir, _) = graph_and_pool("idle");
    let served = Served::start(
        &dir,
        "serve g.txt --pool p.timp --threads 2 --idle-timeout 30",
    );
    // An answer means the start-up lines are out.
    assert_eq!(served.ask("ping\n"), ["pong tim/3"]);
    let stderr = served.stop();
    let serving = stderr
        .lines()
        .find(|l| l.starts_with("serving "))
        .unwrap_or_else(|| panic!("no serving line: {stderr}"));
    assert!(
        serving.starts_with("serving 1 graph(s) with 2 workers, idle timeout 30.0s,"),
        "{serving}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
