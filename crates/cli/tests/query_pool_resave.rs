//! `tim query --pool` persists a pool that grew during the session as a
//! whole `.timp` v2 file, written beside the old one and renamed over it,
//! and refuses a pool file of an older format version.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use tim_engine::{pool_version, RrPool, POOL_MAGIC};

/// Runs `tim <args>` in `dir` with `stdin` as its input; returns whether
/// it exited successfully, and its stderr.
fn run_tim(dir: &Path, args: &str, stdin: &str) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tim"))
        .args(args.split(' '))
        .current_dir(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tim");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait for tim");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.success(), stderr)
}

/// Runs `tim <args>` in `dir` with `stdin` as its input; returns stderr.
fn tim(dir: &Path, args: &str, stdin: &str) -> String {
    let (ok, stderr) = run_tim(dir, args, stdin);
    assert!(ok, "tim {args} failed: {stderr}");
    stderr
}

/// The number after `prefix` on the stderr line that starts with it.
fn theta_after(stderr: &str, prefix: &str) -> u64 {
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in: {stderr}"));
    let digits: String = line.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("theta")
}

#[test]
fn grown_pool_is_resaved_as_v2_in_place() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tim_query_resave_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    tim(
        &dir,
        "generate ba --out g.txt --n 1000 --param 3 --seed 1",
        "",
    );

    // Warmed for k <= 2, the pool is too small for k = 50, so the session
    // grows it and the process saves it again on exit.
    let query = "query g.txt --pool p.timp -k 2 --eps 0.5";
    let stderr = tim(&dir, query, "select 50\n");
    let warmed = theta_after(&stderr, "warmed pool: theta = ");
    let grown = theta_after(&stderr, "pool grew to theta = ");
    assert!(grown > warmed, "select 50 must grow the pool: {stderr}");

    let pool = dir.join("p.timp");
    assert_eq!(pool_version(&pool).unwrap(), 2, "the re-save writes v2");
    let mapped = RrPool::load(&pool).expect("the grown pool maps and passes every check");
    assert_eq!(mapped.meta.theta, grown);
    assert_eq!(mapped.sets.len() as u64, grown);
    assert!(mapped.sets.mapping().is_some());

    let mut left: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(left, ["g.txt", "p.timp"], "no temporary sibling remains");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_built_pool_is_saved_once_its_warm_up_has_finished() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tim_query_settled_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    tim(
        &dir,
        "generate ba --out g.txt --n 1000 --param 3 --seed 1",
        "",
    );

    // Warmed for k <= 2. Where θ(1) > θ(2), a pool saved after the
    // warm-up's first step would hold only θ(2), and `select 1` would
    // grow it and re-save it on exit.
    let query = "query g.txt --pool p.timp -k 2 --eps 0.5";
    let stderr = tim(&dir, query, "select 1\nselect 2\n");
    let (one, two) = (
        theta_after(&stderr, "select k=1: theta = "),
        theta_after(&stderr, "select k=2: theta = "),
    );
    assert!(one > two, "this graph needs θ(1) > θ(2): {stderr}");
    assert_eq!(theta_after(&stderr, "warmed pool: theta = "), one);
    assert!(!stderr.contains("pool grew"), "{stderr}");
    let pool = RrPool::load(dir.join("p.timp")).expect("the saved pool loads");
    assert_eq!(pool.meta.theta, one);
    assert_eq!(pool.sets.len() as u64, one);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_old_pool_file_is_refused_with_its_version() {
    let dir: PathBuf = std::env::temp_dir().join(format!("tim_query_old_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    tim(
        &dir,
        "generate ba --out g.txt --n 200 --param 3 --seed 1",
        "",
    );
    // The start of a version 1 pool: no writer emits one any more.
    let old = [&POOL_MAGIC[..], &1u32.to_le_bytes(), &[0u8; 32]].concat();
    std::fs::write(dir.join("old.timp"), &old).unwrap();
    // No stdin: the pool fails to load before the session would read.
    let (ok, stderr) = run_tim(&dir, "query g.txt --pool old.timp -k 2", "");
    assert!(!ok, "tim query must fail on an old pool: {stderr}");
    assert!(stderr.contains("version 1"), "{stderr}");
    assert_eq!(
        std::fs::read(dir.join("old.timp")).unwrap(),
        old,
        "the file is left as it was"
    );
    std::fs::remove_dir_all(&dir).ok();
}
