//! Integration tests for `khaos-store merge SRC... DST` — the
//! write-side merge a multi-machine sweep runs to pool shard stores
//! before `experiments figN-merge` reads the union.
//!
//! Pinned here: a real merge copies records and is idempotent; a
//! damaged source is refused wholesale (verify-then-copy — no partial
//! merge leaves the destination half-poisoned); a typo'd source path
//! is an error, not an empty merge; a closed stdout ends the output,
//! not the work — no panic, every source merged, `verify` still fails
//! on damage.

use khaos_store::{ReportKey, Store, StoredReport};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "khaos-merge-cli-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cli(args: &[&PathBuf]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_khaos-store"));
    cmd.arg("merge");
    for a in args {
        cmd.arg(a);
    }
    cmd.output().expect("khaos-store runs")
}

fn put(store: &Store, subject: &str, metric: f64) {
    store
        .put_report(&StoredReport {
            spec: "o2;lto".into(),
            pipeline: 0xABCD,
            seed: 7,
            subject: subject.into(),
            total_micros: 42,
            passes: Vec::new(),
            metrics: vec![("overhead%".into(), metric)],
        })
        .expect("put_report");
}

fn get(store: &Store, subject: &str) -> Option<StoredReport> {
    store
        .get_report(&ReportKey {
            pipeline: 0xABCD,
            seed: 7,
            subject,
        })
        .expect("get_report")
}

/// Two shard stores pool into a destination; re-merging skips every
/// already-present record instead of rewriting it.
#[test]
fn merge_pools_shards_and_is_idempotent() {
    let (da, db, dd) = (scratch("a"), scratch("b"), scratch("dst"));
    let a = Store::open(&da).unwrap();
    let b = Store::open(&db).unwrap();
    put(&a, "fig7/x", 1.5);
    put(&a, "fig7/y", 2.5);
    put(&b, "fig7/z", 3.5);

    let out = cli(&[&da, &db, &dd]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("merge: 3 record(s) copied, 0 skipped"),
        "{stdout}"
    );

    let dst = Store::open_existing(&dd).expect("merge created a real store");
    for (subject, want) in [("fig7/x", 1.5), ("fig7/y", 2.5), ("fig7/z", 3.5)] {
        let rep = get(&dst, subject).expect("record arrived");
        assert_eq!(rep.metrics, vec![("overhead%".to_string(), want)]);
    }

    // Idempotence: everything is already present, nothing is copied.
    let again = cli(&[&da, &db, &dd]);
    assert!(again.status.success(), "{again:?}");
    let stdout = String::from_utf8(again.stdout).unwrap();
    assert!(
        stdout.contains("merge: 0 record(s) copied, 3 skipped"),
        "{stdout}"
    );

    for d in [&da, &db, &dd] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A source with a damaged record is refused before anything is
/// copied: verify-then-copy means the destination stays exactly as it
/// was, even for the source's undamaged records.
#[test]
fn merge_refuses_a_damaged_source_wholesale() {
    let (ds, dd) = (scratch("bad"), scratch("bad-dst"));
    let src = Store::open(&ds).unwrap();
    put(&src, "fig7/good", 1.0);
    put(&src, "fig7/bad", 2.0);

    // Corrupt one record body on disk (checksum damage).
    let victim = find_record(&ds, 2).expect("two records on disk");
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&victim, bytes).unwrap();

    let out = cli(&[&ds, &dd]);
    assert!(!out.status.success(), "a damaged source must be refused");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("refusing to merge"), "{stderr}");

    // Nothing — not even the undamaged record — reached the
    // destination.
    let dst = Store::open_existing(&dd).expect("dst was still created");
    assert!(get(&dst, "fig7/good").is_none());
    assert!(get(&dst, "fig7/bad").is_none());

    for d in [&ds, &dd] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A typo'd SRC is an error, not an empty merge (only the destination
/// may be created by `merge`).
#[test]
fn merge_refuses_a_nonexistent_source() {
    let dd = scratch("typo-dst");
    let ghost = scratch("typo-src"); // never created
    let out = cli(&[&ghost, &dd]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no such store directory"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dd);
}

/// Runs `khaos-store ARGS` with a stdout pipe whose read end is closed
/// before the child starts, so its first write fails with `BrokenPipe`.
fn cli_closed_stdout(args: &[&std::ffi::OsStr]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_khaos-store"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("khaos-store runs")
}

/// A reader that goes away (`merge … | grep -q …`) ends the output,
/// not the merge: no panic backtrace, no exit 101, and every source —
/// also those after the first lost line — reaches the destination.
#[test]
fn merge_survives_a_closed_stdout() {
    let (da, db, dd) = (scratch("pipe-a"), scratch("pipe-b"), scratch("pipe-dst"));
    put(&Store::open(&da).unwrap(), "fig7/p", 4.5);
    put(&Store::open(&db).unwrap(), "fig7/q", 5.5);
    let out = cli_closed_stdout(&["merge".as_ref(), da.as_ref(), db.as_ref(), dd.as_ref()]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    let dst = Store::open_existing(&dd).expect("merge created a real store");
    assert!(get(&dst, "fig7/p").is_some(), "the first source arrived");
    assert!(get(&dst, "fig7/q").is_some(), "the second source arrived");
    for d in [&da, &db, &dd] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// `verify` on a damaged store keeps its failing exit code when its
/// reader has gone away: a closed stdout must not turn damage into a
/// clean bill of health.
#[test]
fn verify_reports_damage_through_a_closed_stdout() {
    let ds = scratch("pipe-verify");
    let src = Store::open(&ds).unwrap();
    put(&src, "fig7/good", 1.0);
    put(&src, "fig7/bad", 2.0);
    let victim = find_record(&ds, 2).expect("two records on disk");
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&victim, bytes).unwrap();

    let out = cli_closed_stdout(&["verify".as_ref(), ds.as_ref()]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    std::fs::remove_dir_all(&ds).unwrap();
}

/// Returns the path of the `n`-th (1-based) report record file found
/// under the store's `rep/` section, in directory order.
fn find_record(store_dir: &Path, n: usize) -> Option<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![store_dir.join("rep")];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_none_or(|e| e != "lease") {
                found.push(path);
            }
        }
    }
    found.sort();
    found.into_iter().nth(n - 1)
}
