//! The benchmark's own span recorder.
//!
//! Spans are opened by the benchmark around its calls into each crate's
//! public functions; nothing inside the program is instrumented. Spans
//! are kept in memory while tracing is on and written out at the end in
//! the `khaos-obs` Chrome trace-event JSONL format (one `"ph":"X"` event
//! per line, `args.id`/`args.parent` linking the tree), so
//! `khaos-profile --validate` reads the file.
//!
//! Within a thread, nesting follows a thread-local stack. A span opened
//! on a thread with an empty stack (a `khaos-par` worker, a client
//! thread) hangs under the current root ([`root`]).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static ROOT: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Turns recording on or off (off by default).
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct Guard {
    open: Option<(u64, u64, &'static str, u64)>,
    root: bool,
}

fn open(name: &'static str, root: bool) -> Guard {
    if !enabled() {
        return Guard { open: None, root };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| ROOT.load(Ordering::SeqCst));
        s.push(id);
        parent
    });
    if root {
        ROOT.store(id, Ordering::SeqCst);
    }
    Guard {
        open: Some((id, parent, name, now_ns())),
        root,
    }
}

/// Opens a span under the innermost open span of this thread, or under
/// the current root.
pub fn span(name: &'static str) -> Guard {
    open(name, false)
}

/// Opens a span that becomes the parent of spans opened on threads
/// with no open span of their own, until it closes.
pub fn root(name: &'static str) -> Guard {
    open(name, true)
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.open else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
        if self.root {
            let _ = ROOT.compare_exchange(id, 0, Ordering::SeqCst, Ordering::SeqCst);
        }
        let rec = SpanRec {
            id,
            parent,
            name,
            tid: tid(),
            start_ns,
            end_ns,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(rec);
        }
    }
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().expect("span list poisoned"))
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of its interval that its children (on any thread) cover.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |kids| {
            union_ns(
                kids.iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect(),
            )
        });
        *out.entry(s.name).or_insert(0.0) += s.dur_ns().saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Share of the root spans' wall time during which at least one span
/// other than a root or a structural span was open.
pub fn coverage(spans: &[SpanRec], roots: &[&str], structural: &[&str]) -> f64 {
    let root_spans: Vec<&SpanRec> = spans.iter().filter(|s| roots.contains(&s.name)).collect();
    let wall: u64 = root_spans.iter().map(|s| s.dur_ns()).sum();
    if wall == 0 {
        return 0.0;
    }
    let covered: u64 = root_spans
        .iter()
        .map(|r| {
            union_ns(
                spans
                    .iter()
                    .filter(|s| !roots.contains(&s.name) && !structural.contains(&s.name))
                    .map(|s| (s.start_ns.max(r.start_ns), s.end_ns.min(r.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect(),
            )
        })
        .sum();
    covered as f64 / wall as f64
}

/// Writes `spans` as Chrome trace-event JSONL (the `khaos-obs` format).
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let pid = std::process::id();
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"khaos\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1000.0,
            s.dur_ns() as f64 / 1000.0,
            s.id,
            s.parent,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, 0, "root", 0, 100),
            rec(2, 1, "a", 10, 40),
            rec(3, 1, "a", 30, 60),
            rec(4, 2, "b", 15, 20),
        ];
        let st = self_times(&spans);
        assert!((st["root"] - 50e-9).abs() < 1e-15);
        assert!((st["a"] - 55e-9).abs() < 1e-15);
        assert!((st["b"] - 5e-9).abs() < 1e-15);
        let cov = coverage(&spans, &["root"], &[]);
        assert!((cov - 0.5).abs() < 1e-12);
    }
}
