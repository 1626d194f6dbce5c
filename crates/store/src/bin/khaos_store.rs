//! `khaos-store` — inspect and maintain an artifact store directory.
//!
//! ```text
//! khaos-store <stats|ls|verify|gc|cat|report|merge> [--max-bytes N] [ARGS] [DIR...]
//!
//!   stats          record counts and byte totals per section
//!   ls             every record with its decoded key
//!   verify         integrity-check every record (exit 1 on damage)
//!   gc             shrink to --max-bytes, deleting oldest records first
//!   cat ADDR       decode one record (content address or section/file)
//!   report         every report record with its metrics, across one or
//!                  more store directories (the shard-merge query view)
//!   merge SRC.. DST  physically consolidate shard stores into DST
//!                  (created if absent): each SRC is integrity-checked
//!                  first and the merge refuses checksum damage and
//!                  same-address content conflicts; records already in
//!                  DST byte-identically are skipped, claim files never
//!                  travel. Grid *completeness* is the experiment
//!                  layer's concern — `experiments figN-merge DST` is
//!                  the command that refuses an incomplete grid with
//!                  the missing-cell listing.
//!   DIR            store directory; defaults to $KHAOS_STORE.
//!                  `report` accepts several DIRs and reads their union
//!                  (first store wins on duplicate keys).
//! ```
//!
//! Every command writes its report through one `io::Write` and returns
//! `io::Result`. A closed stdout (`khaos-store ls | head`) ends the
//! output, not the work: later writes are dropped, every command runs
//! to its end and exits with its own code (`merge` still merges every
//! SRC, `verify` still exits 1 on damage).

use khaos_store::Store;
use std::io::{self, Write};
use std::process::ExitCode;

struct Args {
    command: String,
    max_bytes: Option<u64>,
    /// Positional arguments after the command (needle and/or DIRs).
    positional: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        max_bytes: None,
        positional: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-bytes" => {
                let v = it.next().ok_or("--max-bytes needs a byte count")?;
                args.max_bytes = Some(parse_bytes(&v)?);
            }
            _ if args.command.is_empty() => args.command = a,
            _ => args.positional.push(a),
        }
    }
    if args.command.is_empty() {
        return Err("missing command".into());
    }
    Ok(args)
}

/// Parses `N`, `Nk`, `Nm`, `Ng` (binary multiples).
fn parse_bytes(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'm') | Some(b'M') => (&s[..s.len() - 1], 1 << 20),
        Some(b'g') | Some(b'G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("`{s}` is not a byte count (try 500m, 2g, 1048576)"))
}

fn human(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 30 => format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64),
        b if b >= 1 << 20 => format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64),
        b if b >= 1 << 10 => format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64),
        b => format!("{b} B"),
    }
}

const USAGE: &str =
    "usage: khaos-store <stats|ls|verify|gc|cat|report|merge> [--max-bytes N] [ADDR] [DIR...]";

/// Resolves the store directories of a command: the given positionals,
/// or `$KHAOS_STORE` when none were passed.
fn resolve_dirs(positional: &[String]) -> Result<Vec<String>, String> {
    if !positional.is_empty() {
        return Ok(positional.to_vec());
    }
    match std::env::var("KHAOS_STORE") {
        Ok(d) if !d.trim().is_empty() => Ok(vec![d]),
        _ => Err("no store directory (pass DIR or set KHAOS_STORE)".into()),
    }
}

fn open_all(dirs: &[String]) -> std::io::Result<Vec<Store>> {
    // Inspection/maintenance never creates a store: a typo'd DIR must
    // be an error, not a fresh empty store that "verifies clean" or
    // reports every record missing.
    dirs.iter().map(Store::open_existing).collect()
}

/// A writer whose reader may go away (`| head`, `| grep -q`): after
/// the first `BrokenPipe` every later write is dropped as if written,
/// so the command's work goes on and only its report is cut short.
struct UntilClosed<W> {
    inner: W,
    closed: bool,
}

impl<W: Write> UntilClosed<W> {
    fn quiet<T>(&mut self, r: io::Result<T>, dropped: T) -> io::Result<T> {
        match r {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(dropped)
            }
            r => r,
        }
    }
}

impl<W: Write> Write for UntilClosed<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Ok(buf.len());
        }
        let r = self.inner.write(buf);
        self.quiet(r, buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        let r = self.inner.flush();
        self.quiet(r, ())
    }
}

fn main() -> ExitCode {
    let mut out = UntilClosed {
        inner: io::stdout().lock(),
        closed: false,
    };
    match run(&mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("khaos-store: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the arguments and runs one command, writing its report to
/// `out`. Usage errors are reported here (exit 2); I/O errors, of the
/// store or of `out`, are returned.
fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("khaos-store: {e}");
            eprintln!("{USAGE}");
            return Ok(ExitCode::from(2));
        }
    };

    // `cat` consumes its first positional as the record needle; every
    // other positional (all commands) is a store directory.
    let mut positional = args.positional;
    let needle = if args.command == "cat" {
        if positional.is_empty() {
            eprintln!("khaos-store: cat needs a record address (16 hex digits or section/file)");
            return Ok(ExitCode::from(2));
        }
        Some(positional.remove(0))
    } else {
        None
    };
    // `merge SRC... DST` has its own positional grammar (and a
    // write-side destination), handled before the read-side open path.
    if args.command == "merge" {
        return cmd_merge(out, &positional);
    }
    if args.command != "report" && positional.len() > 1 {
        eprintln!("khaos-store: {} takes at most one DIR", args.command);
        return Ok(ExitCode::from(2));
    }
    let dirs = match resolve_dirs(&positional) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("khaos-store: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    let stores = open_all(&dirs)?;

    match args.command.as_str() {
        "stats" => cmd_stats(out, &stores[0]),
        "ls" => cmd_ls(out, &stores[0]),
        "verify" => cmd_verify(out, &stores[0]),
        "cat" => cmd_cat(out, &stores[0], needle.as_deref().expect("checked above")),
        "report" => cmd_report(out, &stores),
        "gc" => match args.max_bytes {
            Some(max) => cmd_gc(out, &stores[0], max),
            None => {
                eprintln!("khaos-store: gc needs --max-bytes");
                Ok(ExitCode::from(2))
            }
        },
        other => {
            eprintln!("khaos-store: unknown command `{other}`");
            eprintln!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    }
}

fn cmd_merge(out: &mut impl Write, positional: &[String]) -> io::Result<ExitCode> {
    if positional.len() < 2 {
        eprintln!("khaos-store: merge needs at least one SRC and exactly one DST directory");
        eprintln!("{USAGE}");
        return Ok(ExitCode::from(2));
    }
    let (srcs, dst) = positional.split_at(positional.len() - 1);
    // Sources must already be stores (a typo'd SRC is an error, not an
    // empty merge); the destination is the one directory `merge` may
    // create.
    let dest = Store::open(&dst[0])?;
    let mut copied = 0u64;
    let mut skipped = 0u64;
    for dir in srcs {
        let s = dest.merge_from(&Store::open_existing(dir)?)?;
        writeln!(
            out,
            "merged {dir}: {} record(s) copied, {} already present",
            s.copied, s.skipped
        )?;
        copied += s.copied;
        skipped += s.skipped;
    }
    writeln!(
        out,
        "merge: {copied} record(s) copied, {skipped} skipped into {}",
        dest.root().display()
    )?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_cat(out: &mut impl Write, store: &Store, needle: &str) -> io::Result<ExitCode> {
    match store.cat(needle)? {
        Some(dump) => {
            write!(out, "{dump}")?;
            Ok(ExitCode::SUCCESS)
        }
        None => {
            eprintln!(
                "khaos-store: no record `{needle}` in {}",
                store.root().display()
            );
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_report(out: &mut impl Write, stores: &[Store]) -> io::Result<ExitCode> {
    // Union across stores, first store wins on duplicate keys —
    // exactly the precedence the shard-merge layer uses.
    let mut seen = std::collections::HashSet::new();
    let mut all = Vec::new();
    for store in stores {
        for r in store.reports()? {
            if seen.insert((r.subject.clone(), r.pipeline, r.seed)) {
                all.push(r);
            }
        }
    }
    all.sort_by(|a, b| (&a.subject, a.pipeline, a.seed).cmp(&(&b.subject, b.pipeline, b.seed)));
    for r in &all {
        let metrics: Vec<String> = r.metrics.iter().map(|(n, v)| format!("{n}={v}")).collect();
        writeln!(
            out,
            "{:<44} pipeline={:016x} seed={:#x} {}",
            r.subject,
            r.pipeline,
            r.seed,
            if metrics.is_empty() {
                format!("spec=`{}` total={}us", r.spec, r.total_micros)
            } else {
                metrics.join(" ")
            }
        )?;
    }
    writeln!(
        out,
        "{} report record(s) across {} store(s)",
        all.len(),
        stores.len()
    )?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(out: &mut impl Write, store: &Store) -> io::Result<ExitCode> {
    let s = store.stats()?;
    writeln!(out, "store: {}", store.root().display())?;
    writeln!(out, "{:<12} {:>8} {:>12}", "section", "records", "bytes")?;
    for (name, sec) in [
        ("embeddings", s.embeddings),
        ("matrices", s.matrices),
        ("reports", s.reports),
        ("quantized", s.quantized),
        ("indexes", s.indexes),
    ] {
        writeln!(
            out,
            "{:<12} {:>8} {:>12}",
            name,
            sec.records,
            human(sec.bytes)
        )?;
    }
    writeln!(
        out,
        "{:<12} {:>8} {:>12}",
        "total",
        s.total_records(),
        human(s.total_bytes())
    )?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_ls(out: &mut impl Write, store: &Store) -> io::Result<ExitCode> {
    for r in store.ls()? {
        writeln!(
            out,
            "{:<4} {:<22} {:>12}  {}",
            r.section,
            r.file,
            human(r.bytes),
            r.key.as_deref().unwrap_or("<undecodable>")
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_verify(out: &mut impl Write, store: &Store) -> io::Result<ExitCode> {
    let issues = store.verify()?;
    let stats = store.stats()?;
    if issues.is_empty() {
        writeln!(
            out,
            "ok: {} records, {} — all checksums, addresses and shapes verify",
            stats.total_records(),
            human(stats.total_bytes())
        )?;
        return Ok(ExitCode::SUCCESS);
    }
    for i in &issues {
        writeln!(out, "BAD {:<28} {}", i.file, i.reason)?;
    }
    writeln!(
        out,
        "{} of {} records damaged",
        issues.len(),
        stats.total_records()
    )?;
    Ok(ExitCode::FAILURE)
}

fn cmd_gc(out: &mut impl Write, store: &Store, max_bytes: u64) -> io::Result<ExitCode> {
    let g = store.gc(max_bytes)?;
    writeln!(
        out,
        "gc: scanned {} records, deleted {} (oldest first): {} -> {} (target {})",
        g.scanned,
        g.deleted,
        human(g.bytes_before),
        human(g.bytes_after),
        human(max_bytes)
    )?;
    Ok(ExitCode::SUCCESS)
}
