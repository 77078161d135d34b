//! In-memory spans for the traced run, their self-time attribution, and the
//! JSON dump written when the run ends.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; no workspace crate is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use crate::json::Json;

/// Parent of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Host nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// The operation this span belongs to.
    pub op: u32,
    /// Small per-process thread number (see [`thread_index`]).
    pub thread: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// A stable small number for the calling thread, assigned on first use.
pub fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static INDEX: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// Host nanoseconds since `epoch`; usable from worker threads.
pub fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A span measured on a worker thread, attached to its parent later.
#[derive(Clone, Copy)]
pub struct Timed {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub thread: u32,
}

impl Timed {
    /// Times `f` on the calling thread.
    pub fn run<R>(epoch: Instant, name: &'static str, f: impl FnOnce() -> R) -> (R, Timed) {
        let start = since(epoch);
        let r = f();
        (
            r,
            Timed {
                name,
                start,
                end: since(epoch),
                thread: thread_index(),
            },
        )
    }
}

pub struct Recorder {
    pub epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::with_epoch(Instant::now())
    }

    /// A recorder for one worker's spans, sharing `epoch` with the main
    /// recorder it is later merged into.
    pub fn with_epoch(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Moves `local`'s spans under `parent`, renumbering their parents.
    pub fn merge(&mut self, local: Recorder, parent: u32) {
        let offset = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let op = self.spans[parent as usize].op;
        for s in local.spans {
            let parent = if s.parent == ROOT {
                parent
            } else {
                s.parent + offset
            };
            self.push(Span { parent, op, ..s });
        }
    }

    /// Opens a span on the calling thread; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, op: u32) -> u32 {
        let start = since(self.epoch);
        self.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
            thread: thread_index(),
        })
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end = since(self.epoch);
    }

    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Attaches a worker-thread measurement under `parent`.
    pub fn attach(&mut self, t: Timed, parent: u32) -> u32 {
        let op = self.spans[parent as usize].op;
        self.push(Span {
            name: t.name,
            start: t.start,
            end: t.end,
            parent,
            op,
            thread: t.thread,
        })
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let r = f();
        self.close(id);
        r
    }
}

/// Per-layer totals over a set of spans.
#[derive(Default, Clone, Copy)]
pub struct LayerTime {
    pub calls: u64,
    /// Σ (span − covered child time): host time the layer was busy itself.
    pub busy_self_ns: f64,
    /// The share of wall time the layer accounts for. Children that ran
    /// concurrently split their parent's covered wall time in proportion
    /// to their busy time, so the wall shares of a span tree add up to the
    /// root span's duration exactly.
    pub wall_self_ns: f64,
}

/// Total length of the union of `[start, end)` intervals.
fn covered(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time per layer name, over the span trees whose root is named
/// `root` (every tree when `None`).
pub fn attribute(spans: &[Span], root: Option<&str>) -> BTreeMap<&'static str, LayerTime> {
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == ROOT {
            if root.is_none_or(|r| r == s.name) {
                roots.push(i);
            }
        } else {
            kids[s.parent as usize].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    let mut stack: Vec<(usize, f64)> = roots.into_iter().map(|r| (r, 1.0)).collect();
    while let Some((i, scale)) = stack.pop() {
        let s = &spans[i];
        let clip = |c: &Span| {
            (
                c.start.max(s.start),
                c.end.min(s.end).max(c.start.max(s.start)),
            )
        };
        let intervals: Vec<(u64, u64)> = kids[i].iter().map(|&c| clip(&spans[c])).collect();
        let busy: u64 = intervals.iter().map(|(a, b)| b - a).sum();
        let cover = covered(intervals);
        let own = s.ns().saturating_sub(cover) as f64;
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.busy_self_ns += own;
        t.wall_self_ns += own * scale;
        let child_scale = if busy == 0 {
            scale
        } else {
            scale * cover as f64 / busy as f64
        };
        stack.extend(kids[i].iter().map(|&c| (c, child_scale)));
    }
    out
}

/// Fan-out statistics over every span named `name`: the mean number of
/// distinct threads its children ran on, and Σ child busy time over Σ
/// fan-out wall time.
pub fn fanout(spans: &[Span], name: &str) -> (f64, f64) {
    let mut threads: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut busy = 0u64;
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        if spans[s.parent as usize].name == name {
            threads.entry(s.parent).or_default().push(s.thread);
            busy += s.ns();
        }
    }
    let fans: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
    let wall: u64 = fans.iter().map(|s| s.ns()).sum();
    let workers: usize = threads
        .into_values()
        .map(|mut t| {
            t.sort_unstable();
            t.dedup();
            t.len()
        })
        .sum();
    let mean_workers = if fans.is_empty() {
        0.0
    } else {
        workers as f64 / fans.len() as f64
    };
    let busy_over_wall = if wall == 0 {
        0.0
    } else {
        busy as f64 / wall as f64
    };
    (mean_workers, busy_over_wall)
}

/// Writes the spans and the per-layer totals as plain JSON to
/// `.hostbench/out/trace-<workload>-seed<seed>.json` and returns its path.
pub fn write(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let layers = attribute(spans, None)
        .into_iter()
        .map(|(name, t)| {
            (
                name,
                Json::Obj(vec![
                    ("calls", Json::Int(t.calls)),
                    ("busy_self_ms", Json::Num(t.busy_self_ns / 1e6)),
                    ("wall_self_ms", Json::Num(t.wall_self_ns / 1e6)),
                ]),
            )
        })
        .collect();
    let header = Json::Obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Int(seed)),
        (
            "clock",
            Json::str("host nanoseconds since the start of the traced run"),
        ),
        ("layers", Json::Obj(layers)),
        (
            "names",
            Json::Arr(names.iter().map(|n| Json::str(n)).collect()),
        ),
        (
            "span_fields",
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "op", "thread"]
                    .iter()
                    .map(|f| Json::str(f))
                    .collect(),
            ),
        ),
    ])
    .to_string();
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    // The header object is closed by hand so the span array can stream.
    write!(w, "{}, \"spans\": [", &header[..header.len() - 1])?;
    for (i, s) in spans.iter().enumerate() {
        let name = names.binary_search(&s.name).expect("name is listed");
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        let sep = if i == 0 { "" } else { "," };
        write!(
            w,
            "{sep}\n[{name},{},{},{parent},{},{}]",
            s.start, s.end, s.op, s.thread
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()?;
    Ok(path.display().to_string())
}
