//! The benchmark's own span recorder. Spans are taken around the calls
//! into public engine functions; each generator thread owns a pre-sized
//! buffer, nothing is shared while measuring, and the file is written when
//! the run ends. Spans inside the engine are a later change.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The run's clock: nanoseconds since the process started measuring.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Span names: the four roots, then one per public engine call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Name {
    Txn,
    Scan,
    Read,
    Req,
    DbBegin,
    TableRead,
    TableUpdate,
    DbCommit,
    TableLocate,
    TableSumRidSpan,
    TableReadOne,
    ClientSendMultiRead,
    ClientRecv,
}

impl Name {
    pub const ALL: [Name; 13] = [
        Name::Txn,
        Name::Scan,
        Name::Read,
        Name::Req,
        Name::DbBegin,
        Name::TableRead,
        Name::TableUpdate,
        Name::DbCommit,
        Name::TableLocate,
        Name::TableSumRidSpan,
        Name::TableReadOne,
        Name::ClientSendMultiRead,
        Name::ClientRecv,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Txn => "txn",
            Name::Scan => "scan",
            Name::Read => "read",
            Name::Req => "req",
            Name::DbBegin => "db.begin",
            Name::TableRead => "table.read",
            Name::TableUpdate => "table.update",
            Name::DbCommit => "db.commit",
            Name::TableLocate => "table.locate",
            Name::TableSumRidSpan => "table.sum_rid_span",
            Name::TableReadOne => "table.read_one",
            Name::ClientSendMultiRead => "client.send_multi_read",
            Name::ClientRecv => "client.recv",
        }
    }
}

/// "No span": what `begin` returns while tracing is off.
pub const OFF: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Operation (root span) this span belongs to, numbered per thread.
    pub op: u32,
    /// Index of the parent span in the same buffer, `OFF` for a root.
    pub parent: u32,
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Which operations a tracer records, decided when their root opens.
#[derive(Debug, Clone, Copy)]
pub enum When {
    Never,
    Always,
    /// Every second slice of a window: slices 1, 3, 5 … counted from
    /// `start_ns`. Traced and untraced slices alternate so that a drift of
    /// the rate over the window is not mistaken for tracing overhead.
    OddSlices {
        start_ns: u64,
        slice_ns: u64,
    },
}

/// One generator thread's span buffer.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    when: When,
    ops: u32,
    spans: Vec<Span>,
}

/// Room kept free so that the children of open operations never outgrow
/// the buffer: the short transaction has 12, and the pipelined client keeps
/// 4 requests of 2 children each open.
const CHILD_ROOM: usize = 16;

impl Tracer {
    /// A recorder that holds up to `capacity` spans; once full it stops
    /// recording whole operations.
    pub fn new(clock: Clock, when: When, capacity: usize) -> Tracer {
        Tracer {
            clock,
            when,
            ops: 0,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// A recorder that never records (end-to-end runs).
    pub fn off(clock: Clock) -> Tracer {
        Tracer::new(clock, When::Never, 0)
    }

    /// Open the root span of an operation that starts at `now_ns`; `OFF`
    /// when this operation is not recorded.
    pub fn root(&mut self, name: Name, now_ns: u64) -> u32 {
        let wanted = match self.when {
            When::Never => false,
            When::Always => true,
            When::OddSlices { start_ns, slice_ns } => {
                now_ns >= start_ns && (now_ns - start_ns) / slice_ns % 2 == 1
            }
        };
        if !wanted || self.spans.len() + CHILD_ROOM > self.spans.capacity() {
            return OFF;
        }
        self.ops += 1;
        self.push(self.ops, OFF, name, now_ns)
    }

    /// Open a child of `parent` now; `OFF` when the parent is.
    pub fn begin(&mut self, parent: u32, name: Name) -> u32 {
        if parent == OFF {
            return OFF;
        }
        let now = self.clock.now_ns();
        self.push(self.spans[parent as usize].op, parent, name, now)
    }

    fn push(&mut self, op: u32, parent: u32, name: Name, start_ns: u64) -> u32 {
        self.spans.push(Span {
            op,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as u32 - 1
    }

    /// Record a finished child of `parent` whose times the caller read
    /// itself (a reply is matched to its request only after it arrived).
    pub fn record(&mut self, parent: u32, name: Name, start_ns: u64, end_ns: u64) {
        if parent != OFF {
            let id = self.push(self.spans[parent as usize].op, parent, name, start_ns);
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Close `id` now.
    pub fn end(&mut self, id: u32) {
        if id != OFF {
            self.spans[id as usize].end_ns = self.clock.now_ns();
        }
    }

    /// Close `id` at a time the caller already read.
    pub fn end_at(&mut self, id: u32, now_ns: u64) {
        if id != OFF {
            self.spans[id as usize].end_ns = now_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over one or more thread buffers.
#[derive(Debug, Clone, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
    pub median_ns: f64,
    pub median_self_ns: f64,
}

/// Self time of every span of one buffer: its duration minus its
/// children's. Children of one parent never overlap (they are calls made
/// one after another on one thread), so the part of the parent they cover
/// is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != OFF {
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Aggregate the buffers of all generator threads per span name.
pub fn totals(buffers: &[&[Span]]) -> Vec<(Name, NameTotals)> {
    let mut durations: Vec<Vec<u64>> = vec![Vec::new(); Name::ALL.len()];
    let mut selfs: Vec<Vec<u64>> = vec![Vec::new(); Name::ALL.len()];
    for spans in buffers {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            durations[s.name as usize].push(s.end_ns - s.start_ns);
            selfs[s.name as usize].push(own);
        }
    }
    let median = |v: &mut Vec<u64>| {
        v.sort_unstable();
        crate::stats::percentile(v, 0.5).unwrap_or(0) as f64
    };
    let mut out = Vec::new();
    for (name, (d, s)) in Name::ALL
        .into_iter()
        .zip(durations.iter_mut().zip(&mut selfs))
    {
        if !d.is_empty() {
            let t = NameTotals {
                count: d.len() as u64,
                total_ns: d.iter().sum(),
                self_ns: s.iter().sum(),
                median_ns: median(d),
                median_self_ns: median(s),
            };
            out.push((name, t));
        }
    }
    out
}

/// Spans per generator thread that go into the trace file; the printed
/// totals use every recorded span.
const FILE_SPANS: usize = 250_000;

/// The part of one thread's buffer that is written out: the longest prefix
/// of at most `FILE_SPANS` spans that ends where an operation starts.
pub fn file_share(spans: &[Span]) -> &[Span] {
    match spans.get(FILE_SPANS..) {
        None => spans,
        Some(rest) => {
            let cut = rest.iter().position(|s| s.parent == OFF);
            &spans[..FILE_SPANS + cut.unwrap_or(rest.len())]
        }
    }
}

/// Write every span as one JSON line:
/// `{op_id, span_id, parent, name, start_ns, end_ns}`. Ids are made unique
/// across threads by putting the thread number in the top 32 bits.
pub fn write_jsonl(path: &Path, buffers: &[&[Span]]) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in buffers.iter().enumerate() {
        let base = (thread as u64) << 32;
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == OFF {
                "null".to_string()
            } else {
                (base | u64::from(s.parent)).to_string()
            };
            writeln!(
                out,
                "{{\"op_id\":{},\"span_id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                base | u64::from(s.op),
                base | i as u64,
                parent,
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, name: Name, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 1,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(OFF, Name::Txn, 0, 100),
            span(0, Name::DbBegin, 5, 15),
            span(0, Name::TableRead, 20, 50),
            span(0, Name::DbCommit, 60, 95),
            span(OFF, Name::Txn, 200, 230),
            span(4, Name::DbCommit, 205, 230),
        ];
        assert_eq!(self_times(&spans), vec![25, 10, 30, 35, 5, 25]);
        let t = totals(&[&spans]);
        let txn = &t.iter().find(|(n, _)| *n == Name::Txn).unwrap().1;
        assert_eq!((txn.count, txn.total_ns, txn.self_ns), (2, 130, 30));
        let commit = &t.iter().find(|(n, _)| *n == Name::DbCommit).unwrap().1;
        assert_eq!((commit.total_ns, commit.self_ns), (60, 60));
        assert_eq!(commit.median_ns, 25.0);
        assert!(
            t.iter().all(|(n, _)| *n != Name::Scan),
            "unused names are left out"
        );
    }

    #[test]
    fn tracer_records_odd_slices_and_stops_when_full() {
        let clock = Clock::start();
        let odd = When::OddSlices {
            start_ns: 1_000,
            slice_ns: 100,
        };
        let mut tr = Tracer::new(clock, odd, 2 * CHILD_ROOM);
        assert_eq!(tr.root(Name::Txn, 999), OFF, "before the window");
        assert_eq!(tr.root(Name::Txn, 1_050), OFF, "slice 0 is untraced");
        assert_eq!(tr.root(Name::Txn, 1_250), OFF, "slice 2 is untraced");
        assert_eq!(tr.begin(OFF, Name::DbBegin), OFF);
        tr.end(OFF);
        let mut recorded = 0;
        for i in 0..40u64 {
            let root = tr.root(Name::Txn, 1_100 + i);
            let child = tr.begin(root, Name::DbBegin);
            tr.end(child);
            tr.end_at(root, 2_000 + i);
            recorded += u32::from(root != OFF);
        }
        assert!(
            recorded > 0 && recorded < 40,
            "stops at capacity: {recorded}"
        );
        assert_eq!(tr.spans().len(), 2 * recorded as usize);
        let s = tr.spans();
        assert_eq!((s[0].parent, s[1].parent, s[3].parent), (OFF, 0, 2));
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert!(Tracer::off(clock).root(Name::Scan, u64::MAX - 1) == OFF);
        assert!(Tracer::new(clock, When::Always, 64).root(Name::Scan, 0) != OFF);
    }

    #[test]
    fn trace_file_keeps_whole_operations() {
        let short = vec![span(OFF, Name::Txn, 0, 1), span(0, Name::DbBegin, 0, 1)];
        assert_eq!(file_share(&short).len(), 2);
        let mut long = vec![span(OFF, Name::Txn, 0, 1); FILE_SPANS];
        let tail = [
            FILE_SPANS as u32 - 1,
            FILE_SPANS as u32 - 1,
            OFF,
            FILE_SPANS as u32 + 2,
        ];
        long.extend(tail.map(|parent| span(parent, Name::Txn, 0, 1)));
        assert_eq!(file_share(&long).len(), FILE_SPANS + 2);
    }
}
