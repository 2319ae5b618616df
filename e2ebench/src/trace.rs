//! Benchmark-side tracing: spans recorded around the benchmark's own calls
//! into each layer's public functions, kept in memory and written out at
//! the end of a traced run. Nothing here instruments the program itself.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One closed span: a named interval and the span that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `"fleet.probe"` or `"sim.run"`.
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch; never before `start_ns`.
    pub end_ns: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
}

impl SpanRecord {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span; pass it back to [`SpanLog::close`].
#[derive(Debug)]
#[must_use = "an open span must be closed"]
pub struct OpenSpan(Option<usize>);

/// An in-memory span recorder. While disabled, opening and closing spans
/// costs a branch and reads no clock.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRecord>,
    /// Indices of the spans currently open, innermost last.
    stack: Vec<usize>,
}

impl SpanLog {
    /// A disabled log.
    pub fn new() -> Self {
        SpanLog {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts or stops recording. Spans open across a switch are closed
    /// only if they were opened while enabled.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> OpenSpan {
        if !self.enabled {
            return OpenSpan(None);
        }
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        OpenSpan(Some(index))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn close(&mut self, span: OpenSpan) {
        let Some(index) = span.0 else {
            return;
        };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index].end_ns = end_ns;
    }

    /// Reserves room for `additional` more spans, so recording them
    /// allocates nothing.
    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve(additional);
        self.stack.reserve(8);
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Writes the spans as tab-separated `index name start_ns end_ns
    /// parent` lines (parent `-` for a root).
    pub fn write_tsv<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => writeln!(out, "{i}\t{}\t{}\t{}\t{p}", s.name, s.start_ns, s.end_ns)?,
                None => writeln!(out, "{i}\t{}\t{}\t{}\t-", s.name, s.start_ns, s.end_ns)?,
            }
        }
        out.flush()
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-name totals over a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus the part of the interval
    /// covered by child spans.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span itself).
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (
                        c.start_ns.clamp(span.start_ns, span.end_ns),
                        c.end_ns.clamp(span.start_ns, span.end_ns),
                    )
                })
                .filter(|(s, e)| e > s)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[SpanRecord]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // tick [0, 100) with probes [10, 30) and [40, 70); the second probe
        // has a sim child [45, 65).
        let spans = vec![
            span("tick", 0, 100, None),
            span("probe", 10, 30, Some(0)),
            span("probe", 40, 70, Some(0)),
            span("sim", 45, 65, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["probe"],
            SpanTotals {
                count: 2,
                total_ns: 50,
                self_ns: 30
            }
        );
        assert_eq!(totals["tick"].self_ns, 50);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 10, 50, None),
            span("a", 5, 20, Some(0)), // overhangs the start: covers 10..20
            span("b", 15, 30, Some(0)), // overlaps a: adds 20..30
            span("c", 45, 60, Some(0)), // overhangs the end: covers 45..50
        ];
        assert_eq!(self_times(&spans)[0], 40 - 10 - 10 - 5);
    }

    #[test]
    fn log_nests_and_disabled_log_records_nothing() {
        let mut log = SpanLog::new();
        let off = log.open("ignored");
        log.close(off);
        assert!(log.spans().is_empty());

        log.set_enabled(true);
        let outer = log.open("outer");
        let inner = log.open("inner");
        log.close(inner);
        log.close(outer);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);

        let mut tsv = Vec::new();
        log.write_tsv(&mut tsv).expect("in-memory write");
        let text = String::from_utf8(tsv).expect("utf-8");
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).expect("inner line").ends_with("\t0"));
    }
}
