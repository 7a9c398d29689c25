//! The benchmark's own host-clock spans: every call into a public
//! function of the engine crates is timed from outside through a
//! [`Recorder`], which also reads the allocation counter and the
//! machine's speed around it. With tracing on, the spans (name, start,
//! end, parent) are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;
use crate::calib::{Speedometer, NOMINAL_NS};

/// One recorded host span. Times are nanoseconds since the recorder
/// was created.
#[derive(Debug, Clone)]
pub struct HostSpan {
    pub name: &'static str,
    /// Disambiguates repeated spans of one name (segment number,
    /// repetition number); not part of the aggregation key.
    pub index: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Position of the enclosing span in the recorder's list.
    pub parent: Option<usize>,
}

/// An open span, to be handed back to [`Recorder::close`].
#[derive(Debug)]
pub struct Open {
    started: Instant,
    allocs: u64,
    kernel_ns: u64,
    slot: Option<usize>,
}

/// What one closed span measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    /// Wall-clock nanoseconds.
    pub ns: u64,
    /// Heap allocation calls (alloc + realloc) made while it was open.
    pub allocs: u64,
    /// The calibration kernel's time around the span: the mean of the
    /// readings right before and right after it.
    pub kernel_ns: f64,
}

impl Timed {
    /// The span's time in reference nanoseconds: what it would have
    /// taken had the machine run at the reference speed throughout
    /// (see [`crate::calib`]).
    pub fn reference_ns(&self) -> f64 {
        self.ns as f64 * NOMINAL_NS / self.kernel_ns
    }
}

/// Times spans on the host clock. With tracing off it keeps no span,
/// and whatever it does itself (the speed readings included) happens
/// outside the measured interval, so the time and the allocation
/// counts of a measured call are the call's own.
#[derive(Debug)]
pub struct Recorder<'s> {
    origin: Instant,
    spans: Option<Vec<HostSpan>>,
    stack: Vec<usize>,
    speed: &'s mut Speedometer,
}

impl Recorder<'_> {
    pub fn new(tracing: bool, speed: &mut Speedometer) -> Recorder<'_> {
        Recorder {
            origin: Instant::now(),
            spans: tracing.then(Vec::new),
            stack: Vec::new(),
            speed,
        }
    }

    /// Opens a grouping span (a repetition, a round): no speed reading
    /// is taken for it, and what its [`Recorder::close`] returns is not
    /// meant to be used.
    pub fn open_group(&mut self, name: &'static str, index: u32) -> Open {
        self.open_with(name, index, 0)
    }

    /// Opens a span around a call to be measured, under the innermost
    /// open one.
    pub fn open(&mut self, name: &'static str, index: u32) -> Open {
        let kernel_ns = self.speed.read();
        self.open_with(name, index, kernel_ns)
    }

    fn open_with(&mut self, name: &'static str, index: u32, kernel_ns: u64) -> Open {
        let slot = self.spans.as_mut().map(|spans| {
            spans.push(HostSpan {
                name,
                index,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(spans.len() - 1);
            spans.len() - 1
        });
        // Read the counter and the clock last, so that the recorder's
        // own bookkeeping stays outside the measured interval.
        let allocs = alloc::counts().0;
        let started = Instant::now();
        if let (Some(spans), Some(i)) = (self.spans.as_mut(), slot) {
            spans[i].start_ns = (started - self.origin).as_nanos() as u64;
        }
        Open {
            started,
            allocs,
            kernel_ns,
            slot,
        }
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn close(&mut self, open: Open) -> Timed {
        let ns = open.started.elapsed().as_nanos() as u64;
        let allocs = alloc::counts().0 - open.allocs;
        if let (Some(spans), Some(i)) = (self.spans.as_mut(), open.slot) {
            spans[i].end_ns = spans[i].start_ns + ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
        }
        // A grouping span took no reading when it opened and takes none
        // now.
        let kernel_ns = match open.kernel_ns {
            0 => 0.0,
            before => (before + self.speed.read()) as f64 / 2.0,
        };
        Timed {
            ns,
            allocs,
            kernel_ns,
        }
    }

    /// The spans recorded so far (empty with tracing off).
    pub fn spans(&self) -> &[HostSpan] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// Per-name totals of a span list: calls, summed duration, and summed
/// self time (duration minus the part covered by child spans).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates `spans` by name.
pub fn totals_by_name(spans: &[HostSpan]) -> BTreeMap<&'static str, NameTotals> {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children_ns[i]);
    }
    out
}

/// Process id the host track is rendered under, clear of the shard
/// indices the simulated tracks use.
pub const HOST_PID: u32 = 1000;

fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// Renders the host spans as Chrome-trace events (no enclosing
/// document): one process, one thread, complete events ordered so that
/// a parent precedes the children it contains.
pub fn chrome_events(spans: &[HostSpan]) -> Vec<String> {
    let mut order: Vec<&HostSpan> = spans.iter().collect();
    order.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut events = vec![
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{HOST_PID},\"tid\":0,\
             \"args\":{{\"name\":\"host clock (benchmark process)\"}}}}"
        ),
        format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{HOST_PID},\"tid\":0,\
             \"args\":{{\"name\":\"load generator\"}}}}"
        ),
    ];
    for s in order {
        let mut e = format!(
            "{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":{HOST_PID},\"tid\":0,\"ts\":",
            s.name
        );
        push_us(&mut e, s.start_ns);
        e.push_str(",\"dur\":");
        push_us(&mut e, s.end_ns - s.start_ns);
        let _ = write!(e, ",\"args\":{{\"index\":{}}}}}", s.index);
        events.push(e);
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            HostSpan {
                name: "segment",
                index: 0,
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            HostSpan {
                name: "run_txns",
                index: 0,
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
            },
            HostSpan {
                name: "run_query",
                index: 0,
                start_ns: 70,
                end_ns: 95,
                parent: Some(0),
            },
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["segment"].total_ns, 100);
        assert_eq!(t["segment"].self_ns, 15);
        assert_eq!(t["run_txns"].self_ns, 60);
        assert_eq!(t["run_query"].calls, 1);
    }

    #[test]
    fn recorder_nests_and_keeps_nothing_when_off() {
        let mut speed = Speedometer::new();
        let mut rec = Recorder::new(true, &mut speed);
        let outer = rec.open_group("outer", 0);
        let inner = rec.open("inner", 3);
        let boxed = std::hint::black_box(Box::new(7u64));
        let t = rec.close(inner);
        rec.close(outer);
        drop(boxed);
        assert!(t.allocs >= 1, "the Box must be counted");
        assert!(t.kernel_ns > 0.0 && t.reference_ns() > 0.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].index, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false, &mut speed);
        let o = off.open("x", 0);
        off.close(o);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn host_events_form_a_valid_chrome_trace() {
        let mut speed = Speedometer::new();
        let mut rec = Recorder::new(true, &mut speed);
        let a = rec.open_group("repetition", 0);
        let b = rec.open("run_txns", 0);
        rec.close(b);
        rec.close(a);
        let doc = format!(
            "{{\"traceEvents\":[\n{}\n]}}",
            chrome_events(rec.spans()).join(",\n")
        );
        let stats = pushtap_trace::chrome::validate(&doc).expect("valid trace");
        assert_eq!(stats.complete, 2);
    }
}
