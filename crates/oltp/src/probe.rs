//! The engine's one instrumentation seam: where its lifecycle spans and
//! its sanitizer hooks go.

use std::sync::Arc;

use pushtap_pim::Ps;
use pushtap_sanitizer::ShadowSanitizer;
use pushtap_trace::{NullSink, Phase, Span, TraceSink};

/// One engine's observers: the track it stamps (its shard index), a
/// lifecycle-span sink and a keyset-soundness sanitizer. A probe starts
/// with both off (a [`NullSink`], no [`ShadowSanitizer`]), so an
/// emission site costs one branch and builds nothing. Observers charge
/// no simulated time, so an armed probe never moves a committed byte.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pushtap_oltp::Probe;
/// use pushtap_pim::Ps;
/// use pushtap_trace::{MemSink, Phase};
///
/// let mut probe = Probe::new(3);
/// assert!(probe.sanitizer().is_none());
/// let sink = Arc::new(MemSink::new());
/// probe.set_trace_sink(sink.clone(), 3);
/// probe.span(Phase::Commit, 7, 0, Ps::new(5), Ps::new(5));
/// let spans = sink.take();
/// assert_eq!((spans[0].track, spans[0].txn), (3, 7));
/// ```
#[derive(Debug)]
pub struct Probe {
    track: u32,
    spans: Arc<dyn TraceSink>,
    san: Option<Arc<ShadowSanitizer>>,
}

impl Probe {
    /// A probe stamping `track`, with both observers off.
    pub fn new(track: u32) -> Probe {
        Probe {
            track,
            spans: Arc::new(NullSink),
            san: None,
        }
    }

    /// Sends spans to `sink` and stamps `track` on everything from now
    /// on.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>, track: u32) {
        self.spans = sink;
        self.track = track;
    }

    /// Arms `san`: every sanitizer hook of the engine reaches it.
    pub fn set_sanitizer(&mut self, san: Arc<ShadowSanitizer>) {
        self.san = Some(san);
    }

    /// Records `phase` over `start..=end` (equal for an instant) for
    /// transaction `txn` in `wave` (0 for none of either), stamped with
    /// the engine's track — only when the sink wants spans.
    pub fn span(&self, phase: Phase, txn: u64, wave: u64, start: Ps, end: Ps) {
        if self.spans.enabled() {
            let span = Span::new(self.track, phase, txn, start.ps(), end.ps());
            self.spans.record(span.in_wave(wave));
        }
    }

    /// The sanitizer and the track to stamp its hooks with — only when
    /// it is armed.
    pub fn sanitizer(&self) -> Option<(&ShadowSanitizer, u32)> {
        self.san.as_deref().map(|san| (san, self.track))
    }
}
