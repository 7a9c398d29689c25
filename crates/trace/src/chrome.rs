//! Chrome-trace-format export (and a self-check validator) for recorded
//! spans.
//!
//! [`render`] serialises spans to the Trace Event Format JSON that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly: one *process* per shard, one *thread* per lane (engine /
//! coordinator / defrag / queue), complete (`"X"`) events for
//! intervals, instant (`"i"`) events for instants, and async
//! (`"b"`/`"e"`) event pairs for queue spans — which overlap freely and
//! would break slice nesting as `"X"` events. Timestamps convert from
//! simulated picoseconds to the format's microseconds with fractional
//! precision preserved.
//!
//! [`validate`] re-parses an emitted document with a minimal
//! dependency-free JSON parser and checks the structural invariants CI
//! smokes: well-formed JSON, required keys per event type, non-negative
//! times, monotone `ts` per `(pid, tid)` track, and matched async
//! begin/end pairs. It exists because this workspace vendors no JSON
//! parser — the validator doubles as the machine check that the
//! hand-rendered output stays loadable.

use crate::span::{Phase, Span};

/// Lane names rendered as Chrome-trace thread names, indexed by
/// [`Phase::lane`].
const LANES: [&str; 5] = ["engine", "coordinator", "defrag", "queue", "durability"];

fn push_ts(out: &mut String, ps: u64) {
    // Picoseconds → microseconds with six fractional digits: exact for
    // any u64 (1 ps = 1e-6 us), rendered without float rounding.
    let us = ps / 1_000_000;
    let frac = ps % 1_000_000;
    out.push_str(&format!("{us}.{frac:06}"));
}

/// One serialisable trace event plus its sort key: `(pid, tid, ts,
/// longest-first)` so parents precede contained children at equal
/// start times and the per-track `ts` monotonicity [`validate`] checks
/// holds by construction, whatever order the spans were emitted in.
struct Ev {
    pid: u32,
    tid: u32,
    ts: u64,
    rdur: std::cmp::Reverse<u64>,
    body: String,
}

fn event(pid: u32, tid: u32, ts: u64, dur: u64, body: String) -> Ev {
    Ev {
        pid,
        tid,
        ts,
        rdur: std::cmp::Reverse(dur),
        body,
    }
}

fn ts_string(ps: u64) -> String {
    let mut s = String::new();
    push_ts(&mut s, ps);
    s
}

/// Renders spans as a Chrome-trace JSON document (see the module docs
/// for the event mapping).
pub fn render(spans: &[Span]) -> String {
    let mut events: Vec<Ev> = Vec::with_capacity(spans.len() + 8);
    for s in spans {
        let (pid, tid) = (s.track, s.phase.lane());
        let (name, cat) = (s.phase.name(), LANES[tid as usize]);
        let ts = ts_string(s.start);
        if s.phase == Phase::Queued {
            // Async pair: queue spans of different transactions overlap
            // freely, which "X" slice nesting cannot represent.
            events.push(event(
                pid,
                tid,
                s.start,
                s.dur(),
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"b\",\"id\":{},\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"args\":{{\"txn\":{},\"wave\":{}}}}}",
                    s.txn, s.txn, s.wave
                ),
            ));
            events.push(event(
                pid,
                tid,
                s.end,
                0,
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"e\",\"id\":{},\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{}}}",
                    s.txn,
                    ts_string(s.end)
                ),
            ));
        } else if s.phase.is_instant() {
            events.push(event(
                pid,
                tid,
                s.start,
                0,
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                     \"args\":{{\"txn\":{},\"wave\":{}}}}}",
                    s.txn, s.wave
                ),
            ));
        } else {
            events.push(event(
                pid,
                tid,
                s.start,
                s.dur(),
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{},\
                     \"args\":{{\"txn\":{},\"wave\":{}}}}}",
                    ts_string(s.dur()),
                    s.txn,
                    s.wave
                ),
            ));
        }
    }
    events.sort_by_key(|a| (a.pid, a.tid, a.ts, a.rdur));

    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    // Metadata: name each shard's process and each lane's thread so the
    // viewer shows "shard N" groups with readable lanes.
    let tracks: std::collections::BTreeSet<(u32, u32)> =
        events.iter().map(|e| (e.pid, e.tid)).collect();
    for &(pid, tid) in &tracks {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"shard {pid}\"}}}},\n"
        ));
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            LANES[tid as usize]
        ));
    }
    for e in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&e.body);
    }
    out.push_str(
        "\n],\"displayTimeUnit\":\"ns\",\
                  \"otherData\":{\"generator\":\"pushtap-trace\"}}\n",
    );
    out
}

// ---------------------------------------------------------------------
// A minimal JSON parser — just enough to validate our own output (and
// any structurally similar Chrome trace). No vendored JSON crate
// exists in this workspace, so the validator carries its own.
// ---------------------------------------------------------------------

/// A parsed JSON value (subset: no exponent-heavy number edge cases
/// beyond `f64` parsing).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (output is ASCII, but be
                    // tolerant of foreign traces). The input is already
                    // a `str`, so this decodes only the scalar at `pos`.
                    let c = self
                        .src
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// What [`validate`] measured while checking a trace document.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChromeStats {
    /// Total events (metadata included).
    pub events: u64,
    /// Complete (`"X"`) interval events.
    pub complete: u64,
    /// Instant (`"i"`) events.
    pub instants: u64,
    /// Matched async (`"b"`/`"e"`) pairs.
    pub async_pairs: u64,
    /// Distinct `(pid, tid)` tracks carrying events.
    pub tracks: u64,
    /// The latest `ts + dur` observed, in microseconds.
    pub max_ts_us: f64,
}

/// Parses `json` as a Chrome-trace document and checks the structural
/// invariants the CI smoke asserts: a top-level `traceEvents` array;
/// every event an object with `name`/`ph`/`pid`/`tid` (and `ts` for
/// non-metadata events); non-negative `ts`, `dur` on `"X"` events;
/// **monotone `ts` per `(pid, tid)` track** in array order; and async
/// `"b"`/`"e"` events matched per `(pid, id)` with `e` never before its
/// `b`. Returns counts for reporting.
///
/// # Errors
///
/// Returns a description of the first malformed construct found.
pub fn validate(json: &str) -> Result<ChromeStats, String> {
    let mut p = Parser::new(json);
    let doc = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    let events = doc
        .get("traceEvents")
        .ok_or("missing \"traceEvents\"")?
        .clone();
    let Json::Arr(events) = events else {
        return Err("\"traceEvents\" is not an array".into());
    };
    let mut stats = ChromeStats::default();
    let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
    let mut open_async: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
    for (i, ev) in events.iter().enumerate() {
        let ctx = |msg: &str| format!("event {i}: {msg}");
        if !matches!(ev, Json::Obj(_)) {
            return Err(ctx("not an object"));
        }
        stats.events += 1;
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing \"name\""))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing \"ph\""))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("missing \"pid\""))? as u64;
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("missing \"tid\""))? as u64;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("missing \"ts\""))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(ctx("negative or non-finite \"ts\""));
        }
        let prev = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            return Err(ctx(&format!(
                "ts {ts} goes backwards on track ({pid},{tid}) after {prev}"
            )));
        }
        *prev = ts;
        let mut end = ts;
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ctx("\"X\" event missing \"dur\""))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(ctx("negative \"dur\""));
                }
                end = ts + dur;
                stats.complete += 1;
            }
            "i" => stats.instants += 1,
            "b" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ctx("async event missing \"id\""))?
                    as u64;
                *open_async.entry((pid, id)).or_insert(0) += 1;
            }
            "e" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ctx("async event missing \"id\""))?
                    as u64;
                let open = open_async.entry((pid, id)).or_insert(0);
                if *open == 0 {
                    return Err(ctx(&format!("async end without begin (pid {pid} id {id})")));
                }
                *open -= 1;
                stats.async_pairs += 1;
            }
            other => return Err(ctx(&format!("unknown \"ph\": {other:?}"))),
        }
        stats.max_ts_us = stats.max_ts_us.max(end);
    }
    if let Some(((pid, id), n)) = open_async.iter().find(|(_, &n)| n > 0) {
        return Err(format!("{n} unclosed async span(s) for pid {pid} id {id}"));
    }
    stats.tracks = last_ts.len() as u64;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Phase, Span};

    fn sample_spans() -> Vec<Span> {
        vec![
            Span::instant(0, Phase::Routed, 1, 0),
            Span::new(0, Phase::Queued, 1, 0, 500),
            Span::new(0, Phase::Prepare, 1, 500, 1_500),
            Span::new(0, Phase::TwoPc, 1, 500, 2_000).in_wave(1),
            Span::instant(0, Phase::Commit, 1, 2_000),
            Span::new(1, Phase::DefragStall, 0, 100, 900),
            // Emitted out of order on purpose: render must sort.
            Span::new(0, Phase::WavePrepare, 0, 400, 2_100).in_wave(1),
        ]
    }

    #[test]
    fn rendered_trace_validates() {
        let json = render(&sample_spans());
        let stats = validate(&json).expect("own output must validate");
        assert_eq!(stats.instants, 2);
        assert_eq!(stats.async_pairs, 1, "one queued span");
        // prepare + 2pc + wave_prepare + defrag_stall
        assert_eq!(stats.complete, 4);
        assert!(stats.max_ts_us >= 2_100.0 / 1e6);
        assert!(stats.tracks >= 3);
    }

    #[test]
    fn parent_sorts_before_contained_child() {
        // wave_prepare [400, 2100] contains 2pc [500, 2000] on the same
        // lane: the parent must serialise first for slice nesting.
        let json = render(&sample_spans());
        let wp = json.find("\"wave_prepare\"").expect("wave span present");
        let tp = json.find("\"2pc\"").expect("2pc span present");
        assert!(wp < tp, "parent after child breaks viewer nesting");
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = render(&[]);
        let stats = validate(&json).expect("empty trace");
        assert_eq!(stats.complete + stats.instants + stats.async_pairs, 0);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate("").is_err());
        assert!(validate("{}").is_err(), "no traceEvents");
        assert!(validate("{\"traceEvents\":3}").is_err(), "not an array");
        assert!(
            validate("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err(),
            "missing keys"
        );
        // ts going backwards on one track.
        let bad = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":0,\"ts\":5.0},\
            {\"name\":\"b\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":0,\"ts\":4.0}]}";
        assert!(validate(bad).unwrap_err().contains("backwards"));
        // Unmatched async begin.
        let dangling = "{\"traceEvents\":[\
            {\"name\":\"q\",\"ph\":\"b\",\"id\":1,\"pid\":0,\"tid\":3,\"ts\":1.0}]}";
        assert!(validate(dangling).unwrap_err().contains("unclosed"));
    }

    /// A 50 000-span document validates inside the ordinary test run:
    /// string parsing decodes one scalar per character, not the rest of
    /// the document (which made validation quadratic — minutes at this
    /// size).
    #[test]
    fn large_trace_validates_in_linear_time() {
        let spans: Vec<Span> = (0..50_000u64)
            .map(|i| {
                let track = (i % 8) as u32;
                let at = i * 100;
                match i % 3 {
                    0 => Span::instant(track, Phase::Commit, i, at),
                    1 => Span::new(track, Phase::Prepare, i, at, at + 50),
                    _ => Span::new(track, Phase::Queued, i, at, at + 50).in_wave(i / 8 + 1),
                }
            })
            .collect();
        let stats = validate(&render(&spans)).expect("own output must validate");
        assert_eq!(stats.instants, 16_667);
        assert_eq!(stats.complete, 16_667);
        assert_eq!(stats.async_pairs, 16_666);
    }

    #[test]
    fn strings_decode_multibyte_scalars_and_unicode_escapes() {
        let mut p = Parser::new("\"caf\u{e9} \\u00e9 \u{1f980}\" tail");
        assert_eq!(p.string().as_deref(), Ok("caf\u{e9} \u{e9} \u{1f980}"));
        assert_eq!(&p.src[p.pos..], " tail", "consumed exactly the string");
        // And through the validator: a foreign trace with non-ASCII names.
        let doc = "{\"traceEvents\":[\
            {\"name\":\"pr\u{e9}parer \\u00e9\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":0,\"ts\":1.0}]}";
        assert_eq!(validate(doc).expect("valid").instants, 1);
    }

    #[test]
    fn ts_conversion_is_exact() {
        let mut s = String::new();
        push_ts(&mut s, 1_234_567);
        assert_eq!(s, "1.234567");
        let mut s = String::new();
        push_ts(&mut s, 42);
        assert_eq!(s, "0.000042");
    }
}
