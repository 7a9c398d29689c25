//! Record framing and the torn-tail recovery scan.
//!
//! Every record on a log is framed as
//!
//! ```text
//! [ payload length : u32 LE ][ FNV-1a checksum : u32 LE ][ payload ]
//! ```
//!
//! and a log is nothing but a concatenation of frames. The frame is
//! self-delimiting, so recovery needs no index: [`scan`] walks the
//! bytes front to back and stops at the first frame that is incomplete
//! (a crash tore the tail mid-write) or whose checksum does not match
//! (the tear landed inside the payload, or the media corrupted it).
//! Everything before that point is the **longest valid prefix** — the
//! only bytes a force barrier ever promised were durable.

/// Bytes of framing overhead per record: a `u32` payload length
/// followed by a `u32` checksum, both little-endian.
pub const HEADER_LEN: usize = 8;

/// 32-bit FNV-1a over the payload bytes.
///
/// Chosen because it is strong enough to reject torn frames (any
/// truncation or bit flip inside the payload changes the digest with
/// overwhelming probability) while staying dependency-free.
#[must_use]
pub fn checksum(payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in payload {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Frames a payload as one on-log record: header plus payload bytes.
#[must_use]
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    frame_with(&mut out, |out| out.extend_from_slice(payload));
    out
}

/// Appends one frame to `out` in place: reserves the header, lets
/// `write` append the payload after it, then fills in the payload's
/// length and checksum. Returns the framed bytes (header + payload).
pub(crate) fn frame_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    write(out);
    let payload = &out[start + HEADER_LEN..];
    let len = u32::try_from(payload.len()).expect("WAL payload exceeds u32::MAX bytes");
    let sum = checksum(payload);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    out.len() - start
}

/// What [`scan`] recovered from a log image: the payloads are lent
/// slices of that image, so a scan allocates one list per log, not a
/// buffer per record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome<'a> {
    /// The payloads of every record in the longest valid prefix, in
    /// append order.
    pub records: Vec<&'a [u8]>,
    /// Bytes of the valid prefix (where an append after recovery would
    /// resume).
    pub valid_len: usize,
    /// Bytes past the valid prefix that were discarded (torn tail or
    /// corruption).
    pub truncated_bytes: u64,
    /// Whether anything was discarded (`truncated_bytes > 0`).
    pub torn: bool,
}

/// One frame of a log image, checksum not yet verified.
struct Frame<'a> {
    bytes: &'a [u8],
    sum: u32,
    /// Where the frame ends in the image.
    end: usize,
}

/// The complete frames of a log image, front to back, up to the first
/// incomplete header (or the clean end) or the first payload the image
/// tears off.
fn frames(bytes: &[u8]) -> impl Iterator<Item = Frame<'_>> {
    let mut at = 0usize;
    std::iter::from_fn(move || {
        let header = bytes.get(at..at + HEADER_LEN)?;
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let sum = u32::from_le_bytes(header[4..].try_into().unwrap());
        let end = at + HEADER_LEN + len;
        let payload = bytes.get(at + HEADER_LEN..end)?;
        at = end;
        Some(Frame {
            bytes: payload,
            sum,
            end,
        })
    })
}

/// Walks a log image front to back and recovers the longest valid
/// prefix of records.
///
/// Stops at the first incomplete header, incomplete payload, or
/// checksum mismatch; all bytes from that point on are reported as
/// truncated. A clean log scans with `torn == false` and
/// `valid_len == bytes.len()`.
#[must_use]
pub fn scan(bytes: &[u8]) -> ScanOutcome<'_> {
    // A first pass over the headers alone counts the frames that fit, so
    // the list is allocated once; a checksum failure only leaves it
    // shorter than counted.
    let mut records = Vec::with_capacity(frames(bytes).count());
    let mut at = 0usize;
    for payload in frames(bytes) {
        if checksum(payload.bytes) != payload.sum {
            break; // tear inside the payload, or media corruption
        }
        records.push(payload.bytes);
        at = payload.end;
    }
    ScanOutcome {
        records,
        valid_len: at,
        truncated_bytes: (bytes.len() - at) as u64,
        torn: at != bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(payloads: &[&[u8]]) -> Vec<u8> {
        payloads.iter().flat_map(|p| frame(p)).collect()
    }

    #[test]
    fn round_trips_multiple_records() {
        let log = log_of(&[b"alpha", b"", b"a longer third record"]);
        let scan = scan(&log);
        assert_eq!(
            scan.records,
            [b"alpha".as_slice(), b"", b"a longer third record"]
        );
        assert_eq!(scan.valid_len, log.len());
        assert_eq!(scan.truncated_bytes, 0);
        assert!(!scan.torn);
    }

    #[test]
    fn scan_lends_slices_of_the_image() {
        let log = log_of(&[b"one", b"two"]);
        let scan = scan(&log);
        assert_eq!(scan.records[0].as_ptr(), log[HEADER_LEN..].as_ptr());
        assert_eq!(scan.records[1].as_ptr(), log[2 * HEADER_LEN + 3..].as_ptr());
    }

    #[test]
    fn empty_log_scans_clean() {
        let scan = scan(&[]);
        assert!(scan.records.is_empty());
        assert!(!scan.torn);
    }

    #[test]
    fn torn_header_truncates_to_prior_record() {
        let mut log = log_of(&[b"keep"]);
        let keep = log.len();
        log.extend_from_slice(&frame(b"lost")[..HEADER_LEN - 3]);
        let scan = scan(&log);
        assert_eq!(scan.records, [b"keep"]);
        assert_eq!(scan.valid_len, keep);
        assert_eq!(scan.truncated_bytes, (HEADER_LEN - 3) as u64);
        assert!(scan.torn);
    }

    #[test]
    fn torn_payload_truncates_to_prior_record() {
        let mut log = log_of(&[b"keep", b"keep2"]);
        let keep = log.len();
        let tail = frame(b"torn-away");
        log.extend_from_slice(&tail[..tail.len() - 1]);
        let scan = scan(&log);
        assert_eq!(scan.records, [b"keep".as_slice(), b"keep2"]);
        assert_eq!(scan.valid_len, keep);
        assert!(scan.torn);
    }

    #[test]
    fn checksum_mismatch_rejects_record_and_tail() {
        // Flip one payload bit of the middle record: it and everything
        // after it fall outside the valid prefix, even though the third
        // frame is intact — recovery only trusts a contiguous prefix.
        let mut log = log_of(&[b"first", b"second", b"third"]);
        let first = frame(b"first").len();
        log[first + HEADER_LEN] ^= 0x01;
        let scan = scan(&log);
        assert_eq!(scan.records, [b"first"]);
        assert_eq!(scan.valid_len, first);
        assert_eq!(scan.truncated_bytes, (log.len() - first) as u64);
    }

    #[test]
    fn every_tear_point_yields_whole_record_prefix() {
        // A mid-record kill at ANY byte offset never yields a partial
        // record: the scan returns some whole-record prefix.
        let log = log_of(&[b"r1", b"record-two", b"r3!"]);
        for cut in 0..=log.len() {
            let scan = scan(&log[..cut]);
            let want = [b"r1".as_slice(), b"record-two", b"r3!"];
            assert_eq!(scan.records, want[..scan.records.len()], "cut at {cut}");
        }
    }

    /// The scan sizes its list once, to the whole frames the image
    /// holds: exactly the records on a clean image or one torn mid-
    /// payload, more than the records kept on a bit-flipped one.
    #[test]
    fn scan_never_grows_its_list() {
        let log = log_of(&[b"a", b"bb", b"ccc", b"dddd", b"eeeee"]);
        let clean = scan(&log);
        assert_eq!(clean.records.len(), 5);
        assert_eq!(clean.records.capacity(), 5);
        let torn = scan(&log[..log.len() - 2]);
        assert_eq!(torn.records.len(), 4);
        assert_eq!(torn.records.capacity(), 4);
        let mut flipped = log.clone();
        flipped[HEADER_LEN + 1 + HEADER_LEN] ^= 0x10;
        let flipped = scan(&flipped);
        assert_eq!(flipped.records, [b"a"]);
        assert_eq!(
            flipped.records.capacity(),
            5,
            "counted before the checksums"
        );
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum(b"ab"), checksum(b"ba"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }
}
