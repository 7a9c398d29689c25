//! # pushtap-wal — write-ahead-log substrate for PUSHtap
//!
//! Byte-level machinery for the per-shard effect logs and the
//! coordinator decision log: checksummed record framing with a
//! torn-tail recovery scan ([`record`]), and a [`Wal`] that models the
//! two durability states a crash cares about — bytes *appended* (still
//! in the volatile pending buffer, lost on crash) versus bytes *forced*
//! (pushed to the backing store by a group-commit barrier, guaranteed
//! to survive).
//!
//! The crate is deliberately **zero-dependency** and knows nothing
//! about transactions: payloads are opaque byte strings. The effect
//! codec that gives records meaning lives in `pushtap-oltp`; log
//! ownership, group commit, and crash points live in `pushtap-shard`.
//!
//! The log costs allocations per log, not per record: [`scan`] lends
//! payload slices of the image it is given, [`Wal::append_with`] lets an
//! encoder write a payload straight into the pending buffer behind its
//! frame header, and [`Wal::rewrite`] frames a checkpoint's survivors
//! into one buffer over the caller's own scan.
//!
//! # Examples
//!
//! Append two records, force once, and recover them from the durable
//! image — including a torn tail from a crash mid-force:
//!
//! ```
//! use pushtap_wal::{record, Wal};
//!
//! let (mut wal, durable) = Wal::in_memory();
//! wal.append(b"first");
//! // An encoder writes its payload into the pending buffer directly.
//! wal.append_with(|out| out.extend_from_slice(b"second"));
//! assert!(durable.is_empty()); // appended, not yet forced
//! wal.force();
//!
//! wal.append(b"third");
//! wal.force_torn(3); // crash mid-force: only 3 bytes of the frame land
//!
//! let image = durable.bytes();
//! let scan = record::scan(&image);
//! // The payloads are slices of the image the scan was given.
//! assert_eq!(scan.records, [b"first".as_slice(), b"second"]);
//! assert!(scan.torn);
//! assert_eq!(scan.truncated_bytes, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod log;
pub mod record;

pub use log::{FileStore, MemLog, MemStore, Wal, WalStats, WalStore, WalTrim};
pub use record::{checksum, frame, scan, ScanOutcome, HEADER_LEN};
