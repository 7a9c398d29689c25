//! Compact binary serialization of statement effects for the WAL.
//!
//! An [`EffectRecord`] is the redo unit the sharded service logs: one
//! transaction's effect subset on one engine, pinned to its original
//! timestamp and tagged with the engine's commit role. Because
//! [`TpccDb::decompose`](crate::TpccDb::decompose) is read-only and
//! retry-stable, the record can be re-applied through the ordinary
//! `prepare_effects` / `commit_prepared` pipeline after a crash and
//! reconstruct byte-identical state — the encoding here only has to be
//! lossless, not clever.
//!
//! The format is little-endian and length-prefixed throughout; integrity
//! is the framing layer's job (`pushtap-wal` checksums whole records),
//! so decoding assumes a payload the frame checksum already accepted and
//! reports structural damage as a [`CodecError`] rather than guessing.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! record  := ts:u64 role:u8 cross:u8 count:u32 effect*
//! effect  := warehouse:u64 kind:u8 table:u8 body
//! body    := Read   -> row:u64
//!          | Update -> row:u64 n:u32 (col:u32 write)*
//!          | Insert -> w_id:u64 n:u32 (len:u32 bytes)*
//! write   := 0:u8 len:u32 bytes      (Set)
//!          | 1:u8 amount:u64 width:u32  (Add)
//! ```
//!
//! In memory an effect holds less than the log spells out, and the codec
//! supplies the difference from what the table tag already says:
//!
//! - an insert is one row image (the columns' bytes one after another,
//!   [`Effect::Insert`]); on the log it is framed column by column with
//!   the widths of [`Table::columns`], and decoding checks count and
//!   widths against the same list while it concatenates the image back;
//! - a set value is a `u64` and a width ([`ColumnWrite::Set`]); on the
//!   log it is `len = width` and the value's low `len` bytes.
//!
//! So the log's bytes are what they were when both were byte vectors,
//! and a record that disagrees with the schema is a [`CodecError`].

use std::fmt;
use std::ops::Range;

use pushtap_chbench::{Table, ALL_TABLES};
use pushtap_mvcc::Ts;

use crate::effects::{ColumnWrite, Effect, RowImage, TaggedEffect, Writes};
use crate::tpcc::TxnRole;

/// A structurally damaged record payload.
///
/// Seen only when decoding bytes that never went through
/// [`EffectRecord::encode`] (version skew, a test corrupting payloads
/// on purpose) — the WAL's frame checksum rejects torn or bit-flipped
/// records before they reach this decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended mid-field.
    Truncated,
    /// An enum tag byte held an undefined value.
    BadTag {
        /// Which tag field was damaged.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A count or length disagrees with what its field can hold: a set
    /// value or add result wider than 8 bytes, an update with more
    /// writes than [`Writes::CAPACITY`], an insert into a table whose
    /// rows overflow a [`RowImage`], or an inserted row whose column
    /// count or a column's length is not the table's schema's.
    BadLength {
        /// Which field was damaged.
        what: &'static str,
        /// The offending count or length.
        len: u32,
    },
    /// Decoding consumed the record but bytes remained.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record payload truncated mid-field"),
            CodecError::BadTag { what, tag } => write!(f, "undefined {what} tag {tag:#04x}"),
            CodecError::BadLength { what, len } => write!(f, "{what} cannot be {len}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after record payload"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The WAL redo unit: one transaction's effect subset on one engine,
/// pinned to its original timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectRecord {
    /// The transaction's pinned timestamp (replay re-commits at it).
    pub ts: Ts,
    /// The logging engine's commit role — replay must preserve it so
    /// recovered per-shard `committed` counters match the original run.
    pub role: TxnRole,
    /// Whether the transaction spanned shards: a cross-shard record
    /// commits only if the coordinator decision log says so (presumed
    /// abort); a local record commits iff it is durable.
    pub cross: bool,
    /// The effects this engine applied, in application order.
    pub effects: Vec<TaggedEffect>,
}

impl EffectRecord {
    /// Serializes the record to its on-log payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        encode_parts(self.ts, self.role, self.cross, &self.effects)
    }
}

/// Serializes a record from borrowed parts into a fresh buffer
/// ([`encode_parts_into`]).
#[must_use]
pub fn encode_parts(ts: Ts, role: TxnRole, cross: bool, effects: &[TaggedEffect]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + effects.len() * 64);
    encode_parts_into(&mut out, ts, role, cross, effects);
    out
}

/// Appends the serialization of a record, given as borrowed parts, to
/// `out` — what the coordinator and the checkpoint call, so logging
/// neither clones an effect list nor builds a payload of its own: the
/// bytes land in the log's buffer directly.
pub fn encode_parts_into(
    out: &mut Vec<u8>,
    ts: Ts,
    role: TxnRole,
    cross: bool,
    effects: &[TaggedEffect],
) {
    out.extend_from_slice(&ts.0.to_le_bytes());
    out.push(match role {
        TxnRole::Coordinator => 0,
        TxnRole::Participant => 1,
    });
    out.push(u8::from(cross));
    put_count(out, effects.len());
    for e in effects {
        out.extend_from_slice(&e.warehouse.to_le_bytes());
        match &e.effect {
            Effect::Read { table, row } => {
                out.push(0);
                out.push(table_tag(*table));
                out.extend_from_slice(&row.to_le_bytes());
            }
            Effect::Update { table, row, writes } => {
                out.push(1);
                out.push(table_tag(*table));
                out.extend_from_slice(&row.to_le_bytes());
                put_count(out, writes.len());
                for (col, w) in writes.iter() {
                    out.extend_from_slice(&col.to_le_bytes());
                    match w {
                        ColumnWrite::Set { value, width } => {
                            out.push(0);
                            put_bytes(out, &value.to_le_bytes()[..*width as usize]);
                        }
                        ColumnWrite::Add { amount, width } => {
                            out.push(1);
                            out.extend_from_slice(&amount.to_le_bytes());
                            out.extend_from_slice(&width.to_le_bytes());
                        }
                    }
                }
            }
            Effect::Insert { table, w_id, image } => {
                out.push(2);
                out.push(table_tag(*table));
                out.extend_from_slice(&w_id.to_le_bytes());
                let columns = table.columns();
                put_count(out, columns.len());
                let mut rest: &[u8] = image;
                for &(_, width) in columns {
                    let (column, tail) = rest.split_at(width as usize);
                    put_bytes(out, column);
                    rest = tail;
                }
                assert!(
                    rest.is_empty(),
                    "{table:?} row image longer than its schema"
                );
            }
        }
    }
}

/// A record decoded into a caller's effect list
/// ([`EffectRecord::decode_into`]): its header, and the range of the
/// list its effects occupy. A log decodes into one list, not a list per
/// record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedRecord {
    /// The transaction's pinned timestamp.
    pub ts: Ts,
    /// The logging engine's commit role.
    pub role: TxnRole,
    /// Whether the transaction spanned shards.
    pub cross: bool,
    /// Where the record's effects sit in the list, in application
    /// order.
    pub effects: Range<usize>,
}

impl EffectRecord {
    /// Deserializes a record payload.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the payload is structurally damaged
    /// (truncated field, undefined tag, trailing bytes).
    pub fn decode(bytes: &[u8]) -> Result<EffectRecord, CodecError> {
        let mut effects = Vec::new();
        let record = EffectRecord::decode_into(bytes, &mut effects)?;
        Ok(EffectRecord {
            ts: record.ts,
            role: record.role,
            cross: record.cross,
            effects,
        })
    }

    /// Deserializes a record payload, appending its effects to
    /// `effects`. On error `effects` is left as it was.
    ///
    /// # Errors
    ///
    /// As [`EffectRecord::decode`].
    pub fn decode_into(
        bytes: &[u8],
        effects: &mut Vec<TaggedEffect>,
    ) -> Result<DecodedRecord, CodecError> {
        let start = effects.len();
        let decoded = decode_record(bytes, effects);
        if decoded.is_err() {
            effects.truncate(start);
        }
        decoded
    }
}

/// [`EffectRecord::decode_into`], leaving whatever it decoded before an
/// error in `effects`.
fn decode_record(
    bytes: &[u8],
    effects: &mut Vec<TaggedEffect>,
) -> Result<DecodedRecord, CodecError> {
    let mut c = Cursor { bytes, at: 0 };
    let ts = Ts(c.u64()?);
    let role = match c.u8()? {
        0 => TxnRole::Coordinator,
        1 => TxnRole::Participant,
        tag => return Err(CodecError::BadTag { what: "role", tag }),
    };
    let cross = match c.u8()? {
        0 => false,
        1 => true,
        tag => {
            return Err(CodecError::BadTag {
                what: "cross flag",
                tag,
            })
        }
    };
    let count = c.u32()? as usize;
    effects.reserve(effect_count(bytes));
    let start = effects.len();
    for _ in 0..count {
        let warehouse = c.u64()?;
        let kind = c.u8()?;
        let table = table_from_tag(c.u8()?)?;
        let effect = match kind {
            0 => Effect::Read {
                table,
                row: c.u64()?,
            },
            1 => {
                let row = c.u64()?;
                let n = c.u32()?;
                if n as usize > Writes::CAPACITY {
                    return Err(CodecError::BadLength {
                        what: "update write count",
                        len: n,
                    });
                }
                let mut writes = Writes::default();
                for _ in 0..n {
                    let col = c.u32()?;
                    let write = match c.u8()? {
                        0 => {
                            let width = int_width("set value length", c.u32()?)?;
                            let mut le = [0u8; 8];
                            le[..width as usize].copy_from_slice(c.take(width as usize)?);
                            ColumnWrite::Set {
                                value: u64::from_le_bytes(le),
                                width,
                            }
                        }
                        1 => ColumnWrite::Add {
                            amount: c.u64()?,
                            width: int_width("add width", c.u32()?)?,
                        },
                        tag => {
                            return Err(CodecError::BadTag {
                                what: "column write",
                                tag,
                            })
                        }
                    };
                    writes.push((col, write));
                }
                Effect::Update { table, row, writes }
            }
            2 => {
                let w_id = c.u64()?;
                let columns = table.columns();
                let row_width: u32 = columns.iter().map(|&(_, width)| width).sum();
                if row_width as usize > RowImage::CAPACITY {
                    return Err(CodecError::BadLength {
                        what: "inserted row width",
                        len: row_width,
                    });
                }
                let n = c.u32()?;
                if n as usize != columns.len() {
                    return Err(CodecError::BadLength {
                        what: "inserted column count",
                        len: n,
                    });
                }
                let mut image = RowImage::default();
                for &(_, width) in columns {
                    let len = c.u32()?;
                    if len != width {
                        return Err(CodecError::BadLength {
                            what: "inserted column length",
                            len,
                        });
                    }
                    image.extend(c.take(len as usize)?.iter().copied());
                }
                Effect::Insert { table, w_id, image }
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "effect kind",
                    tag,
                })
            }
        };
        effects.push(TaggedEffect { effect, warehouse });
    }
    if c.at != bytes.len() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(DecodedRecord {
        ts,
        role,
        cross,
        effects: start..effects.len(),
    })
}

/// Bytes of a record's header: `ts`, `role`, `cross` and `count`.
const RECORD_HEADER: usize = 8 + 1 + 1 + 4;

/// Bytes of the smallest effect, a read: `warehouse`, `kind`, `table`
/// and `row`.
const MIN_EFFECT: usize = 8 + 1 + 1 + 8;

/// The effects a record payload declares, capped by what its bytes can
/// hold — what a decoder may reserve before decoding it. A count the
/// bytes cannot back fails to decode ([`CodecError::Truncated`]) and
/// reserves no more than the bytes do; a payload too short for a header
/// declares none.
#[must_use]
pub fn effect_count(payload: &[u8]) -> usize {
    let Some(count) = payload.get(RECORD_HEADER - 4..RECORD_HEADER) else {
        return 0;
    };
    let count = u32::from_le_bytes(count.try_into().unwrap()) as usize;
    count.min((payload.len() - RECORD_HEADER) / MIN_EFFECT)
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    let n = u32::try_from(n).expect("effect record field count exceeds u32::MAX");
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_count(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// The width of an integer column value, which is at most 8 bytes.
fn int_width(what: &'static str, len: u32) -> Result<u32, CodecError> {
    if len <= 8 {
        Ok(len)
    } else {
        Err(CodecError::BadLength { what, len })
    }
}

/// A table's on-log tag: its discriminant, which is its position in
/// [`ALL_TABLES`].
fn table_tag(table: Table) -> u8 {
    table as u8
}

fn table_from_tag(tag: u8) -> Result<Table, CodecError> {
    ALL_TABLES
        .get(tag as usize)
        .copied()
        .ok_or(CodecError::BadTag { what: "table", tag })
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CodecError> {
        let s = self
            .bytes
            .get(self.at..self.at + n)
            .ok_or(CodecError::Truncated)?;
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EffectRecord {
        EffectRecord {
            ts: Ts(42),
            role: TxnRole::Coordinator,
            cross: true,
            effects: vec![
                TaggedEffect {
                    effect: Effect::Read {
                        table: Table::Item,
                        row: 7,
                    },
                    warehouse: 3,
                },
                TaggedEffect {
                    effect: Effect::Update {
                        table: Table::Warehouse,
                        row: 3,
                        writes: [
                            (
                                8,
                                ColumnWrite::Add {
                                    amount: 500,
                                    width: 8,
                                },
                            ),
                            (2, ColumnWrite::set(0xBBAA, 2)),
                        ]
                        .into(),
                    },
                    warehouse: 3,
                },
                TaggedEffect {
                    effect: Effect::Insert {
                        table: Table::History,
                        w_id: 5,
                        // HISTORY's eight columns: 50 bytes.
                        image: (0..50).collect(),
                    },
                    warehouse: 5,
                },
            ],
        }
    }

    #[test]
    fn round_trips_every_effect_kind() {
        let rec = sample();
        assert_eq!(EffectRecord::decode(&rec.encode()), Ok(rec));
    }

    #[test]
    fn round_trips_empty_participant_record() {
        let rec = EffectRecord {
            ts: Ts(u64::MAX),
            role: TxnRole::Participant,
            cross: false,
            effects: vec![],
        };
        assert_eq!(EffectRecord::decode(&rec.encode()), Ok(rec));
    }

    #[test]
    fn encode_parts_into_appends_exactly_encode_parts_bytes() {
        let rec = sample();
        let mut out = b"earlier bytes".to_vec();
        encode_parts_into(&mut out, rec.ts, rec.role, rec.cross, &rec.effects);
        let (earlier, appended) = out.split_at(13);
        assert_eq!(earlier, b"earlier bytes");
        assert_eq!(
            appended,
            encode_parts(rec.ts, rec.role, rec.cross, &rec.effects)
        );
    }

    /// A record's declared effect count is read off its header, and a
    /// count its bytes cannot back is capped by them: decoding it fails
    /// without reserving more than the bytes could hold.
    #[test]
    fn effect_count_is_capped_by_the_payload() {
        let rec = sample();
        let encoded = rec.encode();
        assert_eq!(effect_count(&encoded), rec.effects.len());
        assert_eq!(effect_count(&encoded[..RECORD_HEADER - 1]), 0);
        let mut lying = encoded.clone();
        lying[RECORD_HEADER - 4..RECORD_HEADER].copy_from_slice(&u32::MAX.to_le_bytes());
        let cap = (lying.len() - RECORD_HEADER) / MIN_EFFECT;
        assert_eq!(effect_count(&lying), cap);
        let mut effects = Vec::new();
        assert_eq!(
            EffectRecord::decode_into(&lying, &mut effects),
            Err(CodecError::Truncated)
        );
        assert!(effects.is_empty() && effects.capacity() <= cap);
    }

    /// Records decode one after another into one list, each into its
    /// own range of it; a damaged record leaves the list as it was.
    #[test]
    fn decode_into_shares_one_effect_list() {
        let first = sample();
        let second = EffectRecord {
            ts: Ts(43),
            role: TxnRole::Participant,
            cross: false,
            effects: first.effects[1..].to_vec(),
        };
        let mut effects = Vec::new();
        let a = EffectRecord::decode_into(&first.encode(), &mut effects).expect("decodes");
        let b = EffectRecord::decode_into(&second.encode(), &mut effects).expect("decodes");
        assert_eq!((a.effects.clone(), b.effects.clone()), (0..3, 3..5));
        assert_eq!(effects[a.effects], first.effects[..]);
        assert_eq!(effects[b.effects], second.effects[..]);
        assert_eq!(
            (b.ts, b.role, b.cross),
            (Ts(43), TxnRole::Participant, false)
        );

        let encoded = first.encode();
        let damaged = &encoded[..encoded.len() - 1];
        assert_eq!(
            EffectRecord::decode_into(damaged, &mut effects),
            Err(CodecError::Truncated)
        );
        assert_eq!(effects.len(), 5);
    }

    /// The golden byte image of a known record: any change to the wire
    /// format must consciously update this test (and invalidate old
    /// logs), never drift silently.
    #[test]
    fn golden_record_bytes_are_stable() {
        let rec = EffectRecord {
            ts: Ts(0x0102),
            role: TxnRole::Participant,
            cross: true,
            effects: vec![TaggedEffect {
                effect: Effect::Read {
                    table: Table::District,
                    row: 9,
                },
                warehouse: 4,
            }],
        };
        #[rustfmt::skip]
        let golden: &[u8] = &[
            0x02, 0x01, 0, 0, 0, 0, 0, 0, // ts = 0x0102
            1,                            // role = Participant
            1,                            // cross
            1, 0, 0, 0,                   // one effect
            4, 0, 0, 0, 0, 0, 0, 0,       // warehouse 4
            0,                            // kind = Read
            1,                            // table tag 1 = District
            9, 0, 0, 0, 0, 0, 0, 0,       // row 9
        ];
        assert_eq!(rec.encode(), golden);
        assert_eq!(EffectRecord::decode(golden), Ok(rec));
    }

    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The log bytes of one fixed Payment and one fixed ten-line
    /// NewOrder, as the engine decomposes them, pinned to what the codec
    /// wrote when an insert was a value per column and a set value a
    /// byte vector (the literal and the hashes were printed by that
    /// code): neither in-memory form may move a byte on the log.
    /// Decoding gives the decomposition back and re-encodes to the same
    /// bytes.
    #[test]
    fn decomposed_transactions_keep_their_log_bytes() {
        use crate::tpcc::{DbConfig, TpccDb};
        use pushtap_chbench::{NewOrder, Payment, Txn};
        let db = TpccDb::build(&DbConfig::small(), &pushtap_pim::MemSystem::dimm()).unwrap();
        let payment = Txn::Payment(Payment {
            w_id: 0,
            d_id: 3,
            c_row: 17,
            amount: 0x0102_0304,
        });
        let items: Vec<u64> = (0..10).map(|i| 100 + 37 * i).collect();
        let stock_rows: Vec<u64> = (0..10).map(|i| 5 + 11 * i).collect();
        let neworder = Txn::NewOrder(NewOrder::new(0, 7, 29, &items, &stock_rows));
        #[rustfmt::skip]
        let payment_golden: &[u8] = &[
            11, 10, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0,                    // ts 0x0a0b, home, local, 4 effects
            0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,          // w 0: update WAREHOUSE row 0
            1, 0, 0, 0, 8, 0, 0, 0, 1, 4, 3, 2, 1, 0, 0, 0, 0, 8, 0, 0, 0, // w_ytd += amount, 8 bytes
            0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 3, 0, 0, 0, 0, 0, 0, 0,          // w 0: update DISTRICT row 3
            1, 0, 0, 0, 9, 0, 0, 0, 0, 8, 0, 0, 0, 4, 3, 2, 1, 0, 0, 0, 0, // d_ytd = amount
            0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 17, 0, 0, 0, 0, 0, 0, 0,         // w 0: update CUSTOMER row 17
            3, 0, 0, 0,
            16, 0, 0, 0, 0, 8, 0, 0, 0, 4, 3, 2, 1, 0, 0, 0, 0,            // c_balance
            17, 0, 0, 0, 0, 8, 0, 0, 0, 4, 3, 2, 1, 0, 0, 0, 0,            // c_ytd_payment
            18, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0,                              // c_payment_cnt
            0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0,          // w 0: insert HISTORY at w 0
            8, 0, 0, 0,                                                    // eight columns
            4, 0, 0, 0, 17, 0, 0, 0,
            1, 0, 0, 0, 3,
            4, 0, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, 3,
            4, 0, 0, 0, 0, 0, 0, 0,
            8, 0, 0, 0, 11, 10, 0, 0, 0, 0, 0, 0,
            4, 0, 0, 0, 4, 3, 2, 1,
            24, 0, 0, 0, 99, 118, 110, 103, 119, 112, 105, 97, 114, 106, 99, 117,
            108, 100, 119, 112, 102, 121, 113, 106, 122, 115, 107, 100,
        ];
        let effects = db.decompose(&payment, Ts(0x0a0b));
        let bytes = encode_parts(Ts(0x0a0b), TxnRole::Coordinator, false, &effects);
        assert_eq!(bytes, payment_golden);
        assert_eq!((bytes.len(), fnv(&bytes)), (263, 0x4817_977a_ff09_cf0c));
        let decoded = EffectRecord::decode(&bytes).expect("own encoding decodes");
        assert_eq!(decoded.effects, effects);
        assert_eq!(decoded.encode(), bytes);

        let effects = db.decompose(&neworder, Ts(0x0a0c));
        let bytes = encode_parts(Ts(0x0a0c), TxnRole::Participant, true, &effects);
        assert_eq!((bytes.len(), fnv(&bytes)), (2198, 0xc85c_65b8_d8fb_9fb2));
        let decoded = EffectRecord::decode(&bytes).expect("own encoding decodes");
        assert_eq!(decoded.effects, effects);
        assert_eq!(decoded.encode(), bytes);
    }

    /// A record whose lengths disagree with what an effect can hold is
    /// damage, not a row: a set value wider than an integer, an insert
    /// with a column too many or a column of the wrong width.
    #[test]
    fn lengths_that_disagree_with_the_schema_are_rejected() {
        let bytes = sample().encode();
        // Layout of `sample()`: header 14, read 18, then the update —
        // warehouse 8, kind 1, table 1, row 8, n 4 = 22 — and its first
        // write (col 4, tag 1, amount 8, width 4); the second write's
        // length field follows its col and tag.
        let add_width = 14 + 18 + 22 + 4 + 1 + 8;
        let set_len = add_width + 4 + 4 + 1;
        let insert = set_len + 4 + 2;
        let column_count = insert + 8 + 1 + 1 + 8;
        for (at, value, what) in [
            (add_width, 9u8, "add width"),
            (set_len, 9, "set value length"),
            (column_count, 9, "inserted column count"),
            (column_count + 4, 5, "inserted column length"),
        ] {
            let mut damaged = bytes.clone();
            damaged[at] = value;
            assert_eq!(
                EffectRecord::decode(&damaged),
                Err(CodecError::BadLength {
                    what,
                    len: value as u32
                }),
                "{what}"
            );
        }
    }

    /// The record header of a hand-built payload: ts 7, home, local,
    /// one effect.
    fn one_effect_header() -> Vec<u8> {
        let mut bytes = 7u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0, 0]);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes
    }

    /// An update can hold at most `Writes::CAPACITY` writes inline: a
    /// record that claims more is damage, reported before any write is
    /// read.
    #[test]
    fn an_update_wider_than_the_inline_list_is_rejected() {
        let mut bytes = one_effect_header();
        bytes.extend_from_slice(&0u64.to_le_bytes()); // warehouse 0
        bytes.extend_from_slice(&[1, table_tag(Table::Stock)]); // update STOCK
        bytes.extend_from_slice(&5u64.to_le_bytes()); // row 5
        bytes.extend_from_slice(&4u32.to_le_bytes()); // four writes
        for col in 0..4u32 {
            bytes.extend_from_slice(&col.to_le_bytes());
            bytes.push(0);
            put_bytes(&mut bytes, &[1]);
        }
        assert_eq!(
            EffectRecord::decode(&bytes),
            Err(CodecError::BadLength {
                what: "update write count",
                len: 4
            })
        );
    }

    /// An insert whose table tag names a table the executor never
    /// inserts into and whose rows overflow an inline image (CUSTOMER,
    /// 324 bytes) is damage, reported before any column is read.
    #[test]
    fn an_insert_wider_than_the_inline_image_is_rejected() {
        let mut bytes = one_effect_header();
        bytes.extend_from_slice(&0u64.to_le_bytes()); // warehouse 0
        bytes.extend_from_slice(&[2, table_tag(Table::Customer)]); // insert CUSTOMER
        bytes.extend_from_slice(&0u64.to_le_bytes()); // home warehouse 0
        let columns = Table::Customer.columns();
        put_count(&mut bytes, columns.len());
        for &(_, width) in columns {
            put_bytes(&mut bytes, &vec![b'x'; width as usize]);
        }
        let width: u32 = columns.iter().map(|&(_, w)| w).sum();
        assert!(width as usize > RowImage::CAPACITY);
        assert_eq!(
            EffectRecord::decode(&bytes),
            Err(CodecError::BadLength {
                what: "inserted row width",
                len: width
            })
        );
    }

    #[test]
    fn table_tags_cover_all_tables() {
        for (i, &t) in ALL_TABLES.iter().enumerate() {
            assert_eq!(table_tag(t), i as u8);
            assert_eq!(table_from_tag(i as u8), Ok(t));
        }
        assert_eq!(
            table_from_tag(ALL_TABLES.len() as u8),
            Err(CodecError::BadTag {
                what: "table",
                tag: ALL_TABLES.len() as u8
            })
        );
    }

    #[test]
    fn truncation_at_any_byte_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                EffectRecord::decode(&bytes[..cut]),
                Err(CodecError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn damaged_tags_and_trailers_are_rejected() {
        let mut long = sample().encode();
        long.push(0);
        assert_eq!(EffectRecord::decode(&long), Err(CodecError::TrailingBytes));

        let mut bad_role = sample().encode();
        bad_role[8] = 9;
        assert_eq!(
            EffectRecord::decode(&bad_role),
            Err(CodecError::BadTag {
                what: "role",
                tag: 9
            })
        );

        let mut bad_kind = sample().encode();
        bad_kind[22] = 7; // first effect's kind byte
        assert_eq!(
            EffectRecord::decode(&bad_kind),
            Err(CodecError::BadTag {
                what: "effect kind",
                tag: 7
            })
        );
    }
}
