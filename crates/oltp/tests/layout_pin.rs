//! The byte pin of every CH-benCHmark table's layout: for each of the
//! twelve tables at 8 devices, under the unified format and under the
//! row store's naïve layout, an FNV-1a hash of the part widths, every
//! byte slot, and every column's fragments and key location. A change
//! to how layouts are generated, stored or validated that moves any
//! byte of any layout changes a hash here.

use pushtap_chbench::ALL_TABLES;
use pushtap_format::TableLayout;
use pushtap_oltp::{DbConfig, DbFormat, TpccDb};
use pushtap_pim::MemSystem;

/// FNV-1a over a stream of `u32`s, each fed little-endian.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The hash of one layout: its device count; per part, its width and
/// every slot (padding as 0, a source byte as 1, column, byte); per
/// column, its fragments and its key location.
fn layout_hash(l: &TableLayout) -> u64 {
    let mut h = Fnv::new();
    h.feed(l.devices());
    h.feed(l.parts().len() as u32);
    for part in l.parts() {
        h.feed(part.width());
        for dev in 0..part.devices() {
            for off in 0..part.width() {
                match part.slot(dev, off) {
                    None => h.feed(0),
                    Some(src) => {
                        h.feed(1);
                        h.feed(src.col);
                        h.feed(src.byte);
                    }
                }
            }
        }
    }
    for col in 0..l.schema().len() as u32 {
        let frags = l.fragments(col);
        h.feed(frags.len() as u32);
        for f in frags {
            for v in [f.part, f.device, f.offset, f.col_byte, f.len] {
                h.feed(v);
            }
        }
        match l.key_location(col) {
            None => h.feed(0),
            Some((part, device)) => {
                h.feed(1);
                h.feed(part);
                h.feed(device);
            }
        }
    }
    h.0
}

/// Every table's layout hash under `format`, in `ALL_TABLES` order.
fn hashes(format: DbFormat) -> Vec<u64> {
    let mem = MemSystem::dimm();
    let mut cfg = DbConfig::small();
    cfg.format = format;
    let db = TpccDb::build(&cfg, &mem).expect("the small config lays out");
    ALL_TABLES
        .into_iter()
        .map(|t| {
            let layout = db.table(t).layout();
            assert_eq!(layout.devices(), 8, "{t:?}");
            layout_hash(layout)
        })
        .collect()
}

#[test]
fn unified_layouts_are_pinned() {
    assert_eq!(hashes(DbFormat::Unified), UNIFIED);
}

#[test]
fn row_store_layouts_are_pinned() {
    assert_eq!(hashes(DbFormat::RowStore), ROW_STORE);
}

/// The unified format's hashes, captured before layouts were stored flat.
const UNIFIED: [u64; 12] = [
    0x1ea7_3097_901a_a9a6, // warehouse
    0xa3b1_4db6_7413_bc21, // district
    0x0172_4e71_0191_e379, // customer
    0xcb2e_39c6_b3f7_b886, // history
    0x88fb_cc88_e328_459b, // neworder
    0xbecc_f785_f815_020a, // order
    0x10bd_af03_b3de_5251, // orderline
    0x2b49_5e02_421b_c97b, // item
    0xf5fe_60d8_3708_370b, // stock
    0x2c3c_f8fa_e2ea_c04e, // supplier
    0xbd83_0d3d_77ce_71ee, // nation
    0x85bc_e6e5_2f2a_7eec, // region
];

/// The row store's hashes, captured with the unified ones.
const ROW_STORE: [u64; 12] = [
    0xfdef_1679_d249_3291, // warehouse
    0x8f51_9cf9_0047_cab4, // district
    0x57f8_dcea_40f1_0576, // customer
    0x1f61_3444_89c6_dfd6, // history
    0x8004_d44d_4e40_2819, // neworder
    0xe5a2_be9c_815c_8d1d, // order
    0x4f1b_953e_8399_e906, // orderline
    0x6043_d079_dc27_9411, // item
    0x9688_4ad7_1cea_c684, // stock
    0x6974_3731_3b2d_c6df, // supplier
    0x2cd4_4b55_7e58_d1af, // nation
    0x219f_7ae9_56c1_5e0d, // region
];
