//! Golden-layout regression tests: the exact part structure the
//! generator produces for key CH tables at the paper's operating point
//! (`th = 0.6`, 8 devices). These pin the bin-packing behaviour — any
//! change to the algorithm that alters a layout shows up here, with the
//! effective-bandwidth consequences asserted alongside.

use pushtap_format::{compact_layout, Column, TableSchema};

fn orderline_keys() -> TableSchema {
    // ORDERLINE with the full 22-query key set (ol_dist_info is the only
    // normal column).
    TableSchema::new(
        "orderline",
        vec![
            Column::key("ol_o_id", 4),
            Column::key("ol_d_id", 1),
            Column::key("ol_w_id", 4),
            Column::key("ol_number", 1),
            Column::key("ol_i_id", 4),
            Column::key("ol_supply_w_id", 4),
            Column::key("ol_delivery_d", 8),
            Column::key("ol_quantity", 2),
            Column::key("ol_amount", 8),
            Column::normal("ol_dist_info", 24),
        ],
    )
}

#[test]
fn orderline_golden_at_th06() {
    let s = orderline_keys();
    let l = compact_layout(s.clone(), 8, 0.6).unwrap();
    // Part structure: w=8 (delivery_d, amount lead), w=4 (the four ids),
    // w=2 (quantity), w=1 (number, d_id).
    let widths: Vec<u32> = l.parts().iter().map(|p| p.width()).collect();
    assert_eq!(widths, vec![8, 4, 2, 1]);
    // Every key column scans at full PIM effectiveness.
    for c in s.key_indices() {
        assert_eq!(
            l.pim_scan_effectiveness(c),
            Some(1.0),
            "{}",
            s.column(c).name
        );
    }
    // The 24 normal bytes fill part 0's free devices completely.
    assert_eq!(l.parts()[0].data_bytes(), 8 + 8 + 24);
    // Intra-device padding is zero: ORDERLINE stores compactly.
    assert_eq!(l.intra_device_padding_per_row(), 0);
}

#[test]
fn paper_example_golden_at_th075() {
    // The Fig. 3(c)/Fig. 4 worked example, 4 devices, th = 3/4.
    let s = pushtap_format::paper_example_schema();
    let l = compact_layout(s.clone(), 4, 0.75).unwrap();
    let widths: Vec<u32> = l.parts().iter().map(|p| p.width()).collect();
    assert_eq!(widths, vec![4, 2]);
    // Device assignments within part 0: w_id leads, normals fill.
    let w_id = s.index_of("w_id").unwrap();
    assert_eq!(l.key_location(w_id), Some((0, 0)));
    // Fragment count: zip (9 B normal) splits across the free devices.
    let zip = s.index_of("zip").unwrap();
    assert!(l.fragments(zip).len() >= 2);
    // Total storage: 16 B part 0 + 8 B part 1 per row.
    assert_eq!(l.padded_row_bytes(), 24);
}

#[test]
fn customer_wide_text_stays_normal_and_splits() {
    // CUSTOMER-like: c_data 152 B must byte-split across devices even
    // when every narrow column is a key.
    let s = TableSchema::new(
        "customer",
        vec![
            Column::key("c_id", 4),
            Column::key("c_w_id", 4),
            Column::key("c_balance", 8),
            Column::normal("c_data", 152),
        ],
    );
    let l = compact_layout(s.clone(), 8, 0.6).unwrap();
    let c_data = s.index_of("c_data").unwrap();
    // Spread over several devices (fragments), not device-local.
    assert!(
        l.fragments(c_data).len() >= 8,
        "{}",
        l.fragments(c_data).len()
    );
    assert_eq!(l.key_location(c_data), None);
    // Key columns unharmed.
    for c in s.key_indices() {
        assert_eq!(l.pim_scan_effectiveness(c), Some(1.0));
    }
}

#[test]
fn single_device_degenerates_gracefully() {
    // HBM geometry (1 device): every key column leads its own part.
    let s = orderline_keys();
    let l = compact_layout(s.clone(), 1, 0.6).unwrap();
    assert_eq!(l.parts().len(), 9 + 1); // 9 keys + trailing normals
    for c in s.key_indices() {
        assert_eq!(l.pim_scan_effectiveness(c), Some(1.0));
    }
    // One device ⇒ padded bytes = data bytes (no cross-device padding).
    assert_eq!(l.padded_row_bytes(), s.row_width());
}

#[test]
fn threshold_zero_packs_orderline_into_two_parts() {
    let s = orderline_keys();
    let l = compact_layout(s.clone(), 8, 0.0).unwrap();
    // 9 keys over 8 devices: part 0 holds 8, part 1 the last + normals.
    assert_eq!(l.parts().len(), 2);
    assert_eq!(l.parts()[0].width(), 8);
    // Narrow keys in the w=8 part scan at reduced effectiveness.
    let d_id = s.index_of("ol_d_id").unwrap();
    let eff = l.pim_scan_effectiveness(d_id).unwrap();
    assert!(eff <= 0.5, "d_id effectiveness {eff}");
}
