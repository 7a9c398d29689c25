//! Block-circulant data placement (§4.2, Fig. 5(b)).
//!
//! With plain IDE alignment, each column lives on one device forever; a
//! "hotspot" column then loads only one PIM unit per bank. Block-circulant
//! placement divides the table into blocks of `B` rows and rotates the
//! slot→device assignment by one device per block, so every column is
//! spread evenly over all devices (and thus all PIM units).

use serde::{Deserialize, Serialize};

/// Block-circulant slot→device mapping.
///
/// # Examples
///
/// ```
/// use pushtap_format::Placement;
///
/// let p = Placement::new(4, 1024);
/// // Block 0: identity. Block 1: rotated by one.
/// assert_eq!(p.device_of(0, 0), 0);
/// assert_eq!(p.device_of(0, 1024), 1);
/// assert_eq!(p.device_of(3, 1024), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    devices: u32,
    block_rows: u32,
}

impl Placement {
    /// Creates a placement over `devices` devices with `block_rows`-row
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(devices: u32, block_rows: u32) -> Placement {
        assert!(devices > 0, "need at least one device");
        assert!(block_rows > 0, "need at least one row per block");
        Placement {
            devices,
            block_rows,
        }
    }

    /// Number of devices.
    pub fn devices(&self) -> u32 {
        self.devices
    }

    /// Rows per block.
    pub fn block_rows(&self) -> u32 {
        self.block_rows
    }

    /// The block index of `row`.
    pub fn block_of(&self, row: u64) -> u64 {
        row / self.block_rows as u64
    }

    /// The rotation applied within `row`'s block.
    pub fn rotation_of(&self, row: u64) -> u32 {
        (self.block_of(row) % self.devices as u64) as u32
    }

    /// The physical device holding layout slot `slot` for `row`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn device_of(&self, slot: u32, row: u64) -> u32 {
        assert!(slot < self.devices, "slot {slot} out of range");
        (slot + self.rotation_of(row)) % self.devices
    }

    /// The layout slot that `device` holds for `row` (inverse of
    /// [`Placement::device_of`]).
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn slot_of(&self, device: u32, row: u64) -> u32 {
        assert!(device < self.devices, "device {device} out of range");
        (device + self.devices - self.rotation_of(row)) % self.devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_in_first_block() {
        let p = Placement::new(4, 1024);
        for slot in 0..4 {
            assert_eq!(p.device_of(slot, 0), slot);
            assert_eq!(p.device_of(slot, 1023), slot);
        }
    }

    #[test]
    fn rotation_advances_per_block() {
        let p = Placement::new(4, 1024);
        assert_eq!(p.rotation_of(0), 0);
        assert_eq!(p.rotation_of(1024), 1);
        assert_eq!(p.rotation_of(2048), 2);
        assert_eq!(p.rotation_of(4096), 0); // wraps after d blocks
    }

    #[test]
    fn slot_of_inverts_device_of() {
        let p = Placement::new(8, 16);
        for row in [0u64, 15, 16, 100, 1000, 12345] {
            for slot in 0..8 {
                let dev = p.device_of(slot, row);
                assert_eq!(p.slot_of(dev, row), slot);
            }
        }
    }

    /// Every column is spread evenly: over d consecutive blocks, slot s
    /// visits every device exactly once (the load-balance property that
    /// Fig. 5(b) exploits).
    #[test]
    fn perfect_balance_over_d_blocks() {
        let p = Placement::new(4, 8);
        for slot in 0..4 {
            let mut devices: Vec<u32> = (0..4u64).map(|blk| p.device_of(slot, blk * 8)).collect();
            devices.sort_unstable();
            assert_eq!(devices, vec![0, 1, 2, 3]);
        }
    }
}
