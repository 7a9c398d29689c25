//! Physical memory organisation (channels / ranks / devices / banks).
//!
//! The two presets mirror Table 1 of the paper. The key quantity for the
//! unified data format is the *interleave granularity*: the number of bytes
//! one device contributes to each bus burst (8 B on DIMMs, 64 B on HBM —
//! paper §8 "PIM Technique Selection").

/// Identifies one physical bank set as seen by the CPU.
///
/// On a DIMM, the devices (chips) of a rank operate in lockstep: one
/// activate opens the same row in every device of the rank, so CPU-visible
/// bank state is per `(channel, rank, bank)`. PIM units, in contrast, live
/// per `(channel, rank, device, bank)` — see [`Geometry::pim_units`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BankAddr {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank (lockstep across devices).
    pub bank: u32,
}

impl BankAddr {
    /// Creates a bank address.
    pub fn new(channel: u32, rank: u32, bank: u32) -> BankAddr {
        BankAddr {
            channel,
            rank,
            bank,
        }
    }
}

/// Memory module organisation.
///
/// # Examples
///
/// ```
/// use pushtap_pim::Geometry;
///
/// let g = Geometry::dimm();
/// assert_eq!(g.granularity, 8);
/// assert_eq!(g.cpu_line_bytes(), 64);
/// assert_eq!(g.pim_units(), 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of memory channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// Devices (chips) per rank that operate in lockstep for CPU accesses.
    /// This is the width of the ADE (across-device) dimension.
    pub devices_per_rank: u32,
    /// Banks per device (equals banks per rank as seen by the CPU).
    pub banks_per_device: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Row-buffer size per device, in bytes.
    pub row_bytes: u32,
    /// Interleave granularity: bytes one device contributes per burst.
    pub granularity: u32,
}

impl Geometry {
    /// The DIMM-based PIM configuration of Table 1:
    /// 4 channels × 4 ranks, 8 × 8 devices/banks, 131072 rows × 1024 B rows,
    /// 8 B interleave granularity, 8 GB per rank.
    pub fn dimm() -> Geometry {
        Geometry {
            channels: 4,
            ranks_per_channel: 4,
            devices_per_rank: 8,
            banks_per_device: 8,
            rows_per_bank: 131_072,
            row_bytes: 1024,
            granularity: 8,
        }
    }

    /// The HBM-based configuration of Table 1: 32 channels with PIM units,
    /// 2 pseudo-channels × 4 bank groups × 4 banks (modelled as 32 lockstep
    /// banks per channel, a single device per "rank"), 64 B granularity.
    ///
    /// The total bank count (1024) matches the DIMM system, as required for
    /// the paper's HBM comparison (§7.1: "The bank number of the HBM-based
    /// system is the same as the DIMM-based system").
    pub fn hbm() -> Geometry {
        Geometry {
            channels: 32,
            ranks_per_channel: 1,
            devices_per_rank: 1,
            banks_per_device: 32,
            rows_per_bank: 32_768,
            row_bytes: 4096,
            granularity: 64,
        }
    }

    /// Bytes the CPU receives per access: one burst across all lockstep
    /// devices (64 B cache line on both presets).
    pub fn cpu_line_bytes(&self) -> u32 {
        self.devices_per_rank * self.granularity
    }

    /// Total number of PIM units (one per bank per device).
    pub fn pim_units(&self) -> u32 {
        self.channels * self.ranks_per_channel * self.devices_per_rank * self.banks_per_device
    }

    /// PIM units per rank (64 on the DIMM preset, matching Table 1).
    pub fn pim_units_per_rank(&self) -> u32 {
        self.devices_per_rank * self.banks_per_device
    }

    /// Bytes per bank per device.
    pub fn bank_bytes(&self) -> u64 {
        self.rows_per_bank as u64 * self.row_bytes as u64
    }

    /// Bytes per device (all banks).
    pub fn device_bytes(&self) -> u64 {
        self.bank_bytes() * self.banks_per_device as u64
    }

    /// Bytes per rank (all devices).
    pub fn rank_bytes(&self) -> u64 {
        self.device_bytes() * self.devices_per_rank as u64
    }

    /// Total capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.rank_bytes() * self.ranks_per_channel as u64 * self.channels as u64
    }

    /// Iterates over every CPU-visible bank address, channel by channel,
    /// rank by rank. The iterator knows its exact length, so collecting
    /// it allocates once.
    pub fn bank_addrs(&self) -> impl ExactSizeIterator<Item = BankAddr> + '_ {
        let (c, r, b) = (self.channels, self.ranks_per_channel, self.banks_per_device);
        (0..c * r * b).map(move |i| BankAddr::new(i / (r * b), i / b % r, i % b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1: "Ba / De / Ro / Co = 8 / 8 / 131072 / 1024", 8 GB/rank,
    /// "Num 64 per Rank" PIM units.
    #[test]
    fn table1_dimm_geometry() {
        let g = Geometry::dimm();
        assert_eq!(g.banks_per_device, 8);
        assert_eq!(g.devices_per_rank, 8);
        assert_eq!(g.rows_per_bank, 131_072);
        assert_eq!(g.granularity, 8);
        assert_eq!(g.rank_bytes(), 8 << 30); // 8 GB per rank
        assert_eq!(g.pim_units_per_rank(), 64);
        assert_eq!(g.pim_units(), 1024);
        assert_eq!(g.cpu_line_bytes(), 64);
        assert_eq!(g.total_bytes(), 128 << 30);
    }

    /// The HBM system must expose the same number of banks/PIM units as the
    /// DIMM system but a 64 B interleave granularity.
    #[test]
    fn hbm_matches_dimm_bank_count() {
        let d = Geometry::dimm();
        let h = Geometry::hbm();
        assert_eq!(h.pim_units(), d.pim_units());
        assert_eq!(h.granularity, 64);
        assert_eq!(h.cpu_line_bytes(), 64);
    }

    #[test]
    fn bank_addr_iteration_covers_all() {
        for g in [Geometry::dimm(), Geometry::hbm()] {
            let addrs: Vec<_> = g.bank_addrs().collect();
            // One lockstep bank set per channel × rank × bank.
            let banks = g.channels * g.ranks_per_channel * g.banks_per_device;
            assert_eq!(addrs.len(), banks as usize);
            assert_eq!(g.bank_addrs().len(), banks as usize);
            // All distinct, channel by channel, rank by rank.
            let mut sorted = addrs.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted, addrs);
        }
    }
}
