//! Whole-memory-system facade: the timing front door for the engine crates.
//!
//! A [`MemSystem`] owns one controller per channel on both the PIM side and
//! the host (conventional DRAM) side, accumulates traffic statistics,
//! and offers streaming helpers used by scans.

use crate::config::{MemKind, SystemConfig};
use crate::controller::{ChannelController, Completion, Op};
use crate::geometry::BankAddr;
use crate::time::Ps;

/// Which memory a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The PIM-attached memory (holds the unified-format instance).
    Pim,
    /// The host's conventional DRAM (holds metadata; the MI baseline's
    /// row-store instance lives here).
    Host,
}

/// Traffic statistics, the basis of effective-bandwidth measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SysStats {
    /// Bytes fetched over the CPU bus (whole cache lines).
    pub cpu_fetched: u64,
    /// Bytes of those that carried live data.
    pub cpu_useful: u64,
    /// Bytes DMAed by PIM units from their banks.
    pub pim_loaded: u64,
    /// Bytes of those that carried live data.
    pub pim_useful: u64,
}

impl SysStats {
    /// CPU effective bandwidth: useful / fetched.
    pub fn cpu_effective(&self) -> f64 {
        if self.cpu_fetched == 0 {
            1.0
        } else {
            self.cpu_useful as f64 / self.cpu_fetched as f64
        }
    }

    /// PIM effective bandwidth: useful / loaded.
    pub fn pim_effective(&self) -> f64 {
        if self.pim_loaded == 0 {
            1.0
        } else {
            self.pim_useful as f64 / self.pim_loaded as f64
        }
    }
}

/// The memory system: timing controllers plus traffic accounting.
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: SystemConfig,
    pim_ctrl: Vec<ChannelController>,
    host_ctrl: Vec<ChannelController>,
    stats: SysStats,
}

impl MemSystem {
    /// Builds the system described by `cfg`.
    pub fn new(cfg: SystemConfig) -> MemSystem {
        let pg = &cfg.pim_geometry;
        let hg = &cfg.cpu_geometry;
        MemSystem {
            pim_ctrl: (0..pg.channels)
                .map(|_| {
                    ChannelController::new(
                        cfg.pim_timing,
                        pg.ranks_per_channel,
                        pg.banks_per_device,
                    )
                })
                .collect(),
            host_ctrl: (0..hg.channels)
                .map(|_| {
                    ChannelController::new(
                        cfg.cpu_timing,
                        hg.ranks_per_channel,
                        hg.banks_per_device,
                    )
                })
                .collect(),
            cfg,
            stats: SysStats::default(),
        }
    }

    /// Convenience constructor for the paper's default DIMM system.
    pub fn dimm() -> MemSystem {
        MemSystem::new(SystemConfig::dimm())
    }

    /// Convenience constructor for the HBM comparison system.
    pub fn hbm() -> MemSystem {
        MemSystem::new(SystemConfig::hbm())
    }

    /// The system configuration.
    pub fn cfg(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Memory technology label of the PIM side.
    pub fn kind(&self) -> MemKind {
        self.cfg.kind
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SysStats {
        &self.stats
    }

    /// Cache-line bytes delivered per CPU access on `side`.
    pub fn line_bytes(&self, side: Side) -> u32 {
        match side {
            Side::Pim => self.cfg.pim_geometry.cpu_line_bytes(),
            Side::Host => self.cfg.cpu_geometry.cpu_line_bytes(),
        }
    }

    fn ctrl_mut(&mut self, side: Side, channel: u32) -> &mut ChannelController {
        let ctrls = match side {
            Side::Pim => &mut self.pim_ctrl,
            Side::Host => &mut self.host_ctrl,
        };
        &mut ctrls[channel as usize]
    }

    /// One CPU cache-line access. `useful` is how many of the line's bytes
    /// carry live data (for effective-bandwidth accounting).
    ///
    /// # Panics
    ///
    /// Panics if the bank address is outside the configured geometry or
    /// `useful` exceeds the line size.
    pub fn access(
        &mut self,
        side: Side,
        bank: BankAddr,
        row: u32,
        op: Op,
        useful: u32,
        at: Ps,
    ) -> Completion {
        let line = self.line_bytes(side) as u64;
        assert!(
            useful as u64 <= line,
            "useful bytes {useful} exceed line size {line}"
        );
        let c = self.ctrl_mut(side, bank.channel);
        let completion = c.access(bank.rank, bank.bank, row, op, at);
        self.stats.cpu_fetched += line;
        self.stats.cpu_useful += useful as u64;
        completion
    }

    /// Streams `bursts` sequential cache-line accesses starting at
    /// `(bank, row0)`, `bursts_per_row` to each row before moving to the
    /// next. Returns the completion time of the last burst.
    ///
    /// Bursts are issued *open-loop* (all arrive at `at`): independent scan
    /// accesses pipeline through the bank/bus constraints, matching a
    /// prefetching streamer rather than pointer chasing. Use
    /// [`MemSystem::access`] with dependent arrival times for the latter.
    #[allow(clippy::too_many_arguments)]
    pub fn stream(
        &mut self,
        side: Side,
        bank: BankAddr,
        row0: u32,
        bursts: u64,
        bursts_per_row: u32,
        op: Op,
        useful_per_burst: u32,
        at: Ps,
    ) -> Ps {
        assert!(bursts_per_row > 0, "bursts_per_row must be positive");
        let mut t = at;
        for i in 0..bursts {
            let row = row0 + (i / bursts_per_row as u64) as u32;
            t = self.access(side, bank, row, op, useful_per_burst, at).done;
        }
        t.max(at)
    }

    /// Like [`MemSystem::stream`], but simulates only a sample window and
    /// linearly extrapolates for very long streams. Statistics are scaled to
    /// the full stream. Use for sweeps whose burst counts reach the
    /// hundreds of millions; the result matches `stream` asymptotically
    /// because warm sequential streams reach a steady rate.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stream_sampled(
        &mut self,
        side: Side,
        bank: BankAddr,
        row0: u32,
        bursts: u64,
        bursts_per_row: u32,
        op: Op,
        useful_per_burst: u32,
        at: Ps,
    ) -> Ps {
        const SAMPLE: u64 = 1 << 16;
        if bursts <= 2 * SAMPLE {
            return self.stream(
                side,
                bank,
                row0,
                bursts,
                bursts_per_row,
                op,
                useful_per_burst,
                at,
            );
        }
        // Warm up (excluded from the measured rate), then measure.
        let warm = self.stream(
            side,
            bank,
            row0,
            SAMPLE,
            bursts_per_row,
            op,
            useful_per_burst,
            at,
        );
        let row1 = row0 + (SAMPLE / bursts_per_row as u64) as u32;
        let measured = self.stream(
            side,
            bank,
            row1,
            SAMPLE,
            bursts_per_row,
            op,
            useful_per_burst,
            warm,
        );
        let rate = (measured - warm) / SAMPLE; // per burst
        let remaining = bursts - 2 * SAMPLE;
        let line = self.line_bytes(side) as u64;
        self.stats.cpu_fetched += line * remaining;
        self.stats.cpu_useful += useful_per_burst as u64 * remaining;
        measured + rate * remaining
    }

    /// Streams `lines` cache lines through `side`'s interleaved address
    /// map: consecutive lines go to consecutive channels, so each channel
    /// streams its share (split as evenly as possible) out of bank 0 of
    /// rank 0, 16 lines to a DRAM row, all issued at `at` as in
    /// `MemSystem::stream_sampled`. Returns the slowest channel's end,
    /// or `at` when `lines` is zero.
    pub fn stream_striped(&mut self, side: Side, lines: u64, op: Op, useful: u32, at: Ps) -> Ps {
        let channels = match side {
            Side::Pim => self.cfg.pim_geometry.channels,
            Side::Host => self.cfg.cpu_geometry.channels,
        };
        let mut end = at;
        for (ch, n) in even_shares(lines, channels) {
            let bank = BankAddr::new(ch, 0, 0);
            end = end.max(self.stream_sampled(side, bank, 0, n, 16, op, useful, at));
        }
        end
    }

    /// Moves `bytes` from PIM memory to PIM memory through the CPU (§6.3:
    /// PIM units cannot talk to each other, so the CPU carries group
    /// indices, hash values, bucket partitions and partial results between
    /// them).
    ///
    /// The CPU reaches PIM memory through its interleaved address map, so
    /// the `bytes.div_ceil(64)` bursts are split as evenly as possible over
    /// every PIM channel. Starting at `at`, each channel streams its share
    /// out of one bank and then into another bank of the same channel
    /// (16 bursts per row, 64 useful bytes per burst). Returns the slowest
    /// channel's end, or `at` when `bytes` is zero.
    pub fn pim_transfer(&mut self, bytes: u64, at: Ps) -> Ps {
        let bursts = bytes.div_ceil(64);
        let mut end = at;
        for (ch, n) in even_shares(bursts, self.cfg.pim_geometry.channels) {
            let (from, to) = (BankAddr::new(ch, 0, 0), BankAddr::new(ch, 0, 1));
            let mid = self.stream_sampled(Side::Pim, from, 0, n, 16, Op::Read, 64, at);
            let done = self.stream_sampled(Side::Pim, to, 0, n, 16, Op::Write, 64, mid);
            end = end.max(done);
        }
        end
    }

    /// Records a PIM-side DMA of `loaded` bytes (of which `useful` carry
    /// live data) without timing it — the caller owns the phase timing via
    /// [`crate::PimUnit`].
    ///
    /// # Panics
    ///
    /// Panics if `useful > loaded`.
    pub fn charge_pim_dma(&mut self, loaded: u64, useful: u64) {
        assert!(useful <= loaded, "useful {useful} > loaded {loaded}");
        self.stats.pim_loaded += loaded;
        self.stats.pim_useful += useful;
    }

    /// Locks every bank of every PIM-side rank until `until` (whole-memory
    /// handover, as in the original architecture's offload).
    pub fn lock_all_pim(&mut self, until: Ps) {
        let g = self.cfg.pim_geometry;
        for ch in 0..g.channels {
            for rk in 0..g.ranks_per_channel {
                self.pim_ctrl[ch as usize].lock_rank(rk, until);
            }
        }
    }

    /// Read-only controller statistics for a PIM-side channel.
    pub fn pim_channel_stats(&self, channel: u32) -> &crate::controller::CtrlStats {
        self.pim_ctrl[channel as usize].stats()
    }
}

/// How an interleaved address map splits `n` consecutive lines over
/// `ways` channels or banks: as evenly as possible, the first
/// `n % ways` taking one more. Yields each way that gets a line, with
/// its share.
pub(crate) fn even_shares(n: u64, ways: u32) -> impl Iterator<Item = (u32, u64)> {
    let (share, extra) = (n / u64::from(ways), n % u64::from(ways));
    (0..ways)
        .map(move |way| (way, share + u64::from(u64::from(way) < extra)))
        .take_while(|&(_, n)| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_bandwidth_tracks_useful_bytes() {
        let mut m = MemSystem::dimm();
        let bank = BankAddr::new(0, 0, 0);
        m.access(Side::Pim, bank, 0, Op::Read, 17, Ps::ZERO);
        // 17 useful of a 64-byte line.
        assert!((m.stats().cpu_effective() - 17.0 / 64.0).abs() < 1e-12);
        m.charge_pim_dma(8, 2);
        assert!((m.stats().pim_effective() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sides_are_independent() {
        let mut m = MemSystem::dimm();
        let bank = BankAddr::new(0, 0, 0);
        let a = m.access(Side::Pim, bank, 0, Op::Read, 64, Ps::ZERO);
        // The same bank address on the host side is a distinct bank: it
        // also sees a cold miss.
        let b = m.access(Side::Host, bank, 0, Op::Read, 64, Ps::ZERO);
        assert_eq!(a.outcome, b.outcome);
    }

    #[test]
    fn stream_matches_manual_loop() {
        let mut a = MemSystem::dimm();
        let mut b = MemSystem::dimm();
        let bank = BankAddr::new(1, 2, 3);
        let end = a.stream(Side::Pim, bank, 0, 512, 128, Op::Read, 64, Ps::ZERO);
        let mut t = Ps::ZERO;
        for i in 0..512u64 {
            t = b
                .access(Side::Pim, bank, (i / 128) as u32, Op::Read, 64, Ps::ZERO)
                .done;
        }
        assert_eq!(end, t);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn sampled_stream_approximates_exact() {
        let mut exact = MemSystem::dimm();
        let mut sampled = MemSystem::dimm();
        let bank = BankAddr::new(0, 0, 0);
        let bursts = 300_000u64;
        let t_exact = exact.stream(Side::Pim, bank, 0, bursts, 128, Op::Read, 64, Ps::ZERO);
        let t_sampled =
            sampled.stream_sampled(Side::Pim, bank, 0, bursts, 128, Op::Read, 64, Ps::ZERO);
        let err = (t_exact.as_us() - t_sampled.as_us()).abs() / t_exact.as_us();
        assert!(err < 0.02, "extrapolation error {err}");
        assert_eq!(exact.stats(), sampled.stats());
    }

    #[test]
    fn lock_all_pim_blocks_every_bank() {
        let mut m = MemSystem::dimm();
        m.lock_all_pim(Ps::from_us(3.0));
        let r = m.access(Side::Pim, BankAddr::new(3, 3, 7), 0, Op::Read, 64, Ps::ZERO);
        assert!(r.issue >= Ps::from_us(3.0));
        // Host side is never locked by PIM handover.
        let h = m.access(
            Side::Host,
            BankAddr::new(0, 0, 0),
            0,
            Op::Read,
            64,
            Ps::ZERO,
        );
        assert!(h.issue < Ps::from_us(1.0));
    }

    /// A transfer through one bank pair: a read stream on channel 0's
    /// bank 0, then a write stream on `to`.
    fn one_bank_transfer(m: &mut MemSystem, to: BankAddr, bytes: u64, at: Ps) -> Ps {
        let bursts = bytes.div_ceil(64);
        let from = BankAddr::new(0, 0, 0);
        let mid = m.stream_sampled(Side::Pim, from, 0, bursts, 16, Op::Read, 64, at);
        m.stream_sampled(Side::Pim, to, 0, bursts, 16, Op::Write, 64, mid)
    }

    fn one_channel() -> SystemConfig {
        let mut cfg = SystemConfig::dimm();
        cfg.pim_geometry.channels = 1;
        cfg
    }

    #[test]
    fn empty_transfer_takes_no_time() {
        let mut m = MemSystem::dimm();
        let at = Ps::from_us(2.0);
        assert_eq!(m.pim_transfer(0, at), at);
        assert_eq!(m.stats(), &SysStats::default());
    }

    #[test]
    fn transfer_moves_every_burst_twice() {
        // 4 channels on DIMM, 32 on HBM: burst counts that divide
        // evenly over them (1 MiB), that leave a remainder, and that are
        // fewer than the channels.
        for cfg in [SystemConfig::dimm(), SystemConfig::hbm(), one_channel()] {
            for bytes in [1, 64, 65, 5 * 64 + 3, 1 << 20, 37 * 4096 + 1] {
                let mut m = MemSystem::new(cfg);
                m.pim_transfer(bytes, Ps::ZERO);
                let moved = 2 * bytes.div_ceil(64) * 64;
                let s = m.stats();
                assert_eq!((s.cpu_fetched, s.cpu_useful), (moved, moved), "{bytes} B");
            }
        }
    }

    #[test]
    fn one_channel_transfer_is_the_one_bank_transfer() {
        let at = Ps::from_us(1.0);
        for bytes in [64, 1000, 1 << 20, 40 << 20] {
            let mut striped = MemSystem::new(one_channel());
            let mut single = MemSystem::new(one_channel());
            let end = striped.pim_transfer(bytes, at);
            assert_eq!(
                end,
                one_bank_transfer(&mut single, BankAddr::new(0, 0, 1), bytes, at)
            );
            assert_eq!(striped.stats(), single.stats());
        }
    }

    #[test]
    fn striped_transfer_beats_one_bank() {
        let mut striped = MemSystem::dimm();
        let mut single = MemSystem::dimm();
        let end = striped.pim_transfer(1 << 20, Ps::ZERO);
        let before = one_bank_transfer(&mut single, BankAddr::new(1, 0, 1), 1 << 20, Ps::ZERO);
        assert!(end < before, "striped {end:?} vs one bank {before:?}");
        assert_eq!(striped.stats(), single.stats());
    }

    #[test]
    #[should_panic(expected = "exceed line size")]
    fn oversized_useful_panics() {
        let mut m = MemSystem::dimm();
        m.access(Side::Pim, BankAddr::new(0, 0, 0), 0, Op::Read, 65, Ps::ZERO);
    }
}
