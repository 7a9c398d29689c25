//! Per-channel memory controller timing model.
//!
//! This is the "ramulator-lite" substrate: an open-page controller that
//! schedules ACT/PRE/RD/WR commands against per-bank state under the
//! constraints of [`TimingParams`], tracks shared data-bus occupancy,
//! read/write turnaround, rank-switch penalties, and periodic all-bank
//! refresh. It is request-stream driven (each call schedules one burst) and
//! O(1) per access.

use crate::bank::{BankState, RowOutcome};
use crate::time::Ps;
use crate::timing::TimingParams;

/// Access direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A read burst.
    Read,
    /// A write burst.
    Write,
}

/// Scheduling result for one burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the column command issued.
    pub issue: Ps,
    /// When data started on the bus.
    pub data_start: Ps,
    /// When the burst finished (data fully transferred).
    pub done: Ps,
    /// Row-buffer outcome.
    pub outcome: RowOutcome,
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// Bursts that hit an open row.
    pub hits: u64,
    /// Bursts to an idle bank.
    pub misses: u64,
    /// Bursts that required closing another row.
    pub conflicts: u64,
    /// Read bursts.
    pub reads: u64,
    /// Write bursts.
    pub writes: u64,
    /// All-bank refresh operations performed.
    pub refreshes: u64,
}

impl CtrlStats {
    /// Total bursts served.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses + self.conflicts
    }
}

/// One channel's controller: bank states, bus, refresh bookkeeping.
#[derive(Debug, Clone)]
pub struct ChannelController {
    timing: TimingParams,
    banks: Vec<BankState>,
    banks_per_rank: u32,
    rank_last_act: Vec<Option<Ps>>,
    bus_free: Ps,
    last_rank: Option<u32>,
    last_op: Option<Op>,
    last_data_end: Ps,
    next_refresh: Ps,
    stats: CtrlStats,
}

impl ChannelController {
    /// Creates a controller for `ranks` ranks of `banks_per_rank` lockstep
    /// banks each.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` or `banks_per_rank` is zero.
    pub fn new(timing: TimingParams, ranks: u32, banks_per_rank: u32) -> ChannelController {
        assert!(ranks > 0 && banks_per_rank > 0, "degenerate geometry");
        ChannelController {
            timing,
            banks: vec![BankState::default(); (ranks * banks_per_rank) as usize],
            banks_per_rank,
            rank_last_act: vec![None; ranks as usize],
            bus_free: Ps::ZERO,
            last_rank: None,
            last_op: None,
            last_data_end: Ps::ZERO,
            next_refresh: timing.t_refi,
            stats: CtrlStats::default(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// The timing parameters this controller models.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    fn bank_index(&self, rank: u32, bank: u32) -> usize {
        let idx = (rank * self.banks_per_rank + bank) as usize;
        assert!(
            idx < self.banks.len(),
            "rank {rank}/bank {bank} out of range"
        );
        idx
    }

    /// Applies pending all-bank refreshes up to time `at`. If the channel
    /// was idle for many refresh intervals, the missed refreshes are
    /// fast-forwarded without accumulating stall (the banks were idle).
    fn catch_up_refresh(&mut self, at: Ps) {
        if at < self.next_refresh {
            return;
        }
        let gap = at - self.next_refresh;
        let periods = gap.ps() / self.timing.t_refi.ps();
        if periods > 8 {
            // Long-idle fast-forward: refreshes happened while no requests
            // were outstanding, so they stall nothing.
            self.next_refresh += self.timing.t_refi * periods;
            self.stats.refreshes += periods;
        }
        while at >= self.next_refresh {
            let stall_end = self.next_refresh + self.timing.t_rfc;
            for b in &mut self.banks {
                // Refresh closes all rows.
                b.open_row = None;
                b.stall_until(stall_end);
            }
            self.bus_free = self.bus_free.max(stall_end);
            self.next_refresh += self.timing.t_refi;
            self.stats.refreshes += 1;
        }
    }

    /// Schedules one burst to `(rank, bank, row)` arriving at time `at`.
    ///
    /// Returns the command issue time, the data-bus start time, and the
    /// completion time. Bank-state, bus, turnaround, rank-switch, refresh,
    /// and PIM-lock constraints are all applied.
    pub fn access(&mut self, rank: u32, bank: u32, row: u32, op: Op, at: Ps) -> Completion {
        let t = &self.timing;
        let (t_rcd, t_cl, t_rp, t_ras, t_rrd, t_burst) =
            (t.t_rcd, t.t_cl, t.t_rp, t.t_ras, t.t_rrd, t.t_burst);
        let (t_rtp, t_wr, t_wtr, t_rtw, t_cs) = (t.t_rtp, t.t_wr, t.t_wtr, t.t_rtw, t.t_cs);
        let t_rc = t.t_rc();
        // Streams issue open-loop (constant arrival time), so advance the
        // refresh bookkeeping with actual bus progress, not just `at`.
        self.catch_up_refresh(at.max(self.last_data_end));

        let idx = self.bank_index(rank, bank);
        let arrive = at.max(self.banks[idx].locked_until);
        let outcome = self.banks[idx].outcome(row);

        // Row-command path: when can the column command earliest issue?
        let mut issue = match outcome {
            RowOutcome::Hit => arrive.max(self.banks[idx].ready_rw),
            RowOutcome::Conflict => {
                let pre = arrive.max(self.banks[idx].ready_pre);
                let mut act = (pre + t_rp).max(self.banks[idx].ready_act);
                if let Some(last) = self.rank_last_act[rank as usize] {
                    act = act.max(last + t_rrd);
                }
                self.banks[idx].act_time = act;
                self.banks[idx].ready_act = act + t_rc;
                self.rank_last_act[rank as usize] = Some(act);
                act + t_rcd
            }
            RowOutcome::Miss => {
                let mut act = arrive.max(self.banks[idx].ready_act);
                if let Some(last) = self.rank_last_act[rank as usize] {
                    act = act.max(last + t_rrd);
                }
                self.banks[idx].act_time = act;
                self.banks[idx].ready_act = act + t_rc;
                self.rank_last_act[rank as usize] = Some(act);
                act + t_rcd
            }
        };

        // Bus-turnaround constraints relative to the previous burst.
        match (self.last_op, op) {
            (Some(Op::Write), Op::Read) => issue = issue.max(self.last_data_end + t_wtr),
            (Some(Op::Read), Op::Write) => issue = issue.max(self.last_data_end + t_rtw),
            _ => {}
        }
        if self.last_rank.is_some() && self.last_rank != Some(rank) {
            issue = issue.max(self.last_data_end + t_cs);
        }

        // Shared data bus.
        let mut data_start = issue + t_cl;
        if data_start < self.bus_free {
            let delay = self.bus_free - data_start;
            issue += delay;
            data_start = self.bus_free;
        }
        let done = data_start + t_burst;

        // Commit bank state.
        let bank_state = &mut self.banks[idx];
        bank_state.open_row = Some(row);
        bank_state.ready_rw = issue + t_burst; // CAS-to-CAS ≈ burst
        bank_state.ready_pre = match op {
            Op::Read => (bank_state.act_time + t_ras).max(issue + t_rtp),
            Op::Write => (bank_state.act_time + t_ras).max(done + t_wr),
        };

        self.bus_free = done;
        self.last_rank = Some(rank);
        self.last_op = Some(op);
        self.last_data_end = done;

        match outcome {
            RowOutcome::Hit => self.stats.hits += 1,
            RowOutcome::Miss => self.stats.misses += 1,
            RowOutcome::Conflict => self.stats.conflicts += 1,
        }
        match op {
            Op::Read => self.stats.reads += 1,
            Op::Write => self.stats.writes += 1,
        }

        Completion {
            issue,
            data_start,
            done,
            outcome,
        }
    }

    /// Locks `(rank, bank)` against CPU access until `until` (bank handed to
    /// its PIM units during an LS/Defragment phase).
    pub fn lock_bank(&mut self, rank: u32, bank: u32, until: Ps) {
        let idx = self.bank_index(rank, bank);
        self.banks[idx].lock_until(until);
    }

    /// Locks every bank of `rank` until `until`.
    pub fn lock_rank(&mut self, rank: u32, until: Ps) {
        for bank in 0..self.banks_per_rank {
            self.lock_bank(rank, bank, until);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> ChannelController {
        ChannelController::new(TimingParams::ddr5_3200(), 4, 8)
    }

    /// Earliest time the CPU can next touch `(rank, bank)`.
    fn bank_available(c: &ChannelController, rank: u32, bank: u32) -> Ps {
        c.banks[c.bank_index(rank, bank)].locked_until
    }

    #[test]
    fn first_access_is_a_miss_with_act_latency() {
        let mut c = ctrl();
        let t = TimingParams::ddr5_3200();
        let r = c.access(0, 0, 10, Op::Read, Ps::ZERO);
        assert_eq!(r.outcome, RowOutcome::Miss);
        assert_eq!(r.done, t.t_rcd + t.t_cl + t.t_burst);
    }

    #[test]
    fn second_access_same_row_hits_and_pipelines() {
        let mut c = ctrl();
        let t = TimingParams::ddr5_3200();
        let a = c.access(0, 0, 10, Op::Read, Ps::ZERO);
        let b = c.access(0, 0, 10, Op::Read, Ps::ZERO);
        assert_eq!(b.outcome, RowOutcome::Hit);
        // Streams at one burst per tBURST once warm.
        assert_eq!(b.done - a.done, t.t_burst);
    }

    #[test]
    fn conflict_pays_precharge() {
        let mut c = ctrl();
        let t = TimingParams::ddr5_3200();
        c.access(0, 0, 10, Op::Read, Ps::ZERO);
        let r = c.access(0, 0, 11, Op::Read, Ps::from_us(1.0));
        assert_eq!(r.outcome, RowOutcome::Conflict);
        // Idle bank, so latency = PRE + ACT + CAS + burst from arrival.
        assert_eq!(r.done - Ps::from_us(1.0), t.conflict_latency());
    }

    #[test]
    fn ras_limits_early_precharge() {
        let mut c = ctrl();
        let t = TimingParams::ddr5_3200();
        // Access row 10 then immediately conflict on row 11: the PRE must
        // wait for tRAS after the ACT.
        c.access(0, 0, 10, Op::Read, Ps::ZERO);
        let r = c.access(0, 0, 11, Op::Read, Ps::ZERO);
        // ACT(10) at 0; PRE ≥ tRAS; ACT(11) ≥ tRAS+tRP; done ≥ +tRCD+tCL+tBURST.
        let lower = t.t_ras + t.t_rp + t.t_rcd + t.t_cl + t.t_burst;
        assert!(r.done >= lower, "{} < {}", r.done, lower);
    }

    #[test]
    fn bank_parallelism_overlaps_activates() {
        let mut serial = ctrl();
        let mut parallel = ctrl();
        // 4 conflicting accesses to one bank vs 4 accesses to 4 banks.
        let mut done_serial = Ps::ZERO;
        for row in 0..4 {
            done_serial = serial.access(0, 0, row * 2, Op::Read, Ps::ZERO).done;
        }
        let mut done_parallel = Ps::ZERO;
        for bank in 0..4 {
            done_parallel = parallel.access(0, bank, 0, Op::Read, Ps::ZERO).done;
        }
        assert!(done_parallel < done_serial);
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut c = ctrl();
        let t = TimingParams::ddr5_3200();
        let w = c.access(0, 0, 5, Op::Write, Ps::ZERO);
        let r = c.access(0, 0, 5, Op::Read, Ps::ZERO);
        assert!(r.issue >= w.done + t.t_wtr);
    }

    #[test]
    fn rank_switch_penalty() {
        let mut c = ctrl();
        let t = TimingParams::ddr5_3200();
        let a = c.access(0, 0, 5, Op::Read, Ps::ZERO);
        let b = c.access(1, 0, 5, Op::Read, Ps::ZERO);
        assert!(b.issue >= a.done + t.t_cs);
    }

    #[test]
    fn refresh_stalls_periodically() {
        let mut c = ctrl();
        let t = TimingParams::ddr5_3200();
        // Park an access right after the first tREFI boundary: it must see
        // the tRFC stall.
        let at = t.t_refi + Ps::new(1);
        let r = c.access(0, 0, 3, Op::Read, at);
        assert!(r.issue >= t.t_refi + t.t_rfc);
        assert_eq!(c.stats().refreshes, 1);
    }

    #[test]
    fn long_idle_fast_forwards_refresh() {
        let mut c = ctrl();
        // Jump 1 second ahead: must not loop 256k times nor stall.
        let at = Ps::from_ms(1000.0);
        let r = c.access(0, 0, 3, Op::Read, at);
        assert!(r.done < at + Ps::from_us(1.0));
        assert!(c.stats().refreshes > 200_000);
    }

    #[test]
    fn pim_lock_blocks_cpu() {
        let mut c = ctrl();
        c.lock_bank(0, 0, Ps::from_us(5.0));
        // Other banks are unaffected (served first, in arrival order).
        let r2 = c.access(0, 1, 3, Op::Read, Ps::ZERO);
        assert!(r2.issue < Ps::from_us(5.0));
        let r = c.access(0, 0, 3, Op::Read, Ps::ZERO);
        assert!(r.issue >= Ps::from_us(5.0));
    }

    #[test]
    fn lock_rank_locks_all_banks() {
        let mut c = ctrl();
        c.lock_rank(2, Ps::from_us(1.0));
        for bank in 0..8 {
            assert_eq!(bank_available(&c, 2, bank), Ps::from_us(1.0));
        }
        assert_eq!(bank_available(&c, 0, 0), Ps::ZERO);
    }

    #[test]
    fn stats_track_outcomes() {
        let mut c = ctrl();
        c.access(0, 0, 1, Op::Read, Ps::ZERO); // miss
        c.access(0, 0, 1, Op::Read, Ps::ZERO); // hit
        c.access(0, 0, 2, Op::Write, Ps::ZERO); // conflict
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.conflicts), (1, 1, 1));
        assert_eq!((s.reads, s.writes), (2, 1));
    }

    #[test]
    fn sequential_stream_is_mostly_hits() {
        let mut c = ctrl();
        let t = TimingParams::ddr5_3200();
        let mut at = Ps::ZERO;
        // 128 bursts per 1 kB row × 16 rows, issued open-loop.
        for row in 0..16u32 {
            for _ in 0..128 {
                at = c.access(0, 0, row, Op::Read, Ps::ZERO).done;
            }
        }
        let s = c.stats();
        let hit_rate = s.hits as f64 / s.accesses() as f64;
        assert!(hit_rate > 0.98, "hit rate {hit_rate}");
        // Warm stream throughput ≈ one burst per tBURST.
        let bursts = s.accesses();
        let ideal = t.t_burst * bursts;
        assert!(at < ideal.scale(1.10), "stream time {at} vs ideal {ideal}");
    }
}
