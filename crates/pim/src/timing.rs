//! DRAM timing parameters (Table 1 of the paper).

use crate::time::Ps;

/// The set of DRAM timing constraints used by the bank/controller model.
///
/// Field names follow the JEDEC-style parameters listed in Table 1 of the
/// paper. All values are durations ([`Ps`]).
///
/// # Examples
///
/// ```
/// use pushtap_pim::TimingParams;
///
/// let t = TimingParams::ddr5_3200();
/// assert_eq!(t.t_burst, pushtap_pim::Ps::from_ns(2.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Data burst duration on the bus for one access.
    pub t_burst: Ps,
    /// Activate-to-read/write delay.
    pub t_rcd: Ps,
    /// Column access (CAS) latency.
    pub t_cl: Ps,
    /// Precharge latency.
    pub t_rp: Ps,
    /// Minimum activate-to-precharge interval.
    pub t_ras: Ps,
    /// Activate-to-activate delay between banks of the same rank.
    pub t_rrd: Ps,
    /// Refresh cycle duration (all banks busy).
    pub t_rfc: Ps,
    /// Write recovery time (write data end to precharge).
    pub t_wr: Ps,
    /// Write-to-read turnaround.
    pub t_wtr: Ps,
    /// Read-to-precharge delay.
    pub t_rtp: Ps,
    /// Read-to-write turnaround.
    pub t_rtw: Ps,
    /// Rank-to-rank switch penalty.
    pub t_cs: Ps,
    /// Average refresh interval (one refresh command per `t_refi`).
    pub t_refi: Ps,
}

impl TimingParams {
    /// DDR5-3200 DIMM timing from Table 1 of the paper.
    pub fn ddr5_3200() -> TimingParams {
        TimingParams {
            t_burst: Ps::from_ns(2.5),
            t_rcd: Ps::from_ns(7.5),
            t_cl: Ps::from_ns(7.5),
            t_rp: Ps::from_ns(7.5),
            t_ras: Ps::from_ns(16.3),
            t_rrd: Ps::from_ns(2.5),
            t_rfc: Ps::from_ns(121.9),
            t_wr: Ps::from_ns(15.0),
            t_wtr: Ps::from_ns(11.2),
            t_rtp: Ps::from_ns(3.75),
            t_rtw: Ps::from_ns(4.4),
            t_cs: Ps::from_ns(4.4),
            t_refi: Ps::from_us(3.9),
        }
    }

    /// HBM3-2Gbps timing from Table 1 of the paper.
    pub fn hbm3_2gbps() -> TimingParams {
        TimingParams {
            t_burst: Ps::from_ns(2.0),
            t_rcd: Ps::from_ns(3.5),
            t_cl: Ps::from_ns(3.5),
            t_rp: Ps::from_ns(3.5),
            t_ras: Ps::from_ns(8.5),
            t_rrd: Ps::from_ns(2.0),
            t_rfc: Ps::from_ns(175.0),
            t_wr: Ps::from_ns(4.0),
            t_wtr: Ps::from_ns(1.5),
            t_rtp: Ps::from_ns(1.0),
            t_rtw: Ps::from_ns(1.5),
            t_cs: Ps::from_ns(1.5),
            t_refi: Ps::from_us(2.0),
        }
    }

    /// Row cycle time: minimum interval between activates to the same bank.
    pub fn t_rc(&self) -> Ps {
        self.t_ras + self.t_rp
    }

    /// Latency of an isolated read to a closed bank (ACT + CAS + burst).
    pub fn miss_latency(&self) -> Ps {
        self.t_rcd + self.t_cl + self.t_burst
    }

    /// Latency of an isolated row-buffer conflict read (PRE + ACT + CAS + burst).
    pub fn conflict_latency(&self) -> Ps {
        self.t_rp + self.t_rcd + self.t_cl + self.t_burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 constants, asserted verbatim (experiment index entry "Table 1").
    #[test]
    fn table1_dimm_constants() {
        let t = TimingParams::ddr5_3200();
        assert_eq!(t.t_burst, Ps::from_ns(2.5));
        assert_eq!(t.t_rcd, Ps::from_ns(7.5));
        assert_eq!(t.t_cl, Ps::from_ns(7.5));
        assert_eq!(t.t_rp, Ps::from_ns(7.5));
        assert_eq!(t.t_ras, Ps::from_ns(16.3));
        assert_eq!(t.t_rrd, Ps::from_ns(2.5));
        assert_eq!(t.t_rfc, Ps::from_ns(121.9));
        assert_eq!(t.t_wr, Ps::from_ns(15.0));
        assert_eq!(t.t_wtr, Ps::from_ns(11.2));
        assert_eq!(t.t_rtp, Ps::from_ns(3.75));
        assert_eq!(t.t_rtw, Ps::from_ns(4.4));
        assert_eq!(t.t_cs, Ps::from_ns(4.4));
        assert_eq!(t.t_refi, Ps::from_us(3.9));
    }

    /// Table 1 constants for the HBM-based configuration.
    #[test]
    fn table1_hbm_constants() {
        let t = TimingParams::hbm3_2gbps();
        assert_eq!(t.t_burst, Ps::from_ns(2.0));
        assert_eq!(t.t_rcd, Ps::from_ns(3.5));
        assert_eq!(t.t_rfc, Ps::from_ns(175.0));
        assert_eq!(t.t_refi, Ps::from_us(2.0));
    }

    #[test]
    fn derived_latencies() {
        let t = TimingParams::ddr5_3200();
        assert_eq!(t.t_rc(), Ps::from_ns(16.3) + Ps::from_ns(7.5));
        assert_eq!(t.miss_latency(), Ps::from_ns(17.5));
        assert_eq!(t.conflict_latency(), Ps::from_ns(25.0));
        assert!(t.miss_latency() < t.conflict_latency());
    }

    #[test]
    fn hbm_is_faster_per_access() {
        let dimm = TimingParams::ddr5_3200();
        let hbm = TimingParams::hbm3_2gbps();
        assert!(hbm.conflict_latency() < dimm.conflict_latency());
        assert!(hbm.t_burst < dimm.t_burst);
    }
}
