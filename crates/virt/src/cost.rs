//! The host cost model.

/// Kinds of per-instruction work, each with its own execution rate.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum WorkKind {
    /// Native execution on the host.
    Native,
    /// Virtualized fast-forwarding (KVM): near-native.
    Vff,
    /// Functional simulation (gem5 "atomic" CPU): no timing, but every
    /// instruction and memory access is interpreted.
    Functional,
    /// Detailed cycle-level simulation (gem5 O3 CPU).
    Detailed,
}

/// Host execution-cost constants, in MIPS and seconds.
///
/// These stand in for the dual-socket Xeon E5520 the paper measures on.
/// Every simulated mechanism charges a [`HostClock`](crate::HostClock)
/// through this model; reported speeds are `instructions / seconds`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Native execution rate (≈ one IPC at 2.26 GHz).
    pub native_mips: f64,
    /// KVM fast-forward rate (near-native; guest overhead ~20%).
    pub vff_mips: f64,
    /// Functional simulation rate (the paper reports SMARTS at 1.3 MIPS,
    /// which functional warming dominates).
    pub functional_mips: f64,
    /// Detailed simulation rate.
    pub detailed_mips: f64,
    /// Cost of one watchpoint trap (page fault + signal delivery +
    /// re-protection).
    pub trap_seconds: f64,
    /// Per-region cost of handing state between pipeline passes (the
    /// paper's OS pipes; checkpoint transfer between KVM and gem5).
    pub transfer_seconds: f64,
}

impl CostModel {
    /// Constants modeling the paper's evaluation host.
    ///
    /// The trap cost covers the full userspace watchpoint round trip on
    /// 2009-era hardware: fault, kernel entry, signal delivery, distance
    /// bookkeeping and page re-protection (two `mprotect` calls + TLB
    /// shootdown) — tens of microseconds end to end.
    pub fn paper_host() -> Self {
        CostModel {
            native_mips: 2260.0,
            vff_mips: 1800.0,
            functional_mips: 1.4,
            detailed_mips: 0.2,
            trap_seconds: 1.8e-5,
            transfer_seconds: 2.0e-3,
        }
    }

    /// Rate for a work kind, in MIPS.
    pub fn mips_for(&self, kind: WorkKind) -> f64 {
        match kind {
            WorkKind::Native => self.native_mips,
            WorkKind::Vff => self.vff_mips,
            WorkKind::Functional => self.functional_mips,
            WorkKind::Detailed => self.detailed_mips,
        }
    }

    /// Seconds to execute `instrs` instructions as `kind` work.
    pub fn instr_seconds(&self, kind: WorkKind, instrs: u64) -> f64 {
        instrs as f64 / (self.mips_for(kind) * 1e6)
    }

    /// Validate that all rates are positive and ordered sensibly.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            self.native_mips,
            self.vff_mips,
            self.functional_mips,
            self.detailed_mips,
        ];
        if rates.iter().any(|&r| r <= 0.0) {
            return Err("all rates must be positive".into());
        }
        if self.trap_seconds < 0.0 || self.transfer_seconds < 0.0 {
            return Err("costs must be non-negative".into());
        }
        if self.detailed_mips > self.functional_mips
            || self.functional_mips > self.vff_mips
            || self.vff_mips > self.native_mips
        {
            return Err("rates must satisfy detailed ≤ functional ≤ vff ≤ native".into());
        }
        Ok(())
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_host()
    }
}

/// Express a (instructions, seconds) pair as MIPS; 0 for zero time.
pub fn mips(instructions: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        instructions as f64 / seconds / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_host_is_valid_and_ordered() {
        let c = CostModel::paper_host();
        c.validate().unwrap();
        assert!(c.mips_for(WorkKind::Native) > c.mips_for(WorkKind::Vff));
        assert!(c.mips_for(WorkKind::Vff) > c.mips_for(WorkKind::Functional));
        assert!(c.mips_for(WorkKind::Functional) > c.mips_for(WorkKind::Detailed));
    }

    #[test]
    fn instr_seconds_scales_linearly() {
        let c = CostModel::paper_host();
        let one = c.instr_seconds(WorkKind::Functional, 1_000_000);
        let ten = c.instr_seconds(WorkKind::Functional, 10_000_000);
        assert!((ten / one - 10.0).abs() < 1e-9);
        // 1M instructions at 1.4 MIPS ≈ 0.71 s.
        assert!((one - 1.0 / 1.4).abs() < 1e-9);
    }

    #[test]
    fn mips_helper() {
        assert!((mips(126_000_000, 1.0) - 126.0).abs() < 1e-9);
        assert_eq!(mips(100, 0.0), 0.0);
    }

    #[test]
    fn validation_catches_inversions() {
        let mut c = CostModel::paper_host();
        c.functional_mips = 10_000.0;
        assert!(c.validate().is_err());
        let mut d = CostModel::paper_host();
        d.trap_seconds = -1.0;
        assert!(d.validate().is_err());
        let mut e = CostModel::paper_host();
        e.detailed_mips = 0.0;
        assert!(e.validate().is_err());
    }
}
