//! Per-thread CPU state: the register file.
//!
//! FlexOS gates "guarantee isolation of the register set and therefore save
//! and zero out all registers not used by parameters" (§3.1). The simulated
//! register file lets the MPK backend implement exactly that dance — save,
//! zero, load arguments, and restore on return — and lets tests verify that
//! no callee-visible register leaks caller secrets across a domain switch.

/// Number of modeled general-purpose registers (x86-64's 16 GPRs).
pub(crate) const NUM_GPRS: usize = 16;

/// Registers that carry System V call arguments (rdi, rsi, rdx, rcx, r8,
/// r9 — indices 0..6 in our model).
pub(crate) const ARG_REGS: usize = 6;

/// A simulated general-purpose register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterFile {
    regs: [u64; NUM_GPRS],
}

impl Default for RegisterFile {
    fn default() -> Self {
        RegisterFile {
            regs: [0; NUM_GPRS],
        }
    }
}

impl RegisterFile {
    /// A zeroed register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads register `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_GPRS`.
    pub fn get(&self, idx: usize) -> u64 {
        self.regs[idx]
    }

    /// Writes register `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_GPRS`.
    pub fn set(&mut self, idx: usize, value: u64) {
        self.regs[idx] = value;
    }

    /// Zeroes every register not used to pass the first `arg_count`
    /// arguments — the gate's register-scrubbing step (§4.1, step 2).
    pub fn clear_non_args(&mut self, arg_count: usize) {
        let keep = arg_count.min(ARG_REGS);
        for r in self.regs.iter_mut().skip(keep) {
            *r = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_non_args_keeps_arguments() {
        let mut rf = RegisterFile::new();
        for i in 0..NUM_GPRS {
            rf.set(i, (i as u64) + 100);
        }
        rf.clear_non_args(3);
        assert_eq!(rf.get(0), 100);
        assert_eq!(rf.get(2), 102);
        for i in 3..NUM_GPRS {
            assert_eq!(rf.get(i), 0, "register {i} leaked");
        }
    }

    #[test]
    fn arg_count_is_capped_at_abi_registers() {
        let mut rf = RegisterFile::new();
        for i in 0..NUM_GPRS {
            rf.set(i, 7);
        }
        // Even "9 arguments" only protects the 6 ABI argument registers;
        // stack-passed arguments are covered by the stack switch.
        rf.clear_non_args(9);
        for i in ARG_REGS..NUM_GPRS {
            assert_eq!(rf.get(i), 0);
        }
    }
}
