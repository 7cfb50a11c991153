//! The memory facade: simulated-memory access under the *current*
//! domain's PKRU. Touching another compartment's pages faults exactly as
//! MPK would, and KASan-hardened components also get shadow checks here.

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

use super::Env;

impl Env {
    /// The KASan shadow check of an access by the current component:
    /// charged when the component is KASan-hardened and the access lands
    /// in its compartment's heap or the shared heap. While the hardening
    /// recorder is on, an access to the component's own heap counts when
    /// that heap runs KASan, charged or not.
    #[inline]
    fn kasan_filter(&self, addr: Addr, len: u64) -> Result<(), Fault> {
        if !self.kasan_any {
            return Ok(());
        }
        let comp = self.cur.get();
        let flagged = self.hardening[comp.0 as usize].kasan;
        if !flagged && !self.recorder.is_on() {
            return Ok(());
        }
        let heap = &self.heaps[self.compartment_of(comp).0 as usize];
        if heap.borrow().region().contains(addr) {
            if self.recorder.is_on() && heap.borrow().kasan_enabled() {
                self.record_heap_access(comp, addr, len);
            }
            if flagged {
                return heap.borrow_mut().kasan_check(addr, len);
            }
        } else if flagged && self.shared_heap.borrow().region().contains(addr) {
            return self.shared_heap.borrow_mut().kasan_check(addr, len);
        }
        Ok(())
    }

    /// Reads simulated memory under the current domain's PKRU.
    ///
    /// # Errors
    ///
    /// [`Fault::ProtectionKey`] when the current compartment does not hold
    /// the page's key — the MPK isolation event; [`Fault::Kasan`] under
    /// KASan hardening for redzone/quarantine hits.
    #[inline]
    pub fn mem_read(&self, addr: Addr, buf: &mut [u8]) -> Result<(), Fault> {
        self.kasan_filter(addr, buf.len() as u64)?;
        self.machine.charge_mem_bytes(buf.len() as u64);
        self.machine.memory().read(addr, buf, &self.pkru.get())
    }

    /// Reads `len` bytes into a fresh vector.
    ///
    /// The length is validated against the machine's memory size before
    /// the vector is allocated: a corrupted length field read *out of*
    /// simulated memory faults cleanly instead of triggering an
    /// arbitrarily large host-side allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Env::mem_read`].
    pub fn mem_read_vec(&self, addr: Addr, len: u64) -> Result<Vec<u8>, Fault> {
        if len > self.machine.memory_bytes() {
            return Err(Fault::OutOfBounds { addr, len });
        }
        let mut buf = vec![0u8; len as usize];
        self.mem_read(addr, &mut buf)?;
        Ok(buf)
    }

    /// Reads `len` bytes and **appends** them to `out` — the
    /// reusable-buffer twin of [`Env::mem_read_vec`]: once `out`'s
    /// capacity has converged, steady-state reads perform zero host
    /// allocations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Env::mem_read`]; on error `out` is truncated
    /// back to its original length.
    pub fn mem_read_into(&self, addr: Addr, len: u64, out: &mut Vec<u8>) -> Result<(), Fault> {
        if len > self.machine.memory_bytes() {
            return Err(Fault::OutOfBounds { addr, len });
        }
        let start = out.len();
        out.resize(start + len as usize, 0);
        match self.mem_read(addr, &mut out[start..]) {
            Ok(()) => Ok(()),
            Err(fault) => {
                out.truncate(start);
                Err(fault)
            }
        }
    }

    /// Compares simulated memory at `addr` with `bytes`, without copying
    /// or allocating — the rights-checked `memcmp` behind dict key
    /// probes. Charges and faults exactly like an [`Env::mem_read`] of
    /// the same length.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Env::mem_read`].
    #[inline]
    pub fn mem_compare(&self, addr: Addr, bytes: &[u8]) -> Result<bool, Fault> {
        self.kasan_filter(addr, bytes.len() as u64)?;
        self.machine.charge_mem_bytes(bytes.len() as u64);
        self.machine.memory().compare(addr, bytes, &self.pkru.get())
    }

    /// Copies `len` bytes from `src` to `dst` inside simulated memory —
    /// page-pair-wise, with no host allocation. Charges one read side
    /// plus one write side, exactly like an [`Env::mem_read`] followed by
    /// an [`Env::mem_write`] of the same length.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Env::mem_read`] / [`Env::mem_write`].
    pub fn mem_copy(&self, src: Addr, dst: Addr, len: u64) -> Result<(), Fault> {
        self.kasan_filter(src, len)?;
        self.machine.charge_mem_bytes(len);
        self.kasan_filter(dst, len)?;
        self.machine.charge_mem_bytes(len);
        self.machine
            .memory_mut()
            .copy(src, dst, len, &self.pkru.get())
    }

    /// Writes simulated memory under the current domain's PKRU.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Env::mem_read`].
    #[inline]
    pub fn mem_write(&self, addr: Addr, data: &[u8]) -> Result<(), Fault> {
        self.kasan_filter(addr, data.len() as u64)?;
        self.machine.charge_mem_bytes(data.len() as u64);
        self.machine
            .memory_mut()
            .write(addr, data, &self.pkru.get())
    }

    /// Fills `len` bytes at `addr` with `byte` — a `memset` with no host
    /// buffer behind it. Charges and faults exactly like an
    /// [`Env::mem_write`] of `len` bytes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Env::mem_write`].
    pub fn mem_fill(&self, addr: Addr, len: u64, byte: u8) -> Result<(), Fault> {
        self.kasan_filter(addr, len)?;
        self.machine.charge_mem_bytes(len);
        self.machine
            .memory_mut()
            .fill(addr, len, byte, &self.pkru.get())
    }
}
