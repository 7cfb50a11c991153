//! vfscore: the VFS layer routing POSIX-style file operations to ramfs.
//!
//! Every operation crosses two abstract gates: vfscore → ramfs for the
//! node/block work (free when the two share a compartment, as §4.4
//! recommends) and vfscore → uktime for timestamping (the crossing the
//! Figure 10 MPK3 scenario pays). Operation counts are exposed through
//! [`VfsStats`] because cycles = Σ ops × gate cost is exactly how the
//! SQLite evaluation decomposes.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use flexos_core::component::ComponentId;
use flexos_core::entry::CallTarget;
use flexos_core::env::{Env, Work};
use flexos_machine::fault::Fault;
use flexos_time::{TimeEntries, TimeSubsystem};

use crate::fd::{Fd, FdTable, OpenFile, OpenFlags};
use crate::path::normalize;
use crate::ramfs::{RamFs, RamfsEntries};

/// File metadata returned by [`Vfs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// Size in bytes.
    pub size: u64,
    /// Modification time (ns).
    pub mtime_ns: u64,
    /// Access time (ns).
    pub atime_ns: u64,
}

/// Operation counters (Figure 10's crossing-count driver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsStats {
    /// `open` calls.
    pub opens: u64,
    /// `close` calls.
    pub closes: u64,
    /// `read` calls.
    pub reads: u64,
    /// `write` calls.
    pub writes: u64,
    /// `fsync` calls.
    pub syncs: u64,
    /// `unlink` calls.
    pub unlinks: u64,
    /// `stat`/`size` calls.
    pub stats: u64,
    /// `lseek` calls.
    pub seeks: u64,
}

impl VfsStats {
    /// Total vfs operations (each costs one app→fs gate crossing when the
    /// filesystem is isolated, plus one fs→time crossing).
    pub fn total_ops(&self) -> u64 {
        self.opens
            + self.closes
            + self.reads
            + self.writes
            + self.syncs
            + self.unlinks
            + self.stats
            + self.seeks
    }
}

flexos_core::entry_points! {
    /// vfscore's own gate entry points, resolved once at construction (the
    /// libc gates file I/O through these handles).
    pub struct VfsEntries {
        open: "vfs_open",
        close: "vfs_close",
        read: "vfs_read",
        write: "vfs_write",
        lseek: "vfs_lseek",
        fsync: "vfs_fsync",
        unlink: "vfs_unlink",
        stat: "vfs_stat",
        truncate: "vfs_truncate",
    }
}

/// The vfscore component.
pub struct Vfs {
    env: Rc<Env>,
    entries: VfsEntries,
    /// The ramfs and uktime targets the vfs itself gates through (two
    /// crossings per operation: node/block work + timestamping).
    ramfs_gates: RamfsEntries,
    time_wall: CallTarget,
    ramfs: RefCell<RamFs>,
    time: Rc<TimeSubsystem>,
    fds: RefCell<FdTable>,
    stats: Cell<VfsStats>,
}

impl std::fmt::Debug for Vfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vfs")
            .field("stats", &self.stats.get())
            .finish()
    }
}

/// Base cycles per vfs-layer operation (descriptor work, path handling).
const OP_CYCLES: u64 = 55;
/// Extra cycles for fsync (write barrier on the simulated device).
const SYNC_CYCLES: u64 = 850;

impl Vfs {
    /// Creates the vfs over a fresh ramfs.
    ///
    /// The ids must match the image registry: `id` = vfscore,
    /// `ramfs_id` = ramfs, `time_id` = uktime.
    pub fn new(
        env: Rc<Env>,
        id: ComponentId,
        ramfs_id: ComponentId,
        time_id: ComponentId,
        time: Rc<TimeSubsystem>,
    ) -> Self {
        let ramfs = RamFs::new(Rc::clone(&env));
        Vfs {
            entries: VfsEntries::resolve(&env, id),
            ramfs_gates: RamfsEntries::resolve(&env, ramfs_id),
            time_wall: TimeEntries::resolve(&env, time_id).wall,
            env,
            ramfs: RefCell::new(ramfs),
            time,
            fds: RefCell::new(FdTable::new()),
            stats: Cell::new(VfsStats::default()),
        }
    }

    /// The component's gate entry points, resolved at construction time.
    pub fn entries(&self) -> &VfsEntries {
        &self.entries
    }

    /// Operation counters.
    pub fn stats(&self) -> VfsStats {
        self.stats.get()
    }

    /// Resets the operation counters (between benchmark phases).
    pub fn reset_stats(&self) {
        self.stats.set(VfsStats::default());
    }

    fn now_ns(&self) -> Result<u64, Fault> {
        // fs → time gate: the MPK3 crossing of Figure 10, through the
        // target resolved at construction.
        let time = Rc::clone(&self.time);
        self.env
            .call_resolved(self.time_wall, move || Ok(time.wall_ns()))
    }

    fn charge_op(&self) {
        self.env.compute(Work {
            cycles: OP_CYCLES,
            alu_ops: 10,
            frames: 2,
            mem_accesses: 6,
            ..Work::default()
        });
    }

    /// Opens (optionally creating) a file.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] for missing files without `create`, or
    /// exclusive creation of an existing file.
    pub fn open(&self, path: &str, flags: OpenFlags) -> Result<Fd, Fault> {
        self.charge_op();
        let norm = normalize(path);
        let exists = self.ramfs.borrow().exists(&norm);
        if !exists && !flags.create {
            return Err(Fault::InvalidConfig {
                reason: format!("no such file `{norm}`"),
            });
        }
        if exists && flags.create && flags.exclusive {
            return Err(Fault::InvalidConfig {
                reason: format!("file `{norm}` already exists"),
            });
        }
        if !exists || flags.truncate {
            let norm2 = norm.clone();
            self.env.call_resolved(self.ramfs_gates.create, || {
                self.ramfs.borrow_mut().create(&norm2, flags.truncate)
            })?;
        }
        let now = self.now_ns()?;
        self.ramfs.borrow_mut().touch(&norm, now, !exists);
        let fd = self.fds.borrow_mut().install(OpenFile {
            path: norm,
            offset: 0,
            flags,
        });
        let mut s = self.stats.get();
        s.opens += 1;
        self.stats.set(s);
        Ok(fd)
    }

    /// Closes a descriptor.
    ///
    /// # Errors
    ///
    /// Bad-descriptor faults.
    pub fn close(&self, fd: Fd) -> Result<(), Fault> {
        self.charge_op();
        self.fds.borrow_mut().close(fd)?;
        let mut s = self.stats.get();
        s.closes += 1;
        self.stats.set(s);
        Ok(())
    }

    /// Reads up to `len` bytes at the descriptor's offset.
    ///
    /// # Errors
    ///
    /// Bad-descriptor faults; memory faults crossing into the fs heap.
    pub fn read(&self, fd: Fd, len: u64) -> Result<Vec<u8>, Fault> {
        self.charge_op();
        let (path, offset) = {
            let fds = self.fds.borrow();
            let f = fds.get(fd)?;
            (f.path.clone(), f.offset)
        };
        let data = {
            let path = path.clone();
            self.env.call_resolved(self.ramfs_gates.read_block, || {
                self.ramfs.borrow_mut().read(&path, offset, len)
            })?
        };
        let now = self.now_ns()?;
        self.ramfs.borrow_mut().touch(&path, now, false);
        self.fds.borrow_mut().get_mut(fd)?.offset += data.len() as u64;
        let mut s = self.stats.get();
        s.reads += 1;
        self.stats.set(s);
        Ok(data)
    }

    /// Writes `data` at the descriptor's offset (or EOF with `append`).
    ///
    /// # Errors
    ///
    /// Bad-descriptor faults; heap exhaustion growing the file.
    pub fn write(&self, fd: Fd, data: &[u8]) -> Result<u64, Fault> {
        self.charge_op();
        let (path, mut offset, append) = {
            let fds = self.fds.borrow();
            let f = fds.get(fd)?;
            (f.path.clone(), f.offset, f.flags.append)
        };
        if append {
            offset = self.ramfs.borrow_mut().size(&path)?;
        }
        let written = {
            let path = path.clone();
            self.env.call_resolved(self.ramfs_gates.write_block, || {
                self.ramfs.borrow_mut().write(&path, offset, data)
            })?
        };
        let now = self.now_ns()?;
        self.ramfs.borrow_mut().touch(&path, now, true);
        self.fds.borrow_mut().get_mut(fd)?.offset = offset + written;
        let mut s = self.stats.get();
        s.writes += 1;
        self.stats.set(s);
        Ok(written)
    }

    /// Repositions a descriptor's offset.
    ///
    /// # Errors
    ///
    /// Bad-descriptor faults.
    pub fn lseek(&self, fd: Fd, offset: u64) -> Result<(), Fault> {
        self.charge_op();
        // Descriptor access bookkeeping goes through uktime like every
        // other vfs entry (the Figure 10 MPK3 fs->time crossing).
        let _ = self.now_ns()?;
        self.fds.borrow_mut().get_mut(fd)?.offset = offset;
        let mut s = self.stats.get();
        s.seeks += 1;
        self.stats.set(s);
        Ok(())
    }

    /// Flushes a file to "stable storage" (a write barrier in the
    /// simulation; the cost matters, the durability is inherent).
    ///
    /// # Errors
    ///
    /// Bad-descriptor faults.
    pub fn fsync(&self, fd: Fd) -> Result<(), Fault> {
        self.charge_op();
        self.env.compute(Work::cycles(SYNC_CYCLES));
        let path = self.fds.borrow().get(fd)?.path.clone();
        let now = self.now_ns()?;
        self.ramfs.borrow_mut().touch(&path, now, true);
        let mut s = self.stats.get();
        s.syncs += 1;
        self.stats.set(s);
        Ok(())
    }

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// Missing-path faults.
    pub fn unlink(&self, path: &str) -> Result<(), Fault> {
        self.charge_op();
        let norm = normalize(path);
        let norm2 = norm.clone();
        self.env.call_resolved(self.ramfs_gates.remove, || {
            self.ramfs.borrow_mut().remove(&norm2)
        })?;
        let _ = self.now_ns()?;
        let mut s = self.stats.get();
        s.unlinks += 1;
        self.stats.set(s);
        Ok(())
    }

    /// File metadata.
    ///
    /// # Errors
    ///
    /// Missing-path faults.
    pub fn stat(&self, path: &str) -> Result<FileStat, Fault> {
        self.charge_op();
        let norm = normalize(path);
        let size = {
            let norm = norm.clone();
            self.env.call_resolved(self.ramfs_gates.lookup, || {
                self.ramfs.borrow_mut().size(&norm)
            })?
        };
        let (mtime_ns, atime_ns) = self.ramfs.borrow().times(&norm)?;
        let mut s = self.stats.get();
        s.stats += 1;
        self.stats.set(s);
        Ok(FileStat {
            size,
            mtime_ns,
            atime_ns,
        })
    }
}
