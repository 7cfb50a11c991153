//! The pager: page-granular file access with a rollback journal.
//!
//! Faithful to SQLite's rollback-journal protocol with `synchronous=FULL`
//! — the configuration behind Figure 10's "each query in a separate
//! transaction, to increase pressure on the filesystem":
//!
//! 1. txn begin: hot-journal check (stat), db change-counter read;
//! 2. first modification of each page: journal record = page number +
//!    original image + checksum (three writes, like SQLite's format);
//! 3. commit: journal header record-count update + fsync, dirty pages
//!    written back, change counter bumped, db fsync, journal deleted.
//!
//! Every operation goes through the libc wrapper (`open/read/write/lseek/
//! fsync/unlink/stat`), i.e. one vfs gate crossing each — these calls are
//! the crossing counts the whole Figure 10 decomposition rides on.
//! SQLite's byte-range locks don't exist on Unikraft's vfscore; like the
//! paper's port we emulate the lock-state probes with stat calls.

use std::collections::BTreeMap;
use std::rc::Rc;

use flexos_fs::{Fd, OpenFlags};
use flexos_libc::Newlib;
use flexos_machine::fault::Fault;

/// Page size. SQLite's minimum (512) keeps per-transaction page counts —
/// and therefore vfs-crossing counts — high, which is the point of the
/// Figure 10 workload.
pub(crate) const PAGE_SIZE: usize = 512;

/// The pager.
pub(crate) struct Pager {
    libc: Rc<Newlib>,
    db_path: String,
    journal_path: String,
    db_fd: Fd,
    /// Page cache; deliberately cleared at commit (the workload's
    /// "pressure on the filesystem").
    cache: BTreeMap<u32, Vec<u8>>,
    /// Pages dirtied by the open transaction.
    dirty: BTreeMap<u32, Vec<u8>>,
    /// Original images journaled this transaction.
    journaled: BTreeMap<u32, Vec<u8>>,
    journal_fd: Option<Fd>,
    in_txn: bool,
    page_count: u32,
    /// Transactions committed (the change counter written to page 0).
    commits: u64,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("db", &self.db_path)
            .field("pages", &self.page_count)
            .finish()
    }
}

impl Pager {
    /// Opens (creating if needed) the database file.
    ///
    /// # Errors
    ///
    /// VFS faults.
    pub(crate) fn open(libc: Rc<Newlib>, db_path: &str) -> Result<Pager, Fault> {
        let db_fd = libc.open(db_path, OpenFlags::CREATE_KEEP)?;
        let size = libc.file_size(db_path)?;
        // Page 0 is the database header (magic, change counter, schema
        // cookie) — exactly like SQLite's page 1; B-tree pages start at 1.
        let page_count = ((size as usize / PAGE_SIZE) as u32).max(1);
        Ok(Pager {
            libc,
            db_path: db_path.to_string(),
            journal_path: format!("{db_path}-journal"),
            db_fd,
            cache: BTreeMap::new(),
            dirty: BTreeMap::new(),
            journaled: BTreeMap::new(),
            journal_fd: None,
            in_txn: false,
            page_count,
            commits: 0,
        })
    }

    /// Begins a transaction: hot-journal check + lock-state probes.
    ///
    /// # Errors
    ///
    /// VFS faults; nested-transaction misuse.
    pub(crate) fn begin(&mut self) -> Result<(), Fault> {
        if self.in_txn {
            return Err(Fault::InvalidConfig {
                reason: "pager: nested transaction".to_string(),
            });
        }
        // Hot-journal check: does a journal exist from a crashed txn?
        // (stat on the journal path; its absence is the normal case.)
        let _ = self.libc.file_size(&self.journal_path);
        // SHARED lock probe (stat emulation; see module docs).
        let _ = self.libc.file_size(&self.db_path)?;
        self.in_txn = true;
        Ok(())
    }

    fn ensure_journal(&mut self) -> Result<Fd, Fault> {
        if let Some(fd) = self.journal_fd {
            return Ok(fd);
        }
        let fd = self.libc.open(&self.journal_path, OpenFlags::CREATE)?;
        // Journal file header (magic + page size + initial nRec=0), like
        // SQLite's 28-byte header padded to a sector.
        let mut header = vec![0u8; 28];
        header[..8].copy_from_slice(b"\xd9\xd5\x05\xf9\x20\xa1\x63\xd7");
        header[8..12].copy_from_slice(&0u32.to_be_bytes()); // nRec
        header[12..16].copy_from_slice(&(PAGE_SIZE as u32).to_be_bytes());
        self.libc.write(fd, &header)?;
        self.journal_fd = Some(fd);
        Ok(fd)
    }

    /// Reads page `pgno` (0-based), from cache or the vfs.
    ///
    /// # Errors
    ///
    /// VFS faults.
    pub(crate) fn read_page(&mut self, pgno: u32) -> Result<Vec<u8>, Fault> {
        if let Some(p) = self.dirty.get(&pgno) {
            return Ok(p.clone());
        }
        if let Some(p) = self.cache.get(&pgno) {
            return Ok(p.clone());
        }
        // RESERVED-lock probe before touching the file (lock emulation).
        let _ = self.libc.file_size(&self.db_path)?;
        // newlib emulates pread as lseek + read + lseek-restore.
        self.libc
            .lseek(self.db_fd, pgno as u64 * PAGE_SIZE as u64)?;
        let mut data = self.libc.read(self.db_fd, PAGE_SIZE as u64)?;
        self.libc.lseek(self.db_fd, 0)?;
        data.resize(PAGE_SIZE, 0);
        self.cache.insert(pgno, data.clone());
        Ok(data)
    }

    /// Writes page `pgno` within the open transaction, journaling its
    /// original image first (rollback protocol).
    ///
    /// # Errors
    ///
    /// VFS faults; writing outside a transaction.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page.
    pub(crate) fn write_page(&mut self, pgno: u32, data: Vec<u8>) -> Result<(), Fault> {
        assert_eq!(data.len(), PAGE_SIZE, "page-sized writes only");
        if !self.in_txn {
            return Err(Fault::InvalidConfig {
                reason: "pager: write outside transaction".to_string(),
            });
        }
        if !self.journaled.contains_key(&pgno) && pgno < self.page_count {
            let original = self.read_page(pgno)?;
            let fd = self.ensure_journal()?;
            // Journal record: pgno + original image + checksum — three
            // writes, matching SQLite's journal format.
            self.libc.write(fd, &pgno.to_be_bytes())?;
            self.libc.write(fd, &original)?;
            let cksum: u32 = original.iter().map(|&b| b as u32).sum();
            self.libc.write(fd, &cksum.to_be_bytes())?;
            self.journaled.insert(pgno, original);
        }
        self.page_count = self.page_count.max(pgno + 1);
        self.dirty.insert(pgno, data);
        Ok(())
    }

    /// Allocates a fresh page at the end of the file.
    ///
    /// # Errors
    ///
    /// VFS faults (via the eventual write-back).
    pub(crate) fn append_page(&mut self) -> Result<u32, Fault> {
        let pgno = self.page_count;
        self.page_count += 1;
        self.dirty.insert(pgno, vec![0u8; PAGE_SIZE]);
        Ok(pgno)
    }

    /// Commits: journal finalize + sync, dirty write-back, change counter,
    /// db sync, journal delete (`synchronous=FULL` ordering).
    ///
    /// # Errors
    ///
    /// VFS faults; committing outside a transaction.
    pub(crate) fn commit(&mut self) -> Result<(), Fault> {
        if !self.in_txn {
            return Err(Fault::InvalidConfig {
                reason: "pager: commit outside transaction".to_string(),
            });
        }
        if let Some(journal_fd) = self.journal_fd {
            // Finalize the journal header's record count, then barrier.
            self.libc.lseek(journal_fd, 8)?;
            self.libc
                .write(journal_fd, &(self.journaled.len() as u32).to_be_bytes())?;
            self.libc.fsync(journal_fd)?;
        }
        // EXCLUSIVE-lock probe before touching the main db.
        let _ = self.libc.file_size(&self.db_path)?;
        let dirty = std::mem::take(&mut self.dirty);
        for (pgno, data) in &dirty {
            // newlib pwrite emulation: lseek + write + lseek-restore.
            self.libc
                .lseek(self.db_fd, *pgno as u64 * PAGE_SIZE as u64)?;
            self.libc.write(self.db_fd, data)?;
            self.libc.lseek(self.db_fd, 0)?;
        }
        // Change counter on page 0 (SQLite bumps bytes 24..28 of page 1).
        self.libc.lseek(self.db_fd, 24)?;
        self.libc.write(self.db_fd, &self.commits.to_be_bytes())?;
        self.libc.fsync(self.db_fd)?;
        // Retire the journal.
        if let Some(journal_fd) = self.journal_fd.take() {
            self.libc.close(journal_fd)?;
            self.libc.unlink(&self.journal_path)?;
        }
        self.journaled.clear();
        // The workload's "pressure" mode: cold cache every txn.
        self.cache.clear();
        self.in_txn = false;
        self.commits += 1;
        Ok(())
    }

    /// Rolls back: restores journaled originals and drops the journal.
    ///
    /// # Errors
    ///
    /// VFS faults.
    pub(crate) fn rollback(&mut self) -> Result<(), Fault> {
        let journaled = std::mem::take(&mut self.journaled);
        for (pgno, original) in journaled {
            self.libc
                .lseek(self.db_fd, pgno as u64 * PAGE_SIZE as u64)?;
            self.libc.write(self.db_fd, &original)?;
        }
        if let Some(journal_fd) = self.journal_fd.take() {
            self.libc.close(journal_fd)?;
            self.libc.unlink(&self.journal_path)?;
        }
        self.dirty.clear();
        self.cache.clear();
        // Recompute the authoritative page count from the file (the
        // header page is always reserved).
        let size = self.libc.file_size(&self.db_path)?;
        self.page_count = ((size as usize / PAGE_SIZE) as u32).max(1);
        self.in_txn = false;
        Ok(())
    }
}
