//! File descriptors and the per-image descriptor table.

use std::fmt;

use flexos_machine::fault::Fault;

/// A file descriptor handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(pub u32);

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// Open flags (a subset of POSIX `open(2)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Create the file if it does not exist.
    pub create: bool,
    /// Truncate to zero length on open.
    pub truncate: bool,
    /// Position every write at end of file.
    pub append: bool,
    /// Fail if `create` and the file already exists.
    pub exclusive: bool,
}

impl OpenFlags {
    /// Create-or-truncate for writing (`O_CREAT|O_TRUNC`).
    pub const CREATE: OpenFlags = OpenFlags {
        create: true,
        truncate: true,
        append: false,
        exclusive: false,
    };

    /// Create-or-open without truncation (`O_CREAT`).
    pub const CREATE_KEEP: OpenFlags = OpenFlags {
        create: true,
        truncate: false,
        append: false,
        exclusive: false,
    };
}

/// State behind one open descriptor.
#[derive(Debug, Clone)]
pub(crate) struct OpenFile {
    /// Normalized path of the file.
    pub path: String,
    /// Current offset.
    pub offset: u64,
    /// Flags the file was opened with.
    pub flags: OpenFlags,
}

/// The descriptor table.
#[derive(Debug, Default)]
pub(crate) struct FdTable {
    slots: Vec<Option<OpenFile>>,
}

impl FdTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Installs an open file, returning its descriptor (lowest free slot,
    /// as POSIX requires).
    pub(crate) fn install(&mut self, file: OpenFile) -> Fd {
        if let Some(idx) = self.slots.iter().position(Option::is_none) {
            self.slots[idx] = Some(file);
            Fd(idx as u32)
        } else {
            self.slots.push(Some(file));
            Fd((self.slots.len() - 1) as u32)
        }
    }

    /// Looks up a descriptor.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] for closed or never-opened descriptors
    /// (the vfs maps this to `EBADF`).
    pub(crate) fn get(&self, fd: Fd) -> Result<&OpenFile, Fault> {
        self.slots
            .get(fd.0 as usize)
            .and_then(Option::as_ref)
            .ok_or_else(|| Fault::InvalidConfig {
                reason: format!("bad file descriptor {fd}"),
            })
    }

    /// Mutable lookup.
    ///
    /// # Errors
    ///
    /// Same as [`FdTable::get`].
    pub(crate) fn get_mut(&mut self, fd: Fd) -> Result<&mut OpenFile, Fault> {
        self.slots
            .get_mut(fd.0 as usize)
            .and_then(Option::as_mut)
            .ok_or_else(|| Fault::InvalidConfig {
                reason: format!("bad file descriptor {fd}"),
            })
    }

    /// Closes a descriptor.
    ///
    /// # Errors
    ///
    /// Same as [`FdTable::get`].
    pub(crate) fn close(&mut self, fd: Fd) -> Result<OpenFile, Fault> {
        self.slots
            .get_mut(fd.0 as usize)
            .and_then(Option::take)
            .ok_or_else(|| Fault::InvalidConfig {
                reason: format!("bad file descriptor {fd}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str) -> OpenFile {
        OpenFile {
            path: path.into(),
            offset: 0,
            flags: OpenFlags::CREATE_KEEP,
        }
    }

    #[test]
    fn descriptors_reuse_lowest_slot() {
        let mut t = FdTable::new();
        let a = t.install(file("/a"));
        let b = t.install(file("/b"));
        assert_eq!((a, b), (Fd(0), Fd(1)));
        t.close(a).unwrap();
        let c = t.install(file("/c"));
        assert_eq!(c, Fd(0), "lowest free slot is reused (POSIX)");
        assert!(t.get(b).is_ok() && t.get(c).is_ok());
    }

    #[test]
    fn closed_fd_is_bad() {
        let mut t = FdTable::new();
        let a = t.install(file("/a"));
        t.close(a).unwrap();
        assert!(t.get(a).is_err());
        assert!(t.close(a).is_err());
        assert!(t.get(Fd(99)).is_err());
    }

    #[test]
    fn offsets_are_mutable() {
        let mut t = FdTable::new();
        let a = t.install(file("/a"));
        t.get_mut(a).unwrap().offset = 512;
        assert_eq!(t.get(a).unwrap().offset, 512);
    }
}
