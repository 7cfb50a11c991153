//! # flexos-fs — vfscore + ramfs, the filesystem components
//!
//! Unikraft's VFS layer and its RAM filesystem, ported to FlexOS (§4,
//! Table 1: +148/-37, 12 shared variables). The paper's §4.4 discussion
//! applies verbatim here: *ramfs is so deeply entangled with vfscore that
//! blindly isolating it alone would cost performance for little security*
//! — the two are separate components but meant to share a compartment,
//! and isolating the pair from the rest of the system is the Figure 10
//! "filesystem" scenario.
//!
//! File payloads live in simulated memory, allocated from the filesystem
//! compartment's heap, so a foreign compartment can neither read file
//! contents nor the VFS metadata without crossing a gate. Every vfs
//! operation timestamps through the `uktime` component, which is why the
//! Figure 10 MPK3 configuration (fs | time | rest) pays two crossings per
//! operation.

pub(crate) mod fd;
pub mod path;
pub(crate) mod ramfs;
pub(crate) mod vfs;

pub use fd::{Fd, OpenFlags};
pub use vfs::{Vfs, VfsEntries};

use flexos_core::prelude::*;

/// The component descriptor for vfscore (8 of the filesystem's 12 shared
/// variables; Table 1).
pub fn vfscore_component() -> Component {
    Component::new("vfscore", ComponentKind::Kernel)
        .with_shared_vars([
            SharedVar::stat("vfs_mount_table", 128, &["ramfs", "newlib"]),
            SharedVar::stat("vfs_root_vnode", 32, &["ramfs", "newlib"]),
            SharedVar::heap("vfs_path_scratch", 256, &["newlib"]),
            SharedVar::heap("vfs_io_bounce", 4096, &["newlib", "ramfs"]),
            SharedVar::stat("vfs_fd_bitmap", 16, &["newlib"]),
            SharedVar::stat("vfs_stat_cache", 64, &["newlib"]),
            SharedVar::stack("vfs_iov_tmp", 64, &["newlib"]),
            SharedVar::stat("vfs_sync_epoch", 8, &["ramfs"]),
        ])
        .with_entry_points(VfsEntries::NAMES)
        .with_patch(110, 25)
}

/// The component descriptor for ramfs (4 of the filesystem's 12 shared
/// variables; Table 1).
pub fn ramfs_component() -> Component {
    Component::new("ramfs", ComponentKind::Kernel)
        .with_shared_vars([
            SharedVar::stat("ramfs_super", 64, &["vfscore"]),
            SharedVar::heap("ramfs_block_dir", 512, &["vfscore"]),
            SharedVar::stat("ramfs_node_count", 8, &["vfscore"]),
            SharedVar::stat("ramfs_free_hint", 8, &["vfscore"]),
        ])
        .with_entry_points(ramfs::RamfsEntries::NAMES)
        .with_patch(38, 12)
}
