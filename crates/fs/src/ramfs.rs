//! The RAM filesystem: file payloads in simulated, key-protected memory.
//!
//! Each file is a chain of 4 KiB blocks allocated from the filesystem
//! compartment's private heap, so file contents are *physically*
//! unreachable from other compartments without a gate crossing — the
//! property the Figure 10 isolation scenarios rely on.

use std::collections::BTreeMap;
use std::rc::Rc;

use flexos_core::env::{Env, Work};
use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

/// Block size used for file payloads.
pub(crate) const BLOCK_SIZE: u64 = 4096;

/// One ramfs node (a regular file).
#[derive(Debug, Default)]
struct RamNode {
    blocks: Vec<Addr>,
    size: u64,
    mtime_ns: u64,
    atime_ns: u64,
}

/// The ramfs component state.
#[derive(Debug)]
pub(crate) struct RamFs {
    env: Rc<Env>,
    nodes: BTreeMap<String, RamNode>,
}

/// Per-block-op base cycles (directory walk, block chain chase).
const BLOCK_OP_CYCLES: u64 = 40;
const LOOKUP_CYCLES: u64 = 30;

flexos_core::entry_points! {
    /// ramfs's gate entry points, resolved once by the vfs.
    pub(crate) struct RamfsEntries {
        lookup: "ramfs_lookup",
        create: "ramfs_create",
        read_block: "ramfs_read_block",
        write_block: "ramfs_write_block",
        remove: "ramfs_remove",
        resize: "ramfs_resize",
    }
}

impl RamFs {
    /// Creates an empty filesystem.
    pub(crate) fn new(env: Rc<Env>) -> Self {
        RamFs {
            env,
            nodes: BTreeMap::new(),
        }
    }

    /// `true` if `path` names an existing file.
    pub(crate) fn exists(&self, path: &str) -> bool {
        self.nodes.contains_key(path)
    }

    /// Creates an empty file (truncates if it exists and `truncate`).
    ///
    /// # Errors
    ///
    /// Heap-exhaustion faults when freeing truncated blocks fails.
    pub(crate) fn create(&mut self, path: &str, truncate: bool) -> Result<(), Fault> {
        self.charge_lookup();
        if let Some(node) = self.nodes.get_mut(path) {
            if truncate {
                let blocks = std::mem::take(&mut node.blocks);
                node.size = 0;
                for b in blocks {
                    self.env.free(b)?;
                }
            }
            return Ok(());
        }
        self.nodes.insert(path.to_string(), RamNode::default());
        Ok(())
    }

    /// Removes a file and releases its blocks.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] when the path does not exist.
    pub(crate) fn remove(&mut self, path: &str) -> Result<(), Fault> {
        self.charge_lookup();
        let node = self
            .nodes
            .remove(path)
            .ok_or_else(|| Fault::InvalidConfig {
                reason: format!("no such file `{path}`"),
            })?;
        for b in node.blocks {
            self.env.free(b)?;
        }
        Ok(())
    }

    /// File size in bytes.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] when the path does not exist.
    pub(crate) fn size(&mut self, path: &str) -> Result<u64, Fault> {
        self.charge_lookup();
        self.nodes
            .get(path)
            .map(|n| n.size)
            .ok_or_else(|| Fault::InvalidConfig {
                reason: format!("no such file `{path}`"),
            })
    }

    /// `(mtime, atime)` nanoseconds.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] when the path does not exist.
    pub(crate) fn times(&self, path: &str) -> Result<(u64, u64), Fault> {
        self.nodes
            .get(path)
            .map(|n| (n.mtime_ns, n.atime_ns))
            .ok_or_else(|| Fault::InvalidConfig {
                reason: format!("no such file `{path}`"),
            })
    }

    /// Stamps modification/access times (the vfs obtains `now_ns` from the
    /// uktime component — a gate crossing in the MPK3 scenario).
    pub(crate) fn touch(&mut self, path: &str, now_ns: u64, modified: bool) {
        if let Some(node) = self.nodes.get_mut(path) {
            node.atime_ns = now_ns;
            if modified {
                node.mtime_ns = now_ns;
            }
        }
    }

    /// Reads up to `len` bytes at `offset`; short reads at EOF.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] for missing paths; memory faults if the
    /// current domain cannot read the filesystem heap.
    pub(crate) fn read(&mut self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, Fault> {
        self.charge_lookup();
        let node = self.nodes.get(path).ok_or_else(|| Fault::InvalidConfig {
            reason: format!("no such file `{path}`"),
        })?;
        if offset >= node.size {
            return Ok(Vec::new());
        }
        let want = len.min(node.size - offset);
        let mut out = Vec::with_capacity(want as usize);
        let mut cur = offset;
        let blocks: Vec<Addr> = node.blocks.clone();
        while (cur - offset) < want {
            let block_idx = (cur / BLOCK_SIZE) as usize;
            let block_off = cur % BLOCK_SIZE;
            let take = (BLOCK_SIZE - block_off).min(want - (cur - offset));
            let addr = blocks[block_idx] + block_off;
            let mut buf = vec![0u8; take as usize];
            self.env.mem_read(addr, &mut buf)?;
            out.extend_from_slice(&buf);
            self.charge_block_op();
            cur += take;
        }
        Ok(out)
    }

    /// Writes `data` at `offset`, growing the file as needed.
    ///
    /// # Errors
    ///
    /// Heap exhaustion growing the file; memory faults if the current
    /// domain cannot write the filesystem heap.
    pub(crate) fn write(&mut self, path: &str, offset: u64, data: &[u8]) -> Result<u64, Fault> {
        self.charge_lookup();
        if !self.nodes.contains_key(path) {
            return Err(Fault::InvalidConfig {
                reason: format!("no such file `{path}`"),
            });
        }
        let end = offset + data.len() as u64;
        // Grow the block chain first (may allocate).
        let blocks_needed = (end.div_ceil(BLOCK_SIZE)) as usize;
        let mut new_blocks = Vec::new();
        {
            let node = self.nodes.get(path).expect("checked above");
            for _ in node.blocks.len()..blocks_needed {
                new_blocks.push(self.env.malloc(BLOCK_SIZE)?);
            }
        }
        let node = self.nodes.get_mut(path).expect("checked above");
        node.blocks.extend(new_blocks);
        let blocks = node.blocks.clone();
        node.size = node.size.max(end);

        let mut cur = offset;
        let mut written = 0usize;
        while written < data.len() {
            let block_idx = (cur / BLOCK_SIZE) as usize;
            let block_off = cur % BLOCK_SIZE;
            let take = ((BLOCK_SIZE - block_off) as usize).min(data.len() - written);
            let addr = blocks[block_idx] + block_off;
            self.env.mem_write(addr, &data[written..written + take])?;
            self.charge_block_op();
            cur += take as u64;
            written += take;
        }
        Ok(data.len() as u64)
    }

    fn charge_block_op(&mut self) {
        self.env.compute(Work {
            cycles: BLOCK_OP_CYCLES,
            alu_ops: 6,
            frames: 1,
            mem_accesses: 4,
            ..Work::default()
        });
    }

    fn charge_lookup(&self) {
        self.env.compute(Work {
            cycles: LOOKUP_CYCLES,
            alu_ops: 8,
            frames: 1,
            mem_accesses: 3,
            ..Work::default()
        });
    }
}
