//! B+tree over pager pages, keyed by rowid.
//!
//! Page layout (512-byte pages):
//!
//! * leaf: `[1u8][cell_count u16]` then cells `[rowid i64][len u16][payload]`;
//! * interior: `[2u8][entry_count u16]` then entries
//!   `[child u32][max_rowid i64]`, children in ascending rowid order.
//!
//! Sequential INSERTs (the Figure 10 workload) append to the rightmost
//! leaf and split rightwards, touching `O(height)` pages per transaction
//! — each touch a journaled page and a handful of vfs crossings.

use flexos_machine::fault::Fault;

use super::pager::{Pager, PAGE_SIZE};

const LEAF: u8 = 1;
const INTERIOR: u8 = 2;
const HDR: usize = 3;
const INTERIOR_ENTRY: usize = 12;

/// One stored row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowRecord {
    /// The row's key.
    pub rowid: i64,
    /// Serialized row payload.
    pub payload: Vec<u8>,
}

fn cell_size(payload_len: usize) -> usize {
    8 + 2 + payload_len
}

fn read_u16(page: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([page[at], page[at + 1]])
}

fn write_u16(page: &mut [u8], at: usize, v: u16) {
    page[at..at + 2].copy_from_slice(&v.to_be_bytes());
}

fn read_i64(page: &[u8], at: usize) -> i64 {
    i64::from_be_bytes(page[at..at + 8].try_into().expect("8 bytes"))
}

fn read_u32(page: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(page[at..at + 4].try_into().expect("4 bytes"))
}

/// Parses the cells of a leaf page.
fn leaf_cells(page: &[u8]) -> Vec<RowRecord> {
    let n = read_u16(page, 1) as usize;
    let mut cells = Vec::with_capacity(n);
    let mut at = HDR;
    for _ in 0..n {
        let rowid = read_i64(page, at);
        let len = read_u16(page, at + 8) as usize;
        cells.push(RowRecord {
            rowid,
            payload: page[at + 10..at + 10 + len].to_vec(),
        });
        at += cell_size(len);
    }
    cells
}

fn write_leaf(cells: &[RowRecord]) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    page[0] = LEAF;
    write_u16(&mut page, 1, cells.len() as u16);
    let mut at = HDR;
    for cell in cells {
        page[at..at + 8].copy_from_slice(&cell.rowid.to_be_bytes());
        write_u16(&mut page, at + 8, cell.payload.len() as u16);
        page[at + 10..at + 10 + cell.payload.len()].copy_from_slice(&cell.payload);
        at += cell_size(cell.payload.len());
    }
    page
}

fn interior_entries(page: &[u8]) -> Vec<(u32, i64)> {
    let n = read_u16(page, 1) as usize;
    (0..n)
        .map(|i| {
            let at = HDR + i * INTERIOR_ENTRY;
            (read_u32(page, at), read_i64(page, at + 4))
        })
        .collect()
}

fn write_interior(entries: &[(u32, i64)]) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    page[0] = INTERIOR;
    write_u16(&mut page, 1, entries.len() as u16);
    for (i, (child, max)) in entries.iter().enumerate() {
        let at = HDR + i * INTERIOR_ENTRY;
        page[at..at + 4].copy_from_slice(&child.to_be_bytes());
        page[at + 4..at + 12].copy_from_slice(&max.to_be_bytes());
    }
    page
}

fn leaf_bytes(cells: &[RowRecord]) -> usize {
    HDR + cells
        .iter()
        .map(|c| cell_size(c.payload.len()))
        .sum::<usize>()
}

/// The B+tree handle: a root page number inside a pager.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BTree {
    /// Root page number.
    pub root: u32,
}

/// Result of an insert: the (possibly new) root.
pub(crate) struct InsertOutcome {
    /// New root page (differs from the old one after a root split).
    pub root: u32,
}

impl BTree {
    /// Creates an empty tree (one empty leaf).
    ///
    /// # Errors
    ///
    /// Pager faults.
    pub(crate) fn create(pager: &mut Pager) -> Result<BTree, Fault> {
        let root = pager.append_page()?;
        pager.write_page(root, write_leaf(&[]))?;
        Ok(BTree { root })
    }

    /// Inserts `(rowid, payload)`; splits as needed.
    ///
    /// # Errors
    ///
    /// Pager faults; oversized payloads.
    pub(crate) fn insert(
        &self,
        pager: &mut Pager,
        rowid: i64,
        payload: &[u8],
    ) -> Result<InsertOutcome, Fault> {
        if cell_size(payload.len()) > PAGE_SIZE - HDR {
            return Err(Fault::InvalidConfig {
                reason: format!("row of {} bytes exceeds page capacity", payload.len()),
            });
        }
        match self.insert_into(pager, self.root, rowid, payload)? {
            None => Ok(InsertOutcome { root: self.root }),
            Some((new_page, new_max)) => {
                // Root split: build a new root over old root + new page.
                let old_root_max = max_rowid(pager, self.root)?;
                let new_root = pager.append_page()?;
                pager.write_page(
                    new_root,
                    write_interior(&[(self.root, old_root_max), (new_page, new_max)]),
                )?;
                Ok(InsertOutcome { root: new_root })
            }
        }
    }

    /// Recursive insert; returns `Some((new_right_sibling, its_max))` when
    /// the child split.
    fn insert_into(
        &self,
        pager: &mut Pager,
        pgno: u32,
        rowid: i64,
        payload: &[u8],
    ) -> Result<Option<(u32, i64)>, Fault> {
        let page = pager.read_page(pgno)?;
        match page[0] {
            LEAF => {
                let mut cells = leaf_cells(&page);
                let pos = cells.partition_point(|c| c.rowid < rowid);
                if cells.get(pos).map(|c| c.rowid) == Some(rowid) {
                    return Err(Fault::InvalidConfig {
                        reason: format!("duplicate rowid {rowid}"),
                    });
                }
                cells.insert(
                    pos,
                    RowRecord {
                        rowid,
                        payload: payload.to_vec(),
                    },
                );
                if leaf_bytes(&cells) <= PAGE_SIZE {
                    pager.write_page(pgno, write_leaf(&cells))?;
                    return Ok(None);
                }
                // Split: left half stays, right half moves to a new page.
                let mid = cells.len() / 2;
                let right: Vec<RowRecord> = cells.split_off(mid);
                let right_max = right.last().expect("non-empty right").rowid;
                let new_pgno = pager.append_page()?;
                pager.write_page(pgno, write_leaf(&cells))?;
                pager.write_page(new_pgno, write_leaf(&right))?;
                Ok(Some((new_pgno, right_max)))
            }
            INTERIOR => {
                let mut entries = interior_entries(&page);
                let idx = entries
                    .iter()
                    .position(|&(_, max)| rowid <= max)
                    .unwrap_or(entries.len() - 1);
                let child = entries[idx].0;
                let split = self.insert_into(pager, child, rowid, payload)?;
                // Keep the separator key fresh for rightmost growth.
                entries[idx].1 = entries[idx].1.max(rowid);
                if let Some((new_child, new_max)) = split {
                    entries[idx].1 = max_rowid(pager, child)?;
                    entries.insert(idx + 1, (new_child, new_max));
                }
                if HDR + entries.len() * INTERIOR_ENTRY <= PAGE_SIZE {
                    pager.write_page(pgno, write_interior(&entries))?;
                    return Ok(None);
                }
                let mid = entries.len() / 2;
                let right: Vec<(u32, i64)> = entries.split_off(mid);
                let right_max = right.last().expect("non-empty").1;
                let new_pgno = pager.append_page()?;
                pager.write_page(pgno, write_interior(&entries))?;
                pager.write_page(new_pgno, write_interior(&right))?;
                Ok(Some((new_pgno, right_max)))
            }
            other => Err(Fault::InvalidConfig {
                reason: format!("corrupt b-tree page type {other}"),
            }),
        }
    }

    /// Point lookup by rowid.
    ///
    /// # Errors
    ///
    /// Pager faults; corrupt pages.
    pub(crate) fn lookup(&self, pager: &mut Pager, rowid: i64) -> Result<Option<Vec<u8>>, Fault> {
        let mut pgno = self.root;
        loop {
            let page = pager.read_page(pgno)?;
            match page[0] {
                LEAF => {
                    return Ok(leaf_cells(&page)
                        .into_iter()
                        .find(|c| c.rowid == rowid)
                        .map(|c| c.payload));
                }
                INTERIOR => {
                    let entries = interior_entries(&page);
                    pgno = entries
                        .iter()
                        .find(|&&(_, max)| rowid <= max)
                        .map(|&(child, _)| child)
                        .unwrap_or_else(|| entries.last().expect("non-empty").0);
                }
                other => {
                    return Err(Fault::InvalidConfig {
                        reason: format!("corrupt b-tree page type {other}"),
                    })
                }
            }
        }
    }

    /// Full scan in rowid order.
    ///
    /// # Errors
    ///
    /// Pager faults; corrupt pages.
    pub(crate) fn scan(&self, pager: &mut Pager) -> Result<Vec<RowRecord>, Fault> {
        let mut out = Vec::new();
        self.scan_into(pager, self.root, &mut out)?;
        Ok(out)
    }

    fn scan_into(
        &self,
        pager: &mut Pager,
        pgno: u32,
        out: &mut Vec<RowRecord>,
    ) -> Result<(), Fault> {
        let page = pager.read_page(pgno)?;
        match page[0] {
            LEAF => {
                out.extend(leaf_cells(&page));
                Ok(())
            }
            INTERIOR => {
                for (child, _) in interior_entries(&page) {
                    self.scan_into(pager, child, out)?;
                }
                Ok(())
            }
            other => Err(Fault::InvalidConfig {
                reason: format!("corrupt b-tree page type {other}"),
            }),
        }
    }

    /// Deletes a rowid; `true` if it existed. (No rebalancing — SQLite
    /// also leaves underfull pages until vacuum.)
    ///
    /// # Errors
    ///
    /// Pager faults; corrupt pages.
    pub(crate) fn delete(&self, pager: &mut Pager, rowid: i64) -> Result<bool, Fault> {
        let mut pgno = self.root;
        loop {
            let page = pager.read_page(pgno)?;
            match page[0] {
                LEAF => {
                    let mut cells = leaf_cells(&page);
                    let before = cells.len();
                    cells.retain(|c| c.rowid != rowid);
                    let found = cells.len() != before;
                    if found {
                        pager.write_page(pgno, write_leaf(&cells))?;
                    }
                    return Ok(found);
                }
                INTERIOR => {
                    let entries = interior_entries(&page);
                    pgno = entries
                        .iter()
                        .find(|&&(_, max)| rowid <= max)
                        .map(|&(child, _)| child)
                        .unwrap_or_else(|| entries.last().expect("non-empty").0);
                }
                other => {
                    return Err(Fault::InvalidConfig {
                        reason: format!("corrupt b-tree page type {other}"),
                    })
                }
            }
        }
    }
}

fn max_rowid(pager: &mut Pager, pgno: u32) -> Result<i64, Fault> {
    let page = pager.read_page(pgno)?;
    match page[0] {
        LEAF => Ok(leaf_cells(&page)
            .last()
            .map(|c| c.rowid)
            .unwrap_or(i64::MIN)),
        INTERIOR => Ok(interior_entries(&page).last().expect("non-empty").1),
        _ => Err(Fault::InvalidConfig {
            reason: "corrupt b-tree page".to_string(),
        }),
    }
}
