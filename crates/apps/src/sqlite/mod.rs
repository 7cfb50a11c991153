//! The SQLite port: SQL → B-tree → pager → rollback journal → vfs (§6.4).
//!
//! The Figure 10 benchmark runs 5000 `INSERT`s, each in its own
//! transaction, "to increase pressure on the filesystem": every statement
//! pays the full journal protocol, and every journal/page operation is a
//! vfs gate crossing (plus one fs→time crossing inside vfscore). The
//! isolation scenarios then price those crossings with MPK gates (MPK3),
//! EPT RPCs (EPT2), syscalls (Linux), microkernel IPC (seL4/Genode), or
//! `pkey_mprotect` transitions (CubicleOS).

pub(crate) mod btree;
pub(crate) mod pager;
pub mod sql;

use std::cell::RefCell;
use std::rc::Rc;

use flexos_core::component::ComponentId;
use flexos_core::env::{Env, Work};
use flexos_libc::Newlib;
use flexos_machine::fault::Fault;

use btree::BTree;
use pager::Pager;
use sql::{Stmt, Value};

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Rows returned by SELECT.
    pub rows: Vec<Vec<Value>>,
    /// COUNT(*) result, if the statement was a count.
    pub count: Option<u64>,
    /// Rows inserted/deleted.
    pub changes: u64,
}

impl ExecResult {
    fn none() -> ExecResult {
        ExecResult {
            rows: Vec::new(),
            count: None,
            changes: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct TableInfo {
    name: String,
    tree: BTree,
    next_rowid: i64,
}

/// The SQLite engine component.
pub struct Sqlite {
    env: Rc<Env>,
    id: ComponentId,
    pager: RefCell<Pager>,
    tables: RefCell<Vec<TableInfo>>,
    explicit_txn: RefCell<bool>,
}

impl std::fmt::Debug for Sqlite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sqlite")
            .field("tables", &self.tables.borrow().len())
            .finish()
    }
}

impl Sqlite {
    /// Opens a database at `db_path` (`id` must be the sqlite component's
    /// id in the image).
    ///
    /// # Errors
    ///
    /// VFS faults.
    pub(crate) fn open(
        env: Rc<Env>,
        id: ComponentId,
        libc: Rc<Newlib>,
        db_path: &str,
    ) -> Result<Sqlite, Fault> {
        let pager = env.run_as(id, || Pager::open(libc, db_path))?;
        Ok(Sqlite {
            env,
            id,
            pager: RefCell::new(pager),
            tables: RefCell::new(Vec::new()),
            explicit_txn: RefCell::new(false),
        })
    }

    /// Parses and executes one SQL statement (autocommit unless inside an
    /// explicit `BEGIN`).
    ///
    /// # Errors
    ///
    /// Parse errors, constraint violations, and substrate faults.
    pub fn exec(&self, sql: &str) -> Result<ExecResult, Fault> {
        self.env.run_as(self.id, || self.exec_inner(sql))
    }

    fn exec_inner(&self, sql: &str) -> Result<ExecResult, Fault> {
        // Parse cost: sqlite3_prepare allocates a parse tree, walks the
        // Lemon grammar and generates a VDBE program — charge per
        // token-ish byte plus the codegen.
        self.env.compute(Work {
            cycles: 4_900 + 8 * sql.len() as u64,
            alu_ops: 400 + 3 * sql.len() as u64,
            frames: 80,
            indirect_calls: 24,
            mem_accesses: 300 + 2 * sql.len() as u64,
        });
        // Statement-lifetime allocations: token array, parse-tree nodes,
        // the VDBE program, a cell buffer — real sqlite churns its
        // allocator per statement (the Figure 10 TLSF-vs-Lea lever).
        let mut stmt_allocs = Vec::with_capacity(8);
        for size in [256u64, 128, 512, 192, 96, 384, 64, 160] {
            stmt_allocs.push(self.env.malloc(size)?);
        }
        let release = |env: &Rc<Env>, allocs: &[flexos_machine::addr::Addr]| {
            for &a in allocs {
                let _ = env.free(a);
            }
        };
        let stmt = match sql::parse(sql) {
            Ok(stmt) => stmt,
            Err(e) => {
                release(&self.env, &stmt_allocs);
                return Err(e);
            }
        };

        let result = match stmt {
            Stmt::Begin => {
                self.pager.borrow_mut().begin()?;
                *self.explicit_txn.borrow_mut() = true;
                Ok(ExecResult::none())
            }
            Stmt::Commit => {
                self.pager.borrow_mut().commit()?;
                *self.explicit_txn.borrow_mut() = false;
                Ok(ExecResult::none())
            }
            Stmt::CreateTable { name, .. } => self.autocommit(|this| {
                if this.find_table(&name).is_some() {
                    return Err(Fault::InvalidConfig {
                        reason: format!("table `{name}` already exists"),
                    });
                }
                let tree = BTree::create(&mut this.pager.borrow_mut())?;
                this.tables.borrow_mut().push(TableInfo {
                    name,
                    tree,
                    next_rowid: 1,
                });
                Ok(ExecResult::none())
            }),
            Stmt::Insert { table, values } => self.autocommit(|this| {
                let idx = this.require_table(&table)?;
                let payload = encode_row(&values);
                // VDBE execution: opcode dispatch, record serialization,
                // cursor positioning — the bulk of sqlite3_step.
                this.env.compute(Work {
                    cycles: 4_300 + 120 * values.len() as u64,
                    alu_ops: 500,
                    frames: 60,
                    indirect_calls: 10 + 2 * values.len() as u64,
                    mem_accesses: 420,
                });
                let (rowid, tree) = {
                    let tables = this.tables.borrow();
                    (tables[idx].next_rowid, tables[idx].tree)
                };
                let outcome = tree.insert(&mut this.pager.borrow_mut(), rowid, &payload)?;
                let mut tables = this.tables.borrow_mut();
                tables[idx].next_rowid += 1;
                tables[idx].tree = BTree { root: outcome.root };
                Ok(ExecResult {
                    changes: 1,
                    ..ExecResult::none()
                })
            }),
            Stmt::Select {
                table,
                count,
                rowid,
            } => self.autocommit(|this| {
                let idx = this.require_table(&table)?;
                let tree = this.tables.borrow()[idx].tree;
                if count {
                    let rows = tree.scan(&mut this.pager.borrow_mut())?;
                    return Ok(ExecResult {
                        count: Some(rows.len() as u64),
                        ..ExecResult::none()
                    });
                }
                let rows = match rowid {
                    Some(id) => tree
                        .lookup(&mut this.pager.borrow_mut(), id)?
                        .map(|p| vec![p])
                        .unwrap_or_default(),
                    None => tree
                        .scan(&mut this.pager.borrow_mut())?
                        .into_iter()
                        .map(|r| r.payload)
                        .collect(),
                };
                let decoded = rows
                    .iter()
                    .map(|p| decode_row(p))
                    .collect::<Result<Vec<_>, Fault>>()?;
                Ok(ExecResult {
                    rows: decoded,
                    ..ExecResult::none()
                })
            }),
            Stmt::Delete { table, rowid } => self.autocommit(|this| {
                let idx = this.require_table(&table)?;
                let tree = this.tables.borrow()[idx].tree;
                let existed = tree.delete(&mut this.pager.borrow_mut(), rowid)?;
                Ok(ExecResult {
                    changes: existed as u64,
                    ..ExecResult::none()
                })
            }),
        };
        release(&self.env, &stmt_allocs);
        result
    }

    fn autocommit<R>(&self, f: impl FnOnce(&Self) -> Result<R, Fault>) -> Result<R, Fault> {
        let explicit = *self.explicit_txn.borrow();
        if !explicit {
            self.pager.borrow_mut().begin()?;
        }
        match f(self) {
            Ok(out) => {
                if !explicit {
                    self.pager.borrow_mut().commit()?;
                }
                Ok(out)
            }
            Err(e) => {
                if !explicit {
                    self.pager.borrow_mut().rollback()?;
                }
                Err(e)
            }
        }
    }

    fn find_table(&self, name: &str) -> Option<usize> {
        self.tables.borrow().iter().position(|t| t.name == name)
    }

    fn require_table(&self, name: &str) -> Result<usize, Fault> {
        self.find_table(name).ok_or_else(|| Fault::InvalidConfig {
            reason: format!("no such table `{name}`"),
        })
    }
}

/// Serializes a row: `[ncols u8]` then per column `[tag u8][data]`.
fn encode_row(values: &[Value]) -> Vec<u8> {
    let mut out = vec![values.len() as u8];
    for v in values {
        match v {
            Value::Int(n) => {
                out.push(1);
                out.extend_from_slice(&n.to_be_bytes());
            }
            Value::Text(s) => {
                out.push(2);
                out.extend_from_slice(&(s.len() as u16).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
    out
}

/// Inverse of [`encode_row`].
fn decode_row(payload: &[u8]) -> Result<Vec<Value>, Fault> {
    let corrupt = || Fault::InvalidConfig {
        reason: "corrupt row payload".to_string(),
    };
    let ncols = *payload.first().ok_or_else(corrupt)? as usize;
    let mut out = Vec::with_capacity(ncols);
    let mut at = 1usize;
    for _ in 0..ncols {
        match payload.get(at).ok_or_else(corrupt)? {
            1 => {
                let bytes: [u8; 8] = payload
                    .get(at + 1..at + 9)
                    .ok_or_else(corrupt)?
                    .try_into()
                    .map_err(|_| corrupt())?;
                out.push(Value::Int(i64::from_be_bytes(bytes)));
                at += 9;
            }
            2 => {
                let len = u16::from_be_bytes(
                    payload
                        .get(at + 1..at + 3)
                        .ok_or_else(corrupt)?
                        .try_into()
                        .map_err(|_| corrupt())?,
                ) as usize;
                let text = payload.get(at + 3..at + 3 + len).ok_or_else(corrupt)?;
                out.push(Value::Text(
                    String::from_utf8(text.to_vec()).map_err(|_| corrupt())?,
                ));
                at += 3 + len;
            }
            _ => return Err(corrupt()),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_codec_roundtrip() {
        let row = vec![Value::Int(-42), Value::Text("hello".into()), Value::Int(7)];
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
    }

    #[test]
    fn corrupt_rows_rejected() {
        assert!(decode_row(&[]).is_err());
        assert!(decode_row(&[1, 9]).is_err());
        assert!(decode_row(&[1, 2, 0, 10, b'x']).is_err());
    }
}
