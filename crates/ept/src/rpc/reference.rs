//! The word-at-a-time ring operations this crate used before the ranged
//! ones — every field its own `read_u64`/`write_u64` walk of simulated
//! memory, every operation its own borrow of it — kept verbatim as a
//! test-only reference: the unit tests drive both over seeded call
//! sequences and compare ring bytes, return values and faults.

use flexos_machine::fault::Fault;
use flexos_machine::key::Pkru;
use flexos_machine::Machine;

use super::{status, RpcRequest, RpcRing, RING_ENTRIES};

pub(crate) fn push_request(
    ring: &RpcRing,
    machine: &Machine,
    pkru: &Pkru,
    entry: u64,
    arg0: u64,
    arg1: u64,
) -> Result<u64, Fault> {
    let mut mem = machine.memory_mut();
    let head = mem.read_u64(ring.head_addr(), pkru)?;
    let tail = mem.read_u64(ring.tail_addr(), pkru)?;
    if head - tail >= RING_ENTRIES {
        return Err(Fault::ResourceExhausted { what: "RPC ring" });
    }
    let slot = head;
    let at = ring.entry_addr(slot);
    mem.write_u64(at, entry, pkru)?;
    mem.write_u64(at + 8, arg0, pkru)?;
    mem.write_u64(at + 16, arg1, pkru)?;
    mem.write_u64(at + 24, status::REQUEST, pkru)?;
    mem.write_u64(ring.head_addr(), head + 1, pkru)?;
    Ok(slot)
}

pub(crate) fn pop_request(
    ring: &RpcRing,
    machine: &Machine,
    pkru: &Pkru,
) -> Result<Option<RpcRequest>, Fault> {
    let mem = machine.memory();
    let head = mem.read_u64(ring.head_addr(), pkru)?;
    let tail = mem.read_u64(ring.tail_addr(), pkru)?;
    if tail >= head {
        return Ok(None);
    }
    let at = ring.entry_addr(tail);
    let status_word = mem.read_u64(at + 24, pkru)?;
    if status_word != status::REQUEST {
        return Ok(None);
    }
    Ok(Some(RpcRequest {
        slot: tail,
        entry: mem.read_u64(at, pkru)?,
        arg0: mem.read_u64(at + 8, pkru)?,
        arg1: mem.read_u64(at + 16, pkru)?,
    }))
}

pub(crate) fn complete(
    ring: &RpcRing,
    machine: &Machine,
    pkru: &Pkru,
    slot: u64,
    ret: u64,
) -> Result<(), Fault> {
    let mut mem = machine.memory_mut();
    let at = ring.entry_addr(slot);
    mem.write_u64(at + 8, ret, pkru)?;
    mem.write_u64(at + 24, status::DONE, pkru)?;
    let tail = mem.read_u64(ring.tail_addr(), pkru)?;
    mem.write_u64(ring.tail_addr(), tail.max(slot) + 1, pkru)?;
    Ok(())
}

pub(crate) fn fetch_reply(
    ring: &RpcRing,
    machine: &Machine,
    pkru: &Pkru,
    slot: u64,
) -> Result<Option<u64>, Fault> {
    let mem = machine.memory();
    let at = ring.entry_addr(slot);
    if mem.read_u64(at + 24, pkru)? != status::DONE {
        return Ok(None);
    }
    Ok(Some(mem.read_u64(at + 8, pkru)?))
}
