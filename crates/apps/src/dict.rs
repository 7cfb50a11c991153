//! Redis' dictionary: an open-addressing hash table in simulated memory.
//!
//! The bucket array and every key/value payload live on the Redis
//! compartment's heap, so a compromised network stack (or any other
//! compartment) cannot read stored values without faulting — the exact
//! property the Figure 6 configurations buy.

use std::rc::Rc;

use flexos_core::env::{Env, Work};
use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

/// Bucket layout: key_addr u64, val_addr u64, key_len u32, val_len u32,
/// state u32 (0 empty, 1 used, 2 tombstone), pad u32.
const BUCKET_BYTES: u64 = 32;

const STATE_EMPTY: u32 = 0;
const STATE_USED: u32 = 1;
const STATE_TOMB: u32 = 2;

/// An open-addressing (linear probing) hash table over simulated memory.
#[derive(Debug)]
pub struct Dict {
    env: Rc<Env>,
    buckets: Addr,
    capacity: u64,
}

impl Dict {
    /// Byte offset of the `val_len` field inside a bucket (see the bucket
    /// layout above) — exposed so corruption tests can forge it in place.
    pub const VAL_LEN_OFFSET: u64 = 20;

    /// Allocates a dictionary with `capacity` buckets (power of two) on
    /// the current compartment's heap.
    ///
    /// # Errors
    ///
    /// Heap exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two.
    pub fn with_capacity(env: Rc<Env>, capacity: u64) -> Result<Dict, Fault> {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        let buckets = env.malloc(capacity * BUCKET_BYTES)?;
        // Zero the bucket array (state = EMPTY).
        env.mem_fill(buckets, capacity * BUCKET_BYTES, 0)?;
        Ok(Dict {
            env,
            buckets,
            capacity,
        })
    }

    fn hash(&self, key: &[u8]) -> u64 {
        // SipHash-flavoured mixing is overkill; Redis uses SipHash-1-2 but
        // the distribution property is what matters here (FNV-1a).
        self.env.compute(Work {
            cycles: 10 + key.len() as u64,
            alu_ops: 2 * key.len() as u64,
            frames: 1,
            mem_accesses: key.len() as u64 / 8 + 1,
            ..Work::default()
        });
        key.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    fn bucket_addr(&self, idx: u64) -> Addr {
        self.buckets + (idx & (self.capacity - 1)) * BUCKET_BYTES
    }

    fn read_bucket(&self, idx: u64) -> Result<(u64, u64, u32, u32, u32), Fault> {
        let at = self.bucket_addr(idx);
        let mut raw = [0u8; 32];
        self.env.mem_read(at, &mut raw)?;
        Ok((
            u64::from_le_bytes(raw[0..8].try_into().expect("8 bytes")),
            u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes")),
            u32::from_le_bytes(raw[16..20].try_into().expect("4 bytes")),
            u32::from_le_bytes(raw[20..24].try_into().expect("4 bytes")),
            u32::from_le_bytes(raw[24..28].try_into().expect("4 bytes")),
        ))
    }

    fn write_bucket(
        &self,
        idx: u64,
        key_addr: u64,
        val_addr: u64,
        key_len: u32,
        val_len: u32,
        state: u32,
    ) -> Result<(), Fault> {
        let mut raw = [0u8; 32];
        raw[0..8].copy_from_slice(&key_addr.to_le_bytes());
        raw[8..16].copy_from_slice(&val_addr.to_le_bytes());
        raw[16..20].copy_from_slice(&key_len.to_le_bytes());
        raw[20..24].copy_from_slice(&val_len.to_le_bytes());
        raw[24..28].copy_from_slice(&state.to_le_bytes());
        self.env.mem_write(self.bucket_addr(idx), &raw)
    }

    fn key_matches(&self, key_addr: u64, key_len: u32, key: &[u8]) -> Result<bool, Fault> {
        if key_len as usize != key.len() {
            return Ok(false);
        }
        // Rights-checked in-place compare: no host allocation per probe.
        self.env.mem_compare(Addr::new(key_addr), key)
    }

    /// Allocates a block for `bytes` and writes them there, giving the
    /// block back if the write faults.
    fn store(&self, bytes: &[u8]) -> Result<Addr, Fault> {
        let addr = self.env.malloc(bytes.len().max(1) as u64)?;
        if let Err(fault) = self.env.mem_write(addr, bytes) {
            self.env.free(addr)?;
            return Err(fault);
        }
        Ok(addr)
    }

    /// Inserts or replaces `key` → `value`.
    ///
    /// A refused insert leaves the table as it was. A refused replace
    /// has already freed the old value, so it removes the entry (the
    /// key reads as absent) instead of leaving it pointing at freed
    /// memory. Either way no block is leaked.
    ///
    /// # Errors
    ///
    /// [`Fault::ResourceExhausted`] when the table is full or the heap is
    /// exhausted; [`Fault::BudgetExceeded`] when the compartment's heap
    /// budget refuses a block; protection faults from a foreign
    /// compartment.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> Result<(), Fault> {
        let mut idx = self.hash(key);
        for _ in 0..self.capacity {
            let (kaddr, vaddr, klen, _vlen, state) = self.read_bucket(idx)?;
            match state {
                STATE_EMPTY | STATE_TOMB => {
                    let key_addr = self.store(key)?;
                    let val_addr = match self.store(value) {
                        Ok(addr) => addr,
                        Err(fault) => {
                            self.env.free(key_addr)?;
                            return Err(fault);
                        }
                    };
                    self.write_bucket(
                        idx,
                        key_addr.raw(),
                        val_addr.raw(),
                        key.len() as u32,
                        value.len() as u32,
                        STATE_USED,
                    )?;
                    return Ok(());
                }
                _ if self.key_matches(kaddr, klen, key)? => {
                    // Replace the value in place.
                    self.env.free(Addr::new(vaddr))?;
                    let val_addr = match self.store(value) {
                        Ok(addr) => addr,
                        Err(fault) => {
                            self.write_bucket(idx, 0, 0, 0, 0, STATE_TOMB)?;
                            self.env.free(Addr::new(kaddr))?;
                            return Err(fault);
                        }
                    };
                    self.write_bucket(
                        idx,
                        kaddr,
                        val_addr.raw(),
                        klen,
                        value.len() as u32,
                        STATE_USED,
                    )?;
                    return Ok(());
                }
                _ => idx = idx.wrapping_add(1),
            }
        }
        Err(Fault::ResourceExhausted {
            what: "redis dict buckets",
        })
    }

    /// Looks up `key`, **appending** the value to `out`: with a recycled
    /// `out`, a steady-state probe-and-read performs zero host
    /// allocations. Returns the value length on a hit.
    ///
    /// # Errors
    ///
    /// Protection faults from a foreign compartment.
    pub fn get_into(&self, key: &[u8], out: &mut Vec<u8>) -> Result<Option<u64>, Fault> {
        let mut idx = self.hash(key);
        for _ in 0..self.capacity {
            let (kaddr, vaddr, klen, vlen, state) = self.read_bucket(idx)?;
            match state {
                STATE_EMPTY => return Ok(None),
                STATE_USED if self.key_matches(kaddr, klen, key)? => {
                    self.env
                        .mem_read_into(Addr::new(vaddr), u64::from(vlen), out)?;
                    return Ok(Some(u64::from(vlen)));
                }
                _ => idx = idx.wrapping_add(1),
            }
        }
        Ok(None)
    }

    /// Simulated address of the bucket holding `key`, if present — the
    /// corruption-test hook: a test can overwrite the bucket's metadata
    /// in simulated memory (e.g. forge [`Dict::VAL_LEN_OFFSET`]) and
    /// assert the read path's length cap catches it.
    ///
    /// # Errors
    ///
    /// Protection faults from a foreign compartment.
    pub fn bucket_of(&self, key: &[u8]) -> Result<Option<Addr>, Fault> {
        let mut idx = self.hash(key);
        for _ in 0..self.capacity {
            let (kaddr, _vaddr, klen, _vlen, state) = self.read_bucket(idx)?;
            match state {
                STATE_EMPTY => return Ok(None),
                STATE_USED if self.key_matches(kaddr, klen, key)? => {
                    return Ok(Some(self.bucket_addr(idx)));
                }
                _ => idx = idx.wrapping_add(1),
            }
        }
        Ok(None)
    }

    /// Removes `key`, returning `true` if it existed.
    ///
    /// # Errors
    ///
    /// Protection faults from a foreign compartment.
    pub(crate) fn del(&mut self, key: &[u8]) -> Result<bool, Fault> {
        let mut idx = self.hash(key);
        for _ in 0..self.capacity {
            let (kaddr, vaddr, klen, _vlen, state) = self.read_bucket(idx)?;
            match state {
                STATE_EMPTY => return Ok(false),
                STATE_USED if self.key_matches(kaddr, klen, key)? => {
                    self.env.free(Addr::new(kaddr))?;
                    self.env.free(Addr::new(vaddr))?;
                    self.write_bucket(idx, 0, 0, 0, 0, STATE_TOMB)?;
                    return Ok(true);
                }
                _ => idx = idx.wrapping_add(1),
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_core::backend::NoneBackend;
    use flexos_core::compartment::ResourceBudget;
    use flexos_core::config::SafetyConfig;
    use flexos_core::image::ImageBuilder;
    use flexos_core::prelude::{Component, ComponentKind};
    use flexos_machine::Machine;

    fn env() -> Rc<Env> {
        build(SafetyConfig::none())
    }

    fn build(config: SafetyConfig) -> Rc<Env> {
        let machine = Machine::new(Machine::DEFAULT_MEM_BYTES);
        let mut b = ImageBuilder::new(machine, config);
        b.register(Component::new("redis", ComponentKind::App))
            .unwrap();
        b.build(&[&NoneBackend]).unwrap().env
    }

    #[test]
    fn a_refused_set_leaks_nothing_and_leaves_no_dangling_value() {
        // 16 buckets (512 bytes) and two 16-byte blocks fit the budget; a
        // 1 KiB value does not.
        let mut config = SafetyConfig::none();
        config.default_budget = Some(ResourceBudget {
            heap_bytes: Some(1024),
            ..ResourceBudget::UNLIMITED
        });
        let env = build(config);
        let redis = env.component_id("redis").unwrap();
        let comp = env.compartment_of(redis);
        let live = || {
            let stats = env.heap_stats_of(comp);
            let live = stats.bytes_allocated - stats.bytes_freed;
            assert_eq!(live, env.budget_usage(comp).heap_bytes, "ledger = heap");
            live
        };
        let big = [b'v'; 1024];
        env.run_as(redis, || {
            let mut d = Dict::with_capacity(Rc::clone(&env), 16).unwrap();
            let mut out = Vec::new();
            // Refused insert: the key block is given back.
            let empty = live();
            let refused = d.set(b"k", &big);
            assert!(matches!(refused, Err(Fault::BudgetExceeded { .. })));
            assert_eq!(live(), empty);
            assert_eq!(d.get_into(b"k", &mut out).unwrap(), None);
            // Refused replace: the entry goes, with its key and both values.
            d.set(b"k", b"old").unwrap();
            let refused = d.set(b"k", &big);
            assert!(matches!(refused, Err(Fault::BudgetExceeded { .. })));
            assert_eq!(d.get_into(b"k", &mut out).unwrap(), None);
            assert_eq!(d.bucket_of(b"k").unwrap(), None);
            assert_eq!(live(), empty);
            // The key is free to come back.
            d.set(b"k", b"new").unwrap();
            assert_eq!(d.get_into(b"k", &mut out).unwrap(), Some(3));
            assert_eq!(out, b"new");
        });
    }

    #[test]
    fn set_get_del_roundtrip() {
        let env = env();
        let redis = env.component_id("redis").unwrap();
        env.run_as(redis, || {
            let mut d = Dict::with_capacity(Rc::clone(&env), 64).unwrap();
            d.set(b"alpha", b"1").unwrap();
            d.set(b"beta", b"2").unwrap();
            let mut out = Vec::new();
            assert_eq!(d.get_into(b"alpha", &mut out).unwrap(), Some(1));
            assert_eq!(out, b"1");
            assert_eq!(d.get_into(b"gamma", &mut out).unwrap(), None);
            assert!(d.del(b"alpha").unwrap());
            assert!(!d.del(b"alpha").unwrap());
            assert_eq!(d.get_into(b"alpha", &mut out).unwrap(), None);
            // Hits append, misses leave the buffer alone.
            assert_eq!(d.get_into(b"beta", &mut out).unwrap(), Some(1));
            assert_eq!(out, b"12");
        });
    }

    #[test]
    fn replace_updates_value() {
        let env = env();
        let redis = env.component_id("redis").unwrap();
        env.run_as(redis, || {
            let mut d = Dict::with_capacity(Rc::clone(&env), 16).unwrap();
            d.set(b"k", b"old").unwrap();
            d.set(b"k", b"newer-value").unwrap();
            let mut out = Vec::new();
            assert_eq!(d.get_into(b"k", &mut out).unwrap(), Some(11));
            assert_eq!(out, b"newer-value");
        });
    }

    #[test]
    fn survives_collisions_and_many_keys() {
        let env = env();
        let redis = env.component_id("redis").unwrap();
        env.run_as(redis, || {
            let mut d = Dict::with_capacity(Rc::clone(&env), 256).unwrap();
            for i in 0..200u32 {
                d.set(format!("key:{i}").as_bytes(), format!("val:{i}").as_bytes())
                    .unwrap();
            }
            let mut out = Vec::new();
            for i in 0..200u32 {
                out.clear();
                d.get_into(format!("key:{i}").as_bytes(), &mut out).unwrap();
                assert_eq!(out, format!("val:{i}").into_bytes(), "key {i}");
            }
        });
    }

    #[test]
    fn full_table_reports_exhaustion() {
        let env = env();
        let redis = env.component_id("redis").unwrap();
        env.run_as(redis, || {
            let mut d = Dict::with_capacity(Rc::clone(&env), 4).unwrap();
            for i in 0..4 {
                d.set(format!("k{i}").as_bytes(), b"v").unwrap();
            }
            assert!(matches!(
                d.set(b"overflow", b"v"),
                Err(Fault::ResourceExhausted { .. })
            ));
        });
    }

    #[test]
    fn tombstones_keep_probe_chains_alive() {
        let env = env();
        let redis = env.component_id("redis").unwrap();
        env.run_as(redis, || {
            let mut d = Dict::with_capacity(Rc::clone(&env), 8).unwrap();
            // Build a probe chain, delete the middle, verify the tail is
            // still reachable.
            for i in 0..5 {
                d.set(format!("x{i}").as_bytes(), b"v").unwrap();
            }
            d.del(b"x2").unwrap();
            for i in [0u32, 1, 3, 4] {
                let hit = d.get_into(format!("x{i}").as_bytes(), &mut Vec::new());
                assert!(hit.unwrap().is_some());
            }
        });
    }
}
