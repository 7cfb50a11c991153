//! Randomized property tests over the core data structures and invariants.
//!
//! The container image has no access to crates.io, so instead of
//! `proptest` these use a small deterministic xorshift PRNG: every
//! property is exercised over many generated cases from a fixed seed,
//! which keeps runs reproducible while still sweeping a wide input
//! space. Shrinking is lost; determinism is gained.

mod common;

use flexos::prelude::*;
use flexos_alloc::{lea::Lea, tlsf::Tlsf, RegionAlloc};
use flexos_explore::{lazy_classify, maximal_among, PointStatus, Poset, Relation};
use flexos_machine::addr::Addr;
use flexos_machine::key::{Access, Pkru, ProtKey};
use flexos_machine::mem::Memory;

use common::Rng;

/// An allocator action for the churn property.
#[derive(Debug, Clone)]
enum Action {
    Alloc(u64),
    FreeNth(usize),
}

fn actions(rng: &mut Rng) -> Vec<Action> {
    let n = rng.range(1, 120) as usize;
    (0..n)
        .map(|_| {
            if rng.next().is_multiple_of(2) {
                Action::Alloc(rng.range(1, 4096))
            } else {
                Action::FreeNth(rng.range(0, 64) as usize)
            }
        })
        .collect()
}

#[test]
fn tlsf_never_overlaps_and_keeps_tiling() {
    let mut rng = Rng::new(0x7153_f001);
    for _case in 0..64 {
        let ops = actions(&mut rng);
        let mut tlsf = Tlsf::new(Addr::new(0x10000), 1 << 20);
        let mut live: Vec<(Addr, u64)> = Vec::new();
        for op in ops {
            match op {
                Action::Alloc(size) => {
                    if let Ok(addr) = tlsf.alloc(size, 16) {
                        let len = tlsf.size_of(addr).expect("live block has a size");
                        for &(other, olen) in &live {
                            assert!(
                                addr.raw() + len <= other.raw() || other.raw() + olen <= addr.raw(),
                                "overlap: {addr} and {other}"
                            );
                        }
                        live.push((addr, len));
                    }
                }
                Action::FreeNth(n) => {
                    if !live.is_empty() {
                        let (addr, _) = live.swap_remove(n % live.len());
                        tlsf.free(addr).expect("live block frees");
                    }
                }
            }
            tlsf.check_invariants().expect("tlsf invariants hold");
        }
    }
}

#[test]
fn lea_roundtrips_and_keeps_tiling() {
    let mut rng = Rng::new(0x1ea0_f002);
    for _case in 0..64 {
        let ops = actions(&mut rng);
        let mut lea = Lea::new(Addr::new(0x10000), 1 << 20);
        let mut live: Vec<Addr> = Vec::new();
        for op in ops {
            match op {
                Action::Alloc(size) => {
                    if let Ok(addr) = lea.alloc(size, 16) {
                        live.push(addr);
                    }
                }
                Action::FreeNth(n) => {
                    if !live.is_empty() {
                        let addr = live.swap_remove(n % live.len());
                        lea.free(addr).expect("live block frees");
                    }
                }
            }
            lea.check_invariants().expect("lea invariants hold");
        }
        for addr in live {
            lea.free(addr).expect("cleanup");
        }
        assert_eq!(lea.allocated_bytes(), 0);
    }
}

#[test]
fn memory_enforces_keys_for_arbitrary_accesses() {
    let mut rng = Rng::new(0x4e40_f003);
    for _case in 0..128 {
        let page = rng.range(1, 63);
        let len = rng.range(1, 64);
        let off = rng.range(0, 4096);
        let my_key = rng.range(0, 16) as u8;
        let page_key = rng.range(0, 16) as u8;

        let mut mem = Memory::new(64 * 4096);
        let base = Addr::new(page * 4096);
        mem.map(base, 1, ProtKey::new(page_key).unwrap()).unwrap();
        let pkru = Pkru::permit_only(&[ProtKey::new(my_key).unwrap()]);
        let addr = base + (off % (4096 - len));
        let allowed = my_key == page_key;
        let write = mem.write(addr, &vec![0xAB; len as usize], &pkru);
        assert_eq!(write.is_ok(), allowed);
        let read = mem.read_vec(addr, len, &pkru);
        assert_eq!(read.is_ok(), allowed);
    }
}

#[test]
fn pkru_encode_decode_roundtrip() {
    let mut rng = Rng::new(0x9c20_f004);
    for _case in 0..256 {
        let bits = rng.next() as u32;
        let pkru = Pkru::decode(bits);
        assert_eq!(Pkru::decode(pkru.encode()), pkru);
        // Semantics preserved: every key's permissions survive.
        for i in 0..16u8 {
            let k = ProtKey::new(i).unwrap();
            assert_eq!(
                pkru.allows(k, Access::Read),
                Pkru::decode(pkru.encode()).allows(k, Access::Read)
            );
        }
    }
}

#[test]
fn resp_roundtrips() {
    let mut rng = Rng::new(0x4e57_f005);
    let mut req = flexos_apps::resp::RespRequest::new();
    for _case in 0..128 {
        let argc = rng.range(1, 6) as usize;
        let args: Vec<Vec<u8>> = (0..argc)
            .map(|_| {
                let len = rng.range(0, 64) as usize;
                rng.bytes(len)
            })
            .collect();
        let refs: Vec<&[u8]> = args.iter().map(|a| a.as_slice()).collect();
        let wire = flexos_apps::resp::encode_request(&refs);
        let used = flexos_apps::resp::decode_request_into(&wire, &mut req)
            .expect("valid wire")
            .expect("complete");
        assert_eq!(used, wire.len());
        assert_eq!(req.argv, args);
    }
}

#[test]
fn tcp_segments_roundtrip() {
    use flexos::net::tcp::{write_frame, SegmentView, FLAG_ACK, FLAG_PSH};
    let mut rng = Rng::new(0x7c90_f006);
    let mut wire = Vec::new();
    for _case in 0..128 {
        let src_port = rng.range(1, u64::from(u16::MAX)) as u16;
        let dst_port = rng.range(1, u64::from(u16::MAX)) as u16;
        let seq = rng.next() as u32;
        let ack = rng.next() as u32;
        let len = rng.range(0, 512) as usize;
        let payload = rng.bytes(len);
        let flags = FLAG_ACK | FLAG_PSH;
        write_frame(
            &mut wire, src_port, dst_port, seq, ack, flags, 1024, &payload,
        );
        let parsed = SegmentView::parse(&wire).expect("roundtrip");
        let sent = SegmentView {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 1024,
            payload: &payload,
        };
        assert_eq!(parsed, sent);
    }
}

#[test]
fn corrupted_frames_never_parse() {
    use flexos::net::tcp::{write_frame, SegmentView};
    let mut rng = Rng::new(0xc0f5_f007);
    let (mut wire, mut again) = (Vec::new(), Vec::new());
    for _case in 0..128 {
        let payload_len = rng.range(0, 128) as usize;
        let payload = rng.bytes(payload_len);
        let flip = rng.range(0, 128) as usize;
        let bit = rng.range(0, 8) as u8;

        write_frame(&mut wire, 100, 200, 1, 2, 0x02, 65535, &payload);
        let idx = flip % wire.len();
        wire[idx] ^= 1 << bit;
        // Either the flip is detected, or parsing reproduces a segment
        // that re-serializes to the flipped bytes (checksum field flip).
        if let Ok(p) = SegmentView::parse(&wire) {
            write_frame(
                &mut again, p.src_port, p.dst_port, p.seq, p.ack, p.flags, p.window, p.payload,
            );
            assert_eq!(&again[..16], &wire[..16]);
        }
    }
}

#[test]
fn poset_axioms_hold_on_random_subsets() {
    let space: Vec<_> = flexos_sweep::SpaceSpec::fig6("redis", 1, 1)
        .points()
        .collect();
    let performance = space.iter().map(|p| (p.index * 13 % 97) as f64).collect();
    let poset = Poset::new(performance, |a, b| {
        flexos_sweep::sweep_leq(&space[a], &space[b])
    });
    let mut rng = Rng::new(0x9053_f008);
    for _case in 0..64 {
        let count = rng.range(2, 12) as usize;
        let mut keep: Vec<usize> = Vec::new();
        while keep.len() < count {
            let idx = rng.range(0, 80) as usize;
            if !keep.contains(&idx) {
                keep.push(idx);
            }
        }
        keep.sort_unstable();
        let maximal = maximal_among(&keep, |a, b| poset.leq(a, b));
        assert!(!maximal.is_empty(), "non-empty subsets have maxima");
        for &m in &maximal {
            for &other in &keep {
                assert!(!poset.lt(m, other), "maximal {m} dominated by {other}");
            }
        }
    }
}

#[test]
fn check_axioms_names_each_violated_axiom() {
    let check = |n: usize, leq: &dyn Fn(usize, usize) -> bool| {
        Poset::new(vec![0.0; n], leq).check_axioms().unwrap_err()
    };
    assert_eq!(check(3, &|a, b| a == b && a != 1), "not reflexive at 1");
    assert_eq!(
        check(3, &|a, b| a == b || (a < 2 && b < 2)),
        "not antisymmetric: 0 <=> 1"
    );
    assert_eq!(
        check(3, &|a, b| a == b || (a, b) == (0, 1) || (a, b) == (1, 2)),
        "not transitive: 0 <= 1 <= 2"
    );
    // A 70-node chain missing one link: the witness sits in a second word.
    assert_eq!(
        check(70, &|a, b| a <= b && (a, b) != (0, 69)),
        "not transitive: 0 <= 1 <= 69"
    );
}

#[test]
fn lazy_classification_over_a_relation_matches_exhaustive_labels() {
    // Random monotone labellings (a ≤ b ⇒ perf(a) ≥ perf(b)) of the two
    // reference posets: subsets of k bits, each bit costing a random
    // weight (zero weights make ties), and divisibility on 1..=n, each
    // prime factor costing a random weight per multiplicity. Sizes run
    // past 64 nodes, so relation rows span several words.
    let mut rng = Rng::new(0x1a2e_c1a5);
    for case in 0..96 {
        type Labelled = (usize, fn(usize, usize) -> bool, Vec<f64>);
        let (n, leq, perf): Labelled = if case % 2 == 0 {
            let bits = rng.range(2, 8) as u32;
            let weights: Vec<f64> = (0..bits).map(|_| rng.range(0, 6) as f64).collect();
            let n = 1usize << bits;
            let perf = (0..n)
                .map(|i| {
                    1000.0
                        - (0..bits)
                            .filter(|b| i >> b & 1 == 1)
                            .map(|b| weights[b as usize])
                            .sum::<f64>()
                })
                .collect();
            (n, |a, b| a & b == a, perf)
        } else {
            let n = rng.range(2, 200) as usize;
            let weight: Vec<f64> = (0..=n).map(|_| rng.range(0, 6) as f64).collect();
            // perf(i) for the number i + 1: its prime factors' weights.
            let perf = (0..n)
                .map(|i| {
                    let (mut m, mut p, mut cost) = (i + 1, 2, 0.0);
                    while m > 1 {
                        while m % p == 0 {
                            m /= p;
                            cost += weight[p];
                        }
                        p += 1;
                    }
                    1000.0 - cost
                })
                .collect();
            (n, |a, b| (b + 1).is_multiple_of(a + 1), perf)
        };
        let order = Relation::new(n, leq);
        let chains = order.chain_cover();
        let lo = perf.iter().copied().fold(f64::MAX, f64::min);
        let hi = perf.iter().copied().fold(f64::MIN, f64::max);
        let budget = lo + (hi - lo) * rng.range(0, 101) as f64 / 100.0;
        let mut requested = vec![0u32; n];
        let statuses = lazy_classify(
            &order,
            &chains,
            |batch| {
                for &i in batch {
                    requested[i] += 1;
                }
                batch.iter().map(|&i| perf[i]).collect()
            },
            |_, p| p >= budget,
        );
        for i in 0..n {
            let want = if perf[i] >= budget {
                PointStatus::Survives
            } else {
                PointStatus::Pruned
            };
            assert_eq!(statuses[i], want, "case {case}: node {i} of {n}");
            assert!(requested[i] <= 1, "case {case}: node {i} requested twice");
        }
        for a in 0..n {
            for b in 0..n {
                assert_eq!(
                    order.leq(a, b),
                    a == b || leq(a, b),
                    "case {case}: ({a}, {b})"
                );
            }
        }
    }
}

#[test]
fn config_parser_never_panics() {
    let mut rng = Rng::new(0xc0f1_f009);
    for _case in 0..256 {
        // Arbitrary printable-ish input: parse may fail, must not panic.
        let len = rng.range(0, 256) as usize;
        let text: String = (0..len)
            .map(|_| {
                // Mostly printable ASCII with a sprinkling of newlines.
                match rng.range(0, 12) {
                    0 => '\n',
                    _ => (rng.range(0x20, 0x7f) as u8) as char,
                }
            })
            .collect();
        let _ = SafetyConfig::parse_str(&text);
    }
}

#[test]
fn sql_parser_never_panics() {
    let mut rng = Rng::new(0x5015_f00a);
    for _case in 0..256 {
        let len = rng.range(0, 120) as usize;
        let text: String = (0..len)
            .map(|_| (rng.range(0x20, 0x7f) as u8) as char)
            .collect();
        let _ = flexos_apps::sqlite::sql::parse(&text);
    }
}

#[test]
fn resolved_and_string_call_paths_are_equivalent() {
    // Resolving a name on every call (`env.resolve(to, name)` inline)
    // and holding a pre-resolved `CallTarget` must produce identical
    // faults, crossing counts, CFI-violation counts, and virtual-clock
    // readings across random configurations and entry sequences.
    use flexos_core::compartment::DataSharing;

    let components = ["lwip", "uksched", "vfscore", "uktime", "newlib"];
    let entries = [
        "lwip_poll",
        "lwip_recv",
        "uksched_yield",
        "uksched_current",
        "vfs_read",
        "uktime_wall",
        "nl_strlen",
        // Illegal everywhere: internal functions and typos.
        "lwip_internal_timer",
        "vfs_backdoor",
        "uksched_yeild",
    ];

    let mut rng = Rng::new(0xca11_f00c);
    for _case in 0..24 {
        let sharing = match rng.range(0, 3) {
            0 => DataSharing::Dss,
            1 => DataSharing::SharedStack,
            _ => DataSharing::HeapConversion,
        };
        let config = match rng.range(0, 4) {
            0 => configs::none(),
            1 => configs::mpk2(&["lwip"], sharing).unwrap(),
            2 => configs::mpk2(&["lwip", "uksched"], sharing).unwrap(),
            _ => configs::mpk3(&["uksched"], &["lwip", "vfscore", "ramfs"], sharing).unwrap(),
        };
        let build = || {
            SystemBuilder::new(config.clone())
                .app(flexos_apps::redis_component())
                .build()
                .unwrap()
        };
        let by_str = build();
        let by_target = build();

        // The same random (caller, callee, entry) sequence on both images.
        let calls: Vec<(usize, usize)> = (0..rng.range(4, 40))
            .map(|_| {
                (
                    rng.range(0, components.len() as u64) as usize,
                    rng.range(0, entries.len() as u64) as usize,
                )
            })
            .collect();

        let run = |os: &FlexOs, resolved: bool| -> (Vec<bool>, u64, u64, u64, u64) {
            let env = &os.env;
            let app = os.app_ids[0];
            // The resolved arm follows the real resolve-once pattern: all
            // handles are resolved up front (as `NewlibEntries` et al. do)
            // and held across the whole call sequence.
            let targets: Vec<Vec<flexos_core::entry::CallTarget>> = components
                .iter()
                .map(|c| {
                    let to = env.component_id(c).unwrap();
                    entries.iter().map(|e| env.resolve(to, e)).collect()
                })
                .collect();
            let mut faults = Vec::new();
            env.run_as(app, || {
                for &(comp_idx, entry_idx) in &calls {
                    let outcome = if resolved {
                        env.call_resolved(targets[comp_idx][entry_idx], || Ok(()))
                    } else {
                        let to = env.component_id(components[comp_idx]).unwrap();
                        env.call_resolved(env.resolve(to, entries[entry_idx]), || Ok(()))
                    };
                    faults.push(outcome.is_err());
                }
            });
            (
                faults,
                env.gates().total_crossings(),
                env.gates().direct_calls(),
                env.gates().cfi_violations(),
                env.machine().clock().now(),
            )
        };

        let a = run(&by_str, false);
        let b = run(&by_target, true);
        assert_eq!(a, b, "paths diverged (sharing {sharing:?})");
    }
}

#[test]
fn dss_shadow_math_is_linear() {
    use flexos_sched::dss::{shadow_of, STACK_SIZE};
    let mut rng = Rng::new(0xd550_f00b);
    for _case in 0..256 {
        let off = rng.range(0, 32768);
        let base = Addr::new(0x100000);
        let var = base + off;
        assert_eq!(shadow_of(var) - var, STACK_SIZE);
        assert_eq!(shadow_of(var).offset_from(base), off + STACK_SIZE);
    }
}
