//! Cycle attribution: fold the event stream into a flamegraph-shaped
//! per-compartment × per-entry profile of where virtual cycles went.
//!
//! Gate enter/exit pairs nest (a callee that itself crosses a gate
//! opens a child span), so a simple span stack reconstructs the call
//! tree: each node accumulates inclusive cycles, the pre-computed gate
//! overhead, and a call count; self cycles fall out as inclusive minus
//! children. Supervisor microreboots appear as their own spans under
//! the rebooted compartment. The render is deterministic (child order
//! is first-appearance order), so its FNV-1a digest doubles as a
//! behavioral fingerprint of a run.

use std::fmt::Write as _;

use crate::chrome::NameTable;
use crate::event::{smp_charge, Event, EventKind};

/// One node of the attribution tree.
#[derive(Debug)]
pub(crate) struct ProfileNode {
    /// Display label (`compartment` at the roots, `compartment::entry`
    /// or `microreboot(trigger)` below).
    pub(crate) label: String,
    /// Times this span was entered.
    pub(crate) calls: u64,
    /// Inclusive virtual cycles spent in this span.
    pub(crate) total_cycles: u64,
    /// Portion of `total_cycles` that was pre-computed gate overhead.
    pub(crate) gate_cycles: u64,
    /// Arena indices of the children, in first-appearance order.
    pub(crate) children: Vec<usize>,
}

/// The folded profile: an arena of nodes plus the root list (one root
/// per compartment that initiated spans).
#[derive(Debug, Default)]
pub struct Profile {
    /// Node arena; `roots` and `ProfileNode::children` index into it.
    pub(crate) nodes: Vec<ProfileNode>,
    /// Arena indices of the per-compartment roots.
    pub(crate) roots: Vec<usize>,
}

impl Profile {
    fn alloc(&mut self, label: String) -> usize {
        self.nodes.push(ProfileNode {
            label,
            calls: 0,
            total_cycles: 0,
            gate_cycles: 0,
            children: Vec::new(),
        });
        self.nodes.len() - 1
    }

    fn child_of(&mut self, parent: Option<usize>, label: &str) -> usize {
        let list = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&idx) = list.iter().find(|&&i| self.nodes[i].label == label) {
            return idx;
        }
        let idx = self.alloc(label.to_string());
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    /// Inclusive cycles of a node minus its children — what the span
    /// spent itself (saturating, in case of clipped open spans).
    pub(crate) fn self_cycles(&self, idx: usize) -> u64 {
        let node = &self.nodes[idx];
        let children: u64 = node
            .children
            .iter()
            .map(|&c| self.nodes[c].total_cycles)
            .sum();
        node.total_cycles.saturating_sub(children)
    }

    /// Renders the tree as indented text, one line per node:
    /// `label  calls=N total=N self=N gate=N`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &root in &self.roots {
            self.render_node(&mut out, root, 0);
        }
        out
    }

    fn render_node(&self, out: &mut String, idx: usize, depth: usize) {
        let node = &self.nodes[idx];
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = writeln!(
            out,
            "{}  calls={} total={} self={} gate={}",
            node.label,
            node.calls,
            node.total_cycles,
            self.self_cycles(idx),
            node.gate_cycles
        );
        for &child in &node.children {
            self.render_node(out, child, depth + 1);
        }
    }
}

struct OpenSpan {
    node: usize,
    entered_at: u64,
    gate_cost: u64,
    // Identity of the span so exits match even across interleavings.
    key: (u8, u8, u32),
}

/// Span key tag for microreboot spans (they carry no entry id).
const REBOOT_KEY: u32 = u32::MAX;

/// Folds an event stream into the attribution tree. Unmatched open
/// spans (a trace that ends mid-call) are clipped at the last event's
/// timestamp.
///
/// Multi-core streams (any event stamped with a nonzero core) keep one
/// span stack *per core* — the cores' event sequences interleave in the
/// ring but each core's spans nest only among themselves — and prefix
/// every root with `core<N>/` so the render separates the per-core
/// trees. [`EventKind::SmpCharge`] events fold into leaf nodes named
/// after the charge kind (`ipi`, `heap-contention`, `ring-contention`)
/// under whatever span is open on the charging core, making cross-core
/// overhead directly visible in the attribution. Single-core streams
/// render byte-identically to the pre-SMP profiler.
pub fn attribute(events: &[Event], names: &NameTable) -> Profile {
    let mut profile = Profile::default();
    let multicore = events.iter().any(|e| e.core != 0);
    let ncores = events.iter().map(|e| e.core as usize).max().unwrap_or(0) + 1;
    let mut stacks: Vec<Vec<OpenSpan>> = (0..ncores).map(|_| Vec::new()).collect();
    let mut last_at: Vec<u64> = vec![0; ncores];

    let root_label = |name: &str, core: usize| {
        if multicore {
            format!("core{core}/{name}")
        } else {
            name.to_string()
        }
    };

    let close = |profile: &mut Profile, stack: &mut Vec<OpenSpan>, key, at: u64| {
        // Pop to the matching span; anything above it was left open
        // (shouldn't happen with well-formed streams) and is clipped.
        while let Some(pos) = stack.iter().rposition(|s| s.key == key) {
            let clipped = stack.len() - 1 - pos;
            let span = stack.pop().unwrap();
            let node = &mut profile.nodes[span.node];
            node.calls += 1;
            node.total_cycles += at.saturating_sub(span.entered_at);
            node.gate_cycles += span.gate_cost;
            if clipped == 0 {
                break;
            }
        }
    };

    for ev in events {
        let core = ev.core as usize;
        last_at[core] = last_at[core].max(ev.at);
        let stack = &mut stacks[core];
        match ev.kind {
            EventKind::GateEnter {
                from,
                to,
                entry,
                gate: _,
                cost,
            } => {
                let parent = match stack.last() {
                    Some(open) => open.node,
                    None => profile.child_of(None, &root_label(&names.compartment(from), core)),
                };
                let label = format!("{}::{}", names.compartment(to), names.entry(entry));
                let node = profile.child_of(Some(parent), &label);
                stack.push(OpenSpan {
                    node,
                    entered_at: ev.at,
                    gate_cost: cost as u64,
                    key: (from, to, entry),
                });
            }
            EventKind::GateExit { from, to, entry } => {
                close(&mut profile, stack, (from, to, entry), ev.at);
            }
            EventKind::RebootStart {
                compartment,
                trigger,
            } => {
                let parent = match stack.last() {
                    Some(open) => open.node,
                    None => {
                        profile.child_of(None, &root_label(&names.compartment(compartment), core))
                    }
                };
                let label = format!("microreboot({})", names.fault(trigger));
                let node = profile.child_of(Some(parent), &label);
                stack.push(OpenSpan {
                    node,
                    entered_at: ev.at,
                    gate_cost: 0,
                    key: (compartment, compartment, REBOOT_KEY),
                });
            }
            EventKind::RebootEnd { compartment, .. } => {
                close(
                    &mut profile,
                    stack,
                    (compartment, compartment, REBOOT_KEY),
                    ev.at,
                );
            }
            EventKind::SmpCharge { kind, cost } => {
                let parent = match stack.last() {
                    Some(open) => open.node,
                    None => profile.child_of(None, &root_label("smp", core)),
                };
                let node = profile.child_of(Some(parent), smp_charge::name(kind));
                let n = &mut profile.nodes[node];
                n.calls += 1;
                n.total_cycles += u64::from(cost);
                n.gate_cycles += u64::from(cost);
            }
            _ => {}
        }
    }

    // Clip anything still open at the end of each core's stream.
    for (core, stack) in stacks.iter_mut().enumerate() {
        while let Some(span) = stack.pop() {
            let node = &mut profile.nodes[span.node];
            node.calls += 1;
            node.total_cycles += last_at[core].saturating_sub(span.entered_at);
            node.gate_cycles += span.gate_cost;
        }
    }

    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_TRIGGER;

    fn enter(at: u64, from: u8, to: u8, entry: u32, cost: u32) -> Event {
        Event {
            at,
            core: 0,
            kind: EventKind::GateEnter {
                from,
                to,
                entry,
                gate: 0,
                cost,
            },
        }
    }

    fn exit(at: u64, from: u8, to: u8, entry: u32) -> Event {
        Event {
            at,
            core: 0,
            kind: EventKind::GateExit { from, to, entry },
        }
    }

    fn on_core(core: u8, mut ev: Event) -> Event {
        ev.core = core;
        ev
    }

    #[test]
    fn nesting_attributes_self_and_total() {
        // 0 calls 1::e0 (span 100..500); inside it, 1 calls 2::e1
        // (span 200..300), twice flat afterwards (310..330).
        let events = vec![
            enter(100, 0, 1, 0, 50),
            enter(200, 1, 2, 1, 10),
            exit(300, 1, 2, 1),
            enter(310, 1, 2, 1, 10),
            exit(330, 1, 2, 1),
            exit(500, 0, 1, 0),
        ];
        let p = attribute(&events, &NameTable::default());
        assert_eq!(p.roots.len(), 1);
        let root = &p.nodes[p.roots[0]];
        assert_eq!(root.label, "dom0");
        let outer_idx = root.children[0];
        let outer = &p.nodes[outer_idx];
        assert_eq!(outer.label, "dom1::entry0");
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.total_cycles, 400);
        assert_eq!(outer.gate_cycles, 50);
        let inner_idx = outer.children[0];
        let inner = &p.nodes[inner_idx];
        assert_eq!(inner.calls, 2);
        assert_eq!(inner.total_cycles, 120);
        assert_eq!(inner.gate_cycles, 20);
        assert_eq!(p.self_cycles(outer_idx), 280);
        // Deterministic render (callers digest the rendered bytes).
        let p2 = attribute(&events, &NameTable::default());
        assert_eq!(p.render(), p2.render());
    }

    #[test]
    fn reboot_spans_show_up() {
        let events = vec![
            Event {
                at: 1000,
                core: 0,
                kind: EventKind::RebootStart {
                    compartment: 1,
                    trigger: NO_TRIGGER,
                },
            },
            Event {
                at: 23000,
                core: 0,
                kind: EventKind::RebootEnd {
                    compartment: 1,
                    latency: 22000,
                },
            },
        ];
        let p = attribute(&events, &NameTable::default());
        let render = p.render();
        assert!(render.contains("microreboot(operator)  calls=1 total=22000"));
    }

    #[test]
    fn multicore_spans_keep_per_core_stacks() {
        // Core 0's span (100..500) and core 1's span (120..400)
        // interleave in the ring; a global stack would nest core 1's
        // span inside core 0's.
        let events = vec![
            enter(100, 0, 1, 0, 50),
            on_core(1, enter(120, 0, 1, 0, 50)),
            on_core(1, exit(400, 0, 1, 0)),
            exit(500, 0, 1, 0),
        ];
        let p = attribute(&events, &NameTable::default());
        let labels: Vec<&str> = p.roots.iter().map(|&r| p.nodes[r].label.as_str()).collect();
        assert_eq!(labels, vec!["core0/dom0", "core1/dom0"]);
        let span0 = &p.nodes[p.nodes[p.roots[0]].children[0]];
        let span1 = &p.nodes[p.nodes[p.roots[1]].children[0]];
        assert_eq!(span0.total_cycles, 400);
        assert_eq!(span1.total_cycles, 280);
        assert!(span0.children.is_empty(), "no cross-core nesting");
    }

    #[test]
    fn smp_charges_fold_into_the_open_span() {
        let charge = |at, core, kind, cost| {
            on_core(
                core,
                Event {
                    at,
                    core: 0,
                    kind: EventKind::SmpCharge { kind, cost },
                },
            )
        };
        let events = vec![
            on_core(1, enter(100, 0, 1, 0, 50)),
            charge(150, 1, 0, 420),
            charge(200, 1, 1, 72),
            charge(250, 1, 0, 420),
            on_core(1, exit(500, 0, 1, 0)),
            // A charge with no open span lands under a core-level root.
            charge(600, 2, 2, 144),
        ];
        let p = attribute(&events, &NameTable::default());
        let render = p.render();
        assert!(render.contains("ipi  calls=2 total=840 self=840 gate=840"));
        assert!(render.contains("heap-contention  calls=1 total=72"));
        assert!(render.contains("core2/smp"));
        assert!(render.contains("ring-contention  calls=1 total=144"));
    }

    #[test]
    fn open_spans_are_clipped() {
        let events = vec![enter(10, 0, 1, 0, 5), enter(20, 1, 2, 1, 5)];
        let p = attribute(&events, &NameTable::default());
        // Both spans clipped at last event ts=20.
        let root = &p.nodes[p.roots[0]];
        let outer = &p.nodes[root.children[0]];
        assert_eq!(outer.total_cycles, 10);
        assert_eq!(outer.calls, 1);
    }
}
