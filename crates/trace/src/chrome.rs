//! Chrome `trace_event` export and the FNV-1a trace digest.
//!
//! The export maps the simulator's id-shaped event stream onto the
//! Trace Event Format that `chrome://tracing` / Perfetto load:
//!
//! * gate crossings become `B`/`E` duration spans on the *caller*
//!   compartment's track (one "process" per compartment), named after
//!   the callee entry point;
//! * microreboot phases become nested spans on the rebooted
//!   compartment's track, under one umbrella `microreboot` span;
//! * faults, budget refusals and window resets become instant (`i`)
//!   events; heap alloc/free become `C` counter samples of live bytes;
//! * context switches and NIC ring traffic land on a synthetic
//!   "machine" track.
//!
//! Timestamps are virtual cycles, written verbatim into `ts` — the
//! viewer's microsecond label is cosmetic. The JSON is assembled with
//! deterministic formatting (insertion order, no floats except the
//! fixed clock), so byte-identical traces ⇔ identical event streams,
//! which is what the digest and the CI determinism gate rely on.

use std::fmt::Write as _;

use crate::event::{
    resource, smp_charge, Event, EventKind, ALL_COMPARTMENTS, NO_THREAD, NO_TRIGGER, REBOOT_PHASES,
};
use crate::json::JsonStr;

/// Resolves the raw ids carried by events into human-readable names at
/// export time. Built by the caller (only the system layer knows the
/// image); every lookup falls back to a stable synthesized name so a
/// partial table still exports.
#[derive(Debug, Default)]
pub struct NameTable {
    /// Compartment names, indexed by `CompartmentId.0`.
    pub compartments: Vec<String>,
    /// Component names, indexed by `ComponentId.0`.
    pub components: Vec<String>,
    /// Entry-point names, indexed by `EntryId.0`.
    pub entries: Vec<String>,
    /// Gate-kind display names, indexed by `GateKind::index()`.
    pub gates: Vec<String>,
    /// Fault-kind display names, indexed by `FaultKind as u8`.
    pub faults: Vec<String>,
}

/// `names[id]`, or the stable synthesized `<prefix><id>`.
fn name_or(names: &[String], id: usize, prefix: &str) -> String {
    names
        .get(id)
        .cloned()
        .unwrap_or_else(|| format!("{prefix}{id}"))
}

impl NameTable {
    /// Compartment name, `all`, or `dom<n>`.
    pub(crate) fn compartment(&self, id: u8) -> String {
        if id == ALL_COMPARTMENTS {
            return "all".to_string();
        }
        name_or(&self.compartments, id as usize, "dom")
    }

    /// Component name or `comp<n>`.
    pub(crate) fn component(&self, id: u16) -> String {
        name_or(&self.components, id as usize, "comp")
    }

    /// Entry-point name or `entry<n>`.
    pub(crate) fn entry(&self, id: u32) -> String {
        name_or(&self.entries, id as usize, "entry")
    }

    /// Gate-kind name or `gate<n>`.
    pub(crate) fn gate(&self, id: u8) -> String {
        name_or(&self.gates, id as usize, "gate")
    }

    /// Fault-kind name, `operator`, or `fault<n>`.
    pub(crate) fn fault(&self, id: u8) -> String {
        if id == NO_TRIGGER {
            return "operator".to_string();
        }
        name_or(&self.faults, id as usize, "fault")
    }
}

/// Synthetic `pid` for machine-level events (scheduler, NIC); real
/// compartments use `pid = CompartmentId + 1` so compartment 0 is not
/// confused with the viewer's "unknown process" 0.
const MACHINE_PID: u32 = 1000;

/// Where one event's JSON lines go: the document, plus the track and
/// timestamp every line of the event shares.
struct Line<'a> {
    out: &'a mut String,
    tid: u32,
    ts: u64,
}

impl Line<'_> {
    /// A begin (`B`), end (`E`) or instant (`i`) line on `pid`'s track.
    fn event(&mut self, ph: char, name: &str, cat: &str, pid: u32, args: &[(&str, String)]) {
        let Line { out, tid, ts } = self;
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":{},\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}",
            JsonStr(name),
            JsonStr(cat)
        );
        if ph == 'i' {
            out.push_str(",\"s\":\"p\"");
        }
        if !args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{v}", JsonStr(k));
            }
            out.push('}');
        }
        out.push_str("},\n");
    }

    /// A counter (`C`) sample of `series` on `pid`'s track.
    fn counter(&mut self, name: &str, pid: u32, series: &str, value: u64) {
        let Line { out, tid, ts } = self;
        let _ = writeln!(
            out,
            "{{\"name\":{},\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{{}:{value}}}}},",
            JsonStr(name),
            JsonStr(series)
        );
    }
}

/// Renders the event stream as a Chrome `trace_event` JSON document
/// (the `{"traceEvents": [...]}` object form). Deterministic: the
/// output is a pure function of `events` and `names`.
pub fn chrome_trace_json(events: &[Event], names: &NameTable) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");

    // Process-name metadata for every compartment that appears, plus
    // the machine track. Collect ids in first-appearance order so the
    // header is deterministic without sorting. On multi-core traces
    // (any event stamped with a nonzero core) each core additionally
    // becomes a named thread track per process — single-core traces
    // emit no thread metadata at all, keeping their bytes identical to
    // the pre-SMP export.
    let mut seen: Vec<u8> = Vec::new();
    let mut saw_machine = false;
    let multicore = events.iter().any(|e| e.core != 0);
    let mut tracks: Vec<(u32, u8)> = Vec::new();
    for ev in events {
        let comp = match ev.kind {
            EventKind::GateEnter { from, .. } | EventKind::GateExit { from, .. } => Some(from),
            EventKind::BudgetCharge { compartment, .. }
            | EventKind::BudgetRefusal { compartment, .. }
            | EventKind::HeapAlloc { compartment, .. }
            | EventKind::HeapFree { compartment, .. }
            | EventKind::RebootStart { compartment, .. }
            | EventKind::RebootPhase { compartment, .. }
            | EventKind::RebootEnd { compartment, .. } => Some(compartment),
            EventKind::BudgetWindowReset { compartment } if compartment != ALL_COMPARTMENTS => {
                Some(compartment)
            }
            _ => None,
        };
        let pid = match comp {
            Some(c) => {
                if !seen.contains(&c) {
                    seen.push(c);
                }
                c as u32 + 1
            }
            None => {
                saw_machine = true;
                MACHINE_PID
            }
        };
        if multicore && !tracks.contains(&(pid, ev.core)) {
            tracks.push((pid, ev.core));
        }
    }
    for &c in &seen {
        let _ = writeln!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":{}}}}},",
            c as u32 + 1,
            JsonStr(&names.compartment(c))
        );
    }
    if saw_machine {
        let _ = writeln!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{MACHINE_PID},\"tid\":0,\"args\":{{\"name\":\"machine\"}}}},"
        );
    }
    for &(pid, core) in &tracks {
        let _ = writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{core},\"args\":{{\"name\":\"core{core}\"}}}},"
        );
    }

    // Open-phase bookkeeping for microreboots: phase spans close when
    // the next phase (or the reboot end) arrives.
    let mut open_phase: Vec<Option<&'static str>> = vec![None; 256];

    for ev in events {
        let mut line = Line {
            out: &mut out,
            tid: u32::from(ev.core),
            ts: ev.at,
        };
        let pid_of = |compartment: u8| compartment as u32 + 1;
        match ev.kind {
            EventKind::GateEnter {
                from,
                to,
                entry,
                gate,
                cost,
            } => line.event(
                'B',
                &format!("{}::{}", names.compartment(to), names.entry(entry)),
                "gate",
                pid_of(from),
                &[
                    ("gate", JsonStr(&names.gate(gate)).to_string()),
                    ("cost", cost.to_string()),
                ],
            ),
            EventKind::GateExit { from, to, entry } => line.event(
                'E',
                &format!("{}::{}", names.compartment(to), names.entry(entry)),
                "gate",
                pid_of(from),
                &[],
            ),
            EventKind::IsolationFault { component, fault } => line.event(
                'i',
                &format!("fault:{}", names.fault(fault)),
                "fault",
                MACHINE_PID,
                &[(
                    "component",
                    JsonStr(&names.component(component)).to_string(),
                )],
            ),
            EventKind::BudgetCharge {
                compartment,
                resource: res,
                amount,
            } => line.counter(
                &format!("budget:{}", resource::name(res)),
                pid_of(compartment),
                "charged",
                amount,
            ),
            EventKind::BudgetRefusal {
                compartment,
                resource: res,
                would,
                limit,
            } => line.event(
                'i',
                &format!("refusal:{}", resource::name(res)),
                "budget",
                pid_of(compartment),
                &[("would", would.to_string()), ("limit", limit.to_string())],
            ),
            EventKind::BudgetWindowReset { compartment } => {
                let pid = if compartment == ALL_COMPARTMENTS {
                    MACHINE_PID
                } else {
                    pid_of(compartment)
                };
                line.event('i', "budget-window-reset", "budget", pid, &[]);
            }
            EventKind::HeapAlloc {
                compartment, live, ..
            }
            | EventKind::HeapFree {
                compartment, live, ..
            } => line.counter("heap-live-bytes", pid_of(compartment), "live", live),
            EventKind::CtxSwitch { from, to } => {
                let from_s = if from == NO_THREAD {
                    JsonStr("none").to_string()
                } else {
                    from.to_string()
                };
                let args = [("from", from_s), ("to", to.to_string())];
                line.event('i', "ctx-switch", "sched", MACHINE_PID, &args);
            }
            EventKind::NicEnqueue { frame_len } => {
                let args = [("len", frame_len.to_string())];
                line.event('i', "nic-tx", "net", MACHINE_PID, &args);
            }
            EventKind::NicDequeue { frame_len } => {
                let args = [("len", frame_len.to_string())];
                line.event('i', "nic-rx", "net", MACHINE_PID, &args);
            }
            EventKind::RebootStart {
                compartment,
                trigger,
            } => {
                let args = [("trigger", JsonStr(&names.fault(trigger)).to_string())];
                line.event('B', "microreboot", "supervisor", pid_of(compartment), &args);
            }
            EventKind::RebootPhase { compartment, phase } => {
                let pid = pid_of(compartment);
                if let Some(prev) = open_phase[compartment as usize].take() {
                    line.event('E', prev, "supervisor", pid, &[]);
                }
                let name = REBOOT_PHASES
                    .get(phase as usize)
                    .copied()
                    .unwrap_or("unknown-phase");
                open_phase[compartment as usize] = Some(name);
                line.event('B', name, "supervisor", pid, &[]);
            }
            EventKind::RebootEnd {
                compartment,
                latency,
            } => {
                let pid = pid_of(compartment);
                if let Some(prev) = open_phase[compartment as usize].take() {
                    line.event('E', prev, "supervisor", pid, &[]);
                }
                let args = [("latency", latency.to_string())];
                line.event('E', "microreboot", "supervisor", pid, &args);
            }
            EventKind::SmpCharge { kind, cost } => line.event(
                'i',
                &format!("smp:{}", smp_charge::name(kind)),
                "smp",
                MACHINE_PID,
                &[("cost", cost.to_string())],
            ),
        }
    }

    // Trailing sentinel so every real event line can end with a comma
    // (valid JSON without look-ahead, stable formatting).
    out.push_str(
        "{\"name\":\"trace-end\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0,\"s\":\"g\"}\n",
    );
    out.push_str("]}\n");
    out
}

/// FNV-1a over a byte string — the trace digest, and the digest of the
/// fault campaign's log (`flexos_attacks::campaign`) too.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                at: 10,
                core: 0,
                kind: EventKind::GateEnter {
                    from: 0,
                    to: 1,
                    entry: 3,
                    gate: 2,
                    cost: 108,
                },
            },
            Event {
                at: 150,
                core: 0,
                kind: EventKind::GateExit {
                    from: 0,
                    to: 1,
                    entry: 3,
                },
            },
            Event {
                at: 200,
                core: 0,
                kind: EventKind::RebootStart {
                    compartment: 1,
                    trigger: NO_TRIGGER,
                },
            },
            Event {
                at: 210,
                core: 0,
                kind: EventKind::RebootPhase {
                    compartment: 1,
                    phase: 0,
                },
            },
            Event {
                at: 2210,
                core: 0,
                kind: EventKind::RebootPhase {
                    compartment: 1,
                    phase: 1,
                },
            },
            Event {
                at: 20000,
                core: 0,
                kind: EventKind::RebootEnd {
                    compartment: 1,
                    latency: 19800,
                },
            },
        ]
    }

    #[test]
    fn export_is_deterministic_and_balanced() {
        let names = NameTable::default();
        let a = chrome_trace_json(&sample_events(), &names);
        let b = chrome_trace_json(&sample_events(), &names);
        assert_eq!(a, b);
        assert_eq!(fnv1a(a.as_bytes()), fnv1a(b.as_bytes()));
        // Every B has a matching E.
        let begins = a.matches("\"ph\":\"B\"").count();
        let ends = a.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends);
        assert!(a.contains("\"name\":\"microreboot\""));
        assert!(a.contains("\"name\":\"quarantine\""));
        assert!(a.contains("\"trigger\":\"operator\""));
    }

    #[test]
    fn single_core_traces_emit_no_thread_metadata() {
        let names = NameTable::default();
        let json = chrome_trace_json(&sample_events(), &names);
        assert!(!json.contains("thread_name"));
        assert!(!json.contains("\"tid\":1"));
    }

    #[test]
    fn multicore_traces_get_per_core_tracks() {
        let names = NameTable::default();
        let mut events = sample_events();
        events.push(Event {
            at: 30000,
            core: 2,
            kind: EventKind::SmpCharge {
                kind: 0, // ipi
                cost: 420,
            },
        });
        let json = chrome_trace_json(&events, &names);
        // Every track that appears is named, including core 0's now that
        // the trace is known to be multi-core.
        assert!(json.contains(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1000,\"tid\":2,\"args\":{\"name\":\"core2\"}}"
        ));
        assert!(json.contains("\"args\":{\"name\":\"core0\"}"));
        assert!(json.contains("\"name\":\"smp:ipi\""));
        assert!(json.contains("\"tid\":2"));
    }

    #[test]
    fn name_table_falls_back() {
        let names = NameTable::default();
        assert_eq!(names.compartment(2), "dom2");
        assert_eq!(names.compartment(ALL_COMPARTMENTS), "all");
        assert_eq!(names.entry(7), "entry7");
        assert_eq!(names.fault(NO_TRIGGER), "operator");
        let named = NameTable {
            compartments: vec!["kernel".into(), "lwip".into()],
            ..NameTable::default()
        };
        assert_eq!(named.compartment(1), "lwip");
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
