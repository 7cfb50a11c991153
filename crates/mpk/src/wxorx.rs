//! W⊕X static binary scan (§4.1).
//!
//! "Any compartment can modify the value of the PKRU, thus the MPK backend
//! has to prevent unauthorized writes. [...] In FlexOS, no code is loaded
//! after compilation, hence static binary analysis coupled with strict
//! W⊕X is sufficient." This module is that analysis: it scans component
//! text for the `wrpkru` instruction (and the `xrstor` family that can
//! also write PKRU) outside the blessed gate code.
//!
//! # One scan per component text
//!
//! The analysis is a property of a component's *text*, not of the image
//! it is linked into: the paper's toolchain scans each library once,
//! after compilation, and the verdict holds for every configuration that
//! links it because nothing can change the text afterwards. The
//! simulated text is a pure function of `(component name, length)`
//! (`synthesize_text`), so `scan_component` keeps the set of pairs
//! that scanned clean and scans each distinct text once per thread,
//! however many thousand images an exploration builds from it. What the
//! memo cannot vouch for is scanned every time: text handed in from
//! outside ([`scan_text`] itself, and the blobs
//! `MpkBackend::inject_text` adds) is never looked up in it, whatever
//! its name and length, and a failing verdict is never stored.

use std::cell::RefCell;

use flexos_machine::fault::Fault;
use flexos_machine::xorshift64star;

/// Encoding of `wrpkru` (0F 01 EF).
pub(crate) const WRPKRU_OPCODE: [u8; 3] = [0x0F, 0x01, 0xEF];

/// Encoding of `xrstor` with a PKRU-bearing mask (0F AE 2F — simplified:
/// any `xrstor` is rejected, as ERIM does).
pub(crate) const XRSTOR_OPCODE: [u8; 3] = [0x0F, 0xAE, 0x2F];

/// Scans a component's text for PKRU-writing instructions.
///
/// # Errors
///
/// [`Fault::WxViolation`] if a `wrpkru`/`xrstor` sequence occurs in
/// `text`; component code must reach PKRU only through gate code, which is
/// emitted by the toolchain and not part of any component's text.
pub fn scan_text(component: &str, text: &[u8]) -> Result<(), Fault> {
    for window in text.windows(3) {
        if window == WRPKRU_OPCODE || window == XRSTOR_OPCODE {
            return Err(Fault::WxViolation {
                component: component.to_string(),
            });
        }
    }
    Ok(())
}

thread_local! {
    /// `(text length, component name)` of every synthesized text that
    /// scanned clean on this thread. The pair is every input of
    /// [`synthesize_text`], so an entry stands for exactly the bytes that
    /// were scanned. Per thread because an image and everything that
    /// builds it stay on one thread (the sweep engine moves only
    /// `PointResult`s across); unbounded because the key space is the
    /// component set — a dozen entries, which is also why a list searched
    /// in order serves: no hasher, so nothing about a lookup differs from
    /// one process to the next.
    static SCANNED_CLEAN: RefCell<Vec<(usize, String)>> = const { RefCell::new(Vec::new()) };
}

/// The W⊕X scan of a registered component: [`scan_text`] over its
/// [`synthesize_text`] image of `size` bytes, run the first time this
/// thread sees that `(name, size)` and remembered while it comes back
/// clean (see the module docs).
///
/// # Errors
///
/// [`Fault::WxViolation`], on every call, if the text holds a
/// PKRU-writing sequence.
pub(crate) fn scan_component(name: &str, size: usize) -> Result<(), Fault> {
    if remembered(name, size) {
        return Ok(());
    }
    scan_text(name, &synthesize_text(name, size))?;
    SCANNED_CLEAN.with_borrow_mut(|clean| clean.push((size, name.to_string())));
    Ok(())
}

/// Whether this thread's memo holds a clean verdict for `(name, size)`.
pub(crate) fn remembered(name: &str, size: usize) -> bool {
    SCANNED_CLEAN.with_borrow(|clean| clean.iter().any(|(s, n)| *s == size && n == name))
}

/// Deterministically synthesizes a component's "binary text" for the scan.
///
/// The simulation has no real machine code, so each component gets a
/// pseudo-random byte image seeded by its name, post-processed to remove
/// any accidental PKRU-writing sequence — exactly the property the
/// compiler + toolchain guarantee for real FlexOS components.
pub(crate) fn synthesize_text(name: &str, size: usize) -> Vec<u8> {
    // xorshift64* seeded from the name; deterministic across runs.
    let mut state: u64 = name
        .bytes()
        .fold(0x9E37_79B9_7F4A_7C15u64, |acc, b| {
            acc.rotate_left(9) ^ u64::from(b).wrapping_mul(0x0100_0000_01B3)
        })
        .max(1);
    let mut text = Vec::with_capacity(size);
    while text.len() < size {
        text.extend_from_slice(&xorshift64star(&mut state).to_le_bytes());
    }
    text.truncate(size);
    // Scrub any accidental forbidden sequence.
    for i in 0..text.len().saturating_sub(2) {
        if text[i..i + 3] == WRPKRU_OPCODE || text[i..i + 3] == XRSTOR_OPCODE {
            text[i + 2] ^= 0xFF;
        }
    }
    text
}

/// Synthesizes a component's text with a hidden `wrpkru` gadget spliced
/// into the middle — the attacker's half of the §4.1 threat model. A
/// compromised component that could smuggle this instruction past the
/// toolchain would set its own PKRU and walk out of its compartment; the
/// adversarial suite feeds the forged text to [`scan_text`] and asserts
/// the MPK backend's build-time scan is what stops it.
pub fn forge_gadget(name: &str, size: usize) -> Vec<u8> {
    let mut text = synthesize_text(name, size.max(WRPKRU_OPCODE.len()));
    let splice = text.len() / 2;
    text[splice..splice + WRPKRU_OPCODE.len()].copy_from_slice(&WRPKRU_OPCODE);
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forged_gadget_is_caught() {
        let text = forge_gadget("lwip", 4096);
        let err = scan_text("lwip", &text).unwrap_err();
        assert!(matches!(err, Fault::WxViolation { .. }));
        // Deterministic, and the splice is the only difference from the
        // clean synthesized text.
        assert_eq!(forge_gadget("lwip", 4096), forge_gadget("lwip", 4096));
        assert_ne!(forge_gadget("lwip", 4096), synthesize_text("lwip", 4096));
    }

    #[test]
    fn scan_component_remembers_name_and_length() {
        // A name no other test scans, so the memo cannot know it yet.
        assert!(!remembered("libmemo", 4096));
        scan_component("libmemo", 4096).unwrap();
        assert!(remembered("libmemo", 4096));
        // Another length or another name is another text: not covered.
        assert!(!remembered("libmemo", 8192));
        assert!(!remembered("libmemo2", 4096));
        scan_component("libmemo", 8192).unwrap();
        scan_component("libmemo", 4096).unwrap();
        assert!(remembered("libmemo", 8192) && remembered("libmemo", 4096));
    }

    #[test]
    fn clean_text_passes() {
        let text = synthesize_text("lwip", 64 * 1024);
        assert!(scan_text("lwip", &text).is_ok());
    }

    #[test]
    fn synthesized_text_is_deterministic() {
        assert_eq!(
            synthesize_text("redis", 4096),
            synthesize_text("redis", 4096)
        );
        assert_ne!(synthesize_text("redis", 64), synthesize_text("nginx", 64));
    }

    #[test]
    fn stray_wrpkru_rejected() {
        let mut text = synthesize_text("evil", 4096);
        text[1000..1003].copy_from_slice(&WRPKRU_OPCODE);
        let err = scan_text("evil", &text).unwrap_err();
        assert!(matches!(err, Fault::WxViolation { .. }));
        assert!(err.to_string().contains("evil"));
    }

    #[test]
    fn stray_xrstor_rejected() {
        let mut text = synthesize_text("evil2", 4096);
        text[64..67].copy_from_slice(&XRSTOR_OPCODE);
        assert!(scan_text("evil2", &text).is_err());
    }

    #[test]
    fn sequence_straddling_scan_positions_found() {
        // The scan must use sliding windows, not aligned chunks.
        let mut text = vec![0u8; 16];
        text[7..10].copy_from_slice(&WRPKRU_OPCODE);
        assert!(scan_text("x", &text).is_err());
    }
}
