//! Property test on the attack-expectation oracle (pure, no
//! simulation): whenever the §5 safety order
//! ([`flexos_sweep::sweep_leq`]) orders two configurations, the
//! oracle's predicted blocked-sets must be ordered by inclusion. This
//! is the matrix's monotonicity check with the simulator factored out
//! — it fuzzes the *model* over the whole 8000-point product space,
//! not just the 100-point grid the matrix can afford to build.

use flexos_attacks::expected_mask;
use flexos_machine::xorshift64star;
use flexos_sweep::{sweep_leq, SpaceSpec, SweepPoint};

fn assert_monotone(a: &SweepPoint, b: &SweepPoint, ma: u16, mb: u16) {
    assert_eq!(
        ma & !mb,
        0,
        "{a} <= {b} in the safety order, but the oracle predicts blocked \
         {ma:08b} vs {mb:08b} (not inclusion-ordered)"
    );
}

#[test]
fn random_ordered_pairs_have_inclusion_ordered_blocked_sets() {
    let spec = SpaceSpec::full(0, 0);
    let n = spec.len() as u64;
    let mut rng = 0x5EED_CAFE_F00D_0001u64;
    let sample: Vec<SweepPoint> = (0..160)
        .map(|_| spec.point((xorshift64star(&mut rng) % n) as usize))
        .collect();
    let masks: Vec<u16> = sample.iter().map(expected_mask).collect();
    let mut ordered = 0usize;
    for (i, a) in sample.iter().enumerate() {
        for (j, b) in sample.iter().enumerate() {
            if i != j && sweep_leq(a, b) {
                ordered += 1;
                assert_monotone(a, b, masks[i], masks[j]);
            }
        }
    }
    // The sample must actually exercise the order, or the property is
    // vacuous. (Deterministic PRNG: this count is stable.)
    assert!(
        ordered >= 10,
        "random sample produced only {ordered} ordered pairs"
    );
}

#[test]
fn hardening_chains_are_inclusion_ordered() {
    // Directed coverage that needs no luck: a point with no hardening
    // is sweep_leq any same-shaped point with every component
    // hardened (the full space enumerates all 16 masks contiguously).
    let spec = SpaceSpec::full(0, 0);
    let n = spec.len() as u64;
    let mut rng = 0xDE7E_12A1_57A7_E001u64;
    for _ in 0..50 {
        let i = (xorshift64star(&mut rng) % n) as usize;
        let base = i - (i % 16);
        let weak = spec.point(base);
        let strong = spec.point(base + 15);
        assert!(
            sweep_leq(&weak, &strong),
            "mask 0 must be <= mask 15 at the same shape: {weak}"
        );
        assert_monotone(&weak, &strong, expected_mask(&weak), expected_mask(&strong));
    }
}
