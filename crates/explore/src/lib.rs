//! # flexos-explore — partial safety ordering (§5)
//!
//! FlexOS unlocks a design space far too large to explore by hand
//! (Figure 6 alone evaluates 2×80 configurations). Quantifying safety
//! absolutely is impossible — is {3 compartments, MPK, no hardening}
//! safer than {2 compartments, EPT, CFI}? — but *some* configurations are
//! programmatically comparable: safety probabilistically increases with
//!
//! 1. the number of compartments (partition refinement),
//! 2. data isolation (DSS vs shared stacks, restricted sharing groups),
//! 3. stackable software hardening (per-component subset order),
//! 4. the strength of the isolation mechanism.
//!
//! Those four assumptions induce a **partial order**; configurations form
//! a poset whose DAG we label with measured performance, prune under a
//! budget, and reduce to its maximal elements — the safest configurations
//! that satisfy the budget (Figure 8 stars).
//!
//! This crate holds the space-independent half: the Figure 6 axis types
//! and the one config builder (`space`), the poset view (`poset`), an
//! order tabulated as per-node bitsets (`relation`), and the budget /
//! star / chain-cover / lazy-classification maths (`budget`).
//! The order itself (`sweep_leq`) and the spaces it runs on — Figure 6
//! is `SpaceSpec::fig6` — live in `flexos_sweep`.

mod budget;
mod poset;
mod relation;
mod space;

pub use budget::{
    chain_cover, lazy_classify, maximal_among, prune_and_star_by, PointStatus, StarReport,
};
pub use poset::Poset;
pub use relation::Relation;
pub use space::{assigned_config, Strategy, FIG6_COMPONENTS};
