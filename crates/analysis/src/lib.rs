//! # wanacl-analysis — the paper's evaluation, reproduced
//!
//! Implements the §4.1 availability/security model of *Access Control in
//! Wide-Area Networks* (Hiltunen & Schlichting, ICDCS '97) and the
//! harness that regenerates **every table and figure** of the paper at
//! three levels of fidelity:
//!
//! 1. **Closed form** ([`model`], [`binomial`]) — the exact binomial
//!    formulas; match the paper's printed digits (tested to 5e-6).
//! 2. **Monte Carlo** ([`montecarlo`]) — samples the same i.i.d.
//!    inaccessibility model as a cross-check of the formulas.
//! 3. **Protocol level** ([`experiments`]) — runs the *real* protocol
//!    (`wanacl-core`) over a partitioned simulated WAN and measures
//!    availability and security empirically.
//!
//! Also here: the heterogeneous §4.1 extension ([`hetero`]), the
//! `O(C/Te)` overhead model ([`overhead`]), and renderers for the
//! tables ([`tables`]) and Figure 5 ([`figures`]).
//!
//! Regenerator binaries (see the DESIGN.md experiment index): 
//! `repro_table1`, `repro_table2`, `repro_fig5`, `repro_overhead`,
//! `repro_freeze`, `repro_hetero`, `repro_baselines`, `repro_scale`,
//! `repro_ablations`, `repro_all`.
//!
//! ## Example
//!
//! ```
//! use wanacl_analysis::model::{pa, ps};
//!
//! // The paper's headline observation: around C = M/2 both are ~1.
//! assert!(pa(10, 5, 0.1) > 0.999);
//! assert!(ps(10, 5, 0.1) > 0.999);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binomial;
pub mod empirical;
pub mod experiments;
pub mod figures;
pub mod hetero;
pub mod model;
pub mod montecarlo;
pub mod overhead;
pub mod tables;
pub mod report;
pub mod retry;
pub mod scale;
