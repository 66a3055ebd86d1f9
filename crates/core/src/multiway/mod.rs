//! N-ary rank joins over a [`crate::query::JoinSpec`].
//!
//! The paper presents HRJN/ISL over binary equi-joins; the ranked-
//! enumeration literature (Tziavelis et al., *Ranked Enumeration for
//! Database Queries*; *Optimal Join Algorithms Meet Top-k*) shows the
//! same threshold machinery covers any acyclic multi-way join. This
//! module is that generalization, layer by layer:
//!
//! * [`index`] — the multiway score index: every side of the spec built
//!   into one shared table (column family per side label, rows ordered
//!   by descending score), the N-ary sibling of [`crate::isl::build`].
//! * [`cursor`] — the ISL descent over the multiway index: the one
//!   [`crate::cursor::IslCursor`] driving the n-side HRJN operator of
//!   [`crate::hrjn`] (per-side score bounds feeding one global threshold,
//!   join enumeration along the spec's edge tree), with per-side
//!   [`SideAccess`] and [`MultiwayConfig`] batch sizes. Pausable,
//!   resumable and re-targetable like every cursor.
//! * [`planner`] — per-side statistics, the per-side access choice
//!   (batched index **descent** vs. **materialize**-then-join), and the
//!   cost model that picks the cheapest assignment; plus
//!   [`planner::SharedSpecStats`], the N-side staleness/versioning
//!   handle (any side's maintained write bumps the version plan caches,
//!   cursors, and serving caches check).
//! * [`exec`] — [`exec::SpecExecutor`], the spec-driven facade. A
//!   two-side spec degenerates to the existing binary
//!   [`crate::executor::RankJoinExecutor`] verbatim, so every binary
//!   query's results *and* counted metrics are byte-for-byte unchanged.

pub mod cursor;
pub mod exec;
pub mod index;
pub mod planner;

pub use cursor::{MultiwayConfig, SideAccess};
pub use exec::SpecExecutor;
pub use index::{build, index_table_name};
pub use planner::{choose_access, collect_spec_stats, SharedSpecStats, SpecSideStats, SpecStats};
