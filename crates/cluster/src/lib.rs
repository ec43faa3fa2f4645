//! Sharded federation over the slot engine: a tiled multi-aggregator
//! cluster with halo routing and global settlement.
//!
//! The paper's aggregator is a single logical service, but its welfare
//! objective (Eq. 2) decomposes spatially: a query only ever touches
//! sensors inside its spatial support (the `d_max` disk of a point
//! query, the sensing-range-expanded rectangle of an aggregate), so a
//! city-scale arena can be partitioned into tiles that run near-
//! independent slot engines. This crate is that partition made concrete:
//!
//! * [`ClusterBuilder`] splits the arena into a `g × g`
//!   [`TileGrid`](ps_geo::TileGrid) and builds one
//!   [`ps_core::Aggregator`] per tile, each minting query ids from its
//!   own disjoint block.
//! * [`ShardedAggregator`] routes every submitted query to the shard
//!   owning its [`SpatialSupport`](ps_core::valuation::SpatialSupport)
//!   anchor, announces each slot's sensors to their home tile **plus a
//!   halo ring** so boundary queries still see their full candidate set,
//!   steps contiguous ranges of shards in parallel through
//!   [`Threads::map_ranges`](ps_core::exec::Threads::map_ranges), the
//!   calling thread stepping one of them, and runs a global
//!   **settlement** pass: per-shard reports and ledgers merge in shard
//!   order, and a halo sensor bought by several shards is resolved
//!   deterministically — the lowest shard id keeps it, every losing
//!   shard's ledger refunds its payers via
//!   [`Ledger::strip_sensor`](ps_core::payment::Ledger::strip_sensor) —
//!   so the merged ledger stays budget-balanced and cost-recovering.
//! * [`SlotEngine`] is the object-safe common surface of the plain
//!   engine and the cluster, letting drivers swap one for the other.
//!
//! # Exactness contract
//!
//! For a fixed grid, a cluster is **bit-identical across thread
//! counts**: shards are stepped independently and merged in ascending
//! shard order, so the fork-join width can never change a result. A
//! `1 × 1` cluster *is* the plain engine (same ids, same reports, plus
//! an empty settlement).
//!
//! Against a single engine at `g > 1` the contract is conditional. When
//! every query's support fits inside its home tile (and therefore
//! trivially inside tile+halo), per-query values, payments, and serving
//! sensors are bit-identical to the plain engine's — the greedy
//! selection decomposes exactly — and slot welfare agrees up to
//! floating-point summation order. When supports cross tiles, shards
//! optimize locally and the cluster may select differently than the
//! global greedy; the slot-engine bench measures that **welfare gap**
//! per scale (see `docs/PERFORMANCE.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod engine;

pub use cluster::{ClusterBuilder, Settlement, ShardedAggregator, SHARD_ID_BLOCK};
pub use engine::SlotEngine;
