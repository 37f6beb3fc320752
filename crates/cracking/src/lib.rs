//! # holistic-cracking
//!
//! Adaptive indexing (database cracking) for the holistic indexing kernel.
//!
//! Database cracking (Idreos, Kersten, Manegold — CIDR 2007) builds indexes
//! *partially and incrementally as a side effect of query processing*: the
//! first query on a column copies it into a **cracker column**; every range
//! select physically reorganizes ("cracks") the pieces its bounds fall into,
//! so that qualifying values become contiguous; a **cracker index** records
//! the piece boundaries. With more queries the column becomes more and more
//! ordered and selects approach index performance, without ever paying the
//! up-front cost of a full sort.
//!
//! This crate provides the full adaptive-indexing substrate the paper's
//! holistic kernel builds on:
//!
//! * [`kernels`] — the in-place partitioning kernels: three sum-fused
//!   sweeps (`crack_in_two`, `crack_in_three`, `crack_in_k`), each generic
//!   over its row-id payload and its branchy or predicated form.
//! * [`piece`] / [`index`] — pieces and the cracker (piece) index, whose
//!   splits are all recorded by one in-place edit
//!   ([`PieceIndex::split_grouped_with_sums`]).
//! * [`cracker`] — [`CrackerColumn`]: the query-facing cracked copy of a
//!   base column, including *random refinement actions* (the building block
//!   of the paper's idle-time tuning). Its select is batched
//!   ([`CrackerColumn::crack_select_batch`]); a single select is a batch of
//!   one.
//! * [`stochastic`] — stochastic cracking variants (DDC, DDR, MDD1R) for
//!   robustness against adversarial (e.g. sequential) workloads.
//! * [`updates`] — cracking under updates: pending insert/delete buffers
//!   merged into the cracker column with ripple insertion/deletion.
//! * [`concurrent`] — a latch-protected cracker column usable from multiple
//!   threads: the column is split into fixed-extent **shards**, each its
//!   own piece table behind its own reader/writer latch, so queries fan
//!   out and compose per-shard aggregates while writers crack disjoint
//!   shards in parallel (an unsharded column is the one-shard case of the
//!   same code, and a single select is a batch of one).
//! * [`persist`] — snapshot encode/decode of the learned cracking state,
//!   with full validation of every recovered piece.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod concurrent;
pub mod corrupt;
pub mod cracker;
pub mod index;
pub mod kernels;
pub mod persist;
pub mod piece;
pub mod stochastic;
pub mod updates;

pub use concurrent::{
    AggregateCacheDelta, BatchRefineOutcome, BatchSelectOutcome, ConcurrentCrackerColumn,
    LatchStats, QueryAnswer, RefineOutcome, ScrubOutcome, SelectOutcome,
};
pub use corrupt::{corrupt_column, CorruptionInjector, CorruptionKind};
pub use cracker::{CrackerColumn, RangeAggregate};
pub use index::{PieceIndex, SplitGroup};
pub use kernels::{
    crack_in_k, crack_in_three, crack_in_two, KWaySums, KernelChoice, KernelDispatches, RowIds,
    ThreeWaySums, TwoWaySums, DEFAULT_PREDICATION_THRESHOLD,
};
pub use persist::{
    decode_cracker_column, decode_cracker_column_with, encode_cracker_column, DecodeValidation,
};
pub use piece::Piece;
pub use stochastic::CrackPolicy;
pub use updates::UpdatableCrackerColumn;

/// Prefix-sum arrays shared by sorted pieces (re-exported from the storage
/// layer): the structure behind zero-read sorted-piece aggregates.
pub use holistic_storage::PrefixSums;
/// Row identifier type (re-exported from the storage layer).
pub use holistic_storage::RowId;
/// Value type cracked by this crate (re-exported from the storage layer).
pub use holistic_storage::Value;
