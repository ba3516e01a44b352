//! # spec-store
//!
//! Versioned binary serialization and a content-addressed on-disk store for
//! prepared analysis artifacts.
//!
//! The crate has two halves:
//!
//! * [`codec`] — a small, dependency-free binary codec ([`Codec`],
//!   [`Encoder`], [`Decoder`]) with explicit encode/decode traversals for the
//!   IR and analysis types that make up a prepared program: `Program`,
//!   blocks/terminators, `AddressMap`, `AbstractCacheState`,
//!   `InstGraph`/`SpeculationSite`/`Vcfg`, `SolveStats`.  The traversal is
//!   written parallel to the existing `HeapSize` walk: every field that
//!   contributes to the measured footprint is visited exactly once, in a
//!   fixed order, with all integers little-endian and all maps emitted in
//!   sorted key order so encoding is deterministic.
//! * [`store`] — [`ArtifactStore`], an on-disk, fingerprint-keyed store with
//!   a format-version header, per-artifact FNV-1a integrity checksum, atomic
//!   temp-file+rename writes, and byte-budget GC by recency (mtime), the same
//!   eviction-policy shape the session cache uses in memory.
//!
//! The *content address* of an artifact is the pair (key fingerprint,
//! options-schema signature): the fingerprint keys the file name and the
//! signature guards against loading artifacts produced by an
//! incompatible build.  Decoding never panics on corrupt input — every length
//! is bounds-checked against the remaining payload and every tag validated —
//! so a damaged file degrades to a clean cold prepare.

pub mod codec;
pub mod impls;
pub mod store;

pub use codec::{Codec, DecodeError, Decoder, Encoder};
pub use store::{
    fnv64, ArtifactHeader, ArtifactStore, GcStats, LoadOutcome, RejectReason, StoreEntry,
    ARTIFACT_FORMAT_VERSION, ARTIFACT_HEADER_LEN, ARTIFACT_MAGIC,
};
