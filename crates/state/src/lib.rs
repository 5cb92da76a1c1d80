//! Crash-safe checkpointing substrate.
//!
//! Three layers, each usable on its own:
//!
//! - [`codec`] — a deterministic little-endian binary codec
//!   ([`Writer`]/[`Reader`]) plus the [`Persist`] trait that every
//!   state-bearing type in the workspace implements. Floats round-trip
//!   through their IEEE-754 bit patterns, so a restored value is
//!   *bit-identical* to the saved one — the foundation of the
//!   byte-identical-resume guarantee.
//! - [`checkpoint`] — the on-disk envelope: magic, format version, a
//!   small self-describing [`CheckpointMeta`] header, the payload, and a
//!   trailing CRC-64 over everything before it. Files are written
//!   atomically (temp file in the same directory → `fsync` → rename), so
//!   a crash mid-write can tear only the temp file, never a checkpoint
//!   that readers might pick up.
//! - [`dir`] — retention and recovery over a directory of checkpoints:
//!   newest-good selection that skips corrupt or torn files with a
//!   diagnostic for each, and pruning to a bounded retention window.
//! - [`checkpointer`] — the one checkpointer every resumable run uses:
//!   the identity check that keeps a snapshot out of a different run,
//!   and periodic writes, retention and resume over a [`CheckpointDir`].
//!
//! See `docs/CHECKPOINTS.md` for the format and the resume semantics.

pub mod checkpoint;
pub mod checkpointer;
pub mod codec;
pub mod crc64;
pub mod dir;

pub use checkpoint::{
    Checkpoint, CheckpointError, CheckpointMeta, FORMAT_VERSION, MAGIC, WIRE_PATH,
};
pub use checkpointer::{Checkpointer, Identity, Resumed};
pub use codec::{Persist, Reader, StateError, Writer};
pub use dir::{CheckpointDir, ScanOutcome, SkippedCheckpoint};
