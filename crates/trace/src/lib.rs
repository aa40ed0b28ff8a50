//! qf-trace: dependency-free flight-recorder tracing.
//!
//! The observability layer for the QuantileFilter stack. Where a
//! filter's `FilterStats` and the pipeline's per-shard counts answer
//! "how many?", qf-trace answers "what happened, in what order?" with a
//! bounded trail of
//! fixed-size binary events — the last N things each shard did before a
//! crash, a quarantine, or an operator's `/flight` query.
//!
//! Three pieces:
//!
//! * [`TraceEvent`]/[`EventKind`] — fixed-size binary records for the
//!   control-flow joints that matter after the fact: epoch rollovers,
//!   candidate elections, evictions, reports, checkpoint seals,
//!   backpressure edges, worker restarts/quarantines and snapshot cuts.
//!   (`SketchSaturation` stays decodable so older dumps still parse;
//!   nothing emits it any more.)
//! * [`FlightRecorder`] — a lock-free, bounded, overwrite-oldest ring
//!   of per-slot seqlocks. Writes are wait-free and clock-free; reads
//!   are torn-slot-tolerant snapshots. Events carry process-wide
//!   sequence numbers so cross-shard causality survives the dump.
//! * [`tls`] — the thread-local emit context that lets library crates
//!   (qf-core) emit without knowing which shard they run under, and [`dump`] — the `qf-flight/v1` JSON encoding the
//!   supervisor writes on every restart and quarantine.
//!
//! This crate is always compiled but costs nothing unless someone
//! installs a recorder; downstream crates additionally gate every emit
//! call site behind their own `trace` cargo feature so the
//! uninstrumented build compiles the calls out entirely (held to a ≤2%
//! bench bar on the insert hot path).

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod event;
mod ring;

pub mod dump;
pub mod tls;

pub use dump::{dump_file_name, render_dump, write_dump, DUMP_SCHEMA};
pub use event::{pack_meta, unpack_meta, EventKind, TraceEvent};
pub use ring::{current_seq, FlightRecorder};
