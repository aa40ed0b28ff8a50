//! Evaluation harness: ground truth, accuracy metrics, throughput, and one
//! driver per figure of the paper's §V.
//!
//! The metrics follow §V-B exactly: stream the dataset through a detector
//! collecting its real-time reports, deduplicate the reported keys, and
//! compare against the exact set of outstanding keys:
//!
//! * Precision = TP / (TP + FP)
//! * Recall    = TP / (TP + FN)
//! * F1        = harmonic mean
//!
//! Throughput is reported in million operations (insert+detect) per second
//! (§V-C). Every figure of the paper has a driver in [`figures`]; each
//! returns a [`figures::FigureOutput`] table whose rows regenerate the
//! corresponding plot's series.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod figures;
pub mod metrics;
pub mod pipeline;
pub mod runner;
pub mod telemetry_sidecar;

pub use metrics::Accuracy;
pub use pipeline::{PipelineDetector, PipelineRun};
pub use runner::{ground_truth, run_detector, RunResult};
pub use telemetry_sidecar::{run_detector_telemetered, TelemeteredRun, TelemetryConfig};
