//! The blessed public surface, re-exported for one-line imports.
//!
//! ```
//! use resipe::prelude::*;
//! ```
//!
//! pulls in everything the train → compile → run → profile flow needs:
//! the engine and its configuration, the compile pipeline
//! ([`CompileOptions`], [`TileMapper`], [`HardwareNetwork`],
//! [`CompileCache`]), the unified run API ([`RunOptions`] — the
//! planned path, or the reference for checks — and [`RunResult`]),
//! resilience ([`RepairPolicy`],
//! [`HealthReport`], [`Scrubber`], [`ScrubConfig`]), energy
//! ([`EnergyModel`], [`StageEnergy`]),
//! telemetry ([`Telemetry`], [`TelemetrySnapshot`]) and the
//! [`resipe_nn`] data types ([`Tensor`], [`Network`], [`Dataset`]).
//!
//! Anything not re-exported here (circuit netlists, parasitics, the raw
//! mapping internals) remains available under its module path but is
//! considered an advanced interface.

pub use crate::cache::CompileCache;
pub use crate::config::ResipeConfig;
pub use crate::engine::{MacResult, ResipeEngine};
pub use crate::error::ResipeError;
pub use crate::inference::{
    accuracy_under_variation, CompileOptions, EncodingPolicy, FaultInjection, HardwareNetwork,
    RunOptions, RunResult,
};
pub use crate::mapping::{SpikeEncoding, TileMapper};
pub use crate::power::{EnergyBreakdown, EnergyModel, PeripheralCosts, StageEnergy};
pub use crate::repair::{HealthReport, RepairPolicy, TileStatus};
pub use crate::scrub::{ScrubConfig, ScrubStats, Scrubber};
pub use crate::spike::SpikeTime;
pub use crate::telemetry::{Telemetry, TelemetrySnapshot};

pub use resipe_nn::data::Dataset;
pub use resipe_nn::network::Network;
pub use resipe_nn::tensor::Tensor;
