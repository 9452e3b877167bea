//! # ei-service: the Fig. 1 ML-model web service
//!
//! The paper's running example (Fig. 1 + Fig. 2): a web service that
//! answers image-recognition requests from a request cache when possible
//! and otherwise runs a CNN on an accelerator. This crate provides the real
//! system (two-tier [`cache`], accelerator-resident [`cnn`], the serving
//! [`frontend`] that composes them) and Fig. 1's energy interface
//! ([`service`]) with measured constants — validated end to end against
//! the running service.

pub mod cache;
pub mod cnn;
pub mod frontend;
pub mod recal;
pub mod service;

pub use cache::{CacheEnergy, RequestCache};
pub use cnn::{CnnCalibration, CnnModel};
pub use frontend::{
    calibrate_with_state, fig1_faulted_calibration, fig1_interface_faulted, FaultMixture,
    FinalPath, FrontendConfig, FrontendStats, ServiceFrontend,
};
pub use recal::{
    pilot_mixture, DetectorConfig, RecalConfig, RecalFrontend, RecalStats, ResidualDetector,
    SampleRow,
};
pub use service::{fig1_calibration, fig1_interface, request_stream, Request, MAX_RESPONSE_LEN};
