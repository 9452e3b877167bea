//! # ei-core: energy interfaces, made executable
//!
//! A Rust realization of the HotOS '25 vision paper *The Case for Energy
//! Clarity* (Chung, Kuo, Candea — EPFL). The paper proposes **energy
//! interfaces**: little programs that compute the energy a resource would
//! consume for a given workload, composed layer by layer exactly like
//! functional interfaces compose semantics.
//!
//! This crate provides:
//!
//! - **EIL**, the Energy Interface Language: an [`ast`], a [`parser`] for a
//!   readable surface syntax, and a [`pretty`]-printer that round-trips.
//! - An [`interp`]reter: deterministic evaluation, Monte Carlo, and exact
//!   enumeration over [ECVs](ecv) — returning energy
//!   [distributions](dist), in Joules or [abstract units](units).
//! - [Composition](compose) (linking interfaces against providers) and the
//!   Fig. 2 [stack] model of layers, resources, and resource managers.
//! - The [analysis] toolchain: worst-case bounds, path enumeration,
//!   constant-energy (side-channel) checking, and compatibility checking,
//!   all deterministic: the interval walk proves, and concrete executions
//!   at fixed probe points refute.
//!
//! # Examples
//!
//! ```
//! use ei_core::parser::parse;
//! use ei_core::interp::{enumerate_exact, EvalConfig};
//! use ei_core::value::Value;
//!
//! let iface = parse(r#"
//!     interface cache "request cache"  {
//!         ecv hit: bernoulli(0.8) "entry already cached";
//!         fn lookup(len) {
//!             return (if ecv(hit) { 5 mJ } else { 100 mJ }) * len;
//!         }
//!     }
//! "#).unwrap();
//!
//! let dist = enumerate_exact(
//!     &iface, "lookup", &[Value::Num(8.0)],
//!     &iface.ecv_env(), 64, &EvalConfig::default(),
//! ).unwrap();
//! // E = 0.8 * 40 mJ + 0.2 * 800 mJ = 192 mJ.
//! assert!((dist.mean().as_joules() - 0.192).abs() < 1e-12);
//! ```

pub mod analysis;
pub mod ast;
pub mod cache;
pub mod compose;
pub mod dist;
pub mod ecv;
pub mod error;
pub mod interface;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod registry;
pub mod sema;
pub mod span;
pub mod stack;
pub mod units;
pub mod value;
pub mod vm;

pub use cache::EvalCache;
pub use dist::EnergyDist;
pub use error::{Error, Result};
pub use interface::{InputSpec, Interface};
pub use registry::{InterfaceRegistry, InterfaceVersion};
pub use units::{Calibration, Energy, EnergyVec, Power, TimeSpan};
pub use value::Value;
