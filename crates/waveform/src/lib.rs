//! Waveform storage and measurement.
//!
//! The paper's evaluation is phrased entirely in waveform measurements:
//! propagation delays at a fixed crossing voltage (Table 1), delays at the
//! *actual* differential crossing (Table 2), low/high levels and swing
//! versus frequency (Figure 5), detector time-to-stability and post-
//! stability maximum (Figures 7, 8, 10). This crate provides those
//! measurements on sampled traces, independent of the simulator that
//! produced them.
//!
//! # Example
//!
//! ```
//! use waveform::{Edge, Waveform};
//!
//! # fn main() -> Result<(), waveform::WaveformError> {
//! // A 1 V ramp from t = 0 to 1 s.
//! let w = Waveform::new(vec![0.0, 1.0], vec![0.0, 1.0])?;
//! let crossings = w.crossings(0.5, Edge::Rising);
//! assert_eq!(crossings, vec![0.5]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod csv;
mod measure;
mod spectrum;
mod wave;

pub use csv::write_csv;
pub use measure::{
    differential_crossings, differential_delay, propagation_delay, LevelStats, SettlingInfo,
    StabilityOptions, StabilityResult,
};
pub use spectrum::Spectrum;
pub use wave::{Edge, Waveform, WaveformError};
