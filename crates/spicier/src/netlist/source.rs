//! Time-dependent waveforms for independent sources.

/// Waveform of an independent voltage or current source.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceWave {
    /// Constant value.
    Dc(f64),
    /// SPICE `PULSE(v1 v2 delay rise fall width period)`.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge, seconds.
        delay: f64,
        /// Rise time, seconds.
        rise: f64,
        /// Fall time, seconds.
        fall: f64,
        /// Pulse width (time at `v2`), seconds.
        width: f64,
        /// Repetition period, seconds.
        period: f64,
    },
    /// SPICE `SIN(offset amplitude freq delay)`.
    Sin {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        amplitude: f64,
        /// Frequency, hertz.
        freq: f64,
        /// Delay before oscillation starts, seconds.
        delay: f64,
    },
    /// Piecewise-linear `(time, value)` points, sorted by time.
    Pwl(Vec<(f64, f64)>),
}

impl SourceWave {
    /// Builds a symmetric square-ish pulse train that toggles at `freq`
    /// between `v1` and `v2`, with edges taking `edge_frac` of the half
    /// period (a convenient driver for CML gate chains).
    pub fn square(v1: f64, v2: f64, freq: f64, edge_frac: f64) -> Self {
        let period = 1.0 / freq;
        let edge = edge_frac * period / 2.0;
        SourceWave::Pulse {
            v1,
            v2,
            delay: 0.0,
            rise: edge,
            fall: edge,
            width: period / 2.0 - edge,
            period,
        }
    }

    /// Source value at time `t` (clamped to the DC value for `t < 0`).
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            SourceWave::Dc(v) => *v,
            SourceWave::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v1;
                }
                let tau = (t - delay) % period;
                if tau < *rise {
                    if *rise == 0.0 {
                        *v2
                    } else {
                        v1 + (v2 - v1) * tau / rise
                    }
                } else if tau < rise + width {
                    *v2
                } else if tau < rise + width + fall {
                    if *fall == 0.0 {
                        *v1
                    } else {
                        v2 + (v1 - v2) * (tau - rise - width) / fall
                    }
                } else {
                    *v1
                }
            }
            SourceWave::Sin {
                offset,
                amplitude,
                freq,
                delay,
            } => {
                if t < *delay {
                    *offset
                } else {
                    offset + amplitude * (2.0 * std::f64::consts::PI * freq * (t - delay)).sin()
                }
            }
            SourceWave::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t <= t1 {
                        if t1 == t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().map(|&(_, v)| v).unwrap_or(0.0)
            }
        }
    }

    /// Value used for the DC operating point (the value at `t = 0`).
    pub fn dc_value(&self) -> f64 {
        self.value_at(0.0)
    }

    /// The `(delay, period)` of a repeating pulse train: a `Pulse` with a
    /// positive period. `None` for every other wave.
    pub(crate) fn pulse_period(&self) -> Option<(f64, f64)> {
        match self {
            SourceWave::Pulse { delay, period, .. } if *period > 0.0 => Some((*delay, *period)),
            _ => None,
        }
    }

    /// The start times of a pulse train's pulses below `t_stop`: `delay`,
    /// then `delay + period`, ... accumulated one period at a time. A
    /// non-positive `period` yields `delay` alone. [`breakpoints`] and the
    /// transient stepper's period boundaries both come from here, so a
    /// boundary equals its breakpoint bit for bit.
    ///
    /// [`breakpoints`]: SourceWave::breakpoints
    pub(crate) fn pulse_starts(delay: f64, period: f64, t_stop: f64) -> impl Iterator<Item = f64> {
        std::iter::successors(Some(delay), move |&start| {
            (period > 0.0).then_some(start + period)
        })
        .take_while(move |&start| start < t_stop)
    }

    /// Appends slope-discontinuity times in `(0, t_stop]` to `out` so the
    /// transient engine can land on them exactly.
    pub fn breakpoints(&self, t_stop: f64, out: &mut Vec<f64>) {
        match self {
            SourceWave::Dc(_) => {}
            SourceWave::Pulse {
                delay,
                rise,
                fall,
                width,
                period,
                ..
            } => {
                for start in Self::pulse_starts(*delay, *period, t_stop) {
                    for offset in [0.0, *rise, rise + width, rise + width + fall] {
                        let t = start + offset;
                        if t > 0.0 && t <= t_stop {
                            out.push(t);
                        }
                    }
                }
            }
            SourceWave::Sin { delay, .. } => {
                if *delay > 0.0 && *delay <= t_stop {
                    out.push(*delay);
                }
            }
            SourceWave::Pwl(points) => {
                for &(t, _) in points {
                    if t > 0.0 && t <= t_stop {
                        out.push(t);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_flat() {
        let w = SourceWave::Dc(3.3);
        assert_eq!(w.value_at(0.0), 3.3);
        assert_eq!(w.value_at(1.0), 3.3);
        assert_eq!(w.dc_value(), 3.3);
        let mut bp = Vec::new();
        w.breakpoints(1.0, &mut bp);
        assert!(bp.is_empty());
    }

    #[test]
    fn pulse_shape() {
        let w = SourceWave::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1.0,
            rise: 0.5,
            fall: 0.5,
            width: 1.0,
            period: 4.0,
        };
        assert_eq!(w.value_at(0.0), 0.0);
        assert_eq!(w.value_at(1.25), 0.5); // mid-rise
        assert_eq!(w.value_at(2.0), 1.0); // plateau
        assert_eq!(w.value_at(2.75), 0.5); // mid-fall
        assert_eq!(w.value_at(3.5), 0.0); // back to v1
        assert_eq!(w.value_at(5.25), 0.5); // periodic repeat
    }

    #[test]
    fn square_toggles_at_frequency() {
        let f = 100.0e6;
        let w = SourceWave::square(3.05, 3.3, f, 0.1);
        let period = 1.0 / f;
        assert_eq!(w.value_at(0.3 * period), 3.3);
        assert_eq!(w.value_at(0.8 * period), 3.05);
        assert_eq!(w.value_at(1.3 * period), 3.3);
    }

    #[test]
    fn pulse_breakpoints_cover_edges() {
        let w = SourceWave::square(0.0, 1.0, 1.0e8, 0.1);
        let mut bp = Vec::new();
        w.breakpoints(2.0e-8, &mut bp);
        // Two periods, four corners each (t=0 corner excluded).
        assert!(bp.len() >= 7, "breakpoints: {bp:?}");
        assert!(bp.iter().all(|&t| t > 0.0 && t <= 2.0e-8));
    }

    #[test]
    fn sin_value() {
        let w = SourceWave::Sin {
            offset: 1.0,
            amplitude: 2.0,
            freq: 1.0,
            delay: 0.0,
        };
        assert!((w.value_at(0.25) - 3.0).abs() < 1e-12);
        assert!((w.value_at(0.75) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = SourceWave::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)]);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(0.5), 1.0);
        assert_eq!(w.value_at(2.0), 2.0);
        assert_eq!(w.value_at(9.0), 2.0);
        let mut bp = Vec::new();
        w.breakpoints(10.0, &mut bp);
        assert_eq!(bp, vec![1.0, 3.0]);
    }

    #[test]
    fn zero_rise_pulse_does_not_divide_by_zero() {
        let w = SourceWave::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: 0.0,
            fall: 0.0,
            width: 0.5,
            period: 1.0,
        };
        assert_eq!(w.value_at(0.0), 1.0);
        assert_eq!(w.value_at(0.25), 1.0);
        assert_eq!(w.value_at(0.75), 0.0);
    }
}
