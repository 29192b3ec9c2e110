//! Minimal CSV export for waveforms (shared time axis), so experiment
//! harnesses can dump the series behind each regenerated figure.

use crate::wave::{Waveform, WaveformError};
use std::io::{self, Write};

/// Writes `traces` (name, waveform) sharing one time axis as CSV:
/// `time,<name1>,<name2>,...`.
///
/// # Errors
///
/// Returns an I/O error from the writer, or panics never; a
/// [`WaveformError::TimeAxisMismatch`] is reported as `InvalidData`.
pub fn write_csv<W: Write>(mut out: W, traces: &[(&str, &Waveform)]) -> io::Result<()> {
    if traces.is_empty() {
        return Ok(());
    }
    let time = traces[0].1.time();
    for (name, w) in traces {
        if w.time().len() != time.len()
            || w.time()
                .iter()
                .zip(time)
                .any(|(a, b)| (a - b).abs() > 1e-21)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                WaveformError::TimeAxisMismatch.to_string() + " for trace " + name,
            ));
        }
    }
    write!(out, "time")?;
    for (name, _) in traces {
        write!(out, ",{name}")?;
    }
    writeln!(out)?;
    for (i, &t) in time.iter().enumerate() {
        write!(out, "{t:.9e}")?;
        for (_, w) in traces {
            write!(out, ",{:.6e}", w.values()[i])?;
        }
        writeln!(out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows() {
        let w1 = Waveform::new(vec![0.0, 1.0], vec![1.0, 2.0]).unwrap();
        let w2 = Waveform::new(vec![0.0, 1.0], vec![3.0, 4.0]).unwrap();
        let mut buf = Vec::new();
        write_csv(&mut buf, &[("a", &w1), ("b", &w2)]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("time,a,b"));
        assert_eq!(lines.count(), 2);
        assert!(text.contains("1.000000e0") || text.contains("1e0") || text.contains("1.0"));
    }

    #[test]
    fn rejects_mismatched_axes() {
        let w1 = Waveform::new(vec![0.0, 1.0], vec![1.0, 2.0]).unwrap();
        let w2 = Waveform::new(vec![0.0, 2.0], vec![3.0, 4.0]).unwrap();
        let mut buf = Vec::new();
        assert!(write_csv(&mut buf, &[("a", &w1), ("b", &w2)]).is_err());
    }

    #[test]
    fn empty_trace_list_is_noop() {
        let mut buf = Vec::new();
        write_csv(&mut buf, &[]).unwrap();
        assert!(buf.is_empty());
    }
}
