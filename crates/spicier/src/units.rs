//! Engineering-notation parsing and formatting for component values.
//!
//! SPICE decks write `4k` for 4 kΩ and `10p` for 10 pF; this module provides
//! the same conventions so tests, examples and experiment logs can speak the
//! paper's language ("a 4 KΩ pipe on Q3", "10 pF load").

use crate::error::Error;

/// Multiplier suffixes accepted by [`parse_value`], largest first so that
/// `meg` wins over `m`.
const SUFFIXES: &[(&str, f64)] = &[
    ("meg", 1e6),
    ("t", 1e12),
    ("g", 1e9),
    ("k", 1e3),
    ("m", 1e-3),
    ("u", 1e-6),
    ("n", 1e-9),
    ("p", 1e-12),
    ("f", 1e-15),
];

/// Parses an engineering-notation value such as `"4k"`, `"10p"`, `"1.5meg"`
/// or a plain number `"0.25"`.
///
/// Suffixes are case-insensitive and trailing unit letters after the suffix
/// are ignored (`"4kohm"` parses as `4000.0`), matching SPICE behaviour.
///
/// # Errors
///
/// Returns [`Error::ParseValue`] when the text does not start with a valid
/// decimal number.
///
/// # Examples
///
/// ```
/// use spicier::units::parse_value;
///
/// # fn main() -> Result<(), spicier::Error> {
/// assert_eq!(parse_value("4k")?, 4.0e3);
/// assert_eq!(parse_value("10p")?, 10.0e-12);
/// assert_eq!(parse_value("1.5meg")?, 1.5e6);
/// assert_eq!(parse_value("-250m")?, -0.25);
/// # Ok(())
/// # }
/// ```
pub fn parse_value(text: &str) -> Result<f64, Error> {
    let trimmed = text.trim();
    let bytes = trimmed.as_bytes();
    let mut end = 0;
    // Accept an optional sign, digits, one decimal point, and an exponent.
    let mut seen_digit = false;
    let mut seen_dot = false;
    while end < bytes.len() {
        let b = bytes[end];
        match b {
            b'0'..=b'9' => {
                seen_digit = true;
                end += 1;
            }
            b'+' | b'-' if end == 0 => end += 1,
            b'.' if !seen_dot => {
                seen_dot = true;
                end += 1;
            }
            b'e' | b'E' if seen_digit => {
                // Exponent only counts when followed by digits (optionally
                // signed); otherwise `e` would swallow unit text.
                let mut k = end + 1;
                if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
                    k += 1;
                }
                if k < bytes.len() && bytes[k].is_ascii_digit() {
                    end = k + 1;
                    while end < bytes.len() && bytes[end].is_ascii_digit() {
                        end += 1;
                    }
                }
                break;
            }
            _ => break,
        }
    }
    if !seen_digit {
        return Err(Error::ParseValue(text.to_string()));
    }
    let mantissa: f64 = trimmed[..end]
        .parse()
        .map_err(|_| Error::ParseValue(text.to_string()))?;
    let rest = &bytes[end..];
    for (suffix, mult) in SUFFIXES {
        if rest
            .get(..suffix.len())
            .is_some_and(|r| r.eq_ignore_ascii_case(suffix.as_bytes()))
        {
            return Ok(mantissa * mult);
        }
    }
    Ok(mantissa)
}

/// Formats a value with an engineering-notation suffix and the given unit,
/// e.g. `format_eng(4.0e3, "Ω") == "4 kΩ"` and
/// `format_eng(5.3e-11, "s") == "53 ps"`.
///
/// # Examples
///
/// ```
/// use spicier::units::format_eng;
///
/// assert_eq!(format_eng(4.0e3, "Ω"), "4 kΩ");
/// assert_eq!(format_eng(250.0e-3, "V"), "250 mV");
/// assert_eq!(format_eng(0.0, "s"), "0 s");
/// ```
pub fn format_eng(value: f64, unit: &str) -> String {
    if value == 0.0 {
        return format!("0 {unit}");
    }
    let magnitude = value.abs();
    let scales: &[(f64, &str)] = &[
        (1e12, "T"),
        (1e9, "G"),
        (1e6, "M"),
        (1e3, "k"),
        (1.0, ""),
        (1e-3, "m"),
        (1e-6, "µ"),
        (1e-9, "n"),
        (1e-12, "p"),
        (1e-15, "f"),
    ];
    for (scale, prefix) in scales {
        if magnitude >= *scale {
            let scaled = value / scale;
            // Print with the fewest digits that round-trip reasonably.
            let text = if (scaled - scaled.round()).abs() < 1e-9 * scaled.abs().max(1.0) {
                format!("{}", scaled.round())
            } else {
                format!("{scaled:.3}")
                    .trim_end_matches('0')
                    .trim_end_matches('.')
                    .to_string()
            };
            return format!("{text} {prefix}{unit}");
        }
    }
    format!("{value:.3e} {unit}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_numbers() {
        assert_eq!(parse_value("42").unwrap(), 42.0);
        assert_eq!(parse_value("-0.25").unwrap(), -0.25);
        assert_eq!(parse_value("1e-3").unwrap(), 1e-3);
        assert_eq!(parse_value("2.5e6").unwrap(), 2.5e6);
    }

    #[test]
    fn parses_suffixes() {
        assert_eq!(parse_value("4k").unwrap(), 4.0e3);
        assert_eq!(parse_value("100MEG").unwrap(), 100.0e6);
        assert_eq!(parse_value("1f").unwrap(), 1.0e-15);
        assert_eq!(parse_value("160k").unwrap(), 160.0e3);
        assert_eq!(parse_value("10pF").unwrap(), 10.0e-12);
        assert_eq!(parse_value("3.7").unwrap(), 3.7);
    }

    #[test]
    fn meg_beats_m() {
        assert_eq!(parse_value("1meg").unwrap(), 1.0e6);
        assert_eq!(parse_value("1m").unwrap(), 1.0e-3);
    }

    #[test]
    fn ignores_trailing_units() {
        assert_eq!(parse_value("4kohm").unwrap(), 4.0e3);
        assert_eq!(parse_value("3.3v").unwrap(), 3.3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("").is_err());
        assert!(parse_value("ohm").is_err());
        assert!(parse_value("--3").is_err());
    }

    #[test]
    fn formats_engineering() {
        assert_eq!(format_eng(4.0e3, "Ω"), "4 kΩ");
        assert_eq!(format_eng(5.3e-11, "s"), "53 ps");
        assert_eq!(format_eng(-0.25, "V"), "-250 mV");
        assert_eq!(format_eng(1.0e8, "Hz"), "100 MHz");
    }

    #[test]
    fn parse_format_round_trip() {
        for v in [1.0, 4.0e3, 2.5e-12, 160.0e3, 3.3] {
            let s = format_eng(v, "");
            let compact: String = s.chars().filter(|c| !c.is_whitespace()).collect();
            // `format_eng` uses upper-case prefixes; parse is case-insensitive
            // except `M` which SPICE reads as milli, so translate it back.
            let compact = compact.replace('M', "meg").replace('µ', "u");
            let parsed = parse_value(&compact).unwrap();
            assert!(
                (parsed - v).abs() <= 1e-6 * v.abs(),
                "round trip {v} -> {s} -> {parsed}"
            );
        }
    }
}
