//! The workspace's one JSON string writer.
//!
//! There is no serde in the build environment, so every JSON document
//! the simulator emits (Chrome traces, the metrics registry, the sweep
//! summaries and Pareto dumps, the attack matrix) is assembled with
//! `format!`. Numbers and booleans need no help; every *string* goes
//! through [`JsonStr`], so a compartment, workload or space name that
//! carries a quote, a backslash or a control character still yields a
//! document a JSON parser accepts.

use std::fmt::{self, Write as _};

/// Displays the wrapped text as a JSON string literal, quotes
/// included: `"` and `\` are backslash-escaped, control characters
/// become `\n`/`\r`/`\t` or `\u00XX`, everything else (non-ASCII
/// included) passes through.
#[derive(Debug, Clone, Copy)]
pub struct JsonStr<'a>(pub &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        // Everything that needs escaping is one ASCII byte, so clean
        // runs between such bytes are written whole.
        let mut clean = 0;
        for (i, byte) in self.0.bytes().enumerate() {
            let escape = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            f.write_str(&self.0[clean..i])?;
            if escape.is_empty() {
                write!(f, "\\u{byte:04x}")?;
            } else {
                f.write_str(escape)?;
            }
            clean = i + 1;
        }
        f.write_str(&self.0[clean..])?;
        f.write_char('"')
    }
}

#[cfg(test)]
mod tests {
    use super::JsonStr;

    #[test]
    fn strings_are_quoted_and_escaped() {
        assert_eq!(JsonStr("lwip").to_string(), "\"lwip\"");
        assert_eq!(JsonStr("c\"2\\").to_string(), r#""c\"2\\""#);
        assert_eq!(JsonStr("a\nb\tc\r").to_string(), r#""a\nb\tc\r""#);
        assert_eq!(JsonStr("\u{1}").to_string(), "\"\\u0001\"");
        assert_eq!(JsonStr("\u{1f}").to_string(), "\"\\u001f\"");
        // Non-ASCII is legal inside a JSON string as is.
        assert_eq!(JsonStr("[•◦] café").to_string(), "\"[•◦] café\"");
        assert_eq!(JsonStr("").to_string(), "\"\"");
    }
}
