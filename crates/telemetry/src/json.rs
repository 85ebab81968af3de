//! The workspace's one JSON writer: objects, arrays, escaped strings,
//! finite numbers. Compact output (no whitespace), commas placed by
//! the writer, so a renderer is a flat list of `key(..).value(..)`
//! calls and cannot emit a stray or missing separator. The repo builds
//! offline and std-only, hence no serde; every `*-v1` document the
//! stack serves or commits is rendered through this type.

use std::fmt::Write as _;

/// Appends compact JSON to an owned string.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
}

impl JsonWriter {
    /// An empty document.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// A value follows: writes the separating comma unless the value
    /// opens its container or follows its key.
    fn sep(&mut self) {
        if !matches!(self.out.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.out.push(',');
        }
    }

    /// Opens an object (as a value).
    pub fn begin_object(&mut self) -> &mut Self {
        self.sep();
        self.out.push('{');
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.out.push('}');
        self
    }

    /// Opens an array (as a value).
    pub fn begin_array(&mut self) -> &mut Self {
        self.sep();
        self.out.push('[');
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.out.push(']');
        self
    }

    /// An object member's name; the member's value must follow.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.string(name);
        self.out.push(':');
        self
    }

    /// A string value, escaped per RFC 8259 (quote, backslash and
    /// control characters; everything else, non-ASCII included, is
    /// passed through as UTF-8).
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self
    }

    /// An unsigned integer value.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// A number with `decimals` fractional digits; JSON has no NaN or
    /// infinity, so a non-finite `v` is written as `null`.
    pub fn float(&mut self, v: f64, decimals: usize) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        self.sep();
        let _ = write!(self.out, "{v:.decimals$}");
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.sep();
        self.out.push_str("null");
        self
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut w = JsonWriter::new();
        w.string("say \"hi\"\\ \n\r\t\u{1}\u{1f} é→λ");
        assert_eq!(
            w.finish(),
            "\"say \\\"hi\\\"\\\\ \\n\\r\\t\\u0001\\u001f é→λ\""
        );
    }

    #[test]
    fn commas_follow_nesting() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a").uint(1);
        w.key("b").begin_array();
        w.begin_object().end_object();
        w.begin_object().key("c").null().key("d").bool(true);
        w.end_object();
        w.begin_array().end_array();
        w.string("s").uint(2);
        w.end_array();
        w.key("e").begin_object().end_object();
        w.key("f").string("{[:");
        w.key("g").bool(false);
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\"a\":1,\"b\":[{},{\"c\":null,\"d\":true},[],\"s\",2],\"e\":{},\"f\":\"{[:\",\"g\":false}"
        );
    }

    #[test]
    fn floats_are_fixed_point_and_non_finite_is_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.float(1234.5678, 1).float(0.125, 3).float(7.0, 0);
        w.float(f64::NAN, 2)
            .float(f64::INFINITY, 2)
            .float(f64::NEG_INFINITY, 0);
        w.end_array();
        assert_eq!(w.finish(), "[1234.6,0.125,7,null,null,null]");
    }
}
