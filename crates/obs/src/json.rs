//! Minimal JSON emission: the workspace's one escaper and writer.
//!
//! The workspace is offline and dependency-free, so the daemon's HTTP
//! responses, the flight-recorder dump and the JSONL metric exposition
//! are built with a small by-hand writer instead of a serde stack. Only
//! what those need exists: string escaping per RFC 8259 and ergonomic
//! object/array builders that keep the endpoint code readable. Numbers
//! are written via `Display` (all integers or finite floats here),
//! booleans and `null` literally.

/// Escapes `s` as the *contents* of a JSON string (no surrounding
/// quotes): `"`, `\` and control characters become escape sequences,
/// everything else passes through as UTF-8.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a quoted JSON string.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// An object under construction — fields render in insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds a field whose value is already-rendered JSON.
    #[must_use]
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Adds a string field (escaped).
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Self {
        let rendered = string(value);
        self.raw(key, rendered)
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    /// Adds a float field (`null` when not finite — JSON has no NaN).
    #[must_use]
    pub fn f64(self, key: &str, value: f64) -> Self {
        if value.is_finite() {
            self.raw(key, format!("{value}"))
        } else {
            self.raw(key, "null")
        }
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Adds an optional unsigned field (`null` when absent).
    #[must_use]
    pub fn opt_u64(self, key: &str, value: Option<u64>) -> Self {
        match value {
            Some(v) => self.u64(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// Renders the object.
    pub fn build(self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&string(k));
            out.push(':');
            out.push_str(v);
        }
        out.push('}');
        out
    }
}

/// Renders an array of already-rendered JSON values.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(string("ok"), "\"ok\"");
    }

    #[test]
    fn builds_nested_values() {
        let inner = Obj::new().u64("n", 3).bool("ok", true).build();
        let outer = Obj::new()
            .str("name", "x")
            .raw("rows", array(vec![inner]))
            .f64("ratio", 0.5)
            .opt_u64("missing", None)
            .build();
        assert_eq!(
            outer,
            "{\"name\":\"x\",\"rows\":[{\"n\":3,\"ok\":true}],\
             \"ratio\":0.5,\"missing\":null}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Obj::new().f64("v", f64::NAN).build(), "{\"v\":null}");
    }
}
