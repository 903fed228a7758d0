//! A compact JSON writer — the one emitter behind every `to_json` in
//! `pcnn-runtime`, `pcnn-serve`, the serving example and the benches
//! (the workspace takes no serialisation dependency, and this is the
//! lowest crate that emits JSON).
//!
//! Output has no whitespace, keys appear in call order, and containers
//! only exist as closures ([`object`], [`Obj::object`], [`Obj::array`]),
//! so an unbalanced document cannot be written. Floats are either
//! fixed-decimal ([`Obj::fixed`]) or shortest round-trip
//! ([`Obj::float`]); a non-finite float renders as `null` either way.
//! An already-serialised value embeds verbatim with [`Obj::raw`] /
//! [`Arr::raw`] — how a parent document nests a child's `to_json()` —
//! and [`Obj::extend`] splices a serialised object's members in.
//!
//! ```
//! use pcnn_runtime::json;
//!
//! let doc = json::object(|o| {
//!     o.str("name", "conv \"1\"")
//!         .int("calls", 3u64)
//!         .fixed("mean_ms", 1.23456, 3)
//!         .array("shape", |a| {
//!             a.int(3usize).int(32usize);
//!         })
//!         .object("nested", |n| {
//!             n.fixed("nan", f64::NAN, 1);
//!         });
//! });
//! assert_eq!(
//!     doc,
//!     r#"{"name":"conv \"1\"","calls":3,"mean_ms":1.235,"shape":[3,32],"nested":{"nan":null}}"#
//! );
//! ```

use std::fmt::{Display, Write as _};

/// The integer types the writer accepts (rendered with `Display`).
pub trait Integer: Copy + Display {}
impl Integer for u8 {}
impl Integer for u16 {}
impl Integer for u32 {}
impl Integer for u64 {}
impl Integer for usize {}
impl Integer for i32 {}
impl Integer for i64 {}

/// Builds one JSON object and returns it as a string.
pub fn object(fill: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, fill);
    out
}

fn write_object(out: &mut String, fill: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    fill(&mut Obj { out, empty: true });
    out.push('}');
}

fn write_array(out: &mut String, fill: impl FnOnce(&mut Arr<'_>)) {
    out.push('[');
    fill(&mut Arr { out, empty: true });
    out.push(']');
}

/// Appends `s` as a JSON string literal: `"` and `\` escaped, control
/// characters as `\n` / `\r` / `\t` or `\u00XX`.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a float — `decimals` fixed places, or shortest round-trip
/// when `None`; `null` when the value is NaN or infinite.
fn write_float(out: &mut String, v: f64, decimals: Option<usize>) {
    let _ = match decimals {
        _ if !v.is_finite() => write!(out, "null"),
        Some(d) => write!(out, "{v:.d$}"),
        None => write!(out, "{v}"),
    };
}

/// A JSON object being written: every method appends one `"key":value`
/// member and returns `self` for chaining.
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Obj<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// An integer member.
    pub fn int(&mut self, key: &str, v: impl Integer) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// A float member with exactly `decimals` fractional digits.
    pub fn fixed(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        write_float(self.key(key), v, Some(decimals));
        self
    }

    /// A float member in shortest round-trip form (`1`, `0.999`).
    pub fn float(&mut self, key: &str, v: f64) -> &mut Self {
        write_float(self.key(key), v, None);
        self
    }

    /// A string member, escaped.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        write_str(self.key(key), v);
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// A `null` member.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// A member whose value is already-serialised JSON, embedded as is.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// Every member of an already-serialised JSON object, spliced in
    /// as is — how a report extends a child document with more keys.
    pub fn extend(&mut self, object_json: &str) -> &mut Self {
        let members = object_json
            .strip_prefix('{')
            .and_then(|rest| rest.strip_suffix('}'))
            .expect("extend takes a serialised JSON object");
        if !members.is_empty() {
            if !std::mem::take(&mut self.empty) {
                self.out.push(',');
            }
            self.out.push_str(members);
        }
        self
    }

    /// A nested object member.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_object(self.key(key), fill);
        self
    }

    /// An array member.
    pub fn array(&mut self, key: &str, fill: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        write_array(self.key(key), fill);
        self
    }

    /// An array member holding one already-serialised value per item —
    /// the common "list of children" shape.
    pub fn raw_array<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        to_json: impl Fn(T) -> String,
    ) -> &mut Self {
        self.array(key, |a| {
            for item in items {
                a.raw(&to_json(item));
            }
        })
    }
}

/// A JSON array being written: every method appends one element.
pub struct Arr<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Arr<'_> {
    fn item(&mut self) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out
    }

    /// An integer element.
    pub fn int(&mut self, v: impl Integer) -> &mut Self {
        let _ = write!(self.item(), "{v}");
        self
    }

    /// An already-serialised element, embedded as is.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.item().push_str(json);
        self
    }

    /// A nested object element.
    pub fn object(&mut self, fill: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_object(self.item(), fill);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let doc = object(|o| {
            o.str("k\"ey", "a\"b\\c\nd\re\tf\u{1}g\u{1f}h é");
        });
        assert_eq!(
            doc, r#"{"k\"ey":"a\"b\\c\nd\re\tf\u0001g\u001fh é"}"#,
            "both keys and values go through the escaper"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let doc = object(|o| {
            o.fixed("nan", f64::NAN, 3)
                .fixed("inf", f64::INFINITY, 0)
                .float("ninf", f64::NEG_INFINITY)
                .fixed("ok", 2.0, 2);
        });
        assert_eq!(doc, r#"{"nan":null,"inf":null,"ninf":null,"ok":2.00}"#);
    }

    #[test]
    fn floats_round_to_fixed_places_or_print_shortest() {
        let doc = object(|o| {
            o.fixed("a", 1.23456, 3)
                .fixed("b", 0.5, 0)
                .float("c", 1.0)
                .float("d", 0.999)
                .int("e", -7i64);
        });
        assert_eq!(doc, r#"{"a":1.235,"b":0,"c":1,"d":0.999,"e":-7}"#);
    }

    #[test]
    fn nested_containers_are_balanced_and_comma_separated() {
        let doc = object(|o| {
            o.object("empty", |_| {})
                .array("none", |_| {})
                .array("mixed", |a| {
                    a.int(1u8).raw("{\"pre\":\"built\"}").object(|n| {
                        n.bool("deep", true).null("gone");
                    });
                })
                .raw_array("kids", [1u32, 2], |k| {
                    object(|c| {
                        c.int("k", k);
                    })
                })
                .extend("{}")
                .extend(r#"{"x":1,"y":[2]}"#)
                .raw("tail", "[]");
        });
        assert_eq!(
            doc,
            concat!(
                r#"{"empty":{},"none":[],"mixed":[1,{"pre":"built"},{"deep":true,"gone":null}],"#,
                r#""kids":[{"k":1},{"k":2}],"x":1,"y":[2],"tail":[]}"#
            )
        );
        let depth = doc.chars().fold(0i32, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }
}
