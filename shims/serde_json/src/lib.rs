//! Offline shim for the `serde_json` crate: a JSON value tree, the
//! `json!` macro over flat/nested objects, pretty printing, and a
//! minimal [`from_str`] parser (always targeting [`Value`]). No serde
//! derive integration: write-only records are `json!` literals, and a
//! record that is written *and* read back is declared once with
//! [`record!`].
//!
//! # The `record!` / [`FromJson`] contract
//!
//! [`FromJson`] is the inverse of [`ToJson`], strict and exact: a
//! mistyped value is an error, and an integer target rejects a
//! fractional, negative or out-of-range number (`u64` only up to 2^53)
//! instead of rounding it. `record! { T { field, ... } }` implements both
//! traits from one field list. A field is keyed by its own name unless
//! `as "key"` renames it; `with m` routes it through an *adapter* module
//! `m` (`to_json(&F) -> Value`, `from_json(&Value) -> Result<F, Error>`);
//! `or expr` is what a missing key decodes to, and without it a missing
//! key is an error. Errors name the key path. Unlisted fields are
//! neither written nor read: decoding starts from `T::default()`, and a
//! `then |r| ...` hook rederives them. `record! { mod m for T { ... } }`
//! emits the pair as adapter module `m`, for a foreign `T`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

/// JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All numbers carry an f64; integers print without a fraction.
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

impl Value {
    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Object map (sorted keys — deterministic output).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: BTreeMap<String, Value>,
}

impl Map {
    pub fn new() -> Self {
        Map::default()
    }

    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.entries.insert(key, value)
    }

    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.entries.remove(key)
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.get(key)
    }

    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries.get_mut(key)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter()
    }

    /// Moves every entry of `other` into `self`.
    pub fn append(&mut self, mut other: Map) {
        self.entries.append(&mut other.entries);
    }

    /// `self[key]` decoded as a `T` (the [`record!`] field read): a
    /// missing key reads as `default`, or is an error without one.
    pub fn field<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&Value) -> Result<T, Error>,
        default: Option<T>,
    ) -> Result<T, Error> {
        match self.get(key) {
            Some(v) => decode(v).map_err(|e| Error::new(format!("field {key:?}: {e}"))),
            None => default.ok_or_else(|| Error::new(format!("field {key:?}: missing"))),
        }
    }
}

/// Conversion into a [`Value`] by reference (what `json!` leaves call).
pub trait ToJson {
    fn to_json(&self) -> Value;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Value {
        Value::String((*self).to_string())
    }
}

macro_rules! tojson_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
    )*};
}
tojson_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (*self).to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for BTreeSet<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// Converts any [`ToJson`] into a [`Value`] (shim analog of
/// `serde_json::to_value`, but infallible).
pub fn to_value<T: ToJson + ?Sized>(v: &T) -> Value {
    v.to_json()
}

/// Conversion out of a [`Value`], the inverse of [`ToJson`]: strict and
/// exact (see the module docs).
pub trait FromJson: Sized {
    fn from_json(v: &Value) -> Result<Self, Error>;
}

fn mistyped(want: &str, got: &Value) -> Error {
    let got = got.to_string();
    Error::new(format!("expected {want}, got {got}"))
}

macro_rules! fromjson_leaf {
    ($($t:ty: $pat:pat => $v:expr, $want:literal;)*) => {$(
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, Error> {
                match v {
                    $pat => Ok($v),
                    _ => Err(mistyped($want, v)),
                }
            }
        }
    )*};
}
impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

fromjson_leaf! {
    bool: Value::Bool(b) => *b, "a boolean";
    String: Value::String(s) => s.clone(), "a string";
    f64: Value::Number(n) => *n, "a number";
}

/// Integers above 2^53 do not survive the f64 round trip.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

macro_rules! fromjson_uint {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n)
                        if n.fract() == 0.0 && *n >= 0.0 && *n <= MAX_EXACT.min(<$t>::MAX as f64) =>
                    {
                        Ok(*n as $t)
                    }
                    _ => Err(mistyped(concat!("an integer in ", stringify!($t), " range"), v)),
                }
            }
        }
    )*};
}
fromjson_uint!(u8, u32, u64, usize);

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            _ => Err(mistyped("an array", v)),
        }
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        Ok(Vec::from_json(v)?.into_iter().collect())
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match Vec::<Value>::from_json(v)?.as_slice() {
            [a, b] => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(mistyped("a pair", v)),
        }
    }
}

/// Declares a JSON record from one field list; see the module docs.
#[macro_export]
macro_rules! record {
    (@enc $r:ident { $($f:ident $(as $k:literal)? $(with $a:ident)? $(or $d:expr)?),* $(,)? }) => {{
        let mut m = $crate::Map::new();
        $( m.insert($crate::record!(@key $f $($k)?).to_string(), $crate::record!(@to $r.$f $(, $a)?)); )*
        $crate::Value::Object(m)
    }};
    (@dec $v:ident $ty:ty { $($f:ident $(as $k:literal)? $(with $a:ident)? $(or $d:expr)?),* $(,)? }
        $(then $fix:expr)?) => {{
        let $crate::Value::Object(m) = $v else {
            return Err($crate::Error::custom(concat!("expected a ", stringify!($ty), " object")));
        };
        let mut r = <$ty>::default();
        $( r.$f = m.field($crate::record!(@key $f $($k)?), $crate::record!(@from $($a)?),
            $crate::record!(@or $($d)?))?; )*
        $( let fix: fn(&mut $ty) = $fix; fix(&mut r); )?
        Ok(r)
    }};
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $k:literal) => { $k };
    (@to $v:expr) => { $crate::ToJson::to_json(&$v) };
    (@to $v:expr, $a:ident) => { $a::to_json(&$v) };
    (@from) => { $crate::FromJson::from_json };
    (@from $a:ident) => { $a::from_json };
    (@or) => { None };
    (@or $d:expr) => { Some($d) };
    (mod $m:ident for $ty:ty { $($fields:tt)* } $(then $fix:expr)?) => {
        mod $m {
            use super::*;
            pub fn to_json(r: &$ty) -> $crate::Value {
                $crate::record!(@enc r { $($fields)* })
            }
            pub fn from_json(v: &$crate::Value) -> Result<$ty, $crate::Error> {
                $crate::record!(@dec v $ty { $($fields)* } $(then $fix)?)
            }
        }
    };
    ($ty:ty { $($fields:tt)* } $(then $fix:expr)?) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::record!(@enc self { $($fields)* })
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> Result<Self, $crate::Error> {
                $crate::record!(@dec v $ty { $($fields)* } $(then $fix)?)
            }
        }
    };
}

/// Build a [`Value`] with JSON-ish syntax. Supports `null`, object
/// literals with string-literal keys, array literals, nesting, and
/// arbitrary Rust expressions (converted via [`ToJson`]) in value
/// position.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut)]
        let mut m = $crate::Map::new();
        $crate::json!(@object m $($body)*);
        $crate::Value::Object(m)
    }};
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$elem) ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other) };

    // -- object muncher: `"key": value, ...` with nested {}/[]/null ----
    (@object $m:ident) => {};
    (@object $m:ident $key:literal : null $(, $($rest:tt)*)?) => {
        $m.insert($key.to_string(), $crate::Value::Null);
        $crate::json!(@object $m $($($rest)*)?);
    };
    (@object $m:ident $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $m.insert($key.to_string(), $crate::json!({ $($inner)* }));
        $crate::json!(@object $m $($($rest)*)?);
    };
    (@object $m:ident $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $m.insert($key.to_string(), $crate::json!([ $($inner)* ]));
        $crate::json!(@object $m $($($rest)*)?);
    };
    (@object $m:ident $key:literal : $val:expr , $($rest:tt)*) => {
        $m.insert($key.to_string(), $crate::to_value(&$val));
        $crate::json!(@object $m $($rest)*);
    };
    (@object $m:ident $key:literal : $val:expr) => {
        $m.insert($key.to_string(), $crate::to_value(&$val));
    };
}

/// Serialization/deserialization error. Serialization never produces
/// one; [`from_str`] reports the byte offset and what went wrong.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }

    /// An error carrying a caller's message (an adapter's decode error).
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error::new(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    // Copy runs of characters that need no escape in one go; every
    // character that does is ASCII.
    let mut run = 0;
    for (i, c) in s.char_indices() {
        if c != '"' && c != '\\' && c >= ' ' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes `v` pretty-printed at `indent` levels, or compact for `None`:
/// no line breaks or indentation, but still `": "` after object keys.
fn write_value(v: &Value, indent: Option<usize>, out: &mut String) {
    let inner = indent.map(|i| i + 1);
    let newline = |out: &mut String, level: Option<usize>| {
        if let Some(level) = level {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Value::String(s) => escape(s, out),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, inner);
                write_value(item, inner, out);
            }
            newline(out, indent);
            out.push(']');
        }
        Value::Object(map) if map.is_empty() => out.push_str("{}"),
        Value::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, inner);
                escape(k, out);
                out.push_str(": ");
                write_value(val, inner, out);
            }
            newline(out, indent);
            out.push('}');
        }
    }
}

/// Pretty-prints a value as indented JSON.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json(), Some(0), &mut out);
    Ok(out)
}

/// Parses a JSON document into a [`Value`] (the shim analog of
/// `serde_json::from_str::<Value>`). Numbers parse as f64; duplicate
/// object keys keep the last occurrence, matching the map's semantics.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &str) -> Error {
        Error::new(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{', "expected '{'")?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Lone surrogates degrade to the replacement
                            // character — good enough for a validator.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::new(format!("invalid number at byte {start}")))
    }
}

/// Compact printing.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json().to_string())
}

/// Compact JSON, as [`to_string`] prints it (without cloning the value).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(self, None, &mut out);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_str_round_trips_compact_output() {
        let v = json!({
            "s": "a \"quoted\"\nline\twith \\ unicode ✓ and \u{1} control",
            "n": 42u64,
            "f": 1.5f64,
            "neg": (-7i64),
            "b": true,
            "z": null,
            "arr": [1, 2, 3],
            "nested": { "empty_obj": {}, "empty_arr": [] },
        });
        let text = to_string(&v).unwrap();
        let back = from_str(&text).expect("round trip parses");
        assert_eq!(back, v);
        // Pretty output parses to the same tree too.
        assert_eq!(from_str(&to_string_pretty(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn from_str_accepts_escapes_and_rejects_garbage() {
        assert_eq!(
            from_str(r#""\u0041\u00e9""#).unwrap(),
            Value::String("Aé".to_string())
        );
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "{\"a\":1} x",
            "\"\\q\"",
        ] {
            assert!(from_str(bad).is_err(), "{bad:?} should fail to parse");
        }
    }

    #[test]
    fn json_macro_objects_and_arrays() {
        let name = String::from("demo");
        let v = json!({
            "name": name,
            "count": 3usize,
            "ok": true,
            "missing": (None::<u64>),
            "nested": { "xs": [1, 2, 3] },
        });
        match &v {
            Value::Object(m) => {
                assert_eq!(m.get("count"), Some(&Value::Number(3.0)));
                assert_eq!(m.get("missing"), Some(&Value::Null));
            }
            other => panic!("expected object, got {other:?}"),
        }
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\"name\": \"demo\""));
        assert!(text.contains("\"xs\""));
    }

    #[test]
    fn json_macro_takes_fields_by_reference() {
        struct Row {
            name: String,
        }
        let r = &Row { name: "x".into() };
        // Must not move out of `r.name`.
        let v = json!({ "n": r.name });
        assert_eq!(
            v,
            Value::Object({
                let mut m = Map::new();
                m.insert("n".into(), Value::String("x".into()));
                m
            })
        );
        assert_eq!(r.name, "x");
    }

    #[test]
    fn escaping() {
        let v = json!({ "s": "a\"b\nc" });
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("a\\\"b\\nc"));
    }

    #[derive(Debug, Default, PartialEq)]
    struct Hist {
        buckets: Vec<u64>,
        count: u64,
        label: Option<String>,
        derived: usize,
    }

    record! { Hist { buckets, count as "n", label or None } then |h| h.derived = h.buckets.len() }

    #[test]
    fn record_round_trips_and_decodes_strictly() {
        let text = r#"{"buckets": [1,0,3],"label": "x","n": 4}"#;
        let h = Hist::from_json(&from_str(text).unwrap()).unwrap();
        assert_eq!((h.count, h.label.as_deref(), h.derived), (4, Some("x"), 3));
        assert_eq!(to_string(&h.to_json()).unwrap(), text);
        let unlabeled = Hist::from_json(&from_str(r#"{"buckets": [], "n": 0}"#).unwrap());
        assert_eq!(unlabeled.unwrap(), Hist::default());
        for (bad, field) in [
            (r#"{"buckets": [], "n": 1.5}"#, "n"),
            (r#"{"buckets": [-1], "n": 1}"#, "buckets"),
            (r#"{"buckets": []}"#, "n"),
            (r#"{"buckets": [], "n": 1, "label": 7}"#, "label"),
        ] {
            let err = Hist::from_json(&from_str(bad).unwrap()).unwrap_err();
            assert!(
                err.to_string().contains(&format!("{field:?}")),
                "{bad}: {err}"
            );
        }
        assert!(Hist::from_json(&Value::Null).is_err());
    }

    #[test]
    fn integers_decode_exactly() {
        let n = Value::Number;
        assert_eq!(u8::from_json(&n(255.0)).unwrap(), 255);
        for bad in [256.0, -1.0, 1.5, f64::NAN, f64::INFINITY] {
            assert!(u8::from_json(&n(bad)).is_err(), "{bad}");
        }
        assert!(u32::from_json(&n(4_294_967_296.0)).is_err());
        assert_eq!(u64::from_json(&n(MAX_EXACT)).unwrap(), 1 << 53);
        assert!(u64::from_json(&n(2.0 * MAX_EXACT)).is_err());
        assert_eq!(<(u8, u64)>::from_json(&json!([2, 9])).unwrap(), (2, 9));
        assert!(<(u8, u64)>::from_json(&json!([2])).is_err());
    }
}
