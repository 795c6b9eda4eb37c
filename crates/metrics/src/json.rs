//! Minimal JSON serialization over `serde`.
//!
//! The production SuperBench emits benchmark results and traces as
//! JSON/JSON-lines for downstream analysis. The sanctioned dependency set
//! includes `serde` but not `serde_json`, so this module implements a
//! small, self-contained `serde::Serializer` that renders any `Serialize`
//! value to compact JSON. It supports the full serde data model except
//! non-string map keys (rejected with an error, as JSON requires string
//! keys); non-finite floats serialize as `null` (matching `serde_json`).

use serde::ser::{self, Serialize};
use std::fmt::{self, Write as _};

/// Error raised during JSON serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json serialization error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl ser::Error for JsonError {
    fn custom<T: fmt::Display>(message: T) -> Self {
        Self(message.to_string())
    }
}

/// Serializes any `Serialize` value to a compact JSON string.
///
/// # Examples
///
/// ```
/// use anubis_metrics::json::to_json;
/// use serde::Serialize;
///
/// #[derive(Serialize)]
/// struct Row<'a> { name: &'a str, value: f64 }
///
/// let text = to_json(&Row { name: "GPU GEMM", value: 298.5 }).unwrap();
/// assert_eq!(text, r#"{"name":"GPU GEMM","value":298.5}"#);
/// ```
pub fn to_json<T: Serialize + ?Sized>(value: &T) -> Result<String, JsonError> {
    let mut out = String::new();
    to_json_into(value, &mut out)?;
    Ok(out)
}

/// Serializes any `Serialize` value as compact JSON *appended* to `out`.
///
/// This is the allocation-free entry point for hot serialization loops:
/// the caller owns (and typically pools, via `anubis-arena`) the output
/// buffer, and the serializer itself performs no heap allocation — floats
/// and integers render through `fmt::Write` directly into `out`. On error
/// `out` may hold a partial rendering; callers that batch rows should
/// truncate back to their last known-good length.
pub fn to_json_into<T: Serialize + ?Sized>(value: &T, out: &mut String) -> Result<(), JsonError> {
    value.serialize(Serializer { out })
}

fn push_escaped(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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

fn push_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

struct Serializer<'a> {
    out: &'a mut String,
}

/// Shared state for sequence-like compounds.
pub struct SeqSerializer<'a> {
    out: &'a mut String,
    first: bool,
    close: &'static str,
}

/// Shared state for map/struct compounds.
pub struct MapSerializer<'a> {
    out: &'a mut String,
    first: bool,
    close: &'static str,
}

impl SeqSerializer<'_> {
    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        value.serialize(Serializer { out: self.out })
    }

    fn finish(self) -> Result<(), JsonError> {
        self.out.push_str(self.close);
        Ok(())
    }
}

impl MapSerializer<'_> {
    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_escaped(self.out, key);
        self.out.push(':');
    }

    fn finish(self) -> Result<(), JsonError> {
        self.out.push_str(self.close);
        Ok(())
    }
}

macro_rules! serialize_integer {
    ($($method:ident: $ty:ty),*) => {
        $(fn $method(self, v: $ty) -> Result<(), JsonError> {
            let _ = write!(self.out, "{v}");
            Ok(())
        })*
    };
}

impl<'a> ser::Serializer for Serializer<'a> {
    type Ok = ();
    type Error = JsonError;
    type SerializeSeq = SeqSerializer<'a>;
    type SerializeTuple = SeqSerializer<'a>;
    type SerializeTupleStruct = SeqSerializer<'a>;
    type SerializeTupleVariant = SeqSerializer<'a>;
    type SerializeMap = MapSerializer<'a>;
    type SerializeStruct = MapSerializer<'a>;
    type SerializeStructVariant = MapSerializer<'a>;

    serialize_integer!(
        serialize_i8: i8, serialize_i16: i16, serialize_i32: i32, serialize_i64: i64,
        serialize_u8: u8, serialize_u16: u16, serialize_u32: u32, serialize_u64: u64
    );

    fn serialize_bool(self, v: bool) -> Result<(), JsonError> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }

    fn serialize_f32(self, v: f32) -> Result<(), JsonError> {
        push_f64(self.out, f64::from(v));
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), JsonError> {
        push_f64(self.out, v);
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), JsonError> {
        push_escaped(self.out, v.encode_utf8(&mut [0u8; 4]));
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), JsonError> {
        push_escaped(self.out, v);
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), JsonError> {
        let mut seq = self.serialize_seq(Some(v.len()))?;
        for byte in v {
            ser::SerializeSeq::serialize_element(&mut seq, byte)?;
        }
        ser::SerializeSeq::end(seq)
    }

    fn serialize_none(self) -> Result<(), JsonError> {
        self.out.push_str("null");
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), JsonError> {
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), JsonError> {
        self.out.push_str("null");
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), JsonError> {
        self.serialize_unit()
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<(), JsonError> {
        push_escaped(self.out, variant);
        Ok(())
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        self.out.push('{');
        push_escaped(self.out, variant);
        self.out.push(':');
        value.serialize(Serializer { out: self.out })?;
        self.out.push('}');
        Ok(())
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Self::SerializeSeq, JsonError> {
        self.out.push('[');
        Ok(SeqSerializer {
            out: self.out,
            first: true,
            close: "]",
        })
    }

    fn serialize_tuple(self, len: usize) -> Result<Self::SerializeTuple, JsonError> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleStruct, JsonError> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleVariant, JsonError> {
        self.out.push('{');
        push_escaped(self.out, variant);
        self.out.push_str(":[");
        Ok(SeqSerializer {
            out: self.out,
            first: true,
            close: "]}",
        })
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Self::SerializeMap, JsonError> {
        self.out.push('{');
        Ok(MapSerializer {
            out: self.out,
            first: true,
            close: "}",
        })
    }

    fn serialize_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStruct, JsonError> {
        self.out.push('{');
        Ok(MapSerializer {
            out: self.out,
            first: true,
            close: "}",
        })
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStructVariant, JsonError> {
        self.out.push('{');
        push_escaped(self.out, variant);
        self.out.push_str(":{");
        Ok(MapSerializer {
            out: self.out,
            first: true,
            close: "}}",
        })
    }
}

impl ser::SerializeSeq for SeqSerializer<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
        self.element(value)
    }
    fn end(self) -> Result<(), JsonError> {
        self.finish()
    }
}

impl ser::SerializeTuple for SeqSerializer<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
        self.element(value)
    }
    fn end(self) -> Result<(), JsonError> {
        self.finish()
    }
}

impl ser::SerializeTupleStruct for SeqSerializer<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
        self.element(value)
    }
    fn end(self) -> Result<(), JsonError> {
        self.finish()
    }
}

impl ser::SerializeTupleVariant for SeqSerializer<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
        self.element(value)
    }
    fn end(self) -> Result<(), JsonError> {
        self.finish()
    }
}

/// Serializes a map key: JSON requires strings, so only string-like keys
/// are accepted.
struct KeySerializer<'a> {
    out: &'a mut String,
}

impl<'a> ser::Serializer for KeySerializer<'a> {
    type Ok = ();
    type Error = JsonError;
    type SerializeSeq = ser::Impossible<(), JsonError>;
    type SerializeTuple = ser::Impossible<(), JsonError>;
    type SerializeTupleStruct = ser::Impossible<(), JsonError>;
    type SerializeTupleVariant = ser::Impossible<(), JsonError>;
    type SerializeMap = ser::Impossible<(), JsonError>;
    type SerializeStruct = ser::Impossible<(), JsonError>;
    type SerializeStructVariant = ser::Impossible<(), JsonError>;

    fn serialize_str(self, v: &str) -> Result<(), JsonError> {
        push_escaped(self.out, v);
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<(), JsonError> {
        push_escaped(self.out, variant);
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), JsonError> {
        push_escaped(self.out, v.encode_utf8(&mut [0u8; 4]));
        Ok(())
    }

    fn serialize_bool(self, _v: bool) -> Result<(), JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_i8(self, v: i8) -> Result<(), JsonError> {
        let _ = write!(self.out, "\"{v}\"");
        Ok(())
    }
    fn serialize_i16(self, v: i16) -> Result<(), JsonError> {
        let _ = write!(self.out, "\"{v}\"");
        Ok(())
    }
    fn serialize_i32(self, v: i32) -> Result<(), JsonError> {
        let _ = write!(self.out, "\"{v}\"");
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<(), JsonError> {
        let _ = write!(self.out, "\"{v}\"");
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), JsonError> {
        let _ = write!(self.out, "\"{v}\"");
        Ok(())
    }
    fn serialize_u16(self, v: u16) -> Result<(), JsonError> {
        let _ = write!(self.out, "\"{v}\"");
        Ok(())
    }
    fn serialize_u32(self, v: u32) -> Result<(), JsonError> {
        let _ = write!(self.out, "\"{v}\"");
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<(), JsonError> {
        let _ = write!(self.out, "\"{v}\"");
        Ok(())
    }
    fn serialize_f32(self, _v: f32) -> Result<(), JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_f64(self, _v: f64) -> Result<(), JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_bytes(self, _v: &[u8]) -> Result<(), JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_none(self) -> Result<(), JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_some<T: Serialize + ?Sized>(self, _value: &T) -> Result<(), JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_unit(self) -> Result<(), JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _index: u32,
        _variant: &'static str,
        _value: &T,
    ) -> Result<(), JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Self::SerializeSeq, JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self::SerializeTuple, JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleStruct, JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleVariant, JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Self::SerializeMap, JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStruct, JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStructVariant, JsonError> {
        Err(ser::Error::custom("map keys must be strings"))
    }
}

impl ser::SerializeMap for MapSerializer<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), JsonError> {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        key.serialize(KeySerializer { out: self.out })?;
        self.out.push(':');
        Ok(())
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), JsonError> {
        value.serialize(Serializer { out: self.out })
    }
    fn end(self) -> Result<(), JsonError> {
        self.finish()
    }
}

impl ser::SerializeStruct for MapSerializer<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        self.key(key);
        value.serialize(Serializer { out: self.out })
    }
    fn end(self) -> Result<(), JsonError> {
        self.finish()
    }
}

impl ser::SerializeStructVariant for MapSerializer<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        self.key(key);
        value.serialize(Serializer { out: self.out })
    }
    fn end(self) -> Result<(), JsonError> {
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;
    use std::collections::BTreeMap;

    #[derive(Serialize)]
    enum Kind {
        Unit,
        Newtype(u32),
        Tuple(u32, u32),
        Struct { a: bool },
    }

    #[test]
    fn primitives() {
        assert_eq!(to_json(&true).unwrap(), "true");
        assert_eq!(to_json(&42i32).unwrap(), "42");
        assert_eq!(to_json(&-7i64).unwrap(), "-7");
        assert_eq!(to_json(&2.5f64).unwrap(), "2.5");
        assert_eq!(to_json(&f64::NAN).unwrap(), "null");
        assert_eq!(to_json("hi").unwrap(), "\"hi\"");
        assert_eq!(to_json(&Option::<u8>::None).unwrap(), "null");
        assert_eq!(to_json(&Some(3u8)).unwrap(), "3");
        assert_eq!(to_json(&()).unwrap(), "null");
    }

    #[test]
    fn to_json_into_appends_to_the_caller_buffer() {
        let mut out = String::from("row: ");
        to_json_into(&vec![1u8, 2], &mut out).unwrap();
        assert_eq!(out, "row: [1,2]");
        // A recycled (cleared) buffer renders the same bytes as to_json.
        out.clear();
        to_json_into(&(42u64, "x\ny"), &mut out).unwrap();
        assert_eq!(out, to_json(&(42u64, "x\ny")).unwrap());
    }

    #[test]
    fn char_map_keys_are_escaped() {
        struct CharKeyed;
        impl Serialize for CharKeyed {
            fn serialize<S: ser::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                use ser::SerializeMap;
                let mut m = s.serialize_map(Some(1))?;
                m.serialize_key(&'"')?;
                m.serialize_value(&1u8)?;
                m.end()
            }
        }
        assert_eq!(to_json(&CharKeyed).unwrap(), r#"{"\"":1}"#);
    }

    #[test]
    fn string_escaping() {
        assert_eq!(to_json("a\"b\\c\nd").unwrap(), r#""a\"b\\c\nd""#);
        assert_eq!(to_json("\u{0001}").unwrap(), "\"\\u0001\"");
    }

    #[test]
    fn sequences_and_maps() {
        assert_eq!(to_json(&vec![1, 2, 3]).unwrap(), "[1,2,3]");
        assert_eq!(to_json(&(1, "x")).unwrap(), "[1,\"x\"]");
        let mut map = BTreeMap::new();
        map.insert("k".to_string(), 1.0f64);
        assert_eq!(to_json(&map).unwrap(), "{\"k\":1}");
        let mut int_keys = BTreeMap::new();
        int_keys.insert(7u32, "v");
        assert_eq!(to_json(&int_keys).unwrap(), "{\"7\":\"v\"}");
    }

    #[test]
    fn enums() {
        assert_eq!(to_json(&Kind::Unit).unwrap(), "\"Unit\"");
        assert_eq!(to_json(&Kind::Newtype(5)).unwrap(), "{\"Newtype\":5}");
        assert_eq!(to_json(&Kind::Tuple(1, 2)).unwrap(), "{\"Tuple\":[1,2]}");
        assert_eq!(
            to_json(&Kind::Struct { a: false }).unwrap(),
            "{\"Struct\":{\"a\":false}}"
        );
    }

    #[test]
    fn nested_structures() {
        #[derive(Serialize)]
        struct Inner {
            values: Vec<f64>,
        }
        #[derive(Serialize)]
        struct Outer {
            name: String,
            inner: Inner,
            tags: Option<Vec<String>>,
        }
        let outer = Outer {
            name: "node-01".into(),
            inner: Inner {
                values: vec![1.5, 2.0],
            },
            tags: Some(vec!["a".into()]),
        };
        assert_eq!(
            to_json(&outer).unwrap(),
            r#"{"name":"node-01","inner":{"values":[1.5,2]},"tags":["a"]}"#
        );
    }

    #[test]
    fn float_keys_are_rejected() {
        let mut map = std::collections::BTreeMap::new();
        map.insert(1.5f64.to_bits(), 1u8); // u64 keys fine
        assert!(to_json(&map).is_ok());
        // A map with an actual float key type fails.
        struct FloatKeyed;
        impl Serialize for FloatKeyed {
            fn serialize<S: ser::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                use ser::SerializeMap;
                let mut m = s.serialize_map(Some(1))?;
                m.serialize_key(&1.5f64)?;
                m.serialize_value(&1u8)?;
                m.end()
            }
        }
        assert!(to_json(&FloatKeyed).is_err());
    }
}
