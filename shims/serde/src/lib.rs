//! Offline stand-in for `serde`.
//!
//! Instead of serde's visitor architecture, this shim serializes through an
//! owned JSON-like [`Value`] tree: `Serialize` lowers a type to a [`Value`],
//! `Deserialize` rebuilds it from one. The companion `serde_derive` shim
//! generates both impls for plain structs and fieldless enums, honouring
//! `#[serde(skip)]` and `#[serde(skip, default = "path")]`. The `serde_json`
//! shim renders and parses the tree as real JSON text.

use std::collections::{BTreeMap, HashMap};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Dynamically-typed serialization tree (JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion order preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object value.
    pub fn get_field(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deserialization failure.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    /// Error for an absent struct field.
    pub fn missing(field: &str) -> Self {
        DeError(format!("missing field `{field}`"))
    }

    /// Error for a value of the wrong JSON type.
    pub fn expected(what: &str, got: &Value) -> Self {
        let kind = match got {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        };
        DeError(format!("expected {what}, found {kind}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can lower themselves to a [`Value`].
pub trait Serialize {
    /// Lowers `self` to a serialization tree.
    fn to_value(&self) -> Value;
}

/// Types that can rebuild themselves from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a serialization tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---- primitive impls -------------------------------------------------------

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Num(*self as f64) }
        }
        impl Deserialize for $t {
            /// An integral number in `$t`'s range; anything outside it is an
            /// error naming the value and the type, never a saturated cast.
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v.as_f64().ok_or_else(|| DeError::expected("integer", v))?;
                if n.fract() != 0.0 {
                    return Err(DeError(format!("expected integer, found {n}")));
                }
                // Exact for every integral f64 within i128, which covers each
                // `$t`; beyond it the cast saturates and `try_from` refuses.
                <$t>::try_from(n as i128).map_err(|_| {
                    let shown = if n.abs() < 1e15 { format!("{n}") } else { format!("{n:e}") };
                    DeError(format!("{shown} is out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_serde_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Num(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64()
            .map(|n| n as f32)
            .ok_or_else(|| DeError::expected("number", v))
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Num(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64().ok_or_else(|| DeError::expected("number", v))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("bool", v)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::expected("string", v))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v.as_str().ok_or_else(|| DeError::expected("char", v))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError(format!("expected single char, found {s:?}"))),
        }
    }
}

// ---- container impls -------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

/// Serialized as the value it points to, like serde's `rc` feature: a
/// shared value is written once per holder and read back unshared.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::expected("array", v)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| DeError(format!("expected array of length {N}, found {n}")))
    }
}

macro_rules! impl_serde_tuple {
    ($(($($t:ident : $idx:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Array(items) => {
                        let expect = [$($idx),+].len();
                        if items.len() != expect {
                            return Err(DeError(format!(
                                "expected {expect}-tuple, found array of {}",
                                items.len()
                            )));
                        }
                        Ok(($($t::from_value(&items[$idx])?,)+))
                    }
                    _ => Err(DeError::expected("tuple (array)", v)),
                }
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Map keys must render as JSON object keys (strings).
pub trait MapKey: Sized {
    /// Key as a JSON object key.
    fn to_key(&self) -> String;
    /// Key parsed back from a JSON object key.
    fn from_key(s: &str) -> Result<Self, DeError>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }

    fn from_key(s: &str) -> Result<Self, DeError> {
        Ok(s.to_string())
    }
}

macro_rules! impl_map_key_int {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String { self.to_string() }
            fn from_key(s: &str) -> Result<Self, DeError> {
                s.parse().map_err(|_| DeError(format!("bad integer key {s:?}")))
            }
        }
    )*};
}

impl_map_key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey + std::hash::Hash + Eq, V: Serialize, S: std::hash::BuildHasher> Serialize
    for HashMap<K, V, S>
{
    fn to_value(&self) -> Value {
        // Sort keys so serialization is deterministic across hash seeds.
        let mut fields: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.to_value()))
            .collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(fields)
    }
}

impl<K: MapKey + std::hash::Hash + Eq, V: Deserialize, S: std::hash::BuildHasher + Default>
    Deserialize for HashMap<K, V, S>
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, val)| Ok((K::from_key(k)?, V::from_value(val)?)))
                .collect(),
            _ => Err(DeError::expected("object", v)),
        }
    }
}

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, val)| Ok((K::from_key(k)?, V::from_value(val)?)))
                .collect(),
            _ => Err(DeError::expected("object", v)),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(f32::from_value(&1.5f32.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn vec_and_option_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()).unwrap(), v);
        let some = Some(7usize);
        assert_eq!(Option::<usize>::from_value(&some.to_value()).unwrap(), some);
        let none: Option<usize> = None;
        assert_eq!(Option::<usize>::from_value(&none.to_value()).unwrap(), none);
    }

    #[test]
    fn map_round_trip_sorted() {
        let mut m = HashMap::new();
        m.insert("b".to_string(), 2u32);
        m.insert("a".to_string(), 1u32);
        let v = m.to_value();
        if let Value::Object(fields) = &v {
            assert_eq!(fields[0].0, "a");
        } else {
            panic!("not an object");
        }
        assert_eq!(HashMap::<String, u32>::from_value(&v).unwrap(), m);
    }

    #[test]
    fn integer_rejects_fraction() {
        assert!(u32::from_value(&Value::Num(1.5)).is_err());
    }

    /// A number outside the target type is an error naming both, never a
    /// saturated cast (`-1` read as 0, `1e300` as the type's maximum).
    #[test]
    fn integer_out_of_range_is_a_typed_error() {
        fn err<T: Deserialize + std::fmt::Debug>(n: f64) -> String {
            T::from_value(&Value::Num(n)).unwrap_err().0
        }
        assert_eq!(err::<usize>(-1.0), "-1 is out of range for usize");
        assert_eq!(err::<usize>(1e300), "1e300 is out of range for usize");
        assert_eq!(err::<u32>(-1.0), "-1 is out of range for u32");
        assert_eq!(
            err::<u32>(4294967296.0),
            "4294967296 is out of range for u32"
        );
        assert_eq!(
            err::<i32>(-2147483649.0),
            "-2147483649 is out of range for i32"
        );
        assert_eq!(err::<i32>(1e300), "1e300 is out of range for i32");
        assert_eq!(
            err::<u64>(2f64.powi(64)),
            "1.8446744073709552e19 is out of range for u64"
        );
        assert_eq!(
            err::<i64>(f64::NEG_INFINITY),
            "expected integer, found -inf"
        );
        // The ends of each range still read.
        assert_eq!(
            u32::from_value(&Value::Num(4294967295.0)).unwrap(),
            u32::MAX
        );
        assert_eq!(
            i32::from_value(&Value::Num(-2147483648.0)).unwrap(),
            i32::MIN
        );
        assert_eq!(usize::from_value(&Value::Num(0.0)).unwrap(), 0);
    }

    #[test]
    fn tuple_round_trip() {
        let t = (1u32, "x".to_string());
        assert_eq!(<(u32, String)>::from_value(&t.to_value()).unwrap(), t);
    }
}
