//! Shorthand for building `serde_json::Value` trees (the vendored
//! serde_json has no `json!` macro).

use serde_json::{Map, Number, Value};

pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Map>(),
    )
}

pub fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

pub fn int(v: u64) -> Value {
    Value::Number(Number::Int(v as i64))
}

pub fn text(v: &str) -> Value {
    Value::String(v.to_string())
}

pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
    Value::Array(items.into_iter().collect())
}
