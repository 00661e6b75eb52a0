//! A tiny JSON writer — objects, arrays, strings, finite numbers,
//! bools, null — for `results/run_all_failures.jsonl` and the
//! benchmark's records. Hand-rolled because the repo takes no external
//! dependencies. Nothing here reads JSON back.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Object from `(&str, Json)` pairs, in order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Json {
    /// Render to compact JSON text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // Integers render without a fraction, so counters
                // print exactly.
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
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
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_escapes_and_nesting() {
        let v = obj(vec![
            ("s", Json::Str("a\"b\\c\nd\te\u{1}".to_string())),
            ("n", Json::Num(42.0)),
            ("f", Json::Num(-0.5)),
            ("b", Json::Bool(true)),
            ("z", Json::Null),
            (
                "arr",
                Json::Arr(vec![
                    Json::Num(1.0),
                    Json::Str("x".into()),
                    Json::Arr(vec![]),
                ]),
            ),
            ("obj", obj(vec![("k", Json::Str("v".into()))])),
        ]);
        // Pinned byte for byte: escapes, integral and fractional
        // numbers, and nesting.
        assert_eq!(
            v.render(),
            r#"{"s":"a\"b\\c\nd\te\u0001","n":42,"f":-0.5,"b":true,"z":null,"arr":[1,"x",[]],"obj":{"k":"v"}}"#
        );
    }
}
