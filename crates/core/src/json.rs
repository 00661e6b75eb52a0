//! A tiny JSON subset — objects, arrays, strings, finite numbers,
//! bools, null — for `results/run_all_failures.jsonl` and the
//! benchmark's records. Hand-rolled because the repo takes no external
//! dependencies; the only producers and consumers are this codebase,
//! so the subset is closed.

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
                // Integers render without a fraction so counters
                // round-trip exactly through `as_u64`.
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

    /// Parse JSON text; `None` on any syntax error or trailing
    /// garbage (a torn artifact must read as absent, never as a
    /// half-truth).
    pub fn parse(text: &str) -> Option<Json> {
        let chars: Vec<char> = text.chars().collect();
        let mut p = Parser { chars, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos == p.chars.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (counters).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: char) -> Option<()> {
        (self.next()? == c).then_some(())
    }

    fn lit(&mut self, word: &str, value: Json) -> Option<Json> {
        for c in word.chars() {
            self.eat(c)?;
        }
        Some(value)
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            't' => self.lit("true", Json::Bool(true)),
            'f' => self.lit("false", Json::Bool(false)),
            'n' => self.lit("null", Json::Null),
            '"' => self.string().map(Json::Str),
            '[' => self.array(),
            '{' => self.object(),
            '-' | '0'..='9' => self.number(),
            _ => None,
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat('"')?;
        let mut s = String::new();
        loop {
            match self.next()? {
                '"' => return Some(s),
                '\\' => match self.next()? {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    'b' => s.push('\u{8}'),
                    'f' => s.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + self.next()?.to_digit(16)?;
                        }
                        s.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => s.push(c),
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some('0'..='9' | '.' | 'e' | 'E' | '+' | '-')) {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        let n: f64 = text.parse().ok()?;
        n.is_finite().then_some(Json::Num(n))
    }

    fn array(&mut self) -> Option<Json> {
        self.eat('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.next()? {
                ',' => {}
                ']' => return Some(Json::Arr(items)),
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat('{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Some(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.next()? {
                ',' => {}
                '}' => return Some(Json::Obj(fields)),
                _ => return None,
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
        let text = v.render();
        assert_eq!(Json::parse(&text), Some(v));
        // Torn artifacts read as absent, never as half-truths.
        assert_eq!(Json::parse(&text[..text.len() - 3]), None);
        assert_eq!(Json::parse(&format!("{text}garbage")), None);
        assert_eq!(Json::parse(""), None);
    }
}
