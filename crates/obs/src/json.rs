//! A minimal JSON reader, just enough for tests and tooling to assert on
//! the artifacts this crate exports (JSONL lines, Prometheus-adjacent
//! metadata, Chrome trace documents). Not a general-purpose parser: no
//! streaming, numbers are `f64`, and surrogate-pair escapes are rejected.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always `f64`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object, preserving member order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Element list, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Boolean content, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let chars: Vec<char> = text.chars().collect();
    let mut pos = 0;
    let value = parse_value(&chars, &mut pos)?;
    skip_ws(&chars, &mut pos);
    if pos != chars.len() {
        return Err(format!("trailing data at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(chars: &[char], pos: &mut usize) {
    while *pos < chars.len() && chars[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(chars: &[char], pos: &mut usize, c: char) -> Result<(), String> {
    skip_ws(chars, pos);
    if *pos < chars.len() && chars[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{c}' at offset {pos}", pos = *pos))
    }
}

fn peek(chars: &[char], pos: &mut usize) -> Option<char> {
    skip_ws(chars, pos);
    chars.get(*pos).copied()
}

fn parse_value(chars: &[char], pos: &mut usize) -> Result<JsonValue, String> {
    match peek(chars, pos).ok_or("unexpected end of input")? {
        '{' => parse_object(chars, pos),
        '[' => parse_array(chars, pos),
        '"' => Ok(JsonValue::Str(parse_string(chars, pos)?)),
        't' | 'f' | 'n' => parse_keyword(chars, pos),
        '-' | '0'..='9' => parse_number(chars, pos),
        c => Err(format!("unexpected character '{c}' at offset {pos}", pos = *pos)),
    }
}

fn parse_object(chars: &[char], pos: &mut usize) -> Result<JsonValue, String> {
    expect(chars, pos, '{')?;
    let mut members = Vec::new();
    if peek(chars, pos) == Some('}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(chars, pos);
        let key = parse_string(chars, pos)?;
        expect(chars, pos, ':')?;
        let value = parse_value(chars, pos)?;
        members.push((key, value));
        match peek(chars, pos) {
            Some(',') => *pos += 1,
            Some('}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_array(chars: &[char], pos: &mut usize) -> Result<JsonValue, String> {
    expect(chars, pos, '[')?;
    let mut items = Vec::new();
    if peek(chars, pos) == Some(']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(chars, pos)?);
        match peek(chars, pos) {
            Some(',') => *pos += 1,
            Some(']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_string(chars: &[char], pos: &mut usize) -> Result<String, String> {
    if chars.get(*pos) != Some(&'"') {
        return Err(format!("expected string at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while *pos < chars.len() {
        match chars[*pos] {
            '"' => {
                *pos += 1;
                return Ok(out);
            }
            '\\' => {
                *pos += 1;
                let esc = chars.get(*pos).ok_or("unterminated escape")?;
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'b' => out.push('\u{0008}'),
                    'f' => out.push('\u{000c}'),
                    'u' => {
                        let hex: String = chars
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?
                            .iter()
                            .collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or(format!("surrogate \\u escape '{hex}' unsupported"))?,
                        );
                        *pos += 4;
                    }
                    c => return Err(format!("unknown escape '\\{c}'")),
                }
                *pos += 1;
            }
            c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_keyword(chars: &[char], pos: &mut usize) -> Result<JsonValue, String> {
    for (word, value) in [
        ("true", JsonValue::Bool(true)),
        ("false", JsonValue::Bool(false)),
        ("null", JsonValue::Null),
    ] {
        let len = word.len();
        if chars.len() >= *pos + len && chars[*pos..*pos + len].iter().collect::<String>() == word {
            *pos += len;
            return Ok(value);
        }
    }
    Err(format!("unknown keyword at offset {pos}", pos = *pos))
}

fn parse_number(chars: &[char], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < chars.len() && matches!(chars[*pos], '-' | '+' | '.' | 'e' | 'E' | '0'..='9') {
        *pos += 1;
    }
    let text: String = chars[start..*pos].iter().collect();
    text.parse::<f64>().map(JsonValue::Num).map_err(|_| format!("bad number '{text}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": null}, "e": true}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&JsonValue::Null));
        assert_eq!(doc.get("e").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let doc = parse(r#""quote \" slash \\ tab \t u A""#).unwrap();
        assert_eq!(doc.as_str(), Some("quote \" slash \\ tab \t u A"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn roundtrips_recorder_escapes() {
        let escaped = crate::json_escape("a\"b\\c\nd\u{0001}e");
        let doc = parse(&format!("\"{escaped}\"")).unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c\nd\u{0001}e"));
    }
}
