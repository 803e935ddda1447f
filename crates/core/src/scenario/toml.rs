//! A small TOML reader/writer for scenario manifests.
//!
//! The workspace's serde shim deserializes only into its [`Value`] tree,
//! so manifests are parsed here into that same tree and lowered by hand
//! in [`super`]. The dialect is the subset manifests need — tables,
//! arrays of tables, dotted keys, basic/literal strings, numbers,
//! booleans, arrays and inline tables, with `#` comments — and the
//! writer emits a canonical form [`parse`] reads back verbatim, which is
//! what the serialize→deserialize roundtrip tests pin.
//!
//! Numbers are stored as `f64` (the shim's only numeric type); integers
//! round-trip exactly up to 2^53, ample for every knob a scenario has.

use serde::Value;
use std::fmt;

/// Parse failure, with the 1-based line the parser had reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

/// One step of a table path: an object key, or an index into an array
/// of tables (always the last element while parsing).
#[derive(Debug, Clone, PartialEq)]
enum Seg {
    Key(String),
    Idx(usize),
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    line: usize,
}

/// Parses a TOML document into a [`Value::Object`] tree.
pub fn parse(text: &str) -> Result<Value, TomlError> {
    let mut p = Parser {
        b: text.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut root = Value::Object(Vec::new());
    // Resolved paths (array-element indices included) of tables
    // introduced by an explicit `[header]`, so duplicate headers are
    // rejected while each `[[array]]` element may open its own
    // sub-tables (implicit parents may later be opened once).
    let mut defined: Vec<Vec<Seg>> = Vec::new();
    let mut current: Vec<Seg> = Vec::new();

    loop {
        p.skip_blank_lines();
        if p.pos >= p.b.len() {
            break;
        }
        if p.peek() == Some(b'[') {
            p.bump();
            let array = p.peek() == Some(b'[');
            if array {
                p.bump();
            }
            p.skip_spaces();
            let path = p.parse_key_path()?;
            p.skip_spaces();
            p.expect(b']')?;
            if array {
                p.expect(b']')?;
            }
            p.end_of_line()?;
            current = open_table(&mut root, &path, array, &mut defined, p.line)?;
        } else {
            let keys = p.parse_key_path()?;
            p.skip_spaces();
            p.expect(b'=')?;
            p.skip_spaces();
            let value = p.parse_value()?;
            p.end_of_line()?;
            let table = resolve(&mut root, &current, p.line)?;
            insert(table, &keys, value, p.line)?;
        }
    }
    Ok(root)
}

/// Opens `[path]` / `[[path]]` and returns the segments addressing the
/// now-current table.
fn open_table(
    root: &mut Value,
    path: &[String],
    array: bool,
    defined: &mut Vec<Vec<Seg>>,
    line: usize,
) -> Result<Vec<Seg>, TomlError> {
    let mut segs: Vec<Seg> = Vec::new();
    for key in &path[..path.len() - 1] {
        segs.push(Seg::Key(key.clone()));
        // Descend through the last element of any array of tables.
        let v = resolve(root, &segs, line)?;
        if let Value::Array(items) = v {
            if items.is_empty() {
                return Err(err(line, format!("`{key}` is an empty array")));
            }
            segs.push(Seg::Idx(items.len() - 1));
        }
    }
    let leaf = path.last().expect("key paths are non-empty");
    let parent = resolve(root, &segs, line)?;
    let Value::Object(fields) = parent else {
        return Err(err(line, "table header inside a non-table".to_string()));
    };
    let slot = fields.iter().position(|(k, _)| k == leaf);
    if array {
        match slot {
            None => {
                fields.push((leaf.clone(), Value::Array(vec![Value::Object(Vec::new())])));
            }
            Some(i) => match &mut fields[i].1 {
                Value::Array(items) if items.iter().all(Value::is_object) => {
                    items.push(Value::Object(Vec::new()));
                }
                _ => {
                    return Err(err(line, format!("`{leaf}` is not an array of tables")));
                }
            },
        }
        segs.push(Seg::Key(leaf.clone()));
        let Value::Array(items) = resolve(root, &segs, line)? else {
            unreachable!("just inserted an array");
        };
        segs.push(Seg::Idx(items.len() - 1));
    } else {
        match slot {
            None => fields.push((leaf.clone(), Value::Object(Vec::new()))),
            Some(i) if fields[i].1.is_object() => {}
            Some(_) => {
                return Err(err(line, format!("`{leaf}` already holds a value")));
            }
        }
        segs.push(Seg::Key(leaf.clone()));
        if defined.contains(&segs) {
            return Err(err(line, format!("duplicate table `[{}]`", path.join("."))));
        }
        defined.push(segs.clone());
    }
    Ok(segs)
}

/// Walks `path` from the root, mutably.
fn resolve<'v>(root: &'v mut Value, path: &[Seg], line: usize) -> Result<&'v mut Value, TomlError> {
    let mut cur = root;
    for seg in path {
        cur = match seg {
            Seg::Key(k) => {
                let Value::Object(fields) = cur else {
                    return Err(err(line, format!("`{k}` is not inside a table")));
                };
                match fields.iter().position(|(key, _)| key == k) {
                    Some(i) => &mut fields[i].1,
                    None => {
                        fields.push((k.clone(), Value::Object(Vec::new())));
                        let i = fields.len() - 1;
                        &mut fields[i].1
                    }
                }
            }
            Seg::Idx(i) => {
                let Value::Array(items) = cur else {
                    return Err(err(line, "expected an array of tables".to_string()));
                };
                &mut items[*i]
            }
        };
    }
    Ok(cur)
}

/// Inserts a dotted-key value into a table, creating intermediate
/// tables and rejecting duplicate leaves.
fn insert(table: &mut Value, keys: &[String], value: Value, line: usize) -> Result<(), TomlError> {
    let mut cur = table;
    for key in &keys[..keys.len() - 1] {
        let Value::Object(fields) = cur else {
            return Err(err(line, format!("`{key}` is not a table")));
        };
        match fields.iter().position(|(k, _)| k == key) {
            Some(i) if fields[i].1.is_object() => cur = &mut fields[i].1,
            Some(_) => return Err(err(line, format!("`{key}` already holds a value"))),
            None => {
                fields.push((key.clone(), Value::Object(Vec::new())));
                let i = fields.len() - 1;
                cur = &mut fields[i].1;
            }
        }
    }
    let leaf = keys.last().expect("key paths are non-empty");
    let Value::Object(fields) = cur else {
        return Err(err(line, format!("`{leaf}` is not inside a table")));
    };
    if fields.iter().any(|(k, _)| k == leaf) {
        return Err(err(line, format!("duplicate key `{leaf}`")));
    }
    fields.push((leaf.clone(), value));
    Ok(())
}

fn err(line: usize, message: String) -> TomlError {
    TomlError { line, message }
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            if c == Some(b'\n') {
                self.line += 1;
            }
            self.pos += 1;
        }
        c
    }

    fn fail<T>(&self, message: impl Into<String>) -> Result<T, TomlError> {
        Err(err(self.line, message.into()))
    }

    fn expect(&mut self, c: u8) -> Result<(), TomlError> {
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            self.fail(format!("expected `{}`", c as char))
        }
    }

    /// Spaces and tabs only.
    fn skip_spaces(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.bump();
        }
    }

    /// Whitespace, newlines and `#` comments (between top-level items
    /// and inside arrays).
    fn skip_blank_lines(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.bump();
                }
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    /// After a header or key-value: optional comment, then newline/EOF.
    fn end_of_line(&mut self) -> Result<(), TomlError> {
        self.skip_spaces();
        if self.peek() == Some(b'#') {
            while !matches!(self.peek(), None | Some(b'\n')) {
                self.bump();
            }
        }
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.bump();
                Ok(())
            }
            Some(b'\r') => {
                self.bump();
                self.expect(b'\n')
            }
            Some(c) => self.fail(format!("unexpected `{}` after value", c as char)),
        }
    }

    fn parse_key_path(&mut self) -> Result<Vec<String>, TomlError> {
        let mut keys = vec![self.parse_key()?];
        loop {
            self.skip_spaces();
            if self.peek() == Some(b'.') {
                self.bump();
                self.skip_spaces();
                keys.push(self.parse_key()?);
            } else {
                return Ok(keys);
            }
        }
    }

    fn parse_key(&mut self) -> Result<String, TomlError> {
        match self.peek() {
            Some(b'"') => self.parse_basic_string(),
            Some(b'\'') => self.parse_literal_string(),
            Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
                {
                    self.bump();
                }
                Ok(std::str::from_utf8(&self.b[start..self.pos])
                    .expect("bare keys are ASCII")
                    .to_string())
            }
            _ => self.fail("expected a key"),
        }
    }

    fn parse_value(&mut self) -> Result<Value, TomlError> {
        match self.peek() {
            Some(b'"') => self.parse_basic_string().map(Value::String),
            Some(b'\'') => self.parse_literal_string().map(Value::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_inline_table(),
            Some(b't') | Some(b'f') => self.parse_bool(),
            Some(c) if c == b'+' || c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => self.fail("expected a value"),
        }
    }

    fn parse_basic_string(&mut self) -> Result<String, TomlError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None | Some(b'\n') => return self.fail("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => out.push(self.parse_unicode_escape(4)?),
                    Some(b'U') => out.push(self.parse_unicode_escape(8)?),
                    _ => return self.fail("invalid escape"),
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Re-decode the UTF-8 scalar starting at this byte.
                    let start = self.pos - 1;
                    let rest = std::str::from_utf8(&self.b[start..])
                        .map_err(|_| err(self.line, "invalid UTF-8".to_string()))?;
                    let ch = rest.chars().next().expect("non-empty");
                    let _ = c;
                    out.push(ch);
                    self.pos = start + ch.len_utf8();
                }
            }
        }
    }

    fn parse_unicode_escape(&mut self, digits: usize) -> Result<char, TomlError> {
        let hex = self
            .b
            .get(self.pos..self.pos + digits)
            .ok_or_else(|| err(self.line, "truncated unicode escape".to_string()))?;
        let code = u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| err(self.line, "bad escape".to_string()))?,
            16,
        )
        .map_err(|_| err(self.line, "bad unicode escape".to_string()))?;
        self.pos += digits;
        char::from_u32(code).ok_or_else(|| err(self.line, "bad unicode scalar".to_string()))
    }

    fn parse_literal_string(&mut self) -> Result<String, TomlError> {
        self.expect(b'\'')?;
        let start = self.pos;
        while !matches!(self.peek(), None | Some(b'\'' | b'\n')) {
            self.bump();
        }
        let text = std::str::from_utf8(&self.b[start..self.pos])
            .map_err(|_| err(self.line, "invalid UTF-8".to_string()))?
            .to_string();
        self.expect(b'\'')?;
        Ok(text)
    }

    fn parse_bool(&mut self) -> Result<Value, TomlError> {
        for (lit, v) in [("true", true), ("false", false)] {
            if self.b[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                return Ok(Value::Bool(v));
            }
        }
        self.fail("expected `true` or `false`")
    }

    fn parse_number(&mut self) -> Result<Value, TomlError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit()
                || matches!(c, b'+' | b'-' | b'.' | b'e' | b'E' | b'_')
        ) {
            self.bump();
        }
        let text: String = std::str::from_utf8(&self.b[start..self.pos])
            .expect("number bytes are ASCII")
            .chars()
            .filter(|&c| c != '_')
            .collect();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| err(self.line, format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, TomlError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_blank_lines();
            if self.peek() == Some(b']') {
                self.bump();
                return Ok(Value::Array(items));
            }
            items.push(self.parse_value()?);
            self.skip_blank_lines();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {}
                _ => return self.fail("expected `,` or `]`"),
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value, TomlError> {
        self.expect(b'{')?;
        let mut table = Value::Object(Vec::new());
        self.skip_spaces();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(table);
        }
        loop {
            self.skip_spaces();
            let keys = self.parse_key_path()?;
            self.skip_spaces();
            self.expect(b'=')?;
            self.skip_spaces();
            let value = self.parse_value()?;
            insert(&mut table, &keys, value, self.line)?;
            self.skip_spaces();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(table),
                _ => return self.fail("expected `,` or `}`"),
            }
        }
    }
}

/// Renders an object tree as a canonical TOML document: scalar and
/// array keys first, then `[tables]`, then `[[arrays.of.tables]]`,
/// in insertion order. `Null` values are omitted (TOML has no null).
pub fn render(root: &Value) -> String {
    let mut out = String::new();
    if let Value::Object(fields) = root {
        render_table(fields, &mut Vec::new(), &mut out);
    }
    out
}

fn is_table_array(v: &Value) -> bool {
    matches!(v, Value::Array(items) if !items.is_empty() && items.iter().all(Value::is_object))
}

fn render_table(fields: &[(String, Value)], path: &mut Vec<String>, out: &mut String) {
    for (k, v) in fields {
        if !v.is_object() && !is_table_array(v) && !v.is_null() {
            out.push_str(&render_key(k));
            out.push_str(" = ");
            render_inline(v, out);
            out.push('\n');
        }
    }
    for (k, v) in fields {
        if let Value::Object(inner) = v {
            path.push(k.clone());
            out.push_str(&format!("\n[{}]\n", render_path(path)));
            render_table(inner, path, out);
            path.pop();
        }
    }
    for (k, v) in fields {
        if is_table_array(v) {
            if let Value::Array(items) = v {
                path.push(k.clone());
                for item in items {
                    out.push_str(&format!("\n[[{}]]\n", render_path(path)));
                    if let Value::Object(inner) = item {
                        render_table(inner, path, out);
                    }
                }
                path.pop();
            }
        }
    }
}

fn render_path(path: &[String]) -> String {
    path.iter()
        .map(|k| render_key(k))
        .collect::<Vec<_>>()
        .join(".")
}

fn render_key(key: &str) -> String {
    let bare = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if bare {
        key.to_string()
    } else {
        render_string(key)
    }
}

fn render_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn render_inline(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("\"\""),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Value::String(s) => out.push_str(&render_string(s)),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_inline(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&render_key(k));
                out.push_str(" = ");
                render_inline(val, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = r#"
# a manifest
name = "smoke"
seed = 42
ratio = 0.35
on = true

[workload]
ls = "memcached"
be = 'raytrace'

[load]
profile = "triangle"
bounds = [0.2, 0.8]

[[region_load]]
profile = "constant"
fraction = 0.4

[[region_load]]
profile = "constant"
fraction = 0.6
"#;
        let v = parse(doc).unwrap();
        assert_eq!(v["name"], "smoke");
        assert_eq!(v["seed"], 42);
        assert_eq!(v["ratio"].as_f64(), Some(0.35));
        assert_eq!(v["on"], true);
        assert_eq!(v["workload"]["ls"], "memcached");
        assert_eq!(v["workload"]["be"], "raytrace");
        assert_eq!(v["load"]["bounds"][1].as_f64(), Some(0.8));
        let regions = v["region_load"].as_array().unwrap();
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[1]["fraction"].as_f64(), Some(0.6));
    }

    #[test]
    fn nested_headers_dotted_keys_and_inline_tables() {
        let doc = "
[load]
profile = \"flash_crowd\"
base.profile = \"diurnal\"
base.low = 0.2
extra = { a = 1, b = \"x\" }

[load.more]
depth = 2
";
        let v = parse(doc).unwrap();
        assert_eq!(v["load"]["base"]["profile"], "diurnal");
        assert_eq!(v["load"]["extra"]["b"], "x");
        assert_eq!(v["load"]["more"]["depth"], 2);
    }

    #[test]
    fn rejects_duplicates_and_garbage() {
        assert!(parse("a = 1\na = 2\n").is_err());
        assert!(parse("[t]\nx = 1\n[t]\ny = 2\n").is_err());
        assert!(parse("a = \n").is_err());
        assert!(parse("a = 1 junk\n").is_err());
        assert!(parse("a = \"unterminated\n").is_err());
        let e = parse("ok = 1\nbad =\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn each_array_element_opens_its_own_sub_table() {
        let headers = "
[[region_load]]
profile = \"failover\"
takeover = 0.5

[region_load.base]
profile = \"constant\"
fraction = 0.4

[[region_load]]
profile = \"failover\"
takeover = 0.25

[region_load.base]
profile = \"diurnal\"
low = 0.2
";
        let inline = "
[[region_load]]
profile = \"failover\"
takeover = 0.5
base = { profile = \"constant\", fraction = 0.4 }

[[region_load]]
profile = \"failover\"
takeover = 0.25
base = { profile = \"diurnal\", low = 0.2 }
";
        assert_eq!(parse(headers).unwrap(), parse(inline).unwrap());
        // Within one element the sub-table is still defined only once.
        let e = parse("[[region_load]]\n[region_load.base]\na = 1\n[region_load.base]\nb = 2\n")
            .unwrap_err();
        assert!(e.message.contains("duplicate table"), "{}", e.message);
    }

    #[test]
    fn multiline_arrays_with_comments() {
        let doc = "fracs = [\n  0.2, # twenty\n  0.35,\n  0.8,\n]\n";
        let v = parse(doc).unwrap();
        assert_eq!(v["fracs"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn render_round_trips() {
        let doc = r#"
name = "round-trip"
seed = 42
fracs = [0.2, 0.35]

[workload]
ls = "memcached"

[load]
profile = "failover"
takeover = 0.5

[load.base]
profile = "constant"
fraction = 0.4

[[rows]]
label = "a"
n = 1

[rows.base]
profile = "constant"

[[rows]]
label = "b"
n = 2

[rows.base]
profile = "diurnal"
"#;
        let v = parse(doc).unwrap();
        assert_eq!(v["rows"][1]["base"]["profile"], "diurnal");
        let rendered = render(&v);
        let reparsed = parse(&rendered).unwrap();
        assert_eq!(reparsed, v, "render → parse must be the identity");
        // Canonical form is a fixpoint.
        assert_eq!(render(&reparsed), rendered);
    }

    #[test]
    fn underscored_and_signed_numbers() {
        let v = parse("big = 1_000_000\nneg = -3\nexp = 2.5e3\n").unwrap();
        assert_eq!(v["big"], 1_000_000);
        assert_eq!(v["neg"], -3);
        assert_eq!(v["exp"].as_f64(), Some(2500.0));
    }
}
