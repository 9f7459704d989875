//! The JSON codec shared by every durable artifact format: the only
//! JSON reader and string escaper in the workspace.
//!
//! The line formats (traces, telemetry snapshots, lab specs) hold one
//! flat object per line, whose values are strings, integers or finite
//! floats. The writer ([`line()`]) is canonical: fields serialize in
//! the order given, with a fixed `", "` / `": "` layout, and floats in
//! their shortest round-trip form with a forced `.0`/exponent marker —
//! so re-serializing a parsed document is **byte-stable**: a committed
//! spec reads back and writes out to the same bytes. [`Obj::parse`]
//! reads such a line back and refuses any other value.
//!
//! [`Val::parse`] reads any JSON document — nested objects and arrays,
//! `true`, `false` and `null`, at most [`MAX_DEPTH`] levels deep — for
//! the pretty-printed lab envelopes and chrome traces, whose writers
//! format their own layouts through [`json_string`]. The tenant
//! [`FamilySpec`] field encoding lives here too, since both the trace
//! and the lab-spec formats embed tenant generator parameters.

use crate::scenario::FamilySpec;

/// A JSON value. Flat lines hold only strings, integers and floats; the
/// other variants come from [`Val::parse`] reading nested documents.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    /// A JSON string.
    S(String),
    /// A JSON integer, kept exact (stored wide enough for `u64` seeds
    /// and hashes).
    N(i128),
    /// A JSON float. Non-finite values are unrepresentable in JSON: the
    /// writer refuses them (see [`line()`]) and the reader refuses
    /// literals that overflow `f64`.
    F(f64),
    /// `true` or `false`.
    B(bool),
    /// `null`.
    Null,
    /// An array.
    A(Vec<Val>),
    /// An object.
    O(Obj),
}

impl Val {
    /// A string value.
    pub fn s(v: &str) -> Val {
        Val::S(v.to_string())
    }
    /// An unsigned integer value.
    pub fn n(v: u64) -> Val {
        Val::N(i128::from(v))
    }
    /// A signed integer value.
    pub fn i(v: i64) -> Val {
        Val::N(i128::from(v))
    }
    /// A float value.
    pub fn f(v: f64) -> Val {
        Val::F(v)
    }

    /// The value as a float: floats as they are, integers widened
    /// (correctly rounded, so a literal reads to the same `f64` whether
    /// it was kept as an integer or not). `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Val::F(f) => Some(*f),
            Val::N(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed; trailing
    /// content is an error). Integer literals stay exact unless they
    /// overflow `i128`, in which case they read as floats; `-0` reads as
    /// the float `-0.0`, so its sign survives.
    ///
    /// # Errors
    ///
    /// A human-readable reason on malformed input, including nesting
    /// deeper than [`MAX_DEPTH`] levels.
    pub fn parse(text: &str) -> Result<Val, String> {
        let mut chars = text.chars().peekable();
        let value = parse_value(&mut chars, 0)?;
        skip_ws(&mut chars);
        if chars.next().is_some() {
            return Err("trailing content after document".into());
        }
        Ok(value)
    }
}

/// Canonical float form: Rust's shortest round-trip representation, with
/// a `.0` appended when it would otherwise read as an integer — so the
/// parser's int/float distinction survives a round trip and
/// re-serialization stays byte-stable (`2.0` → `"2.0"` → `2.0`).
fn float_repr(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Appends one JSON object line built from `fields` (canonical layout —
/// see the [module docs](self) on byte stability).
///
/// # Panics
///
/// On a non-finite [`Val::F`]: JSON cannot represent it, and silently
/// writing `null` would break the byte-stable round trip the durable
/// formats rely on. Also on a value that is not a string or a number,
/// which a flat line cannot hold.
pub fn line(out: &mut String, fields: &[(&str, Val)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_string(k));
        out.push_str(": ");
        match v {
            Val::S(s) => out.push_str(&json_string(s)),
            Val::N(n) => out.push_str(&n.to_string()),
            Val::F(f) => {
                assert!(f.is_finite(), "non-finite float for field `{k}`");
                out.push_str(&float_repr(*f));
            }
            _ => panic!("field `{k}`: a flat line holds only strings and numbers"),
        }
    }
    out.push_str("}\n");
}

/// `s` as a quoted JSON string literal, escaped.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON object: its `(key, value)` fields in source order.
#[derive(Clone, Debug, PartialEq)]
pub struct Obj(Vec<(String, Val)>);

impl Obj {
    /// Parses one flat JSON object line.
    ///
    /// # Errors
    ///
    /// A human-readable reason on malformed input, or on a value that is
    /// not a string or a number (callers wrap it with their own line
    /// number).
    pub fn parse(line: &str) -> Result<Obj, String> {
        let Val::O(obj) = Val::parse(line)? else {
            return Err("expected `{`".into());
        };
        match obj
            .0
            .iter()
            .find(|(_, v)| !matches!(v, Val::S(_) | Val::N(_) | Val::F(_)))
        {
            Some((key, _)) => Err(format!("unsupported value for key `{key}`")),
            None => Ok(obj),
        }
    }

    /// The fields, in source order.
    pub fn fields(&self) -> &[(String, Val)] {
        &self.0
    }

    fn field(&self, key: &str) -> Option<&Val> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The field `key` through `pick`, which names the expected kind.
    fn get<'a, T>(
        &'a self,
        key: &str,
        kind: &str,
        pick: impl FnOnce(&'a Val) -> Option<T>,
    ) -> Result<T, String> {
        let val = self
            .field(key)
            .ok_or_else(|| format!("missing field `{key}`"))?;
        pick(val).ok_or_else(|| format!("field `{key}` is not {kind}"))
    }

    /// The string field `key`.
    ///
    /// # Errors
    ///
    /// When the field is missing or not a string.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.get(key, "a string", |v| match v {
            Val::S(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// The string field `key`, `None` when absent.
    ///
    /// # Errors
    ///
    /// When the field is present but not a string.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.field(key) {
            None => Ok(None),
            Some(_) => self.str(key).map(Some),
        }
    }

    fn num(&self, key: &str) -> Result<i128, String> {
        self.get(key, "an integer", |v| match v {
            Val::N(n) => Some(*n),
            _ => None,
        })
    }

    /// The float field `key` (integers widen, see [`Val::as_f64`]).
    ///
    /// # Errors
    ///
    /// When the field is missing or not a number.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.get(key, "a number", Val::as_f64)
    }

    /// The `u64` field `key`.
    ///
    /// # Errors
    ///
    /// When the field is missing, not an integer, or out of range.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        u64::try_from(self.num(key)?).map_err(|_| format!("field `{key}` out of u64 range"))
    }

    /// The `u32` field `key`.
    ///
    /// # Errors
    ///
    /// When the field is missing, not an integer, or out of range.
    pub fn u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.num(key)?).map_err(|_| format!("field `{key}` out of u32 range"))
    }

    /// The `i64` field `key`.
    ///
    /// # Errors
    ///
    /// When the field is missing, not an integer, or out of range.
    pub fn i64(&self, key: &str) -> Result<i64, String> {
        i64::try_from(self.num(key)?).map_err(|_| format!("field `{key}` out of i64 range"))
    }

    /// The `u64` field `key`, `None` when absent.
    ///
    /// # Errors
    ///
    /// When the field is present but not an integer in range.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.field(key) {
            None => Ok(None),
            Some(_) => self.u64(key).map(Some),
        }
    }

    /// The boolean field `key`.
    ///
    /// # Errors
    ///
    /// When the field is missing or not a boolean.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.get(key, "a boolean", |v| match v {
            Val::B(b) => Some(*b),
            _ => None,
        })
    }

    /// The array field `key`.
    ///
    /// # Errors
    ///
    /// When the field is missing or not an array.
    pub fn arr(&self, key: &str) -> Result<&[Val], String> {
        self.get(key, "an array", |v| match v {
            Val::A(items) => Some(items.as_slice()),
            _ => None,
        })
    }

    /// The object field `key`.
    ///
    /// # Errors
    ///
    /// When the field is missing or not an object.
    pub fn obj(&self, key: &str) -> Result<&Obj, String> {
        self.get(key, "an object", |v| match v {
            Val::O(obj) => Some(obj),
            _ => None,
        })
    }
}

/// Deepest nesting [`Val::parse`] accepts. An envelope and a chrome
/// trace each need 4 levels; the cap keeps the recursive descent far
/// from any thread's stack limit on hostile input.
pub const MAX_DEPTH: usize = 32;

type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

fn skip_ws(chars: &mut Chars<'_>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

/// Parses one value at nesting `depth` (the number of enclosing arrays
/// and objects).
fn parse_value(chars: &mut Chars<'_>, depth: usize) -> Result<Val, String> {
    skip_ws(chars);
    match chars.peek() {
        Some('{' | '[') if depth == MAX_DEPTH => {
            Err(format!("document nested deeper than {MAX_DEPTH} levels"))
        }
        Some('{') => parse_object(chars, depth + 1),
        Some('[') => parse_array(chars, depth + 1),
        Some('"') => parse_string(chars).map(Val::S),
        Some(c) if c.is_ascii_digit() || *c == '-' => parse_number(chars),
        Some(_) => parse_literal(chars),
        None => Err("unexpected end of document".into()),
    }
}

fn parse_object(chars: &mut Chars<'_>, depth: usize) -> Result<Val, String> {
    chars.next();
    let mut fields = Vec::new();
    loop {
        skip_ws(chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                return Ok(Val::O(Obj(fields)));
            }
            Some('"') => {}
            _ => return Err("expected `\"` or `}`".into()),
        }
        let key = parse_string(chars)?;
        skip_ws(chars);
        if chars.next() != Some(':') {
            return Err(format!("expected `:` after key `{key}`"));
        }
        fields.push((key, parse_value(chars, depth)?));
        skip_ws(chars);
        match chars.next() {
            Some(',') => {}
            Some('}') => return Ok(Val::O(Obj(fields))),
            _ => return Err("expected `,` or `}`".into()),
        }
    }
}

fn parse_array(chars: &mut Chars<'_>, depth: usize) -> Result<Val, String> {
    chars.next();
    let mut items = Vec::new();
    skip_ws(chars);
    if chars.peek() == Some(&']') {
        chars.next();
        return Ok(Val::A(items));
    }
    loop {
        items.push(parse_value(chars, depth)?);
        skip_ws(chars);
        match chars.next() {
            Some(',') => {}
            Some(']') => return Ok(Val::A(items)),
            _ => return Err("expected `,` or `]`".into()),
        }
    }
}

fn parse_string(chars: &mut Chars<'_>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected `\"`".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                }
                other => return Err(format!("unsupported escape `\\{other:?}`")),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_number(chars: &mut Chars<'_>) -> Result<Val, String> {
    let mut text = String::new();
    let mut float = false;
    if chars.peek() == Some(&'-') {
        text.push('-');
        chars.next();
    }
    while let Some(&c) = chars.peek() {
        match c {
            '0'..='9' => {}
            '.' | 'e' | 'E' => float = true,
            // Sign inside an exponent (`1e-3`); a bad position fails the
            // f64 parse below.
            '+' | '-' if float => {}
            _ => break,
        }
        text.push(c);
        chars.next();
    }
    if !float {
        match text.parse::<i128>() {
            Ok(0) if text.starts_with('-') => return Ok(Val::F(-0.0)),
            Ok(n) => return Ok(Val::N(n)),
            // Beyond i128 (or malformed): the float parse decides.
            Err(_) => {}
        }
    }
    let v = text
        .parse::<f64>()
        .map_err(|_| format!("bad number `{text}`"))?;
    if !v.is_finite() {
        return Err(format!("number `{text}` overflows f64"));
    }
    Ok(Val::F(v))
}

fn parse_literal(chars: &mut Chars<'_>) -> Result<Val, String> {
    let mut word = String::new();
    while let Some(&c) = chars.peek() {
        if c.is_ascii_alphabetic() {
            word.push(c);
            chars.next();
        } else {
            break;
        }
    }
    match word.as_str() {
        "true" => Ok(Val::B(true)),
        "false" => Ok(Val::B(false)),
        "null" => Ok(Val::Null),
        other => Err(format!("unsupported literal `{other}`")),
    }
}

// ---------------------------------------------------------------------
// The tenant-family field encoding, shared by traces and lab specs.

/// The field encoding of a [`FamilySpec`] (inverse:
/// [`parse_family`]) — spliced into tenant lines by both the trace and
/// the lab-spec formats.
pub fn family_fields(family: &FamilySpec) -> Vec<(&'static str, Val)> {
    match *family {
        FamilySpec::Grid { w, h } => vec![
            ("family", Val::s("grid")),
            ("w", Val::n(w as u64)),
            ("h", Val::n(h as u64)),
        ],
        FamilySpec::DiagGrid { w, h } => vec![
            ("family", Val::s("diag_grid")),
            ("w", Val::n(w as u64)),
            ("h", Val::n(h as u64)),
        ],
        FamilySpec::Apollonian { n } => {
            vec![("family", Val::s("apollonian")), ("n", Val::n(n as u64))]
        }
        FamilySpec::Outerplanar { n, full } => vec![
            ("family", Val::s("outerplanar")),
            ("n", Val::n(n as u64)),
            ("full", Val::n(u64::from(full))),
        ],
        FamilySpec::SparseGrid { w, h, target_m } => vec![
            ("family", Val::s("sparse_grid")),
            ("w", Val::n(w as u64)),
            ("h", Val::n(h as u64)),
            ("target_m", Val::n(target_m as u64)),
        ],
    }
}

/// Parses the [`FamilySpec`] encoded in `obj` (inverse of
/// [`family_fields`]).
///
/// # Errors
///
/// A human-readable reason on an unknown family or missing fields.
pub fn parse_family(obj: &Obj) -> Result<FamilySpec, String> {
    Ok(match obj.str("family")? {
        "grid" => FamilySpec::Grid {
            w: obj.u64("w")? as usize,
            h: obj.u64("h")? as usize,
        },
        "diag_grid" => FamilySpec::DiagGrid {
            w: obj.u64("w")? as usize,
            h: obj.u64("h")? as usize,
        },
        "apollonian" => FamilySpec::Apollonian {
            n: obj.u64("n")? as usize,
        },
        "outerplanar" => FamilySpec::Outerplanar {
            n: obj.u64("n")? as usize,
            full: obj.u64("full")? != 0,
        },
        "sparse_grid" => FamilySpec::SparseGrid {
            w: obj.u64("w")? as usize,
            h: obj.u64("h")? as usize,
            target_m: obj.u64("target_m")? as usize,
        },
        other => return Err(format!("unknown family `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escapes_round_trip() {
        let tricky = "a\"b\\c\nd\te\u{1}f";
        let mut out = String::new();
        line(&mut out, &[("k", Val::S(tricky.to_string()))]);
        let obj = Obj::parse(out.trim_end()).unwrap();
        assert_eq!(obj.str("k").unwrap(), tricky);
    }

    #[test]
    fn every_family_round_trips() {
        let families = [
            FamilySpec::Grid { w: 3, h: 4 },
            FamilySpec::DiagGrid { w: 5, h: 2 },
            FamilySpec::Apollonian { n: 7 },
            FamilySpec::Outerplanar { n: 9, full: true },
            FamilySpec::SparseGrid {
                w: 4,
                h: 4,
                target_m: 20,
            },
        ];
        for family in families {
            let mut out = String::new();
            line(&mut out, &family_fields(&family));
            let obj = Obj::parse(out.trim_end()).unwrap();
            assert_eq!(parse_family(&obj).unwrap(), family);
        }
    }

    #[test]
    fn floats_round_trip_byte_stably() {
        for v in [2.0f64, -0.0, 0.5, 1.5e300, 1e-8, 123.456] {
            let mut out = String::new();
            line(&mut out, &[("v", Val::f(v))]);
            let obj = Obj::parse(out.trim_end()).unwrap();
            assert_eq!(obj.f64("v").unwrap().to_bits(), v.to_bits(), "{v}");
            let mut again = String::new();
            line(&mut again, &[("v", Val::f(obj.f64("v").unwrap()))]);
            assert_eq!(again, out, "re-serialization is byte-stable for {v}");
        }
        // Integers widen through f64(); floats are refused by u64().
        let obj = Obj::parse("{\"i\": 7, \"f\": 2.5, \"e\": 2e3}").unwrap();
        assert_eq!(obj.f64("i").unwrap(), 7.0);
        assert_eq!(obj.f64("e").unwrap(), 2000.0);
        assert!(obj.u64("f").is_err());
        assert_eq!(obj.f64("f").unwrap(), 2.5);
        assert_eq!(obj.opt_str("missing").unwrap(), None);
        // Overflowing literals are refused, not folded to infinity.
        assert!(Obj::parse("{\"v\": 1e999}").is_err());
        // Integers stay exact up to i128 and read as floats beyond it;
        // `-0` keeps its sign. Either way a literal reads to the f64 its
        // decimal text denotes.
        let obj = Obj::parse(&format!("{{\"big\": 1{}, \"z\": -0}}", "0".repeat(42))).unwrap();
        assert_eq!(obj.f64("big").unwrap(), 1e42);
        assert!(obj.u64("big").is_err(), "a float is not an integer");
        assert_eq!(obj.f64("z").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            Obj::parse("{\"n\": 9007199254740993}")
                .unwrap()
                .f64("n")
                .unwrap(),
            9007199254740992.0
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn writer_refuses_non_finite_floats() {
        let mut out = String::new();
        line(&mut out, &[("v", Val::f(f64::NAN))]);
    }

    #[test]
    fn parser_reports_malformed_lines() {
        assert!(Obj::parse("not json").is_err());
        assert!(Obj::parse("{\"k\": }").is_err());
        assert!(Obj::parse("{\"k\": 1} trailing").is_err());
        assert!(Obj::parse("{\"k\": 1").is_err(), "unterminated object");
        let obj = Obj::parse("{\"s\": \"x\", \"n\": -3}").unwrap();
        assert_eq!(obj.str("s").unwrap(), "x");
        assert_eq!(obj.i64("n").unwrap(), -3);
        assert!(obj.u64("n").is_err(), "negative is out of u64 range");
        assert!(obj.str("n").is_err() && obj.u64("s").is_err());
        assert_eq!(obj.opt_u64("missing").unwrap(), None);
        // A flat line holds only strings and numbers.
        for v in ["true", "null", "[1]", "{}"] {
            assert!(Obj::parse(&format!("{{\"k\": {v}}}")).is_err(), "{v}");
        }
    }

    #[test]
    fn the_reader_handles_general_json() {
        let doc = Val::parse(
            "{\"a\": [1, -2.5, 2e3], \"b\": {\"c\": \"x\\n\\u0041\"}, \"t\": true, \"z\": null}",
        )
        .unwrap();
        let Val::O(doc) = doc else {
            panic!("the document is an object")
        };
        assert_eq!(doc.arr("a").unwrap().len(), 3);
        assert_eq!(doc.arr("a").unwrap()[2], Val::F(2000.0));
        assert_eq!(doc.obj("b").unwrap().str("c").unwrap(), "x\nA");
        assert!(doc.bool("t").unwrap());
        assert_eq!(doc.field("z"), Some(&Val::Null));
        assert!(Val::parse("{\"k\": nope}").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(Val::parse(&"[".repeat(10_000)).is_err());
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Val::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Val::parse(&nested(MAX_DEPTH + 1)).is_err());
    }
}
