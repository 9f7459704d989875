//! The versioned `BENCH_*.json` artifact: writer and parser.
//!
//! An envelope is `schema_version` plus provenance (experiment id,
//! seed, smoke flag, scenario list) around an array of measurement
//! rows. [`Envelope::to_json`] is the canonical writer, byte-stable so
//! committed artifacts stay diffable, and [`Envelope::parse`] reads a
//! committed artifact back for the regression gate
//! ([`compare`](crate::compare)) and the trajectory report
//! ([`report`](crate::report)). [`EnvRow`] is also the row type of the
//! paper's T/F/A tables: the `experiments` binary prints it with
//! [`EnvRow::markdown`] and dumps it with [`EnvRow::to_json`].
//!
//! Parsing refuses unknown schema versions: an envelope from a future
//! format is not silently misread as comparable data. The reader also
//! refuses documents nested more than 32 levels deep, so a hostile file
//! is an `Err`, not a stack overflow.

use crate::error::LabError;

/// Format version of the `BENCH_*.json` artifacts. Bump when the
/// envelope (not the row contents) changes shape, so trajectory tooling
/// can tell comparable points apart.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// One measurement row: experiment id, instance label, instance size,
/// and named values.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvRow {
    /// Experiment id (e.g. `"S5"`).
    pub experiment: String,
    /// Workload description (`"<scenario>, <cell>"` by convention).
    pub instance: String,
    /// Number of vertices.
    pub n: usize,
    /// Hop diameter.
    pub d: usize,
    /// Named measurements, in presentation order.
    pub values: Vec<(String, f64)>,
}

impl EnvRow {
    /// Fetches a named value.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// The part of the instance label before the first comma — the
    /// scenario name under the row-labeling convention.
    pub fn scenario(&self) -> &str {
        self.instance.split(',').next().unwrap_or("").trim()
    }

    /// The row as one line of the harness's markdown table
    /// (`| id | instance | n | D | measurements |`).
    pub fn markdown(&self) -> String {
        let vals: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{k}={v:.0}"))
            .collect();
        format!(
            "| {} | {} | {} | {} | {} |",
            self.experiment,
            self.instance,
            self.n,
            self.d,
            vals.join(", ")
        )
    }

    /// Serializes the row as a one-line JSON object.
    pub fn to_json(&self) -> String {
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v)))
            .collect();
        format!(
            "{{\"experiment\": {}, \"instance\": {}, \"n\": {}, \"d\": {}, \"values\": {{{}}}}}",
            json_string(&self.experiment),
            json_string(&self.instance),
            self.n,
            self.d,
            values.join(", ")
        )
    }
}

/// One parsed (or to-be-written) benchmark artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Format version ([`BENCH_SCHEMA_VERSION`] for anything this code
    /// writes; parsing refuses others).
    pub schema_version: u64,
    /// Experiment id (e.g. `"S5"`).
    pub experiment: String,
    /// The seed the run used.
    pub seed: u64,
    /// Whether this was a `--smoke` run.
    pub smoke: bool,
    /// Distinct scenario labels the rows cover, first-appearance order.
    pub scenarios: Vec<String>,
    /// The measurement rows.
    pub rows: Vec<EnvRow>,
}

impl Envelope {
    /// Wraps `rows` in a fresh envelope, deriving the scenario list
    /// from the row labels (the part before the first comma).
    pub fn from_rows(experiment: &str, seed: u64, smoke: bool, rows: Vec<EnvRow>) -> Envelope {
        let mut scenarios: Vec<String> = Vec::new();
        for row in &rows {
            let name = row.scenario();
            if !name.is_empty() && !scenarios.iter().any(|s| s == name) {
                scenarios.push(name.to_string());
            }
        }
        Envelope {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: experiment.to_string(),
            seed,
            smoke,
            scenarios,
            rows,
        }
    }

    /// Serializes the envelope (the canonical `BENCH_*.json` layout).
    pub fn to_json(&self) -> String {
        let scenario_list: Vec<String> = self.scenarios.iter().map(|s| json_string(s)).collect();
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect();
        format!(
            "{{\n  \"schema_version\": {},\n  \"experiment\": {},\n  \
             \"seed\": {},\n  \"smoke\": {},\n  \"scenarios\": [{}],\n  \"rows\": [\n{}\n  ]\n}}\n",
            self.schema_version,
            json_string(&self.experiment),
            self.seed,
            self.smoke,
            scenario_list.join(", "),
            body.join(",\n")
        )
    }

    /// Parses a `BENCH_*.json` artifact.
    ///
    /// # Errors
    ///
    /// [`LabError::Parse`] on malformed JSON or missing/mistyped
    /// fields; [`LabError::Schema`] on an unknown `schema_version`.
    pub fn parse(text: &str) -> Result<Envelope, LabError> {
        let doc = Json::parse(text).map_err(|reason| LabError::Parse { line: 0, reason })?;
        let fail = |reason: String| LabError::Parse { line: 0, reason };
        let version = doc.num("schema_version").map_err(&fail)?.round() as u64;
        if version != BENCH_SCHEMA_VERSION {
            return Err(LabError::Schema(format!(
                "unsupported envelope schema_version {version} (want {BENCH_SCHEMA_VERSION})"
            )));
        }
        let scenarios = doc
            .arr("scenarios")
            .map_err(&fail)?
            .iter()
            .map(|v| match v {
                Json::Str(s) => Ok(s.clone()),
                _ => Err(fail("scenarios entries must be strings".into())),
            })
            .collect::<Result<Vec<String>, LabError>>()?;
        let mut rows = Vec::new();
        for row in doc.arr("rows").map_err(&fail)? {
            let values = match row.field("values").map_err(&fail)? {
                Json::Obj(fields) => fields
                    .iter()
                    .map(|(k, v)| match v {
                        Json::Num(x) => Ok((k.clone(), *x)),
                        Json::Null => Ok((k.clone(), f64::NAN)),
                        _ => Err(fail(format!("value `{k}` is not a number"))),
                    })
                    .collect::<Result<Vec<(String, f64)>, LabError>>()?,
                _ => return Err(fail("row `values` is not an object".into())),
            };
            rows.push(EnvRow {
                experiment: row.str("experiment").map_err(&fail)?.to_string(),
                instance: row.str("instance").map_err(&fail)?.to_string(),
                n: row.num("n").map_err(&fail)?.round() as usize,
                d: row.num("d").map_err(&fail)?.round() as usize,
                values,
            });
        }
        Ok(Envelope {
            schema_version: version,
            experiment: doc.str("experiment").map_err(&fail)?.to_string(),
            seed: doc.num("seed").map_err(&fail)?.round() as u64,
            smoke: doc.bool("smoke").map_err(&fail)?,
            scenarios,
            rows,
        })
    }
}

fn json_string(s: &str) -> String {
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

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Infinity/NaN; null keeps the document parseable.
        "null".to_string()
    }
}

// ---------------------------------------------------------------------
// A minimal recursive JSON reader. The flat JSONL codec the durable
// formats share cannot read the pretty-printed, nested envelopes, and
// the no-external-deps discipline rules out serde — so the lab carries
// its own ~100-line value parser. Accepts arbitrary whitespace; numbers
// are f64 throughout (the envelope's only numeric consumer).

/// Deepest nesting the reader accepts. An envelope and a chrome trace
/// each need 4 levels; the cap keeps the recursive descent far from any
/// thread's stack limit on hostile input.
const MAX_DEPTH: usize = 32;

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// An object, in source field order.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
    /// A string.
    Str(String),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// Parses one JSON document (trailing content is an error).
    ///
    /// # Errors
    ///
    /// A human-readable reason on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut chars = text.chars().peekable();
        let value = parse_value(&mut chars, 0)?;
        skip_ws(&mut chars);
        if chars.next().is_some() {
            return Err("trailing content after document".into());
        }
        Ok(value)
    }

    /// The field `key` of an object.
    ///
    /// # Errors
    ///
    /// When `self` is not an object or the field is missing.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{key}`")),
            _ => Err(format!("`{key}` lookup on a non-object")),
        }
    }

    /// The string field `key`.
    ///
    /// # Errors
    ///
    /// When the field is missing or not a string.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        match self.field(key)? {
            Json::Str(s) => Ok(s),
            _ => Err(format!("field `{key}` is not a string")),
        }
    }

    /// The numeric field `key`.
    ///
    /// # Errors
    ///
    /// When the field is missing or not a number.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            Json::Num(v) => Ok(*v),
            _ => Err(format!("field `{key}` is not a number")),
        }
    }

    /// The boolean field `key`.
    ///
    /// # Errors
    ///
    /// When the field is missing or not a boolean.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.field(key)? {
            Json::Bool(v) => Ok(*v),
            _ => Err(format!("field `{key}` is not a boolean")),
        }
    }

    /// The array field `key`.
    ///
    /// # Errors
    ///
    /// When the field is missing or not an array.
    pub fn arr(&self, key: &str) -> Result<&[Json], String> {
        match self.field(key)? {
            Json::Arr(v) => Ok(v),
            _ => Err(format!("field `{key}` is not an array")),
        }
    }
}

type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

fn skip_ws(chars: &mut Chars<'_>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

/// Parses one value at nesting `depth` (the number of enclosing
/// arrays and objects).
fn parse_value(chars: &mut Chars<'_>, depth: usize) -> Result<Json, String> {
    skip_ws(chars);
    match chars.peek() {
        Some('{' | '[') if depth == MAX_DEPTH => {
            Err(format!("document nested deeper than {MAX_DEPTH} levels"))
        }
        Some('{') => parse_object(chars, depth + 1),
        Some('[') => parse_array(chars, depth + 1),
        Some('"') => Ok(Json::Str(parse_string(chars)?)),
        Some(c) if c.is_ascii_digit() || *c == '-' => parse_number(chars),
        Some(_) => parse_literal(chars),
        None => Err("unexpected end of document".into()),
    }
}

fn parse_object(chars: &mut Chars<'_>, depth: usize) -> Result<Json, String> {
    chars.next();
    let mut fields = Vec::new();
    loop {
        skip_ws(chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                return Ok(Json::Obj(fields));
            }
            Some('"') => {}
            _ => return Err("expected `\"` or `}` in object".into()),
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
            Some('}') => return Ok(Json::Obj(fields)),
            _ => return Err("expected `,` or `}` in object".into()),
        }
    }
}

fn parse_array(chars: &mut Chars<'_>, depth: usize) -> Result<Json, String> {
    chars.next();
    let mut items = Vec::new();
    skip_ws(chars);
    if chars.peek() == Some(&']') {
        chars.next();
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(chars, depth)?);
        skip_ws(chars);
        match chars.next() {
            Some(',') => {}
            Some(']') => return Ok(Json::Arr(items)),
            _ => return Err("expected `,` or `]` in array".into()),
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

fn parse_number(chars: &mut Chars<'_>) -> Result<Json, String> {
    let mut text = String::new();
    while let Some(&c) = chars.peek() {
        match c {
            '0'..='9' | '-' | '+' | '.' | 'e' | 'E' => {
                text.push(c);
                chars.next();
            }
            _ => break,
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}`"))
}

fn parse_literal(chars: &mut Chars<'_>) -> Result<Json, String> {
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
        "true" => Ok(Json::Bool(true)),
        "false" => Ok(Json::Bool(false)),
        "null" => Ok(Json::Null),
        other => Err(format!("unsupported literal `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        Envelope::from_rows(
            "S5",
            42,
            true,
            vec![
                EnvRow {
                    experiment: "S5".into(),
                    instance: "steady-state, 1 wrk / 1 shd".into(),
                    n: 30,
                    d: 9,
                    values: vec![
                        ("jobs".into(), 24.0),
                        ("throughput-jps".into(), 1450.25),
                        ("p99-us".into(), 3200.0),
                    ],
                },
                EnvRow {
                    experiment: "S5".into(),
                    instance: "failover-storm, 2 wrk / 1 shd".into(),
                    n: 30,
                    d: 9,
                    values: vec![("jobs".into(), 36.0), ("replay=serial".into(), 1.0)],
                },
            ],
        )
    }

    #[test]
    fn envelopes_round_trip() {
        let env = sample();
        assert_eq!(env.scenarios, ["steady-state", "failover-storm"]);
        let text = env.to_json();
        let parsed = Envelope::parse(&text).unwrap();
        assert_eq!(parsed, env);
        assert_eq!(parsed.to_json(), text, "writer is canonical");
    }

    #[test]
    fn rows_escape_strings_and_print_as_markdown() {
        let row = EnvRow {
            experiment: "T1".into(),
            instance: "grid \"5x5\" \\ tab\t".into(),
            n: 25,
            d: 8,
            values: vec![("ok".into(), 1.0), ("rounds".into(), 1234.25)],
        };
        let json = row.to_json();
        assert!(json.contains(r#""instance": "grid \"5x5\" \\ tab\t""#));
        assert!(json.contains(r#""rounds": 1234.25"#));
        let env = Envelope::from_rows("T1", 3, false, vec![row.clone()]);
        assert_eq!(Envelope::parse(&env.to_json()).unwrap(), env);
        assert_eq!(
            row.markdown(),
            "| T1 | grid \"5x5\" \\ tab\t | 25 | 8 | ok=1, rounds=1234 |"
        );
    }

    #[test]
    fn unknown_envelope_versions_are_refused() {
        let text = sample()
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert!(matches!(Envelope::parse(&text), Err(LabError::Schema(_))));
    }

    #[test]
    fn malformed_envelopes_report_reasons() {
        assert!(Envelope::parse("").is_err());
        assert!(Envelope::parse("{\"schema_version\": 1}").is_err());
        assert!(Envelope::parse("[1, 2").is_err());
        let text = sample().to_json();
        assert!(Envelope::parse(&format!("{text} trailing")).is_err());
    }

    #[test]
    fn the_reader_handles_general_json() {
        let doc = Json::parse(
            "{\"a\": [1, -2.5, 2e3], \"b\": {\"c\": \"x\\n\\u0041\"}, \"t\": true, \"z\": null}",
        )
        .unwrap();
        assert_eq!(doc.arr("a").unwrap().len(), 3);
        assert_eq!(doc.arr("a").unwrap()[2], Json::Num(2000.0));
        assert_eq!(doc.field("b").unwrap().str("c").unwrap(), "x\nA");
        assert!(doc.bool("t").unwrap());
        assert_eq!(doc.field("z").unwrap(), &Json::Null);
        assert!(Json::parse("{\"k\": nope}").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(Json::parse(&"[".repeat(10_000)).is_err());
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn every_truncated_envelope_is_an_error() {
        let text = sample().to_json();
        let doc = text.trim_end();
        for (cut, _) in doc.char_indices() {
            assert!(Envelope::parse(&doc[..cut]).is_err(), "{cut}-byte prefix");
        }
    }

    #[test]
    fn null_values_round_trip_as_nan() {
        let mut env = sample();
        env.rows[0].values.push(("inf".into(), f64::INFINITY));
        let text = env.to_json();
        assert!(text.contains("\"inf\": null"));
        let parsed = Envelope::parse(&text).unwrap();
        assert!(parsed.rows[0].value("inf").unwrap().is_nan());
    }
}
