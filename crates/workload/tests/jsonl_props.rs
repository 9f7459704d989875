//! Property-based tests for the flat JSONL codec every durable line
//! format (traces, telemetry snapshots, lab specs) is built on: round
//! trips are lossless and re-serialization is byte-stable across
//! randomized strings, integers, and floats.

use duality_workload::jsonl::{line, Obj, Val};
use proptest::prelude::*;

/// Decodes a randomized code-point vector into a string, skipping the
/// unpaired-surrogate gap (the only scalar values `char` excludes).
fn string_from(codes: &[u32], len: usize) -> String {
    codes
        .iter()
        .take(len)
        .filter_map(|&c| char::from_u32(c))
        .collect()
}

/// Serializes `fields` and parses the line back.
fn round_trip(fields: &[(&str, Val)]) -> Obj {
    let mut out = String::new();
    line(&mut out, fields);
    Obj::parse(out.trim_end()).expect("writer output parses")
}

/// Re-serializes every field of `obj` under the given keys, in order.
fn reserialize(obj: &Obj, keys: &[&str]) -> String {
    let mut out = String::new();
    let fields: Vec<(&str, Val)> = keys
        .iter()
        .map(|&k| {
            let v = match obj.opt_str(k) {
                Ok(Some(s)) => Val::s(s),
                _ => Val::f(obj.f64(k).expect("field is a number")),
            };
            (k, v)
        })
        .collect();
    line(&mut out, &fields);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Strings survive the escape/unescape cycle for arbitrary code
    /// points, including the control and escape characters themselves.
    #[test]
    fn strings_round_trip(len in 0usize..12, codes in proptest::collection::vec(0u32..0x11_0000, 12)) {
        let s = string_from(&codes, len);
        let obj = round_trip(&[("k", Val::s(&s))]);
        prop_assert_eq!(obj.str("k").unwrap(), s.as_str());
    }

    /// Every integer the formats store (`u64` via `Val::n`, `i64` via
    /// `Val::i`) round-trips exactly, and re-serialization is
    /// byte-stable.
    #[test]
    fn integers_round_trip(u in 0u64..u64::MAX, i in i64::MIN..i64::MAX) {
        let mut out = String::new();
        line(&mut out, &[("u", Val::n(u)), ("i", Val::i(i))]);
        let obj = Obj::parse(out.trim_end()).unwrap();
        prop_assert_eq!(obj.u64("u").unwrap(), u);
        prop_assert_eq!(obj.i64("i").unwrap(), i);
        let mut again = String::new();
        line(&mut again, &[("u", Val::n(obj.u64("u").unwrap())), ("i", Val::i(obj.i64("i").unwrap()))]);
        prop_assert_eq!(again, out);
    }

    /// Every finite float — drawn uniformly over the *bit patterns*, so
    /// subnormals, extreme exponents, and negative zero all appear —
    /// round-trips bit-for-bit, and its canonical form is byte-stable
    /// under a second cycle.
    #[test]
    fn floats_round_trip_bitwise(bits in 0u64..u64::MAX) {
        let v = f64::from_bits(bits);
        prop_assume!(v.is_finite());
        let obj = round_trip(&[("v", Val::f(v))]);
        let got = obj.f64("v").unwrap();
        prop_assert_eq!(got.to_bits(), v.to_bits());
        let mut first = String::new();
        line(&mut first, &[("v", Val::f(v))]);
        let mut second = String::new();
        line(&mut second, &[("v", Val::f(got))]);
        prop_assert_eq!(second, first);
    }

    /// Mixed-type multi-field objects re-serialize to the exact bytes
    /// they were parsed from: the codec is canonical, not merely
    /// lossless.
    #[test]
    fn objects_reserialize_byte_stably(
        len in 0usize..10,
        codes in proptest::collection::vec(0u32..0x11_0000, 10),
        bits in 0u64..u64::MAX,
    ) {
        let v = f64::from_bits(bits);
        prop_assume!(v.is_finite());
        let s = string_from(&codes, len);
        let mut original = String::new();
        line(&mut original, &[("name", Val::s(&s)), ("value", Val::f(v))]);
        let obj = Obj::parse(original.trim_end()).unwrap();
        prop_assert_eq!(reserialize(&obj, &["name", "value"]), original);
    }

    /// The parser rejects or accepts truncated documents without
    /// panicking — malformed durable files must surface as errors, not
    /// aborts.
    #[test]
    fn truncated_lines_never_panic(
        len in 0usize..8,
        codes in proptest::collection::vec(0u32..0x11_0000, 8),
        cut in 0usize..64,
    ) {
        let s = string_from(&codes, len);
        let mut out = String::new();
        line(&mut out, &[("k", Val::s(&s)), ("n", Val::n(7))]);
        let text = out.trim_end();
        let boundary = text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .take(cut + 1)
            .last()
            .unwrap();
        let _ = Obj::parse(&text[..boundary]);
    }
}
