//! Generated-input checks of the daemon's two network parsers: the frame
//! decoder ([`read_frame`]) and the JSON request parser
//! (`serde_json::from_str::<Request>`). Both read untrusted bytes from
//! any client, so neither may panic on any input, and whatever either
//! accepts must encode back to what it read: a decoded frame re-encodes
//! to the bytes it consumed, and an accepted request serializes to JSON
//! that parses and serializes to the same string and holds the numbers
//! the client sent — integers exactly, image channels as `f32`.

use oppsla_server::protocol::{
    read_frame, write_frame, ImageSpec, InlineImage, JobRequest, Request,
};
use proptest::prelude::*;
use serde::Value;

/// A valid `Request::Attack` payload with an inline image: the frame the
/// truncation and byte-flip checks start from.
fn attack_json() -> String {
    serde_json::to_string(&Request::Attack(JobRequest {
        arch: "vgg-small".into(),
        scale: "shapes32".into(),
        image: ImageSpec {
            test_index: None,
            inline: Some(InlineImage {
                height: 1,
                width: 2,
                data: vec![0.25, 1.0, 0.0, 0.5, 0.125, 1e-3],
                true_class: 3,
            }),
        },
        budget: 600,
        program: Some("\"quoted\\program\"\n".into()),
        seed: 7,
    }))
    .expect("a valid request serializes")
}

/// A JSON document as the vendored data model, numbers as parsed.
struct Doc(Value);

impl serde::Deserialize for Doc {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Doc(v.clone()))
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

/// Whether every number in `out` is the number `sent` held at the same
/// place (objects matched by key, as the derive looks fields up):
/// integers exactly, and the channels of an inline image's `data` as the
/// `f32` they parse to.
fn same_numbers(sent: &Value, out: &Value, in_data: bool) -> bool {
    match (sent, out) {
        (Value::Obj(sent), Value::Obj(out)) => out.iter().all(|(key, o)| {
            sent.iter()
                .find(|(k, _)| k == key)
                .is_some_and(|(_, s)| same_numbers(s, o, key == "data"))
        }),
        (Value::Arr(sent), Value::Arr(out)) => {
            sent.len() == out.len()
                && sent
                    .iter()
                    .zip(out)
                    .all(|(s, o)| same_numbers(s, o, in_data))
        }
        _ => match (number(sent), number(out)) {
            (Some(s), Some(o)) if in_data => f64::from(s as f32) == o,
            (Some(_), Some(_)) => sent == out,
            (None, None) => true,
            _ => false,
        },
    }
}

/// Parses `text` as a request. Rejection is fine; an accepted request
/// must serialize to JSON holding the numbers `text` sent, which parses
/// back and serializes to the same string.
fn check_request(text: &str) -> Result<(), TestCaseError> {
    let Ok(request) = serde_json::from_str::<Request>(text) else {
        return Ok(());
    };
    let json = serde_json::to_string(&request);
    prop_assert!(
        json.is_ok(),
        "accepted {:?} but cannot serialize it: {:?}",
        text,
        json
    );
    let json = json.unwrap();
    let sent = serde_json::from_str::<Doc>(text).expect("an accepted request is JSON");
    let out = serde_json::from_str::<Doc>(&json).expect("serialized JSON parses");
    prop_assert!(
        same_numbers(&sent.0, &out.0, false),
        "{:?} re-serialized to other numbers: {:?}",
        text,
        json
    );
    let back = serde_json::from_str::<Request>(&json);
    prop_assert!(back.is_ok(), "{:?} does not parse back: {:?}", json, back);
    let again = serde_json::to_string(&back.unwrap());
    prop_assert_eq!(again.as_deref(), Ok(json.as_str()));
    Ok(())
}

/// JSON fragments, whitespace-separated: arbitrary ASCII seldom forms a
/// structure the request parser gets far into, so the ASCII check also
/// strings these together.
const TOKENS: &str = r#"{ } [ ] : , " \ null true - . e 0 7 1e39 1e400 \u d800
    "Attack" "Ping" "arch" "image" "inline" "data" "budget""#;

/// One fragment of [`TOKENS`].
fn token() -> impl Strategy<Value = &'static str> {
    let count = TOKENS.split_whitespace().count();
    (0..count).prop_map(|i| TOKENS.split_whitespace().nth(i).expect("index below count"))
}

/// The integer fields of [`attack_json`]'s request, each with the text
/// its value is spelled as there.
const INTEGER_FIELDS: [(&str, &str); 6] = [
    ("budget", "\"budget\":600"),
    ("seed", "\"seed\":7"),
    ("test_index", "\"test_index\":null"),
    ("height", "\"height\":1"),
    ("width", "\"width\":2"),
    ("true_class", "\"true_class\":3"),
];

/// Number spellings a client might send for an integer: integer text
/// across `u64` and around 2^53, negatives, fractions, exponents and the
/// first integer past `u64::MAX`.
fn number_text() -> impl Strategy<Value = String> {
    prop_oneof![
        any::<u64>().prop_map(|n| n.to_string()),
        ((1u64 << 53) - 4..(1u64 << 53) + 4).prop_map(|n| n.to_string()),
        any::<i64>().prop_map(|n| n.to_string()),
        (any::<u32>(), 1u32..10).prop_map(|(n, d)| format!("{n}.{d}")),
        (0u32..1000, 0u32..40).prop_map(|(m, e)| format!("{m}e{e}")),
        Just("18446744073709551616".to_owned()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Each number spelling in each integer field: the request is
    /// accepted exactly when the text is an integer a `u64` holds, and
    /// then re-serializes to that same integer text.
    #[test]
    fn integer_fields_keep_the_integer_sent(
        field in 0usize..INTEGER_FIELDS.len(),
        text in number_text(),
    ) {
        let (key, spelled) = INTEGER_FIELDS[field];
        let request = attack_json().replace(spelled, &format!("\"{key}\":{text}"));
        let parsed = serde_json::from_str::<Request>(&request);
        prop_assert_eq!(
            parsed.is_ok(),
            text.parse::<u64>().is_ok(),
            "{} = {}: {:?}",
            key,
            text,
            parsed
        );
        if let Ok(parsed) = parsed {
            let json = serde_json::to_string(&parsed).expect("an accepted request serializes");
            prop_assert!(json.contains(&format!("\"{key}\":{text}")), "{}", json);
            check_request(&request)?;
        }
    }

    /// Arbitrary byte strings (0–256 bytes, any bytes or ASCII only), raw
    /// or behind a small length prefix so whole frames, truncated ones and
    /// non-UTF-8 payloads all occur, through the frame decoder: `Ok` or
    /// `Err`, never a panic, and a decoded frame re-encodes to the bytes
    /// it came from.
    #[test]
    fn frame_decoder_never_panics(
        prefix in prop_oneof![Just(None), (0u32..64).prop_map(Some)],
        body in prop_oneof![
            collection::vec(any::<u8>(), 0..257),
            collection::vec(0u8..128, 0..257),
        ],
    ) {
        let mut bytes = prefix.map(u32::to_le_bytes).map_or(Vec::new(), Vec::from);
        bytes.extend_from_slice(&body);
        if let Ok(Some(payload)) = read_frame(&mut &bytes[..]) {
            let mut again = Vec::new();
            write_frame(&mut again, &payload).expect("a decoded frame re-encodes");
            prop_assert_eq!(&again[..], &bytes[..again.len()]);
        }
    }

    /// Truncations and ASCII byte flips of a valid attack request
    /// through the request parser.
    #[test]
    fn mutated_attack_requests_never_panic(
        cut in prop_oneof![Just(0), 1usize..1000],
        flips in collection::vec((0usize..1000, 0u8..128), 0..4),
    ) {
        let mut bytes = attack_json().into_bytes();
        let len = bytes.len();
        for (pos, byte) in flips {
            bytes[pos % len] = byte;
        }
        bytes.truncate(len - cut % (len + 1));
        check_request(&String::from_utf8(bytes).expect("ASCII stays UTF-8"))?;
    }

    /// Arbitrary ASCII, byte by byte or as a soup of JSON fragments,
    /// through the request parser.
    #[test]
    fn arbitrary_ascii_requests_never_panic(
        bytes in collection::vec(0u8..128, 0..257),
        tokens in collection::vec(token(), 0..64),
    ) {
        check_request(&String::from_utf8(bytes).expect("ASCII is UTF-8"))?;
        check_request(&tokens.concat())?;
    }
}

#[test]
fn the_seed_request_round_trips() {
    check_request(&attack_json()).unwrap();
    assert!(serde_json::from_str::<Request>(&attack_json()).is_ok());
}

/// A number past f32's range in an inline image once parsed into an
/// infinite channel value, which no JSON text spells back. Both spellings
/// are now rejected at parse time.
#[test]
fn out_of_range_numbers_are_rejected() {
    for data in ["1e39", "-1e39", "1e400"] {
        let text = attack_json().replace("0.125", data);
        assert!(text.contains(data));
        assert!(serde_json::from_str::<Request>(&text).is_err(), "{data}");
    }
}

/// Integers the parser must not bend: cast from an `f64`, `-5` would run
/// as 0, `1.5` as 1, `1e30` as `u64::MAX` and the seed 2^53 + 1 as 2^53.
/// The first three are errors and the seed arrives exact.
#[test]
fn integer_fields_are_never_cast() {
    for (key, text) in [("budget", "-5"), ("budget", "1.5"), ("budget", "1e30")] {
        let (_, spelled) = INTEGER_FIELDS.iter().find(|(k, _)| *k == key).unwrap();
        let request = attack_json().replace(spelled, &format!("\"{key}\":{text}"));
        assert!(
            serde_json::from_str::<Request>(&request).is_err(),
            "{key} = {text}"
        );
    }
    let request = attack_json().replace("\"seed\":7", "\"seed\":9007199254740993");
    match serde_json::from_str::<Request>(&request).expect("an exact u64 seed") {
        Request::Attack(job) => assert_eq!(job.seed, 9_007_199_254_740_993),
        other => panic!("wrong variant {other:?}"),
    }
    check_request(&request).unwrap();
}
