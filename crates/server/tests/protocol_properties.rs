//! Generated-input checks of the daemon's two network parsers: the frame
//! decoder ([`read_frame`]) and the JSON request parser
//! (`serde_json::from_str::<Request>`). Both read untrusted bytes from
//! any client, so neither may panic on any input, and whatever either
//! accepts must encode back to what it read: a decoded frame re-encodes
//! to the bytes it consumed, and an accepted request serializes to JSON
//! that parses and serializes to the same string.

use oppsla_server::protocol::{
    read_frame, write_frame, ImageSpec, InlineImage, JobRequest, Request,
};
use proptest::prelude::*;

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

/// Parses `text` as a request. Rejection is fine; an accepted request
/// must serialize, parse back, and serialize to the same string.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

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
