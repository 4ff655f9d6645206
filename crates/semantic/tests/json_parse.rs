//! `JsonValue::parse` is total: any string yields `Ok` or `Err`, never a
//! panic or a stack overflow, and whatever parses survives a
//! write/parse round trip.
#![allow(clippy::unwrap_used)] // test code: a failed parse is the failure

use augur_semantic::JsonValue;
use proptest::prelude::*;

/// JSON's structural, literal and escape fragments, so generated input
/// reaches deep into the grammar instead of failing at the first byte.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    "\\",
    ":",
    ",",
    " ",
    "0",
    "-1.5e3",
    "true",
    "null",
    "\\u00e9",
    "\\u",
    "é",
    "\u{1F600}",
    "\n",
    "a",
];

/// One input string: each part is either a grammar fragment or, one time
/// in four, an arbitrary scalar value.
fn text(parts: &[(u32, u32)]) -> String {
    parts
        .iter()
        .map(|&(pick, raw)| {
            if pick == 0 {
                char::from_u32(raw % 0x11_0000)
                    .unwrap_or('\u{FFFD}')
                    .to_string()
            } else {
                TOKENS[raw as usize % TOKENS.len()].to_string()
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn parse_never_panics(parts in prop::collection::vec((0u32..4, any::<u32>()), 0..400)) {
        let input = text(&parts);
        if let Ok(v) = JsonValue::parse(&input) {
            prop_assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
        }
    }
}
