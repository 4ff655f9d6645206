//! The text formats the platform reads from outside never panic: ARML
//! features and feature collections (`augur::semantic::arml`) and the
//! audit's `audit.allow` list (`augur_audit::allow`). Every input,
//! arbitrary or a valid document with a few bytes damaged, yields `Ok`
//! or `Err`.
#![allow(clippy::unwrap_used)] // test code: a panic here IS the failure

use augur::geo::{Enu, GeoPoint};
use augur::semantic::arml::FeatureCollection;
use augur::semantic::{Anchor, Feature, FeatureId, VirtualAsset};
use augur_audit::Allowlist;
use proptest::prelude::*;

/// Grammar fragments of both formats, so generated input gets past the
/// first byte: JSON structure, escapes and literals, the ARML field
/// names, and allowlist line pieces.
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
    "\n",
    "#",
    "0",
    "-1.5e3",
    "1e999",
    "true",
    "null",
    "\\u00e9",
    "\\u",
    "\\u+1F",
    "\\ud83d",
    "\\ude00",
    "\u{0001}",
    "é",
    "\u{1F600}",
    "\"id\":",
    "\"name\":",
    "\"anchors\":",
    "\"assets\":",
    "\"tags\":",
    "\"type\":",
    "\"geo\"",
    "\"lat\":",
    "crates/stream/src/pipeline.rs",
];

/// One input string: each part is a grammar fragment or, one time in
/// four, an arbitrary scalar value.
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

/// A valid document of each format.
fn documents() -> Vec<String> {
    let feature = Feature::new(FeatureId(7), "Museum")
        .with_anchor(Anchor::Geo(
            GeoPoint::with_altitude(22.3, 114.2, 8.0).unwrap(),
        ))
        .with_anchor(Anchor::Trackable(4))
        .with_anchor(Anchor::RelativeTo {
            feature: FeatureId(3),
            offset: Enu::new(1.0, -2.0, 0.5),
        })
        .with_asset(VirtualAsset::Label {
            text: "Opening hours: 9–17 \"daily\"".into(),
            priority: 0.7,
        })
        .with_asset(VirtualAsset::Highlight { color: 0x00FF88 })
        .with_asset(VirtualAsset::Model {
            name: "museum_lod1".into(),
            scale: 1.0,
        })
        .with_tag("category", "landmark");
    let collection =
        FeatureCollection::from_iter([feature.clone(), Feature::new(FeatureId(8), "Pier")]);
    let allow = "# reviewed\n\ncrates/a/src/b.rs seq acquire fences order it\n\
                 crates/c/src/d.rs * counters only ever summed\n";
    vec![feature.to_json(), collection.to_json(), allow.to_string()]
}

/// Damages `doc`: each edit overwrites, inserts or deletes one byte at
/// a position picked by `at`. The result is read back as (lossy) UTF-8.
fn mutate(doc: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(op, at, byte) in edits {
        let i = at % (bytes.len() + 1);
        match op % 3 {
            0 if i < bytes.len() => bytes[i] = byte,
            1 => bytes.insert(i, byte),
            _ if i < bytes.len() => {
                bytes.remove(i);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Feeds `input` to every parser; any panic fails the test.
fn parse_all(input: &str) {
    let _ = Feature::from_json(input);
    let _ = FeatureCollection::from_json(input);
    let _ = Allowlist::parse(input);
}

/// Every prefix of a string holding an escaped surrogate pair, a lone
/// surrogate and raw control characters: the pair's lookahead and the
/// control-character check meet each possible truncation point.
#[test]
fn truncated_escapes_never_panic() {
    let doc = "{\"name\":\"a\\ud83d\\ude00\\ud83d\\u0041\u{0001}\n\"}";
    for end in 0..=doc.len() {
        parse_all(&doc[..end]);
    }
}

proptest! {
    #[test]
    fn arbitrary_text_never_panics(parts in prop::collection::vec((0u32..4, any::<u32>()), 0..400)) {
        parse_all(&text(&parts));
    }

    #[test]
    fn damaged_documents_never_panic(
        pick in any::<usize>(),
        edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..8),
    ) {
        let docs = documents();
        let doc = &docs[pick % docs.len()];
        parse_all(&mutate(doc, &edits));
    }

    #[test]
    fn deeply_nested_documents_never_panic(
        depth in 0usize..200_000,
        opener in 0usize..2,
        pick in any::<usize>(),
    ) {
        let docs = documents();
        let open = ["[", "{\"a\":"][opener];
        let input = format!("{}{}", open.repeat(depth), docs[pick % docs.len()]);
        parse_all(&input);
    }
}
