//! ARML-inspired content model.
//!
//! The Augmented Reality Markup Language (OGC) describes AR content as
//! *features* (the things being augmented) carrying *anchors* (where they
//! live in the world) and *visual assets* (what to draw). This module
//! implements that trio with JSON round-tripping over [`crate::json`],
//! giving every data generator in the platform a standard format AR can
//! interpret — the concrete remedy §4.2 calls for.

use std::collections::BTreeMap;

use augur_geo::{Enu, GeoPoint};

use crate::error::SemanticError;
use crate::json::JsonValue;

/// Identifies a feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FeatureId(pub u64);

impl std::fmt::Display for FeatureId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "feature:{}", self.0)
    }
}

/// Where a feature is pinned in the world.
#[derive(Debug, Clone, PartialEq)]
pub enum Anchor {
    /// A geodetic position.
    Geo(GeoPoint),
    /// A tracked marker/image target, by registry id.
    Trackable(u64),
    /// Offset (metres ENU) from another feature's anchor.
    RelativeTo {
        /// The base feature.
        feature: FeatureId,
        /// Offset from the base anchor.
        offset: Enu,
    },
}

/// What to render for a feature.
#[derive(Debug, Clone, PartialEq)]
pub enum VirtualAsset {
    /// A text label.
    Label {
        /// Label text.
        text: String,
        /// Display priority (higher wins contention).
        priority: f64,
    },
    /// A highlight outline ("x-ray" contour) in the given colour.
    Highlight {
        /// RGB colour, `0xRRGGBB`.
        color: u32,
    },
    /// A 3-D model reference by asset name.
    Model {
        /// Asset catalogue name.
        name: String,
        /// Uniform scale factor.
        scale: f64,
    },
}

/// An ARML feature: the unit of AR content exchanged between the
/// analytics and presentation layers.
///
/// # Example
///
/// ```
/// use augur_semantic::{Anchor, Feature, FeatureId, VirtualAsset};
/// use augur_geo::GeoPoint;
///
/// let f = Feature::new(FeatureId(1), "Seafront Cafe")
///     .with_anchor(Anchor::Geo(GeoPoint::new(22.33, 114.26)?))
///     .with_asset(VirtualAsset::Label { text: "☕ 4.8".into(), priority: 0.9 })
///     .with_tag("category", "food");
/// let json = f.to_json();
/// let back = Feature::from_json(&json)?;
/// assert_eq!(f, back);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    /// Stable identifier.
    pub id: FeatureId,
    /// Human-readable name.
    pub name: String,
    /// World anchors (usually one; multiple for multi-target content).
    pub anchors: Vec<Anchor>,
    /// Renderable assets.
    pub assets: Vec<VirtualAsset>,
    /// Free-form semantic tags (`key → value`).
    pub tags: BTreeMap<String, String>,
}

impl Feature {
    /// Creates a feature with no anchors, assets, or tags.
    pub fn new(id: FeatureId, name: &str) -> Self {
        Feature {
            id,
            name: name.to_string(),
            anchors: Vec::new(),
            assets: Vec::new(),
            tags: BTreeMap::new(),
        }
    }

    /// Adds an anchor (builder style).
    pub fn with_anchor(mut self, anchor: Anchor) -> Self {
        self.anchors.push(anchor);
        self
    }

    /// Adds an asset (builder style).
    pub fn with_asset(mut self, asset: VirtualAsset) -> Self {
        self.assets.push(asset);
        self
    }

    /// Adds a tag (builder style).
    pub fn with_tag(mut self, key: &str, value: &str) -> Self {
        self.tags.insert(key.to_string(), value.to_string());
        self
    }

    /// A tag value, if present.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags.get(key).map(String::as_str)
    }

    /// Serialises to the ARML JSON encoding.
    pub fn to_json(&self) -> String {
        let mut obj = BTreeMap::new();
        obj.insert("id".to_string(), JsonValue::Number(self.id.0 as f64));
        obj.insert("name".to_string(), JsonValue::from(self.name.as_str()));
        obj.insert(
            "anchors".to_string(),
            JsonValue::Array(self.anchors.iter().map(anchor_to_json).collect()),
        );
        obj.insert(
            "assets".to_string(),
            JsonValue::Array(self.assets.iter().map(asset_to_json).collect()),
        );
        obj.insert(
            "tags".to_string(),
            JsonValue::Object(
                self.tags
                    .iter()
                    .map(|(k, v)| (k.clone(), JsonValue::from(v.as_str())))
                    .collect(),
            ),
        );
        JsonValue::Object(obj).to_json()
    }

    /// Parses the ARML JSON encoding.
    ///
    /// # Errors
    ///
    /// [`SemanticError::JsonParse`] / [`SemanticError::JsonShape`].
    pub fn from_json(text: &str) -> Result<Feature, SemanticError> {
        let v = JsonValue::parse(text)?;
        let id = FeatureId(v.field("id")?.as_f64()? as u64);
        let name = v.field("name")?.as_str()?.to_string();
        let anchors = v
            .field("anchors")?
            .as_array()?
            .iter()
            .map(anchor_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let assets = v
            .field("assets")?
            .as_array()?
            .iter()
            .map(asset_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let mut tags = BTreeMap::new();
        for (k, tv) in v.field("tags")?.as_object()? {
            tags.insert(k.clone(), tv.as_str()?.to_string());
        }
        Ok(Feature {
            id,
            name,
            anchors,
            assets,
            tags,
        })
    }
}

/// An ordered collection of features — the unit a content feed ships.
///
/// # Example
///
/// ```
/// use augur_semantic::arml::FeatureCollection;
/// use augur_semantic::{Feature, FeatureId};
///
/// let fc = FeatureCollection::from_iter([
///     Feature::new(FeatureId(1), "a"),
///     Feature::new(FeatureId(2), "b"),
/// ]);
/// let back = FeatureCollection::from_json(&fc.to_json())?;
/// assert_eq!(back.len(), 2);
/// assert!(back.find(FeatureId(2)).is_some());
/// # Ok::<(), augur_semantic::SemanticError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureCollection {
    features: Vec<Feature>,
}

impl FeatureCollection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        FeatureCollection::default()
    }

    /// Adds a feature.
    pub fn push(&mut self, feature: Feature) {
        self.features.push(feature);
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Iterates the features in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Feature> {
        self.features.iter()
    }

    /// Finds a feature by id.
    pub fn find(&self, id: FeatureId) -> Option<&Feature> {
        self.features.iter().find(|f| f.id == id)
    }

    /// Features carrying `key == value` among their tags.
    pub fn with_tag<'a>(
        &'a self,
        key: &'a str,
        value: &'a str,
    ) -> impl Iterator<Item = &'a Feature> {
        self.features
            .iter()
            .filter(move |f| f.tag(key) == Some(value))
    }

    /// Serialises the collection as a JSON array of features.
    pub fn to_json(&self) -> String {
        let items: Vec<JsonValue> = self
            .features
            .iter()
            // Feature encoding round-trips by construction; an impossible
            // parse failure degrades to `null` rather than panicking.
            .map(|f| JsonValue::parse(&f.to_json()).unwrap_or(JsonValue::Null))
            .collect();
        JsonValue::Array(items).to_json()
    }

    /// Parses a JSON array of features.
    ///
    /// # Errors
    ///
    /// [`SemanticError::JsonParse`] / [`SemanticError::JsonShape`].
    pub fn from_json(text: &str) -> Result<FeatureCollection, SemanticError> {
        let v = JsonValue::parse(text)?;
        let mut out = FeatureCollection::new();
        for item in v.as_array()? {
            out.push(Feature::from_json(&item.to_json())?);
        }
        Ok(out)
    }
}

impl FromIterator<Feature> for FeatureCollection {
    fn from_iter<I: IntoIterator<Item = Feature>>(iter: I) -> Self {
        FeatureCollection {
            features: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a FeatureCollection {
    type Item = &'a Feature;
    type IntoIter = std::slice::Iter<'a, Feature>;
    fn into_iter(self) -> Self::IntoIter {
        self.features.iter()
    }
}

fn anchor_to_json(a: &Anchor) -> JsonValue {
    let mut obj = BTreeMap::new();
    match a {
        Anchor::Geo(p) => {
            obj.insert("type".into(), "geo".into());
            obj.insert("lat".into(), JsonValue::Number(p.latitude_deg()));
            obj.insert("lon".into(), JsonValue::Number(p.longitude_deg()));
            obj.insert("alt".into(), JsonValue::Number(p.altitude_m()));
        }
        Anchor::Trackable(id) => {
            obj.insert("type".into(), "trackable".into());
            obj.insert("target".into(), JsonValue::Number(*id as f64));
        }
        Anchor::RelativeTo { feature, offset } => {
            obj.insert("type".into(), "relative".into());
            obj.insert("feature".into(), JsonValue::Number(feature.0 as f64));
            obj.insert("east".into(), JsonValue::Number(offset.east));
            obj.insert("north".into(), JsonValue::Number(offset.north));
            obj.insert("up".into(), JsonValue::Number(offset.up));
        }
    }
    JsonValue::Object(obj)
}

fn anchor_from_json(v: &JsonValue) -> Result<Anchor, SemanticError> {
    match v.field("type")?.as_str()? {
        "geo" => {
            let p = GeoPoint::with_altitude(
                v.field("lat")?.as_f64()?,
                v.field("lon")?.as_f64()?,
                v.field("alt")?.as_f64()?,
            )
            .map_err(|e| SemanticError::JsonShape(format!("invalid geo anchor: {e}")))?;
            Ok(Anchor::Geo(p))
        }
        "trackable" => Ok(Anchor::Trackable(v.field("target")?.as_f64()? as u64)),
        "relative" => Ok(Anchor::RelativeTo {
            feature: FeatureId(v.field("feature")?.as_f64()? as u64),
            offset: Enu::new(
                v.field("east")?.as_f64()?,
                v.field("north")?.as_f64()?,
                v.field("up")?.as_f64()?,
            ),
        }),
        other => Err(SemanticError::JsonShape(format!(
            "unknown anchor type {other:?}"
        ))),
    }
}

fn asset_to_json(a: &VirtualAsset) -> JsonValue {
    let mut obj = BTreeMap::new();
    match a {
        VirtualAsset::Label { text, priority } => {
            obj.insert("type".into(), "label".into());
            obj.insert("text".into(), JsonValue::from(text.as_str()));
            obj.insert("priority".into(), JsonValue::Number(*priority));
        }
        VirtualAsset::Highlight { color } => {
            obj.insert("type".into(), "highlight".into());
            obj.insert("color".into(), JsonValue::Number(*color as f64));
        }
        VirtualAsset::Model { name, scale } => {
            obj.insert("type".into(), "model".into());
            obj.insert("name".into(), JsonValue::from(name.as_str()));
            obj.insert("scale".into(), JsonValue::Number(*scale));
        }
    }
    JsonValue::Object(obj)
}

fn asset_from_json(v: &JsonValue) -> Result<VirtualAsset, SemanticError> {
    match v.field("type")?.as_str()? {
        "label" => Ok(VirtualAsset::Label {
            text: v.field("text")?.as_str()?.to_string(),
            priority: v.field("priority")?.as_f64()?,
        }),
        "highlight" => Ok(VirtualAsset::Highlight {
            color: v.field("color")?.as_f64()? as u32,
        }),
        "model" => Ok(VirtualAsset::Model {
            name: v.field("name")?.as_str()?.to_string(),
            scale: v.field("scale")?.as_f64()?,
        }),
        other => Err(SemanticError::JsonShape(format!(
            "unknown asset type {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Feature {
        Feature::new(FeatureId(7), "Museum")
            .with_anchor(Anchor::Geo(
                GeoPoint::with_altitude(22.3, 114.2, 8.0).unwrap(),
            ))
            .with_anchor(Anchor::RelativeTo {
                feature: FeatureId(3),
                offset: Enu::new(1.0, -2.0, 0.5),
            })
            .with_asset(VirtualAsset::Label {
                text: "Opening hours: 9–17".into(),
                priority: 0.7,
            })
            .with_asset(VirtualAsset::Highlight { color: 0x00FF88 })
            .with_asset(VirtualAsset::Model {
                name: "museum_lod1".into(),
                scale: 1.0,
            })
            .with_tag("category", "landmark")
            .with_tag("source", "crowdsourced")
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let f = sample();
        let text = f.to_json();
        let back = Feature::from_json(&text).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn trackable_anchor_round_trips() {
        let f = Feature::new(FeatureId(1), "poster").with_anchor(Anchor::Trackable(99));
        let back = Feature::from_json(&f.to_json()).unwrap();
        assert_eq!(back.anchors, vec![Anchor::Trackable(99)]);
    }

    #[test]
    fn tag_accessor() {
        let f = sample();
        assert_eq!(f.tag("category"), Some("landmark"));
        assert_eq!(f.tag("missing"), None);
    }

    #[test]
    fn rejects_unknown_types() {
        let bad = r#"{"id":1,"name":"x","anchors":[{"type":"teleport"}],"assets":[],"tags":{}}"#;
        assert!(matches!(
            Feature::from_json(bad),
            Err(SemanticError::JsonShape(_))
        ));
        let bad = r#"{"id":1,"name":"x","anchors":[],"assets":[{"type":"hologram"}],"tags":{}}"#;
        assert!(Feature::from_json(bad).is_err());
    }

    #[test]
    fn rejects_invalid_geo_anchor() {
        let bad = r#"{"id":1,"name":"x","anchors":[{"type":"geo","lat":95.0,"lon":0,"alt":0}],"assets":[],"tags":{}}"#;
        assert!(matches!(
            Feature::from_json(bad),
            Err(SemanticError::JsonShape(_))
        ));
    }

    #[test]
    fn rejects_missing_fields() {
        assert!(Feature::from_json(r#"{"id":1}"#).is_err());
        assert!(Feature::from_json("not json").is_err());
    }

    #[test]
    fn collection_round_trips_and_filters() {
        let mut fc = FeatureCollection::new();
        fc.push(sample());
        fc.push(
            Feature::new(FeatureId(8), "Cafe")
                .with_anchor(Anchor::Trackable(2))
                .with_tag("category", "food"),
        );
        let back = FeatureCollection::from_json(&fc.to_json()).unwrap();
        assert_eq!(fc, back);
        assert_eq!(back.len(), 2);
        assert_eq!(back.with_tag("category", "food").count(), 1);
        assert_eq!(back.with_tag("category", "landmark").count(), 1);
        assert!(back.find(FeatureId(7)).is_some());
        assert!(back.find(FeatureId(99)).is_none());
        assert_eq!(back.iter().count(), 2);
    }

    #[test]
    fn empty_collection_round_trips() {
        let fc = FeatureCollection::new();
        assert!(fc.is_empty());
        let back = FeatureCollection::from_json(&fc.to_json()).unwrap();
        assert!(back.is_empty());
        assert!(FeatureCollection::from_json("{}").is_err());
    }

    #[test]
    fn unicode_labels_survive() {
        let f = Feature::new(FeatureId(2), "咖啡店").with_asset(VirtualAsset::Label {
            text: "评分 ★★★★☆".into(),
            priority: 1.0,
        });
        let back = Feature::from_json(&f.to_json()).unwrap();
        assert_eq!(back.name, "咖啡店");
    }
}
