//! Cross-source entity linking.
//!
//! §3.2: "Aggregating and compiling the redundant fragmented data helps
//! us to build a detailed and complete environmental model". Different
//! feeds describe the same physical venue with different names, slightly
//! different coordinates, and partial attributes. [`link_entities`]
//! clusters records that are spatially close *and* lexically similar,
//! merging their attributes into one [`LinkedEntity`] per venue.

use std::collections::{BTreeMap, HashSet};

use augur_geo::Enu;

use crate::error::SemanticError;

/// One record from one source.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityRecord {
    /// Source feed name ("poi-db", "geo-tweets", "ugc-photos"...).
    pub source: String,
    /// Name as that source spells it.
    pub name: String,
    /// Position in the shared local frame, metres.
    pub position: Enu,
    /// Partial attributes contributed by this source.
    pub attrs: BTreeMap<String, String>,
}

/// A merged entity with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkedEntity {
    /// Canonical name (most common token-normalised form).
    pub name: String,
    /// Centroid of member positions.
    pub position: Enu,
    /// Union of attributes (first writer wins per key).
    pub attrs: BTreeMap<String, String>,
    /// Sources that contributed.
    pub sources: Vec<String>,
    /// Number of merged records.
    pub member_count: usize,
}

/// Linking thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Maximum distance between records of the same entity, metres.
    pub max_distance_m: f64,
    /// Minimum token-Jaccard name similarity in `[0, 1]`.
    pub min_name_similarity: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            max_distance_m: 50.0,
            min_name_similarity: 0.5,
        }
    }
}

fn tokens(name: &str) -> HashSet<String> {
    name.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(String::from)
        .collect()
}

/// Token Jaccard similarity between two names in `[0, 1]`.
pub fn name_similarity(a: &str, b: &str) -> f64 {
    let ta = tokens(a);
    let tb = tokens(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let inter = ta.intersection(&tb).count() as f64;
    let union = ta.union(&tb).count() as f64;
    inter / union
}

/// Links records into entities with greedy agglomerative clustering:
/// each record joins the first existing cluster whose *seed* is within
/// `max_distance_m` and `min_name_similarity`; otherwise it seeds a new
/// cluster.
///
/// # Errors
///
/// [`SemanticError::InvalidRule`] for non-positive distance or a
/// similarity outside `[0, 1]`.
pub fn link_entities(
    records: &[EntityRecord],
    params: &LinkParams,
) -> Result<Vec<LinkedEntity>, SemanticError> {
    if params.max_distance_m <= 0.0 || !params.max_distance_m.is_finite() {
        return Err(SemanticError::InvalidRule("max_distance_m must be > 0"));
    }
    if !(0.0..=1.0).contains(&params.min_name_similarity) {
        return Err(SemanticError::InvalidRule(
            "min_name_similarity must be in [0, 1]",
        ));
    }
    struct Cluster<'a> {
        seed: &'a EntityRecord,
        members: Vec<&'a EntityRecord>,
    }
    let mut clusters: Vec<Cluster<'_>> = Vec::new();
    for r in records {
        let found = clusters.iter_mut().find(|c| {
            c.seed.position.distance(r.position) <= params.max_distance_m
                && name_similarity(&c.seed.name, &r.name) >= params.min_name_similarity
        });
        match found {
            Some(c) => c.members.push(r),
            None => clusters.push(Cluster {
                seed: r,
                members: vec![r],
            }),
        }
    }
    Ok(clusters
        .into_iter()
        .map(|c| {
            let n = c.members.len() as f64;
            let position = Enu::new(
                c.members.iter().map(|m| m.position.east).sum::<f64>() / n,
                c.members.iter().map(|m| m.position.north).sum::<f64>() / n,
                c.members.iter().map(|m| m.position.up).sum::<f64>() / n,
            );
            // Canonical name: the longest member name (most descriptive).
            // Clusters are non-empty by construction; an impossible empty
            // cluster gets an empty name rather than a panic.
            let name = c
                .members
                .iter()
                .map(|m| m.name.clone())
                .max_by_key(|s| s.len())
                .unwrap_or_default();
            let mut attrs = BTreeMap::new();
            let mut sources = Vec::new();
            for m in &c.members {
                for (k, v) in &m.attrs {
                    attrs.entry(k.clone()).or_insert_with(|| v.clone());
                }
                if !sources.contains(&m.source) {
                    sources.push(m.source.clone());
                }
            }
            LinkedEntity {
                name,
                position,
                attrs,
                sources,
                member_count: c.members.len(),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(source: &str, name: &str, e: f64, n: f64, attrs: &[(&str, &str)]) -> EntityRecord {
        EntityRecord {
            source: source.into(),
            name: name.into(),
            position: Enu::new(e, n, 0.0),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn name_similarity_basics() {
        assert_eq!(name_similarity("Seafront Cafe", "seafront cafe"), 1.0);
        assert!(name_similarity("Seafront Cafe", "The Seafront Cafe") > 0.6);
        assert_eq!(name_similarity("Cafe", "Museum"), 0.0);
        assert_eq!(name_similarity("", ""), 1.0);
    }

    #[test]
    fn merges_same_venue_across_sources() {
        let records = vec![
            rec("poi-db", "Seafront Cafe", 0.0, 0.0, &[("phone", "123")]),
            rec(
                "geo-tweets",
                "seafront cafe!!",
                8.0,
                -5.0,
                &[("rating", "4.5")],
            ),
            rec(
                "ugc-photos",
                "The Seafront Cafe",
                -4.0,
                3.0,
                &[("photo", "p1")],
            ),
            rec("poi-db", "City Museum", 800.0, 800.0, &[("hours", "9-17")]),
        ];
        let linked = link_entities(&records, &LinkParams::default()).unwrap();
        assert_eq!(linked.len(), 2);
        let cafe = linked.iter().find(|e| e.name.contains("Cafe")).unwrap();
        assert_eq!(cafe.member_count, 3);
        assert_eq!(cafe.sources.len(), 3);
        // Attribute union from all three sources.
        assert_eq!(cafe.attrs.get("phone").map(String::as_str), Some("123"));
        assert_eq!(cafe.attrs.get("rating").map(String::as_str), Some("4.5"));
        assert_eq!(cafe.attrs.get("photo").map(String::as_str), Some("p1"));
        // Centroid between the three positions.
        assert!((cafe.position.east - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn distance_gate_prevents_merging_distant_same_name() {
        let records = vec![
            rec("a", "Starbucks", 0.0, 0.0, &[]),
            rec("b", "Starbucks", 5000.0, 0.0, &[]),
        ];
        let linked = link_entities(&records, &LinkParams::default()).unwrap();
        assert_eq!(linked.len(), 2, "different branches stay distinct");
    }

    #[test]
    fn name_gate_prevents_merging_nearby_different_venues() {
        let records = vec![
            rec("a", "Seafront Cafe", 0.0, 0.0, &[]),
            rec("b", "Harbour Pharmacy", 10.0, 0.0, &[]),
        ];
        let linked = link_entities(&records, &LinkParams::default()).unwrap();
        assert_eq!(linked.len(), 2);
    }

    #[test]
    fn first_writer_wins_on_attribute_conflict() {
        let records = vec![
            rec("a", "Cafe One", 0.0, 0.0, &[("rating", "4.0")]),
            rec("b", "Cafe One", 1.0, 0.0, &[("rating", "2.0")]),
        ];
        let linked = link_entities(&records, &LinkParams::default()).unwrap();
        assert_eq!(linked[0].attrs["rating"], "4.0");
    }

    #[test]
    fn parameter_validation() {
        let r = [rec("a", "x", 0.0, 0.0, &[])];
        assert!(link_entities(
            &r,
            &LinkParams {
                max_distance_m: 0.0,
                min_name_similarity: 0.5
            }
        )
        .is_err());
        assert!(link_entities(
            &r,
            &LinkParams {
                max_distance_m: 10.0,
                min_name_similarity: 1.5
            }
        )
        .is_err());
    }

    #[test]
    fn chains_anchor_to_the_seed_not_the_tail() {
        // A — B — C in a line, 40 m apart, same name: B joins A's
        // cluster (seed A, within 50 m); C is 80 m from seed A, so it
        // seeds its own cluster even though it is 40 m from member B.
        // Seed-anchored clustering prevents unbounded chain growth — a
        // deliberate property worth pinning.
        let records = vec![
            rec("s", "Kiosk", 0.0, 0.0, &[]),
            rec("s", "Kiosk", 40.0, 0.0, &[]),
            rec("s", "Kiosk", 80.0, 0.0, &[]),
        ];
        let linked = link_entities(&records, &LinkParams::default()).unwrap();
        assert_eq!(linked.len(), 2);
        assert_eq!(linked[0].member_count, 2);
        assert_eq!(linked[1].member_count, 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(link_entities(&[], &LinkParams::default())
            .unwrap()
            .is_empty());
    }
}
