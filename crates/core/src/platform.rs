//! The [`AugurPlatform`] facade: ingest → store → interpret → present.
//!
//! The facade owns one of each substrate and implements the platform
//! loop the paper sketches in §2–§3: sensor events land in the
//! partitioned log and the time-series store; analytics facts run
//! through the interpretation rules under the current user context; the
//! resulting directives materialise as overlay items in the scene graph,
//! anchored at the POI they concern.

use std::collections::HashMap;

use augur_geo::{GeoPoint, PoiDatabase, PoiId};
use augur_render::{OverlayItem, OverlayKind, SceneGraph};
use augur_semantic::{Directive, Fact, InterpretationEngine, Rule};
use augur_sensor::{SensorEvent, SensorReading, VitalSign};
use augur_store::{SeriesId, TimeSeriesStore};
use augur_stream::{Broker, Record};
use bytes::Bytes;

use crate::codec::vitals_bytes;
use crate::context::ContextEngine;
use crate::error::CoreError;

/// Platform configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Partitions per event topic.
    pub partitions: u32,
    /// Geodetic origin of the deployment's local frame.
    pub origin: GeoPoint,
}

impl PlatformConfig {
    /// A config anchored at `origin` with 4 partitions per topic.
    pub fn new(origin: GeoPoint) -> Self {
        PlatformConfig {
            partitions: 4,
            origin,
        }
    }
}

/// Topic names per event family.
const TOPICS: [&str; 5] = ["gps", "imu", "camera", "vitals", "interaction"];

/// The platform facade; see the module docs.
///
/// # Example
///
/// ```
/// use augur_core::{AugurPlatform, PlatformConfig};
/// use augur_geo::GeoPoint;
///
/// let origin = GeoPoint::new(22.3364, 114.2655)?;
/// let platform = AugurPlatform::new(PlatformConfig::new(origin))?;
/// assert_eq!(platform.broker().topics().len(), 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct AugurPlatform {
    config: PlatformConfig,
    broker: Broker,
    timeseries: TimeSeriesStore,
    /// Each vitals series' id by `(patient, sign)`, so ingest names a
    /// series only the first time it sees it.
    series: HashMap<(u32, VitalSign), SeriesId>,
    pois: Option<PoiDatabase>,
    engine: InterpretationEngine,
    context: ContextEngine,
    scene: SceneGraph,
    next_overlay_id: u64,
    ingested: u64,
}

impl AugurPlatform {
    /// Creates a platform: one topic per event family.
    ///
    /// # Errors
    ///
    /// Propagates broker errors (topic creation).
    pub fn new(config: PlatformConfig) -> Result<Self, CoreError> {
        let broker = Broker::new();
        for t in TOPICS {
            broker.create_topic(t, config.partitions)?;
        }
        Ok(AugurPlatform {
            config,
            broker,
            timeseries: TimeSeriesStore::new(),
            series: HashMap::new(),
            pois: None,
            engine: InterpretationEngine::new(),
            context: ContextEngine::default(),
            scene: SceneGraph::new(),
            next_overlay_id: 1,
            ingested: 0,
        })
    }

    /// The underlying broker (shared handle).
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The time-series store.
    pub fn timeseries(&self) -> &TimeSeriesStore {
        &self.timeseries
    }

    /// The context engine (mutable: preferences, pose updates).
    pub fn context_mut(&mut self) -> &mut ContextEngine {
        &mut self.context
    }

    /// The context engine.
    pub fn context(&self) -> &ContextEngine {
        &self.context
    }

    /// The scene graph of current overlays.
    pub fn scene(&self) -> &SceneGraph {
        &self.scene
    }

    /// The deployment config.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Installs the POI database.
    pub fn set_pois(&mut self, pois: PoiDatabase) {
        self.pois = Some(pois);
    }

    /// The POI database, if installed.
    pub fn pois(&self) -> Option<&PoiDatabase> {
        self.pois.as_ref()
    }

    /// Installs an interpretation rule.
    pub fn add_rule(&mut self, rule: Rule) {
        self.engine.add_rule(rule);
    }

    /// Events ingested so far.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Ingests one sensor event: appends it to its family topic and
    /// mirrors vitals into the time-series store.
    ///
    /// # Errors
    ///
    /// Propagates broker and store errors.
    pub fn ingest(&mut self, event: &SensorEvent) -> Result<(), CoreError> {
        let topic = event.reading.family();
        // Fixed-width payloads are built on the stack and copied once,
        // into the record's inline buffer.
        let words = |w: [[u8; 8]; 3]| Bytes::copy_from_slice(w.as_flattened());
        let payload = match &event.reading {
            SensorReading::Vitals(v) => Bytes::copy_from_slice(&vitals_bytes(v)),
            SensorReading::Gps(fix) => words([
                fix.position.east.to_le_bytes(),
                fix.position.north.to_le_bytes(),
                fix.accuracy_m.to_le_bytes(),
            ]),
            SensorReading::Imu(r) => words([
                r.accel_east.to_le_bytes(),
                r.accel_north.to_le_bytes(),
                r.yaw_rate_dps.to_le_bytes(),
            ]),
            SensorReading::Camera(o) => words([
                (o.anchor_index as u64).to_le_bytes(),
                o.u_px.to_le_bytes(),
                o.v_px.to_le_bytes(),
            ]),
            SensorReading::Interaction {
                kind,
                subject,
                value,
            } => {
                let mut out = Vec::with_capacity(16 + kind.len());
                out.extend_from_slice(&subject.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
                out.extend_from_slice(kind.as_bytes());
                Bytes::from(out)
            }
        };
        self.broker.append(
            topic,
            Record::new(event.device.0, payload, event.time.as_micros()),
        )?;
        if let SensorReading::Vitals(v) = &event.reading {
            let timeseries = &mut self.timeseries;
            let series = *self.series.entry((v.patient, v.sign)).or_insert_with(|| {
                timeseries.create_series(&format!("patient-{}/{}", v.patient, v.sign))
            });
            self.timeseries
                .append(series, v.time.as_micros(), v.value)?;
        }
        self.ingested += 1;
        Ok(())
    }

    /// Interprets a fact under the current context and materialises the
    /// resulting directives as overlays anchored at `anchor_poi`.
    /// Returns the directives that fired.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidScenario`] if the POI is unknown.
    pub fn surface(
        &mut self,
        fact: &Fact,
        anchor_poi: PoiId,
        activity_override: Option<&str>,
    ) -> Result<Vec<Directive>, CoreError> {
        let anchor = {
            let db = self
                .pois
                .as_ref()
                .ok_or(CoreError::InvalidScenario("no poi database installed"))?;
            let poi = db
                .get(anchor_poi)
                .ok_or(CoreError::InvalidScenario("unknown anchor poi"))?;
            db.frame().to_enu(poi.position)
        };
        let ctx = self.context.user_context(activity_override);
        let directives = self.engine.interpret(fact, &ctx);
        for d in &directives {
            let kind = match d {
                Directive::ShowLabel { text, .. } => OverlayKind::Label(text.clone()),
                Directive::Highlight { color, .. } => OverlayKind::Highlight(*color),
                Directive::Alert { text, .. } => OverlayKind::Label(format!("⚠ {text}")),
                Directive::SuggestRoute { reason, .. } => OverlayKind::Label(format!("→ {reason}")),
            };
            let priority = match d {
                Directive::ShowLabel { priority, .. } => *priority,
                Directive::Alert { severity, .. } => 0.5 + severity / 2.0,
                _ => 0.6,
            };
            self.scene.insert(OverlayItem {
                id: self.next_overlay_id,
                anchor,
                kind,
                priority,
            });
            self.next_overlay_id += 1;
        }
        Ok(directives)
    }

    /// §3.2's intelligent trip suggestions: ranks nearby POIs matching
    /// the user's interests by a blend of popularity and walking time,
    /// and returns routing suggestions ("rest sites and restaurants …
    /// based on walking distance and time").
    ///
    /// The score is `popularity / (1 + walk_minutes)`: a mediocre venue
    /// next door beats a famous one across town, which is how people
    /// actually pick a coffee stop.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidScenario`] without a POI database or a pose.
    pub fn suggest_nearby(
        &self,
        max_walk_minutes: f64,
        k: usize,
    ) -> Result<Vec<(PoiId, Directive)>, CoreError> {
        let db = self
            .pois
            .as_ref()
            .ok_or(CoreError::InvalidScenario("no poi database installed"))?;
        let pose = self
            .context
            .pose()
            .ok_or(CoreError::InvalidScenario("no pose yet"))?;
        const WALK_MPS: f64 = 1.4;
        let here = db.frame().to_geodetic(pose.position);
        let radius_m = max_walk_minutes * 60.0 * WALK_MPS;
        let interests = self.context.user_context(None).interests;
        let mut scored: Vec<(f64, f64, &augur_geo::Poi)> = db
            .within_radius(here, radius_m)
            .into_iter()
            .filter(|p| {
                interests.is_empty() || interests.iter().any(|i| *i == p.category.to_string())
            })
            .map(|p| {
                let walk_min = p.position.haversine_m(here) / WALK_MPS / 60.0;
                (p.popularity / (1.0 + walk_min), walk_min, p)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.2.id.cmp(&b.2.id))
        });
        Ok(scored
            .into_iter()
            .take(k)
            .map(|(_, walk_min, p)| {
                (
                    p.id,
                    Directive::SuggestRoute {
                        subject: augur_semantic::FeatureId(p.id.0),
                        reason: format!("{} — {:.0} min walk", p.name, walk_min.max(1.0)),
                    },
                )
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_geo::{Poi, PoiCategory};
    use augur_semantic::{ActionTemplate, Condition, FeatureId};
    use augur_sensor::{DeviceId, Timestamp, VitalSign, VitalsSample};

    fn origin() -> GeoPoint {
        GeoPoint::new(22.3364, 114.2655).unwrap()
    }

    fn platform() -> AugurPlatform {
        AugurPlatform::new(PlatformConfig::new(origin())).unwrap()
    }

    fn vitals_event(t_s: u64, value: f64) -> SensorEvent {
        SensorEvent::new(
            DeviceId(1),
            Timestamp::from_secs(t_s),
            SensorReading::Vitals(VitalsSample {
                time: Timestamp::from_secs(t_s),
                patient: 1,
                sign: VitalSign::HeartRate,
                value,
                in_anomaly: false,
            }),
        )
    }

    #[test]
    fn creates_all_topics() {
        let p = platform();
        let mut topics = p.broker().topics();
        topics.sort();
        assert_eq!(
            topics,
            vec!["camera", "gps", "imu", "interaction", "vitals"]
        );
    }

    #[test]
    fn ingest_routes_to_topic_and_timeseries() {
        let mut p = platform();
        for t in 0..10 {
            p.ingest(&vitals_event(t, 70.0 + t as f64)).unwrap();
        }
        assert_eq!(p.ingested(), 10);
        assert_eq!(p.broker().stats("vitals").unwrap().records, 10);
        let series = p
            .timeseries()
            .series_by_name("patient-1/heart-rate")
            .unwrap();
        assert_eq!(p.timeseries().range(series, 0, u64::MAX).unwrap().len(), 10);
    }

    #[test]
    fn surface_materialises_overlays() {
        let mut p = platform();
        let poi = Poi {
            id: PoiId(1),
            name: "Cafe".into(),
            category: PoiCategory::Food,
            position: origin().destination(90.0, 100.0),
            popularity: 0.9,
        };
        p.set_pois(PoiDatabase::build(origin(), vec![poi]));
        p.add_rule(
            Rule::new(
                "promo",
                vec![Condition::FactIs("recommendation".into())],
                ActionTemplate::ShowLabel {
                    text: "Try {name}".into(),
                    priority: 0.8,
                },
            )
            .unwrap(),
        );
        let fact = Fact::new("recommendation", FeatureId(1), 0.9);
        let directives = p.surface(&fact, PoiId(1), Some("shopping")).unwrap();
        assert_eq!(directives.len(), 1);
        assert_eq!(p.scene().len(), 1);
        let item = p.scene().iter().next().unwrap();
        assert!(matches!(&item.kind, OverlayKind::Label(t) if t.contains("recommendation")));
        // Anchor is ~100 m east of origin.
        assert!((item.anchor.east - 100.0).abs() < 1.0);
    }

    #[test]
    fn surface_without_pois_errors() {
        let mut p = platform();
        let fact = Fact::new("x", FeatureId(0), 1.0);
        assert!(matches!(
            p.surface(&fact, PoiId(0), None),
            Err(CoreError::InvalidScenario(_))
        ));
    }

    #[test]
    fn suggest_nearby_ranks_by_popularity_and_walk_time() {
        use augur_track::Pose;
        let mut p = platform();
        let pois = vec![
            // Famous but 20 min away.
            Poi {
                id: PoiId(1),
                name: "Grand Museum".into(),
                category: PoiCategory::Landmark,
                position: origin().destination(0.0, 1_700.0),
                popularity: 1.0,
            },
            // Modest but 2 min away.
            Poi {
                id: PoiId(2),
                name: "Corner Cafe".into(),
                category: PoiCategory::Food,
                position: origin().destination(90.0, 170.0),
                popularity: 0.3,
            },
            // Out of walking range entirely.
            Poi {
                id: PoiId(3),
                name: "Airport Lounge".into(),
                category: PoiCategory::Food,
                position: origin().destination(180.0, 30_000.0),
                popularity: 1.0,
            },
        ];
        p.set_pois(PoiDatabase::build(origin(), pois));
        p.context_mut().update_pose(Pose::default());
        let suggestions = p.suggest_nearby(30.0, 5).unwrap();
        let ids: Vec<u64> = suggestions.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![2, 1], "near cafe first, distant lounge excluded");
        match &suggestions[0].1 {
            augur_semantic::Directive::SuggestRoute { reason, .. } => {
                assert!(reason.contains("Corner Cafe"));
                assert!(reason.contains("min walk"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Interest filter: only food venues.
        p.context_mut().set_interests(vec!["food".into()]);
        let food_only = p.suggest_nearby(30.0, 5).unwrap();
        assert_eq!(food_only.len(), 1);
        assert_eq!(food_only[0].0, PoiId(2));
    }

    #[test]
    fn suggest_nearby_requires_pose_and_pois() {
        let p = platform();
        assert!(matches!(
            p.suggest_nearby(10.0, 3),
            Err(CoreError::InvalidScenario(_))
        ));
    }

    #[test]
    fn all_event_families_ingest() {
        use augur_geo::Enu;
        use augur_sensor::{AnchorObservation, GpsFix, ImuReading};
        let mut p = platform();
        let t = Timestamp::from_secs(1);
        let events = vec![
            SensorEvent::new(
                DeviceId(1),
                t,
                SensorReading::Gps(GpsFix {
                    time: t,
                    position: Enu::default(),
                    speed_mps: 0.0,
                    accuracy_m: 4.0,
                }),
            ),
            SensorEvent::new(
                DeviceId(1),
                t,
                SensorReading::Imu(ImuReading {
                    time: t,
                    accel_east: 0.0,
                    accel_north: 0.0,
                    yaw_rate_dps: 0.0,
                }),
            ),
            SensorEvent::new(
                DeviceId(1),
                t,
                SensorReading::Camera(AnchorObservation {
                    time: t,
                    anchor_index: 0,
                    u_px: 1.0,
                    v_px: 2.0,
                }),
            ),
            SensorEvent::new(
                DeviceId(1),
                t,
                SensorReading::Interaction {
                    kind: "purchase".into(),
                    subject: 3,
                    value: 19.9,
                },
            ),
        ];
        for e in &events {
            p.ingest(e).unwrap();
        }
        for topic in ["gps", "imu", "camera", "interaction"] {
            assert_eq!(p.broker().stats(topic).unwrap().records, 1, "{topic}");
        }
    }

    #[test]
    fn ingested_payloads_keep_their_byte_layout() {
        use augur_geo::Enu;
        use augur_sensor::{AnchorObservation, GpsFix, ImuReading};
        let le = |parts: &[&[u8]]| parts.concat();
        let t = Timestamp::from_micros(1_234_567);
        let vitals = VitalsSample {
            time: t,
            patient: 0x0102_0304,
            sign: VitalSign::SpO2,
            value: 97.25,
            in_anomaly: true,
        };
        let cases = [
            (
                SensorReading::Vitals(vitals),
                le(&[
                    &0x0102_0304u32.to_le_bytes(),
                    &[1],
                    &97.25f64.to_le_bytes(),
                    &1_234_567u64.to_le_bytes(),
                ]),
            ),
            (
                SensorReading::Gps(GpsFix {
                    time: t,
                    position: Enu::new(-12.5, 7.75, 3.0),
                    speed_mps: 1.0,
                    accuracy_m: 4.5,
                }),
                le(&[
                    &(-12.5f64).to_le_bytes(),
                    &7.75f64.to_le_bytes(),
                    &4.5f64.to_le_bytes(),
                ]),
            ),
            (
                SensorReading::Imu(ImuReading {
                    time: t,
                    accel_east: 0.5,
                    accel_north: -0.25,
                    yaw_rate_dps: 12.0,
                }),
                le(&[
                    &0.5f64.to_le_bytes(),
                    &(-0.25f64).to_le_bytes(),
                    &12.0f64.to_le_bytes(),
                ]),
            ),
            (
                SensorReading::Camera(AnchorObservation {
                    time: t,
                    anchor_index: 9,
                    u_px: 640.5,
                    v_px: 360.25,
                }),
                le(&[
                    &9u64.to_le_bytes(),
                    &640.5f64.to_le_bytes(),
                    &360.25f64.to_le_bytes(),
                ]),
            ),
            (
                SensorReading::Interaction {
                    kind: "purchase-with-a-long-name".into(),
                    subject: 3,
                    value: 19.9,
                },
                le(&[
                    &3u64.to_le_bytes(),
                    &19.9f64.to_le_bytes(),
                    b"purchase-with-a-long-name",
                ]),
            ),
        ];
        assert_eq!(crate::codec::encode_vitals(&vitals), cases[0].1);
        let mut p = platform();
        for (reading, want) in cases {
            let topic = reading.family();
            p.ingest(&SensorEvent::new(DeviceId(5), t, reading))
                .unwrap();
            let pid = p.broker().partition_for(topic, 5).unwrap();
            let got = p.broker().poll(topic, pid, 0, 2).unwrap();
            assert_eq!(got.len(), 1, "{topic}");
            assert_eq!(got[0].record.payload.as_ref(), want.as_slice(), "{topic}");
            assert_eq!(got[0].record.event_time_us, 1_234_567, "{topic}");
        }
    }
}
