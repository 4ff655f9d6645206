//! The unified sensor-event envelope.
//!
//! Everything a device emits is wrapped in a [`SensorEvent`] — device id,
//! event time, and a typed [`SensorReading`] — which is the record type
//! the stream substrate partitions and the analytics layer consumes. The
//! "Variety" dimension of the 3Vs is concrete here: one stream carries
//! structurally different readings.

use crate::camera::AnchorObservation;
use crate::clock::Timestamp;
use crate::gps::GpsFix;
use crate::imu::ImuReading;
use crate::physio::VitalsSample;

/// Identifies a device (phone, headset, wearable, vehicle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DeviceId(pub u64);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev:{}", self.0)
    }
}

/// A typed sensor reading.
#[derive(Debug, Clone, PartialEq)]
pub enum SensorReading {
    /// A GPS fix.
    Gps(GpsFix),
    /// An inertial sample.
    Imu(ImuReading),
    /// A camera anchor observation.
    Camera(AnchorObservation),
    /// A physiological sample.
    Vitals(VitalsSample),
    /// An application-defined interaction event (tap, gaze dwell, purchase),
    /// carried as a name plus value for the analytics layer.
    Interaction {
        /// Interaction kind, e.g. `"gaze"`, `"purchase"`.
        kind: String,
        /// Subject of the interaction (product id, POI id...).
        subject: u64,
        /// Magnitude (dwell seconds, price, rating...).
        value: f64,
    },
}

impl SensorReading {
    /// A short stable tag naming the reading family, used as a stream key
    /// component and in variety-mix accounting (experiment E12).
    pub fn family(&self) -> &'static str {
        match self {
            SensorReading::Gps(_) => "gps",
            SensorReading::Imu(_) => "imu",
            SensorReading::Camera(_) => "camera",
            SensorReading::Vitals(_) => "vitals",
            SensorReading::Interaction { .. } => "interaction",
        }
    }
}

/// A sensor event: the envelope fed into the stream substrate.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorEvent {
    /// Emitting device.
    pub device: DeviceId,
    /// Event time (when the phenomenon occurred, not when processed).
    pub time: Timestamp,
    /// The reading payload.
    pub reading: SensorReading,
}

impl SensorEvent {
    /// Creates an event.
    pub fn new(device: DeviceId, time: Timestamp, reading: SensorReading) -> Self {
        SensorEvent {
            device,
            time,
            reading,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_geo::Enu;

    #[test]
    fn family_tags_are_distinct() {
        let events = [
            SensorReading::Gps(GpsFix {
                time: Timestamp::ZERO,
                position: Enu::default(),
                speed_mps: 0.0,
                accuracy_m: 1.0,
            }),
            SensorReading::Imu(ImuReading {
                time: Timestamp::ZERO,
                accel_east: 0.0,
                accel_north: 0.0,
                yaw_rate_dps: 0.0,
            }),
            SensorReading::Interaction {
                kind: "purchase".into(),
                subject: 7,
                value: 19.99,
            },
        ];
        let tags: Vec<&str> = events.iter().map(|e| e.family()).collect();
        assert_eq!(tags, vec!["gps", "imu", "interaction"]);
    }

    #[test]
    fn event_construction() {
        let e = SensorEvent::new(
            DeviceId(3),
            Timestamp::from_secs(1),
            SensorReading::Interaction {
                kind: "gaze".into(),
                subject: 1,
                value: 2.5,
            },
        );
        assert_eq!(e.device, DeviceId(3));
        assert_eq!(e.device.to_string(), "dev:3");
        assert_eq!(e.reading.family(), "interaction");
    }
}
