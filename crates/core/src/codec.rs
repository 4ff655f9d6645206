//! Compact byte codecs for moving typed events through the broker.
//!
//! The stream substrate stores opaque payloads (as a real log does); the
//! platform needs stable, compact encodings for its event families. A
//! fixed little-endian layout keeps decode cost negligible against the
//! per-record pipeline overhead the benchmarks measure.

use augur_sensor::{Timestamp, VitalSign, VitalsSample};

/// Wire form of a vitals sample: the fields the healthcare pipeline
/// routes and windows on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VitalsRecord {
    /// Patient index.
    pub patient: u32,
    /// The sign measured.
    pub sign: VitalSign,
    /// Measured value.
    pub value: f64,
    /// Sample time (event time), microseconds.
    pub t_us: u64,
}

fn sign_code(sign: VitalSign) -> u8 {
    match sign {
        VitalSign::HeartRate => 0,
        VitalSign::SpO2 => 1,
        VitalSign::Temperature => 2,
    }
}

fn sign_from(code: u8) -> Option<VitalSign> {
    match code {
        0 => Some(VitalSign::HeartRate),
        1 => Some(VitalSign::SpO2),
        2 => Some(VitalSign::Temperature),
        _ => None,
    }
}

/// Encodes a vitals sample: `patient:u32 | sign:u8 | value:f64 | t:u64`,
/// little-endian, 21 bytes.
pub fn encode_vitals(s: &VitalsSample) -> Vec<u8> {
    vitals_bytes(s).to_vec()
}

/// [`encode_vitals`] into a stack array.
pub(crate) fn vitals_bytes(s: &VitalsSample) -> [u8; 21] {
    let mut out = [0u8; 21];
    out[0..4].copy_from_slice(&s.patient.to_le_bytes());
    out[4] = sign_code(s.sign);
    out[5..13].copy_from_slice(&s.value.to_le_bytes());
    out[13..21].copy_from_slice(&s.time.as_micros().to_le_bytes());
    out
}

/// Decodes a vitals record; `None` on wrong length or unknown sign code
/// (mixed-schema topics tolerate foreign records by skipping them).
pub fn decode_vitals(bytes: &[u8]) -> Option<VitalsRecord> {
    if bytes.len() != 21 {
        return None;
    }
    let patient = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
    let sign = sign_from(bytes[4])?;
    let value = f64::from_le_bytes(bytes[5..13].try_into().ok()?);
    let t_us = u64::from_le_bytes(bytes[13..21].try_into().ok()?);
    Some(VitalsRecord {
        patient,
        sign,
        value,
        t_us,
    })
}

/// Reconstructs a [`VitalsSample`] (without the ground-truth label,
/// which never crosses the wire) from a decoded record.
pub fn vitals_sample_of(r: &VitalsRecord) -> VitalsSample {
    VitalsSample {
        time: Timestamp::from_micros(r.t_us),
        patient: r.patient,
        sign: r.sign,
        value: r.value,
        in_anomaly: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_signs() {
        for sign in VitalSign::ALL {
            let s = VitalsSample {
                time: Timestamp::from_micros(123_456_789),
                patient: 42,
                sign,
                value: 97.25,
                in_anomaly: true,
            };
            let bytes = encode_vitals(&s);
            assert_eq!(bytes.len(), 21);
            let r = decode_vitals(&bytes).unwrap();
            assert_eq!(r.patient, 42);
            assert_eq!(r.sign, sign);
            assert_eq!(r.value, 97.25);
            assert_eq!(r.t_us, 123_456_789);
            // Labels never round-trip (privacy: ground truth stays local).
            assert!(!vitals_sample_of(&r).in_anomaly);
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(decode_vitals(&[]).is_none());
        assert!(decode_vitals(&[0u8; 20]).is_none());
        assert!(decode_vitals(&[0u8; 22]).is_none());
        let mut bad = vec![0u8; 21];
        bad[4] = 9; // unknown sign
        assert!(decode_vitals(&bad).is_none());
    }
}
