//! Pins `greedy_layout`'s placements by digest: each placed label's id and
//! the bits of its centre, over seeded dense, sparse and viewport-clamped
//! label sets. The AR frame draws exactly these placements, so any change
//! to how candidates are generated or tried must reproduce them bit for
//! bit. The constants never change in a refactor.

use augur_render::{greedy_layout, LabelBox, Viewport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `n` labels with anchors drawn from `xs` × `ys`, random sizes and
/// priorities. Every fourth label repeats the previous one's priority, so
/// the id tie-break is exercised.
fn labels(
    rng: &mut StdRng,
    n: usize,
    xs: std::ops::Range<f64>,
    ys: std::ops::Range<f64>,
) -> Vec<LabelBox> {
    let mut prev = 0.5;
    (0..n)
        .map(|i| {
            let priority = if i % 4 == 3 {
                prev
            } else {
                rng.gen_range(0.0..1.0)
            };
            prev = priority;
            LabelBox {
                id: rng.gen_range(0..10_000),
                anchor_px: (rng.gen_range(xs.clone()), rng.gen_range(ys.clone())),
                width_px: rng.gen_range(40.0..200.0),
                height_px: rng.gen_range(16.0..48.0),
                priority,
            }
        })
        .collect()
}

fn digest(sets: impl Iterator<Item = (Vec<LabelBox>, Viewport)>) -> u64 {
    let mut h = Fnv::new();
    for (labels, vp) in sets {
        let placed = greedy_layout(&labels, vp);
        h.word(placed.len() as u64);
        for p in placed {
            h.word(p.id);
            h.word(p.center_px.0.to_bits());
            h.word(p.center_px.1.to_bits());
        }
    }
    h.0
}

const DENSE_DIGEST: u64 = 0x019d_867a_3972_62ab;
const SPARSE_DIGEST: u64 = 0x2ad0_1841_a09b_c653;
const CLAMPED_DIGEST: u64 = 0x5034_74dc_8796_3a2e;

#[test]
fn dense_placements_are_pinned() {
    let mut rng = StdRng::seed_from_u64(33);
    let vp = Viewport::default();
    let h = digest((0..300).map(|_| {
        let n = rng.gen_range(10..40);
        (labels(&mut rng, n, 600.0..1300.0, 300.0..800.0), vp)
    }));
    assert_eq!(h, DENSE_DIGEST, "dense digest {h:#018x}");
}

#[test]
fn sparse_placements_are_pinned() {
    let mut rng = StdRng::seed_from_u64(34);
    let vp = Viewport::default();
    let h = digest((0..300).map(|_| {
        let n = rng.gen_range(1..12);
        (labels(&mut rng, n, 0.0..1920.0, 0.0..1080.0), vp)
    }));
    assert_eq!(h, SPARSE_DIGEST, "sparse digest {h:#018x}");
}

#[test]
fn viewport_clamped_placements_are_pinned() {
    // A small viewport with anchors on and beyond its edges: most
    // candidates are clamped back inside.
    let mut rng = StdRng::seed_from_u64(35);
    let vp = Viewport {
        width_px: 640,
        height_px: 360,
    };
    let h = digest((0..300).map(|_| {
        let n = rng.gen_range(4..24);
        (labels(&mut rng, n, -80.0..720.0, -60.0..420.0), vp)
    }));
    assert_eq!(h, CLAMPED_DIGEST, "clamped digest {h:#018x}");
}
