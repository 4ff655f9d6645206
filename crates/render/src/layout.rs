//! Screen-space label layout.
//!
//! Three strategies, in increasing quality and cost, measured by
//! experiment E4:
//!
//! - [`naive_layout`]: every label centred on its anchor — the "floating
//!   bubbles" the paper derides; labels overlap freely.
//! - [`greedy_layout`]: place in priority order, trying a ring of
//!   candidate offsets around the anchor and skipping labels that cannot
//!   avoid overlap.
//! - [`force_layout`]: start from the naive placement and iterate
//!   pairwise repulsion plus anchor springs, then drop residual
//!   overlappers by priority.
//!
//! [`LayoutMetrics`] reports overlap ratio, mean anchor displacement, and
//! drop rate — the quantities that distinguish "pointless bubbles" from a
//! readable overlay.

use crate::view::Viewport;

/// A label to place: anchor pixel plus box extent and priority.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelBox {
    /// Stable id (scene item id).
    pub id: u64,
    /// Anchor pixel (where the leader line points).
    pub anchor_px: (f64, f64),
    /// Box width, pixels.
    pub width_px: f64,
    /// Box height, pixels.
    pub height_px: f64,
    /// Display priority; higher wins contention.
    pub priority: f64,
}

/// A placed label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedLabel {
    /// The input label id.
    pub id: u64,
    /// Centre of the placed box, pixels.
    pub center_px: (f64, f64),
    /// Anchor it refers to.
    pub anchor_px: (f64, f64),
}

impl PlacedLabel {
    fn rect(&self, label: &LabelBox) -> (f64, f64, f64, f64) {
        (
            self.center_px.0 - label.width_px / 2.0,
            self.center_px.1 - label.height_px / 2.0,
            self.center_px.0 + label.width_px / 2.0,
            self.center_px.1 + label.height_px / 2.0,
        )
    }

    /// Distance from the box centre to its anchor.
    pub fn displacement(&self) -> f64 {
        let dx = self.center_px.0 - self.anchor_px.0;
        let dy = self.center_px.1 - self.anchor_px.1;
        (dx * dx + dy * dy).sqrt()
    }
}

fn rects_overlap(a: (f64, f64, f64, f64), b: (f64, f64, f64, f64)) -> bool {
    a.0 < b.2 && a.2 > b.0 && a.1 < b.3 && a.3 > b.1
}

/// Quality metrics of a layout; see [`LayoutMetrics::measure`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayoutMetrics {
    /// Fraction of placed-label pairs that overlap.
    pub overlap_ratio: f64,
    /// Fraction of placed labels touching at least one other label —
    /// the user-visible clutter measure.
    pub overlapped_label_ratio: f64,
    /// Mean distance from box centre to anchor, pixels.
    pub mean_displacement_px: f64,
    /// Fraction of input labels that were dropped.
    pub drop_ratio: f64,
    /// Number of labels placed.
    pub placed: usize,
}

impl LayoutMetrics {
    /// Measures a layout against its inputs.
    pub fn measure(labels: &[LabelBox], placed: &[PlacedLabel]) -> Self {
        let by_id: std::collections::HashMap<u64, &LabelBox> =
            labels.iter().map(|l| (l.id, l)).collect();
        let mut overlaps = 0usize;
        let mut pairs = 0usize;
        let mut touched = vec![false; placed.len()];
        for (i, a) in placed.iter().enumerate() {
            for (joff, b) in placed.iter().skip(i + 1).enumerate() {
                pairs += 1;
                let (Some(la), Some(lb)) = (by_id.get(&a.id), by_id.get(&b.id)) else {
                    continue;
                };
                if rects_overlap(a.rect(la), b.rect(lb)) {
                    overlaps += 1;
                    touched[i] = true;
                    touched[i + 1 + joff] = true;
                }
            }
        }
        let overlapped_labels = touched.iter().filter(|t| **t).count();
        let mean_disp = if placed.is_empty() {
            0.0
        } else {
            placed.iter().map(|p| p.displacement()).sum::<f64>() / placed.len() as f64
        };
        LayoutMetrics {
            overlap_ratio: if pairs > 0 {
                overlaps as f64 / pairs as f64
            } else {
                0.0
            },
            overlapped_label_ratio: if placed.is_empty() {
                0.0
            } else {
                overlapped_labels as f64 / placed.len() as f64
            },
            mean_displacement_px: mean_disp,
            drop_ratio: 1.0 - placed.len() as f64 / labels.len().max(1) as f64,
            placed: placed.len(),
        }
    }
}

/// Naive placement: every box centred on its anchor.
pub fn naive_layout(labels: &[LabelBox], _viewport: Viewport) -> Vec<PlacedLabel> {
    labels
        .iter()
        .map(|l| PlacedLabel {
            id: l.id,
            center_px: l.anchor_px,
            anchor_px: l.anchor_px,
        })
        .collect()
}

fn clamp_to_viewport(center: (f64, f64), l: &LabelBox, vp: Viewport) -> (f64, f64) {
    (
        center
            .0
            .clamp(l.width_px / 2.0, vp.width_px as f64 - l.width_px / 2.0),
        center
            .1
            .clamp(l.height_px / 2.0, vp.height_px as f64 - l.height_px / 2.0),
    )
}

/// Greedy declutter: place in priority order, trying the anchor plus a
/// ring of offsets; labels that cannot be placed without overlap are
/// dropped.
///
/// The 25 candidate centres (the anchor, then 3 rings of 8 directions)
/// are generated lazily, one at a time, and the first that overlaps no
/// placed label wins: a label that fits at its anchor computes no ring.
pub fn greedy_layout(labels: &[LabelBox], viewport: Viewport) -> Vec<PlacedLabel> {
    let mut order: Vec<&LabelBox> = labels.iter().collect();
    order.sort_by(|a, b| {
        b.priority
            .partial_cmp(&a.priority)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });
    let mut placed: Vec<(PlacedLabel, (f64, f64, f64, f64))> = Vec::new();
    for l in order {
        // Rings of 8 directions at growing radii.
        let rings = (1..=3).flat_map(|ring| {
            let r = ring as f64 * (l.height_px.max(l.width_px / 2.0) + 4.0);
            (0..8).map(move |k| {
                let a = std::f64::consts::TAU * k as f64 / 8.0;
                (l.anchor_px.0 + r * a.cos(), l.anchor_px.1 + r * a.sin())
            })
        });
        let spot = std::iter::once(l.anchor_px).chain(rings).find_map(|c| {
            let c = clamp_to_viewport(c, l, viewport);
            let p = PlacedLabel {
                id: l.id,
                center_px: c,
                anchor_px: l.anchor_px,
            };
            let r = p.rect(l);
            placed
                .iter()
                .all(|(_, other)| !rects_overlap(r, *other))
                .then_some((p, r))
        });
        if let Some((p, r)) = spot {
            placed.push((p, r));
        }
    }
    placed.into_iter().map(|(p, _)| p).collect()
}

/// Force-directed refinement: anchor springs pull boxes home, pairwise
/// repulsion pushes overlapping boxes apart; after `iterations`, any
/// label still overlapping a higher-priority one is dropped.
pub fn force_layout(
    labels: &[LabelBox],
    viewport: Viewport,
    iterations: usize,
) -> Vec<PlacedLabel> {
    let mut centers: Vec<(f64, f64)> = labels.iter().map(|l| l.anchor_px).collect();
    let spring = 0.05;
    let repulse = 0.6;
    for _ in 0..iterations {
        let mut forces = vec![(0.0f64, 0.0f64); labels.len()];
        for i in 0..labels.len() {
            // Anchor spring.
            forces[i].0 += (labels[i].anchor_px.0 - centers[i].0) * spring;
            forces[i].1 += (labels[i].anchor_px.1 - centers[i].1) * spring;
            for j in (i + 1)..labels.len() {
                let ri = rect_at(centers[i], &labels[i]);
                let rj = rect_at(centers[j], &labels[j]);
                if rects_overlap(ri, rj) {
                    // Push apart along the centre line; resolve the
                    // degenerate same-centre case along x.
                    let mut dx = centers[i].0 - centers[j].0;
                    let mut dy = centers[i].1 - centers[j].1;
                    let norm = (dx * dx + dy * dy).sqrt();
                    if norm < 1e-6 {
                        dx = 1.0;
                        dy = 0.0;
                    } else {
                        dx /= norm;
                        dy /= norm;
                    }
                    let push = repulse
                        * ((labels[i].width_px + labels[j].width_px) / 2.0
                            + (labels[i].height_px + labels[j].height_px) / 2.0)
                        / 4.0;
                    forces[i].0 += dx * push;
                    forces[i].1 += dy * push;
                    forces[j].0 -= dx * push;
                    forces[j].1 -= dy * push;
                }
            }
        }
        for (c, f) in centers.iter_mut().zip(&forces) {
            c.0 += f.0;
            c.1 += f.1;
        }
        for (i, c) in centers.iter_mut().enumerate() {
            *c = clamp_to_viewport(*c, &labels[i], viewport);
        }
    }
    // Drop residual overlappers, low priority first.
    let mut keep: Vec<usize> = (0..labels.len()).collect();
    keep.sort_by(|&a, &b| {
        labels[b]
            .priority
            .partial_cmp(&labels[a].priority)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut accepted: Vec<usize> = Vec::new();
    for idx in keep {
        let r = rect_at(centers[idx], &labels[idx]);
        if accepted
            .iter()
            .all(|&a| !rects_overlap(r, rect_at(centers[a], &labels[a])))
        {
            accepted.push(idx);
        }
    }
    accepted.sort_unstable();
    accepted
        .into_iter()
        .map(|i| PlacedLabel {
            id: labels[i].id,
            center_px: centers[i],
            anchor_px: labels[i].anchor_px,
        })
        .collect()
}

fn rect_at(center: (f64, f64), l: &LabelBox) -> (f64, f64, f64, f64) {
    (
        center.0 - l.width_px / 2.0,
        center.1 - l.height_px / 2.0,
        center.0 + l.width_px / 2.0,
        center.1 + l.height_px / 2.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn dense_labels(n: usize, seed: u64) -> Vec<LabelBox> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| LabelBox {
                id: i as u64,
                anchor_px: (rng.gen_range(200.0..600.0), rng.gen_range(200.0..500.0)),
                width_px: 120.0,
                height_px: 30.0,
                priority: rng.gen_range(0.0..1.0),
            })
            .collect()
    }

    fn vp() -> Viewport {
        Viewport::default()
    }

    #[test]
    fn naive_has_zero_displacement_but_overlaps() {
        let labels = dense_labels(40, 1);
        let placed = naive_layout(&labels, vp());
        let m = LayoutMetrics::measure(&labels, &placed);
        assert_eq!(m.mean_displacement_px, 0.0);
        assert_eq!(m.drop_ratio, 0.0);
        assert!(m.overlap_ratio > 0.05, "dense anchors must overlap");
    }

    #[test]
    fn greedy_eliminates_overlap() {
        let labels = dense_labels(40, 2);
        let placed = greedy_layout(&labels, vp());
        let m = LayoutMetrics::measure(&labels, &placed);
        assert_eq!(m.overlap_ratio, 0.0, "greedy guarantees no overlap");
        assert!(m.placed > 10, "should place a good fraction");
    }

    #[test]
    fn greedy_prefers_high_priority() {
        // Two identical anchors: only one can sit at the anchor.
        let labels = vec![
            LabelBox {
                id: 1,
                anchor_px: (500.0, 500.0),
                width_px: 100.0,
                height_px: 30.0,
                priority: 0.1,
            },
            LabelBox {
                id: 2,
                anchor_px: (500.0, 500.0),
                width_px: 100.0,
                height_px: 30.0,
                priority: 0.9,
            },
        ];
        let placed = greedy_layout(&labels, vp());
        let two = placed.iter().find(|p| p.id == 2).unwrap();
        assert_eq!(two.center_px, (500.0, 500.0), "high priority sits home");
        if let Some(one) = placed.iter().find(|p| p.id == 1) {
            assert!(one.displacement() > 0.0);
        }
    }

    #[test]
    fn force_layout_reduces_overlap_versus_naive() {
        let labels = dense_labels(50, 3);
        let naive = LayoutMetrics::measure(&labels, &naive_layout(&labels, vp()));
        let placed = force_layout(&labels, vp(), 60);
        let forced = LayoutMetrics::measure(&labels, &placed);
        assert_eq!(forced.overlap_ratio, 0.0, "residual overlappers dropped");
        assert!(forced.placed >= naive.placed / 2);
        assert!(forced.mean_displacement_px > 0.0);
    }

    #[test]
    fn all_layouts_stay_in_viewport() {
        let labels = dense_labels(30, 4);
        for placed in [
            greedy_layout(&labels, vp()),
            force_layout(&labels, vp(), 40),
        ] {
            for p in &placed {
                let l = labels.iter().find(|l| l.id == p.id).unwrap();
                let r = p.rect(l);
                assert!(r.0 >= -1e-9 && r.1 >= -1e-9);
                assert!(r.2 <= 1920.0 + 1e-9 && r.3 <= 1080.0 + 1e-9);
            }
        }
    }

    #[test]
    fn sparse_labels_need_no_movement() {
        let labels: Vec<LabelBox> = (0..5)
            .map(|i| LabelBox {
                id: i,
                anchor_px: (200.0 + 300.0 * i as f64, 500.0),
                width_px: 100.0,
                height_px: 30.0,
                priority: 0.5,
            })
            .collect();
        let placed = greedy_layout(&labels, vp());
        let m = LayoutMetrics::measure(&labels, &placed);
        assert_eq!(m.placed, 5);
        assert_eq!(m.mean_displacement_px, 0.0);
    }

    #[test]
    fn metrics_on_empty_input() {
        let m = LayoutMetrics::measure(&[], &[]);
        assert_eq!(m.placed, 0);
        assert_eq!(m.overlap_ratio, 0.0);
    }
}
