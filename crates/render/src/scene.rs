//! The scene graph of overlay items.

use std::collections::BTreeMap;

use augur_geo::Enu;

use crate::error::RenderError;
use crate::view::ViewCamera;

/// What kind of overlay an item is.
#[derive(Debug, Clone, PartialEq)]
pub enum OverlayKind {
    /// A text label.
    Label(String),
    /// A highlight contour ("x-ray" outline), RGB colour.
    Highlight(u32),
    /// A 3-D model by catalogue name.
    Model(String),
}

/// One overlay item pinned at a world position.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayItem {
    /// Stable id within the scene.
    pub id: u64,
    /// World anchor, metres ENU.
    pub anchor: Enu,
    /// The visual.
    pub kind: OverlayKind,
    /// Display priority in `[0, 1]`; contention resolves high-first.
    pub priority: f64,
}

/// A scene graph: overlay items indexed by id, queryable by view.
///
/// # Example
///
/// ```
/// use augur_render::{OverlayItem, OverlayKind, SceneGraph, ViewCamera, Viewport};
/// use augur_geo::Enu;
///
/// let mut scene = SceneGraph::new();
/// scene.insert(OverlayItem {
///     id: 1,
///     anchor: Enu::new(0.0, 30.0, 2.0),
///     kind: OverlayKind::Label("Cafe".into()),
///     priority: 0.9,
/// });
/// let cam = ViewCamera::new(Enu::new(0.0, 0.0, 1.6), 0.0, 66.0, Viewport::default(), 500.0)?;
/// assert_eq!(scene.visible_items(&cam).len(), 1);
/// # Ok::<(), augur_render::RenderError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SceneGraph {
    items: BTreeMap<u64, OverlayItem>,
}

impl SceneGraph {
    /// Creates an empty scene.
    pub fn new() -> Self {
        SceneGraph::default()
    }

    /// Inserts or replaces an item, returning the previous one if any.
    pub fn insert(&mut self, item: OverlayItem) -> Option<OverlayItem> {
        self.items.insert(item.id, item)
    }

    /// Removes an item.
    ///
    /// # Errors
    ///
    /// [`RenderError::UnknownItem`] if absent.
    pub fn remove(&mut self, id: u64) -> Result<OverlayItem, RenderError> {
        self.items.remove(&id).ok_or(RenderError::UnknownItem(id))
    }

    /// Looks an item up.
    pub fn get(&self, id: u64) -> Option<&OverlayItem> {
        self.items.get(&id)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the scene is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates all items in id order.
    pub fn iter(&self) -> impl Iterator<Item = &OverlayItem> {
        self.items.values()
    }

    /// Items inside the camera frustum, paired with their projected
    /// pixel anchor, ordered by priority (highest first).
    pub fn visible_items(&self, camera: &ViewCamera) -> Vec<(&OverlayItem, (f64, f64))> {
        let mut out: Vec<(&OverlayItem, (f64, f64))> = self
            .items
            .values()
            .filter_map(|item| camera.project(item.anchor).map(|px| (item, px)))
            .collect();
        out.sort_by(|a, b| {
            b.0.priority
                .partial_cmp(&a.0.priority)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.id.cmp(&b.0.id))
        });
        out
    }

    /// Retains only items satisfying the predicate, returning the number
    /// removed (e.g. expiring stale overlays).
    pub fn retain(&mut self, mut keep: impl FnMut(&OverlayItem) -> bool) -> usize {
        let before = self.items.len();
        self.items.retain(|_, item| keep(item));
        before - self.items.len()
    }
}

impl Extend<OverlayItem> for SceneGraph {
    fn extend<I: IntoIterator<Item = OverlayItem>>(&mut self, iter: I) {
        for item in iter {
            self.insert(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::Viewport;

    fn label(id: u64, east: f64, north: f64, priority: f64) -> OverlayItem {
        OverlayItem {
            id,
            anchor: Enu::new(east, north, 2.0),
            kind: OverlayKind::Label(format!("L{id}")),
            priority,
        }
    }

    fn cam() -> ViewCamera {
        ViewCamera::new(
            Enu::new(0.0, 0.0, 1.6),
            0.0,
            66.0,
            Viewport::default(),
            500.0,
        )
        .unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut s = SceneGraph::new();
        assert!(s.insert(label(1, 0.0, 10.0, 0.5)).is_none());
        assert!(s.get(1).is_some());
        assert!(s.insert(label(1, 0.0, 20.0, 0.5)).is_some(), "replace");
        assert_eq!(s.remove(1).unwrap().anchor.north, 20.0);
        assert_eq!(s.remove(1), Err(RenderError::UnknownItem(1)));
    }

    #[test]
    fn visible_items_culls_and_sorts() {
        let mut s = SceneGraph::new();
        s.extend([
            label(1, 0.0, 50.0, 0.2),
            label(2, 0.0, 80.0, 0.9),
            label(3, 0.0, -50.0, 1.0),   // behind
            label(4, 2000.0, 50.0, 1.0), // out of fov / far
        ]);
        let vis = s.visible_items(&cam());
        let ids: Vec<u64> = vis.iter().map(|(i, _)| i.id).collect();
        assert_eq!(ids, vec![2, 1], "priority order, culled others");
    }

    #[test]
    fn retain_expires_items() {
        let mut s = SceneGraph::new();
        s.extend((0..10).map(|i| label(i, 0.0, 10.0 + i as f64, 0.5)));
        let removed = s.retain(|item| item.id % 2 == 0);
        assert_eq!(removed, 5);
        assert_eq!(s.len(), 5);
    }
}
