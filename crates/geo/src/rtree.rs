//! A static R-tree over planar rectangles: Sort-Tile-Recursive bulk
//! loading into a packed layout, range queries, and best-first
//! k-nearest-neighbour search.
//!
//! The tree is built once and never modified. Entries sit in one array
//! in STR order. Node bounds sit in another, leaves first and the root
//! last, and each node's children are an index range: into the entries
//! for a leaf, into the nodes for an inner node.
//!
//! This is the index behind [`crate::poi::PoiDatabase`] and experiment E8
//! (POI retrieval at scale): the paper's tourism scenario assumes
//! sub-frame-budget lookup of nearby content among millions of entries,
//! which linear scans cannot deliver.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::bbox::Rect;

const MAX_ENTRIES: usize = 16;

/// A static R-tree mapping planar rectangles to payloads of type `T`.
///
/// # Example
///
/// ```
/// use augur_geo::{RTree, Rect};
///
/// let tree: RTree<usize> = (0..100)
///     .map(|i| {
///         let x = (i % 10) as f64 * 10.0;
///         let y = (i / 10) as f64 * 10.0;
///         (Rect::point(x, y), i)
///     })
///     .collect();
/// let query = Rect::new(0.0, 0.0, 25.0, 25.0)?;
/// assert_eq!(tree.range(&query).count(), 9);
/// let nearest = tree.nearest(1.0, 1.0, 1);
/// assert_eq!(*nearest[0].1, 0);
/// # Ok::<(), augur_geo::GeoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RTree<T> {
    /// Entries in STR order; each leaf owns a contiguous run.
    entries: Vec<(Rect, T)>,
    /// Node bounding rectangles: leaves first, the root last.
    bounds: Vec<Rect>,
    /// Each node's children as a half-open index range, into `entries`
    /// for a leaf and into `bounds` for an inner node.
    children: Vec<(usize, usize)>,
    /// Nodes below this index are leaves.
    leaves: usize,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RTree {
            entries: Vec::new(),
            bounds: Vec::new(),
            children: Vec::new(),
            leaves: 0,
        }
    }

    /// Bulk-loads with the Sort-Tile-Recursive algorithm: sort by centre
    /// x, slice into vertical strips, sort each strip by centre y, and
    /// pack leaves of up to 16 entries, then each level above them in
    /// groups of 16. Both sorts are stable and run in place, so `items`
    /// becomes the entry array.
    pub fn bulk_load(mut items: Vec<(Rect, T)>) -> Self {
        let len = items.len();
        if len == 0 {
            return Self::new();
        }
        let by_centre = |axis: fn((f64, f64)) -> f64| {
            move |a: &(Rect, T), b: &(Rect, T)| {
                axis(a.0.center())
                    .partial_cmp(&axis(b.0.center()))
                    .unwrap_or(Ordering::Equal)
            }
        };
        items.sort_by(by_centre(|c| c.0));
        let leaf_count = len.div_ceil(MAX_ENTRIES);
        let strips = (leaf_count as f64).sqrt().ceil() as usize;
        let per_strip = len.div_ceil(strips);
        let mut children = Vec::with_capacity(leaf_count + leaf_count.div_ceil(MAX_ENTRIES) + 2);
        for (start, strip) in (0..).step_by(per_strip).zip(items.chunks_mut(per_strip)) {
            strip.sort_by(by_centre(|c| c.1));
            let end = start + strip.len();
            for lo in (start..end).step_by(MAX_ENTRIES) {
                children.push((lo, (lo + MAX_ENTRIES).min(end)));
            }
        }
        let mut bounds: Vec<Rect> = children
            .iter()
            .map(|&(lo, hi)| {
                items[lo..hi]
                    .iter()
                    .fold(Rect::empty(), |acc, (r, _)| acc.union(r))
            })
            .collect();
        // Pack upper levels until a single root remains.
        let leaves = children.len();
        let mut level = 0..leaves;
        while level.len() > 1 {
            let next = children.len();
            for lo in level.clone().step_by(MAX_ENTRIES) {
                let hi = (lo + MAX_ENTRIES).min(level.end);
                children.push((lo, hi));
                let b = bounds[lo..hi]
                    .iter()
                    .fold(Rect::empty(), |acc, r| acc.union(r));
                bounds.push(b);
            }
            level = next..children.len();
        }
        RTree {
            entries: items,
            bounds,
            children,
            leaves,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bounding rectangle of all entries ([`Rect::empty`] when empty).
    pub fn bounds(&self) -> Rect {
        self.bounds.last().copied().unwrap_or_else(Rect::empty)
    }

    /// A node's children as an index range.
    fn span(&self, node: usize) -> std::ops::Range<usize> {
        let (lo, hi) = self.children[node];
        lo..hi
    }

    /// Iterates over entries whose rectangle intersects `query`, in a
    /// depth-first walk that visits each node's children last-first.
    pub fn range<'a>(&'a self, query: &Rect) -> Range<'a, T> {
        let mut stack = Vec::with_capacity(4 * MAX_ENTRIES);
        if self.bounds().intersects(query) {
            stack.push(self.bounds.len() - 1);
        }
        Range {
            tree: self,
            stack,
            leaf: [].iter(),
            query: *query,
        }
    }

    /// The `k` entries nearest to `(x, y)` by rectangle distance, closest
    /// first. Returns fewer than `k` when the tree is smaller.
    ///
    /// Entries at equal distance come in packed storage order. The STR
    /// sorts are stable, so entries with the same centre keep their input
    /// order. A node exactly as far as the current k-th entry is not
    /// searched, so a tie across the k-th place keeps the tied entries
    /// found first. A NaN query coordinate adds no distance on its axis,
    /// since [`Rect::distance2_to_point`] clamps each gap with `f64::max`,
    /// which ignores NaN.
    pub fn nearest(&self, x: f64, y: f64, k: usize) -> Vec<(Rect, &T)> {
        self.nearest_counted(x, y, k).0
    }

    /// Like [`RTree::nearest`], but also reports the search cost as the
    /// number of rectangle-distance evaluations performed: one for the
    /// root plus, for each node searched, one per child. The count is a
    /// deterministic proxy for query latency, usable by simulations that
    /// must not read the wall clock.
    ///
    /// The search is best-first over a min-heap of nodes. The k best
    /// entries so far sit in a max-heap bounded at k, whose top is the
    /// k-th best key; they are sorted once, at the end. A key packs the
    /// distance² bits above the node or entry index in one `u128`, so
    /// keys order by distance, then by index, which gives the tie rules
    /// above.
    pub fn nearest_counted(&self, x: f64, y: f64, k: usize) -> (Vec<(Rect, &T)>, usize) {
        let Some(root_bounds) = self.bounds.last().filter(|_| k > 0) else {
            return (Vec::new(), 0);
        };
        // Distances are never negative or NaN, so their bit patterns order
        // like the values and stay below `u64::MAX`.
        let key = |r: &Rect, i: usize| {
            (u128::from(r.distance2_to_point(x, y).to_bits()) << 64) | i as u128
        };
        let dist = |key: u128| key >> 64;
        let mut heap = BinaryHeap::with_capacity(8 * MAX_ENTRIES);
        heap.push(Reverse(key(root_bounds, self.bounds.len() - 1)));
        let mut best = BinaryHeap::with_capacity(k.min(self.len()));
        // The k-th best key, or past every key while fewer than k are kept.
        let mut kth = u128::MAX;
        let mut work = 1usize;
        while let Some(Reverse(n)) = heap.pop() {
            if dist(n) >= dist(kth) {
                break;
            }
            // The low 64 bits are the node index.
            let node = n as u64 as usize;
            let span = self.span(node);
            work += span.len();
            if node < self.leaves {
                for (i, (r, _)) in (span.start..).zip(&self.entries[span]) {
                    let e = key(r, i);
                    if e < kth {
                        if best.len() < k {
                            best.push(e);
                        } else if let Some(mut top) = best.peek_mut() {
                            *top = e;
                        }
                        if best.len() == k {
                            kth = best.peek().copied().unwrap_or(kth);
                        }
                    }
                }
            } else {
                for (c, r) in (span.start..).zip(&self.bounds[span]) {
                    let n = key(r, c);
                    if dist(n) < dist(kth) {
                        heap.push(Reverse(n));
                    }
                }
            }
        }
        let out = best
            .into_sorted_vec()
            .into_iter()
            .filter_map(|e| self.entries.get(e as u64 as usize))
            .map(|(r, v)| (*r, v))
            .collect();
        (out, work)
    }

    /// Depth of the tree (1 for a single leaf). Exposed for tests and
    /// benchmarks that verify packing quality.
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let Some(mut node) = self.bounds.len().checked_sub(1) else {
            return d;
        };
        while node >= self.leaves {
            d += 1;
            node = self.span(node).start;
        }
        d
    }
}

impl<T> FromIterator<(Rect, T)> for RTree<T> {
    fn from_iter<I: IntoIterator<Item = (Rect, T)>>(iter: I) -> Self {
        RTree::bulk_load(iter.into_iter().collect())
    }
}

/// Iterator over range-query results; see [`RTree::range`].
#[derive(Debug)]
pub struct Range<'a, T> {
    tree: &'a RTree<T>,
    /// Nodes still to visit; each intersects the query.
    stack: Vec<usize>,
    leaf: std::slice::Iter<'a, (Rect, T)>,
    query: Rect,
}

impl<'a, T> Iterator for Range<'a, T> {
    type Item = (&'a Rect, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        let tree = self.tree;
        loop {
            for (r, v) in self.leaf.by_ref() {
                if r.intersects(&self.query) {
                    return Some((r, v));
                }
            }
            let node = self.stack.pop()?;
            let span = tree.span(node);
            if node < tree.leaves {
                self.leaf = tree.entries[span].iter();
            } else {
                let query = self.query;
                self.stack
                    .extend(span.filter(|&c| tree.bounds[c].intersects(&query)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<(Rect, usize)> {
        (0..n * n)
            .map(|i| {
                let x = (i % n) as f64;
                let y = (i / n) as f64;
                (Rect::point(x, y), i)
            })
            .collect()
    }

    #[test]
    fn bulk_load_and_range() {
        let t: RTree<usize> = grid_points(20).into_iter().collect();
        assert_eq!(t.len(), 400);
        let q = Rect::new(0.0, 0.0, 4.0, 4.0).unwrap();
        let hits: Vec<usize> = t.range(&q).map(|(_, v)| *v).collect();
        assert_eq!(hits.len(), 25);
    }

    #[test]
    fn bulk_load_is_shallower_than_worst_case() {
        let t: RTree<usize> = grid_points(40).into_iter().collect(); // 1600 pts
        assert!(t.depth() <= 4, "depth {}", t.depth());
    }

    #[test]
    fn nearest_returns_sorted_by_distance() {
        let t: RTree<usize> = grid_points(10).into_iter().collect();
        let res = t.nearest(4.4, 4.4, 5);
        assert_eq!(res.len(), 5);
        assert_eq!(*res[0].1, 44); // (4,4)
        let mut prev = -1.0;
        for (r, _) in &res {
            let d = r.distance2_to_point(4.4, 4.4);
            assert!(d >= prev);
            prev = d;
        }
    }

    #[test]
    fn nearest_edge_cases() {
        let t: RTree<usize> = RTree::new();
        assert!(t.nearest(0.0, 0.0, 3).is_empty());
        let t: RTree<usize> = grid_points(3).into_iter().collect();
        assert!(t.nearest(0.0, 0.0, 0).is_empty());
        assert_eq!(t.nearest(0.0, 0.0, 100).len(), 9);
    }

    #[test]
    fn k_above_len_returns_every_entry_and_counts_every_node() {
        // 1600 points pack into 100 leaves, 7 inner nodes and a root:
        // one evaluation for the root, one per other node, one per entry.
        let t: RTree<usize> = grid_points(40).into_iter().collect();
        let (res, work) = t.nearest_counted(13.3, 27.8, 2_000);
        assert_eq!(res.len(), 1_600);
        assert_eq!(work, 1 + 107 + 1_600);
        let mut ids: Vec<usize> = res.iter().map(|(_, v)| **v).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..1_600).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_points_come_back_in_input_order() {
        // Twenty copies of one point among a grid: ties resolve by
        // storage order, which keeps input order for equal centres.
        let mut items = grid_points(10);
        items.extend((100..120).map(|i| (Rect::point(4.5, 4.5), i)));
        let t = RTree::bulk_load(items);
        let got: Vec<usize> = t.nearest(4.5, 4.5, 8).iter().map(|(_, v)| **v).collect();
        assert_eq!(got, (100..108).collect::<Vec<_>>());
        let got: Vec<usize> = t.nearest(4.5, 4.5, 24).iter().map(|(_, v)| **v).collect();
        assert_eq!(&got[..20], (100..120).collect::<Vec<_>>());
        assert_eq!(&got[20..], [44, 45, 54, 55]);
    }

    #[test]
    fn nan_query_coordinate_adds_no_distance() {
        let t: RTree<usize> = grid_points(10).into_iter().collect();
        let rows = |res: Vec<(Rect, &usize)>| res.iter().map(|(_, v)| **v / 10).collect::<Vec<_>>();
        assert_eq!(rows(t.nearest(f64::NAN, 1.2, 5)), [1; 5]);
        let cols: Vec<usize> = t
            .nearest(7.1, f64::NAN, 5)
            .iter()
            .map(|(_, v)| **v % 10)
            .collect();
        assert_eq!(cols, [7; 5]);
        assert_eq!(t.nearest(f64::NAN, f64::NAN, 5).len(), 5);
    }

    #[test]
    fn empty_tree_range_is_empty() {
        let t: RTree<u8> = RTree::new();
        let q = Rect::new(-1.0, -1.0, 1.0, 1.0).unwrap();
        assert_eq!(t.range(&q).count(), 0);
        assert!(t.is_empty());
        assert!(t.bounds().is_empty());
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn rect_entries_supported() {
        let t: RTree<&str> = [
            (Rect::new(0.0, 0.0, 10.0, 10.0).unwrap(), "big"),
            (Rect::new(20.0, 20.0, 21.0, 21.0).unwrap(), "small"),
        ]
        .into_iter()
        .collect();
        let q = Rect::new(5.0, 5.0, 6.0, 6.0).unwrap();
        let hits: Vec<&&str> = t.range(&q).map(|(_, v)| v).collect();
        assert_eq!(hits, vec![&"big"]);
    }

    #[test]
    fn range_brute_force_agreement_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let items: Vec<(Rect, usize)> = (0..500)
            .map(|i| {
                (
                    Rect::point(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                    i,
                )
            })
            .collect();
        let tree = RTree::bulk_load(items.clone());
        for _ in 0..20 {
            let x0 = rng.gen_range(0.0..90.0);
            let y0 = rng.gen_range(0.0..90.0);
            let q = Rect::new(x0, y0, x0 + 10.0, y0 + 10.0).unwrap();
            let mut got: Vec<usize> = tree.range(&q).map(|(_, v)| *v).collect();
            let mut want: Vec<usize> = items
                .iter()
                .filter(|(r, _)| r.intersects(&q))
                .map(|(_, v)| *v)
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }
}
