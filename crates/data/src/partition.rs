//! Spatial partitioning: longest-axis recursive splits over a dataset's
//! extent.
//!
//! A [`SpatialPartition`] carves the dataset's bounding box into `n`
//! axis-aligned regions by recursively splitting the longer axis of the
//! current region at an object-count median, so shards stay balanced on
//! clustered data.  The regions tile the extent exactly (interiors are
//! pairwise disjoint, closed regions share only their cut lines) and every
//! object is *assigned* to exactly one shard by the deterministic rule
//! "strictly below the cut goes left, at-or-above goes right", so shard
//! membership is never ambiguous for objects sitting on a cut.
//!
//! The regions are the shard table of the sharded engine in `asrs-core`,
//! which scatters each search over the anchor slabs they induce; the
//! engine keeps no per-shard copy of the data.

use crate::Dataset;
use asrs_geo::Rect;

/// A spatial partition of a dataset into `n` shard regions.
///
/// Built by [`SpatialPartition::build`]; the regions tile the dataset
/// extent and [`SpatialPartition::assignment`] maps every object index to
/// the single shard that owns it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialPartition {
    regions: Vec<Rect>,
    assignment: Vec<usize>,
}

impl SpatialPartition {
    /// Partitions `dataset` into `shards` regions (at least 1) by
    /// longest-axis recursive splitting.
    ///
    /// Degenerate inputs are handled without panicking: duplicate points,
    /// single-axis (collinear) datasets and `shards > dataset.len()` all
    /// produce valid partitions — some shards simply come out empty, with
    /// zero-area regions tiling the cut lines.
    pub fn build(dataset: &Dataset, shards: usize) -> Self {
        let shards = shards.max(1);
        let extent = dataset
            .bounding_box()
            .unwrap_or_else(|| Rect::new(0.0, 0.0, 0.0, 0.0));
        let mut partition = SpatialPartition {
            regions: Vec::with_capacity(shards),
            assignment: vec![usize::MAX; dataset.len()],
        };
        let indices: Vec<usize> = (0..dataset.len()).collect();
        partition.split(dataset, indices, extent, shards);
        debug_assert_eq!(partition.regions.len(), shards);
        debug_assert!(partition
            .assignment
            .iter()
            .all(|&s| s < shards || dataset.is_empty()));
        partition
    }

    /// Recursively splits `rect` (holding the objects at `indices`) into
    /// `k` regions, appending them to `self.regions` in deterministic
    /// left-to-right order and recording the assignment.
    fn split(&mut self, dataset: &Dataset, mut indices: Vec<usize>, rect: Rect, k: usize) {
        if k <= 1 {
            let shard = self.regions.len();
            self.regions.push(rect);
            for idx in indices {
                self.assignment[idx] = shard;
            }
            return;
        }
        let left_shards = k / 2;
        let right_shards = k - left_shards;
        // Split the longer axis so regions stay roughly square; ties go to
        // the x axis for determinism.
        let split_x = rect.width() >= rect.height();
        let coord = |idx: usize| -> f64 {
            let o = dataset.object(idx);
            if split_x {
                o.location.x
            } else {
                o.location.y
            }
        };
        // Deterministic order: by coordinate, object index breaking ties.
        indices.sort_by(|&a, &b| coord(a).total_cmp(&coord(b)).then(a.cmp(&b)));
        // The cut aims at giving the left branch its proportional share of
        // the objects.  Objects strictly below the cut go left, everything
        // at or above goes right — so runs of duplicate coordinates never
        // straddle the cut.
        let target_left = indices.len() * left_shards / k;
        let cut = if indices.is_empty() {
            if split_x {
                (rect.min_x + rect.max_x) / 2.0
            } else {
                (rect.min_y + rect.max_y) / 2.0
            }
        } else {
            coord(indices[target_left.min(indices.len() - 1)])
        };
        // Clamp into the region so the child rectangles stay valid even for
        // degenerate extents.
        let cut = if split_x {
            cut.clamp(rect.min_x, rect.max_x)
        } else {
            cut.clamp(rect.min_y, rect.max_y)
        };
        let boundary = indices.partition_point(|&idx| coord(idx) < cut);
        let right_indices = indices.split_off(boundary);
        let (left_rect, right_rect) = if split_x {
            (
                Rect::new(rect.min_x, rect.min_y, cut, rect.max_y),
                Rect::new(cut, rect.min_y, rect.max_x, rect.max_y),
            )
        } else {
            (
                Rect::new(rect.min_x, rect.min_y, rect.max_x, cut),
                Rect::new(rect.min_x, cut, rect.max_x, rect.max_y),
            )
        };
        self.split(dataset, indices, left_rect, left_shards);
        self.split(dataset, right_indices, right_rect, right_shards);
    }

    /// The shard regions, tiling the dataset extent.
    pub fn regions(&self) -> &[Rect] {
        &self.regions
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.regions.len()
    }

    /// The shard owning each object, indexed like the dataset.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The shard owning object `idx`.
    pub fn shard_of(&self, idx: usize) -> usize {
        self.assignment[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TweetGenerator, UniformGenerator};
    use crate::{DatasetBuilder, Schema};

    /// Seeded sweep standing in for a property test: disjoint interiors,
    /// exact cover of the extent, and a unique shard per object.
    #[test]
    fn partitions_are_disjoint_cover_the_extent_and_assign_uniquely() {
        for seed in 0..5u64 {
            let ds = UniformGenerator::default().generate(180 + seed as usize * 37, seed);
            for shards in [1, 2, 3, 4, 7, 8] {
                let partition = SpatialPartition::build(&ds, shards);
                assert_eq!(partition.shard_count(), shards);
                let extent = ds.bounding_box().unwrap();
                // Regions stay inside the extent and tile it: areas add up
                // and interiors are pairwise disjoint.
                let mut area = 0.0;
                for r in partition.regions() {
                    assert!(extent.contains_rect(r), "{r} outside {extent}");
                    area += r.area();
                }
                assert!(
                    (area - extent.area()).abs() <= 1e-6 * extent.area().max(1.0),
                    "shards={shards}: areas {area} != extent {}",
                    extent.area()
                );
                for (i, a) in partition.regions().iter().enumerate() {
                    for b in partition.regions().iter().skip(i + 1) {
                        assert!(!a.interiors_intersect(b), "{a} overlaps {b}");
                    }
                }
                // Every object is assigned to exactly one shard and lies in
                // that shard's (closed) region.
                for (idx, o) in ds.iter() {
                    let shard = partition.shard_of(idx);
                    assert!(shard < shards);
                    assert!(
                        partition.regions()[shard].contains_point(&o.location),
                        "object {idx} at {} not in region {}",
                        o.location,
                        partition.regions()[shard]
                    );
                }
            }
        }
    }

    #[test]
    fn clustered_data_stays_balanced() {
        let ds = TweetGenerator::compact(8).generate(400, 11);
        let partition = SpatialPartition::build(&ds, 4);
        for shard in 0..4 {
            let len = partition
                .assignment()
                .iter()
                .filter(|&&s| s == shard)
                .count();
            // Median splits keep every shard within a factor of the ideal
            // quarter even on clustered data.
            assert!(len >= 40, "shard holds only {len} of 400");
            assert!(len <= 200);
        }
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        // All-duplicate points: every object shares one location.
        let mut b = DatasetBuilder::new(Schema::empty());
        for _ in 0..10 {
            b.push(3.0, 4.0, vec![]);
        }
        let ds = b.build().unwrap();
        let partition = SpatialPartition::build(&ds, 4);
        assert_eq!(partition.shard_count(), 4);
        let owners: std::collections::HashSet<usize> =
            partition.assignment().iter().copied().collect();
        assert_eq!(owners.len(), 1, "duplicates all land in one shard");
        assert!(partition.assignment().iter().all(|&s| s < 4));

        // Single-axis (collinear) dataset.
        let mut b = DatasetBuilder::new(Schema::empty());
        for i in 0..12 {
            b.push(i as f64, 5.0, vec![]);
        }
        let ds = b.build().unwrap();
        let partition = SpatialPartition::build(&ds, 3);
        for (idx, o) in ds.iter() {
            assert!(partition.regions()[partition.shard_of(idx)].contains_point(&o.location));
        }

        // More shards than objects: the extras are simply empty.
        let mut b = DatasetBuilder::new(Schema::empty());
        for i in 0..5 {
            b.push(i as f64, i as f64, vec![]);
        }
        let ds = b.build().unwrap();
        let partition = SpatialPartition::build(&ds, 7);
        assert_eq!(partition.shard_count(), 7);
        assert!(partition.assignment().iter().all(|&s| s < 7));
        assert!((0..7).any(|shard| !partition.assignment().contains(&shard)));

        // Empty dataset.
        let empty = Dataset::new_unchecked(Schema::empty(), vec![]);
        let partition = SpatialPartition::build(&empty, 3);
        assert_eq!(partition.shard_count(), 3);
        assert!(partition.assignment().is_empty());

        // Zero shards clamps to one.
        assert_eq!(SpatialPartition::build(&empty, 0).shard_count(), 1);
    }

    #[test]
    fn partitions_are_deterministic() {
        let ds = UniformGenerator::default().generate(250, 3);
        let a = SpatialPartition::build(&ds, 5);
        let b = SpatialPartition::build(&ds, 5);
        assert_eq!(a, b);
    }
}
