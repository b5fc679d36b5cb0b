//! The flash translation layer with two regions (paper §4.3.2 item 1).
//!
//! The physical address space splits into a **conventional region**
//! (TLC mode, horizontal layout, ordinary logical-page mapping) and a
//! **CIPHERMATCH region** (SLC mode, vertical layout, mapped at the
//! granularity of 32-wordline *groups*). Each region keeps its own
//! logical-to-physical table, so transposition stays transparent to the
//! host.

use std::collections::HashMap;

use cm_flash::{FlashGeometry, PageAddr, PlaneAddr};
use serde::{Deserialize, Serialize};

/// Wordlines per vertical group (one bit of a 32-bit coefficient each).
pub const GROUP_WORDLINES: usize = 32;

/// Physical location of one vertical group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GroupAddr {
    /// The plane (latch set) owning the group.
    pub plane: PlaneAddr,
    /// Block within the plane.
    pub block: usize,
    /// First wordline of the 32-wordline group.
    pub wl_base: usize,
}

/// The two-region FTL.
#[derive(Debug)]
pub struct Ftl {
    geometry: FlashGeometry,
    /// Conventional region: logical page number → physical page.
    conventional: HashMap<u64, PageAddr>,
    next_conventional: usize,
    /// CIPHERMATCH region: group index → physical group, allocated
    /// round-robin across planes to maximize compute parallelism.
    cm_groups: Vec<GroupAddr>,
    /// First block of each plane reserved for the conventional region.
    cm_first_block: usize,
}

impl Ftl {
    /// Creates an FTL over a geometry, reserving blocks
    /// `[0, cm_first_block)` of each plane for the conventional region.
    ///
    /// # Panics
    ///
    /// Panics if the reservation leaves no CIPHERMATCH blocks.
    pub fn new(geometry: FlashGeometry, cm_first_block: usize) -> Self {
        assert!(
            cm_first_block < geometry.blocks_per_plane,
            "no blocks left for the CIPHERMATCH region"
        );
        Self {
            geometry,
            conventional: HashMap::new(),
            next_conventional: 0,
            cm_groups: Vec::new(),
            cm_first_block,
        }
    }

    /// The geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Groups that fit in one plane's CIPHERMATCH region.
    pub fn groups_per_plane(&self) -> usize {
        let blocks = self.geometry.blocks_per_plane - self.cm_first_block;
        blocks * (self.geometry.wordlines_per_block / GROUP_WORDLINES)
    }

    /// Total CIPHERMATCH-region capacity in groups.
    pub fn group_capacity(&self) -> usize {
        self.groups_per_plane() * self.geometry.total_planes()
    }

    /// Maps (or returns the existing mapping of) a conventional logical
    /// page.
    ///
    /// # Panics
    ///
    /// Panics when the conventional region is exhausted.
    pub fn map_conventional(&mut self, lpn: u64) -> PageAddr {
        if let Some(&addr) = self.conventional.get(&lpn) {
            return addr;
        }
        let planes: Vec<PlaneAddr> = self.geometry.planes().collect();
        let pages_per_plane = self.cm_first_block * self.geometry.wordlines_per_block;
        let idx = self.next_conventional;
        assert!(
            idx < pages_per_plane * planes.len(),
            "conventional region exhausted"
        );
        // Stripe across planes for write parallelism.
        let plane = planes[idx % planes.len()];
        let slot = idx / planes.len();
        let addr = PageAddr {
            plane,
            block: slot / self.geometry.wordlines_per_block,
            wordline: slot % self.geometry.wordlines_per_block,
        };
        self.next_conventional += 1;
        self.conventional.insert(lpn, addr);
        addr
    }

    /// Looks up a conventional mapping without allocating.
    pub fn lookup_conventional(&self, lpn: u64) -> Option<PageAddr> {
        self.conventional.get(&lpn).copied()
    }

    /// Total conventional-region capacity in pages.
    pub fn conventional_capacity(&self) -> usize {
        self.cm_first_block * self.geometry.wordlines_per_block * self.geometry.total_planes()
    }

    /// Conventional pages already mapped (mappings are never reclaimed, so
    /// this is also the high-water mark the next [`Self::map_conventional`]
    /// of a fresh lpn allocates from).
    pub fn conventional_in_use(&self) -> usize {
        self.next_conventional
    }

    /// Allocates the next CIPHERMATCH group (round-robin across planes so
    /// consecutive groups land on different latch sets).
    ///
    /// # Panics
    ///
    /// Panics when the CIPHERMATCH region is exhausted.
    pub fn allocate_group(&mut self) -> GroupAddr {
        let idx = self.cm_groups.len();
        assert!(idx < self.group_capacity(), "CIPHERMATCH region exhausted");
        let planes: Vec<PlaneAddr> = self.geometry.planes().collect();
        let plane = planes[idx % planes.len()];
        let slot = idx / planes.len();
        let groups_per_block = self.geometry.wordlines_per_block / GROUP_WORDLINES;
        let addr = GroupAddr {
            plane,
            block: self.cm_first_block + slot / groups_per_block,
            wl_base: (slot % groups_per_block) * GROUP_WORDLINES,
        };
        self.cm_groups.push(addr);
        addr
    }

    /// All allocated groups in logical order.
    pub fn groups(&self) -> &[GroupAddr] {
        &self.cm_groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl() -> Ftl {
        Ftl::new(FlashGeometry::tiny_test(), 1)
    }

    #[test]
    fn conventional_mapping_is_stable() {
        let mut f = ftl();
        let a = f.map_conventional(7);
        let b = f.map_conventional(7);
        assert_eq!(a, b);
        assert_eq!(f.lookup_conventional(7), Some(a));
        assert_eq!(f.lookup_conventional(8), None);
        // Conventional pages stay below the CM region.
        assert!(a.block < 1);
    }

    #[test]
    fn conventional_capacity_tracks_reservation_and_use() {
        let mut f = ftl();
        // tiny_test: 1 reserved block/plane x 64 WLs x 8 planes.
        assert_eq!(f.conventional_capacity(), 64 * 8);
        assert_eq!(f.conventional_in_use(), 0);
        f.map_conventional(0);
        f.map_conventional(1);
        f.map_conventional(0); // remap: no new allocation
        assert_eq!(f.conventional_in_use(), 2);
    }

    #[test]
    fn groups_round_robin_across_planes() {
        let mut f = ftl();
        let planes = f.geometry().total_planes();
        let first: Vec<GroupAddr> = (0..planes).map(|_| f.allocate_group()).collect();
        // The first `planes` groups each land on a distinct plane.
        let unique: std::collections::HashSet<_> = first.iter().map(|g| g.plane).collect();
        assert_eq!(unique.len(), planes);
        // The next one reuses plane 0 at the next slot.
        let next = f.allocate_group();
        assert_eq!(next.plane, first[0].plane);
        assert!(next.wl_base == GROUP_WORDLINES || next.block > first[0].block);
    }

    #[test]
    fn group_capacity_accounts_reservation() {
        let f = ftl();
        // tiny_test: 64 WLs/block -> 2 groups/block; 3 CM blocks/plane.
        assert_eq!(f.groups_per_plane(), 3 * 2);
        assert_eq!(f.group_capacity(), 6 * f.geometry().total_planes());
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut f = ftl();
        for _ in 0..=f.group_capacity() {
            let _ = f.allocate_group();
        }
    }

    #[test]
    fn groups_never_collide() {
        let mut f = ftl();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..f.group_capacity() {
            let g = f.allocate_group();
            assert!(seen.insert(g), "duplicate group {g:?}");
            assert!(g.wl_base + GROUP_WORDLINES <= f.geometry().wordlines_per_block);
            assert!(g.block < f.geometry().blocks_per_plane);
        }
    }
}
