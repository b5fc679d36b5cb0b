//! SSD / NAND flash geometry (paper §2.3, Fig. 1, and Table 3).

use serde::{Deserialize, Serialize};

/// Physical organization of the simulated SSD's NAND flash.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashGeometry {
    /// Independent flash channels.
    pub channels: usize,
    /// Dies per channel (share the channel bus, time-interleaved).
    pub dies_per_channel: usize,
    /// Planes per die (independent latch sets).
    pub planes_per_die: usize,
    /// Blocks per plane.
    pub blocks_per_plane: usize,
    /// Wordlines per block (Table 3 states 196 = "4 x 48"; see DESIGN.md).
    pub wordlines_per_block: usize,
    /// Page size in bytes (one wordline in SLC mode).
    pub page_bytes: usize,
}

impl FlashGeometry {
    /// Table 3's configuration: 2 TB SSD, 8 channels, 8 dies/channel,
    /// 2 planes/die, 2048 blocks/plane, 196 WLs/block, 4 KiB pages.
    pub fn paper_default() -> Self {
        Self {
            channels: 8,
            dies_per_channel: 8,
            planes_per_die: 2,
            blocks_per_plane: 2048,
            wordlines_per_block: 196,
            page_bytes: 4096,
        }
    }

    /// A tiny geometry for functional tests (pages of 64 bytes).
    pub fn tiny_test() -> Self {
        Self {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 4,
            wordlines_per_block: 64,
            page_bytes: 64,
        }
    }

    /// Bitlines per plane (= page width in bits).
    pub fn page_bits(&self) -> usize {
        self.page_bytes * 8
    }

    /// Planes across the whole SSD — the unit of compute parallelism for
    /// in-flash processing.
    pub fn total_planes(&self) -> usize {
        self.channels * self.dies_per_channel * self.planes_per_die
    }

    /// Planes per channel (share one channel bus for DMA).
    pub fn planes_per_channel(&self) -> usize {
        self.dies_per_channel * self.planes_per_die
    }
}

/// Address of a plane (the latch-set granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlaneAddr {
    /// Channel index.
    pub channel: usize,
    /// Die within the channel.
    pub die: usize,
    /// Plane within the die.
    pub plane: usize,
}

/// Address of one SLC page (a wordline within a block within a plane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PageAddr {
    /// The plane holding the page.
    pub plane: PlaneAddr,
    /// Block within the plane.
    pub block: usize,
    /// Wordline within the block.
    pub wordline: usize,
}

impl FlashGeometry {
    /// Validates that an address is inside this geometry.
    pub fn check_page(&self, addr: &PageAddr) -> bool {
        addr.plane.channel < self.channels
            && addr.plane.die < self.dies_per_channel
            && addr.plane.plane < self.planes_per_die
            && addr.block < self.blocks_per_plane
            && addr.wordline < self.wordlines_per_block
    }

    /// Enumerates every plane in canonical (channel, die, plane) order.
    pub fn planes(&self) -> impl Iterator<Item = PlaneAddr> + '_ {
        let (c, d, p) = (self.channels, self.dies_per_channel, self.planes_per_die);
        (0..c).flat_map(move |channel| {
            (0..d).flat_map(move |die| {
                (0..p).map(move |plane| PlaneAddr {
                    channel,
                    die,
                    plane,
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_addressing_bounds() {
        let g = FlashGeometry::tiny_test();
        let ok = PageAddr {
            plane: PlaneAddr {
                channel: 1,
                die: 1,
                plane: 1,
            },
            block: 3,
            wordline: 63,
        };
        assert!(g.check_page(&ok));
        let bad = PageAddr { block: 4, ..ok };
        assert!(!g.check_page(&bad));
    }

    #[test]
    fn plane_enumeration_is_exhaustive() {
        let g = FlashGeometry::tiny_test();
        let planes: Vec<_> = g.planes().collect();
        assert_eq!(planes.len(), g.total_planes());
        assert_eq!(
            planes[0],
            PlaneAddr {
                channel: 0,
                die: 0,
                plane: 0
            }
        );
        assert_eq!(planes.last().unwrap().channel, 1);
    }
}
