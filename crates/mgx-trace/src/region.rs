//! Named address regions and their data classes.

/// What kind of data a region holds.
///
/// The class determines MGX's defaults: which on-chip version-number stream
/// covers the region (paper Fig 6 tags features/weights/gradients) and which
/// MAC granularity is appropriate (e.g. embedding tables keep fine-grained
/// 64 B MACs because they are gathered randomly — paper §VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataClass {
    /// DNN activations / feature maps (read & written once per layer).
    Feature,
    /// DNN weights (read-only during inference, updated once per step in
    /// training).
    Weight,
    /// DNN back-propagation gradients.
    Gradient,
    /// DLRM-style embedding tables — large, randomly gathered.
    Embedding,
    /// Graph adjacency structure (read-only, streamed per tile).
    Adjacency,
    /// Graph vertex-attribute vector (rank / frontier / distances).
    VertexAttr,
    /// Genome reference sequence / seed tables (read-only after load).
    Reference,
    /// Genome query sequences (loaded per batch, then read-only).
    Query,
    /// GACT traceback pointers (written sequentially, read by software).
    Traceback,
    /// Decoded video frame buffer.
    Frame,
    /// Compressed video bitstream.
    Bitstream,
    /// Anything else.
    Other,
}

/// Identifier of a region inside a [`RegionMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// A contiguous, named address range in the protected physical space.
#[derive(Debug, Clone)]
pub struct Region {
    /// Human-readable name (e.g. `"conv3.ofmap"`).
    pub name: String,
    /// Base physical address.
    pub base: u64,
    /// Size in bytes.
    pub bytes: u64,
    /// Data class (drives protection policy defaults).
    pub class: DataClass,
}

impl Region {
    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.base + self.bytes
    }
}

/// An append-only collection of regions with a bump allocator.
///
/// Accelerator models declare their tensors/buffers here; the protection
/// engines look regions up by [`RegionId`] to apply per-region policy.
///
/// # Example
///
/// ```
/// use mgx_trace::{DataClass, RegionMap};
///
/// let mut map = RegionMap::new();
/// let w = map.alloc("weights", 4 << 20, DataClass::Weight);
/// let x = map.alloc("ifmap", 1 << 20, DataClass::Feature);
/// assert_ne!(w, x);
/// assert_eq!(map.get(w).name, "weights");
/// assert!(map.get(x).base >= 4 << 20);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RegionMap {
    regions: Vec<Region>,
    next_base: u64,
}

/// Alignment for freshly allocated regions (4 KB, one metadata-friendly
/// page).
const REGION_ALIGN: u64 = 4096;

impl RegionMap {
    /// Creates an empty map allocating from address 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a new region of `bytes`, 4 KB-aligned, after all previous
    /// regions.
    pub fn alloc(&mut self, name: impl Into<String>, bytes: u64, class: DataClass) -> RegionId {
        let base = self.next_base.next_multiple_of(REGION_ALIGN);
        self.next_base = base + bytes;
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region { name: name.into(), base, bytes, class });
        id
    }

    /// Looks a region up.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this map.
    pub fn get(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// `true` if no regions have been declared.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Iterates over `(id, region)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RegionId, &Region)> {
        self.regions.iter().enumerate().map(|(i, r)| (RegionId(i as u32), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = RegionMap::new();
        let a = m.alloc("a", 100, DataClass::Feature);
        let b = m.alloc("b", 5000, DataClass::Weight);
        let (ra, rb) = (m.get(a).clone(), m.get(b).clone());
        assert_eq!(ra.base % 4096, 0);
        assert_eq!(rb.base % 4096, 0);
        assert!(ra.end() <= rb.base, "regions must not overlap");
    }
}
