//! Stripe layout: file offsets → (I/O node, array offset) segments.
//!
//! PFS stripes each file round-robin across the I/O nodes in fixed units
//! (64 KB on the CCSF system). Stripe unit `u` of a file lives on I/O node
//! `u mod N` at node-local unit index `u div N`. An application request
//! covering several units is decomposed into per-I/O-node segments, merging
//! units that are contiguous in node-local space (consecutive units owned by
//! the same node always are — their global indices differ by `N`).

/// PFS default stripe unit (§3.2): 64 KB.
pub const DEFAULT_STRIPE_UNIT: u64 = 64 * 1024;

/// One per-I/O-node piece of a striped request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Owning I/O node.
    pub io_node: u32,
    /// Offset in the file's node-local linear space on that I/O node.
    pub local_offset: u64,
    /// Length in bytes.
    pub bytes: u64,
}

/// Round-robin stripe map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeLayout {
    /// Stripe unit, bytes.
    pub unit: u64,
    /// Number of I/O nodes.
    pub io_nodes: u32,
}

impl StripeLayout {
    /// New layout; unit and node count must be nonzero.
    pub fn new(unit: u64, io_nodes: u32) -> StripeLayout {
        assert!(unit > 0, "stripe unit must be nonzero");
        assert!(io_nodes > 0, "need at least one i/o node");
        StripeLayout { unit, io_nodes }
    }

    /// The PFS default: 64 KB units.
    pub fn pfs(io_nodes: u32) -> StripeLayout {
        StripeLayout::new(DEFAULT_STRIPE_UNIT, io_nodes)
    }

    /// I/O node owning the stripe unit that contains `offset`.
    pub fn io_node_of(&self, offset: u64) -> u32 {
        ((offset / self.unit) % self.io_nodes as u64) as u32
    }

    /// Node-local offset of `offset` on its owning I/O node.
    pub fn local_offset_of(&self, offset: u64) -> u64 {
        let unit_idx = offset / self.unit;
        (unit_idx / self.io_nodes as u64) * self.unit + offset % self.unit
    }

    /// Decompose `[offset, offset + bytes)` into per-I/O-node segments,
    /// merging node-locally contiguous units. Segments are returned in
    /// ascending file-offset order of their first byte.
    pub fn segments(&self, offset: u64, bytes: u64) -> Vec<Segment> {
        let mut segs = Vec::new();
        self.segments_into(offset, bytes, &mut segs);
        segs
    }

    /// [`StripeLayout::segments`], appending into a caller-owned buffer —
    /// the hot-path form, letting the file systems reuse one scratch
    /// vector across requests instead of allocating per request.
    ///
    /// A request covers its stripe units without gaps, and units `u` and
    /// `u + io_nodes` are always node-locally contiguous, so every unit a
    /// node owns merges into a single segment: exactly one segment per
    /// touched node, in order of the node's first unit.
    pub fn segments_into(&self, offset: u64, bytes: u64, segs: &mut Vec<Segment>) {
        if bytes == 0 {
            return;
        }
        let n = self.io_nodes as u64;
        let end = offset + bytes;
        let first_unit = offset / self.unit;
        let last_unit = (end - 1) / self.unit;
        let touched = (last_unit - first_unit + 1).min(n);
        segs.reserve(touched as usize);
        for k in 0..touched {
            let u = first_unit + k;
            let start = offset.max(u * self.unit);
            // The node's last unit inside the request, and the request's
            // end within it.
            let ul = u + ((last_unit - u) / n) * n;
            let stop = end.min((ul + 1) * self.unit);
            let local = self.local_offset_of(start);
            segs.push(Segment {
                io_node: (u % n) as u32,
                local_offset: local,
                bytes: self.local_offset_of(stop - 1) + 1 - local,
            });
        }
    }

    /// Round `bytes` up to a whole number of stripe units — the padding
    /// ESCAT's developers applied when computing staging offsets "dependent
    /// on the node number, iteration, and PFS stripe size" (§5.1).
    pub fn round_up(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.unit) * self.unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_ownership_round_robins() {
        let l = StripeLayout::new(64 * 1024, 16);
        assert_eq!(l.io_node_of(0), 0);
        assert_eq!(l.io_node_of(64 * 1024), 1);
        assert_eq!(l.io_node_of(15 * 64 * 1024), 15);
        assert_eq!(l.io_node_of(16 * 64 * 1024), 0);
        assert_eq!(l.local_offset_of(16 * 64 * 1024), 64 * 1024);
        assert_eq!(l.local_offset_of(17 * 64 * 1024 + 5), 64 * 1024 + 5);
    }

    #[test]
    fn small_request_single_segment() {
        let l = StripeLayout::pfs(16);
        let segs = l.segments(2048, 2048);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].io_node, 0);
        assert_eq!(segs[0].local_offset, 2048);
        assert_eq!(segs[0].bytes, 2048);
    }

    #[test]
    fn request_crossing_one_boundary() {
        let l = StripeLayout::pfs(16);
        // 82 KB starting at 60 KB: 4 KB on node 0, then 64 KB on node 1,
        // then 14 KB on node 2.
        let segs = l.segments(60 * 1024, 82 * 1024);
        assert_eq!(segs.len(), 3);
        assert_eq!(
            segs[0],
            Segment {
                io_node: 0,
                local_offset: 60 * 1024,
                bytes: 4 * 1024
            }
        );
        assert_eq!(
            segs[1],
            Segment {
                io_node: 1,
                local_offset: 0,
                bytes: 64 * 1024
            }
        );
        assert_eq!(
            segs[2],
            Segment {
                io_node: 2,
                local_offset: 0,
                bytes: 14 * 1024
            }
        );
    }

    #[test]
    fn large_request_merges_per_io_node() {
        let l = StripeLayout::pfs(16);
        // 3 MB from 0: 48 units over 16 nodes = 3 contiguous units per node.
        let segs = l.segments(0, 3 * 1024 * 1024);
        assert_eq!(segs.len(), 16);
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(s.io_node as usize, i);
            assert_eq!(s.local_offset, 0);
            assert_eq!(s.bytes, 3 * 64 * 1024);
        }
    }

    #[test]
    fn bytes_conserved() {
        let l = StripeLayout::new(4096, 5);
        for (off, len) in [
            (0u64, 1u64),
            (1, 4096),
            (4095, 2),
            (10_000, 123_456),
            (0, 0),
        ] {
            let total: u64 = l.segments(off, len).iter().map(|s| s.bytes).sum();
            assert_eq!(total, len, "offset {off} len {len}");
        }
    }

    #[test]
    fn segments_mapped_consistently() {
        // Every byte of every segment maps back to the right io node/local
        // offset.
        let l = StripeLayout::new(1000, 3);
        let off = 2500u64;
        let len = 7300u64;
        for seg in l.segments(off, len) {
            // First byte of the segment:
            let mut found = false;
            for p in off..off + len {
                if l.io_node_of(p) == seg.io_node && l.local_offset_of(p) == seg.local_offset {
                    found = true;
                    break;
                }
            }
            assert!(found, "segment start unmapped: {seg:?}");
        }
    }

    #[test]
    fn single_io_node_merges_everything() {
        let l = StripeLayout::new(4096, 1);
        let segs = l.segments(100, 1 << 20);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].local_offset, 100);
        assert_eq!(segs[0].bytes, 1 << 20);
    }

    /// The closed-form decomposition must match a brute-force chunk walk
    /// (the obviously-correct reference) for a spread of geometries.
    #[test]
    fn segments_match_chunk_walk_reference() {
        fn reference(l: &StripeLayout, offset: u64, bytes: u64) -> Vec<Segment> {
            let mut segs: Vec<Segment> = Vec::new();
            let mut pos = offset;
            let end = offset + bytes;
            while pos < end {
                let chunk_end = ((pos / l.unit + 1) * l.unit).min(end);
                let io_node = l.io_node_of(pos);
                let local = l.local_offset_of(pos);
                let len = chunk_end - pos;
                match segs
                    .iter_mut()
                    .find(|s| s.io_node == io_node && s.local_offset + s.bytes == local)
                {
                    Some(prev) => prev.bytes += len,
                    None => segs.push(Segment {
                        io_node,
                        local_offset: local,
                        bytes: len,
                    }),
                }
                pos = chunk_end;
            }
            segs
        }
        for (unit, nodes) in [(1000, 3), (4096, 1), (64 * 1024, 16), (512, 7)] {
            let l = StripeLayout::new(unit, nodes);
            for offset in [0, 1, unit - 1, unit, 3 * unit + 17, 10 * unit] {
                for bytes in [1, unit, unit + 1, 5 * unit - 3, 40 * unit, 41 * unit + 9] {
                    assert_eq!(
                        l.segments(offset, bytes),
                        reference(&l, offset, bytes),
                        "unit={unit} nodes={nodes} offset={offset} bytes={bytes}"
                    );
                }
            }
        }
    }

    #[test]
    fn round_up_to_stripe() {
        let l = StripeLayout::pfs(16);
        assert_eq!(l.round_up(1), 64 * 1024);
        assert_eq!(l.round_up(64 * 1024), 64 * 1024);
        assert_eq!(l.round_up(104_000), 128 * 1024);
        assert_eq!(l.round_up(0), 0);
    }
}
