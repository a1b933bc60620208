//! Opening on-disk CSR files and reading them zero-copy.
//!
//! [`CsrFile::open`] maps the file (`crate::mmap`), validates it —
//! magic, version, exact length, checksum, then the structural invariants
//! the zero-copy accessors rely on (monotone offsets, in-range sorted
//! rows, consistent loop totals) — and hands out [`CsrView`]s that read
//! the mapped bytes directly. Nothing is decoded ahead of time: a
//! `degree` lookup is one `u64` load from the offsets section, a
//! neighborhood walk streams `u32`s out of the adjacency section.
//!
//! The one cross-row invariant `open` does **not** check is adjacency
//! symmetry (`w ∈ row(u) ⇔ u ∈ row(w)`), a second pass over the rows;
//! [`CsrFile::to_graph`] validates it when materializing a [`Graph`]
//! (see [`Graph::from_csr_parts`]). The checksum already catches
//! accidental corruption; the symmetry pass is the defense against a
//! *consistently checksummed* but malformed writer.

use crate::format::{Header, Layout, HEADER_LEN};
use crate::mmap::MappedFile;
use crate::{Chk64, Result, StorageError};
use graph::view::AdjacencyView;
use graph::{Graph, VertexId};
use std::path::Path;

/// An opened, validated on-disk CSR file.
///
/// # Examples
///
/// ```
/// use storage::{write_graph, CsrFile};
///
/// let g = graph::gen::gnp(30, 0.2, 5).unwrap();
/// let dir = storage::test_dir("doc-open");
/// let path = dir.join("g.csr");
/// write_graph(&g, &path).unwrap();
///
/// let file = CsrFile::open(&path).unwrap();
/// assert_eq!(file.n(), 30);
/// let view = file.view();
/// // Zero-copy degree lookups against the mapped bytes.
/// for v in 0..30u32 {
///     assert_eq!(view.degree(v), g.degree(v));
/// }
/// assert_eq!(file.to_graph().unwrap(), g);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug)]
pub struct CsrFile {
    map: MappedFile,
    header: Header,
    layout: Layout,
}

impl CsrFile {
    /// Opens and fully validates `path`.
    ///
    /// # Errors
    ///
    /// Every way a file can be wrong is a typed [`StorageError`]:
    /// [`StorageError::Io`] when it cannot be read,
    /// [`StorageError::BadMagic`] / [`StorageError::BadVersion`] when it
    /// is not (this version of) the format,
    /// [`StorageError::Truncated`] when bytes are missing,
    /// [`StorageError::ChecksumMismatch`] on bit rot, and
    /// [`StorageError::Corrupt`] when a structural invariant fails.
    pub fn open(path: &Path) -> Result<CsrFile> {
        let map = MappedFile::open(path)?;
        let bytes = map.bytes();
        let header = Header::parse(bytes)?;
        let layout = header.layout()?;
        if (bytes.len() as u64) != layout.file_len {
            return Err(StorageError::Truncated {
                expected: layout.file_len,
                found: bytes.len() as u64,
            });
        }
        let mut hasher = Chk64::new();
        hasher.update(&bytes[HEADER_LEN..]);
        let computed = hasher.finalize();
        if computed != header.checksum {
            return Err(StorageError::ChecksumMismatch {
                stored: header.checksum,
                computed,
            });
        }
        let file = CsrFile {
            map,
            header,
            layout,
        };
        file.validate_structure()?;
        Ok(file)
    }

    /// Structural invariants the zero-copy accessors rely on. `O(n + m)`.
    fn validate_structure(&self) -> Result<()> {
        let view = self.view();
        let n = self.header.n as usize;
        let corrupt = |reason: String| Err(StorageError::Corrupt { reason });
        if view.offset(0) != 0 {
            return corrupt(format!("offsets[0] = {} (want 0)", view.offset(0)));
        }
        let mut prev_end = 0u64;
        for v in 0..n {
            let (start, end) = (view.offset(v), view.offset(v + 1));
            if start != prev_end {
                return corrupt(format!("offsets not contiguous at vertex {v}"));
            }
            if end < start {
                return corrupt(format!("offsets decrease at vertex {v}"));
            }
            prev_end = end;
            let mut last: Option<u32> = None;
            for i in start..end {
                let w = view.adj_at(i);
                if w as u64 >= self.header.n {
                    return corrupt(format!("neighbor {w} of vertex {v} out of range"));
                }
                if w as usize == v {
                    return corrupt(format!(
                        "self loop {v} stored in the adjacency section (loops have their own section)"
                    ));
                }
                if let Some(p) = last {
                    if w < p {
                        return corrupt(format!("row of vertex {v} not sorted"));
                    }
                }
                last = Some(w);
            }
        }
        if prev_end != self.header.adj_len {
            return corrupt(format!(
                "offsets end at {prev_end}, adjacency section holds {}",
                self.header.adj_len
            ));
        }
        let loop_sum: u64 = (0..n).map(|v| view.loops_of(v as VertexId) as u64).sum();
        if loop_sum != self.header.total_loops {
            return corrupt(format!(
                "self-loop counts sum to {loop_sum}, header says {}",
                self.header.total_loops
            ));
        }
        Ok(())
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.header.n as usize
    }

    /// Number of non-loop undirected edges (with multiplicity).
    pub fn m(&self) -> u64 {
        self.header.m
    }

    /// Total self loops.
    pub fn total_self_loops(&self) -> u64 {
        self.header.total_loops
    }

    /// The parsed header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Whether the bytes are served by a live `mmap` (false = heap copy).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// The zero-copy adjacency view over the mapped sections.
    pub fn view(&self) -> CsrView<'_> {
        let bytes = self.map.bytes();
        let n = self.header.n as usize;
        CsrView {
            n,
            m: self.header.m,
            total_loops: self.header.total_loops,
            offsets: &bytes[self.layout.offsets as usize..][..(n + 1) * 8],
            adj: &bytes[self.layout.adj as usize..][..self.header.adj_len as usize * 4],
            loops: &bytes[self.layout.loops as usize..][..n * 4],
        }
    }

    /// The frozen-artifact payload, if the file carries one.
    pub fn artifact_bytes(&self) -> Option<&[u8]> {
        if !self.header.has_artifact() {
            return None;
        }
        let start = self.layout.artifact as usize;
        Some(&self.map.bytes()[start..start + self.header.artifact_len as usize])
    }

    /// Materializes a full in-memory [`Graph`] from the sections.
    ///
    /// This is the one copying step between the file and the pipeline:
    /// the sections are memcpy'd into the `Graph`'s own arrays and
    /// [`Graph::from_csr_parts`] re-validates them — including the
    /// adjacency **symmetry** check `open` skips (see module docs).
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] when the sections fail the graph
    /// invariants.
    pub fn to_graph(&self) -> Result<Graph> {
        let view = self.view();
        let offsets: Vec<usize> = (0..=view.n).map(|v| view.offset(v) as usize).collect();
        let adj: Vec<VertexId> = (0..self.header.adj_len).map(|i| view.adj_at(i)).collect();
        let loops: Vec<u32> = (0..view.n).map(|v| view.loops_of(v as VertexId)).collect();
        Graph::from_csr_parts(offsets, adj, loops).map_err(|e| StorageError::Corrupt {
            reason: format!("graph invariants rejected the sections: {e}"),
        })
    }
}

/// Zero-copy CSR accessors over the mapped section bytes.
///
/// Implements [`AdjacencyView`], so subgraph extraction and any kernel
/// generic over adjacency reads straight from the file mapping.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    n: usize,
    m: u64,
    total_loops: u64,
    offsets: &'a [u8],
    adj: &'a [u8],
    loops: &'a [u8],
}

impl CsrView<'_> {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of non-loop undirected edges (with multiplicity).
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Total self loops.
    pub fn total_self_loops(&self) -> u64 {
        self.total_loops
    }

    #[inline]
    pub(crate) fn offset(&self, v: usize) -> u64 {
        u64::from_le_bytes(self.offsets[v * 8..v * 8 + 8].try_into().unwrap())
    }

    #[inline]
    pub(crate) fn adj_at(&self, slot: u64) -> u32 {
        let at = slot as usize * 4;
        u32::from_le_bytes(self.adj[at..at + 4].try_into().unwrap())
    }

    #[inline]
    pub(crate) fn loops_of(&self, v: VertexId) -> u32 {
        let at = v as usize * 4;
        u32::from_le_bytes(self.loops[at..at + 4].try_into().unwrap())
    }

    /// `deg(v)` including self loops (each loop counts 1).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` (same hot-path convention as [`Graph::degree`]).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.row_len(v) + self.loops_of(v) as usize
    }

    #[inline]
    fn row_len(&self, v: VertexId) -> usize {
        (self.offset(v as usize + 1) - self.offset(v as usize)) as usize
    }

    /// Iterator over `v`'s neighbors (ascending, parallel edges repeated),
    /// decoded on the fly from the mapped bytes.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        (self.offset(v as usize)..self.offset(v as usize + 1)).map(|i| self.adj_at(i))
    }
}

impl AdjacencyView for CsrView<'_> {
    fn view_n(&self) -> usize {
        self.n
    }

    fn view_degree(&self, v: VertexId) -> usize {
        self.degree(v)
    }

    fn view_degree_without_loops(&self, v: VertexId) -> usize {
        self.row_len(v)
    }

    fn view_self_loops(&self, v: VertexId) -> u32 {
        self.loops_of(v)
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        for w in self.neighbors(v) {
            f(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::write_graph;
    use graph::view::Subgraph;
    use graph::VertexSet;

    #[test]
    fn view_matches_graph_accessors() {
        let g = graph::gen::gnp(50, 0.15, 3).unwrap();
        let g = g.remove_edges([(0, 1), (2, 3)], true); // some loops
        let dir = crate::test_dir("view");
        let path = dir.join("g.csr");
        write_graph(&g, &path).unwrap();
        let file = CsrFile::open(&path).unwrap();
        assert_eq!(file.n(), g.n());
        assert_eq!(file.m(), g.m() as u64);
        assert_eq!(file.total_self_loops(), g.total_self_loops() as u64);
        let view = file.view();
        for v in 0..g.n() as u32 {
            assert_eq!(view.degree(v), g.degree(v));
            assert_eq!(view.loops_of(v), g.self_loops(v));
            let row: Vec<u32> = view.neighbors(v).collect();
            assert_eq!(row.as_slice(), g.neighbors(v));
        }
        assert_eq!(file.to_graph().unwrap(), g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn subgraph_extraction_reads_through_the_view() {
        let g = graph::gen::gnp(40, 0.2, 9).unwrap();
        let dir = crate::test_dir("view-sub");
        let path = dir.join("g.csr");
        write_graph(&g, &path).unwrap();
        let file = CsrFile::open(&path).unwrap();
        let view = file.view();
        let s = VertexSet::from_iter(g.n(), (0u32..20).filter(|v| v % 3 != 0));
        let via_view = Subgraph::loop_augmented(&view, &s);
        let via_graph = Subgraph::loop_augmented(&g, &s);
        assert_eq!(via_view.graph(), via_graph.graph());
        assert_eq!(via_view.parent_ids(), via_graph.parent_ids());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn both_backends_agree() {
        let g = graph::gen::gnp(30, 0.25, 11).unwrap();
        let dir = crate::test_dir("view-backends");
        let path = dir.join("g.csr");
        write_graph(&g, &path).unwrap();
        let mapped = CsrFile::open(&path).unwrap();
        // The heap path is env-gated; exercise the decode logic by
        // comparing the mapped view against the materialized graph (the
        // heap branch itself is covered by CI's STORAGE_FORCE_HEAP=1 run
        // of `tests/storage_roundtrip.rs` and `tests/artifact_persistence.rs`).
        assert_eq!(mapped.to_graph().unwrap(), g);
        std::fs::remove_dir_all(&dir).ok();
    }
}
