//! Persisting a built [`QueryEngine`] into the CSR file's
//! frozen-artifact section, and restoring it without re-decomposing.
//!
//! The decomposition and the per-cluster hierarchy builds dominate the
//! serve tier's startup; the artifact section makes them a **one-time**
//! cost per dataset. [`store`] flattens the engine
//! ([`QueryEngine::to_frozen`]), serializes it with the little-endian
//! codec below, and atomically rewrites the CSR file with the payload
//! appended (temp sibling + rename — a concurrently mapped reader keeps
//! its old-inode view). [`load`] decodes the payload of an opened
//! [`CsrFile`] and rebuilds the engine through
//! [`QueryEngine::from_frozen`], which re-validates every structural
//! invariant — so a corrupt payload is a typed error, never a panic.
//!
//! The payload holds no adjacency: [`load`] re-derives the engine's
//! rows from the file's own graph sections ([`CsrFile::to_graph`], which
//! validates them, then [`Graph::to_simple`]).
//!
//! The payload bytes are covered by the file checksum like every other
//! section, and the byte layout is specified in `DATASETS.md`.

use crate::convert::assemble_csr_with_artifact;
use crate::enc::{ByteReader, ByteWriter};
use crate::format::FLAG_HAS_ARTIFACT;
use crate::view::CsrFile;
use crate::{Result, StorageError};
use expander::decomposition::RemovalTag;
use expander::ClusterCertificate;
use graph::Graph;
use routing::{HierarchyParts, LevelParts};
use std::path::Path;
use std::sync::Arc;
use triangle::service::{FrozenCluster, FrozenEngine, FrozenReport, QueryEngine};

/// Version byte of the artifact payload (independent of the file format
/// version: the graph sections can stay readable across artifact bumps).
/// Version 2 dropped the per-cluster adjacency rows version 1 carried.
pub const ARTIFACT_VERSION: u8 = 2;

fn bad(reason: String) -> StorageError {
    StorageError::Artifact { reason }
}

/// Persists `engine` into the artifact section of the CSR file at
/// `path`. The graph sections are copied through unchanged; the file is
/// rewritten via a temporary sibling and an atomic rename, and the
/// checksum re-covers everything. Storing over an existing artifact
/// replaces it.
///
/// # Errors
///
/// Any [`CsrFile::open`] error for `path`, [`StorageError::Artifact`] if
/// the engine was built for a different graph than the file holds, and
/// [`StorageError::Io`] on write failure.
///
/// # Examples
///
/// ```
/// use storage::{artifact, write_graph, CsrFile};
/// use triangle::service::{Emit, Query, QueryEngine};
/// use triangle::PipelineParams;
///
/// let g = graph::gen::gnp(30, 0.2, 7).unwrap();
/// let dir = storage::test_dir("doc-artifact");
/// let path = dir.join("g.csr");
/// write_graph(&g, &path).unwrap();
///
/// let engine = QueryEngine::build(&g, &PipelineParams::default());
/// artifact::store(&path, &engine).unwrap();
///
/// let file = CsrFile::open(&path).unwrap();
/// let restored = artifact::load(&file).unwrap();
/// let q = Query::Vertex { v: 3, emit: Emit::Count };
/// assert_eq!(engine.answer(q), restored.answer(q)); // charge included
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub fn store(path: &Path, engine: &QueryEngine) -> Result<()> {
    let file = CsrFile::open(path)?;
    let report = engine.build_report();
    if report.n != file.n() || report.m as u64 != file.m() {
        return Err(bad(format!(
            "engine built for n = {}, m = {}; file holds n = {}, m = {}",
            report.n,
            report.m,
            file.n(),
            file.m()
        )));
    }
    let payload = encode(&engine.to_frozen());
    let view = file.view();
    let n = file.n();
    let degrees: Vec<u64> = (0..n)
        .map(|v| view.offset(v + 1) - view.offset(v))
        .collect();
    let loops: Vec<u32> = (0..n).map(|v| view.loops_of(v as u32)).collect();
    let flags = file.header().flags | FLAG_HAS_ARTIFACT;
    assemble_csr_with_artifact(
        path,
        n,
        file.m(),
        flags,
        &degrees,
        &loops,
        file.total_self_loops(),
        |sink| {
            for i in 0..file.header().adj_len {
                sink.put(&view.adj_at(i).to_le_bytes())?;
            }
            Ok(())
        },
        Some(&payload),
    )
}

/// Restores a [`QueryEngine`] from the artifact section of an opened
/// file. The adjacency rows come from the file's own graph sections
/// ([`CsrFile::to_graph`], deduplicated unless already simple), the
/// payload is decoded with bounds-checked reads, and the engine is
/// rebuilt through [`QueryEngine::from_frozen`], which re-validates
/// every invariant a query relies on.
///
/// # Errors
///
/// [`StorageError::Artifact`] when the file carries no artifact, the
/// payload is malformed (an artifact of another version included), or
/// the frozen state fails validation; [`StorageError::Corrupt`] when the
/// graph sections fail the CSR invariants.
///
/// # Examples
///
/// See [`store`].
pub fn load(file: &CsrFile) -> Result<QueryEngine> {
    let bytes = file
        .artifact_bytes()
        .ok_or_else(|| bad("file carries no frozen artifact".to_string()))?;
    let rows = Arc::new(file.to_graph()?.into_simple());
    let frozen = decode(bytes, rows)?;
    if frozen.n != file.n() || frozen.report.m as u64 != file.m() {
        return Err(bad(format!(
            "artifact describes n = {}, m = {}; file holds n = {}, m = {}",
            frozen.n,
            frozen.report.m,
            file.n(),
            file.m()
        )));
    }
    QueryEngine::from_frozen(frozen).map_err(|e| bad(e.reason))
}

/// Where [`restore_or_build`] got its engine from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSource {
    /// Restored from the file's frozen-artifact section (cheap).
    Artifact,
    /// Built from scratch off the file's graph sections — the file
    /// carried no artifact (expensive; persist one with [`store`]).
    Built,
}

/// Re-opens the CSR file at `path` and produces a serving-ready
/// [`QueryEngine`]: restored from the frozen-artifact section when one is
/// present, otherwise **built** from the file's graph with `params`. The
/// serve frontend's startup *and* hot-swap path — each reload re-opens
/// the file fresh, so an atomically replaced file (the crate-wide
/// write-new-then-rename contract) is picked up in full.
///
/// # Errors
///
/// Any [`CsrFile::open`] error, a corrupt artifact payload
/// ([`StorageError::Artifact`]), or a graph section that fails
/// materialization. A *missing* artifact is not an error — that is the
/// build fallback.
///
/// # Examples
///
/// ```
/// use storage::artifact::{restore_or_build, store, EngineSource};
/// use triangle::PipelineParams;
///
/// let g = graph::gen::gnp(30, 0.2, 7).unwrap();
/// let dir = storage::test_dir("doc-restore-or-build");
/// let path = dir.join("g.csr");
/// storage::write_graph(&g, &path).unwrap();
///
/// // No artifact yet: falls back to a fresh build…
/// let (engine, source) = restore_or_build(&path, &PipelineParams::default()).unwrap();
/// assert_eq!(source, EngineSource::Built);
///
/// // …and once one is stored, restore takes over.
/// store(&path, &engine).unwrap();
/// let (_, source) = restore_or_build(&path, &PipelineParams::default()).unwrap();
/// assert_eq!(source, EngineSource::Artifact);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub fn restore_or_build(
    path: &Path,
    params: &triangle::PipelineParams,
) -> Result<(QueryEngine, EngineSource)> {
    let file = CsrFile::open(path)?;
    if file.artifact_bytes().is_some() {
        Ok((load(&file)?, EngineSource::Artifact))
    } else {
        let g = file.to_graph()?;
        Ok((QueryEngine::build(&g, params), EngineSource::Built))
    }
}

/// Serializes a [`FrozenEngine`] into the artifact payload bytes —
/// everything but its adjacency rows, which stay with the graph.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use storage::artifact::{decode, encode};
/// use triangle::service::QueryEngine;
/// use triangle::PipelineParams;
///
/// let g = graph::gen::gnp(20, 0.3, 11).unwrap();
/// let frozen = QueryEngine::build(&g, &PipelineParams::default()).to_frozen();
/// let rows = Arc::new(g.to_simple());
/// assert_eq!(decode(&encode(&frozen), rows).unwrap(), frozen);
/// ```
pub fn encode(frozen: &FrozenEngine) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(ARTIFACT_VERSION);
    w.put_u64(frozen.n as u64);
    w.put_u32_slice(&frozen.cluster_of);
    w.put_u64(frozen.members.len() as u64);
    for ms in &frozen.members {
        w.put_u32_slice(ms);
    }
    w.put_u64(frozen.inter_cluster.len() as u64);
    for &(u, v, tag) in &frozen.inter_cluster {
        w.put_u32(u);
        w.put_u32(v);
        w.put_u8(match tag {
            RemovalTag::Remove1 => 1,
            RemovalTag::Remove2 => 2,
            RemovalTag::Remove3 => 3,
        });
    }
    w.put_f64(frozen.phi);
    for c in &frozen.certificates {
        w.put_u64(c.size as u64);
        w.put_u64(c.internal_edges as u64);
        w.put_u64(c.volume as u64);
        w.put_u64(c.incident_removed as u64);
        w.put_f64(c.phi_target);
    }
    for fc in &frozen.clusters {
        w.put_u32_slice(&fc.local_deg);
        match &fc.hierarchy {
            None => w.put_u8(0),
            Some(h) => {
                w.put_u8(1);
                w.put_u64(h.k as u64);
                w.put_u64(h.beta as u64);
                w.put_u64(h.tau_mix as u64);
                w.put_u64(h.n as u64);
                w.put_u64(h.preprocessing_rounds);
                w.put_u64(h.levels.len() as u64);
                for level in &h.levels {
                    w.put_u32_slice(&level.group_of);
                    w.put_u64(level.portals.len() as u64);
                    for portal in &level.portals {
                        w.put_u32_slice(portal);
                    }
                }
            }
        }
    }
    w.put_u32_slice(&frozen.local_of);
    w.put_u64(frozen.report.m as u64);
    w.put_u64(frozen.report.decomposition_rounds);
    w.put_u64(frozen.report.wall_decompose_ns);
    w.put_u64(frozen.report.wall_freeze_ns);
    w.into_bytes()
}

/// Deserializes artifact payload bytes back into a [`FrozenEngine`]
/// answering from `rows`, the deduplicated adjacency of the graph the
/// payload was stored with. Bounds-checked throughout: truncated or
/// trailing bytes, unknown versions, and absurd length prefixes are
/// typed errors.
///
/// Decoding checks only the byte grammar; the *semantic* invariants are
/// [`QueryEngine::from_frozen`]'s job (which [`load`] runs for you).
///
/// # Errors
///
/// [`StorageError::Artifact`] naming the malformation.
///
/// # Examples
///
/// See [`encode`].
pub fn decode(bytes: &[u8], rows: Arc<Graph>) -> Result<FrozenEngine> {
    let mut r = ByteReader::new(bytes);
    let version = r.get_u8()?;
    if version != ARTIFACT_VERSION {
        return Err(bad(format!(
            "unsupported artifact version {version} (this build reads {ARTIFACT_VERSION})"
        )));
    }
    let n = get_usize(&mut r)?;
    let cluster_of = r.get_u32_vec()?;
    let x = r.get_len()?;
    let mut members = Vec::with_capacity(x);
    for _ in 0..x {
        members.push(r.get_u32_vec()?);
    }
    let crossing = r.get_len()?;
    let mut inter_cluster = Vec::with_capacity(crossing);
    for _ in 0..crossing {
        let u = r.get_u32()?;
        let v = r.get_u32()?;
        let tag = match r.get_u8()? {
            1 => RemovalTag::Remove1,
            2 => RemovalTag::Remove2,
            3 => RemovalTag::Remove3,
            t => return Err(bad(format!("unknown removal tag {t}"))),
        };
        inter_cluster.push((u, v, tag));
    }
    let phi = r.get_f64()?;
    let mut certificates = Vec::with_capacity(x);
    for _ in 0..x {
        certificates.push(ClusterCertificate {
            size: get_usize(&mut r)?,
            internal_edges: get_usize(&mut r)?,
            volume: get_usize(&mut r)?,
            incident_removed: get_usize(&mut r)?,
            phi_target: r.get_f64()?,
        });
    }
    let mut clusters = Vec::with_capacity(x);
    for _ in 0..x {
        let local_deg = r.get_u32_vec()?;
        let hierarchy = match r.get_u8()? {
            0 => None,
            1 => {
                let k = get_usize(&mut r)?;
                let beta = get_usize(&mut r)?;
                let tau_mix = get_usize(&mut r)?;
                let hn = get_usize(&mut r)?;
                let preprocessing_rounds = r.get_u64()?;
                let level_count = r.get_len()?;
                let mut levels = Vec::with_capacity(level_count);
                for _ in 0..level_count {
                    let group_of = r.get_u32_vec()?;
                    let groups = r.get_len()?;
                    let mut portals = Vec::with_capacity(groups);
                    for _ in 0..groups {
                        portals.push(r.get_u32_vec()?);
                    }
                    levels.push(LevelParts { group_of, portals });
                }
                Some(HierarchyParts {
                    levels,
                    k,
                    beta,
                    tau_mix,
                    n: hn,
                    preprocessing_rounds,
                })
            }
            t => return Err(bad(format!("hierarchy presence flag must be 0/1, got {t}"))),
        };
        clusters.push(FrozenCluster {
            local_deg,
            hierarchy,
        });
    }
    let local_of = r.get_u32_vec()?;
    let report = FrozenReport {
        m: get_usize(&mut r)?,
        decomposition_rounds: r.get_u64()?,
        wall_decompose_ns: r.get_u64()?,
        wall_freeze_ns: r.get_u64()?,
    };
    r.finish()?;
    Ok(FrozenEngine {
        n,
        cluster_of,
        members,
        inter_cluster,
        phi,
        certificates,
        rows,
        clusters,
        local_of,
        report,
    })
}

fn get_usize(r: &mut ByteReader<'_>) -> Result<usize> {
    usize::try_from(r.get_u64()?).map_err(|_| bad("count exceeds this platform's usize".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::write_graph;
    use triangle::service::{Emit, Query};
    use triangle::PipelineParams;

    fn engine_for(n: usize, p: f64, seed: u64) -> (graph::Graph, QueryEngine) {
        let g = graph::gen::gnp(n, p, seed).unwrap();
        let e = QueryEngine::build(&g, &PipelineParams::default());
        (g, e)
    }

    #[test]
    fn codec_roundtrips_exactly() {
        let (g, engine) = engine_for(60, 0.2, 13);
        let frozen = engine.to_frozen();
        let decoded = decode(&encode(&frozen), Arc::new(g.to_simple())).unwrap();
        assert_eq!(decoded, frozen);
    }

    #[test]
    fn store_then_load_is_query_identical() {
        let (g, engine) = engine_for(50, 0.2, 17);
        let dir = crate::test_dir("artifact-roundtrip");
        let path = dir.join("g.csr");
        write_graph(&g, &path).unwrap();
        store(&path, &engine).unwrap();
        let file = CsrFile::open(&path).unwrap();
        assert!(file.header().has_artifact());
        // The graph sections survive the rewrite byte-for-byte.
        assert_eq!(file.to_graph().unwrap(), g);
        let restored = load(&file).unwrap();
        for v in 0..g.n() as u32 {
            let q = Query::Vertex {
                v,
                emit: Emit::Enumerate,
            };
            assert_eq!(engine.answer(q), restored.answer(q), "vertex {v}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn storing_twice_replaces_the_artifact() {
        let (g, engine) = engine_for(40, 0.25, 19);
        let dir = crate::test_dir("artifact-replace");
        let path = dir.join("g.csr");
        write_graph(&g, &path).unwrap();
        store(&path, &engine).unwrap();
        store(&path, &engine).unwrap();
        let file = CsrFile::open(&path).unwrap();
        let restored = load(&file).unwrap();
        let q = Query::Vertex {
            v: 1,
            emit: Emit::Count,
        };
        assert_eq!(engine.answer(q), restored.answer(q));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_engine_is_rejected() {
        let (g, _) = engine_for(30, 0.2, 23);
        let (_, other_engine) = engine_for(31, 0.2, 23);
        let dir = crate::test_dir("artifact-mismatch");
        let path = dir.join("g.csr");
        write_graph(&g, &path).unwrap();
        assert!(matches!(
            store(&path, &other_engine),
            Err(StorageError::Artifact { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_artifact_is_a_typed_error() {
        let (g, _) = engine_for(20, 0.3, 29);
        let dir = crate::test_dir("artifact-missing");
        let path = dir.join("g.csr");
        write_graph(&g, &path).unwrap();
        let file = CsrFile::open(&path).unwrap();
        assert!(file.artifact_bytes().is_none());
        assert!(matches!(load(&file), Err(StorageError::Artifact { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_or_build_prefers_the_artifact_and_answers_identically() {
        let (g, engine) = engine_for(40, 0.2, 37);
        let dir = crate::test_dir("artifact-restore-or-build");
        let path = dir.join("g.csr");
        write_graph(&g, &path).unwrap();
        let params = PipelineParams::default();
        let (built, source) = restore_or_build(&path, &params).unwrap();
        assert_eq!(source, EngineSource::Built);
        store(&path, &engine).unwrap();
        let (restored, source) = restore_or_build(&path, &params).unwrap();
        assert_eq!(source, EngineSource::Artifact);
        for v in 0..g.n() as u32 {
            let q = Query::Vertex {
                v,
                emit: Emit::Enumerate,
            };
            assert_eq!(engine.answer(q), restored.answer(q), "vertex {v}");
            assert_eq!(
                engine.answer(q),
                built.answer(q),
                "built engine, vertex {v}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_payloads_never_panic() {
        let (g, engine) = engine_for(40, 0.2, 31);
        let pristine = encode(&engine.to_frozen());
        let rows = Arc::new(g.to_simple());
        let decode = |bytes: &[u8]| decode(bytes, Arc::clone(&rows));
        // Truncations at every prefix length decode to a typed error.
        for cut in 0..pristine.len().min(200) {
            assert!(decode(&pristine[..cut]).is_err(), "prefix {cut} accepted");
        }
        // Trailing garbage is rejected.
        let mut padded = pristine.clone();
        padded.extend_from_slice(&[0u8; 5]);
        assert!(decode(&padded).is_err());
        // Single-byte flips either fail to decode or fail from_frozen's
        // semantic validation; none may panic. (A flip confined to phi /
        // certificate floats or the wall-clock scalars can survive both —
        // those fields answer no query.)
        for at in (0..pristine.len()).step_by(37) {
            let mut bent = pristine.clone();
            bent[at] ^= 0x40;
            if let Ok(frozen) = decode(&bent) {
                let _ = QueryEngine::from_frozen(frozen);
            }
        }
    }
}
