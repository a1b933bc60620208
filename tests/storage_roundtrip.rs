//! Round-trip guarantees of the on-disk CSR ingestion tier (ISSUE 8,
//! DATASETS.md):
//!
//! * **bit identity** — edge list → on-disk CSR → mmap view → `Graph`
//!   reproduces the in-memory graph exactly, and re-converting produces
//!   byte-identical files (the format has one canonical encoding);
//! * **semantic identity** — triangle counts agree across the original
//!   edges, the converted file, and the Morton-relabeled file (Morton is
//!   an isomorphism: counts are invariant, labels are not);
//! * **no UB on bad input** — truncations, bit flips, and header forgeries
//!   produce typed [`storage::StorageError`]s, never a panic, on both the
//!   mmap and the forced-heap load path.

use expander_repro::prelude::*;
use proptest::prelude::*;
use std::fs;
use std::path::Path;
use storage::StorageError;

/// Writes `edges` as a plain-text edge list (with a vertex-count header
/// so isolated vertices survive) and converts it with `opts`.
fn convert_edges(
    dir: &Path,
    tag: &str,
    n: usize,
    edges: &[(u32, u32)],
    opts: &ConvertOptions,
) -> storage::Result<(storage::ConvertReport, std::path::PathBuf)> {
    let txt = dir.join(format!("{tag}.txt"));
    let mut body = format!("n {n}\n");
    for &(u, v) in edges {
        body.push_str(&format!("{u} {v}\n"));
    }
    fs::write(&txt, body).unwrap();
    let out = dir.join(format!("{tag}.csr"));
    convert_edge_list(&txt, &out, opts).map(|r| (r, out))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn edge_list_to_disk_to_graph_is_bit_identical(
        raw in proptest::collection::vec((0u32..48, 0u32..48), 60),
        n in 48usize..64,
    ) {
        let dir = storage::test_dir("prop-roundtrip");
        // Reference in-memory graph straight from the same edges. The
        // converter deduplicates, so deduplicate the reference too (the
        // multigraph path is covered by `dedup: false` below).
        let mut canon: Vec<(u32, u32)> = raw
            .iter()
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        canon.sort_unstable();
        canon.dedup();
        let reference = Graph::from_edges(n, canon.clone()).unwrap();

        let (report, out) =
            convert_edges(&dir, "plain", n, &raw, &ConvertOptions::default()).unwrap();
        prop_assert_eq!(report.n, n);
        let file = CsrFile::open(&out).unwrap();
        let loaded = file.to_graph().unwrap();
        prop_assert_eq!(&loaded, &reference);
        // The zero-copy view agrees with the materialized graph row by row.
        let view = file.view();
        for v in 0..n as u32 {
            let row: Vec<u32> = view.neighbors(v).collect();
            prop_assert_eq!(row.as_slice(), reference.neighbors(v));
            prop_assert_eq!(view.degree(v), reference.degree(v));
        }
        // Triangle counts survive the disk trip.
        prop_assert_eq!(count_triangles(&loaded), count_triangles(&reference));
        // Same input, same bytes: the encoding is canonical.
        let (_, out2) =
            convert_edges(&dir, "plain2", n, &raw, &ConvertOptions::default()).unwrap();
        prop_assert_eq!(fs::read(&out).unwrap(), fs::read(&out2).unwrap());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn morton_relabeling_preserves_triangle_counts(
        raw in proptest::collection::vec((0u32..40, 0u32..40), 50),
    ) {
        let dir = storage::test_dir("prop-morton");
        let plain = ConvertOptions::default();
        let morton = ConvertOptions { morton: true, ..Default::default() };
        let (_, p) = convert_edges(&dir, "plain", 40, &raw, &plain).unwrap();
        let (_, m) = convert_edges(&dir, "morton", 40, &raw, &morton).unwrap();
        let gp = CsrFile::open(&p).unwrap().to_graph().unwrap();
        let gm = CsrFile::open(&m).unwrap().to_graph().unwrap();
        // Isomorphic relabeling: triangle count and degree multiset are
        // invariant; the labels themselves are not.
        prop_assert_eq!(count_triangles(&gp), count_triangles(&gm));
        let mut dp: Vec<usize> = (0..gp.n() as u32).map(|v| gp.degree(v)).collect();
        let mut dm: Vec<usize> = (0..gm.n() as u32).map(|v| gm.degree(v)).collect();
        dp.sort_unstable();
        dm.sort_unstable();
        prop_assert_eq!(dp, dm);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multigraph_conversion_keeps_multiplicities(
        raw in proptest::collection::vec((0u32..20, 0u32..20), 30),
    ) {
        let dir = storage::test_dir("prop-multi");
        let opts = ConvertOptions { dedup: false, ..Default::default() };
        let (report, out) = convert_edges(&dir, "multi", 20, &raw, &opts).unwrap();
        let reference = Graph::from_edges(20, raw.clone()).unwrap();
        prop_assert_eq!(report.m as usize + report.self_loops as usize, raw.len());
        let loaded = CsrFile::open(&out).unwrap().to_graph().unwrap();
        prop_assert_eq!(loaded, reference);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncations_and_bit_flips_are_typed_errors(
        cut_frac in 0.0f64..1.0,
        flip_at in 0usize..4096,
        flip_bit in 0u32..8,
    ) {
        let dir = storage::test_dir("prop-corrupt");
        let g = gen::gnp(40, 0.2, 99).unwrap();
        let path = dir.join("g.csr");
        write_graph(&g, &path).unwrap();
        let pristine = fs::read(&path).unwrap();

        // Truncate anywhere: open must fail with a typed error, not panic.
        let cut = ((pristine.len() as f64) * cut_frac) as usize;
        if cut < pristine.len() {
            let t = dir.join("t.csr");
            fs::write(&t, &pristine[..cut]).unwrap();
            prop_assert!(CsrFile::open(&t).is_err(), "truncation at {} accepted", cut);
        }
        // Flip one bit anywhere: either the checksum catches it (section
        // bytes), or header validation does (magic, version, layout,
        // loop totals). The single exception is the two defined flag
        // bits — the header itself is not checksummed (DATASETS.md), and
        // FLAG_MORTON / FLAG_HAS_ARTIFACT with an empty artifact section
        // change metadata only, so those flips legally open.
        let at = flip_at % pristine.len();
        let flag_bit_flip = at == 12 && flip_bit < 2;
        if !flag_bit_flip {
            let mut bent = pristine.clone();
            bent[at] ^= 1 << flip_bit;
            let f = dir.join("f.csr");
            fs::write(&f, &bent).unwrap();
            prop_assert!(
                CsrFile::open(&f).is_err(),
                "bit flip at byte {} bit {} accepted",
                at,
                flip_bit
            );
        }
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn forced_heap_path_agrees_with_mmap() {
    let dir = storage::test_dir("heap-path");
    let g = gen::gnp(60, 0.15, 7).unwrap();
    let path = dir.join("g.csr");
    write_graph(&g, &path).unwrap();
    // CI also runs this suite with STORAGE_FORCE_HEAP=1 for the whole
    // process; then both opens take the heap path and the variable is
    // left set for the other tests.
    let forced = std::env::var_os("STORAGE_FORCE_HEAP").is_some_and(|v| v == "1");
    let mapped = CsrFile::open(&path).unwrap();
    assert_eq!(
        mapped.is_mapped(),
        !forced,
        "mmap path should engage on unix unless the heap is forced"
    );
    // The env-gated heap fallback must validate and decode identically.
    std::env::set_var("STORAGE_FORCE_HEAP", "1");
    let heaped = CsrFile::open(&path);
    if !forced {
        std::env::remove_var("STORAGE_FORCE_HEAP");
    }
    let heaped = heaped.unwrap();
    assert!(!heaped.is_mapped());
    assert_eq!(mapped.to_graph().unwrap(), heaped.to_graph().unwrap());
    assert_eq!(heaped.to_graph().unwrap(), g);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn forged_headers_are_rejected_not_trusted() {
    let dir = storage::test_dir("forged");
    let g = gen::gnp(30, 0.2, 11).unwrap();
    let path = dir.join("g.csr");
    write_graph(&g, &path).unwrap();
    let pristine = fs::read(&path).unwrap();

    // Wrong magic.
    let mut bad = pristine.clone();
    bad[0] = b'X';
    fs::write(dir.join("magic.csr"), &bad).unwrap();
    assert!(matches!(
        CsrFile::open(&dir.join("magic.csr")),
        Err(StorageError::BadMagic { .. })
    ));

    // Future version.
    let mut bad = pristine.clone();
    bad[8] = 0xFF;
    fs::write(dir.join("version.csr"), &bad).unwrap();
    assert!(matches!(
        CsrFile::open(&dir.join("version.csr")),
        Err(StorageError::BadVersion { .. })
    ));

    // Checksum forged to 0: sections no longer match.
    let mut bad = pristine.clone();
    for b in &mut bad[56..64] {
        *b = 0;
    }
    fs::write(dir.join("sum.csr"), &bad).unwrap();
    assert!(matches!(
        CsrFile::open(&dir.join("sum.csr")),
        Err(StorageError::ChecksumMismatch { .. })
    ));

    // Empty and absurdly short files.
    fs::write(dir.join("empty.csr"), b"").unwrap();
    assert!(CsrFile::open(&dir.join("empty.csr")).is_err());
    fs::write(dir.join("short.csr"), b"EXPDCSR\0").unwrap();
    assert!(CsrFile::open(&dir.join("short.csr")).is_err());

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn committed_karate_sample_matches_published_ground_truth() {
    // The committed real dataset is itself under test: the numbers here
    // are from Zachary (1977), not from this codebase.
    let dir = storage::test_dir("karate");
    let out = dir.join("karate.csr");
    let report = convert_edge_list(
        Path::new("datasets/karate.txt"),
        &out,
        &ConvertOptions::default(),
    )
    .unwrap();
    assert_eq!((report.n, report.m), (34, 78));
    assert!(report.dense_relabeled, "1-indexed input must be relabeled");
    let g = CsrFile::open(&out).unwrap().to_graph().unwrap();
    assert_eq!(count_triangles(&g), 45);
    // Instructor (1) and president (34) are the two highest-degree hubs.
    assert_eq!(g.degree(0), 16);
    assert_eq!(g.degree(33), 17);
    // The measured pipeline on a real graph agrees with ground truth.
    let report = enumerate_via_decomposition(&g, &PipelineParams::default());
    assert_eq!(report.triangles.len(), 45);
    fs::remove_dir_all(&dir).ok();
}
