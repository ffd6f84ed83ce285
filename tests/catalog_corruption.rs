//! Adversarial catalog battery: every way a UGQ1 file can be damaged or
//! forged must surface as a **typed error** — never a panic, never an
//! allocation blow-up, and never silently-served data.
//!
//! Two threat models:
//!
//! * **Bit rot / truncation** — random or systematic byte damage. The
//!   container's checksums (header CRC, TOC CRC, per-section CRCs,
//!   whole-payload hash) must catch every single-byte flip and every
//!   truncation point.
//! * **Checksum-valid forgery** — an attacker (or a buggy writer) who
//!   recomputes the checksums. The mule layer must re-validate the
//!   semantic invariants: canonical section order, monotone id maps
//!   that are pairwise disjoint and cover every vertex a clique needs,
//!   α-pruned component graphs, plausible counts.

use mule::{MuleError, Query};
use proptest::prelude::*;
use ugraph_core::builder::from_edges;
use ugraph_io::catalog::{crc32, Catalog, CatalogError, CatalogWriter, HEADER_LEN};
use ugraph_io::Bytes;

/// A small but fully featured catalog: two components, singletons, a
/// sub-α edge pruned away.
fn fixture_bytes() -> Vec<u8> {
    let g = from_edges(
        9,
        &[
            (0, 1, 0.9),
            (1, 2, 0.9),
            (0, 2, 0.9),
            (4, 5, 0.8),
            (5, 6, 0.8),
            (4, 6, 0.8),
            (7, 8, 0.3),
        ],
    )
    .unwrap();
    Query::new(&g)
        .alpha(0.5)
        .prepare()
        .unwrap()
        .to_catalog_bytes()
}

/// An id-list section payload: `len u64 ‖ ids len×u32`.
fn id_list(ids: &[u32]) -> Vec<u8> {
    let mut out = (ids.len() as u64).to_le_bytes().to_vec();
    for v in ids {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Open must fail with the catalog-typed error (I/O damage is a
/// different test). Returns the message for content assertions.
fn assert_rejected(bytes: Vec<u8>, what: &str) -> String {
    match Query::open_bytes(bytes) {
        Ok(_) => panic!("{what}: hostile catalog was accepted"),
        Err(MuleError::Catalog(e)) => e.to_string(),
        Err(other) => panic!("{what}: wrong error variant: {other}"),
    }
}

/// Re-serialize a catalog through `CatalogWriter` with transformed
/// sections — all checksums valid, semantics attacker-controlled.
fn reforge(bytes: &[u8], transform: impl Fn(&mut Vec<(String, Vec<u8>)>)) -> Vec<u8> {
    let cat = Catalog::from_bytes(Bytes::from(bytes.to_vec())).unwrap();
    let mut sections: Vec<(String, Vec<u8>)> = cat
        .sections()
        .iter()
        .map(|e| (e.name.clone(), cat.section(&e.name).unwrap().to_vec()))
        .collect();
    transform(&mut sections);
    let mut writer = CatalogWriter::new(*cat.header());
    for (name, payload) in sections {
        writer.add_section(name, payload);
    }
    writer.finish()
}

/// Patch the 20 trailing bytes (offset u64, length u64, crc u32) of a
/// named TOC entry and re-seal the TOC checksum, so the damage reaches
/// the section-level validation instead of dying at the TOC CRC.
fn patch_toc_entry(bytes: &mut [u8], target: &str, patch: impl Fn(&mut [u8])) {
    let toc_len = u32::from_le_bytes(bytes[76..80].try_into().unwrap()) as usize;
    let toc_start = HEADER_LEN;
    let mut pos = toc_start;
    while pos < toc_start + toc_len {
        let name_len = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) as usize;
        let name = std::str::from_utf8(&bytes[pos + 2..pos + 2 + name_len]).unwrap();
        let fields = pos + 2 + name_len;
        if name == target {
            patch(&mut bytes[fields..fields + 20]);
            let toc_crc = crc32(&bytes[toc_start..toc_start + toc_len]);
            bytes[toc_start + toc_len..toc_start + toc_len + 4]
                .copy_from_slice(&toc_crc.to_le_bytes());
            return;
        }
        pos = fields + 20;
    }
    panic!("section {target} not in TOC");
}

/// Re-seal the header CRC after patching header bytes.
fn reseal_header(bytes: &mut [u8]) {
    let crc = crc32(&bytes[..HEADER_LEN - 4]);
    bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn every_single_byte_flip_is_rejected() {
    let good = fixture_bytes();
    assert!(Query::open_bytes(good.clone()).is_ok(), "fixture must open");
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0xFF;
        match Query::open_bytes(bad) {
            Ok(_) => panic!("flip at byte {i} went undetected"),
            Err(MuleError::Catalog(_)) => {}
            Err(other) => panic!("flip at byte {i}: wrong error variant: {other}"),
        }
    }
}

#[test]
fn truncation_at_every_section_boundary_is_rejected() {
    let good = fixture_bytes();
    let cat = Catalog::from_bytes(Bytes::from(good.clone())).unwrap();
    // Structural boundaries: mid-header, end of header, end of TOC, and
    // the start and end of every section payload.
    let mut cuts = vec![0, 1, HEADER_LEN / 2, HEADER_LEN];
    for e in cat.sections() {
        cuts.push(e.offset as usize);
        cuts.push((e.offset + e.length) as usize);
    }
    cuts.push(good.len() - 1);
    for cut in cuts {
        if cut >= good.len() {
            continue;
        }
        assert_rejected(good[..cut].to_vec(), &format!("truncation at {cut}"));
    }
    // Trailing garbage is as corrupt as missing bytes.
    let mut padded = good.clone();
    padded.push(0);
    assert_rejected(padded, "trailing byte");
}

#[test]
fn swapped_section_order_is_rejected_despite_valid_checksums() {
    let good = fixture_bytes();
    let n = Catalog::from_bytes(Bytes::from(good.clone()))
        .unwrap()
        .sections()
        .len();
    assert!(n >= 5, "fixture should have at least two components");
    for (i, j) in [(0, 1), (0, n - 1), (n - 2, n - 1)] {
        let forged = reforge(&good, |sections| sections.swap(i, j));
        let msg = assert_rejected(forged, &format!("swap {i}<->{j}"));
        assert!(msg.contains("canonical order"), "{msg}");
    }
}

#[test]
fn zeroed_section_crc_is_rejected() {
    let good = fixture_bytes();
    let target = "meta";
    let mut bad = good.clone();
    patch_toc_entry(&mut bad, target, |fields| {
        fields[16..20].fill(0); // the stored crc32
    });
    let msg = assert_rejected(bad, "zeroed crc");
    assert!(msg.contains("crc32 mismatch"), "{msg}");
}

#[test]
fn oversized_section_length_is_rejected_structurally() {
    let good = fixture_bytes();
    for huge in [u64::MAX, u64::MAX / 2, 1 << 40] {
        let mut bad = good.clone();
        patch_toc_entry(&mut bad, "report", |fields| {
            fields[8..16].copy_from_slice(&huge.to_le_bytes());
        });
        // The structural layout check (sections must exactly tile the
        // payload region) fires before any length-sized allocation.
        assert_rejected(bad, &format!("length {huge}"));
    }
}

#[test]
fn unsupported_version_is_a_distinct_typed_error() {
    let mut bad = fixture_bytes();
    bad[4..8].copy_from_slice(&3u32.to_le_bytes());
    reseal_header(&mut bad);
    match Query::open_bytes(bad) {
        Err(MuleError::Catalog(CatalogError::UnsupportedVersion { found })) => {
            assert_eq!(found, 3)
        }
        other => panic!("wrong result for v3 catalog: {:?}", other.map(|_| "opened")),
    }
}

/// A version-1 header of either kind is refused before any section is
/// read, with the same typed error on every open path: version 1 stored
/// a `schedule` section and a `base.meta` one that this build no longer
/// reads.
#[test]
fn version_1_images_of_either_kind_are_refused() {
    for (kind, mut bad) in [("fixed", fixture_bytes()), ("base", base_fixture_bytes())] {
        bad[4..8].copy_from_slice(&1u32.to_le_bytes());
        reseal_header(&mut bad);
        let results = [
            Query::open_any_bytes(bad.clone()).map(|_| ()),
            Query::open_bytes(bad.clone()).map(|_| ()),
            Query::open_base_bytes(bad).map(|_| ()),
        ];
        for res in results {
            match res {
                Err(MuleError::Catalog(CatalogError::UnsupportedVersion { found: 1 })) => {}
                other => panic!("v1 {kind} image: {other:?}"),
            }
        }
    }
}

#[test]
fn forged_semantic_corruption_is_rejected() {
    let good = fixture_bytes();

    // Non-monotone id map (checksums valid).
    let forged = reforge(&good, |sections| {
        let (_, payload) = sections
            .iter_mut()
            .find(|(name, _)| name == "component.0.map")
            .unwrap();
        let len = payload.len();
        payload.swap(8, len - 4); // swap first/last id's low bytes
    });
    let msg = assert_rejected(forged, "non-monotone map");
    assert!(
        msg.contains("strictly increasing") || msg.contains("out of range"),
        "{msg}"
    );

    // Overlapping maps, every count intact. The fixture's components
    // are {0, 1, 2} and {4, 5, 6} and its singletons {3, 7, 8}. Moving
    // the second component onto {2, 4, 5} shares vertex 2 between the
    // components; moving the singletons onto {2, 7, 8} shares it with
    // the first. Either way the sizes still sum to the 9 vertices.
    for (target, ids) in [("component.1.map", [2u32, 4, 5]), ("singletons", [2, 7, 8])] {
        let forged = reforge(&good, |sections| {
            let (_, payload) = sections
                .iter_mut()
                .find(|(name, _)| name == target)
                .unwrap();
            *payload = id_list(&ids);
        });
        let msg = assert_rejected(forged, &format!("overlapping {target}"));
        assert!(msg.contains("share an original vertex"), "{msg}");
    }

    // A stray section the format does not define.
    let forged = reforge(&good, |sections| {
        sections.push(("evil".to_string(), vec![1, 2, 3]));
    });
    let msg = assert_rejected(forged, "stray section");
    assert!(
        msg.contains("canonical order") || msg.contains("sections"),
        "{msg}"
    );

    // A dropped section.
    let forged = reforge(&good, |sections| {
        sections.retain(|(name, _)| name != "report");
    });
    assert_rejected(forged, "missing report");

    // A component edge probability forged below the catalog's α:
    // checksums fine, kernel precondition violated. Raise the stored α
    // above the fixture's weakest surviving edge (0.8) instead of
    // digging the probability bytes out of the CSR payload.
    let mut forged = good.clone();
    forged[16..24].copy_from_slice(&0.85f64.to_bits().to_le_bytes());
    reseal_header(&mut forged);
    let msg = assert_rejected(forged, "sub-α edge");
    assert!(msg.contains("below the catalog's α"), "{msg}");

    // Report counters disagreeing with the header fingerprint.
    let forged = reforge(&good, |sections| {
        let (_, payload) = sections
            .iter_mut()
            .find(|(name, _)| name == "report")
            .unwrap();
        payload[8..16].copy_from_slice(&12345u64.to_le_bytes());
    });
    let msg = assert_rejected(forged, "lying report");
    assert!(msg.contains("fingerprint"), "{msg}");
}

/// At `min_size ≤ 1` every vertex is a clique member, so a fixed
/// catalog must hold each original vertex in a component or the
/// singletons. Forged: n = 5, edges 0–1 and 2–3 at p 0.9, α 0.5, and
/// vertex 4 dropped from the singletons — all checksums valid. Served,
/// it would list 2 cliques instead of 3 and exit cleanly.
#[test]
fn a_vertex_missing_from_every_section_is_rejected() {
    let g = from_edges(5, &[(0, 1, 0.9), (2, 3, 0.9)]).unwrap();
    let good = Query::new(&g)
        .alpha(0.5)
        .prepare()
        .unwrap()
        .to_catalog_bytes();
    assert_eq!(Query::open_bytes(good.clone()).unwrap().count().unwrap(), 3);
    let forged = reforge(&good, |sections| {
        let (_, payload) = sections
            .iter_mut()
            .find(|(name, _)| name == "singletons")
            .unwrap();
        assert_eq!(*payload, id_list(&[4]));
        *payload = id_list(&[]);
    });
    let msg = assert_rejected(forged, "vertex 4 in no section");
    assert!(msg.contains("cover 4 of 5"), "{msg}");
}

/// The α-generic base variant of the fixture: same graph, floor 0.5,
/// so the 0.3 edge is floor-pruned and vertices 3/7/8 are isolated.
fn base_fixture_bytes() -> Vec<u8> {
    let g = from_edges(
        9,
        &[
            (0, 1, 0.9),
            (1, 2, 0.9),
            (0, 2, 0.9),
            (4, 5, 0.8),
            (5, 6, 0.8),
            (4, 6, 0.8),
            (7, 8, 0.3),
        ],
    )
    .unwrap();
    Query::new(&g)
        .alpha_floor(0.5)
        .prepare_base()
        .unwrap()
        .to_catalog_bytes()
}

/// The base open path must also fail with the catalog-typed error.
fn assert_base_rejected(bytes: Vec<u8>, what: &str) -> String {
    match Query::open_base_bytes(bytes) {
        Ok(_) => panic!("{what}: hostile base catalog was accepted"),
        Err(MuleError::Catalog(e)) => e.to_string(),
        Err(other) => panic!("{what}: wrong error variant: {other}"),
    }
}

#[test]
fn base_every_single_byte_flip_is_rejected() {
    let good = base_fixture_bytes();
    assert!(
        Query::open_base_bytes(good.clone()).is_ok(),
        "base fixture must open"
    );
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0xFF;
        match Query::open_base_bytes(bad) {
            Ok(_) => panic!("flip at byte {i} went undetected"),
            Err(MuleError::Catalog(_)) => {}
            Err(other) => panic!("flip at byte {i}: wrong error variant: {other}"),
        }
    }
}

#[test]
fn base_truncation_at_every_section_boundary_is_rejected() {
    let good = base_fixture_bytes();
    let cat = Catalog::from_bytes(Bytes::from(good.clone())).unwrap();
    let mut cuts = vec![0, 1, HEADER_LEN / 2, HEADER_LEN];
    for e in cat.sections() {
        cuts.push(e.offset as usize);
        cuts.push((e.offset + e.length) as usize);
    }
    cuts.push(good.len() - 1);
    for cut in cuts {
        if cut >= good.len() {
            continue;
        }
        assert_base_rejected(good[..cut].to_vec(), &format!("truncation at {cut}"));
    }
}

#[test]
fn base_forged_semantic_corruption_is_rejected() {
    let good = base_fixture_bytes();

    // Opening a base through the fixed path (and vice versa) is a
    // distinct, typed wrong-kind error — not generic corruption.
    match Query::open_bytes(good.clone()) {
        Err(MuleError::Catalog(CatalogError::WrongKind { .. })) => {}
        other => panic!("fixed open of base: {:?}", other.map(|_| "opened")),
    }
    match Query::open_base_bytes(fixture_bytes()) {
        Err(MuleError::Catalog(CatalogError::WrongKind { .. })) => {}
        other => panic!("base open of fixed: {:?}", other.map(|_| "opened")),
    }

    // Swapped tail sections (checksums valid).
    let forged = reforge(&good, |sections| {
        let n = sections.len();
        sections.swap(n - 2, n - 1); // isolated <-> meta
    });
    let msg = assert_base_rejected(forged, "swapped tail");
    assert!(msg.contains("canonical order"), "{msg}");

    // A stray section.
    let forged = reforge(&good, |sections| {
        sections.push(("evil".to_string(), vec![0; 12]));
    });
    let msg = assert_base_rejected(forged, "stray section");
    assert!(
        msg.contains("canonical order") || msg.contains("sections"),
        "{msg}"
    );

    // A dropped meta breaks the 2k+2 section count.
    let forged = reforge(&good, |sections| {
        sections.retain(|(name, _)| name != "meta");
    });
    assert_base_rejected(forged, "missing meta");

    // Non-monotone isolated ids (the fixture isolates 3, 7 and 8).
    let forged = reforge(&good, |sections| {
        let (_, payload) = sections
            .iter_mut()
            .find(|(name, _)| name == "isolated")
            .unwrap();
        let len = payload.len();
        payload.swap(8, len - 4); // swap first/last id's low bytes
    });
    let msg = assert_base_rejected(forged, "non-monotone isolated");
    assert!(
        msg.contains("strictly increasing") || msg.contains("out of range"),
        "{msg}"
    );

    // Coverage hole: empty the isolated list, checksums intact.
    let forged = reforge(&good, |sections| {
        let (_, payload) = sections
            .iter_mut()
            .find(|(name, _)| name == "isolated")
            .unwrap();
        *payload = 0u64.to_le_bytes().to_vec();
    });
    let msg = assert_base_rejected(forged, "coverage hole");
    assert!(msg.contains("cover"), "{msg}");

    // A floor raised above a stored edge's probability: the stored
    // component graphs would violate the floor precondition.
    let mut forged = good.clone();
    forged[16..24].copy_from_slice(&0.85f64.to_bits().to_le_bytes());
    reseal_header(&mut forged);
    let msg = assert_base_rejected(forged, "sub-floor edge");
    assert!(msg.contains("below the catalog's α"), "{msg}");

    // A floor outside [0, 1] — including NaN — is rejected up front.
    for bad_floor in [1.5, -0.25, f64::NAN] {
        let mut forged = good.clone();
        forged[16..24].copy_from_slice(&bad_floor.to_bits().to_le_bytes());
        reseal_header(&mut forged);
        let msg = assert_base_rejected(forged, &format!("floor {bad_floor}"));
        assert!(msg.contains("floor"), "{msg}");
    }

    // A lying edge fingerprint (header original_edges too small).
    let mut forged = good.clone();
    forged[56..64].copy_from_slice(&1u64.to_le_bytes());
    reseal_header(&mut forged);
    let msg = assert_base_rejected(forged, "edge fingerprint");
    assert!(msg.contains("fingerprint"), "{msg}");

    // A truncated meta (name length pointing past the payload).
    let forged = reforge(&good, |sections| {
        let (_, payload) = sections
            .iter_mut()
            .find(|(name, _)| name == "meta")
            .unwrap();
        payload[..4].copy_from_slice(&1000u32.to_le_bytes());
    });
    let msg = assert_base_rejected(forged, "truncated meta");
    assert!(msg.contains("meta:"), "{msg}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn base_random_byte_damage_never_panics_or_serves_data(
        seed in 0u64..1_000_000,
        flips in 1usize..4,
    ) {
        let good = base_fixture_bytes();
        let mut bad = good.clone();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for _ in 0..flips {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pos = (state >> 33) as usize % bad.len();
            let mask = (state >> 25) as u8;
            bad[pos] ^= mask;
        }
        if bad != good {
            match Query::open_base_bytes(bad) {
                Ok(_) => prop_assert!(false, "multi-byte damage went undetected"),
                Err(MuleError::Catalog(_)) => {}
                Err(other) => prop_assert!(false, "wrong error variant: {other}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn random_byte_damage_never_panics_or_serves_data(
        seed in 0u64..1_000_000,
        flips in 1usize..4,
    ) {
        let good = fixture_bytes();
        let mut bad = good.clone();
        // Cheap deterministic pseudo-random positions/masks from the seed.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for _ in 0..flips {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pos = (state >> 33) as usize % bad.len();
            let mask = (state >> 25) as u8;
            bad[pos] ^= mask;
        }
        // Flips can cancel (same position, same mask) — only a net
        // change must be rejected.
        if bad != good {
            match Query::open_bytes(bad) {
                Ok(_) => prop_assert!(false, "multi-byte damage went undetected"),
                Err(MuleError::Catalog(_)) => {}
                Err(other) => prop_assert!(false, "wrong error variant: {other}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Appended delta sections: the same two threat models over `delta.{i}`
// ---------------------------------------------------------------------------

/// The fixture with one committed mutation batch appended: insert the
/// bridge 3–7 and drop a triangle edge. Both ops replay on open.
fn delta_fixture_bytes() -> Vec<u8> {
    let delta = mule::GraphDelta::new().insert(3, 7, 0.9).delete(4, 5);
    let (bytes, pending) =
        mule::catalog::append_delta_bytes(Bytes::from(fixture_bytes()), &delta).unwrap();
    assert_eq!(pending, 1);
    bytes
}

#[test]
fn delta_every_single_byte_flip_is_rejected() {
    let good = delta_fixture_bytes();
    assert!(
        Query::open_bytes(good.clone()).is_ok(),
        "delta fixture must open"
    );
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0xFF;
        match Query::open_bytes(bad) {
            Ok(_) => panic!("flip at byte {i} went undetected"),
            Err(MuleError::Catalog(_)) => {}
            Err(other) => panic!("flip at byte {i}: wrong error variant: {other}"),
        }
    }
}

#[test]
fn delta_truncation_at_every_section_boundary_is_rejected() {
    let good = delta_fixture_bytes();
    let cat = Catalog::from_bytes(Bytes::from(good.clone())).unwrap();
    let delta_off = cat
        .sections()
        .iter()
        .find(|e| e.name == "delta.0")
        .expect("delta.0 in TOC")
        .offset as usize;
    // Every byte boundary of the delta payload plus the file tail.
    for cut in (delta_off..good.len()).chain([good.len() - 1]) {
        assert_rejected(good[..cut].to_vec(), &format!("truncation at {cut}"));
    }
}

#[test]
fn forged_delta_corruption_is_rejected() {
    let good = delta_fixture_bytes();

    // Unknown op tag (checksums re-sealed).
    let forged = reforge(&good, |sections| {
        let (_, payload) = sections
            .iter_mut()
            .find(|(name, _)| name == "delta.0")
            .unwrap();
        payload[8] = 9; // first op's tag byte
    });
    let msg = assert_rejected(forged, "bad op tag");
    assert!(msg.contains("unknown tag"), "{msg}");

    // Count field lying about the payload length.
    let forged = reforge(&good, |sections| {
        let (_, payload) = sections
            .iter_mut()
            .find(|(name, _)| name == "delta.0")
            .unwrap();
        payload[..8].copy_from_slice(&100u64.to_le_bytes());
    });
    let msg = assert_rejected(forged, "lying count");
    assert!(msg.contains("does not match op count"), "{msg}");

    // A delete op smuggling non-zero probability bits.
    let forged = reforge(&good, |sections| {
        let (_, payload) = sections
            .iter_mut()
            .find(|(name, _)| name == "delta.0")
            .unwrap();
        // Second op (the delete) starts at 8 + 17; its prob bits at +9.
        payload[8 + 17 + 9] = 1;
    });
    let msg = assert_rejected(forged, "delete with prob bits");
    assert!(msg.contains("non-zero prob bits"), "{msg}");

    // A payload shorter than its count field.
    let forged = reforge(&good, |sections| {
        let (_, payload) = sections
            .iter_mut()
            .find(|(name, _)| name == "delta.0")
            .unwrap();
        *payload = vec![1, 2, 3];
    });
    let msg = assert_rejected(forged, "short payload");
    assert!(
        msg.contains("count field") || msg.contains("op count"),
        "{msg}"
    );

    // Numbering gap: delta.0 renamed delta.1.
    let forged = reforge(&good, |sections| {
        for (name, _) in sections.iter_mut() {
            if name == "delta.0" {
                *name = "delta.1".to_string();
            }
        }
    });
    let msg = assert_rejected(forged, "numbering gap");
    assert!(msg.contains("out of sequence"), "{msg}");

    // A delta section shuffled in front of the core sections.
    let forged = reforge(&good, |sections| {
        let i = sections.iter().position(|(n, _)| n == "delta.0").unwrap();
        let sec = sections.remove(i);
        sections.insert(0, sec);
    });
    assert_rejected(forged, "delta before core");

    // A checksum-valid batch that does not replay (deletes an edge the
    // core artifact never had): append proves applicability before it
    // writes, so this file can only be forged — typed corruption.
    let forged = reforge(&fixture_bytes(), |sections| {
        let bad = mule::GraphDelta::new().delete(0, 8);
        sections.push(("delta.0".to_string(), bad.to_bytes()));
    });
    let msg = assert_rejected(forged, "unreplayable delta");
    assert!(msg.contains("delta rejected"), "{msg}");
}

#[test]
fn base_forged_delta_corruption_is_rejected() {
    // The α-base replay path wraps the same validation: an appended
    // batch that cannot replay is typed corruption on open.
    let good = base_fixture_bytes();
    let delta = mule::GraphDelta::new().insert(3, 7, 0.9);
    let (with_delta, pending) =
        mule::catalog::append_delta_bytes(Bytes::from(good.clone()), &delta).unwrap();
    assert_eq!(pending, 1);
    assert!(
        Query::open_base_bytes(with_delta.clone()).is_ok(),
        "base delta fixture must open"
    );

    let forged = reforge(&with_delta, |sections| {
        let (_, payload) = sections
            .iter_mut()
            .find(|(name, _)| name == "delta.0")
            .unwrap();
        payload[8] = 9;
    });
    let msg = assert_base_rejected(forged, "bad base op tag");
    assert!(msg.contains("unknown tag"), "{msg}");

    let forged = reforge(&good, |sections| {
        let bad = mule::GraphDelta::new().delete(0, 8);
        sections.push(("delta.0".to_string(), bad.to_bytes()));
    });
    let msg = assert_base_rejected(forged, "unreplayable base delta");
    assert!(msg.contains("delta rejected"), "{msg}");
}
