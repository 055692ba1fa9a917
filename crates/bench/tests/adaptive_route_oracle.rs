//! Differential suite for the adaptive-route BFS kernel.
//!
//! The braid engine and its reference engine both route through
//! `Mesh::route_adaptive_into`, so the engine equivalence suite cannot
//! see a bug in that kernel. This suite compares the kernel with the
//! textbook oracle `route_adaptive_oracle`, which uses only public mesh
//! queries: the success flag and the exact node sequence must match on
//! congested meshes from 1×N up to 45×45, with several owners, owner-held
//! resources, fabrication defects and `src == dst`, while one
//! `RouteScratch` serves meshes that grow and shrink.

use proptest::prelude::*;
use scq_bench::{congested_mesh, route_adaptive_oracle};
use scq_mesh::{ClaimId, Coord, Mesh, Path, RouteScratch};

/// Asserts the kernel and the oracle agree on `src -> dst` for `owner`.
fn assert_agrees(
    mesh: &Mesh,
    src: Coord,
    dst: Coord,
    owner: ClaimId,
    scratch: &mut RouteScratch,
    out: &mut Path,
) {
    let found = mesh.route_adaptive_into(src, dst, owner, scratch, out);
    let oracle = route_adaptive_oracle(mesh, src, dst, owner);
    let what = format!(
        "{}x{} mesh, {src} -> {dst} for owner {owner}",
        mesh.width(),
        mesh.height()
    );
    match oracle {
        Some(route) => {
            assert!(found, "{what}: the kernel missed {route:?}");
            assert_eq!(out.nodes(), route.nodes(), "{what}");
        }
        None => assert!(!found, "{what}: the kernel found {:?}", out.nodes()),
    }
}

/// One mesh of a case: its dimensions, congestion and defect seed.
type MeshCase = (u32, u32, usize, u32, u64, bool);

fn arb_mesh_case() -> impl Strategy<Value = MeshCase> {
    (
        1u32..46,
        1u32..46,
        0usize..160,
        1u32..12,
        0u64..u64::MAX,
        0u32..4,
    )
        .prop_map(|(w, h, routes, span, seed, kind)| (w, h, routes, span, seed, kind == 0))
}

/// Searches `pairs` random endpoint pairs on `mesh`, a quarter of them
/// with `src == dst`, each for an owner that holds claims (owners
/// `1..=3`) or none (owner 0).
fn check_mesh(mesh: &Mesh, seed: u64, pairs: usize, scratch: &mut RouteScratch, out: &mut Path) {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut pick = |len: u32| (rng.next_u64() % u64::from(len)) as u32;
    for i in 0..pairs {
        let src = Coord::new(pick(mesh.width()), pick(mesh.height()));
        let dst = if i % 4 == 0 {
            src
        } else {
            Coord::new(pick(mesh.width()), pick(mesh.height()))
        };
        let owner = pick(4);
        assert_agrees(mesh, src, dst, owner, scratch, out);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn kernel_matches_the_textbook_oracle(
        cases in proptest::collection::vec(arb_mesh_case(), 1..5),
    ) {
        // One scratch and one output buffer across every mesh of the
        // case, whatever order their sizes come in.
        let mut scratch = RouteScratch::new();
        let mut out = Path::empty();
        for (w, h, routes, span, seed, defects) in cases {
            let rate = if defects { 0.05 } else { 0.0 };
            let mesh = congested_mesh(w, h, routes, span, 3, rate, seed);
            check_mesh(&mesh, seed ^ 0x5eed, 24, &mut scratch, &mut out);
        }
    }
}

#[test]
fn one_scratch_serves_meshes_that_grow_and_shrink() {
    let mut scratch = RouteScratch::new();
    let mut out = Path::empty();
    for (i, &(w, h)) in [
        (45, 45),
        (1, 3),
        (30, 2),
        (1, 1),
        (45, 1),
        (7, 40),
        (45, 45),
    ]
    .iter()
    .enumerate()
    {
        let seed = 1000 + i as u64;
        let mesh = congested_mesh(w, h, (w * h / 6) as usize, 8, 3, 0.03, seed);
        check_mesh(&mesh, seed, 200, &mut scratch, &mut out);
    }
}

#[test]
fn the_suite_meets_both_outcomes() {
    // Guard against a generator that only ever produces open meshes (or
    // only walls): a congested mesh must give straight routes, detours,
    // and refusals between two free routers, which flood before failing.
    let mesh = congested_mesh(41, 41, 400, 10, 3, 0.02, 7);
    let (mut straight, mut detours, mut enclosed) = (0, 0, 0);
    let mut rng = TestRng::seed_from_u64(7);
    for _ in 0..500 {
        let mut pick = || Coord::new((rng.next_u64() % 41) as u32, (rng.next_u64() % 41) as u32);
        let (src, dst) = (pick(), pick());
        let free = |c: Coord| mesh.is_path_free(&Path::new(vec![c]), 0);
        match route_adaptive_oracle(&mesh, src, dst, 0) {
            Some(p) if p.len_hops() as u32 > src.manhattan(dst) => detours += 1,
            Some(_) => straight += 1,
            None if free(src) && free(dst) => enclosed += 1,
            None => {}
        }
    }
    assert!(
        straight > 0 && detours > 0 && enclosed > 0,
        "straight {straight}, detours {detours}, enclosed {enclosed}"
    );
}
