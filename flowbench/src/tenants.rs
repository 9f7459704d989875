//! Seeded tenant networks and the queries drawn against them.

use crate::util::Rng;
use duality_core::{PlanarInstance, Query};
use duality_planar::{gen, PlanarGraph};
use std::sync::Arc;

/// One tenant: a `k × k` diag-grid with symmetric integer capacities
/// (edge weights follow the forward capacities), plus the vertices of
/// its largest face, where approximate st-planar queries put their
/// endpoints.
pub struct Tenant {
    pub k: usize,
    pub instance: Arc<PlanarInstance>,
    pub boundary: Vec<usize>,
}

impl Tenant {
    pub fn generate(k: usize, seed: u64, caps_hi: i64) -> Tenant {
        let g = gen::diag_grid(k, k, seed).expect("a diag-grid is a valid embedding");
        let caps = gen::random_undirected_capacities(g.num_edges(), 1, caps_hi, seed ^ 0x5eed);
        let boundary = largest_face(&g);
        let instance =
            PlanarInstance::new(g, Some(caps), None).expect("generated capacities are valid");
        Tenant {
            k,
            instance,
            boundary,
        }
    }

    pub fn n(&self) -> usize {
        self.instance.n()
    }

    /// An exact st-query (`MaxFlow` or `MinStCut`) on a random pair.
    pub fn exact_query(&self, rng: &mut Rng, max_flow: bool) -> Query {
        let all: Vec<usize> = (0..self.n()).collect();
        let (s, t) = rng.pair(&all);
        if max_flow {
            Query::MaxFlow { s, t }
        } else {
            Query::MinStCut { s, t }
        }
    }

    /// An approximate st-planar query with both endpoints on the largest
    /// face.
    pub fn approx_query(&self, rng: &mut Rng, flow: bool) -> Query {
        let (s, t) = rng.pair(&self.boundary);
        let eps_inverse = [1u64, 2, 4, 8][rng.below(4)];
        if flow {
            Query::ApproxMaxFlow { s, t, eps_inverse }
        } else {
            Query::ApproxMinStCut { s, t, eps_inverse }
        }
    }
}

/// The seed of every workload's tenant networks. The fleet is fixed, like
/// a committed data set, so runs on different `--seed`s serve the same
/// networks; the seed draws the traffic (pairs, re-specs, order).
const FLEET_SEED: u64 = 2025;
/// Capacities (and the edge weights that follow them) lie in `1..=9`.
const CAPS_HI: i64 = 9;

/// `per_size` tenants of every size in `sizes`, in that order, repeated.
pub fn generate(sizes: &[usize], per_size: usize) -> Vec<Tenant> {
    let mut rng = Rng::stream(FLEET_SEED, 1);
    let mut out = Vec::with_capacity(sizes.len() * per_size);
    for _ in 0..per_size {
        for &k in sizes {
            out.push(Tenant::generate(k, rng.next_u64(), CAPS_HI));
        }
    }
    out
}

/// The vertex set of the largest face, sorted.
fn largest_face(g: &PlanarGraph) -> Vec<usize> {
    let outer = g
        .faces()
        .max_by_key(|&f| g.face_darts(f).len())
        .expect("a connected graph has a face");
    let mut vs: Vec<usize> = g.face_darts(outer).iter().map(|&d| g.tail(d)).collect();
    vs.sort_unstable();
    vs.dedup();
    vs
}
