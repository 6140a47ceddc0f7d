//! Mobility models for the mobile-network (DSR) use case.
//!
//! The paper demonstrates NetTrails "in a variety of declarative networks
//! running in different environments (e.g. static vs mobile network)". The
//! mobile environment is modelled with the classic **random waypoint** model:
//! each node picks a random destination in a rectangular field and moves
//! toward it at a random speed; when it arrives it picks a new waypoint.
//! Nodes within radio `range` of each other share a (bidirectional) link.
//! Sampling the link set at two instants and diffing the results yields the
//! link up/down events that drive incremental recomputation of DSR routes and
//! of their provenance.

use crate::topology::{Link, Topology};
/// `(new_links, lost_links)` bidirectional pairs reported by
/// [`RandomWaypoint::link_changes`].
pub type LinkChanges = (Vec<(String, String)>, Vec<(String, String)>);

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A position in the simulation field (meters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point {
    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Trait implemented by mobility models: given a time, where is every node and
/// which links exist?
pub trait MobilityModel {
    /// Node names managed by the model.
    fn nodes(&self) -> Vec<String>;
    /// Position of a node at time `t_secs`.
    fn position(&self, node: &str, t_secs: f64) -> Option<Point>;
    /// The radio link set at time `t_secs` as a [`Topology`].
    fn topology_at(&self, t_secs: f64) -> Topology;
}

#[derive(Debug, Clone)]
struct NodeMotion {
    name: String,
    /// Waypoint schedule: (start_time, start_pos, end_time, end_pos) legs,
    /// precomputed far enough into the future for the simulation horizon.
    legs: Vec<(f64, Point, f64, Point)>,
}

/// Random-waypoint mobility over a rectangular field.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    field: (f64, f64),
    range: f64,
    link_cost: i64,
    motions: Vec<NodeMotion>,
}

impl RandomWaypoint {
    /// Create a model for `n` nodes on a `width x height` field, radio range
    /// `range` meters, speeds uniform in `[min_speed, max_speed]` m/s, with
    /// waypoints precomputed up to `horizon_secs`. Deterministic per seed.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: usize,
        width: f64,
        height: f64,
        range: f64,
        min_speed: f64,
        max_speed: f64,
        horizon_secs: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut motions = Vec::with_capacity(n);
        for i in 0..n {
            let name = format!("n{}", i + 1);
            let mut t = 0.0;
            let mut pos = Point {
                x: rng.gen_range(0.0..width),
                y: rng.gen_range(0.0..height),
            };
            let mut legs = Vec::new();
            while t < horizon_secs {
                let dest = Point {
                    x: rng.gen_range(0.0..width),
                    y: rng.gen_range(0.0..height),
                };
                let speed = rng.gen_range(min_speed..=max_speed).max(0.1);
                let duration = (pos.distance(&dest) / speed).max(0.001);
                legs.push((t, pos, t + duration, dest));
                t += duration;
                pos = dest;
            }
            motions.push(NodeMotion { name, legs });
        }
        RandomWaypoint {
            field: (width, height),
            range,
            link_cost: 1,
            motions,
        }
    }

    /// A mobility mesh sized for the scenario suite: `n` nodes on a square
    /// field scaled so the expected radio degree stays ~8 regardless of `n`
    /// (area = n * pi * range^2 / 8), radio range 100 m, pedestrian-to-slow-
    /// vehicle speeds (1-6 m/s, so per-second link flips stay a few percent
    /// of the link set), waypoints precomputed out to `horizon_secs`.
    /// Deterministic per seed.
    pub fn mesh(n: usize, horizon_secs: f64, seed: u64) -> Self {
        let range = 100.0;
        let side = (n as f64 * std::f64::consts::PI * range * range / 8.0).sqrt();
        RandomWaypoint::new(n, side, side, range, 1.0, 6.0, horizon_secs, seed)
    }

    /// The field dimensions.
    pub fn field(&self) -> (f64, f64) {
        self.field
    }

    /// The radio range.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Link up/down events between two sample instants, as
    /// `(new_links, lost_links)` of *bidirectional* pairs (each pair reported
    /// once, `a < b`). Diffs the two link sets directly — O(E log E), not
    /// O(n^2) over node pairs — so churn sampling stays cheap at scenario
    /// scale.
    pub fn link_changes(&self, t0: f64, t1: f64) -> LinkChanges {
        let before = self.topology_at(t0);
        let after = self.topology_at(t1);
        let mut up = Vec::new();
        let mut down = Vec::new();
        for l in after.links().filter(|l| l.from < l.to) {
            if !before.has_link(&l.from, &l.to) {
                up.push((l.from.clone(), l.to.clone()));
            }
        }
        for l in before.links().filter(|l| l.from < l.to) {
            if !after.has_link(&l.from, &l.to) {
                down.push((l.from.clone(), l.to.clone()));
            }
        }
        (up, down)
    }

    /// Leg interpolation for one node's motion at `t_secs`.
    fn position_of(motion: &NodeMotion, t_secs: f64) -> Option<Point> {
        let leg = motion
            .legs
            .iter()
            .find(|(start, _, end, _)| t_secs >= *start && t_secs < *end)
            .or_else(|| motion.legs.last())?;
        let (start, from, end, to) = leg;
        let frac = if t_secs <= *start {
            0.0
        } else if t_secs >= *end {
            1.0
        } else {
            (t_secs - start) / (end - start)
        };
        Some(Point {
            x: from.x + (to.x - from.x) * frac,
            y: from.y + (to.y - from.y) * frac,
        })
    }
}

impl MobilityModel for RandomWaypoint {
    fn nodes(&self) -> Vec<String> {
        self.motions.iter().map(|m| m.name.clone()).collect()
    }

    fn position(&self, node: &str, t_secs: f64) -> Option<Point> {
        let motion = self.motions.iter().find(|m| m.name == node)?;
        Self::position_of(motion, t_secs)
    }

    /// The radio link set at `t_secs`. Positions are computed once per node
    /// and bucketed on a grid of `range`-sized cells, so only nodes in
    /// adjacent cells are distance-tested: ~O(n + links) instead of the
    /// all-pairs O(n^2), which is what keeps 10^3-node mesh scenarios (and
    /// their per-second churn sampling) affordable. The resulting link set is
    /// identical to the all-pairs scan.
    fn topology_at(&self, t_secs: f64) -> Topology {
        let mut topo = Topology::new();
        let mut points = Vec::with_capacity(self.motions.len());
        for m in &self.motions {
            topo.add_node(m.name.clone());
            points.push(Self::position_of(m, t_secs).expect("motion has legs"));
        }
        let cell = self.range.max(1e-9);
        let cell_of = |p: &Point| ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
        let mut grid: std::collections::BTreeMap<(i64, i64), Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, p) in points.iter().enumerate() {
            grid.entry(cell_of(p)).or_default().push(i);
        }
        for (i, pa) in points.iter().enumerate() {
            let (cx, cy) = cell_of(pa);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    let Some(bucket) = grid.get(&(cx + dx, cy + dy)) else {
                        continue;
                    };
                    for &j in bucket {
                        if j > i && pa.distance(&points[j]) <= self.range {
                            let (a, b) = (&self.motions[i].name, &self.motions[j].name);
                            topo.add_link(Link::new(a.clone(), b.clone(), self.link_cost));
                            topo.add_link(Link::new(b.clone(), a.clone(), self.link_cost));
                        }
                    }
                }
            }
        }
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RandomWaypoint {
        RandomWaypoint::new(6, 300.0, 300.0, 120.0, 1.0, 5.0, 200.0, 7)
    }

    #[test]
    fn positions_stay_inside_the_field_and_are_deterministic() {
        let m1 = model();
        let m2 = model();
        for node in m1.nodes() {
            for t in [0.0, 10.0, 55.5, 199.0] {
                let p1 = m1.position(&node, t).unwrap();
                let p2 = m2.position(&node, t).unwrap();
                assert_eq!(p1, p2);
                assert!(p1.x >= 0.0 && p1.x <= 300.0);
                assert!(p1.y >= 0.0 && p1.y <= 300.0);
            }
        }
    }

    #[test]
    fn positions_move_over_time() {
        let m = model();
        let node = m.nodes()[0].clone();
        let p0 = m.position(&node, 0.0).unwrap();
        let p1 = m.position(&node, 100.0).unwrap();
        assert!(p0.distance(&p1) > 1e-6, "node should have moved");
    }

    #[test]
    fn topology_links_respect_range() {
        let m = model();
        let topo = m.topology_at(10.0);
        for l in topo.links() {
            let pa = m.position(&l.from, 10.0).unwrap();
            let pb = m.position(&l.to, 10.0).unwrap();
            assert!(pa.distance(&pb) <= m.range() + 1e-9);
        }
        // Symmetric links.
        for l in topo.links() {
            assert!(topo.has_link(&l.to, &l.from));
        }
    }

    #[test]
    fn grid_link_set_matches_the_all_pairs_scan() {
        let m = RandomWaypoint::mesh(100, 30.0, 4);
        for t in [0.0, 12.5] {
            let topo = m.topology_at(t);
            let nodes = m.nodes();
            for (i, a) in nodes.iter().enumerate() {
                for b in nodes.iter().skip(i + 1) {
                    let close = m
                        .position(a, t)
                        .unwrap()
                        .distance(&m.position(b, t).unwrap())
                        <= m.range();
                    assert_eq!(topo.has_link(a, b), close, "{a}-{b} at t={t}");
                }
            }
        }
    }

    #[test]
    fn link_changes_report_ups_and_downs() {
        let m = model();
        // Over a long interval in a mobile network *something* changes.
        let (up, down) = m.link_changes(0.0, 150.0);
        assert!(
            !up.is_empty() || !down.is_empty(),
            "expected at least one link change over 150 s"
        );
        // And a zero-length interval changes nothing.
        let (up, down) = m.link_changes(42.0, 42.0);
        assert!(up.is_empty() && down.is_empty());
    }
}
