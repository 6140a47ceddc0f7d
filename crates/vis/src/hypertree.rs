//! Hypertree (hyperbolic) layout of provenance trees.
//!
//! The NetTrails provenance visualizer "is based on hypertrees: the provenance
//! graph is presented on a hyperbolic plane, enabling users to focus on small
//! segments of the graph; additionally, users can navigate the provenance
//! graph by changing focus with smooth transitions" (Section 2.3).
//!
//! This module computes that layout:
//!
//! * [`HypertreeLayout::of_proof_tree`] assigns every vertex of a
//!   [`ProofTree`] a position in the Poincaré unit disk using the classic
//!   hyperbolic-tree construction — each child is placed at a fixed hyperbolic
//!   distance from its parent within the parent's angular wedge, so the root
//!   sits at the centre and deep subtrees shrink toward the rim (exactly the
//!   fisheye effect visible in Figure 2).
//! * [`focus_on`] applies the Möbius translation that moves a chosen vertex to
//!   the centre of the disk — the "change focus with smooth transitions"
//!   interaction (the transition is obtained by interpolating the translation
//!   parameter).

use provenance::query::{ProofTree, RuleExecNode};
use std::collections::BTreeMap;

/// A point inside the Poincaré unit disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperPoint {
    /// X coordinate, |(x,y)| < 1.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl HyperPoint {
    /// The disk centre.
    pub const ORIGIN: HyperPoint = HyperPoint { x: 0.0, y: 0.0 };

    /// Euclidean norm (distance from the centre).
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Hyperbolic distance to another point of the disk.
    pub fn hyperbolic_distance(&self, other: &HyperPoint) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let num = dx * dx + dy * dy;
        let den = (1.0 - self.norm().powi(2)) * (1.0 - other.norm().powi(2));
        if den <= 0.0 {
            return f64::INFINITY;
        }
        (1.0 + 2.0 * num / den).acosh()
    }
}

/// Identifier of a laid-out vertex: the path of child indices from the root
/// (empty = the root tuple vertex). Even path lengths are tuple vertices, odd
/// path lengths are rule-execution vertices.
pub type LayoutKey = Vec<usize>;

/// One laid-out vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutVertex {
    /// Position in the unit disk.
    pub position: HyperPoint,
    /// Display label.
    pub label: String,
    /// True for tuple vertices, false for rule executions.
    pub is_tuple: bool,
    /// Depth from the root (root = 0).
    pub depth: usize,
}

/// A hypertree layout: positions for every vertex of a proof tree plus the
/// parent/child edges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HypertreeLayout {
    /// Vertices keyed by their path from the root.
    pub vertices: BTreeMap<LayoutKey, LayoutVertex>,
    /// Edges as (parent key, child key) pairs.
    pub edges: Vec<(LayoutKey, LayoutKey)>,
}

/// Fraction of the (Euclidean-mapped) radius step between tree levels.
const LEVEL_RADIUS: f64 = 0.45;

impl HypertreeLayout {
    /// Lay out a proof tree with its root at the disk centre.
    pub fn of_proof_tree(tree: &ProofTree) -> Self {
        let mut layout = HypertreeLayout::default();
        layout_tuple(
            tree,
            &mut layout,
            Vec::new(),
            HyperPoint::ORIGIN,
            0.0,
            std::f64::consts::TAU,
            0,
        );
        layout
    }

    /// Number of laid-out vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the layout is empty.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The maximum Euclidean norm over all vertices (must stay below 1).
    pub fn max_norm(&self) -> f64 {
        self.vertices
            .values()
            .map(|v| v.position.norm())
            .fold(0.0, f64::max)
    }
}

#[allow(clippy::too_many_arguments)]
fn layout_tuple(
    tree: &ProofTree,
    layout: &mut HypertreeLayout,
    key: LayoutKey,
    position: HyperPoint,
    wedge_start: f64,
    wedge_end: f64,
    depth: usize,
) {
    let label = tree
        .tuple
        .as_ref()
        .map(|t| t.to_string())
        .unwrap_or_else(|| tree.vid.to_string());
    layout.vertices.insert(
        key.clone(),
        LayoutVertex {
            position,
            label,
            is_tuple: true,
            depth,
        },
    );
    let n = tree.derivations.len();
    if n == 0 {
        return;
    }
    let span = (wedge_end - wedge_start) / n as f64;
    for (i, derivation) in tree.derivations.iter().enumerate() {
        let child_start = wedge_start + span * i as f64;
        let child_end = child_start + span;
        let angle = (child_start + child_end) / 2.0;
        let child_pos = place_child(position, angle, depth + 1);
        let mut child_key = key.clone();
        child_key.push(i);
        layout.edges.push((key.clone(), child_key.clone()));
        layout_rule_exec(
            derivation,
            layout,
            child_key,
            child_pos,
            child_start,
            child_end,
            depth + 1,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn layout_rule_exec(
    exec: &RuleExecNode,
    layout: &mut HypertreeLayout,
    key: LayoutKey,
    position: HyperPoint,
    wedge_start: f64,
    wedge_end: f64,
    depth: usize,
) {
    layout.vertices.insert(
        key.clone(),
        LayoutVertex {
            position,
            label: format!("{}@{}", exec.rule, exec.node),
            is_tuple: false,
            depth,
        },
    );
    let n = exec.inputs.len();
    if n == 0 {
        return;
    }
    let span = (wedge_end - wedge_start) / n as f64;
    for (i, input) in exec.inputs.iter().enumerate() {
        let child_start = wedge_start + span * i as f64;
        let child_end = child_start + span;
        let angle = (child_start + child_end) / 2.0;
        let child_pos = place_child(position, angle, depth + 1);
        let mut child_key = key.clone();
        child_key.push(i);
        layout.edges.push((key.clone(), child_key.clone()));
        layout_tuple(
            input,
            layout,
            child_key,
            child_pos,
            child_start,
            child_end,
            depth + 1,
        );
    }
}

/// Place a child at `angle` from its parent. Successive levels step a constant
/// *hyperbolic* distance outward, which in the Euclidean disk metric means
/// the step shrinks geometrically — the fisheye effect.
fn place_child(parent: HyperPoint, angle: f64, depth: usize) -> HyperPoint {
    let remaining = 1.0 - parent.norm();
    let step = remaining * LEVEL_RADIUS * (1.0 / (1.0 + 0.15 * depth as f64));
    let p = HyperPoint {
        x: parent.x + step * angle.cos(),
        y: parent.y + step * angle.sin(),
    };
    clamp_to_disk(p)
}

fn clamp_to_disk(p: HyperPoint) -> HyperPoint {
    let n = p.norm();
    if n >= 0.999 {
        let scale = 0.998 / n;
        HyperPoint {
            x: p.x * scale,
            y: p.y * scale,
        }
    } else {
        p
    }
}

/// Möbius translation that moves `focus` to the centre of the disk; applied to
/// every vertex of a layout it produces the refocused view the paper's
/// interactive exploration uses. (Interpolating `focus` from the origin to the
/// target position yields the smooth transition.)
pub fn focus_on(layout: &HypertreeLayout, focus: HyperPoint) -> HypertreeLayout {
    let mut out = layout.clone();
    for v in out.vertices.values_mut() {
        v.position = mobius_translate(v.position, focus);
    }
    out
}

/// The Möbius transformation z -> (z - a) / (1 - conj(a) z) over the unit disk
/// (complex arithmetic written out over (x, y)).
fn mobius_translate(z: HyperPoint, a: HyperPoint) -> HyperPoint {
    // numerator: z - a
    let num = (z.x - a.x, z.y - a.y);
    // denominator: 1 - conj(a) * z = 1 - (a.x - i a.y)(z.x + i z.y)
    let den = (1.0 - (a.x * z.x + a.y * z.y), -(a.x * z.y - a.y * z.x));
    let den_norm2 = den.0 * den.0 + den.1 * den.1;
    if den_norm2 < 1e-12 {
        return HyperPoint::ORIGIN;
    }
    // num / den (complex division).
    clamp_to_disk(HyperPoint {
        x: (num.0 * den.0 + num.1 * den.1) / den_norm2,
        y: (num.1 * den.0 - num.0 * den.1) / den_norm2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::{Tuple, TupleId, Value};
    use provenance::store::RuleExecId;

    fn leaf(name: &str, base: bool) -> ProofTree {
        ProofTree {
            vid: Tuple::new(name, vec![Value::addr("n1")]).id(),
            tuple: Some(Tuple::new(name, vec![Value::addr("n1")])),
            home: "n1".into(),
            is_base: base,
            derivations: vec![],
            pruned: false,
        }
    }

    fn sample_tree() -> ProofTree {
        ProofTree {
            vid: TupleId(1),
            tuple: Some(Tuple::new(
                "minCost",
                vec![Value::addr("n1"), Value::Int(2)],
            )),
            home: "n1".into(),
            is_base: false,
            derivations: vec![
                RuleExecNode {
                    rid: RuleExecId::compute_str("r3", "n1", &[TupleId(2)]),
                    rule: "r3".into(),
                    node: "n1".into(),
                    inputs: vec![leaf("cost_a", true), leaf("cost_b", true)],
                },
                RuleExecNode {
                    rid: RuleExecId::compute_str("r2", "n2", &[TupleId(3)]),
                    rule: "r2".into(),
                    node: "n2".into(),
                    inputs: vec![leaf("link", true)],
                },
            ],
            pruned: false,
        }
    }

    #[test]
    fn layout_covers_every_vertex_and_stays_in_the_disk() {
        let layout = HypertreeLayout::of_proof_tree(&sample_tree());
        // 1 root + 2 rule execs + 3 leaves.
        assert_eq!(layout.len(), 6);
        assert_eq!(layout.edges.len(), 5);
        assert!(layout.max_norm() < 1.0);
        // Root is at the centre.
        assert_eq!(layout.vertices[&vec![]].position, HyperPoint::ORIGIN);
        // Deeper vertices are farther from the centre.
        let d1 = layout.vertices[&vec![0]].position.norm();
        let d2 = layout.vertices[&vec![0, 1]].position.norm();
        assert!(d2 > d1);
    }

    #[test]
    fn labels_distinguish_tuples_and_rule_executions() {
        let layout = HypertreeLayout::of_proof_tree(&sample_tree());
        assert!(layout.vertices[&vec![]].is_tuple);
        assert!(!layout.vertices[&vec![0]].is_tuple);
        assert!(layout.vertices[&vec![0]].label.contains("r3@n1"));
    }

    #[test]
    fn focus_moves_the_chosen_vertex_to_the_centre() {
        let layout = HypertreeLayout::of_proof_tree(&sample_tree());
        let target_key = vec![0, 1];
        let target = layout.vertices[&target_key].position;
        let refocused = focus_on(&layout, target);
        assert!(refocused.vertices[&target_key].position.norm() < 1e-9);
        // Every point stays inside the disk.
        assert!(refocused.max_norm() < 1.0);
        // The transformation is (approximately) a hyperbolic isometry: the
        // hyperbolic distance between two vertices is preserved.
        let a_before = layout.vertices[&vec![]].position;
        let b_before = layout.vertices[&vec![1]].position;
        let a_after = refocused.vertices[&vec![]].position;
        let b_after = refocused.vertices[&vec![1]].position;
        let d_before = a_before.hyperbolic_distance(&b_before);
        let d_after = a_after.hyperbolic_distance(&b_after);
        assert!((d_before - d_after).abs() < 1e-6);
    }

    #[test]
    fn hyperbolic_distance_basics() {
        let origin = HyperPoint::ORIGIN;
        let p = HyperPoint { x: 0.5, y: 0.0 };
        assert_eq!(origin.hyperbolic_distance(&origin), 0.0);
        assert!(origin.hyperbolic_distance(&p) > 0.5);
        let rim = HyperPoint { x: 1.0, y: 0.0 };
        assert!(origin.hyperbolic_distance(&rim).is_infinite());
    }
}
