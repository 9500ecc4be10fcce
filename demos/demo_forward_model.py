"""Forward model walkthrough: scenes, poses, and complex edges.

Builds the default scene (a 10m x 10m room with 8 perimeter anchors and
an 8-point polygon body), shows how the body pose maps the conformation
into world coordinates, and enumerates the canonical edge ordering that
every other component relies on.
"""

import numpy as np

from rigidloc import SceneConfig, random_scene
from rigidloc.edges import build_pair_index
from rigidloc.geometry import Conformation, Pose, apply_pose


def demo_scene_layout():
    print("\n" + "=" * 70)
    print("Demo 1: Default scene layout")
    print("=" * 70)

    scene = random_scene(SceneConfig(), seed=7)
    print(f"\nAnchors ({scene.n_anchors}, fixed on the room perimeter):")
    for k, col in enumerate(scene.anchors.positions.T):
        print(f"  a{k}: ({col[0]:6.2f}, {col[1]:6.2f})")
    print(f"\nBody pose: angle {scene.pose.rotation.angle:+.3f} rad, "
          f"translation ({scene.pose.translation[0]:.2f}, "
          f"{scene.pose.translation[1]:.2f})")
    print(f"Landmarks ({scene.n_landmarks}, unknown to the estimators):")
    for k, s in enumerate(scene.landmarks):
        print(f"  s{k}: ({s.real:6.2f}, {s.imag:6.2f})")


def demo_pose_action():
    print("\n" + "=" * 70)
    print("Demo 2: Pose acting on a conformation")
    print("=" * 70)

    conf = Conformation.regular_polygon(4, 1.0)
    pose = Pose.from_angle(np.pi / 2, [5.0, 5.0])
    world = apply_pose(conf, pose)
    print("\nBody frame -> world frame under a quarter turn plus shift:")
    for k in range(conf.n_points):
        c, s = conf.points[:, k], world[k]
        print(f"  c{k} = ({c[0]:+.2f}, {c[1]:+.2f})  ->  "
              f"s{k} = ({s.real:+.2f}, {s.imag:+.2f})")


def demo_edge_ordering():
    print("\n" + "=" * 70)
    print("Demo 3: Canonical edge ordering and complex edges")
    print("=" * 70)

    scene = random_scene(SceneConfig(n_anchors=3, n_landmarks=3), seed=1)
    index = build_pair_index(scene.n_anchors, scene.n_landmarks)
    x = scene.complex_positions()
    edges = x[index.second] - x[index.first]
    print(f"\n{index.n_pairs} pairs total: {index.n_aa} anchor-anchor, "
          f"{index.n_at} anchor-target, {index.n_tt} target-target")
    print("\npair   class  distance   angle      edge value")
    classes = (["AA"] * index.n_aa + ["AT"] * index.n_at + ["TT"] * index.n_tt)
    for p, (i, j) in enumerate(index.pairs()):
        v = edges[p]
        print(f"({i},{j})  {classes[p]}    {np.abs(v):7.3f}   "
              f"{np.angle(v):+7.3f}   {v:+.3f}")
    print("\nEach edge is the coordinate difference x_j - x_i stored as a")
    print("complex number, so its modulus is the pair distance and its")
    print("argument is the direction measured at node i.")


if __name__ == "__main__":
    demo_scene_layout()
    demo_pose_action()
    demo_edge_ordering()
