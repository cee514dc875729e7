#!/usr/bin/env python3
"""Reproduce the sharpness tables: both bound families hit the line graph's
diameter exactly, so the constructions are optimal there.

Usage: python scripts/reproduce_sharpness.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from rainbowline.coloring import color
from rainbowline.families import (
    bridged_triangle_chain,
    complete_graph,
    petersen_graph,
    shared_vertex_triangle_chain,
)
from rainbowline.graphs import build_graph, diameter


def main() -> None:
    print("forest bound n2 - t on bridged triangle chains")
    print("t  diam(L)  colors  verified")
    for t in range(2, 6):
        g = bridged_triangle_chain(t)
        run = color(g, "31")
        cert = run.certificate
        print(f"{t}  {diameter(run.coloring.graph):7d}  {cert.colors_used:6d}  {cert.verified}")

    print()
    print("general bound t + n2' + c on shared-vertex chains")
    print("k  diam(L)  colors  verified")
    for k in range(2, 8):
        g = shared_vertex_triangle_chain(k)
        run = color(g, "32")
        cert = run.certificate
        print(f"{k}  {diameter(run.coloring.graph):7d}  {cert.colors_used:6d}  {cert.verified}")

    print()
    print("n + 1 bound on twice-iterated line graphs of cubic graphs")
    print("graph      n   bound  colors  verified")
    k33 = build_graph(6, [(a, 3 + b) for a in range(3) for b in range(3)])
    for name, g in (("K4", complete_graph(4)), ("K3,3", k33), ("Petersen", petersen_graph())):
        cert = color(g, "cubic").certificate
        print(f"{name:9s} {g.n:3d}  {cert.bound_value:5d}  {cert.colors_used:6d}  {cert.verified}")


if __name__ == "__main__":
    main()
