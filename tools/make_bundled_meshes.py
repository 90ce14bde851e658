"""Regenerate the unstructured meshes shipped in src/fracpos/meshes/.

Six meshes: an L-shaped domain (unit square minus its lower-right
quarter) and the unit disk, each at three resolutions.  Points start on
a hexagonal lattice plus exactly spaced boundary points, get Laplacian
smoothing with Delaunay retriangulation between sweeps, and the pitch is
tuned so the longest edge lands on the target h.  Every mesh is verified
(area, Delaunay predicate, boundary conformity) before it is written.

Run from the repository root:  python3 tools/make_bundled_meshes.py
"""

import math
import os
import sys

import numpy as np
import scipy.spatial

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fracpos import mesh as meshmod  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUTDIR = os.path.join(HERE, "..", "src", "fracpos", "meshes")

LSHAPE_CORNERS = [(0, 0), (0.5, 0), (0.5, 0.5), (1, 0.5), (1, 1), (0, 1)]

TARGETS = {
    "lshape_coarse": ("lshape", 0.198),
    "lshape_medium": ("lshape", 0.101),
    "lshape_fine": ("lshape", 0.051),
    "disk_coarse": ("disk", 0.20),
    "disk_medium": ("disk", 0.10),
    "disk_fine": ("disk", 0.05),
}


def in_lshape(p, margin=0.0):
    x, y = p[..., 0], p[..., 1]
    inside = (x > margin) & (x < 1 - margin) & (y > margin) & (y < 1 - margin)
    notch = (x > 0.5 - margin) & (y < 0.5 + margin)
    return inside & ~notch


def lshape_boundary(pitch):
    pts = []
    corners = LSHAPE_CORNERS + [LSHAPE_CORNERS[0]]
    for (x0, y0), (x1, y1) in zip(corners[:-1], corners[1:]):
        length = math.hypot(x1 - x0, y1 - y0)
        n = max(1, round(length / pitch))
        for k in range(n):
            s = k / n
            pts.append((x0 + s * (x1 - x0), y0 + s * (y1 - y0)))
    return np.array(pts)


def disk_boundary(pitch):
    n = max(8, round(2 * math.pi / pitch))
    angles = 2 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


def hex_lattice(xlim, ylim, pitch, rng):
    dy = pitch * math.sqrt(3) / 2
    rows = []
    j = 0
    y = ylim[0]
    while y <= ylim[1]:
        offset = 0.5 * pitch if j % 2 else 0.0
        x = xlim[0] + offset
        while x <= xlim[1]:
            rows.append((x, y))
            x += pitch
        j += 1
        y = ylim[0] + j * dy
    pts = np.array(rows)
    # tiny deterministic jitter to break cocircular ties
    return pts + (rng.random(pts.shape) - 0.5) * (0.02 * pitch)


def interior_points(domain, pitch, rng):
    if domain == "lshape":
        cand = hex_lattice((0, 1), (0, 1), pitch, rng)
        return cand[in_lshape(cand, margin=0.55 * pitch)]
    cand = hex_lattice((-1, 1), (-1, 1), pitch, rng)
    r = np.hypot(cand[:, 0], cand[:, 1])
    return cand[r < 1 - 0.55 * pitch]


def keep_triangle(domain, centroids):
    if domain == "lshape":
        return in_lshape(centroids)
    return np.hypot(centroids[:, 0], centroids[:, 1]) < 1.0


def build(domain, pitch, rng, sweeps=40):
    bnd = lshape_boundary(pitch) if domain == "lshape" else disk_boundary(pitch)
    pts = np.vstack([bnd, interior_points(domain, pitch, rng)])
    n_bnd = bnd.shape[0]
    for _ in range(sweeps):
        tri = scipy.spatial.Delaunay(pts)
        cells = tri.simplices
        cells = cells[keep_triangle(domain, pts[cells].mean(axis=1))]
        # average of neighbors, interior nodes only
        acc = np.zeros_like(pts)
        cnt = np.zeros(pts.shape[0])
        for a, b in ((0, 1), (1, 2), (2, 0)):
            np.add.at(acc, cells[:, a], pts[cells[:, b]])
            np.add.at(acc, cells[:, b], pts[cells[:, a]])
            np.add.at(cnt, cells[:, a], 1)
            np.add.at(cnt, cells[:, b], 1)
        moving = cnt > 0
        moving[:n_bnd] = False
        pts[moving] = acc[moving] / cnt[moving, None]
    tri = scipy.spatial.Delaunay(pts)
    cells = tri.simplices
    cells = cells[keep_triangle(domain, pts[cells].mean(axis=1))]
    used = np.unique(cells)
    remap = -np.ones(pts.shape[0], dtype=int)
    remap[used] = np.arange(used.shape[0])
    return meshmod._finalize(pts[used], remap[cells])


def verify(name, domain, mesh, target):
    if not meshmod.is_delaunay(mesh):
        bad = np.count_nonzero(~meshmod.delaunay_edges(mesh)[2])
        raise SystemExit("%s: %d non-delaunay edges" % (name, bad))
    area = np.abs(meshmod.triangle_areas(mesh.nodes, mesh.triangles)).sum()
    if domain == "lshape":
        if abs(area - 0.75) > 1e-10:
            raise SystemExit("%s: area %.12f != 0.75" % (name, area))
        on_boundary = mesh.nodes[mesh.boundary]
        for x, y in on_boundary:
            dist = min(
                _seg_dist(x, y, a, b)
                for a, b in zip(
                    LSHAPE_CORNERS, LSHAPE_CORNERS[1:] + LSHAPE_CORNERS[:1]
                )
            )
            if dist > 1e-12:
                raise SystemExit("%s: boundary node off the polygon" % name)
    else:
        n = int(mesh.boundary.sum())
        poly_area = 0.5 * n * math.sin(2 * math.pi / n)
        if abs(area - poly_area) > 1e-10:
            raise SystemExit("%s: area %.12f != inscribed %.12f" % (name, area, poly_area))
        r = np.hypot(*mesh.nodes[mesh.boundary].T)
        if np.abs(r - 1.0).max() > 1e-12:
            raise SystemExit("%s: boundary node off the circle" % name)
    h = meshmod.mesh_size(mesh)
    if abs(h - target) / target > 0.025:
        raise SystemExit("%s: h=%.4f misses target %.3f" % (name, h, target))
    return h, area


def _seg_dist(x, y, a, b):
    ax, ay = a
    bx, by = b
    vx, vy = bx - ax, by - ay
    t = max(0.0, min(1.0, ((x - ax) * vx + (y - ay) * vy) / (vx * vx + vy * vy)))
    return math.hypot(x - ax - t * vx, y - ay - t * vy)


def main():
    os.makedirs(OUTDIR, exist_ok=True)
    for name, (domain, target) in TARGETS.items():
        rng = np.random.default_rng(20260816)
        pitch = target * 0.97
        mesh = None
        for attempt in range(8):
            mesh = build(domain, pitch, rng)
            h = meshmod.mesh_size(mesh)
            if abs(h - target) / target <= 0.02:
                break
            pitch *= target / h
        h, area = verify(name, domain, mesh, target)
        meshmod.save_triangle_format(
            mesh,
            os.path.join(OUTDIR, name + ".node"),
            os.path.join(OUTDIR, name + ".ele"),
        )
        print(
            "%-14s nodes=%4d interior=%4d tris=%4d h=%.4f area=%.6f"
            % (
                name,
                mesh.n_nodes,
                mesh.interior_count,
                mesh.n_triangles,
                h,
                area,
            )
        )


if __name__ == "__main__":
    main()
