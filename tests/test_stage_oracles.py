"""Snapshot stages against their scalar reference loops, bit for bit.

``transmit``, ``build_dual`` and ``locate`` run as array passes over the
dense node index.  The references below are the per-edge, per-triangle and
per-row loops they replace, written over dicts keyed by node id; every
stage must return exactly what its reference returns, down to the last
bit of every float.  ``reference_transmit`` projects one edge at a time
with the scalar ``project_velocity``.  The channel search inlines its
distances and edge widths over flat per-side lists; its reference steps
across the same neighbours with ``dist`` and one ``edge_gap_at`` call per
edge.  ``funnel`` reads its portals from ``Mesh.neighbors`` and its radii
by node index; its reference finds each portal by matching the points of
consecutive triangles and reads radii from a map keyed by position.
Event prediction gathers the probe pairs of its channel's triangles from
``Mesh.opposite`` on each call; its reference builds the probe table of
the whole snapshot from index sums.
"""
import heapq
import math
import random
from collections import Counter

import numpy as np
import pytest

from nodes import table_of
from trichannel import events, sequencer, simulate, transmission
from trichannel.funnel import PathPolyline, _shrink_portal, _string_pull, funnel
from trichannel.geometry import NodeKind, NodeState, dist, orient2d
from trichannel.mesh import (DegenerateInputError, Mesh, NodeTable, build_dual,
                             build_mesh, locate, mesh_edges, point_in_triangle)
from trichannel.scenario import generate_synthetic
from trichannel.simulate import MethodId, run_scenario
from trichannel.search import astar, timed_astar
from trichannel.transmission import TransmissionConfig, transmit


# -- reference loops ---------------------------------------------------------

def project_velocity(v, p, cfg):
    """Attenuated copy of ``v`` carried along displacement ``p``.

    Zero when the mover heads away (angle between v and p outside
    [-pi/2, pi/2]).  The result keeps the direction of ``v``.
    """
    px, py = p
    plen = math.hypot(px, py)
    if plen == 0.0:
        raise ValueError("zero displacement vector")
    vx, vy = v
    vlen = math.hypot(vx, vy)
    if vlen == 0.0:
        return (0.0, 0.0)
    # Normalize before the dot product: vlen * plen can underflow to zero
    # for subnormal inputs even when both factors are nonzero.
    cos_theta = (vx / vlen) * (px / plen) + (vy / vlen) * (py / plen)
    if cos_theta < 0.0:
        return (0.0, 0.0)
    cos_theta = min(cos_theta, 1.0)
    theta = math.acos(cos_theta)
    factor = (cfg.alpha / (plen + cfg.alpha)) * abs(math.pi / 2 - theta) ** cfg.beta * cos_theta
    return (factor * vx, factor * vy)


def edge_gap_at(mesh, edge, t):
    """Clear width of a mesh edge at time offset ``t`` from the snapshot.

    Distance between the two endpoint nodes, extrapolated with
    ``mesh.vel``, minus both node radii.
    """
    u, v = edge
    xy, r = mesh.xy_list, mesh.nodes.r_list
    pu, pv = xy[u], xy[v]
    vu, vv = mesh.vel[u].tolist(), mesh.vel[v].tolist()
    ax, ay = pu[0] + vu[0] * t, pu[1] + vu[1] * t
    bx, by = pv[0] + vv[0] * t, pv[1] + vv[1] * t
    return math.hypot(ax - bx, ay - by) - r[u] - r[v]


def _by_id(mesh):
    """Node ids, and positions and planning velocities keyed by node id."""
    ids = mesh.nodes.ids.tolist()
    return (ids, dict(zip(ids, map(tuple, mesh.xy.tolist()))),
            dict(zip(ids, map(tuple, mesh.vel.tolist()))))


def reference_transmit(mesh, cfg):
    """Jacobi sweeps over every directed edge in (i, j) id order."""
    ids, positions, velocities = _by_id(mesh)
    undirected = [(ids[u], ids[v]) for u, v in mesh_edges(mesh).tolist()]
    edges = sorted(undirected + [(v, u) for u, v in undirected])
    for _ in range(cfg.passes):
        snapshot = dict(velocities)
        best = {}
        for i, j in edges:
            vi = snapshot[i]
            if vi == (0.0, 0.0):
                continue
            pi, pj = positions[i], positions[j]
            pij = (pj[0] - pi[0], pj[1] - pi[1])
            if vi[0] * pij[0] + vi[1] * pij[1] <= 0.0:
                continue
            proj = project_velocity(vi, pij, cfg)
            mag = math.hypot(*proj)
            if mag <= math.hypot(*snapshot[j]):
                continue
            prev = best.get(j)
            if prev is None or mag > math.hypot(*prev):
                best[j] = proj
        velocities.update(best)
    return [velocities[i] for i in ids]


def reference_best_first(placements, goal, mesh, start_tri, goal_tri, start_cost,
                         speed, width_threshold):
    """Best-first search, one ``dist`` and ``edge_gap_at`` call per edge.

    An edge is crossed only when its gap at the arrival cost is not below
    ``width_threshold`` (a NaN gap is admitted); a triangle is expanded at
    most once.
    """
    place = dict(enumerate(placements))
    for tri in (start_tri, goal_tri):
        if tri not in place:
            raise KeyError(f"unknown triangle id {tri}")
    tris, nbrs = mesh.triangles.tolist(), mesh.neighbors.tolist()
    g = {start_tri: start_cost}
    came = {}
    h0 = dist(place[start_tri], goal) / speed
    open_heap = [(start_cost + h0, h0, start_tri)]
    closed = set()
    while open_heap:
        _, _, tri = heapq.heappop(open_heap)
        if tri in closed:
            continue
        closed.add(tri)
        if tri == goal_tri:
            path = [goal_tri]
            while path[-1] != start_tri:
                path.append(came[path[-1]])
            return path[::-1]
        row = tris[tri]
        for k, neigh in enumerate(nbrs[tri]):
            if neigh < 0 or neigh in closed:
                continue
            cand = g[tri] + dist(place[tri], place[neigh]) / speed
            u, v = row[k - 2], row[k - 1]
            if (width_threshold is not None and edge_gap_at(
                    mesh, (u, v) if u < v else (v, u), cand) < width_threshold):
                continue
            if cand < g.get(neigh, math.inf):
                g[neigh] = cand
                came[neigh] = tri
                h = dist(place[neigh], goal) / speed
                heapq.heappush(open_heap, (cand + h, h, neigh))
    return None


def reference_search(placements, mesh, start_tri, goal_tri, *, goal, ego_speed=1.0,
                     width_threshold=None, ego_position=None):
    """``astar`` (no ``width_threshold``) or ``timed_astar`` as triangle ids
    and arrival times, or None."""
    if ego_position is None:
        ego_position = placements[start_tri]
    if width_threshold is None:
        tris = reference_best_first(placements, goal, mesh, start_tri, goal_tri, 0.0,
                                    1.0, None)
    else:
        start_cost = dist(ego_position, placements[start_tri]) / ego_speed
        tris = reference_best_first(placements, goal, mesh, start_tri, goal_tri,
                                    start_cost, ego_speed, width_threshold)
    if tris is None:
        return None
    etas, prev = [0.0], ego_position
    for t in tris[:-1]:
        etas.append(etas[-1] + dist(prev, placements[t]) / ego_speed)
        prev = placements[t]
    return tris, bits(etas)


def crossed_widths(place, mesh, tris, ego_position, speed):
    """``edge_gap_at`` of each edge that the channel ``tris`` crosses, at the
    search cost it crosses it."""
    widths = []
    if tris:
        cost = dist(ego_position, place[tris[0]]) / speed
        for a, b in zip(tris, tris[1:]):
            cost += dist(place[a], place[b]) / speed
            row, k = mesh.triangles[a].tolist(), mesh.neighbors[a].tolist().index(b)
            widths.append(edge_gap_at(mesh, tuple(sorted((row[k - 2], row[k - 1]))), cost))
    return widths


def searched(channel):
    return None if channel is None else (channel.triangles, bits(channel.etas))


def _closest_point_on_edge(positions, edge, goal, ego_radius):
    pa, pb = positions[edge[0]], positions[edge[1]]
    dx, dy = pb[0] - pa[0], pb[1] - pa[1]
    length_sq = dx * dx + dy * dy
    length = math.sqrt(length_sq)
    if length == 0.0:
        return pa
    s = ((goal[0] - pa[0]) * dx + (goal[1] - pa[1]) * dy) / length_sq
    margin = min(0.1 * length, ego_radius) / length
    s = min(max(s, margin), 1.0 - margin)
    return (pa[0] + s * dx, pa[1] + s * dy)


def reference_dual(mesh, goal, ego_radius):
    """Placements and id-keyed adjacency, one triangle at a time."""
    ids, positions, _ = _by_id(mesh)
    placements, adjacency = {}, []
    rows = zip(mesh.triangles.tolist(), mesh.neighbors[:, [2, 0, 1]].tolist())
    for tri_id, (verts, across) in enumerate(rows):
        a, b, c = (ids[v] for v in verts)
        links, best, best_d = [], None, math.inf
        for (u, v), neigh in zip(((a, b), (b, c), (c, a)), across):
            if neigh < 0:
                continue
            edge = (u, v) if u < v else (v, u)
            links.append((neigh, edge))
            candidate = _closest_point_on_edge(positions, edge, goal, ego_radius)
            d = dist(candidate, goal)
            if d < best_d:
                best, best_d = candidate, d
        if best is None:
            pts = [positions[a], positions[b], positions[c]]
            best = ((pts[0][0] + pts[1][0] + pts[2][0]) / 3.0,
                    (pts[0][1] + pts[1][1] + pts[2][1]) / 3.0)
        placements[tri_id] = best
        links.sort()
        adjacency.append(links)
    return placements, adjacency


def reference_locate(mesh, p):
    """Lowest triangle id whose closed triangle holds ``p``."""
    for tri_id in range(len(mesh.triangles)):
        if point_in_triangle(mesh.triangle_points(tri_id), p):
            return tri_id
    return None


def _ccw(tri):
    if orient2d(*tri) < 0:
        return (tri[0], tri[2], tri[1])
    return tri


def _shared_directed_edge(tri_a, tri_b):
    """Shared edge directed as it appears in tri_a's CCW cycle."""
    other = set(tri_b)
    for k in range(3):
        a, b = tri_a[k], tri_a[(k + 1) % 3]
        if a in other and b in other:
            return a, b
    raise ValueError("consecutive corridor triangles share no edge")


def extract_portals(triangles):
    """(left, right) portal pairs as seen walking the corridor."""
    portals = []
    for cur, nxt in zip(triangles, triangles[1:]):
        a, b = _shared_directed_edge(cur, nxt)
        # Interior of the current triangle lies left of a -> b, so the
        # walker crosses left-to-right: b is on their left hand.
        portals.append((b, a))
    return portals


def reference_funnel(triangles, start, target, padding, radius_of=None, segment_id=0):
    """``funnel`` over point triangles, with node radii keyed by position."""
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    if not triangles:
        raise ValueError("empty corridor")
    tris = [_ccw(t) for t in triangles]
    if not point_in_triangle(tris[0], start):
        raise ValueError("start point outside the first corridor triangle")
    if not point_in_triangle(tris[-1], target):
        raise ValueError("target point outside the last corridor triangle")
    if len(tris) == 1:
        pts = [start, target] if start != target else [start]
        return PathPolyline(points=pts, segment_ids=[segment_id] * len(pts))
    shrunk = []
    for left, right in extract_portals(tris):
        r_left = radius_of.get(left, 0.0) if radius_of else 0.0
        r_right = radius_of.get(right, 0.0) if radius_of else 0.0
        portal = _shrink_portal(left, right, padding + r_left, padding + r_right)
        if portal is None:
            return None
        shrunk.append(portal)
    points = _string_pull(shrunk, start, target)
    return PathPolyline(points=points, segment_ids=[segment_id] * len(points))


def point_corridor(mesh, tri_ids):
    """The triangles ``tri_ids`` as points, and node radii by position."""
    xy, r = mesh.xy_list, mesh.nodes.r_list
    rows = mesh.triangles[list(tri_ids)].tolist()
    return ([(xy[a], xy[b], xy[c]) for a, b, c in rows],
            {xy[v]: r[v] for row in rows for v in row})


def corridor_mesh(triangles, radius_of=None):
    """A ``Mesh`` whose triangle ``i`` is ``triangles[i]``.

    Each distinct point is one node, with its radius from ``radius_of``
    (else 0).  Rows are CCW from their lowest index, as ``build_mesh``
    writes them, and two triangles sharing two points are neighbours.
    """
    index = {}
    for tri in triangles:
        for p in tri:
            index.setdefault(p, len(index))
    rows = []
    for tri in map(_ccw, triangles):
        row = [index[p] for p in tri]
        i = row.index(min(row))
        rows.append(row[i:] + row[:i])
    neighbors = [[next((u for u, other in enumerate(rows)
                        if u != t and {row[k - 2], row[k - 1]} <= set(other)), -1)
                  for k in range(3)] for t, row in enumerate(rows)]
    radius_of = radius_of or {}
    table = NodeTable(ids=np.arange(len(index)),
                      xy=np.array(list(index), dtype=float).reshape(-1, 2),
                      vel=np.zeros((len(index), 2)),
                      r=np.array([radius_of.get(p, 0.0) for p in index], dtype=float))
    return Mesh(time=0.0, nodes=table, xy=table.xy, vel=table.vel,
                triangles=np.array(rows, dtype=np.intp).reshape(-1, 3),
                neighbors=np.array(neighbors, dtype=np.intp).reshape(-1, 3))


def reference_probe_lists(mesh):
    """Probes of every triangle and which pairs move.

    Row ``t`` of the first ``(T, 3)`` table holds the probes of triangle
    ``t`` (opposite vertices of its edge-adjacent triangles), sorted and
    padded with the node count.  The second marks the pairs that are not
    a rigid translation: four nodes sharing one velocity keep their
    in-circle sign, so the triangle (cocircular neighbours included) stays
    valid.  NaN compares unequal, as in ``np.array_equal``.
    """
    tris, across = mesh.triangles, mesh.neighbors  # hull entries (-1) are masked
    # A neighbour holds the shared edge and the probe, and the edge is the
    # triangle less its vertex k, so the probe is a difference of index sums.
    tsum = tris.sum(axis=1)
    pad = len(mesh.xy)
    probes = np.sort(np.where(across >= 0, tsum[across] - tsum[:, None] + tris, pad),
                     axis=1)
    # Two neighbours can share a probe (a vertex of degree three).
    probes[:, 1:][probes[:, 1:] == probes[:, :-1]] = pad
    probes.sort(axis=1)
    # Rigid: the triangle's three velocities and the probe's are equal.
    vt = mesh.vel[tris]  # (T, 3, 2)
    uniform = ((vt[:, 1] == vt[:, 0]) & (vt[:, 2] == vt[:, 0])).all(axis=1)
    same = (mesh.vel[np.minimum(probes, pad - 1)] == vt[:, :1]).all(axis=2)
    return probes, (probes < pad) & ~(uniform[:, None] & same)


def bits(values):
    return np.array(values, dtype=float).tobytes()


# -- scene corpus ------------------------------------------------------------

def _node(i, x, y, vx=0.0, vy=0.0, r=0.0):
    kind = NodeKind.STATIC if vx == vy == 0.0 else NodeKind.DYNAMIC
    return NodeState(id=i, x=x, y=y, vx=vx, vy=vy, r=r, kind=kind)


def _velocities(rng, n, integer=False):
    """About a third of the nodes move; integer grids get exact speeds."""
    out = []
    for _ in range(n):
        if rng.random() < 0.65:
            out.append((0.0, 0.0))
        elif integer:
            out.append((float(rng.randint(-2, 2)), float(rng.randint(-2, 2))))
        else:
            out.append((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
    return out


def _scene(points, vels, ids=None, r=0.0):
    ids = ids if ids is not None else range(len(points))
    return [_node(i, x, y, vx, vy, r) for i, (x, y), (vx, vy) in zip(ids, points, vels)]


def corpus():
    """(label, nodes, mesh time): 300 scenes and more."""
    rng = random.Random(77)
    for k in range(100):  # random sets
        n = rng.randint(4, 60)
        pts = [(rng.uniform(0, 20), rng.uniform(0, 12)) for _ in range(n)]
        yield f"random-{k}", _scene(pts, _velocities(rng, n)), rng.choice([0.0, 0.7])
    for k in range(50):  # jittered grids
        side, jitter = rng.randint(2, 7), rng.choice([1e-9, 1e-3, 0.2])
        pts = [(i + rng.uniform(-jitter, jitter), j + rng.uniform(-jitter, jitter))
               for i in range(side) for j in range(side)]
        yield f"jitter-{k}", _scene(pts, _velocities(rng, len(pts))), 0.0
    for k in range(60):  # exactly cocircular integer grids, exact speeds
        side = rng.randint(2, 7)
        pts = [(float(i), float(j)) for i in range(side) for j in range(side)]
        yield f"grid-{k}", _scene(pts, _velocities(rng, len(pts), integer=True)), 0.0
    for k in range(60):  # ids out of position order and not contiguous
        n = rng.randint(4, 50)
        pts = [(rng.uniform(0, 20), rng.uniform(0, 12)) for _ in range(n)]
        ids = rng.sample(range(10, 5000), n)
        yield f"scrambled-{k}", _scene(pts, _velocities(rng, n), ids), rng.choice([0.0, 1.3])
    # Two mirrored walkers reach the node between them with equal
    # projections, so only the first maximum in (i, j) order may win.
    for k, speed in enumerate((0.5, 1.0, 2.0)):
        pts = [(0.0, 0.0), (-1.0, 0.5), (1.0, 0.5), (0.0, 3.0), (0.0, -3.0)]
        vels = [(0.0, 0.0), (speed, -0.5 * speed), (-speed, -0.5 * speed),
                (0.0, 0.0), (0.0, 0.0)]
        yield f"mirror-{k}", _scene(pts, vels, ids=[5, 1, 9, 3, 7], r=0.1), 0.0
    for seed in range(12):
        sc = generate_synthetic(seed)
        for t in (0.0, 7.9, 16.3):
            yield f"synthetic-{seed}@{t}", sc.node_states_at(t), 0.0


def meshes():
    out = []
    for label, nodes, t in corpus():
        try:
            out.append((label, build_mesh(table_of(nodes), t)))
        except DegenerateInputError:
            continue
    return out


MESHES = meshes()


def test_corpus_size():
    assert len(MESHES) >= 300
    assert sum(label.startswith("scrambled") for label, _ in MESHES) >= 50


# -- stages against references -----------------------------------------------

@pytest.mark.parametrize("passes", [1, 2, 3])
def test_transmit_matches_reference(passes):
    cfg = TransmissionConfig(passes=passes)
    adopted = 0
    for label, mesh in MESHES:
        got = transmit(mesh, cfg)
        want = reference_transmit(mesh, cfg)
        assert got.vel.tobytes() == bits(want), label
        adopted += int((got.vel != mesh.vel).any(axis=1).sum())
    assert adopted > 1000  # the sweeps did move many nodes


@pytest.mark.parametrize("cfg", [TransmissionConfig(alpha=0.3, beta=2.5),
                                 TransmissionConfig(beta=0.0),
                                 TransmissionConfig(alpha=0.0, passes=2)])
def test_transmit_matches_reference_at_other_settings(cfg):
    adopted = 0
    for label, mesh in MESHES:
        got = transmit(mesh, cfg)
        assert got.vel.tobytes() == bits(reference_transmit(mesh, cfg)), label
        adopted += int((got.vel != mesh.vel).any(axis=1).sum())
    # With alpha = 0 every projection is zero, and none beats a speed.
    assert adopted == 0 if cfg.alpha == 0.0 else adopted > 1000


@pytest.mark.parametrize("cfg", [TransmissionConfig(), TransmissionConfig(passes=2)])
def test_transmit_ignores_edge_order_and_direction(cfg, monkeypatch):
    want = [transmit(mesh, cfg).vel.tobytes() for _, mesh in MESHES]
    rng = np.random.default_rng(3)

    def scrambled(mesh):
        edges = mesh_edges(mesh)
        edges = edges[rng.permutation(len(edges))]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        return edges

    monkeypatch.setattr(transmission, "mesh_edges", scrambled)
    got = [transmit(mesh, cfg).vel.tobytes() for _, mesh in MESHES]
    assert got == want


def test_first_strict_maximum_wins():
    # Node 5 sits between two walkers whose projections onto it are equal;
    # the walker with the lower id (1) supplies its velocity.
    label, mesh = next(m for m in MESHES if m[0] == "mirror-1")
    got = transmit(mesh, TransmissionConfig())
    first = project_velocity((1.0, -0.5), (1.0, -0.5), TransmissionConfig())
    assert tuple(got.vel[mesh.nodes.ids.tolist().index(5)].tolist()) == first
    assert got.vel.tobytes() == bits(reference_transmit(mesh, TransmissionConfig()))


def test_search_matches_reference():
    rng = random.Random(23)
    outcomes = Counter()
    for label, mesh in MESHES:
        lo, hi = mesh.xy.min(axis=0), mesh.xy.max(axis=0)
        goal = (rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]))
        moved = transmit(mesh, TransmissionConfig())
        place = build_dual(moved, goal, 0.5)
        start, end = rng.randrange(len(mesh.triangles)), rng.randrange(len(mesh.triangles))
        ego = tuple(moved.xy[moved.triangles[start]].mean(axis=0).tolist())
        speed = rng.choice([0.7, 1.3, 2.0])
        want = reference_search(place, moved, start, end, goal=goal, ego_speed=speed,
                                ego_position=ego)
        got = astar(place, moved, start, end, goal=goal, ego_speed=speed, ego_position=ego)
        assert searched(got) == want, label

        def timed(threshold, key):
            want = reference_search(place, moved, start, end, goal=goal, ego_speed=speed,
                                    width_threshold=threshold, ego_position=ego)
            got = timed_astar(place, moved, start, end, goal=goal, ego_speed=speed,
                              width_threshold=threshold, ego_position=ego)
            assert searched(got) == want, (label, threshold)
            outcomes[key, got is None] += 1
            return want

        for threshold in (0.8, 2.0):
            timed(threshold, threshold)
        free = timed(0.0, 0.0)
        # The width of an edge that the free channel crosses, at the cost it
        # crosses it: a width rounded another way flips this threshold.
        widths = crossed_widths(place, moved, free[0] if free else [], ego, speed)
        if widths:
            timed(rng.choice(widths), "crossed")
    # Every threshold finds channels, and the wider ones also block some.
    assert min(outcomes[t, False] for t in (0.0, 0.8, 2.0, "crossed")) > 100
    assert outcomes[0.8, True] > 5 and outcomes[2.0, True] > 50
    assert outcomes["crossed", True] > 50


def test_build_dual_matches_reference():
    rng = random.Random(5)
    duals = 0
    for label, mesh in MESHES:
        lo, hi = mesh.xy.min(axis=0), mesh.xy.max(axis=0)
        goals = [tuple(mesh.xy[rng.randrange(len(mesh.xy))].tolist()),
                 (rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1])),
                 (hi[0] + 5.0, rng.uniform(lo[1], hi[1]))]
        for goal, ego_radius in zip(goals, (0.25, 0.5, 3.0)):
            for m in (mesh, transmit(mesh, TransmissionConfig())):
                dual = build_dual(m, goal, ego_radius)
                placements, adjacency = reference_dual(m, goal, ego_radius)
                assert list(range(len(dual))) == sorted(placements), label
                assert (bits([dual[t] for t in sorted(placements)])
                        == bits([placements[t] for t in sorted(placements)])), label
                # The search reads the dual's edges from ``mesh.neighbors``:
                # the triangle across the edge opposite each vertex.
                ids = m.nodes.ids.tolist()
                got = [sorted((n, tuple(sorted((ids[row[k - 2]], ids[row[k - 1]]))))
                              for k, n in enumerate(ns) if n >= 0)
                       for row, ns in zip(m.triangles.tolist(), m.neighbors.tolist())]
                assert got == adjacency, label
                duals += 1
    assert duals >= 900


def _probe_points(rng, mesh):
    """Vertices, edge midpoints, centroids, and points inside and outside."""
    pts = list(mesh.xy_list)
    pts += [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            for a, b in (map(tuple, mesh.xy[e].tolist()) for e in mesh_edges(mesh))]
    pts += [tuple(mesh.xy[t].mean(axis=0).tolist()) for t in mesh.triangles]
    lo, hi = mesh.xy.min(axis=0) - 1.0, mesh.xy.max(axis=0) + 1.0
    pts += [(rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1])) for _ in range(10)]
    pts += [(lo[0] - 50.0, lo[1]), (hi[0], hi[1] + 1e-9)]
    return rng.sample(pts, min(len(pts), 40))


def test_locate_matches_reference():
    rng = random.Random(9)
    located = outside = 0
    for label, mesh in MESHES:
        for p in _probe_points(rng, mesh) + list(mesh.xy_list[:3]):
            want = reference_locate(mesh, p)
            assert locate(mesh, p) == want, (label, p)
            located += want is not None
            outside += want is None
    assert located >= 5000 and outside >= 500


def _outcome(fn, *args):
    """A path's points and segment ids as bytes, None, or "ValueError"."""
    try:
        path = fn(*args)
    except ValueError:
        return "ValueError"
    return None if path is None else (bits(path.points), path.segment_ids)


def test_funnel_matches_reference_in_closed_loop(monkeypatch):
    outcomes, mismatches = Counter(), []

    def checked(mesh, tri_ids, start, target, padding, segment_id=0):
        tris, radius_of = point_corridor(mesh, tri_ids)
        want = _outcome(reference_funnel, tris, start, target, padding, radius_of,
                        segment_id)
        got = _outcome(funnel, mesh, tri_ids, start, target, padding, segment_id)
        outcomes[got if got in (None, "ValueError") else "path"] += 1
        if got != want:
            mismatches.append((mesh.time, tri_ids, start, target))
        return funnel(mesh, tri_ids, start, target, padding, segment_id)

    monkeypatch.setattr(simulate, "funnel", checked)
    monkeypatch.setattr(sequencer, "funnel", checked)
    for seed in (0, 5):
        for method in MethodId:
            run_scenario(generate_synthetic(seed), method)
    assert mismatches == []
    assert outcomes["path"] > 2000 and outcomes[None] > 100
    assert outcomes["ValueError"] > 0


def test_event_pairs_match_probe_lists_in_closed_loop(monkeypatch):
    # Every event prediction of the closed-loop runs, main scan and prefix
    # re-scans, gathers the pairs that the snapshot's probe table holds.
    gather, calls, mismatches = events._gather, Counter(), []

    def checked(tri_ids, mesh, counts):
        got = gather(tri_ids, mesh, counts)
        probes, moving = reference_probe_lists(mesh)
        chan, col = np.nonzero(moving[tri_ids] & (counts[:, None] > 0))
        rows = np.column_stack([mesh.triangles[tri_ids[chan]], probes[tri_ids[chan], col]])
        want = (chan, rows[:, 3], mesh.xy[rows[:, [0, 1, 2, 0, 1, 3]]].T,
                mesh.vel[rows[:, [0, 1, 2, 0, 1, 3]]].T)
        calls["call"] += 1
        calls["pairs"] += len(chan)
        if [a.tobytes() for a in got] != [np.ascontiguousarray(a).tobytes() for a in want]:
            mismatches.append((mesh.time, tri_ids.tolist()))
        return got

    monkeypatch.setattr(events, "_gather", checked)
    for seed in (0, 1, 5):
        run_scenario(generate_synthetic(seed), MethodId.PROPOSED)
    assert mismatches == []
    assert calls["call"] > 3000 and calls["pairs"] > 20 * calls["call"]


def test_search_and_transmit_match_references_in_closed_loop(monkeypatch):
    calls, mismatches = Counter(), []

    def checked_transmit(mesh, cfg):
        got = transmit(mesh, cfg)
        calls["transmit"] += 1
        if got.vel.tobytes() != bits(reference_transmit(mesh, cfg)):
            mismatches.append(("transmit", mesh.time))
        return got

    def checking(search_fn):
        def checked(placements, mesh, start_tri, goal_tri, **kwargs):
            got = search_fn(placements, mesh, start_tri, goal_tri, **kwargs)
            calls[search_fn.__name__, got is None] += 1
            if searched(got) != reference_search(placements, mesh, start_tri, goal_tri,
                                                 **kwargs):
                mismatches.append((search_fn.__name__, mesh.time, start_tri, goal_tri))
            return got
        return checked

    monkeypatch.setattr(sequencer, "transmit", checked_transmit)
    monkeypatch.setattr(sequencer, "timed_astar", checking(timed_astar))
    monkeypatch.setattr(simulate, "timed_astar", checking(timed_astar))
    monkeypatch.setattr(simulate, "astar", checking(astar))
    for seed in (0, 5):
        for method in MethodId:
            run_scenario(generate_synthetic(seed), method)
    assert mismatches == []
    assert calls["transmit"] > 1000
    assert calls["timed_astar", False] > 1000 and calls["astar", False] > 200


def _zigzag(rng):
    """Up to ten triangles in a strip along +x, each in either orientation,
    with random radii on their points; some portals are too narrow."""
    tris = []
    x, lo = 0.0, 0.0
    prev = [(x, lo), (x, lo + rng.uniform(0.3, 2.5))]
    for _ in range(rng.randint(1, 5)):
        x += rng.uniform(0.5, 3.0)
        lo = lo + rng.uniform(-0.8, 0.8)
        cur = [(x, lo), (x, lo + rng.uniform(0.3, 2.5))]
        tris += [(prev[0], cur[0], prev[1]), (cur[0], cur[1], prev[1])]
        prev = cur
    tris = [t if rng.random() < 0.5 else (t[0], t[2], t[1]) for t in tris]
    radius_of = {p: rng.choice([0.0, rng.uniform(0.0, 0.8)]) for t in tris for p in t}
    return tris, radius_of


def _point_in(rng, tri):
    """Mostly a point inside ``tri``, sometimes one in its bounding box."""
    if rng.random() < 0.1:
        xs, ys = zip(*tri)
        return (rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
    u, v = sorted((rng.random(), rng.random()))
    w = (u, v - u, 1.0 - v)
    return (sum(wi * p[0] for wi, p in zip(w, tri)), sum(wi * p[1] for wi, p in zip(w, tri)))


def test_funnel_matches_reference_on_random_corridors():
    rng = random.Random(131)
    outcomes = Counter()
    for _ in range(2000):
        tris, radius_of = _zigzag(rng)
        mesh = corridor_mesh(tris, radius_of)
        ids = list(range(rng.randint(1, len(tris))))
        if len(ids) > 2 and rng.random() < 0.05:
            del ids[rng.randrange(1, len(ids) - 1)]  # a pair that are not neighbours
        start, target = _point_in(rng, tris[ids[0]]), _point_in(rng, tris[ids[-1]])
        padding, segment_id = rng.uniform(0.0, 0.3), rng.randrange(3)
        want = _outcome(reference_funnel, [tris[i] for i in ids], start, target,
                        padding, radius_of, segment_id)
        got = _outcome(funnel, mesh, ids, start, target, padding, segment_id)
        assert got == want, (tris, ids, start, target, padding)
        outcomes[got if got in (None, "ValueError") else "path"] += 1
    assert min(outcomes.values()) > 100 and len(outcomes) == 3
