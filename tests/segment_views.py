"""Node-id views of channel segments, read only by the tests.

A ``ChannelSegment`` keeps its snapshot and triangle ids in it; these
helpers read the node-id triangles and the anchor that the tests check
across segments and snapshots.
"""


def node_triangles(seg):
    """CCW node-id triples of the segment's triangles at its snapshot time."""
    ids = seg.mesh.nodes.ids[seg.mesh.triangles[seg.tri_ids]]
    return [tuple(row) for row in ids.tolist()]


def node_anchor(seg):
    """The node-id triple of the segment's last triangle, its anchor."""
    return node_triangles(seg)[-1]
