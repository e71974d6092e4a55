"""Node tables for the unit tests, built from ``NodeState`` records."""
from typing import Iterable

import numpy as np

from trichannel.geometry import NodeState
from trichannel.mesh import NodeTable, _frozen


def table_of(nodes: Iterable[NodeState]) -> NodeTable:
    """The nodes as a ``NodeTable``: rows in ascending id order."""
    node_list = sorted(nodes, key=lambda n: n.id)
    return NodeTable(
        ids=_frozen(np.array([n.id for n in node_list], dtype=np.int64)),
        xy=_frozen(np.array([n.position for n in node_list], dtype=float).reshape(-1, 2)),
        vel=_frozen(np.array([(n.vx, n.vy) for n in node_list], dtype=float).reshape(-1, 2)),
        r=_frozen(np.array([n.r for n in node_list], dtype=float)),
    )
