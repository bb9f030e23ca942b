"""The implication graph of completeness-equivalent principles.

Nodes are the named principles, one per box of the summary diagram;
edges are the proved implications, one per arrow, each labeled with the
equivalence theorem that proves it.  Conjunction statements are atomic
nodes; implications proved by chaining earlier results are represented
by their chains, never by shortcut edges.  The node and edge list ships
as a JSON data file and the constructor reads it verbatim.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .errors import PreconditionError

# Removing any of these edges breaks mutual reachability: each closes
# one of the five implication circles.
CLOSING_EDGES: Tuple[Tuple[str, str], ...] = (
    ("BWP", "AP&CCC"),   # circle 1, convergence
    ("CA", "MCP"),       # circle 2, connectedness
    ("CVT", "I1"),       # circle 3, differentiability
    ("CC&BVT", "MCP"),   # circle 4, compactness
    ("ADT", "CVT"),      # circle 5, integration
)


class Principle(NamedTuple):
    id: str
    name: str
    circles: Tuple[int, ...]


class ImplicationEdge(NamedTuple):
    src: str
    dst: str
    provenance: str


class PrincipleGraph:
    def __init__(self, nodes: List[Principle], edges: List[ImplicationEdge]):
        self.nodes: Dict[str, Principle] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise PreconditionError(f"duplicate principle id {node.id!r}")
            self.nodes[node.id] = node
        seen = set()
        for e in edges:
            if e.src not in self.nodes or e.dst not in self.nodes:
                raise PreconditionError(f"edge {e.src}->{e.dst} references unknown node")
            if (e.src, e.dst) in seen:
                raise PreconditionError(f"duplicate edge {e.src}->{e.dst}")
            seen.add((e.src, e.dst))
        self.edges: List[ImplicationEdge] = list(edges)
        self._adj: Dict[str, List[str]] = {nid: [] for nid in self.nodes}
        self._edge_map: Dict[Tuple[str, str], ImplicationEdge] = {}
        for e in edges:
            self._adj[e.src].append(e.dst)
            self._edge_map[(e.src, e.dst)] = e
        for nid in self._adj:
            self._adj[nid].sort()

    def successors(self, nid: str) -> List[str]:
        return list(self._adj[nid])

    def edge(self, src: str, dst: str) -> ImplicationEdge:
        return self._edge_map[(src, dst)]

    def without_edge(self, src: str, dst: str) -> "PrincipleGraph":
        if (src, dst) not in self._edge_map:
            raise PreconditionError(f"no edge {src}->{dst}")
        kept = [e for e in self.edges if (e.src, e.dst) != (src, dst)]
        return PrincipleGraph(list(self.nodes.values()), kept)


def build(data: Optional[dict] = None) -> PrincipleGraph:
    """Load the shipped node/edge data file (or an equivalent dict)."""
    if data is None:
        text = resources.files("fcalc.data").joinpath("principles.json").read_text()
        data = json.loads(text)
    nodes = [Principle(n["id"], n["name"], tuple(n["circles"])) for n in data["nodes"]]
    edges = [ImplicationEdge(e["from"], e["to"], e["provenance"]) for e in data["edges"]]
    return PrincipleGraph(nodes, edges)


def path(g: PrincipleGraph, src: str, dst: str) -> List[ImplicationEdge]:
    """Shortest directed path by BFS; ties break on lexicographic id.

    The path from a node to itself is empty.
    """
    for nid in (src, dst):
        if nid not in g.nodes:
            raise PreconditionError(f"unknown principle id {nid!r}")
    if src == dst:
        return []
    parent: Dict[str, str] = {src: src}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.successors(u):  # successors come pre-sorted
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        if dst in parent:
            break
        frontier = sorted(nxt)
    if dst not in parent:
        raise PreconditionError(f"no implication path from {src!r} to {dst!r}")
    chain: List[ImplicationEdge] = []
    cur = dst
    while cur != src:
        prev = parent[cur]
        chain.append(g.edge(prev, cur))
        cur = prev
    chain.reverse()
    return chain


def _reachable(start: str, neighbours: Callable[[str], List[str]]) -> set:
    seen = {start}
    stack = [start]
    while stack:
        for v in neighbours(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def check_equivalence(g: PrincipleGraph) -> bool:
    """True iff every principle sits in one strongly connected component,
    i.e. every node is reachable from one node, forwards and backwards."""
    if not g.nodes:
        return True
    reverse: Dict[str, List[str]] = {nid: [] for nid in g.nodes}
    for e in g.edges:
        reverse[e.dst].append(e.src)
    root = next(iter(g.nodes))
    return all(len(_reachable(root, step)) == len(g.nodes)
               for step in (g.successors, reverse.__getitem__))


def export_dot(g: PrincipleGraph) -> str:
    """DOT digraph with one edge statement per implication."""
    lines = ["digraph principles {"]
    for nid in g.nodes:
        lines.append(f'  "{nid}";')
    for e in g.edges:
        lines.append(f'  "{e.src}" -> "{e.dst}" [label="{e.provenance}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
