"""Reduction of a plane foliation singularity by repeated blow-ups.

The driver blows up every non-final singular point until only final ones
remain: linearly nondegenerate points whose eigenvalue ratio is not a
positive integer (or its reciprocal), plus saddle-nodes.  Each blow-up
records a ledger row relating the intersection multiplicity I0 at the
center to its children:

    non-dicritical:  I0 = (k^2 - k - 1) + sum of child multiplicities
    dicritical:      I0 = (k^2 + k - 1) + sum of child multiplicities

with k the algebraic order at the center and conjugate clusters weighted by
their Galois multiplicity.  The exceptional-divisor components are tracked
with self-intersections (-1 at birth, decremented when a later center lies
on the component).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from .blowup import (
    ChildPoint,
    child_local_form,
    divisor_children,
)
from .errors import (
    BlowupBudgetExceeded,
    NonIsolatedSingularity,
    WrongClass,
    ZeroInput,
)
from .local import SingularityClass, classify_singularity, intersection_number
from .poly import (
    MultiPoly,
    OneFormGerm,
    VectorFieldGerm,
    coefficient_tower,
    dualize,
)
from .towers import TRIVIAL, FieldTower

DEFAULT_MAX_BLOWUPS = 64


class ResolutionNode:
    __slots__ = ("id", "parent", "depth", "form", "tower", "point",
                 "galois_multiplicity", "classification", "i0", "order",
                 "dicritical", "children", "final", "axes", "expanded")

    def __init__(self, node_id: int, parent: Optional[int], depth: int,
                 form: OneFormGerm, tower: FieldTower,
                 point: Optional[ChildPoint], galois_multiplicity: int,
                 classification: SingularityClass, i0,
                 axes: Dict[int, int]):
        self.id = node_id
        self.parent = parent
        self.depth = depth
        self.form = form
        self.tower = tower
        self.point = point
        self.galois_multiplicity = galois_multiplicity
        self.classification = classification
        self.i0 = i0
        self.order = None
        self.dicritical = None
        self.children: List[int] = []
        self.final = classification.is_final()
        self.axes = axes
        self.expanded = False

    @property
    def field(self) -> VectorFieldGerm:
        return dualize(self.form)

    def to_json(self):
        out = {
            "id": self.id,
            "parent": self.parent,
            "depth": self.depth,
            "classification": self.classification.to_json(),
            "multiplicity": (None if self.i0 == math.inf else self.i0),
            "galois_multiplicity": self.galois_multiplicity,
            "final": self.final,
            "children": list(self.children),
            "divisor_axes": {str(k): v for k, v in sorted(self.axes.items())},
        }
        if self.point is not None:
            out["point"] = self.point.describe()
        if self.expanded:
            out["blown_up"] = True
            out["order"] = self.order
            out["dicritical"] = self.dicritical
        if self.tower.depth:
            out["tower"] = self.tower.describe()
        return out


class ResolutionTree:
    def __init__(self):
        self.nodes: List[ResolutionNode] = []
        self.components: List[dict] = []
        self.blowup_count = 0

    def node(self, node_id: int) -> ResolutionNode:
        return self.nodes[node_id]

    @property
    def root(self) -> ResolutionNode:
        return self.nodes[0]

    def leaves(self) -> List[ResolutionNode]:
        return [n for n in self.nodes if not n.children]

    def all_final(self) -> bool:
        # an expanded leaf is a dicritical blow-up with no singular points on
        # the new divisor: nothing left to resolve there
        return all(n.final or n.expanded for n in self.leaves())

    def ledger_rows(self) -> List[dict]:
        rows = []
        for n in self.nodes:
            if not n.expanded:
                continue
            k = n.order
            constant = k * k + k - 1 if n.dicritical else k * k - k - 1
            kids = [(c, self.node(c).galois_multiplicity, self.node(c).i0)
                    for c in n.children]
            total = constant + sum(d * i for _, d, i in kids)
            rows.append({
                "node": n.id,
                "order": k,
                "dicritical": n.dicritical,
                "multiplicity": n.i0,
                "constant": constant,
                "children": [{"node": c, "galois_multiplicity": d,
                              "multiplicity": i} for c, d, i in kids],
                "balanced": total == n.i0,
            })
        return rows

    def to_json(self):
        return {
            "nodes": [n.to_json() for n in self.nodes],
            "divisor_components": [dict(c) for c in self.components],
            "blowups": self.blowup_count,
            "ledger": self.ledger_rows(),
            "final": self.all_final(),
        }

    def to_dot(self) -> str:
        lines = ["digraph resolution {", "  rankdir=TB;",
                 "  node [shape=box, fontname=\"monospace\"];"]
        for n in self.nodes:
            tag = n.classification.tag
            extra = ""
            if n.classification.resonant_n is not None:
                extra = f" n={n.classification.resonant_n}"
            elif n.classification.siegel_pair is not None:
                m, nn = n.classification.siegel_pair
                extra = f" {m}:{nn}"
            mult = "inf" if n.i0 == math.inf else n.i0
            shape = ", style=filled, fillcolor=lightgray" if n.final else ""
            lines.append(
                f'  n{n.id} [label="#{n.id} {tag}{extra}\\nI0={mult}'
                + (f" galois={n.galois_multiplicity}" if n.galois_multiplicity > 1 else "")
                + f'"{shape}];')
        for n in self.nodes:
            for c in n.children:
                child = self.node(c)
                label = "inf" if child.point is not None and child.point.at_infinity else "t0"
                lines.append(f'  n{n.id} -> n{c} [label="{label}"];')
        for comp in self.components:
            lines.append(
                f'  e{comp["id"]} [label="E{comp["id"]} ({comp["self_intersection"]})",'
                ' shape=ellipse, style=dashed];')
            lines.append(f'  n{comp["born_at"]} -> e{comp["id"]} [style=dotted];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _node_invariants(form: OneFormGerm, curve: str):
    """(I0, classification) of a node, both read off one dual field; a
    non-isolated singularity raises with ``curve`` as its message."""
    field = dualize(form)
    i0 = intersection_number(field.components[0], field.components[1])
    if i0 == math.inf:
        raise NonIsolatedSingularity(curve)
    return i0, classify_singularity(field)


def resolve(obj, max_blowups: int = DEFAULT_MAX_BLOWUPS) -> ResolutionTree:
    """Resolve the singularity of a planar field or 1-form at the origin."""
    if isinstance(obj, VectorFieldGerm):
        form = dualize(obj)
    elif isinstance(obj, OneFormGerm):
        form = obj
    elif isinstance(obj, MultiPoly) and obj.is_zero():
        raise ZeroInput("identically zero germ")
    else:
        raise WrongClass("expected a planar vector field or 1-form")
    if form.is_zero():
        raise ZeroInput("identically zero germ")
    tower = coefficient_tower(form.a, form.b) or TRIVIAL
    tree = ResolutionTree()
    i0, cls = _node_invariants(
        form, "the germ vanishes on a curve through the origin")
    root = ResolutionNode(0, None, 0, form, tower, None, 1, cls, i0, {})
    tree.nodes.append(root)
    queue = [0]
    while queue:
        nid = queue.pop(0)
        node = tree.node(nid)
        if node.final:
            continue
        if tree.blowup_count >= max_blowups:
            raise BlowupBudgetExceeded(
                f"resolution exceeded {max_blowups} blow-ups")
        tree.blowup_count += 1
        node.expanded = True
        children, forms, metas = divisor_children(node.form, node.tower)
        node.order = metas[0].order
        node.dicritical = metas[0].dicritical
        # divisor bookkeeping: components through the center lose 1 from
        # their self-intersection; the new component starts at -1
        for comp_id in set(node.axes.values()):
            tree.components[comp_id]["self_intersection"] -= 1
        new_comp = {"id": len(tree.components), "self_intersection": -1,
                    "born_at": node.id}
        tree.components.append(new_comp)
        for child in children:
            local_form, child_tower, _gen = child_local_form(forms, child)
            ci, ccls = _node_invariants(
                local_form,
                "transformed germ vanishes on a curve through a center")
            axes: Dict[int, int] = {}
            if child.at_infinity:
                axes[1] = new_comp["id"]
                if 0 in node.axes:
                    axes[0] = node.axes[0]
            else:
                axes[0] = new_comp["id"]
                at_zero = child.minpoly is None and child.coordinate.is_zero()
                if at_zero and 1 in node.axes:
                    axes[1] = node.axes[1]
            cnode = ResolutionNode(len(tree.nodes), node.id, node.depth + 1,
                                   local_form, child_tower, child,
                                   child.galois_multiplicity, ccls, ci, axes)
            tree.nodes.append(cnode)
            node.children.append(cnode.id)
            queue.append(cnode.id)
    return tree


def verify_ledger(tree: ResolutionTree) -> Tuple[List[dict], bool]:
    """Ledger rows plus a global balance flag."""
    rows = tree.ledger_rows()
    return rows, all(r["balanced"] for r in rows)
