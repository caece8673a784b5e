"""Tree decompositions: validation, bag merging, binarization, post-ordering.

A decomposition stores bags (vertex sets over 0..n-1) and a rooted tree
over bag ids.  A vertex's top bags hold it under a parent that does not
(the root's parent holds nothing); its bags are connected exactly when
it has one, which is then its highest bag (`_tops`).  Normalization
re-roots at bag 0, merges bags until the per-bag eliminated-vertex sets
(the vertices whose top bag it is) reach the target size, gives every
bag at most two children by a left comb of copy bags under each bag
with more, and derives the elimination post-ordering: a DFS post-order
over bags emitting each bag's eliminated set, with the intra-bag order
following the four membership classes against the two children (a
missing child counts as an empty bag).

File format (PACE 2017 style): header "s td <bags> <width+1> <n>",
bag lines "b <id> <v...>", one "<id> <id>" line per tree edge,
comment lines starting with "c"; ids are 1-based.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .dense import Permutation
from .fields import InvalidDecomposition, ParseError


@dataclass
class TreeDecomposition:
    n: int
    bags: list  # list of frozenset of vertex ids
    parent: list  # parent bag id, -1 for the root
    children: list  # list of child-id lists
    root: int = 0

    @classmethod
    def build(cls, n, bags, edges, root=0):
        """From undirected tree edges over bag ids; re-roots at `root`.
        `ParseError` unless the edges form a tree on k >= 1 bags (ids in 0..k-1)."""
        bags = [frozenset(b) for b in bags]
        edges = list(edges)
        k = len(bags)
        if not k:
            raise ParseError("a tree decomposition needs at least one bag")
        if not 0 <= root < k:
            raise ParseError(f"root {root} outside bag ids 0..{k - 1}")
        if len(edges) != k - 1:
            raise ParseError(f"{len(edges)} edges for {k} bags; a tree has {k - 1}")
        adj = [[] for _ in range(k)]
        for u, v in edges:
            if not (0 <= u < k and 0 <= v < k):
                raise ParseError(f"edge ({u}, {v}) outside bag ids 0..{k - 1}")
            adj[u].append(v)
            adj[v].append(u)
        parent = [-1] * k
        children = [[] for _ in range(k)]
        seen = [False] * k
        stack = [root]
        seen[root] = True
        while stack:
            u = stack.pop()
            for v in sorted(adj[u]):
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    children[u].append(v)
                    stack.append(v)
        if not all(seen):
            raise ParseError("bag tree is not connected")
        return cls(n, bags, parent, children, root)

    @property
    def nbags(self) -> int:
        return len(self.bags)

    def max_bag(self) -> int:
        return max((len(b) for b in self.bags), default=0)

    def depths(self):
        d = [0] * self.nbags
        stack = [self.root]
        while stack:
            u = stack.pop()
            for v in self.children[u]:
                d[v] = d[u] + 1
                stack.append(v)
        return d

    def postorder_bags(self):
        out = []
        stack = [(self.root, False)]
        while stack:
            u, done = stack.pop()
            if done:
                out.append(u)
            else:
                stack.append((u, True))
                for v in reversed(self.children[u]):
                    stack.append((v, False))
        return out


@dataclass
class TDReport:
    ok: bool
    violations: list = field(default_factory=list)


def _tops(td: TreeDecomposition):
    """For each vertex, the ids of the bags that hold it, ascending, and of
    its top bags, in one pass over the bags.  Raises `InvalidDecomposition`
    for a vertex outside 0..n-1."""
    n = td.n
    holding = [[] for _ in range(n)]
    tops = [[] for _ in range(n)]
    for i, b in enumerate(td.bags):
        above = td.bags[td.parent[i]] if td.parent[i] >= 0 else ()
        for v in b:
            if not 0 <= v < n:
                raise InvalidDecomposition(f"vertex {v} out of range for {n} vertices")
            holding[v].append(i)
            if v not in above:
                tops[v].append(i)
    return holding, tops


def validate_td(td: TreeDecomposition, pattern) -> TDReport:
    """Check the three decomposition properties against a sparsity pattern.

    `pattern` is an iterable of (u, v) off-diagonal nonzero positions.
    Returns a structured report; never raises.  A bag vertex outside
    0..n-1 is reported alone.  The other checks read `_tops`: a vertex's
    bags are disconnected when it has two top bags, and only then a walk
    from its first bag, up to that bag's top and down through the children
    that hold it, names the bags it misses.
    """
    stray = next((v for b in td.bags for v in b if not 0 <= v < td.n), None)
    if stray is not None:
        return TDReport(False, [("vertex-out-of-range", stray)])
    holding, tops = _tops(td)
    uncovered = [v for v in range(td.n) if not holding[v]]
    violations = [("vertex-uncovered", uncovered[0])] if uncovered else []
    for v in range(td.n):
        if len(tops[v]) > 1:
            top = holding[v][0]
            while td.parent[top] >= 0 and v in td.bags[td.parent[top]]:
                top = td.parent[top]
            seen = {top}
            stack = [top]
            while stack:
                for c in td.children[stack.pop()]:
                    if v in td.bags[c]:
                        seen.add(c)
                        stack.append(c)
            violations.append(("vertex-bags-disconnected", v, [i for i in holding[v] if i not in seen]))
            break
    # an edge is covered when the bag sets of its ends intersect
    bag_sets = {v: set(ids) for v, ids in enumerate(holding)}
    for u, v in pattern:
        if u == v:
            continue
        if bag_sets.get(u, set()).isdisjoint(bag_sets.get(v, ())):
            violations.append(("edge-uncovered", (u, v)))
            break
    return TDReport(not violations, violations)


def _rho_sets(td: TreeDecomposition):
    """Per-bag sets of the vertices whose top bag it is, and each vertex's
    top bag; `InvalidDecomposition` unless every vertex has exactly one."""
    _, tops = _tops(td)
    rho = [set() for _ in range(td.nbags)]
    for v, t in enumerate(tops):
        if not t:
            raise InvalidDecomposition(f"vertex {v} appears in no bag")
        if len(t) > 1:
            raise InvalidDecomposition(f"vertex {v} has {len(t)} highest bags {t}")
        rho[t[0]].add(v)
    return rho, [t[0] for t in tops]


def merge_bags(td: TreeDecomposition, tau: int) -> TreeDecomposition:
    """Merge bags bottom-up until eliminated-set sizes reach the target.

    Step 1 roots the tree (bag 0); step 2 merges sibling pairs while the
    combined eliminated-set size stays below tau (bag growth capped at
    2*tau); step 3 merges children into parents under the same threshold
    (growth capped at 3*tau).
    """
    return _merge_bags(td, tau)[0]


def _merge_bags(td: TreeDecomposition, tau: int):
    """merge_bags, with the eliminated-vertex sets of the merged bags (those
    of `_rho_sets`, kept up to date through the merges)."""
    bags = [set(b) for b in td.bags]
    parent = list(td.parent)
    children = [list(c) for c in td.children]
    rho, _ = _rho_sets(td)
    alive = [True] * len(bags)

    def absorb(dst, src):
        bags[dst] |= bags[src]
        rho[dst] |= rho[src]
        for c in children[src]:
            parent[c] = dst
        children[dst].extend(c for c in children[src] if alive[c])
        alive[src] = False

    # step 2: sibling merges, children before parents, left to right: each
    # child joins the last one kept when the rule holds
    order = td.postorder_bags()
    for u in order:
        kept = children[u][:1]
        for b in children[u][1:]:
            a = kept[-1]
            if len(rho[a]) + len(rho[b]) < tau and len(bags[a] | bags[b]) <= 2 * tau:
                absorb(a, b)
            else:
                kept.append(b)
        children[u] = kept
    # step 3: child-into-parent merges, post-order scan; an absorbed child
    # stays in its parent's list, dead
    for u in order:
        if not alive[u] or parent[u] < 0:
            continue
        p = parent[u]  # alive: absorb re-parents a dead bag's children
        if len(rho[u]) + len(rho[p]) < tau and len(bags[u] | bags[p]) <= 3 * tau:
            absorb(p, u)

    keep = [i for i in range(len(bags)) if alive[i]]
    remap = {old: new for new, old in enumerate(keep)}
    new_bags = [frozenset(bags[i]) for i in keep]
    new_parent = [remap[parent[i]] if parent[i] >= 0 else -1 for i in keep]
    new_children = [[remap[c] for c in children[i] if alive[c]] for i in keep]
    merged = TreeDecomposition(td.n, new_bags, new_parent, new_children, remap[td.root])
    return merged, [rho[i] for i in keep]


def binarize(td: TreeDecomposition) -> TreeDecomposition:
    """Give every bag at most two children: a bag with more keeps its
    first child and hangs the others off a left comb of copy bags."""
    bags = [frozenset(b) for b in td.bags]
    parent = list(td.parent)
    children = [list(c) for c in td.children]

    def new_bag(content, par):
        bags.append(frozenset(content))
        parent.append(par)
        children.append([])
        return len(bags) - 1

    stack = [td.root]
    while stack:
        u = stack.pop()
        kids = children[u]
        if len(kids) > 2:
            cur = new_bag(bags[u], u)
            children[u] = [kids[0], cur]
            for c in kids[1:-2]:
                nxt = new_bag(bags[u], cur)
                children[cur] = [c, nxt]
                parent[c] = cur
                cur = nxt
            children[cur] = kids[-2:]
            for c in kids[-2:]:
                parent[c] = cur
        stack.extend(children[u])
    return TreeDecomposition(td.n, bags, parent, children, td.root)


@dataclass
class NormalizedTD:
    td: TreeDecomposition  # at most two children per bag
    order: Permutation  # position -> original vertex id
    tau: int  # merge target (input max bag size unless overridden)

    @property
    def n(self) -> int:
        return self.td.n


# membership (in the first child, in the second) -> rank inside a bag
_CLASS = {(True, False): 0, (True, True): 1, (False, True): 2, (False, False): 3}


def post_order(td: TreeDecomposition, rho) -> Permutation:
    """Elimination order: DFS post-order over bags emitting each bag's
    eliminated set, ordered by membership in its children (only the
    first, both, only the second, neither; a missing child is an empty
    bag), ties by vertex index."""
    out = []
    empty = frozenset()
    for u in td.postorder_bags():
        y, z = ([td.bags[c] for c in td.children[u]] + [empty, empty])[:2]
        out.extend(sorted(rho[u], key=lambda v: (_CLASS[v in y, v in z], v)))
    return Permutation(out)


def normalize_td(td: TreeDecomposition, tau: int | None = None) -> NormalizedTD:
    """Root at bag 0, merge, binarize, and derive the post-ordering."""
    if tau is None:
        tau = td.max_bag()
    merged, rho = _merge_bags(td, tau)
    binary = binarize(merged)
    # the copy bags binarize appends hold their parent's vertices: they
    # eliminate none
    rho += [set() for _ in range(binary.nbags - merged.nbags)]
    return NormalizedTD(binary, post_order(binary, rho), tau)


# -- PACE 2017 I/O ------------------------------------------------------------


def read_td(path) -> TreeDecomposition:
    bags = None
    edges = []
    nbags = n = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "s":
                if bags is not None:
                    raise ParseError(f"line {lineno}: second 's td' header")
                if len(parts) != 5 or parts[1] != "td":
                    raise ParseError(f"line {lineno}: bad header")
                try:
                    nbags, _, n = int(parts[2]), int(parts[3]), int(parts[4])
                except ValueError:
                    raise ParseError(f"line {lineno}: bad header numbers") from None
                if nbags < 1:
                    raise ParseError(f"line {lineno}: a decomposition needs a bag")
                bags = [None] * nbags
            elif parts[0] == "b":
                if bags is None:
                    raise ParseError(f"line {lineno}: bag before header")
                try:
                    bid = int(parts[1])
                    vs = [int(v) for v in parts[2:]]
                except (ValueError, IndexError):
                    raise ParseError(f"line {lineno}: bad bag line") from None
                if not 1 <= bid <= nbags:
                    raise ParseError(f"line {lineno}: bag id {bid} out of range")
                if bags[bid - 1] is not None:
                    raise ParseError(f"line {lineno}: bag {bid} given twice")
                if any(not 1 <= v <= n for v in vs):
                    raise ParseError(f"line {lineno}: vertex out of range")
                bags[bid - 1] = frozenset(v - 1 for v in vs)
            else:
                if bags is None:
                    raise ParseError(f"line {lineno}: edge before header")
                try:
                    u, v = int(parts[0]), int(parts[1])
                except (ValueError, IndexError):
                    raise ParseError(f"line {lineno}: bad edge line") from None
                if not (1 <= u <= nbags and 1 <= v <= nbags):
                    raise ParseError(f"line {lineno}: edge id out of range")
                edges.append((u - 1, v - 1))
    if bags is None:
        raise ParseError("missing 's td' header")
    if len(edges) != nbags - 1:
        raise ParseError(f"expected {nbags - 1} tree edges, found {len(edges)}")
    return TreeDecomposition.build(n, [b or frozenset() for b in bags], edges, root=0)


def write_td(path, td: TreeDecomposition):
    with open(path, "w") as fh:
        fh.write(f"s td {td.nbags} {td.max_bag()} {td.n}\n")
        for i, b in enumerate(td.bags):
            fh.write("b " + " ".join([str(i + 1)] + [str(v + 1) for v in sorted(b)]) + "\n")
        for i, p in enumerate(td.parent):
            if p >= 0:
                fh.write(f"{p + 1} {i + 1}\n")


def greedy_td(n: int, pattern) -> TreeDecomposition:
    """Valid (not necessarily optimal) decomposition by min-degree elimination.

    Eliminating a vertex creates a bag of it and its current neighbors,
    turned into a clique; each bag hangs off the bag of the earliest
    eliminated vertex among those neighbors.  The next vertex is the one
    of least degree, lowest index first, found in a heap of (degree,
    vertex) entries: adjacency is kept over live vertices only, the
    neighbors of each eliminated vertex are pushed again with their new
    degree, and entries that no longer match are skipped.  A vertex with
    no neighbor left makes a bag of its own, a root of the forest; these
    roots are chained in bag order.
    """
    adj = [set() for _ in range(n)]
    for u, v in pattern:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    heap = [(len(nb), v) for v, nb in enumerate(adj)]
    heapq.heapify(heap)
    alive = [True] * n
    bag_of = {}
    bags = []
    edges = []
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != len(adj[v]):
            continue
        alive[v] = False
        nbrs = adj[v]
        bag_of[v] = len(bags)
        bags.append(frozenset(nbrs | {v}))
        for a in nbrs:
            na = adj[a]
            na.discard(v)
            na |= nbrs
            na.discard(a)
            heapq.heappush(heap, (len(na), a))
    # connect each bag to the bag of its first-eliminated neighbor; every
    # neighbor in a bag is eliminated after the bag's own vertex
    for v, bid in bag_of.items():
        nbrs = [u for u in bags[bid] if u != v]
        if nbrs:
            u = min(nbrs, key=bag_of.__getitem__)
            edges.append((bid, bag_of[u]))
    # no cross edges exist, so chaining the roots keeps all properties
    roots = [i for i, b in enumerate(bags) if len(b) == 1]
    edges += zip(roots, roots[1:])
    if not bags:
        bags = [frozenset()]
    return TreeDecomposition.build(n, bags, edges, root=0)
