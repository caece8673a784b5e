import random
import re

import pytest

from exldl.fields import InvalidDecomposition, ParseError
from exldl.sparse import SparseSym, sparse_ldl
from exldl.treedec import (
    TreeDecomposition,
    binarize,
    greedy_td,
    merge_bags,
    normalize_td,
    post_order,
    read_td,
    validate_td,
    write_td,
    _merge_bags,
    _rho_sets,
)

from conftest import GF7


def path_pattern(n):
    return [(i, i + 1) for i in range(n - 1)]


def path_td(n):
    bags = [{i, i + 1} for i in range(n - 1)]
    edges = [(i, i + 1) for i in range(n - 2)]
    return TreeDecomposition.build(n, bags, edges)


def star_td(n):
    bags = [{0, i} for i in range(1, n)]
    edges = [(0, i) for i in range(1, n - 1)]
    return TreeDecomposition.build(n, bags, edges)


def random_partial_ktree(rng, n, k):
    """Graph of treewidth <= k together with its natural decomposition."""
    assert n > k
    bags = [frozenset(range(k + 1))]
    edges = []
    parent_choices = [list(range(k + 1))]
    graph = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    for v in range(k + 1, n):
        host = rng.randrange(len(bags))
        base = sorted(bags[host])
        sub = rng.sample(base, k)
        bags.append(frozenset(sub + [v]))
        edges.append((host, len(bags) - 1))
        for u in sub:
            if rng.random() < 0.8:
                graph.append((min(u, v), max(u, v)))
        parent_choices.append(sub + [v])
    td = TreeDecomposition.build(n, bags, edges)
    return graph, td


def test_validate_single_bag():
    td = TreeDecomposition.build(4, [set(range(4))], [])
    assert validate_td(td, [(0, 3), (1, 2)]).ok


def test_validate_path():
    td = TreeDecomposition.build(3, [{0, 1}, {1, 2}], [(0, 1)])
    assert validate_td(td, [(0, 1), (1, 2)]).ok
    rep = validate_td(td, [(0, 2)])
    assert not rep.ok
    assert rep.violations[0][0] == "edge-uncovered"


def test_validate_disconnected_vertex_bags():
    td = TreeDecomposition.build(3, [{0, 1}, {1}, {0, 2}], [(0, 1), (1, 2)])
    rep = validate_td(td, [])
    assert not rep.ok
    assert rep.violations[0][0] == "vertex-bags-disconnected"


@pytest.mark.parametrize("stray", [3, 5, -1])
def test_validate_reports_a_bag_vertex_out_of_range(stray):
    td = TreeDecomposition.build(3, [{0, 1, stray}, {1, 2}], [(0, 1)])
    assert validate_td(td, [(0, 1), (1, 2)]).violations == [("vertex-out-of-range", stray)]
    with pytest.raises(InvalidDecomposition, match=f"vertex {stray} out of range for 3 vertices"):
        _rho_sets(td)
    a = SparseSym.from_entries(GF7, 3, [(0, 1, 1), (1, 2, 1)] + [(v, v, 2) for v in range(3)])
    with pytest.raises(InvalidDecomposition, match=f"vertex-out-of-range {stray}$"):
        sparse_ldl(a, td)


def test_normalize_rejects_disconnected_vertex_bags():
    # vertex 0 is in bags 0 and 2, which bag 1 between them does not join;
    # they lie at depths 0 and 2, so no two of its bags tie for highest
    td = TreeDecomposition.build(3, [{0, 1}, {1}, {0, 2}], [(0, 1), (1, 2)])
    for run in (normalize_td, lambda td: merge_bags(td, 2)):
        with pytest.raises(InvalidDecomposition, match=re.escape("vertex 0 has 2 highest bags [0, 2]")):
            run(td)


def test_merge_path_bag_count():
    n, tau = 64, 4
    td = path_td(n)
    merged = merge_bags(td, tau)
    assert validate_td(merged, path_pattern(n)).ok
    assert merged.nbags <= (2 * n) // tau + 1
    assert merged.max_bag() <= 3 * tau


def test_merge_fixed_point():
    td = TreeDecomposition.build(6, [set(range(6))], [])
    merged = merge_bags(td, 3)
    assert merged.nbags == 1
    assert merged.bags == td.bags


def test_merge_star_sibling_pairs():
    n, tau = 17, 8
    td = star_td(n)
    merged = merge_bags(td, tau)
    assert validate_td(merged, [(0, i) for i in range(1, n)]).ok
    assert merged.max_bag() <= 3 * tau
    # sibling merges alone suffice to reach the target
    rho, _ = _rho_sets(merged)
    assert all(len(r) >= tau // 2 for b, r in enumerate(rho) if merged.nbags > 1 and b != merged.root) or merged.nbags <= 2


def test_merge_preserves_validity_random():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(8, 40)
        k = rng.randint(1, 3)
        graph, td = random_partial_ktree(rng, n, k)
        assert validate_td(td, graph).ok
        tau = td.max_bag()
        merged = merge_bags(td, tau)
        assert validate_td(merged, graph).ok
        assert merged.max_bag() <= 3 * tau
        binary = binarize(merged)
        assert validate_td(binary, graph).ok
        assert binary.nbags <= 2 * merged.nbags


def _merge_bags_reference(td, tau):
    """_merge_bags as it was: each sibling merge removes the absorbed child
    from its parent's list and rebuilds the list of live children, and each
    child-into-parent merge removes the child, so a bag with many children
    costs quadratic time."""
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
        children[dst].extend(children[src])
        alive[src] = False

    depths = td.depths()
    for u in sorted(range(len(bags)), key=lambda i: -depths[i]):
        if not alive[u]:
            continue
        kids = [c for c in children[u] if alive[c]]
        i = 0
        while i + 1 < len(kids):
            a, b = kids[i], kids[i + 1]
            if len(rho[a]) + len(rho[b]) < tau and len(bags[a] | bags[b]) <= 2 * tau:
                absorb(a, b)
                children[u].remove(b)
                kids = [c for c in children[u] if alive[c]]
            else:
                i += 1
    for u in [u for u in td.postorder_bags() if alive[u]]:
        if not alive[u] or parent[u] < 0:
            continue
        p = parent[u]
        while not alive[p]:
            p = parent[p]
        if len(rho[u]) + len(rho[p]) < tau and len(bags[u] | bags[p]) <= 3 * tau:
            absorb(p, u)
            children[p].remove(u)
    keep = [i for i in range(len(bags)) if alive[i]]
    remap = {old: new for new, old in enumerate(keep)}
    new_parent = [remap[parent[i]] if parent[i] >= 0 else -1 for i in keep]
    new_children = [[remap[c] for c in children[i] if alive[c]] for i in keep]
    merged = TreeDecomposition(td.n, [frozenset(bags[i]) for i in keep], new_parent,
                               new_children, remap[td.root])
    return merged, [rho[i] for i in keep]


def wide_star_td(leaves):
    """A root bag {0, 1, 2} with one child {0, 1, v} per leaf vertex v."""
    bags = [{0, 1, 2}] + [{0, 1, v} for v in range(3, leaves + 3)]
    return TreeDecomposition.build(leaves + 3, bags, [(0, i) for i in range(1, leaves + 1)])


def test_merge_bags_matches_quadratic_reference():
    rng = random.Random(41)
    cases = [(wide_star_td(leaves), tau) for leaves in (1, 2, 7, 40) for tau in (1, 2, 3, 5)]
    for _ in range(120):
        n = rng.randint(2, 40)
        if rng.random() < 0.5:
            _, td = random_partial_ktree(rng, n, rng.randint(1, min(4, n - 1)))
        else:
            pattern = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15]
            td = greedy_td(n, pattern)
        cases += [(td, tau) for tau in (td.max_bag(), 2, 3, 5, 9)]
    for td, tau in cases:
        merged, rho = _merge_bags(td, tau)
        ref, ref_rho = _merge_bags_reference(td, tau)
        assert (merged.bags, merged.parent, merged.children, merged.root, rho) == (
            ref.bags, ref.parent, ref.children, ref.root, ref_rho)


def test_binarize_shapes():
    td = TreeDecomposition.build(
        5, [{0, 1}, {1, 2}, {1, 3}, {1, 4}], [(0, 1), (0, 2), (0, 3)]
    )
    b = binarize(td)
    for u in range(b.nbags):
        assert len(b.children[u]) in (0, 2)
    assert validate_td(b, [(0, 1), (1, 2), (1, 3), (1, 4)]).ok
    already = binarize(b)
    assert already.nbags == b.nbags


def strip_td(k):
    """3 x k grid, vertex (r, c) -> 3 * c + r, with sliding-window bags."""
    bags = [set(range(v, v + 4)) for v in range(3 * k - 3)]
    return TreeDecomposition.build(3 * k, bags, [(i, i + 1) for i in range(len(bags) - 1)])


def test_binarize_keeps_one_child_bags():
    td = path_td(6)
    b = binarize(td)
    assert b.nbags == td.nbags
    assert b.children == td.children


@pytest.mark.parametrize("td", [path_td(40), strip_td(30)], ids=["path", "strip"])
def test_normalize_adds_no_bags_without_branching(td):
    assert normalize_td(td).td.nbags == merge_bags(td, td.max_bag()).nbags


def test_post_order_one_child_shared_first():
    # the root keeps 2 and 3 in common with its only child
    td = TreeDecomposition.build(5, [{0, 1, 2, 3}, {2, 3, 4}], [(0, 1)])
    rho, _ = _rho_sets(td)
    assert list(post_order(td, rho).fwd) == [4, 2, 3, 0, 1]


def test_post_order_partition():
    rng = random.Random(9)
    graph, td = random_partial_ktree(rng, 30, 2)
    ntd = normalize_td(td)
    order = ntd.order
    assert sorted(order.fwd) == list(range(30))
    # descendants of a vertex's root bag come earlier
    pos = order.inv
    depths = ntd.td.depths()
    _, root_bag = _rho_sets(ntd.td)
    for u in range(30):
        for v in range(30):
            bu, bv = root_bag[u], root_bag[v]
            if bu == bv:
                continue
            # if bu is a proper ancestor of bv, v comes first
            anc = bv
            while anc >= 0 and anc != bu:
                anc = ntd.td.parent[anc]
            if anc == bu:
                assert pos[v] < pos[u]


def test_post_order_class_order():
    # three-bag decomposition: root with two children
    bags = [{0, 1, 2, 3}, {0, 1, 4}, {2, 3, 5}]
    td = TreeDecomposition.build(6, bags, [(0, 1), (0, 2)])
    rho, _ = _rho_sets(td)
    order = post_order(td, rho)
    emitted = list(order.fwd)
    # children's exclusive vertices first, then the root's classes:
    # in-first-child (0,1), in-second-child (2,3), in neither ()
    assert emitted[0:2] == [4, 5]
    assert emitted[2:] == [0, 1, 2, 3]


def test_single_bag_order():
    td = TreeDecomposition.build(4, [set(range(4))], [])
    ntd = normalize_td(td)
    assert list(ntd.order.fwd) == [0, 1, 2, 3]


def test_read_td_roundtrip(tmp_path):
    p = tmp_path / "t.td"
    p.write_text("c comment\ns td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    td = read_td(p)
    assert td.nbags == 2
    assert td.bags[0] == frozenset({0, 1})
    assert td.bags[1] == frozenset({1, 2})
    out = tmp_path / "o.td"
    write_td(out, td)
    td2 = read_td(out)
    assert td2.bags == td.bags


@pytest.mark.parametrize(
    "bags, edges, root, match",
    [
        ([{0}, {1}, {2}], [(0, 1), (1, 2), (2, 0)], 0, "3 edges for 3 bags"),  # a cycle
        ([{0}, {1}, {2}], [(0, 1), (1, 2), (1, 2)], 0, "3 edges for 3 bags"),  # a repeated edge
        ([{0}, {1}], [(0, 1), (1, 1)], 0, "2 edges for 2 bags"),  # a self-loop
        ([{0}, {1}], [(0, -1)], 0, re.escape("edge (0, -1) outside bag ids 0..1")),
        ([{0}, {1}], [(0, 2)], 0, re.escape("edge (0, 2) outside bag ids 0..1")),
        ([{0}, {1}], [(0, 1)], 2, "root 2 outside bag ids 0..1"),
        ([{0}, {1}], [(0, 1)], -1, "root -1 outside bag ids 0..1"),
        ([], [], 0, "at least one bag"),
    ],
)
def test_build_rejects_edges_that_are_not_a_tree(bags, edges, root, match):
    with pytest.raises(ParseError, match=match):
        TreeDecomposition.build(2, bags, edges, root)


def test_read_td_errors(tmp_path):
    p = tmp_path / "bad.td"
    p.write_text("s td 2 2 3\nb 1 1 9\n")
    with pytest.raises(ParseError):
        read_td(p)
    p.write_text("b 1 1 2\n")
    with pytest.raises(ParseError):
        read_td(p)
    p.write_text("s td 2 2 3\nb\nb 2 2 3\n1 2\n")
    with pytest.raises(ParseError, match="bad bag line"):
        read_td(p)
    p.write_text("s td 2 2 3\nb 1 1 2\nb 1 2 3\n1 2\n")
    with pytest.raises(ParseError, match="bag 1 given twice"):
        read_td(p)
    p.write_text("s td 2 2 3\nb 1 1 2\ns td 2 2 3\nb 2 2 3\n1 2\n")
    with pytest.raises(ParseError, match="line 3: second 's td' header"):
        read_td(p)


@pytest.mark.parametrize(
    "text, message",
    [
        ("s tree 2 2 3\n", "line 1: bad header"),
        ("s td 2 2\n", "line 1: bad header"),
        ("s td two 2 3\n", "line 1: bad header numbers"),
        ("s td 2 2 3\nb 3 1 2\n", "line 2: bag id 3 out of range"),
        ("s td 2 2 3\nb 0 1 2\n", "line 2: bag id 0 out of range"),
        ("c comment\n1 2\ns td 2 2 3\n", "line 2: edge before header"),
        ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1\n", "line 4: bad edge line"),
        ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 x\n", "line 4: bad edge line"),
        ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 3\n", "line 4: edge id out of range"),
        ("c only a comment\n", "missing 's td' header"),
        ("s td 3 2 3\nb 1 1 2\nb 2 2 3\nb 3 3\n1 2\n", "expected 2 tree edges, found 1"),
        ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n2 1\n", "expected 1 tree edges, found 2"),
    ],
)
def test_read_td_names_each_malformed_line(tmp_path, text, message):
    p = tmp_path / "bad.td"
    p.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_td(p)
    assert str(exc.value) == message


def test_greedy_td_path():
    n = 12
    td = greedy_td(n, path_pattern(n))
    assert validate_td(td, path_pattern(n)).ok
    assert td.max_bag() <= 2


@pytest.mark.parametrize("edge", [(0, 3), (3, 0), (0, -1), (-1, 2), (3, 3)])
def test_greedy_td_rejects_an_edge_out_of_range(edge):
    with pytest.raises(IndexError, match=re.escape(f"edge {edge} out of range for 3 vertices")):
        greedy_td(3, [(0, 1), edge])


def test_greedy_td_always_valid():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 30)
        edges = set()
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        td = greedy_td(n, sorted(edges))
        rep = validate_td(td, sorted(edges))
        assert rep.ok, rep.violations



def _greedy_td_reference(n, pattern):
    """greedy_td as it was: a min over every live vertex per step, O(n^2)."""
    adj = [set() for _ in range(n)]
    for u, v in pattern:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    alive = set(range(n))
    pos = {}
    bags = []
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        nbrs = adj[v] & alive
        pos[v] = len(bags)
        bags.append(frozenset({v} | nbrs))
        for a in nbrs:
            adj[a] |= nbrs - {a}
        alive.remove(v)
    edges = []
    for v, bid in pos.items():
        later = [u for u in bags[bid] if pos[u] > pos[v]]
        if later:
            edges.append((bid, pos[min(later, key=pos.__getitem__)]))
    dsu = list(range(len(bags)))

    def find(x):
        while dsu[x] != x:
            x = dsu[x]
        return x

    for u, v in edges:
        dsu[find(u)] = find(v)
    roots = sorted({find(i) for i in range(len(bags))})
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
        dsu[find(a)] = find(b)
    return TreeDecomposition.build(n, bags or [frozenset()], edges, root=0)


def test_greedy_td_matches_quadratic_reference():
    rng = random.Random(29)
    cases = [
        (0, []),
        (1, []),
        (5, []),  # isolated vertices only
        (6, [(i, j) for i in range(6) for j in range(i + 1, 6)]),  # a clique
        (8, [(i, (i + 1) % 8) for i in range(8)]),  # a cycle: every degree ties
        (9, [(0, 1), (1, 2), (2, 0), (4, 5), (7, 8), (3, 3)]),  # components, a loop
    ]
    for _ in range(150):
        n = rng.randint(0, 45)
        density = rng.choice([0.0, 0.05, 0.15, 0.4, 0.9])
        pattern = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        if n > 3 and rng.random() < 0.3:  # a dense clique among sparser vertices
            clique = rng.sample(range(n), rng.randint(2, min(n, 8)))
            pattern += [(v, u) for u in clique for v in clique if u < v]
        rng.shuffle(pattern)
        cases.append((n, pattern))
    for n, pattern in cases:
        td = greedy_td(n, pattern)
        ref = _greedy_td_reference(n, pattern)
        assert (td.bags, td.parent, td.children) == (ref.bags, ref.parent, ref.children)
        assert validate_td(td, pattern).ok


def _validate_td_reference(td, pattern):
    """validate_td as it was: every bag scanned for each vertex and each
    edge, O(n * bags)."""
    violations = []
    covered = set()
    for b in td.bags:
        covered |= b
    for v in range(td.n):
        if v not in covered:
            violations.append(("vertex-uncovered", v))
            break
    for v in range(td.n):
        holding = [i for i, b in enumerate(td.bags) if v in b]
        if not holding:
            continue
        hold = set(holding)
        seen = {holding[0]}
        stack = [holding[0]]
        while stack:
            u = stack.pop()
            for w in td.children[u] + [td.parent[u]]:
                if w >= 0 and w in hold and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != hold:
            violations.append(("vertex-bags-disconnected", v, sorted(hold - seen)))
            break
    for u, v in pattern:
        if u == v:
            continue
        if not any(u in b and v in b for b in td.bags):
            violations.append(("edge-uncovered", (u, v)))
            break
    return not violations, violations


def _broken_decompositions(rng, n, graph, td):
    """The decomposition with one vertex left out, one vertex added to a bag
    away from its own, and the pattern with an edge no bag covers."""
    bags = [set(b) for b in td.bags]
    edges = [(i, p) for i, p in enumerate(td.parent) if p >= 0]
    v = rng.randrange(n)
    yield TreeDecomposition.build(n, [b - {v} for b in bags], edges, td.root), graph
    far = [i for i, b in enumerate(bags) if v not in b]
    if far:
        extra = [set(b) for b in bags]
        extra[rng.choice(far)].add(v)
        yield TreeDecomposition.build(n, extra, edges, td.root), graph
    u, w = rng.sample(range(n), 2)
    yield td, graph + [(u, w), (w, u)]
    yield td, graph + [(v, n + 3)]


def test_validate_td_matches_quadratic_reference():
    rng = random.Random(37)
    cases = [
        (TreeDecomposition.build(0, [frozenset()], []), []),
        (TreeDecomposition.build(3, [{0, 1}, {1}, {0, 2}], [(0, 1), (1, 2)]), [(0, 2)]),
        (TreeDecomposition.build(5, [{0, 1}, {1, 2}], [(0, 1)]), [(3, 3), (4, 0)]),
        (path_td(12), path_pattern(12)),
        (star_td(9), [(0, i) for i in range(1, 9)]),
    ]
    for _ in range(60):
        n = rng.randint(4, 40)
        graph, td = random_partial_ktree(rng, n, rng.randint(1, 3))
        cases.append((td, graph))
        cases.extend(_broken_decompositions(rng, n, graph, td))
        pattern = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.1]
        gtd = greedy_td(n, pattern)
        cases.append((gtd, pattern))
        cases.extend(_broken_decompositions(rng, n, pattern, gtd))
    kinds = set()
    for td, pattern in cases:
        rep = validate_td(td, pattern)
        assert (rep.ok, rep.violations) == _validate_td_reference(td, pattern)
        kinds.update(v[0] for v in rep.violations)
    assert kinds == {"vertex-uncovered", "vertex-bags-disconnected", "edge-uncovered"}


def test_validate_td_edge_check_with_a_vertex_in_many_bags():
    # Vertex 0 is in every bag of a path of bags {0, i, i + 1}; every edge
    # of the fan and the path is covered except (2, 9), which the report
    # names, and not the uncovered (3, 7) after it.
    n = 40
    td = TreeDecomposition.build(n, [{0, i, i + 1} for i in range(1, n - 1)],
                                 [(i, i + 1) for i in range(n - 3)])
    fan = [(0, i) for i in range(1, n)] + [(i, 0) for i in range(1, n)]
    pattern = fan + path_pattern(n) + [(2, 9), (3, 7), (5, 6)]
    assert validate_td(td, fan + path_pattern(n)).ok
    rep = validate_td(td, pattern)
    assert not rep.ok
    assert rep.violations == [("edge-uncovered", (2, 9))]
    assert (rep.ok, rep.violations) == _validate_td_reference(td, pattern)
