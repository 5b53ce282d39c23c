from __future__ import annotations

import random
import tracemalloc
from itertools import product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from networkx import DiGraph, Graph
from networkx.algorithms.isomorphism import DiGraphMatcher, GraphMatcher

import netdesign as nd
from netdesign.automorph import GroupSizeLimitError, cycle_notation
from netdesign.lnem import _design_batch

from helpers import (burnside_orbit_count, cycle_network,
                     frozen_find_automorphisms, oracle_orbit_minima)


def test_path_group(path312):
    group = nd.find_automorphisms(path312)
    assert group.elements == ((0, 1, 2), (0, 2, 1))


def test_single_node_trivial_group():
    net = nd.parse_edge_list("", 1)
    assert nd.find_automorphisms(net).size == 1


def test_example_group_sizes(examples, groups):
    expected = {1: 8, 2: 1, 3: 8, 4: 384, 5: 2, 6: 6}
    for k, z in expected.items():
        assert groups[k].size == z, f"example {k}"


@pytest.mark.parametrize("sizes,expected", [
    ([2, 2], (2 ** 2) * 2),
    ([3, 2], 6 * 2),         # unequal sizes: blocks not exchangeable
    ([2, 2, 2], (2 ** 3) * 6),
    ([3, 3, 3], (6 ** 3) * 6),
])
def test_block_group_size_formula(sizes, expected):
    # b equal blocks of size s give (s!)^b * b!; mixed sizes multiply the
    # per-size-class factors
    net = nd.augment_blocks(sizes, 2)
    assert nd.find_automorphisms(net).size == expected


def test_block_group_size_4_blocks_of_3():
    net = nd.augment_blocks([3, 3, 3, 3], 3)
    group = nd.find_automorphisms(net)
    assert group.size == factorial(3) ** 4 * factorial(4)
    # 5^12 <= 2^31: the walk over labels 1..3 packs int32 keys
    assert group.weights(3).dtype == np.int32


@pytest.mark.parametrize("rows,cols,expected", [
    (2, 3, factorial(2) * factorial(3)),
    (2, 2, factorial(2) ** 2 * 2),       # square admits the transpose
    (3, 3, factorial(3) ** 2 * 2),
    (4, 4, factorial(4) ** 2 * 2),
])
def test_row_column_group_sizes(rows, cols, expected):
    net = nd.augment_row_column(rows, cols, 3)
    assert nd.find_automorphisms(net).size == expected


def test_crossover_group_subjects_exchange():
    net = nd.augment_crossover(3, 3, 2, period_blocks=True)
    # carryover direction pins periods; subjects permute freely
    assert nd.find_automorphisms(net).size == factorial(3)


def test_all_distinct_degree_directed_net_is_asymmetric():
    net = nd.parse_edge_list("2->1, 3->2, 3->1", 3, directed=True)
    group = nd.find_automorphisms(net)
    assert group.elements == ((0, 1, 2),)


def test_group_axioms(examples, path312):
    nets = [path312, examples[1], examples[6], nd.augment_blocks([3, 3, 3], 3)]
    for net in nets:
        group = nd.find_automorphisms(net)
        elements = set(group.elements)
        n = net.n_total
        identity = tuple(range(n))
        assert identity in elements
        for p in elements:
            inv = tuple(sorted(range(n), key=lambda i: p[i]))
            assert inv in elements
        # exhaustive closure (z <= 10^4 here)
        perms = np.array(group.elements)
        for p in group.elements:
            composed = perms[:, list(p)]
            for row in composed:
                assert tuple(row) in elements


def test_edge_preservation_integer_exact(examples):
    for net in examples.values():
        a = net.adjacency
        for perm in nd.find_automorphisms(net):
            p = list(perm)
            assert np.array_equal(a[np.ix_(p, p)], a)


def test_role_preservation_on_augmented_networks():
    net = nd.augment_row_column(2, 3, 2)
    for perm in nd.find_automorphisms(net):
        for i, role in enumerate(net.roles):
            target = net.roles[perm[i]]
            if role is None:
                assert target is None
            else:
                assert target is not None and target.class_id == role.class_id


def test_is_canonical_path_walkthrough(path312):
    group = nd.find_automorphisms(path312)
    assert group.is_canonical((1, 1, 2))
    assert not group.is_canonical((1, 2, 1))
    canonical = [x for x in product((1, 2), repeat=3) if group.is_canonical(x)]
    assert len(canonical) == 6
    assert (1, 2, 1) not in canonical and (2, 2, 1) not in canonical


def test_is_canonical_trivial_group(examples):
    group = nd.find_automorphisms(examples[2])
    assert group.size == 1
    for x in [(1,) * 10, (2,) * 10, (1, 2) * 5]:
        assert group.is_canonical(x)


def test_is_canonical_rejects_wrong_length(path312):
    group = nd.find_automorphisms(path312)
    with pytest.raises(ValueError):
        group.is_canonical((1, 2))


@pytest.mark.parametrize("design", [(1, 1, 1, 1, 1, 2, 1, 2), (1, 2, 1)])
def test_canonical_representative_rejects_wrong_length(design):
    group = nd.find_automorphisms(nd.augment_blocks([3, 3], 2))  # 6 design nodes
    with pytest.raises(ValueError):
        group.canonical_representative(design)
    with pytest.raises(ValueError, match="does not match"):
        group.canonical_representatives([design, design])


def test_group_rejects_fractional_labels(groups):
    # (1.5, 2.5, ...) would otherwise be keyed as the truncated (1, 2, ...);
    # whole-number floats are labels
    group = groups[1]
    bad = (1.5, 2.5) * 5
    for call in (group.is_canonical, group.canonical_representative,
                 group.design_images, lambda x: group.canonical_representatives([x])):
        with pytest.raises(ValueError, match="treatments must be whole numbers"):
            call(bad)
    for x in [(1, 2) * 5, (2, 1) * 5]:
        y = tuple(map(float, x))
        assert group.is_canonical(y) == group.is_canonical(x)
        assert group.canonical_representative(y) == group.canonical_representative(x)


@pytest.mark.parametrize("net,m", [
    (nd.augment_row_column(3, 3, 3), 3),
    (nd.augment_blocks([3, 3, 3, 3], 3), 3),
])
def test_canonical_representative_matches_pure_python_orbit_min(net, m):
    group = nd.find_automorphisms(net)
    rng = np.random.default_rng(11)
    designs = [tuple(int(v) for v in row)
               for row in rng.integers(1, m + 1, size=(200, net.n_design))]
    minima = oracle_orbit_minima(group, designs)
    assert [group.canonical_representative(x) for x in designs] == minima
    # one batch, keyed d rows at a time
    assert list(map(tuple, group.canonical_representatives(designs).tolist())) \
        == minima


def python_keys(group: nd.AutomorphismGroup, designs, base: int) -> list:
    """Per design, its images' keys in element order, digits x - min(x) in
    `base`, built in pure Python from group.elements."""
    design = group.network.design_nodes
    column = {node: q for q, node in enumerate(design)}
    low = min(min(x) for x in designs)
    out = []
    for x in designs:
        row = []
        for perm in group.elements:
            image = [0] * len(design)
            for p, node in enumerate(design):
                image[column[perm[node]]] = x[p]
            key = 0
            for v in image:
                key = key * base + v - low
            row.append(key)
        out.append(row)
    return out


# (d, labels, base, dtype): a table in `base` is cached first, and the
# batch's digits 0..labels-1 read it when labels <= base, else the table of
# their top digit, `weights(labels - 1)` in base labels + 1; `dtype` is the
# dtype of the table read.  The cases sit on either side of each dtype
# edge: base^d <= 2^31 int32, <= 2^53 float64, < 2^63 int64, else Python
# integers.
@pytest.mark.parametrize("n,labels,base,dtype", [
    pytest.param(24, 6, 6, np.int64, id="24-6-6"),
    pytest.param(24, 7, 6, object, id="24-7-6"),
    pytest.param(40, 2, 2, np.float64, id="40-2-2"),
    pytest.param(40, 4, 2, object, id="40-4-2"),
    pytest.param(64, 3, 2, object, id="64-3-2"),
    pytest.param(1, 2 ** 53, 2 ** 53, np.float64, id="d1-top-below-base"),
    pytest.param(1, 2 ** 53 + 2, 2 ** 53, np.int64, id="d1-past-base"),
    pytest.param(1, 2 ** 63 - 1, 2 ** 63 - 1, np.int64, id="d1-int64-edge"),
    pytest.param(1, 2 ** 63 - 1, 2, object, id="d1-past-int64"),
    pytest.param(2, 46340, 46340, np.int32, id="d2-int32-edge"),
    pytest.param(2, 46341, 46340, np.float64, id="d2-past-int32"),
    pytest.param(2, 94906265, 94906265, np.float64, id="d2-float64-edge"),
    pytest.param(2, 94906266, 2, np.int64, id="d2-past-float64"),
    pytest.param(2, 3037000499, 3037000499, np.int64,
                 id="d2-top-below-base"),
    pytest.param(2, 3037000499, 2, object, id="d2-past-int64"),
    pytest.param(3, 208063, 208063, np.float64, id="d3-float64-edge"),
    pytest.param(3, 208064, 208063, np.int64, id="d3-past-float64"),
    pytest.param(3, 2097151, 2097151, np.int64, id="d3-top-below-base"),
    pytest.param(3, 2097152, 2097151, object, id="d3-past-int64"),
    pytest.param(16, 3, 3, np.int32, id="d16-int32-edge"),
    pytest.param(16, 9, 9, np.float64, id="d16-float64-edge"),
    pytest.param(16, 9, 3, np.int64, id="d16-past-float64"),
    pytest.param(16, 15, 15, np.int64, id="d16-top-below-base"),
    pytest.param(16, 16, 15, object, id="d16-past-base"),
])
def test_keys_stay_exact_at_and_past_the_int64_edge(n, labels, base, dtype):
    # d = 1 and 2 have no cycle: one unit in a 1x1 row-column layout (row
    # and column blocks swap), and one edge
    net = {1: nd.augment_row_column(1, 1, 2),
           2: nd.parse_edge_list("1-2", 2)}.get(n) or cycle_network(n)
    group = nd.find_automorphisms(net)
    assert group.size == (2 * n if n > 2 else 2)
    group.weights(base - 2)
    rng = np.random.default_rng(n + labels)
    designs = [tuple(int(v) for v in row)
               for row in rng.integers(1, labels, size=(60, n),
                                       endpoint=True)]
    designs += [(labels,) * n, (labels,) * (n - 1) + (1,),
                (1,) + (labels,) * (n - 1)]
    read = base if labels <= base else labels + 1
    keys = group._keys(_design_batch(designs, n))  # _keys takes checked batches
    assert keys.tolist() == python_keys(group, designs, read)
    assert sorted(group._weights) == sorted({base - 2, read - 2})
    assert group.weights(read - 2).dtype == dtype
    minima = oracle_orbit_minima(group, designs)
    assert [group.canonical_representative(x) for x in designs] == minima
    assert list(map(tuple, group.canonical_representatives(designs).tolist())) \
        == minima
    assert [group.is_canonical(x) for x in designs] == \
        [x == low for x, low in zip(designs, minima)]
    assert all(group.is_canonical(low) for low in minima)


def test_weights_are_built_on_first_use(examples):
    for net in (examples[2], examples[4]):  # z = 1 and z = 384
        group = nd.find_automorphisms(net)
        assert group._weights == {}
        w = group.weights(3)
        assert w is group.weights(3) and not w.flags.writeable
        # labels 1..3 have top digit 2: the cached base-5 table serves them
        group.is_canonical((1, 2, 3) + (1,) * (net.n_design - 3))
        group.canonical_representatives([(3,) * net.n_design])
        assert list(group._weights) == [3]
        # digits 0..5 need a base above 5: the narrowest cached table that
        # has one, else a new one for top digit 5
        group.is_canonical((0, 5) + (1,) * (net.n_design - 2))
        assert list(group._weights) == [3, 5]
        group.weights(4)
        group.is_canonical((-1, 4) + (1,) * (net.n_design - 2))
        assert list(group._weights) == [3, 5, 4]
        with pytest.raises(ValueError, match="m >= 0"):
            group.weights(-1)


def test_canonical_representative_is_orbit_min(path312, examples):
    for net in (path312, examples[1]):
        group = nd.find_automorphisms(net)
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = tuple(int(v) for v in rng.integers(1, 3, size=net.n_design))
            rep = group.canonical_representative(x)
            images = {tuple(int(v) for v in row) for row in group.design_images(x)}
            assert rep == min(images)
            assert group.is_canonical(rep)


def test_exactly_one_canonical_design_per_orbit(path312, examples):
    for net, m in [(path312, 2), (path312, 3), (examples[1], 2)]:
        group = nd.find_automorphisms(net)
        orbits = nd.count_orbits_bruteforce(net, m, group=group)
        canonical = sum(1 for x in product(range(1, m + 1), repeat=net.n_design)
                        if group.is_canonical(x))
        assert canonical == orbits


def test_orbit_counts_against_burnside(path312, examples, groups):
    # independent check: orbit partition vs cycle-index average
    cases = [(path312, nd.find_automorphisms(path312), 2),
             (path312, nd.find_automorphisms(path312), 3),
             (examples[1], groups[1], 2),
             (examples[4], groups[4], 2)]
    for net, group, m in cases:
        assert nd.count_orbits_bruteforce(net, m, group=group) == \
            burnside_orbit_count(group, m)


def test_orbit_count_published_values(path312, examples, groups):
    assert nd.count_orbits_bruteforce(path312, 2) == 6
    assert nd.count_orbits_bruteforce(examples[1], 2, group=groups[1]) == 360


def test_orbit_count_trivial_group():
    net = nd.parse_edge_list("2->1, 3->2, 3->1", 3, directed=True)
    assert nd.count_orbits_bruteforce(net, 2) == 8


def test_orbit_count_space_guard(examples):
    with pytest.raises(ValueError):
        nd.count_orbits_bruteforce(examples[3], 3)  # 3^20 way over the cap


def test_group_size_cap():
    net = nd.augment_blocks([3, 3, 3], 3)  # z = 1296
    with pytest.raises(GroupSizeLimitError, match="has 1296 elements, cap 100$"):
        nd.find_automorphisms(net, max_group_size=100)
    # the default cap rejects (4!)^4 * 4! = 7,962,624 from z alone: one
    # (z, n) int32 element array would take 637 MB
    tracemalloc.start()
    try:
        with pytest.raises(GroupSizeLimitError,
                           match="has 7962624 elements, cap 1000000$"):
            nd.find_automorphisms(nd.augment_blocks([4, 4, 4, 4], 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def test_group_build_peaks_near_its_table():
    # the chain products go straight into the table, with nothing sorted or
    # checked after; the peak is the table, the level before it and take's
    # intp copy of that level's indices, about 2x the table
    net = nd.augment_blocks([4, 4, 4], 3)  # z = 82,944
    tracemalloc.start()
    try:
        group = nd.find_automorphisms(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group._table.nbytes == 82944 * net.n_total * 4
    assert peak <= 2.5 * group._table.nbytes


def test_element_order_deterministic(examples):
    g1 = nd.find_automorphisms(examples[1])
    g2 = nd.find_automorphisms(examples[1])
    assert g1.elements == g2.elements
    assert list(g1.elements) == sorted(g1.elements)


def test_cycle_notation():
    assert cycle_notation((0, 1, 2)) == "()"
    assert cycle_notation((0, 2, 1)) == "(2 3)"
    assert cycle_notation((1, 2, 0)) == "(1 2 3)"
    assert cycle_notation((1, 0, 3, 2)) == "(1 2)(3 4)"


@pytest.mark.parametrize("net", [
    nd.augment_row_column(3, 3, 3),
    nd.augment_blocks([3, 3, 3], 3),
    nd.example_network(4),
    nd.augment_crossover(3, 3, 2, period_blocks=True),
], ids=["rc3x3", "blocks333", "ex4", "crossover3x3-period-blocks"])
def test_group_array_and_position_map(net):
    group = nd.find_automorphisms(net)
    elements = group.elements
    assert list(elements) == sorted(set(elements))
    design = net.design_nodes
    x = tuple(range(1, net.n_design + 1))
    images = group.design_images(x).tolist()
    for perm, image in zip(elements, images):
        # the design on node design[p] moves to node perm[design[p]]
        moved = dict(zip((perm[node] for node in design), x))
        assert image == [moved[node] for node in design]
    shuffled = list(elements)
    random.Random(0).shuffle(shuffled)
    rebuilt = nd.AutomorphismGroup(shuffled, net)
    assert rebuilt.elements == elements
    assert rebuilt.design_images(x).tolist() == images


def test_group_rejects_an_element_that_leaves_the_design_nodes():
    net = nd.augment_blocks([3, 3], 2)  # design nodes 0-5, block nodes 6-7
    swap = list(range(net.n_total))
    swap[0], swap[6] = 6, 0
    with pytest.raises(ValueError, match="maps a block node to a design node"):
        nd.AutomorphismGroup([tuple(range(net.n_total)), tuple(swap)], net)


def test_group_rejects_elements_without_the_identity():
    # every key test reads the identity's key as key 0
    net = nd.parse_edge_list("1-2, 1-3", 3)
    with pytest.raises(ValueError, match="do not include the identity"):
        nd.AutomorphismGroup([(0, 2, 1)], net)


_ELEMENT_NETWORKS = {
    "star": nd.parse_edge_list("1-2, 1-3", 3),
    "path": nd.parse_edge_list("1-2, 2-3", 3),
    "directed-path": nd.parse_edge_list("1->2, 2->3", 3, directed=True),
    # a design node linked to two block nodes of different classes
    "two-classes": nd.Network([[0, 1, 1], [1, 0, 0], [1, 0, 0]], False,
                              [None, nd.BlockRole(0, 3), nd.BlockRole(1, 4)]),
}


@pytest.mark.parametrize("name,elements,match", [
    ("star", [], "shape"),
    ("star", [0, 1, 2, 0, 2, 1], "shape"),  # two elements flattened into one row
    ("path", [(0, 1, 2), (0, 1)], "different shapes"),
    ("star", [(0, 1, 2), (0, 2, 1), (0, 2, 1)], "distinct permutations"),
    ("star", [(0, 1, 2), (1, 1, 2)], "distinct permutations"),
    # 2.5 would be truncated to the permutation (2, 1, 0)
    ("path", [(0, 1, 2), (2.5, 1, 0)], "whole numbers"),
    ("path", [(0, 1, 2), (2, 1, float("nan"))], "whole numbers"),
    ("path", [(0, 1, 2), (2, 1, float("inf"))], "distinct permutations"),
    ("path", [("0", "1", "2")], "whole numbers"),
    # maps edge 2-3 to 1-3
    ("path", [(0, 1, 2), (1, 0, 2)], "edges"),
    # the reversal keeps the undirected path, not the directed one
    ("directed-path", [(0, 1, 2), (2, 1, 0)], "edges"),
    # swaps two block nodes with the same links but different classes
    ("two-classes", [(0, 1, 2), (0, 2, 1)], "another class"),
], ids=["empty", "flattened", "ragged", "repeated", "not-a-permutation", "fractional",
        "nan", "infinite", "text", "not-an-automorphism", "reversed-direction",
        "block-class"])
def test_group_rejects_malformed_elements(name, elements, match):
    net = _ELEMENT_NETWORKS[name]
    with pytest.raises(ValueError, match=match):
        nd.AutomorphismGroup(elements, net)


def test_group_keeps_whole_number_automorphisms():
    # the reversal of the undirected path, given as floats, is an
    # automorphism, and the two classes' block nodes may be fixed
    path = nd.AutomorphismGroup([(2.0, 1.0, 0.0), (0, 1, 2)],
                                _ELEMENT_NETWORKS["path"])
    assert path.elements == ((0, 1, 2), (2, 1, 0))
    assert path._table.dtype == np.int32
    assert nd.AutomorphismGroup([(0, 1, 2)],
                                _ELEMENT_NETWORKS["two-classes"]).size == 1


@pytest.mark.parametrize("net", [
    *(nd.example_network(k) for k in range(1, 7)),
    nd.augment_blocks([3, 3, 3, 3], 3),
    nd.augment_blocks([2, 3, 4, 3], 3),
    nd.augment_row_column(4, 4, 4),
    nd.augment_crossover(4, 3, 2),
    # directed circulant whose 5 automorphisms need the in-neighbor test
    nd.parse_edge_list(", ".join(f"{i + 1}->{(i + s) % 5 + 1}" for i in range(5)
                                 for s in (1, 3, 4)), 5, directed=True),
], ids=[*(f"ex{k}" for k in range(1, 7)), "blocks3333", "blocks2343",
        "rc4x4", "crossover4x3", "circulant5"])
def test_chain_matches_frozen_leaf_listing(net):
    group = nd.find_automorphisms(net)
    frozen = frozen_find_automorphisms(net)
    assert group._perms.tobytes() == frozen._perms.tobytes()
    # the key table's columns follow the chain table's rows, the frozen
    # group's the sorted listing's
    listing = np.lexsort(group._table.T[::-1])
    assert group.weights(2)[:, listing].tobytes() == frozen.weights(2).tobytes()


@st.composite
def small_networks(draw) -> nd.Network:
    """Directed or undirected networks on at most 10 nodes, 0-3 of them
    block nodes in 1-2 classes, placed anywhere.  Edge sets are drawn as
    sets, which keeps them sparse enough that most groups are not trivial."""
    directed = draw(st.booleans())
    n = draw(st.integers(1, 10))
    nb = draw(st.integers(0, min(3, n - 1)))
    classes = draw(st.lists(st.integers(0, 1), min_size=nb, max_size=nb))
    roles = [None] * (n - nb) + [nd.BlockRole(c, k + 1)
                                 for k, c in enumerate(classes)]
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and (directed or i < j)]
    a = np.zeros((n, n), dtype=np.int64)
    for i, j in draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(())):
        a[i, j] = 1
        if not directed:
            a[j, i] = 1
    return nd.Network(a, directed, draw(st.permutations(roles)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_networks())
def test_chain_matches_frozen_and_networkx_on_random_networks(net):
    cap = 1000  # keeps the networkx count quick
    try:
        frozen = frozen_find_automorphisms(net, cap)
    except GroupSizeLimitError:
        with pytest.raises(GroupSizeLimitError):
            nd.find_automorphisms(net, cap)
        return
    group = nd.find_automorphisms(net, cap)
    assert group._perms.tobytes() == frozen._perms.tobytes()
    graph = DiGraph() if net.directed else Graph()
    graph.add_nodes_from(
        (i, {"cls": None if r is None else r.class_id})
        for i, r in enumerate(net.roles))
    graph.add_edges_from(zip(*np.nonzero(net.adjacency)))
    matcher = (DiGraphMatcher if net.directed else GraphMatcher)(
        graph, graph, node_match=lambda u, v: u["cls"] == v["cls"])
    assert group.size == sum(1 for _ in matcher.isomorphisms_iter())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_networks(), st.integers(0, 3), st.integers(-3, 1),
       st.integers(0, 6), st.data())
def test_keys_answer_as_pure_python_orbit_minima(net, cached, low, span,
                                                 data):
    # labels low..low + span, 0 and negative ones among them, are read as
    # digits from the batch's least label, against a cached table for
    # labels 1..cached that is often too narrow for them
    try:
        group = nd.find_automorphisms(net, 5000)
    except GroupSizeLimitError:
        return
    group.weights(cached)
    labels = st.integers(low, low + span)
    designs = data.draw(st.lists(st.tuples(*[labels] * net.n_design),
                                 min_size=1, max_size=8))
    minima = oracle_orbit_minima(group, designs)
    assert [group.canonical_representative(x) for x in designs] == minima
    assert list(map(tuple, group.canonical_representatives(designs).tolist())) \
        == minima
    assert [group.is_canonical(x) for x in designs] == \
        [x == least for x, least in zip(designs, minima)]
    top = max(max(x) - min(x) for x in designs)
    assert max(group._weights) + 2 > top  # some table's base exceeds it
