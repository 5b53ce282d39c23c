from __future__ import annotations

import random
from itertools import product
from math import factorial

import numpy as np
import pytest

import netdesign as nd
from netdesign.automorph import GroupSizeLimitError, cycle_notation

from helpers import burnside_orbit_count, oracle_orbit_minima


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
    assert nd.find_automorphisms(net).size == factorial(3) ** 4 * factorial(4)


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
    with pytest.raises(ValueError):
        group.prefix_has_smaller_image(design, 2)


@pytest.mark.parametrize("net,m", [
    (nd.augment_row_column(3, 3, 3), 3),
    (nd.augment_blocks([3, 3, 3, 3], 3), 3),
])
def test_canonical_representative_matches_pure_python_orbit_min(net, m):
    group = nd.find_automorphisms(net)
    rng = np.random.default_rng(11)
    designs = [tuple(int(v) for v in row)
               for row in rng.integers(1, m + 1, size=(200, net.n_design))]
    assert [group.canonical_representative(x) for x in designs] == \
        oracle_orbit_minima(group, designs)


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
    with pytest.raises(GroupSizeLimitError):
        nd.find_automorphisms(net, max_group_size=100)
    # the default cap rejects (4!)^4 * 4! ~ 8.0e6
    with pytest.raises(GroupSizeLimitError):
        nd.find_automorphisms(nd.augment_blocks([4, 4, 4, 4], 2))


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
