from __future__ import annotations

from itertools import product

import numpy as np
import pytest

import netdesign as nd
from netdesign.network import NetworkError, ParseError

from helpers import (frozen_augment_blocks, frozen_augment_crossover,
                     frozen_augment_row_column)


def test_parse_example1_text():
    net = nd.parse_edge_list("1-7, 2-7, 3-6, 4-5, 6-9, 9-10", 10)
    assert net.n_total == 10
    assert net.edge_count() == 6
    assert not net.directed
    # node 8 never referenced -> isolated
    assert net.adjacency[7].sum() == 0 and net.adjacency[:, 7].sum() == 0
    assert net.roles == (None,) * 10


def test_parse_directed_tokens():
    net = nd.parse_edge_list("2->1, 3->2", 3, directed=True)
    a = net.adjacency
    assert a[1, 0] == 1 and a[2, 1] == 1
    assert a.sum() == 2
    assert a[0, 1] == 0 and a[1, 2] == 0


def test_parse_empty_text_gives_isolated_nodes():
    net = nd.parse_edge_list("", 4)
    assert net.n_total == 4
    assert net.adjacency.sum() == 0


@pytest.mark.parametrize("text,directed", [
    ("1*2", False),
    ("1-2-3", False),
    ("0-1", False),          # ids are 1-based
    ("1-5", False),          # out of range for n=4
    ("2-2", False),          # self loop
    ("1-2, 2-1", False),     # reversed duplicate
    ("1-2, 1-2", False),
    ("1->2", False),         # arrow in undirected mode
    ("1-2", True),           # plain edge in directed mode
    ("1->2, 1->2", True),
])
def test_parse_errors(text, directed):
    with pytest.raises(ParseError):
        nd.parse_edge_list(text, 4, directed=directed)


def test_parse_error_reports_token_and_position():
    with pytest.raises(ParseError) as err:
        nd.parse_edge_list("1-2, 7-9, 3-4", 4)
    assert err.value.token == "7-9"
    assert err.value.position == 2


def test_directed_duplicate_allows_both_directions():
    net = nd.parse_edge_list("1->2, 2->1", 3, directed=True)
    assert net.adjacency[0, 1] == 1 and net.adjacency[1, 0] == 1


def test_round_trip_fixture_files(examples):
    for net in examples.values():
        back = nd.parse_edge_list(nd.format_edge_list(net), net.n_total, net.directed)
        assert np.array_equal(back.adjacency, net.adjacency)


def test_round_trip_random_networks():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 12))
        directed = bool(rng.integers(0, 2))
        a = (rng.random((n, n)) < 0.3).astype(int)
        np.fill_diagonal(a, 0)
        if not directed:
            a = np.triu(a) | np.triu(a).T
        net = nd.Network(a, directed)
        back = nd.parse_edge_list(nd.format_edge_list(net), n, directed)
        assert np.array_equal(back.adjacency, net.adjacency)


def test_serialize_round_trip_with_roles():
    nets = [
        nd.augment_blocks([3, 4], 3),
        nd.augment_row_column(2, 3, 2),
        nd.augment_crossover(2, 3, 2, period_blocks=True),
        nd.example_network(6),
    ]
    for net in nets:
        back = nd.parse_network(nd.serialize_network(net))
        assert np.array_equal(back.adjacency, net.adjacency)
        assert back.roles == net.roles
        assert back.directed == net.directed


def test_parse_network_header_conflicts():
    text = nd.serialize_network(nd.example_network(1))
    with pytest.raises(ParseError):
        nd.parse_network(text, n_nodes=12)
    with pytest.raises(ParseError):
        nd.parse_network(text, directed=True)
    with pytest.raises(ParseError):
        nd.parse_network("1-2, 2-3")  # no header, no n_nodes


def test_all_fixture_files_parse():
    names = nd.example_names()
    assert len(names) == 6
    for name in names:
        net = nd.parse_network((nd.fixture_dir() / name).read_text())
        assert net.n_total >= 1


def test_network_invariants_rejected():
    with pytest.raises(NetworkError):
        nd.Network(np.array([[1, 0], [0, 0]]), False)  # diagonal
    with pytest.raises(NetworkError):
        nd.Network(np.array([[0, 1], [0, 0]]), False)  # asymmetric undirected
    with pytest.raises(NetworkError):
        nd.Network(np.array([[0, 2], [2, 0]]), False)  # non 0/1
    with pytest.raises(NetworkError, match="0 or 1"):  # not truncated to 0
        nd.Network([[0, 0.5], [0.5, 0]], False)
    with pytest.raises(NetworkError, match="0 or 1"):  # not truncated to 1
        nd.Network([[0, 1.7], [1.7, 0]], False)
    with pytest.raises(NetworkError):
        nd.Network(np.zeros((2, 3), dtype=int), False)
    with pytest.raises(NetworkError, match="one length"):  # not numpy's
        nd.Network([[0, 1], [1]], False)
    roles = [None, nd.BlockRole(0, 3), nd.BlockRole(0, 3)]
    with pytest.raises(NetworkError):  # repeated fixed treatment
        nd.Network(np.zeros((3, 3), dtype=int), False, roles)


def test_undirected_adjacency_symmetric_bit_exact(examples):
    for k in (1, 2, 3, 4, 5):
        a = examples[k].adjacency
        assert np.array_equal(a, a.T)


def test_augment_blocks_4x4():
    net = nd.augment_blocks([4, 4, 4, 4], m=2)
    assert net.n_total == 20
    assert net.edge_count() == 16
    assert [net.roles[b].fixed_treatment for b in net.block_nodes] == [3, 4, 5, 6]
    assert len({net.roles[b].class_id for b in net.block_nodes}) == 1
    assert net.design_nodes == tuple(range(16))
    assert net.measurable == (True,) * 16 + (False,) * 4


def test_augment_blocks_single_unit():
    net = nd.augment_blocks([1], m=2)
    assert net.n_total == 2
    assert net.edge_count() == 1


def test_augment_blocks_distinct_sizes_distinct_classes():
    net = nd.augment_blocks([2, 3, 2], m=2)
    classes = [net.roles[b].class_id for b in net.block_nodes]
    assert classes[0] == classes[2] != classes[1]


def test_augment_blocks_errors():
    with pytest.raises(NetworkError):
        nd.augment_blocks([], 2)
    with pytest.raises(NetworkError):
        nd.augment_blocks([3, 0], 2)
    with pytest.raises(NetworkError):
        nd.augment_blocks([3], 1)


def test_augment_row_column_3x3():
    net = nd.augment_row_column(3, 3, m=3)
    assert net.n_total == 15
    assert net.edge_count() == 18
    fixed = [net.roles[b].fixed_treatment for b in net.block_nodes]
    assert fixed == [4, 5, 6, 7, 8, 9]
    # square: row and column classes merged
    assert len({net.roles[b].class_id for b in net.block_nodes}) == 1


def test_augment_row_column_rectangular_classes():
    net = nd.augment_row_column(2, 3, m=2)
    classes = [net.roles[b].class_id for b in net.block_nodes]
    assert classes == [0, 0, 1, 1, 1]
    # each unit touches one row node and one column node
    for u in net.design_nodes:
        assert net.adjacency[u].sum() == 2


def test_augment_row_column_1x1():
    net = nd.augment_row_column(1, 1, m=2)
    assert net.n_total == 3
    assert net.edge_count() == 2


def test_augment_crossover_3x3_period_blocks():
    net = nd.augment_crossover(3, 3, m=3, period_blocks=True)
    assert net.n_total == 15
    assert net.directed
    a = net.adjacency
    carry = [(i, j) for i in net.design_nodes for j in net.design_nodes if a[i, j]]
    assert len(carry) == 6
    # formula: s*p block links + s*(p-1) carryover + p*s period links
    assert net.edge_count() == 9 + 6 + 9


def test_augment_crossover_minimal():
    net = nd.augment_crossover(1, 2, m=2)
    assert net.n_total == 3
    a = net.adjacency
    assert a[1, 0] == 1 and a[0, 1] == 0  # directed carryover, later -> earlier
    assert net.edge_count() == 3


def test_augment_crossover_carryover_pattern_5x3():
    # complete 5-subject, 3-period layout: carryover pairs follow each
    # subject's chain, matching a hand-built adjacency
    net = nd.augment_crossover(5, 3, m=2)
    expected = np.zeros((15, 15), dtype=int)
    for s in range(5):
        for p in range(1, 3):
            expected[s * 3 + p, s * 3 + p - 1] = 1
    units = list(net.design_nodes)
    assert np.array_equal(net.adjacency[np.ix_(units, units)], expected)


def test_augment_crossover_errors():
    with pytest.raises(NetworkError):
        nd.augment_crossover(0, 3, 2)
    with pytest.raises(NetworkError):
        nd.augment_crossover(3, 1, 2)


@pytest.mark.parametrize("sizes", [[1], [2, 2], [3, 3, 3], [4, 2, 1]])
def test_block_edge_count_formula(sizes):
    net = nd.augment_blocks(sizes, 2)
    assert net.edge_count() == sum(sizes)


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (3, 3), (4, 2)])
def test_row_column_edge_count_formula(rows, cols):
    net = nd.augment_row_column(rows, cols, 2)
    assert net.edge_count() == 2 * rows * cols


@pytest.mark.parametrize("s,p,pb", [(1, 2, False), (3, 3, True), (4, 2, False), (2, 4, True)])
def test_crossover_edge_count_formula(s, p, pb):
    net = nd.augment_crossover(s, p, 2, period_blocks=pb)
    expected = s * p + s * (p - 1) + (p * s if pb else 0)
    assert net.edge_count() == expected


# layout -> (constructor, frozen constructor, keyword arguments of each
# layout in the reference grid, m left out): 340 block lists, 25 row-column
# and 40 crossover layouts, 1,215 cases over the three values of m
_LAYOUTS = {
    "blocks": (nd.augment_blocks, frozen_augment_blocks,
               [dict(units_per_block=list(sizes)) for k in range(1, 5)
                for sizes in product(range(1, 5), repeat=k)]),
    "row-column": (nd.augment_row_column, frozen_augment_row_column,
                   [dict(rows=r, cols=c)
                    for r in range(1, 6) for c in range(1, 6)]),
    "crossover": (nd.augment_crossover, frozen_augment_crossover,
                  [dict(subjects=s, periods=p, period_blocks=pb)
                   for s in range(1, 6) for p in range(2, 6)
                   for pb in (False, True)]),
}


def _built(net: nd.Network):
    roles = [None if r is None else (r.class_id, r.fixed_treatment)
             for r in net.roles]
    return net.adjacency.shape, net.adjacency.tobytes(), net.directed, roles


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_constructors_match_frozen_copies(layout, m):
    # adjacency bytes, directedness and every role as the per-layout loops
    # built them, on every layout of the grid
    build, frozen, cases = _LAYOUTS[layout]
    for kwargs in cases:
        assert _built(build(**kwargs, m=m)) == _built(frozen(**kwargs, m=m)), kwargs


_BAD_LAYOUTS = [
    ("blocks", dict(units_per_block=[])),
    ("blocks", dict(units_per_block=[3, 0])),
    ("blocks", dict(units_per_block=[2, -1, 2])),
    ("row-column", dict(rows=0, cols=3)),
    ("row-column", dict(rows=3, cols=0)),
    ("crossover", dict(subjects=0, periods=3)),
    ("crossover", dict(subjects=3, periods=1)),
    ("crossover", dict(subjects=0, periods=1, period_blocks=True)),
]
_GOOD_LAYOUTS = [
    ("blocks", dict(units_per_block=[3])),
    ("row-column", dict(rows=2, cols=3)),
    ("crossover", dict(subjects=2, periods=2, period_blocks=True)),
]


@pytest.mark.parametrize("layout,kwargs,m",
                         [(layout, kwargs, m) for layout, kwargs in _BAD_LAYOUTS
                          for m in (1, 2)]
                         + [(layout, kwargs, 1) for layout, kwargs in _GOOD_LAYOUTS])
def test_constructor_errors_match_frozen_copies(layout, kwargs, m):
    # the same message as the frozen copy, so a layout error still comes
    # before the treatment-count error
    build, frozen, _ = _LAYOUTS[layout]
    with pytest.raises(NetworkError) as want:
        frozen(**kwargs, m=m)
    with pytest.raises(NetworkError) as got:
        build(**kwargs, m=m)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
