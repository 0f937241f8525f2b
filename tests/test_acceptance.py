"""End-to-end acceptance suite.

One test per top-level guarantee of the package: the order-1000 showcase
group, E64's pairs within a time bound, oracle equivalence across the
catalog, the idempotent algebra, the center-degree identity, the unit
constructions, the p-adic rank witness, and degenerate/robustness
behaviour.
"""

import json
import time
from importlib import resources

import oracles
import pytest
from oracles import e_sum_conjugates

from zgcentral.catalog import catalog, cyclic, dihedral, get_group, quaternion8
from zgcentral.cli import load_group_spec, parse_pairs_file
from zgcentral.errors import NotAGroup
from zgcentral.groupalgebra import (
    QGElement,
    is_central,
    mul,
)
from zgcentral.groups import (
    check_cyclic_subnormal_hypothesis,
    group_from_cayley,
    subgroup_closure,
    subnormal_series,
)
from zgcentral.rank import rank_oracle, rank_total, verify_center_degree
from zgcentral.shoda import complete_irredundant_set
from zgcentral.units import (
    bass_central_units,
    bass_specs_for,
    bass_unit,
    c_central_unit,
    gen_bass_unit,
    log_rank_witness,
    random_right_transversal,
    z_central_unit,
)

SWEEP_NAMES = (
    [f"C{n}" for n in range(2, 41)]
    + [f"D{n}" for n in range(3, 13)]
    + ["Q8", "Q16", "S3", "S4", "A4", "E4", "E8", "E9", "E25"]
)


def full_analysis(G):
    pairs, complete = complete_irredundant_set(G)
    assert complete
    return pairs


def test_order_1000_showcase():
    start = time.monotonic()
    G = get_group("paper-1000-86")
    with resources.files("zgcentral.data").joinpath("paper9.json").open() as fh:
        candidates = parse_pairs_file(G, json.load(fh))
    pairs, complete = complete_irredundant_set(G, candidates=candidates)
    assert complete and len(pairs) == 9

    statuses = sorted(p.status for p in pairs)
    assert statuses.count("strong") == 7
    assert statuses.count("generalized_strong") == 2

    indices = sorted(p.index for p in pairs)
    assert indices == [1, 2, 4, 5, 5, 5, 5, 8, 10]

    chain_profiles = sorted(tuple(p.chain.indices) for p in pairs)
    assert chain_profiles == [
        (1,), (1,), (1,), (1,), (1, 1, 4), (1, 1, 4), (4,), (4,), (4,),
    ]
    for p in pairs:
        assert verify_center_degree(G, p)

    report = rank_total(G, pairs, complete=True)
    assert sorted(t.k for t in report.terms) == [1, 1, 1, 1, 1, 1, 1, 2, 2]
    assert report.total == 1 == report.oracle_total and report.agree
    assert time.monotonic() - start < 600


def test_e64_pairs_above_the_center():
    """E64 has 2825 subgroups but one H above its center: 64 pairs, rank 0."""
    start = time.monotonic()
    G = load_group_spec({"type": "pc", "orders": [2, 2, 2, 2, 2, 2]})
    pairs, complete = complete_irredundant_set(G)
    assert complete and len(pairs) == 64
    report = rank_total(G, pairs, complete=True)
    assert report.total == 0 == report.oracle_total == rank_oracle(G)
    assert time.monotonic() - start < 3


def test_oracle_equivalence_sweep():
    start = time.monotonic()
    assert len(SWEEP_NAMES) >= 25
    for name in SWEEP_NAMES:
        G = get_group(name)
        assert G.order <= 100
        report = rank_total(G, full_analysis(G), complete=True)
        assert report.agree, name
    assert time.monotonic() - start < 300


def test_idempotent_suite():
    for name in ("C12", "S3", "S4", "D4", "D6", "Q8", "A4", "E9"):
        G = get_group(name)
        pairs = full_analysis(G)
        total = QGElement.zero(G)
        for p in pairs:
            assert oracles.is_idempotent(p.pci) and is_central(p.pci)
            if p.status == "strong":
                assert p.pci == e_sum_conjugates(G.whole(), p.H, p.K)
            total = total + p.pci
        for i, p in enumerate(pairs):
            for q in pairs[i + 1 :]:
                assert mul(p.pci, q.pci).is_zero()
        assert total == QGElement.one(G)


def test_center_degree_identity():
    for name in ("C8", "C15", "S3", "S4", "D5", "Q8", "Q16", "A4"):
        G = get_group(name)
        for p in full_analysis(G):
            assert verify_center_degree(G, p), (name, p.H.order, p.K.order)


def test_unit_suite():
    # Bass units: augmentation one and invertible over the integers
    for entry in catalog():
        G = entry.constructor()
        if G.order > 60 or G.order < 2:
            continue
        for g in range(G.order):
            for spec in bass_specs_for(G, g):
                u = bass_unit(G, spec)
                assert u.value.augmentation() == 1
                # the closed-form inverse is integral; u * inverse == 1 is
                # proved in Z[x]/(x^|g| - 1) when the unit is built
                assert u.inverse.is_integral()

    # generalized Bass units and their closed-form inverses are integral
    # and multiply to 1
    d5 = dihedral(5)
    rot = next(g for g in range(10) if d5.element_orders[g] == 5)
    M = subgroup_closure(d5, [rot])
    for k, m in ((2, 4), (3, 4)):
        gb = gen_bass_unit(d5, rot, M, k, m)
        assert gb.value.is_integral() and gb.inverse.is_integral()
        assert mul(gb.value, gb.inverse) == QGElement.one(d5)

    # z- and c-constructions produce central units that carry their
    # inverses: both integral, value * inverse = 1
    pairs = full_analysis(d5)
    pair = next(p for p in pairs if p.H.members == M.members and p.index == 5)
    u = bass_unit(d5, next(s for s in bass_specs_for(d5, rot) if s.k == 2))
    series = subnormal_series(M)
    z_unit, c_unit = z_central_unit(u, pair), c_central_unit(u, series)
    for cu in (z_unit, c_unit):
        assert cu.value.is_integral() and cu.inverse.is_integral()
        assert is_central(cu.value)
        assert mul(cu.value, cu.inverse) == QGElement.one(d5)
    reference = c_unit.value

    # the c-construction does not depend on the transversal choice
    import random

    rng = random.Random(20260823)
    for _ in range(10):
        tv = [
            random_right_transversal(series.steps[i], series.steps[i + 1], rng)
            for i in range(len(series.steps) - 1)
        ]
        assert c_central_unit(u, series, transversals=tv).value == reference


def test_rank_witness():
    start = time.monotonic()
    groups = [cyclic(n) for n in (5, 7, 8, 9, 11, 12, 15, 16, 17, 19, 21, 30, 36)]
    groups += [quaternion8(), dihedral(4)]
    # D5, D7, D11, D25 and S4 have cyclic subgroups that are not subnormal,
    # which the construction skips
    groups += [get_group(name) for name in ("D5", "D7", "D11", "D25", "S4")]
    for G in groups:
        holds, witness = check_cyclic_subnormal_hypothesis(G)
        assert holds and witness is None
        pairs = full_analysis(G)
        units = [cu for _, cu in bass_central_units(G)]
        rank = log_rank_witness(G, units, pairs)
        assert rank == rank_oracle(G) == oracles.padic_rank(G, units, pairs), G.order
    assert time.monotonic() - start < 120


def test_degenerate_and_robustness():
    # trivial group
    C1 = cyclic(1)
    pairs = full_analysis(C1)
    assert len(pairs) == 1 and pairs[0].index == 1
    assert rank_total(C1, pairs, complete=True).total == 0
    assert log_rank_witness(C1, [], pairs) == 0

    # smallest nontrivial group
    C2 = cyclic(2)
    report = rank_total(C2, full_analysis(C2), complete=True)
    assert report.total == 0 and report.agree

    # corrupted multiplication table is rejected up front
    with pytest.raises(NotAGroup):
        group_from_cayley([[0, 1], [1, 1]])
    with pytest.raises(NotAGroup):
        group_from_cayley([[1, 0], [0, 1]])  # no identity row consistency

    # every catalog constructor produces a validated group
    for entry in catalog():
        G = entry.constructor()
        assert G.order >= 1
        assert G.mul(0, 0) == 0
