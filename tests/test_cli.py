"""In-process CLI tests: subcommands, formats, error paths, exit codes."""

import itertools
import json
import math
from importlib import resources
from pathlib import Path

import oracles
import pytest
from jsonschema import Draft202012Validator

from zgcentral import cli, units
from zgcentral.catalog import cyclic, get_group
from zgcentral.cli import main, parse_pairs_file, parse_word
from zgcentral.errors import PreconditionFailed
from zgcentral.catalog import paper_1000_86
from zgcentral.groups import subgroup_closure, subnormal_series
from zgcentral.shoda import complete_irredundant_set
from zgcentral.units import BassSpec, bass_central_units, bass_unit, c_central_unit


REPORT_SCHEMA = json.loads(
    (Path(__file__).parents[1] / "docs" / "schemas" / "report.schema.json").read_text()
)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--group", "catalog:S4"],
        ["pairs", "--group", "catalog:D4"],
        ["rank", "--group", "catalog:C12"],
        ["units", "--group", "catalog:C5"],
        ["oracle", "--group", "catalog:Q8"],
        ["catalog"],
    ],
)
def test_report_matches_schema(capsys, argv):
    code, doc = run_json(capsys, argv)
    assert code == 0
    Draft202012Validator.check_schema(REPORT_SCHEMA)
    Draft202012Validator(REPORT_SCHEMA).validate(doc)
    assert "config" not in doc


def test_analyze_s3(capsys):
    code, doc = run_json(capsys, ["analyze", "--group", "catalog:S3"])
    assert code == 0
    assert doc["group_order"] == 6 and doc["complete"]
    assert doc["summary"]["agree"] and doc["summary"]["rank_total"] == 0
    assert "version" in doc and "config" not in doc


def test_oracle_q8(capsys):
    code, doc = run_json(capsys, ["oracle", "--group", "catalog:Q8"])
    assert code == 0 and doc["oracle"] == 0


def test_catalog_listing(capsys):
    code, doc = run_json(capsys, ["catalog"])
    assert code == 0
    names = {e["name"] for e in doc["catalog"]}
    assert {"C5", "D4", "Q8", "S4", "A4", "paper-1000-86"} <= names
    assert len(names) >= 25


def test_rank_c5(capsys):
    code, doc = run_json(capsys, ["rank", "--group", "catalog:C5"])
    assert code == 0
    assert doc["total"] == 1 == doc["oracle"] and doc["agree"]
    assert sorted(p["index"] for p in doc["pairs"]) == [1, 5]


def test_pairs_text_table(capsys):
    code = main(["rank", "--group", "catalog:C4", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith("H_order")
    assert "agree\tTrue" in out


def test_tsv_format(capsys):
    code = main(["oracle", "--group", "catalog:C6", "--format", "tsv"])
    out = capsys.readouterr().out
    assert code == 0
    assert any(line.startswith("oracle\t") for line in out.splitlines())


def test_units_c5(capsys):
    code, doc = run_json(capsys, ["units", "--group", "catalog:C5"])
    assert code == 0 and doc["complete"]
    assert doc["units"] and all(r["central_unit"] for r in doc["units"])
    assert all(len(r["omega"]) == 2 for r in doc["units"])
    assert doc["witness"] == doc["total"] == doc["oracle"] == 1
    assert doc["cyclic_subnormal"]


def test_units_verdict_d25(capsys):
    """D25's Theorem 1 units reach the rank (the float witness read 14)."""
    code, doc = run_json(capsys, ["units", "--group", "catalog:D25"])
    assert code == 0 and doc["complete"]
    assert doc["witness"] == doc["total"] == doc["oracle"] == 10
    assert doc["cyclic_subnormal"]


@pytest.mark.parametrize("name", ["Q16", "C24"])
def test_units_omega_matches_field_oracle(capsys, name):
    code, doc = run_json(capsys, ["units", "--group", f"catalog:{name}"])
    assert code == 0 and doc["complete"] and doc["units"]
    G = get_group(name)
    pairs, _ = complete_irredundant_set(G)
    built = bass_central_units(G)
    assert [r["spec"] for r in doc["units"]] == [vars(spec) for spec, _ in built]
    for row in doc["units"]:
        series = subnormal_series(subgroup_closure(G, [row["spec"]["g"]]))
        cu = c_central_unit(bass_unit(G, BassSpec(**row["spec"])), series)
        want = [oracles.central_character_value(G, p.H, p.K, cu.value) for p in pairs]
        assert row["omega"] == [w.to_json() for w in want]


def test_units_skip_only_non_subnormal_subgroups(tmp_path, capsys):
    # in C11 x| C5 the <g> of order 5 are not subnormal and are skipped; the
    # normal C11 keeps its units with 1 < k < 11/2, whose witness reads 0
    # against rank 1, as Theorem 1's hypothesis fails
    path = tmp_path / "c11-c5.json"
    path.write_text(json.dumps({"type": "pc", "orders": [5, 11], "commutators": {"2,1": [[2, 2]]}}))
    code, doc = run_json(capsys, ["units", "--group", str(path)])
    assert code == 0 and doc["complete"] and not doc["cyclic_subnormal"]
    assert all(r["central_unit"] for r in doc["units"])
    assert [(r["spec"]["g"], r["spec"]["k"]) for r in doc["units"]] == [(1, k) for k in (2, 3, 4, 5)]
    assert doc["witness"] == 0 and doc["total"] == doc["oracle"] == 1
    # S3 has rank 0 and no cyclic subgroup of order 5 or more: no rows
    code, doc = run_json(capsys, ["units", "--group", "catalog:S3"])
    assert code == 0 and doc["units"] == []
    assert doc["witness"] == doc["total"] == doc["oracle"] == 0


def test_units_construction_failure_exits_1(monkeypatch, capsys):
    def refuse(u, series, transversals=None):
        raise PreconditionFailed("refused")

    monkeypatch.setattr(units, "c_central_unit", refuse)
    assert main(["units", "--group", "catalog:C5"]) == 1
    assert "refused" in capsys.readouterr().err


def test_corrupt_cayley_file(tmp_path, capsys):
    bad = [[0, 1], [1, 1]]  # second row repeats an entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "cayley", "table": bad}))
    code = main(["analyze", "--group", str(path)])
    err = capsys.readouterr().err
    assert code == 1 and "error:" in err


def test_missing_file(capsys):
    code = main(["oracle", "--group", "no/such/file.json"])
    assert code == 1


def test_bad_generator_word(tmp_path, capsys):
    doc = {"pairs": [{"H": ["y9"], "K": ["y9"]}]}
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(doc))
    code = main(
        ["pairs", "--group", "catalog:paper-1000-86", "--pairs-file", str(path)]
    )
    assert code == 1
    assert "unknown generator" in capsys.readouterr().err


def test_pairs_non_solvable_group_exits_1(tmp_path, capsys):
    s5 = {"type": "perm", "degree": 5, "generators": [[[1, 2]], [[1, 2, 3, 4, 5]]]}
    path = tmp_path / "s5.json"
    path.write_text(json.dumps(s5))
    code = main(["pairs", "--group", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "not solvable" in err and "--pairs-file" in err


# the nonzero vectors of F_3^2, the points 1..8 that SL(2,3) and GL(2,3) act on
F3_VECTORS = [v for v in itertools.product(range(3), repeat=2) if any(v)]


def matrix_cycles(m):
    """The cycles, 1-based, of v -> m v on F3_VECTORS, for a 2x2 matrix m over F_3."""
    image = [
        F3_VECTORS.index(tuple(sum(a * b for a, b in zip(row, v)) % 3 for row in m))
        for v in F3_VECTORS
    ]
    cycles, seen = [], set()
    for start in range(len(F3_VECTORS)):
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x + 1)
            x = image[x]
        if len(cycle) > 1:
            cycles.append(cycle)
    return cycles


# SL(2,3) is generated by the two elementary transvections; GL(2,3) adds
# a matrix of determinant 2.  Neither group is monomial.
NOT_MONOMIAL = {
    "SL(2,3)": ([((1, 1), (0, 1)), ((1, 0), (1, 1))], 24, 3),
    "GL(2,3)": ([((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (0, 1))], 48, 6),
}


@pytest.mark.parametrize("name", sorted(NOT_MONOMIAL))
def test_a_group_that_is_not_monomial_exits_2(name, tmp_path, capsys):
    """A real group, not a patched chain search, reaches exit 2: SL(2,3)
    and GL(2,3) as permutations of the nonzero vectors of F_3^2."""
    matrices, order, kept = NOT_MONOMIAL[name]
    spec = {"type": "perm", "degree": 8, "generators": [matrix_cycles(m) for m in matrices]}
    G = cli.load_group_spec(spec)
    pairs, complete = complete_irredundant_set(G)
    assert (G.order, len(pairs), complete) == (order, kept, False)
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec))
    code, doc = run_json(capsys, ["rank", "--group", str(path)])
    assert code == 2
    assert doc["error"] == "incomplete pair set"
    Draft202012Validator(REPORT_SCHEMA).validate(doc)


def _rank_rows(doc):
    return sorted(
        (
            p["H_order"],
            p["K_order"],
            p["index"],
            p["status"],
            p["k"],
            p["term"],
            math.prod(p["chain"]["indices"]),
        )
        for p in doc["pairs"]
    )


def test_rank_order_1000_needs_no_pairs_file(capsys):
    pairs_file = resources.files("zgcentral.data").joinpath("paper9.json")
    argv = ["rank", "--group", "catalog:paper-1000-86"]
    code_a, found = run_json(capsys, argv)
    code_b, supplied = run_json(capsys, argv + ["--pairs-file", str(pairs_file)])
    assert code_a == code_b == 0
    assert found["total"] == found["oracle"] == supplied["total"] == 1
    assert _rank_rows(found) == _rank_rows(supplied)


def test_parse_word_semantics():
    G = paper_1000_86()
    x1 = parse_word(G, "x1")
    assert G.element_orders[x1] == 8
    prod = parse_word(G, "x4*x5^2")
    assert prod == G.mul(parse_word(G, "x4"), G.power(parse_word(G, "x5"), 2))
    assert parse_word(G, 0) == 0


def test_parse_pairs_file_closes_each_generator_list_once(paper1000, monkeypatch):
    """paper9.json names 11 distinct generator lists in its 26 subgroup
    fields: the parser makes 11 closures, each field's subgroup has the
    members and generators a fresh closure of its words has, and two
    fields with the same words share one Subgroup."""
    doc = json.loads(resources.files("zgcentral.data").joinpath("paper9.json").read_text())
    closures = []

    def counting(G, gens):
        closures.append(list(gens))
        return subgroup_closure(G, gens)

    monkeypatch.setattr(cli, "subgroup_closure", counting)
    candidates = parse_pairs_file(paper1000, doc)
    monkeypatch.undo()
    fields = [
        (tokens, S)
        for entry, (H, K, chain) in zip(doc["pairs"], candidates)
        for tokens, S in [(entry["H"], H), (entry["K"], K), *zip(entry.get("chain", []), chain or [])]
    ]
    assert len(fields) == 26
    assert len(closures) == len({tuple(t) for t, _ in fields}) == 11
    by_tokens = {}
    for tokens, S in fields:
        fresh = subgroup_closure(paper1000, [parse_word(paper1000, t) for t in tokens])
        assert S.members == fresh.members and S.gens == fresh.gens
        assert by_tokens.setdefault(tuple(tokens), S) is S
    H, K, _ = candidates[0]
    assert H is K
    H, _, chain = candidates[7]
    assert chain[0] is chain[1] is H


def test_parse_pairs_file_evaluates_each_token_once(paper1000, monkeypatch):
    """paper9.json's 77 tokens are 10 distinct words of 16 generator
    powers in all: with closing stubbed out, so that each field reads as
    its tuple of elements, the parser takes those 16 powers, and every
    field holds parse_word's elements."""
    doc = json.loads(resources.files("zgcentral.data").joinpath("paper9.json").read_text())
    powers = []
    power = type(paper1000).power

    def counting(G, a, k):
        powers.append((a, k))
        return power(G, a, k)

    monkeypatch.setattr(type(paper1000), "power", counting)
    monkeypatch.setattr(cli, "subgroup_closure", lambda G, gens: gens)
    candidates = parse_pairs_file(paper1000, doc)
    monkeypatch.undo()
    fields = [
        (words, S)
        for entry, (H, K, chain) in zip(doc["pairs"], candidates)
        for words, S in [
            (entry["H"], H),
            (entry["K"], K),
            *zip(entry.get("chain", []), chain or []),
        ]
    ]
    tokens = [t for words, _ in fields for t in words]
    assert len(tokens) == 77 and len(set(tokens)) == 10
    assert len(powers) == sum(len(t.split("*")) for t in set(tokens)) == 16
    for words, S in fields:
        assert S == tuple(parse_word(paper1000, t) for t in words)


@pytest.mark.parametrize(
    "group, token, message",
    [
        ("paper-1000-86", 1000, "element index 1000 out of range"),
        ("paper-1000-86", -1, "element index -1 out of range"),
        ("paper-1000-86", "x1*y2", "unknown generator 'y2' in word 'x1*y2'"),
        ("paper-1000-86", "x1^a", "invalid literal for int() with base 10: 'a'"),
        ("S3", "x1", "generator words require a pc-presented group"),
    ],
)
def test_bad_tokens_raise_the_same_error_in_a_file_and_alone(group, token, message):
    """A bad token raises one ValueError, with one message, from parse_word
    and from a pairs file, in H, in K or in a chain step."""
    G = get_group(group)
    with pytest.raises(ValueError) as alone:
        parse_word(G, token)
    assert str(alone.value) == message
    docs = [
        {"pairs": [{"H": [token], "K": []}]},
        {"pairs": [{"H": [], "K": [0, token]}]},
        {"pairs": [{"H": [], "K": [], "chain": [[], [token]]}]},
    ]
    for doc in docs:
        with pytest.raises(ValueError) as in_file:
            parse_pairs_file(G, doc)
        assert str(in_file.value) == message

def test_parse_pairs_file_paper9_orders(paper1000):
    with resources.files("zgcentral.data").joinpath("paper9.json").open() as fh:
        candidates = parse_pairs_file(paper1000, json.load(fh))
    orders = [
        (H.order, K.order, chain and [S.order for S in chain])
        for H, K, chain in candidates
    ]
    assert orders == [
        (1000, 1000, None),
        (1000, 500, None),
        (1000, 250, None),
        (1000, 125, None),
        (125, 25, None),
        (125, 25, None),
        (125, 25, None),
        (50, 10, [50, 50, 250, 1000]),
        (50, 5, [50, 50, 250, 1000]),
    ]
    assert all(K <= H for H, K, _ in candidates)


def test_cayley_round_trip(tmp_path, capsys):
    G = cyclic(6)
    table = [[int(G.mul(a, b)) for b in range(6)] for a in range(6)]
    path = tmp_path / "c6.json"
    path.write_text(json.dumps({"type": "cayley", "table": table}))
    code_a, doc_a = run_json(capsys, ["analyze", "--group", str(path)])
    code_b, doc_b = run_json(capsys, ["analyze", "--group", "catalog:C6"])
    assert code_a == code_b == 0
    assert doc_a["rank"]["total"] == doc_b["rank"]["total"]
    assert sorted(p["index"] for p in doc_a["pairs"]) == sorted(
        p["index"] for p in doc_b["pairs"]
    )


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = main(["oracle", "--group", "catalog:C5", "--out", str(dest)])
    assert code == 0
    assert json.loads(dest.read_text())["oracle"] == 1


def test_pc_file_matches_catalog(tmp_path, capsys):
    q8 = {
        "type": "pc",
        "orders": [2, 2, 2],
        "powers": {"1": [[3, 1]], "2": [[3, 1]]},
        "commutators": {"2,1": [[3, 1]]},
    }
    path = tmp_path / "q8.json"
    path.write_text(json.dumps(q8))
    assert main(["analyze", "--group", str(path)]) == 0
    from_file = capsys.readouterr().out
    assert main(["analyze", "--group", "catalog:Q8"]) == 0
    assert from_file == capsys.readouterr().out


def test_inconsistent_pc_file_exits_1(tmp_path, capsys):
    # [x2, x1] = x2 sends x2 to x2^2 = 1
    bad = {"type": "pc", "orders": [2, 2], "commutators": {"2,1": [[2, 1]]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["analyze", "--group", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: x1: conjugation by x1 is not a bijection")


def _single_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


MALFORMED_PAIRS = {
    "list": ([], "must be a JSON object"),
    "no-pairs": ({}, "lacks the field 'pairs'"),
    "pairs-object": ({"pairs": {}}, "field 'pairs' must be a list"),
    "entry-int": ({"pairs": [1]}, "entry 0 must be a JSON object"),
    "H-int": ({"pairs": [{"H": 1, "K": []}]}, "entry 0: field 'H'"),
    "H-bool": ({"pairs": [{"H": [True], "K": []}]}, "entry 0: field 'H'"),
    "H-null": ({"pairs": [{"H": [None], "K": []}]}, "entry 0: field 'H'"),
    "no-K": ({"pairs": [{"H": []}]}, "entry 0 lacks the field 'K'"),
    "chain-flat": ({"pairs": [{"H": [], "K": [], "chain": [1]}]}, "entry 0: field 'chain'"),
    "second-K": ({"pairs": [{"H": [], "K": []}, {"H": [], "K": [[0]]}]}, "entry 1: field 'K'"),
}


@pytest.mark.parametrize("doc, says", MALFORMED_PAIRS.values(), ids=MALFORMED_PAIRS)
def test_malformed_pairs_file_exits_1(tmp_path, capsys, doc, says):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(doc))
    argv = ["pairs", "--group", "catalog:C4", "--pairs-file", str(path)]
    assert main(argv) == 1
    assert says in _single_error(capsys)


MALFORMED_GROUPS = {
    "list": ([1], "must be a JSON object"),
    "cayley-no-table": ({"type": "cayley"}, "lacks the field 'table'"),
    "cayley-bool": ({"type": "cayley", "table": [[0, True], [1, 0]]}, "field 'table'"),
    "cayley-labels": ({"type": "cayley", "table": [[0]], "labels": [1]}, "field 'labels'"),
    "cayley-label-count": (
        {"type": "cayley", "table": [[0, 1], [1, 0]], "labels": ["e"]},
        "1 labels for a table of order 2",
    ),
    "perm-no-degree": ({"type": "perm", "generators": []}, "lacks the field 'degree'"),
    "perm-flat": ({"type": "perm", "degree": 3, "generators": [[1, 2]]}, "field 'generators'"),
    "perm-degree-str": ({"type": "perm", "degree": "3", "generators": []}, "field 'degree'"),
    "pc-no-orders": ({"type": "pc"}, "lacks the field 'orders'"),
    "pc-power-key": ({"type": "pc", "orders": [2], "powers": {"x": []}}, "field 'powers'"),
    "pc-comm-key": (
        {"type": "pc", "orders": [2, 2], "commutators": {"2": []}},
        "field 'commutators'",
    ),
    "pc-comm-word": (
        {"type": "pc", "orders": [2, 2], "commutators": {"2,1": [[2]]}},
        "field 'commutators'",
    ),
    "unknown-type": ({"type": "free"}, "unknown group input type 'free'"),
}


@pytest.mark.parametrize("doc, says", MALFORMED_GROUPS.values(), ids=MALFORMED_GROUPS)
def test_malformed_group_file_exits_1(tmp_path, capsys, doc, says):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--group", str(path)]) == 1
    assert says in _single_error(capsys)


def test_unknown_catalog_group_exits_1(capsys):
    assert main(["rank", "--group", "catalog:Nope"]) == 1
    assert _single_error(capsys) == "error: unknown catalog group 'Nope'\n"


def test_supplied_non_shoda_pair_exits_1(tmp_path, capsys):
    # <x4> of order 5 with K = 1 fails the Shoda test, the only check on
    # a supplied pair
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"pairs": [{"H": ["x4"], "K": []}]}))
    for command in ("pairs", "rank", "analyze", "units"):
        argv = [command, "--group", "catalog:paper-1000-86", "--pairs-file", str(path)]
        assert main(argv) == 1
        assert _single_error(capsys) == (
            "error: pair (|H|=5, |K|=1) fails the Shoda conditions\n"
        )


def test_supplied_chain_that_fails_exits_1(tmp_path, capsys):
    # paper9.json's (50, 10) pair with its chain cut to its two ends: the
    # one level fails, and the chain is refused, not searched around
    with resources.files("zgcentral.data").joinpath("paper9.json").open() as fh:
        entry = json.load(fh)["pairs"][7]
    entry["chain"] = [entry["chain"][0], entry["chain"][-1]]
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"pairs": [entry]}))
    for command in ("pairs", "rank", "analyze", "units"):
        argv = [command, "--group", "catalog:paper-1000-86", "--pairs-file", str(path)]
        assert main(argv) == 1
        assert _single_error(capsys) == (
            "error: pair (|H|=50, |K|=10) fails its supplied chain\n"
        )


USAGE_ERRORS = {
    "unknown-format": ["rank", "--group", "catalog:C4", "--format", "xml"],
    "no-group": ["analyze"],
    "unknown-option": ["oracle", "--group", "catalog:C4", "--seed", "1"],
    # the oracle counts classes and reads no pairs
    "oracle-pairs-file": ["oracle", "--group", "catalog:Q8", "--pairs-file", "x.json"],
    "unknown-command": ["frobnicate"],
    "no-command": [],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_errors_exit_1(capsys, argv):
    # 2 is kept for an incomplete pair set
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: zgcentral") and "error: " in err


def test_format_text_is_offered_on_rank_only(capsys):
    # rank's text table is test_pairs_text_table's
    others = [[c, "--group", "catalog:C4"] for c in ("analyze", "pairs", "units", "oracle")]
    for argv in others + [["catalog"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "text"])
        assert exc.value.code == 1
        assert "invalid choice: 'text'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["rank", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out
