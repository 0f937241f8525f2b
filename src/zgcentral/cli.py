"""Command-line interface.

Subcommands: analyze, pairs, rank, units, oracle, catalog.  Groups come
from the built-in catalog (``--group catalog:NAME``) or a JSON file with
a cayley table, permutation generators, or a power-commutator
presentation.  Shoda pairs are found from the subgroup lattice; a group
with more than ``groups.LATTICE_CAP`` subgroups, or a non-solvable one,
needs its candidate pairs, and a chain for every pair that is not
strong, supplied via ``--pairs-file`` using generator words; each
supplied pair takes the Shoda test (`shoda.shoda_character`).  Every
subcommand writes ``--format json`` or ``tsv``, and ``rank`` also
``text``, its per-pair table.  Exit codes: 0 success, 2 when a pair set
is incomplete, 1 on errors, bad input and bad command lines alike.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache

from . import __version__
from .catalog import catalog, get_group
from .cyclotomic import euler_phi
from .errors import ZgError
from .groups import (
    check_cyclic_subnormal_hypothesis,
    group_from_cayley,
    group_from_pc_presentation,
    group_from_permutations,
    perm_from_cycles,
    subgroup_closure,
)
from .rank import rank_oracle, rank_total
from .shoda import complete_irredundant_set
from .units import bass_central_units, central_character_value, log_rank_witness


# -- input loading -------------------------------------------------------------


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _list_of(check):
    return lambda x: isinstance(x, list) and all(check(y) for y in x)


def _object_of(key, check):
    """Objects whose keys match the regex `key` and whose values pass `check`."""
    return lambda x: isinstance(x, dict) and all(
        re.fullmatch(key, k) and check(v) for k, v in x.items()
    )


_INTS = _list_of(_is_int)
_WORD = _list_of(lambda p: isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)))
_TOKENS = _list_of(lambda x: isinstance(x, str) or _is_int(x))
_REQUIRED = object()


def _field(doc, key, where, check, what, default=_REQUIRED):
    """doc[key] if it passes `check`; a ValueError naming `where`, the
    field and `what` it must be otherwise, or when it is missing and no
    default is given."""
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"{where} lacks the field {key!r}")
        return default
    if not check(doc[key]):
        raise ValueError(f"{where}: field {key!r} must be {what}")
    return doc[key]


def load_group_spec(spec):
    """Build a FiniteGroup from a parsed group-input JSON object."""
    if not isinstance(spec, dict):
        raise ValueError("group input must be a JSON object")
    kind = spec.get("type")
    where = f"group input of type {kind!r}"
    if kind == "cayley":
        table = _field(spec, "table", where, _list_of(_INTS), "a list of rows of integers")
        labels = _field(
            spec, "labels", where, _list_of(lambda x: isinstance(x, str)), "a list of strings", None
        )
        return group_from_cayley(table, labels=labels)
    if kind == "perm":
        degree = _field(spec, "degree", where, _is_int, "an integer")
        gens = _field(
            spec, "generators", where, _list_of(_list_of(_INTS)),
            "a list of generators, each a list of cycles of integers",
        )
        return group_from_permutations(degree, [perm_from_cycles(degree, c) for c in gens])
    if kind == "pc":
        orders = _field(spec, "orders", where, _INTS, "a list of integers")
        powers = _field(
            spec, "powers", where, _object_of(r"[0-9]+", _WORD),
            'an object mapping "i" to a word of [generator, exponent] pairs', {},
        )
        commutators = _field(
            spec, "commutators", where, _object_of(r"[0-9]+,[0-9]+", _WORD),
            'an object mapping "j,i" to a word of [generator, exponent] pairs', {},
        )
        return group_from_pc_presentation(
            orders,
            powers={int(k): [tuple(t) for t in v] for k, v in powers.items()},
            commutators={
                tuple(map(int, k.split(","))): [tuple(t) for t in v]
                for k, v in commutators.items()
            },
        )
    raise ValueError(f"unknown group input type {kind!r}")


def resolve_group(arg):
    if arg.startswith("catalog:"):
        return get_group(arg.split(":", 1)[1])
    with open(arg, encoding="utf-8") as fh:
        return load_group_spec(json.load(fh))


def _word_reader(G):
    """parse_word for G, with its generator lookup built once."""
    names = getattr(G, "generator_names", None)
    gens = getattr(G, "pc_generators", None)
    lookup = None if names is None or gens is None else dict(zip(names, gens))

    def read(token):
        if _is_int(token):
            if not 0 <= token < G.order:
                raise ValueError(f"element index {token} out of range")
            return token
        if lookup is None:
            raise ValueError("generator words require a pc-presented group")
        out = 0
        for part in token.split("*"):
            if "^" in part:
                name, exp = part.split("^", 1)
                exp = int(exp)
            else:
                name, exp = part, 1
            if name not in lookup:
                raise ValueError(f"unknown generator {name!r} in word {token!r}")
            out = G.mul(out, G.power(lookup[name], exp))
        return out

    return read


def parse_word(G, token):
    """Evaluate a generator word like "x3*x4^2" (or an element index)."""
    return _word_reader(G)(token)


def parse_pairs_file(G, doc):
    """Candidate tuples (H, K, chain_steps_or_None) from a pairs file; each
    distinct token is evaluated once, by one generator lookup, and each
    distinct list of generator elements is closed once, one Subgroup."""
    if not isinstance(doc, dict):
        raise ValueError("pairs file must be a JSON object")
    entries = _field(doc, "pairs", "pairs file", lambda x: isinstance(x, list), "a list")
    subgroup = "a list of generator words and element indices"
    closed = {}
    read = cache(_word_reader(G))  # tokens repeat: each is evaluated once

    def close(tokens):
        gens = tuple(map(read, tokens))
        if gens not in closed:
            closed[gens] = subgroup_closure(G, gens)
        return closed[gens]

    out = []
    for i, entry in enumerate(entries):
        where = f"pairs file entry {i}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be a JSON object")
        H = close(_field(entry, "H", where, _TOKENS, subgroup))
        K = close(_field(entry, "K", where, _TOKENS, subgroup))
        steps = _field(entry, "chain", where, _list_of(_TOKENS), f"a list of {subgroup}", None)
        chain = [close(step) for step in steps] if steps else None
        out.append((H, K, chain))
    return out


# -- report assembly -----------------------------------------------------------


def _chain_json(chain):
    return {
        "subgroup_orders": [s.order for s in chain.steps],
        "centralizer_orders": [c.order for c in chain.centralizers],
        "indices": list(chain.indices),
    }


def pair_json(pair):
    return {
        "H_order": pair.H.order,
        "K_order": pair.K.order,
        "index": pair.index,
        "status": pair.status,
        "pci_support": len(pair.pci.support),
        "chain": _chain_json(pair.chain),
    }


def compute_pairs(G, args):
    candidates = None
    if args.pairs_file:
        with open(args.pairs_file, encoding="utf-8") as fh:
            candidates = parse_pairs_file(G, json.load(fh))
    return complete_irredundant_set(G, candidates=candidates)


def rank_json(G, pairs, complete):
    report = rank_total(G, pairs, complete=complete)
    return report, {
        "pairs": [
            {
                **pair_json(t.pair),
                "phi": euler_phi(t.pair.index),
                "k": t.k,
                "term": t.term,
            }
            for t in report.terms
        ],
        "total": report.total,
        "oracle": report.oracle_total,
        "agree": report.agree,
    }


def rank_text_table(report):
    lines = ["H_order\tK_order\t[H:K]\tindices\tk\tterm"]
    for t in report.terms:
        lines.append(
            f"{t.pair.H.order}\t{t.pair.K.order}\t{t.pair.index}\t"
            f"{'x'.join(map(str, t.pair.chain.indices))}\t{t.k}\t{t.term}"
        )
    lines.append(f"total\t{report.total}\toracle\t{report.oracle_total}\tagree\t{report.agree}")
    return "\n".join(lines)


def _omega_json(G, pair, v):
    """v's central character value on the pair, nonzero coefficients only."""
    n, row, den = central_character_value(G, pair, v)
    coeffs = {str(i): str(Fraction(x, den)) for i, x in enumerate(row) if x}
    return {"n": n, "coeffs": coeffs}


def units_json(G, pairs, complete):
    rows = []
    # bass_central_units verifies each central unit, or raises: exit 1
    built = bass_central_units(G)
    for spec, cu in built:
        row = {
            "spec": {"g": spec.g, "k": spec.k, "m": spec.m},
            "support": len(cu.value.support),
            "central_unit": True,
        }
        if complete:
            row["omega"] = [_omega_json(G, p, cu.value) for p in pairs]
        rows.append(row)
    doc = {"units": rows}
    if complete:
        report = rank_total(G, pairs, complete=True)
        doc["witness"] = log_rank_witness(G, [cu for _, cu in built], pairs)
        doc["total"], doc["oracle"] = report.total, report.oracle_total
        doc["cyclic_subnormal"] = check_cyclic_subnormal_hypothesis(G)[0]
    return doc


# -- emission ------------------------------------------------------------------


def _flatten(prefix, value, rows):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, list):
        rows.append((prefix, json.dumps(value)))
    else:
        rows.append((prefix, value))


def emit(payload, args, text=None):
    doc = {"version": __version__, **payload}
    if args.format == "tsv":
        rows = []
        _flatten("", doc, rows)
        out = "\n".join(f"{k}\t{v}" for k, v in rows)
    elif args.format == "text" and text is not None:
        out = text
    else:
        out = json.dumps(doc, indent=2, default=str)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


# -- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: exit 1, so that 2 only ever means an
    incomplete pair set."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="zgcentral",
        description="Shoda pairs, central idempotents, and central units of ZG.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_group=True, reads_pairs=True, formats=("json", "tsv")):
        if needs_group:
            p.add_argument("--group", required=True, help="catalog:NAME or a JSON file")
        if reads_pairs:
            p.add_argument("--pairs-file", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=formats, default="json")

    for name in ("analyze", "pairs", "units"):
        add_common(sub.add_parser(name))
    # the oracle counts classes and reads no pairs
    add_common(sub.add_parser("oracle"), reads_pairs=False)
    # rank alone has a text form, its table
    add_common(sub.add_parser("rank"), formats=("json", "tsv", "text"))
    add_common(sub.add_parser("catalog"), needs_group=False, reads_pairs=False)
    return parser


def run(args):
    if args.command == "catalog":
        entries = [
            {"name": e.name, "order": e.constructor().order} for e in catalog()
        ]
        emit({"catalog": entries}, args)
        return 0

    G = resolve_group(args.group)
    if args.command == "oracle":
        emit({"oracle": rank_oracle(G)}, args)
        return 0

    pairs, complete = compute_pairs(G, args)
    if args.command == "pairs":
        emit({"pairs": [pair_json(p) for p in pairs], "complete": complete}, args)
        return 0 if complete else 2
    if args.command == "rank":
        if not complete:
            emit({"error": "incomplete pair set"}, args)
            return 2
        report, doc = rank_json(G, pairs, complete)
        emit(doc, args, text=rank_text_table(report))
        return 0
    if args.command == "units":
        doc = units_json(G, pairs, complete)
        emit({**doc, "complete": complete}, args)
        return 0 if complete else 2
    # analyze
    payload = {
        "group_order": G.order,
        "pairs": [pair_json(p) for p in pairs],
        "complete": complete,
    }
    if complete:
        report, doc = rank_json(G, pairs, complete)
        payload["rank"] = doc
        payload["summary"] = {
            "rank_total": report.total,
            "oracle": report.oracle_total,
            "agree": report.agree,
        }
    emit(payload, args)
    return 0 if complete else 2


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (ZgError, OSError, ValueError, KeyError) as exc:
        # a KeyError's str is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
