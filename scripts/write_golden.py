#!/usr/bin/env python3
"""Write, or check, the golden outputs in tests/golden.json.

Each group is recorded in two sections, kept apart:

- "fixed", what the mathematics fixes: the sha256 digests of the pairs'
  primitive central idempotents, as a sorted list; the rank formula's
  total and the class-counting oracle; each pair's (k, term), keyed by
  its idempotent's digest; and the digest of each of Theorem 1's units
  (`bass_central_units`), value and inverse, keyed by "g,k,m".  A
  refactor must leave these as they are.
- "chosen", what the code chooses: the order of the pairs (their
  idempotents' digests), each pair's chain steps as sorted member lists,
  K's generators, and the digest of each pair's linear character, its
  coset log and transversal, which pins the generator of H/K that the
  Shoda test picks, and the digest of each pair's class rows
  (`LinearCharacter.class_rows`), keyed by its idempotent's digest.
  The rows are the induced character on the power basis of Q(zeta_n),
  the zeta_n that the character sends the picked generator to, so they
  depend on that choice too.  A change to the pair search or the
  lattice may change these, and says so.

An element's digest is taken over (den, numerators as Python ints), so it
does not depend on the dtype the numerators are held in.

The tier-1 groups are the whole catalog, paper-1000-86 without a pair
file included, and paper-1000-86 with `paper9.json`
(`tests/test_golden.py` compares them).  The CI groups, the groups of
`tests/corpus.py`, record the fixed section and the class-rows digests,
and all but paper-1000-86 x C2 their pairs and rank without units.

    python scripts/write_golden.py                    # write every group
    python scripts/write_golden.py --check D1024 ...  # compare, exit 1 on a difference
"""

import argparse
import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import corpus  # noqa: E402

from zgcentral.catalog import catalog, get_group  # noqa: E402
from zgcentral.cli import parse_pairs_file  # noqa: E402
from zgcentral.rank import rank_total  # noqa: E402
from zgcentral.shoda import complete_irredundant_set  # noqa: E402
from zgcentral.units import bass_central_units  # noqa: E402

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden.json"
PAPER9 = "paper-1000-86 with paper9.json"


def _paper9():
    G = get_group("paper-1000-86")
    with resources.files("zgcentral.data").joinpath("paper9.json").open() as fh:
        return G, parse_pairs_file(G, json.load(fh))


def tier1_groups():
    """name -> () -> (G, candidates or None), for the groups tier-1 compares."""
    out = {e.name: (lambda e=e: (e.constructor(), None)) for e in catalog()}
    out[PAPER9] = _paper9
    return out


def ci_groups():
    """name -> (() -> (G, None), whether units are recorded), for the corpus
    groups a CI step compares.  Units are recorded on paper-1000-86 x C2
    alone: D1024's take over a minute, C2048's cyclic subgroups are larger
    still, and E64, of rank 0, has none."""
    return {
        name: (lambda name=name: (corpus.build(name), None), name == "paper-1000-86 x C2")
        for name in corpus.BUILDERS
    }


def digest(*elements):
    """sha256 over each element's (den, numerators as Python ints)."""
    doc = [[int(a.den), [int(v) for v in a.vec.tolist()]] for a in elements]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def character_digest(lam):
    """sha256 over a linear character's (coset_log, transversal) as Python ints."""
    doc = [[int(v) for v in lam.coset_log.tolist()], [int(v) for v in lam.transversal.tolist()]]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def rows_digest(lam):
    """sha256 over a pair's class rows: their shape, then their bytes as
    little-endian int64 (the rows are read-only int64)."""
    rows = lam.class_rows
    h = hashlib.sha256(json.dumps(rows.shape).encode())
    h.update(rows.astype("<i8", copy=False).tobytes())
    return h.hexdigest()


def record(G, candidates=None, units=True):
    """(fixed, chosen) for G, its pairs from `candidates` when given."""
    pairs, complete = complete_irredundant_set(G, candidates=candidates)
    report = rank_total(G, pairs, complete)
    keys = [digest(p.pci) for p in pairs]
    fixed = {
        "pcis": sorted(keys),
        "rank": {"total": report.total, "oracle": report.oracle_total},
        "terms": {key: [t.k, t.term] for key, t in zip(keys, report.terms)},
    }
    if units:
        fixed["units"] = {
            f"{spec.g},{spec.k},{spec.m}": digest(u.value, u.inverse)
            for spec, u in bass_central_units(G)
        }
    chosen = {
        "pairs": keys,
        "chains": [[sorted(S.members) for S in p.chain.steps] for p in pairs],
        "K_gens": [[int(g) for g in p.K.gens] for p in pairs],
        "characters": [character_digest(p.lam) for p in pairs],
        "class_rows": {key: rows_digest(p.lam) for key, p in zip(keys, pairs)},
    }
    return fixed, chosen


def compute(names=None):
    """{"fixed": {...}, "chosen": {...}, "ci": {...}} over the named groups,
    or over all of them."""
    out = {"fixed": {}, "chosen": {}, "ci": {}}
    for name, build in tier1_groups().items():
        if names is None or name in names:
            out["fixed"][name], out["chosen"][name] = record(*build())
    for name, (build, units) in ci_groups().items():
        if names is None or name in names:
            fixed, chosen = record(*build(), units=units)
            out["ci"][name] = {**fixed, "class_rows": chosen["class_rows"]}
    return out


def dump(golden):
    """The file's text: one line per section and group, keys sorted."""
    sections = []
    for section, entries in sorted(golden.items()):
        lines = [f" {json.dumps(name)}: {json.dumps(value, sort_keys=True)}" for name, value in sorted(entries.items())]
        sections.append(f"{json.dumps(section)}: {{\n" + ",\n".join(lines) + "\n}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--check", nargs="+", metavar="NAME", help="compare these groups with the file")
    args = ap.parse_args()
    if not args.check:
        GOLDEN.write_text(dump(compute()))
        return 0
    unknown = set(args.check) - set(tier1_groups()) - set(ci_groups())
    if unknown:
        ap.error(f"unknown group(s): {', '.join(sorted(unknown))}")
    golden = json.loads(GOLDEN.read_text())
    got = compute(set(args.check))
    bad = [
        (section, name)
        for section, entries in got.items()
        for name, value in entries.items()
        if golden[section].get(name) != value
    ]
    for section, name in bad:
        print(f"{name}: the {section} section differs from {GOLDEN.name}")
    print(f"{len(args.check)} group(s) checked, {len(bad)} difference(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
