"""Exact rational linear algebra helpers (small dense systems only)."""

from __future__ import annotations


def integer_rank(rows):
    """Rank over Q of a list of integer rows (fraction-free elimination)."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    prev_pivot = 1
    while rows and col < ncols:
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        p = top[col]
        for i in range(rank + 1, len(rows)):
            # Every row below the pivot takes the Bareiss step, also one
            # whose pivot-column entry is 0: skipping its scaling by p would
            # make the later divisions by prev_pivot inexact.
            r = rows[i]
            q = r[col]
            for j in range(col, ncols):
                r[j] = (r[j] * p - q * top[j]) // prev_pivot
        # a row that has become zero stays zero: drop it
        rows[rank + 1 :] = [r for r in rows[rank + 1 :] if any(r)]
        prev_pivot = p
        rank += 1
        col += 1
        if rank == len(rows):
            break
    return rank
