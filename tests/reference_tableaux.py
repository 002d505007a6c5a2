"""Column-strict fillings by brute force.

The program enumerates the fillings of a partition by one row-by-row
recursion (tableaux.fillings), whose rectangles are the crystal elements
and whose contents the Schur polynomials.  The reference below tries every
assignment of entries 1..n to the cells, keeps those whose rows weakly
increase and whose columns strictly increase, and sorts them.
"""

import itertools


def brute_force_fillings(partition: tuple[int, ...], n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every column-strict filling of the partition with entries in 1..n, as
    tuples of rows, in sorted order; zero parts are dropped."""
    partition = tuple(x for x in partition if x)
    out = []
    for entries in itertools.product(range(1, n + 1), repeat=sum(partition)):
        cells = iter(entries)
        rows = tuple(tuple(itertools.islice(cells, width)) for width in partition)
        weak = all(a <= b for row in rows for a, b in zip(row, row[1:]))
        strict = all(a < b for up, down in zip(rows, rows[1:]) for a, b in zip(up, down))
        if weak and strict:
            out.append(rows)
    return sorted(out)
