"""
The two-phase search for large n
================================

Every class listing, `enumerate_canonical` included, runs this search
over all row-sum targets, and its cost grows steeply with n; a single
target, or a single seed, reaches much larger n.  The search fixes the
outer entries of all four sequences first (phase one), then joins
candidate pools for the full C and D rows and fills in the remaining A
and B middles (phase two).  Demonstrated here at n=10, where the answer
is known to be 43 classes.
"""

from turynseq import (
    SearchConfig,
    SeedQuad,
    decode,
    encode,
    enumerate_canonical,
    fill_middle,
    generate_seeds,
)
from turynseq.search import search

# A search run targets one signed row-sum decomposition, or all of them
# when `squares` is left out; here (a, b, c, d) = (0, 0, 2, 5) with
# default boundary widths for n=10.
cfg = SearchConfig(n=10, squares=(0, 0, 2, 5))
print("config:", cfg.describe())

# Phase one: boundary seeds.  Outer entries of A, B, C (head_len each
# side) and D (head_len - 1) are chosen so that every lag they fully
# determine already sums to zero, and so that no non-canonical branch
# survives.
seeds = list(generate_seeds(cfg))
print("boundary seeds:", len(seeds))

# Phase two ingredient: pools of full C and D rows with the target
# signed sum that pass their own canonical sign clauses and whose
# spectra stay below (6n-2)/2 on a fixed 600-point grid.  The C and D
# of a canonical quadruple always pass their clauses, and the identity
# f_A + f_B + 2 f_C + 2 f_D = 6n-2 with f >= 0 makes the bound safe:
# no row of a canonical quadruple is ever filtered out.  A pool is
# bucketed by the boundary entries of its rows, and a search builds a
# bucket, from its middle entries alone, when a seed first names it.
# `seed.key(kind)` gives a row's (first, last) boundary entries, the key
# of its bucket (C, D) or of its join table (A, B).
c_keys = {seed.key("C") for seed in seeds}
d_keys = {seed.key("D") for seed in seeds}
print("seeds name", len(c_keys), "C buckets and", len(d_keys), "D buckets")

# The search joins seeds with pool rows matching their boundaries,
# keeps (C, D) pairs with f_C + f_D below the bound, and completes the
# A and B middles: with C and D fixed, A and B must satisfy
# N_A + N_B = -2 (N_C + N_D) at every lag, a lookup between a table of
# A rows and a table of B rows, each keyed by its boundary; A and B
# share one table when their sums match, as here (a = b = 0).  Results
# are canonical representatives, listed by their compact codes.
hits = search(cfg)
print("\nfound", len(hits), "classes with row sums (0, 0, 2, 5):")
for code in hits.codes:
    print(" ", code, decode(code, 10).row_sums())

# fill_middle is the phase-two core, usable on its own: given a seed
# and concrete C, D rows it streams the completions whose A and B rows
# pass their own canonical clauses, every canonical completion among
# them.
quad = decode(hits.codes[0], 10)
seed = SeedQuad.from_quad(quad, cfg.head_len)
completions = list(fill_middle(seed, quad.c, quad.d))
print("\ncompletions of the first hit's own seed and rows:", len(completions))

# Leaving `squares` out sweeps every signed decomposition in one pass
# over the seeds and reproduces the full class list, which is what
# enumerate_canonical runs.  A sweep checkpoints, resumes and stops
# after K hits exactly like a one-target hunt.
swept = search(SearchConfig(n=10))
assert swept == enumerate_canonical(10)
print("\nsweep reproduces the enumerated listing:", len(swept), "classes")

# The same machinery scales to n=38: decode the known solution, mask
# its middles, and phase two recovers the published A and B rows from
# its boundary seed plus C and D in well under a second.  The middles
# here have 24 entries, too many for 2^24-row tables, so they are
# filled by the pairwise walk instead of the table lookup.
code38 = "05128f55401f041adf7f65c53567822c9cb9c"
cfg38 = SearchConfig(n=38, squares=(8, -4, 8, -3))
known = decode(code38, 38)
seed38 = SeedQuad.from_quad(known, cfg38.head_len)
refound = list(fill_middle(seed38, known.c, known.d))
print("\nn=38 fill-in from the known boundary:", len(refound), "completion")
assert [encode(q, form="compact") for q in refound] == [code38]
print("it is exactly the published quadruple")
