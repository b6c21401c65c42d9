"""
Enumerating every equivalence class
===================================

The two-phase sweep (boundary seeds, spectrally filtered C/D rows and a
join that completes the A/B middles, over every row-sum target) lists
exactly one canonical representative per equivalence class.  n <= 12
finishes in a fraction of a second, n=14 in about half a second and
n=16 in a few seconds.
"""

from turynseq import (
    brute_force_classes,
    class_sum_profiles,
    decode,
    decompositions,
    enumerate_canonical,
    max_initial_zeros,
)

# Class counts for the first few n.  Odd n have no quadruples at all.
print("n  classes")
for n in (2, 4, 6, 8, 10):
    listing = enumerate_canonical(n)
    print(f"{n:<2} {len(listing)}")

# The full n=6 listing in the standard interchange format: an index and
# a compact hex code per line.  This text round-trips through the CLI.
print("\n" + enumerate_canonical(6).to_text())

# An independent oracle for tiny n: group ALL valid quadruples into
# orbits by brute force and count.  It agrees with the sweep.
count, listing = brute_force_classes(6)
assert count == 4 and listing.codes == enumerate_canonical(6).codes
print("brute-force oracle agrees at n=6:", count, "classes")

# ... and finds nothing at odd n.
for n in (3, 5):
    count, _ = brute_force_classes(n)
    print(f"n={n}: {count} valid quadruples")

# Row sums are constrained: a^2 + b^2 + 2c^2 + 2d^2 must equal 6n-2.
# Every such decomposition is realized by some class at small n.
print("\nrow-sum decompositions for n=10 (a b c d):")
for dec in decompositions(10):
    print(" ", dec.a, dec.b, dec.c, dec.d)

reps = [decode(code, 10) for code in enumerate_canonical(10).codes]
profiles = {p for quad in reps for p in class_sum_profiles(quad)}
assert profiles == set(decompositions(10))
print("all of them are realized by the 43 classes")

# A curiosity visible in the listings: codes can begin with several 0
# digits, meaning all four sequences open with + entries.
print("\nmost leading zero digits in a canonical code, by n:")
for n in (6, 8, 10):
    print(f"  n={n}: {max_initial_zeros(enumerate_canonical(n))}")
