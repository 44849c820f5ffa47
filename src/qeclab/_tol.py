"""Every float tolerance in qeclab, one entry per meaning.

The objects are exact (rational phases, subgroups, integer dimensions), so
each comparison below decides an exact fact from floats computed on
O(1)-normed matrices.
"""

# exact identities: unitarity, pi(x)pi(y) = sigma(x,y)pi(xy), snapped phases, orthonormality
EXACT = 1e-9
# unit modulus, scalar and membership scans, SVD rank cutoff
SCAN = 1e-8
# derived integers (dimensions, multiplicities), subspace equality, recovery
DERIVED = 1e-7
# a probability distribution sums to 1
DIST_SUM = 1e-12
# smallest Gram eigenvalue that carries a Kraus direction of the recovery
GRAM_FLOOR = 1e-12
# relative gap between commutant eigenvalues of distinct constituents
EIGENGAP = 1e-6
# margin from SCAN and EXACT where numpy's abs and division stand in for
# Python's: they differ by a few units in the last place near 1, ~1e-16
SNAP_GUARD = 1e-12
