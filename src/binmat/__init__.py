"""binmat: a toolkit for binary matroid structure computations.

Bit-packed GF(2) linear algebra, standard-form matroid representations,
connectivity and separation analysis, isomorphism testing by a
first-match search (canonical forms for hashing), single-element growth
enumeration, minor search, and a driver
that recomputes the finite case analysis behind a published
decomposition theorem for the class of binary matroids with no minor
isomorphic to S10 or its dual.
"""

__version__ = "1.0.0"
