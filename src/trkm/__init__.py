"""Twin restricted kernel machines (TRKM) for classification and regression.

Both tasks reduce to a pair of bordered linear systems over a regularized
kernel block; the package also carries the single-machine RKM baseline,
the 70:30 split / five-fold grid-search protocol, and the rank-based
comparison statistics used to benchmark the models.
"""

__version__ = "0.1.0"
