"""Exact arithmetic for splitting types, arrangement incidence algebras,
polysymmetric bases, and lambda-ring zeta inversion."""

__version__ = "0.1.0"

# The two vocabularies the command line offers as choices.  They live here,
# not in the layers that use them, so that the CLI can declare its options
# without importing those layers.
BASES = ("M", "H", "E", "Eplus", "P")
HYPER_MEASURES = ("motive", "count", "epoly", "euler", "rcc", "realeuler",
                  "stratum-mass")
