"""The probe test ewaldkit ran before it scaled to integers, kept as a
differential-test reference: every direction of the box is filtered per
facet, and the relint and mirror tests take Fraction dot products."""

from fractions import Fraction

from ewaldkit.polytope import dot
from ewaldkit.probes import Probe, _directions
from lattice_oracles import strictly_inside


def fraction_probe(p, u, bound):
    """displaceable_by_probe on Fraction coordinates."""
    u = tuple(Fraction(x) for x in u)
    if not strictly_inside(p, u):
        raise ValueError("probe base point must be strictly interior")
    for fi, (nf, cf) in enumerate(zip(p.normals, p.offsets)):
        for lam in _directions(p.dim, bound)[0]:
            if dot(nf, lam) != -1:
                continue
            t = dot(nf, u) - cf
            w = tuple(x + t * l for x, l in zip(u, lam))
            if not all(
                dot(nj, w) < cj
                for j, (nj, cj) in enumerate(zip(p.normals, p.offsets))
                if j != fi
            ):
                continue
            mirror = tuple(2 * a - b for a, b in zip(u, w))
            if strictly_inside(p, mirror):
                exit_t = min(
                    Fraction(cj - dot(nj, w)) / dot(nj, lam)
                    for nj, cj in zip(p.normals, p.offsets)
                    if dot(nj, lam) > 0
                )
                end = tuple(a + exit_t * l for a, l in zip(w, lam))
                return Probe(fi, lam, w, end)
    return None
