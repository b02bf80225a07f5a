"""Exact-arithmetic lattice polytope analysis: Ewald sets and the weak,
strong, and star Ewald conditions; face displacements and neatness; polytope
bundles and the named families; closed-form Ewald counting; and probe
displaceability.

The functions classify and displace live in the submodules of the same
names (ewaldkit.classify.classify, ewaldkit.displace.displace), which the
package does not shadow."""

from .polytope import (
    HPolytope,
    VPolytope,
    FaceRef,
    NormalFanSignature,
    vertices,
    facet_description,
    convex_hull,
    dual,
    lattice_points,
    faces,
    normal_fan_signature,
    normally_isomorphic,
    minkowski_sum,
    oda_instance_check,
    cartesian_product,
    face_slice,
)
from .intlinalg import (
    primitive_part,
    det,
    hermite_normal_form,
)
from .classify import (
    ClassReport,
    is_smooth,
    is_reflexive,
    is_monotone,
    is_ut_free,
    is_deeply_smooth,
    deeply_smooth_characterizations_agree,
    is_quasi_smooth_polygon,
)
from .ewald import (
    EwaldSet,
    ewald_set,
    weak_ewald,
    strong_ewald,
    star_sets,
    star_ewald_face,
    star_ewald,
    fs_property,
    nill2d_basis,
    verify_origin_next_to,
)
from .displace import (
    first_displacement,
    displacement_slice,
    normally_isomorphic_displacements,
    NeatVerdict,
    is_neat,
)
from .bundles import (
    BundleSpec,
    build_bundle,
    bundle_classification,
    neat_transfer_bundle_check,
    ssb,
    ssb_as_bundle,
    small_fiber_bundle,
    monotone_simplex,
    smooth_simplex,
    cube,
    segment,
    del_pezzo,
    paffenholz_p6,
    nill_triangle,
    monotone_polygon,
    catalog,
    generate,
)
from .counting import (
    trinomial,
    ewald_count_simplex,
    ewald_count_ssb,
    emin_upper_bound,
    FacetEwaldSplit,
    facet_ewald_split,
    small_bundle_split_recursion_check,
    volume,
    normalized_volume,
)
from .probes import (
    Probe,
    is_integrally_transverse,
    displaceable_by_probe,
    star_probe_crosscheck,
)
from .fileio import (
    parse_polytope,
    serialize_polytope,
    analyze_polytope,
    ingest_database,
)

__version__ = "0.1.0"
