"""legkit: combinatorial machinery for Legendrian unknots.

Front diagrams with exact Thurston-Bennequin / rotation invariants, the
signed-tree wavefront construction with catalog normalization, a rewrite
engine for disk characteristic foliations, numeric Legendrian lifting, and
classification oracles for tight and overtwisted ambient structures.

Only ``lifting`` needs numpy, so its names are resolved on first use by the
module ``__getattr__`` below (PEP 562): ``import legkit``, the combinatorial
layers and ``render`` never load numpy.  ``realize_front`` resolves from
``render``, where the realization lives, so it loads no numpy either.
"""

from .fronts import (
    FrontDiagram,
    FrontEvent,
    OrientedFront,
    check_bennequin,
    check_parity,
    in_unknot_range,
    insert_zigzag,
    displace_zigzag,
    invariant_pair,
    linking_matrix,
    parse_front,
    rotation_number,
    serialize_front,
    thurston_bennequin,
    trace_components,
    transverse_self_linking,
)
from .trees import (
    AcceptableEmbedding,
    SignedTree,
    build_front,
    catalog_front,
    catalog_tree,
    expected_invariants,
    move_end_edge,
    normalize_front_to_catalog,
    normalize_to_almost_linear,
    parse_tree,
    serialize_tree,
)
from .foliation import (
    FoliationState,
    extract_skeleton,
    init_boundary,
    reduce_interior,
    run_pipeline,
    to_elliptic_form,
    to_naf,
)
from .classify import (
    ContactStructureTag,
    classify_loose,
    classify_tight_unknot,
    complement_torus_data,
    d3_from_hopf,
    exceptional_unknot_classes,
    hopf_after_lutz,
    hopf_after_lutz_front,
    loose_check,
)

_LIFTING = frozenset({
    "LiftedCurve",
    "lagrangian_closure_integral",
    "lagrangian_embeddedness_check",
    "legendrian_lift",
    "numeric_rotation",
    "realize_front",
})


def __getattr__(name: str):
    if name == "lifting" or name in _LIFTING:
        from importlib import import_module

        module = import_module(".render" if name == "realize_front" else ".lifting", __name__)
        return module if name == "lifting" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# every public name, the lazy ones included, for ``from legkit import *``
__all__ = sorted({n for n in dir() if not n.startswith("_")} | _LIFTING | {"lifting"})

__version__ = "0.1.0"
